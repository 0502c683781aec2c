import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

import pfaffkit as pk
from pfaffkit import diffalg
from pfaffkit.cli import run
from pfaffkit.diffalg import BaseDiffField, DiffPoly, DiffRatFunc
from pfaffkit.errors import ArityMismatch, PfaffkitError
from pfaffkit.parser import (
    EvalContext,
    Num,
    ParseError,
    _eval_indeterminate,
    _fold,
    _ring_combine,
    eval_ratfunc,
    parse_expression_text,
    parse_field_decl_text,
    parse_fixture_text,
    parse_group_text,
    parse_linear_text,
    parse_ode_text,
)

LAMBERT = "tests/fixtures/lambert_backward.pfaff"
SQRT_FWD = "tests/fixtures/sqrt_shift_forward.pfaff"
UNDEFINED_BWD = "tests/fixtures/undefined_rule_backward.pfaff"
NOETHERIAN_BWD = "tests/fixtures/noetherian_backward.pfaff"


def eval_uexpr(node, base):
    """Evaluate an AST as an expression in u, u', u'', ... over the base."""
    return _eval_indeterminate(node, base, "u")


def invoke(*argv):
    doc, code = run(list(argv))
    if doc is not None:
        doc.pop("_pretty", None)
    return doc, code


class TestExpressionParsing:
    def test_ode_with_field_declaration(self):
        spec = parse_ode_text("y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)")
        assert spec.base.field is not None
        assert spec.base.field.degree == 2
        assert spec.base.var is None

    def test_independent_variable_is_detected(self):
        spec = parse_ode_text("y' = y^2 + t*y")
        assert spec.base.var == "t"
        spec_z = parse_ode_text("y' = y/z")
        assert spec_z.base.var == "z"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_ode_text("y' = )(")
        assert err.value.col == 6

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_ode_text("y' = q + 1")

    def test_derivatives_rejected_in_rhs(self):
        with pytest.raises(ParseError):
            parse_ode_text("y' = y' + 1")

    def test_linear_parse(self):
        spec = parse_linear_text("y''' - t*y = 0")
        assert len(spec.coeffs) == 4
        assert spec.coeffs[0] == (-1) * spec.base.gen()
        assert (spec.coeffs[3] - spec.base.one()).is_zero()

    def test_linear_requires_homogeneous(self):
        with pytest.raises(ParseError):
            parse_linear_text("y'' + t = 0")

    def test_linear_rejects_products_of_y(self):
        with pytest.raises(ParseError):
            parse_linear_text("y*y' = 0")

    def test_field_decl_forms(self):
        d1 = parse_field_decl_text("Q")
        assert d1.field is None and d1.var is None
        d2 = parse_field_decl_text("Q(t)")
        assert d2.var == "t"
        d3 = parse_field_decl_text("Q(r: r^2-2, z)")
        assert d3.field.degree == 2 and d3.var == "z"
        d4 = parse_field_decl_text("Q(t, r: r^2-2)")
        assert d4.field.degree == 2 and d4.var == "t" and d4.gen_name == "r"

    def test_trailing_garbage_after_declaration(self):
        with pytest.raises(ParseError):
            parse_ode_text("y' = y over Q over Q")

    def test_huge_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_ode_text("y' = (y+1)^999999")

    def test_constant_right_hand_sides(self):
        for eq in ("y' = 0", "y' = 5", "y' = 1/2", "y' = t"):
            doc, code = invoke("classify-ode", eq)
            assert code == 0, eq
            assert doc["verdicts"] == {"pfaffian": "yes", "rationally_pfaffian": "yes"}

    @pytest.mark.parametrize("eq, code, expected", [
        ("y' = y/(2-2)", 1, {"error": {
            "kind": "parse", "message": "division by zero", "line": 1, "column": 7,
            "expected": []}}),
        # a constant of Q(r) that is zero only by the defining polynomial
        ("y' = y + 1/(r^2-2) over Q(r: r^2-2)", 1, {"error": {
            "kind": "parse", "message": "division by zero", "line": 1, "column": 11,
            "expected": []}}),
        ("y' = (1/0)*y", 1, {"error": {
            "kind": "parse", "message": "division by zero", "line": 1, "column": 8,
            "expected": []}}),
        ("y' = 0^0*y", 0, {
            "command": "classify-ode", "input": "y' = 0^0*y", "base": "Q",
            "verdicts": {"pfaffian": "yes", "rationally_pfaffian": "yes"}, "criteria": [],
            "certificates": {
                "rational_chain": ["y1' = y1"], "noetherian_system": ["y' = y*w", "w' = 0"],
                "noetherian_assignments": ["y", "1"], "pfaffian_chain": ["y1' = y1"],
                "element": "y1"},
            "reasons": {"pfaffian": None, "rationally_pfaffian": None},
            "notes": [], "provenance": []}),
        # a constant of K(t) times the ring variable
        ("y' = (1/t)*y^2", 0, {
            "command": "classify-ode", "input": "y' = (1/t)*y^2", "base": "Q(t)",
            "verdicts": {"pfaffian": "yes", "rationally_pfaffian": "yes"}, "criteria": [],
            "certificates": {
                "rational_chain": ["y1' = (1/t)*y1^2"],
                "noetherian_system": ["y' = (1/t)*y^2*w", "w' = 0"],
                "noetherian_assignments": ["y", "1"],
                "pfaffian_chain": ["y1' = (1/t)*y1^2"], "element": "y1"},
            "reasons": {"pfaffian": None, "rationally_pfaffian": None},
            "notes": [], "provenance": []}),
        ("y' = y^10001", 1, {"error": {
            "kind": "parse", "message": "exponent 10001 exceeds the supported bound 10000",
            "line": 1, "column": 8, "expected": []}}),
        # divisors in the defining polynomial: zero, and not a constant
        ("y' = y over Q(r: r^2/0)", 1, {"error": {
            "kind": "parse", "message": "division by zero", "line": 1, "column": 21,
            "expected": []}}),
        ("y' = y over Q(r: r^2/r)", 1, {"error": {
            "kind": "parse", "message": "division by a non-constant", "line": 1,
            "column": 21, "expected": []}}),
    ])
    def test_constant_subexpression_envelopes(self, eq, code, expected):
        doc, got = invoke("classify-ode", eq)
        assert got == code
        assert doc == {"schema_version": "1", **expected}


class TestRoundTrips:
    def test_expression_round_trip_on_fixture_strings(self):
        fixtures = [
            "y^2 + t*y",
            "(y-2)*(y-3)/(y*(y-1))",
            "1/(2*y)",
            "-(1/z)*(1-y)*y^2",
            "y^3 - 1/2*y + 7/3",
        ]
        for text in fixtures:
            tokens_var = "z" if "z" in text else ("t" if "t" in text else None)
            base = BaseDiffField(None, tokens_var)
            ctx = EvalContext(base=base, ring=("y",), gen_name=None)
            node = parse_expression_text(text)
            value = eval_ratfunc(node, ctx)
            reparsed = eval_ratfunc(parse_expression_text(str(value)), ctx)
            assert reparsed == value, text

    def test_group_round_trip(self):
        fixtures = [
            "Ga", "Gm", "GaxGm", "E", "Fin", "SL(2)", "GL(3)", "PSL(4)",
            "T(3)", "Prod(SL(2), SL(2), Gm)", "Ext(SL(2), Gm)",
            "Sub(Prod(SL(2), T(2)))", "Ext(Prod(Ga, Gm), Sub(SL(2)))",
        ]
        for text in fixtures:
            g = parse_group_text(text)
            assert parse_group_text(str(g)) == g, text

    def test_uexpr_round_trip(self):
        base = BaseDiffField(None, "t")
        red = pk.riccati_reduce(
            [(-1) * base.gen(), base.coerce(0), base.coerce(0), base.one()], base
        )
        reparsed = eval_uexpr(parse_expression_text(str(red)), base)
        assert reparsed == red

    def test_chain_serialization_round_trip(self):
        doc, code = invoke("classify-ode", "y' = 1/(2*y)")
        lines = ["rule: " + s for s in doc["certificates"]["pfaffian_chain"]]
        lines += ["element: " + doc["certificates"]["element"], "ode: y' = 1/(2*y)"]
        fixture = parse_fixture_text("\n".join(lines))
        assert fixture.chain.serialize() == doc["certificates"]["pfaffian_chain"]


# ---------------------------------------------------------------------------
# the evaluator as it was, with a fraction at every node of a ring variable


def ref_eval_ratfunc(node, ctx):
    """Test-only copy of the evaluator that lifted every value meeting a ring
    variable to a DiffRatFunc and reduced after every operation."""
    base, ring = ctx.base, ctx.ring

    def lift(v):
        if isinstance(v, DiffRatFunc):
            return v
        return DiffRatFunc.from_poly(DiffPoly.const(base, ring, v))

    def leaf(n):
        if isinstance(n, Num):
            return base.coerce(n.value)
        if n.primes:
            raise ParseError(f"derivatives of {n.name} are not allowed here", n.line, n.col)
        if n.name in ring:
            return DiffRatFunc.from_poly(DiffPoly.var(base, ring, n.name))
        if n.name == ctx.gen_name and ctx.gen_name is not None:
            return base.coerce(base.field.gen())
        if n.name == base.var:
            return base.coerce(base.gen())
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def divide(n, lhs, rhs):
        if rhs.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        return lhs / rhs

    fold = _ring_combine(pow, divide)

    def combine(n, a, b=None):
        if isinstance(a, DiffRatFunc) or isinstance(b, DiffRatFunc):
            a, b = lift(a), b if b is None else lift(b)
        return fold(n, a, b)

    return lift(_fold(node, leaf, combine))


# base fields of the sweep: (label, defining polynomial or None, generator, t)
SWEEP_FIELDS = [
    ("Q", None, None, None),
    ("Q(sqrt2)", [-2, 0, 1], "r", None),
    ("Q(cbrt2)", [-2, 0, 0, 1], "c", None),
    ("Q(t)", None, None, "t"),
    ("Q(sqrt2)(t)", [-2, 0, 1], "r", "t"),
]
SWEEP_RINGS = [("y",), ("y1", "y2")]
SUBTREE_SHAPES = (
    "sum", "difference", "product", "power", "negation", "by number",
    "by polynomial", "by subtree", "by fraction", "constant", "zero divisor",
)


def rand_expression(rng, ring, constants, depth):
    """Seeded expression text over the ring variables and the base constants."""
    leaves = list(ring) * 2 + constants
    if depth == 0:
        return rng.choice(leaves)

    def sub():
        return rand_expression(rng, ring, constants, depth - 1)

    shape = rng.choice(SUBTREE_SHAPES)
    if shape == "sum":
        return f"({sub()}) + ({sub()})"
    if shape == "difference":
        return f"({sub()}) - ({sub()})"
    if shape == "product":
        return f"({sub()})*({sub()})"
    if shape == "power":
        return f"({sub()})^{rng.randint(0, 4)}"
    if shape == "negation":
        return f"-({sub()})"
    if shape == "by number":
        return f"({sub()})/{rng.randint(1, 5)}"
    if shape == "by polynomial":
        return f"({sub()})/({rng.choice(ring)} - {rng.choice(constants)})"
    if shape == "by subtree":
        return f"({sub()})/({sub()})"
    if shape == "by fraction":
        return f"({sub()})/(({sub()})/({rng.choice(ring)} + {rng.choice(constants)}))"
    if shape == "constant":
        return f"({rng.choice(constants)} - {rng.choice(constants)})*({sub()})"
    # rare, so that most trees evaluate
    if rng.random() < 0.3:
        x = rng.choice(leaves)
        return f"({sub()})/({x} - {x})"
    return sub()


def outcome_of(evaluate, node, ctx):
    """The value's stored terms and printed form, or the error it raised."""
    try:
        f = evaluate(node, ctx)
    except PfaffkitError as err:
        return type(err).__name__, str(err)
    return f.num.terms, f.den.terms, str(f)


def sweep_context(minpoly, gen, var, ring):
    field = None if minpoly is None else pk.nf_new(minpoly, name=gen)
    return EvalContext(BaseDiffField(field, var), ring, gen)


class TestPolynomialSubtrees:
    """``eval_ratfunc`` keeps subtrees without division by a polynomial as
    DiffPoly; its results must equal the fraction-at-every-node evaluator's."""

    @pytest.mark.parametrize("ring", SWEEP_RINGS, ids=["y", "y1-y2"])
    @pytest.mark.parametrize("label, minpoly, gen, var", SWEEP_FIELDS,
                             ids=[f[0] for f in SWEEP_FIELDS])
    def test_matches_the_reference_evaluator(self, label, minpoly, gen, var, ring):
        ctx = sweep_context(minpoly, gen, var, ring)
        constants = ["2", "(1/3)", "(-5/2)"] + [name for name in (gen, var) if name]
        rng = random.Random(f"polynomial-subtrees/{label}/{ring}")
        errors = 0
        for _ in range(60):
            node = parse_expression_text(rand_expression(rng, ring, constants, 3))
            want = outcome_of(ref_eval_ratfunc, node, ctx)
            assert outcome_of(eval_ratfunc, node, ctx) == want
            errors += isinstance(want[0], str)
        assert errors < 30

    @pytest.mark.parametrize("text, col", [
        ("1/(y-y)", 2),
        ("(y+1)*(2/(y*0))", 9),
        ("y^2/((y-1)/(y-1) - 1)", 4),
        ("(y/(y+1))/((y - y)/(y+2))", 10),
        ("y + 1/(r^2 - 2)", 6),
        ("(1/(y-r))/(r*r - 2)", 10),
    ])
    @pytest.mark.parametrize("ring", SWEEP_RINGS, ids=["y", "y1-y2"])
    def test_zero_divisors_raise_alike(self, text, col, ring):
        ctx = sweep_context([-2, 0, 1], "r", None, ring)
        if ring != ("y",):
            # each 'y' before the division becomes the two characters 'y1'
            text, col = text.replace("y", "y1"), col + text[:col].count("y")
        node = parse_expression_text(text)
        for evaluate in (ref_eval_ratfunc, eval_ratfunc):
            with pytest.raises(ParseError) as err:
                evaluate(node, ctx)
            assert (err.value.message, err.value.line, err.value.col) == ("division by zero", 1, col)

    @pytest.mark.parametrize("text, reductions", [
        ("y' = (1/2 + r)*(y - r)*(y - 1) over Q(r: r^2-2)", 0),
        ("y' = (y-1)^9/(y*(y-1/3))", 1),
    ])
    def test_reductions_while_parsing(self, monkeypatch, text, reductions):
        calls = []
        original = diffalg._reduce_fraction

        def counting(num, den):
            calls.append(1)
            return original(num, den)

        monkeypatch.setattr(diffalg, "_reduce_fraction", counting)
        parse_ode_text(text)
        assert len(calls) == reductions


class TestCommands:
    def test_classify_ode_theorem_family(self):
        doc, code = invoke(
            "classify-ode", "y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"
        )
        assert code == 0
        assert doc["verdicts"] == {"pfaffian": "no", "rationally_pfaffian": "yes"}
        assert doc["criteria"][0]["name"] == "degree+disintegration"
        assert doc["certificates"]["noetherian_system"]

    def test_classify_ode_embeds_verifiable_certificate(self, tmp_path):
        doc, code = invoke("classify-ode", "y' = 1/(2*y)")
        assert code == 0 and doc["verdicts"]["pfaffian"] == "yes"
        lines = ["rule: " + s for s in doc["certificates"]["pfaffian_chain"]]
        lines += ["element: " + doc["certificates"]["element"], "ode: y' = 1/(2*y)"]
        fx = tmp_path / "cert.pfaff"
        fx.write_text("\n".join(lines), encoding="utf-8")
        doc2, code2 = invoke("chain-verify", "--mode", "forward", str(fx))
        assert code2 == 0 and doc2["result"] == "pass"

    def test_rational_certificates_feed_back_through_chain_verify(self, tmp_path):
        eq = "y' = (y-2)*(y-3)/(y*(y-1))"
        doc, code = invoke("classify-ode", eq)
        assert code == 0 and doc["verdicts"]["rationally_pfaffian"] == "yes"

        # one-rule rational chain, defining equation renamed to w
        chain_fx = tmp_path / "rational.pfaff"
        chain_fx.write_text("\n".join(
            ["rule: " + s for s in doc["certificates"]["rational_chain"]]
            + ["defining: w' = (w-2)*(w-3)/(w*(w-1))", "assign: w"]
        ), encoding="utf-8")
        d1, c1 = invoke("chain-verify", "--mode", "backward", str(chain_fx))
        assert c1 == 0 and d1["result"] == "pass"

        # unconstrained two-variable system with its embedded assignments
        noeth_fx = tmp_path / "noetherian.pfaff"
        noeth_fx.write_text("\n".join(
            ["system: noetherian", "defining: " + eq]
            + ["rule: " + s for s in doc["certificates"]["noetherian_system"]]
            + ["assign: " + a for a in doc["certificates"]["noetherian_assignments"]]
        ), encoding="utf-8")
        d2, c2 = invoke("chain-verify", "--mode", "backward", str(noeth_fx))
        assert c2 == 0 and d2["result"] == "pass"

    def test_group_check_obstruction(self):
        doc, code = invoke("group-check", "--allowed", "d-solvable:2", "GL(3)")
        assert code == 0
        assert doc["verdict"] == "no"
        assert "PSL(3)" in doc["obstruction"]

    def test_group_check_witness(self):
        doc, code = invoke("group-check", "--allowed", "eulerian", "Ext(SL(2), Gm)")
        assert code == 0 and doc["verdict"] == "yes"
        assert doc["witness"] == ["Gm", "PSL(2)", "Fin"]

    def test_group_check_one_reducible(self):
        doc, code = invoke("group-check", "--allowed", "1-reducible", "E")
        assert code == 0 and doc["verdict"] == "yes"

    def test_chain_verify_backward_fixture(self):
        doc, code = invoke("chain-verify", "--mode", "backward", LAMBERT)
        assert code == 0 and doc["result"] == "pass"

    def test_chain_verify_forward_fixture(self):
        doc, code = invoke("chain-verify", "--mode", "forward", SQRT_FWD)
        assert code == 0 and doc["result"] == "pass"

    def test_chain_verify_backward_rule_undefined_at_the_assignments(self):
        doc, code = invoke("chain-verify", "--mode", "backward", UNDEFINED_BWD)
        assert code == 0
        assert doc["result"] == "fail" and doc["rule_index"] == 1
        assert doc["witness"] == "rule 1 is undefined at the assignments"

    def test_chain_verify_mode_mismatch(self):
        doc, code = invoke("chain-verify", "--mode", "forward", LAMBERT)
        assert code == 1 and "error" in doc

    def test_noetherianize(self):
        doc, code = invoke("noetherianize", "y' = (y-2)*(y-3)/(y*(y-1))")
        assert code == 0
        assert doc["variables"] == ["y", "w"]
        assert len(doc["noetherian_system"]) == 2

    def test_residues_command(self):
        doc, code = invoke(
            "residues", "(y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"
        )
        assert code == 0
        assert doc["residue_sum_zero"] is True
        assert {e["pole"] for e in doc["entries"]} == {"2", "r + 1"}

    def test_residues_unfactorable_is_validation_error(self):
        doc, code = invoke("residues", "(y^2-2)/(y*(y-1))")
        assert code == 1 and "error" in doc

    @pytest.mark.parametrize("function", [
        "(y^2-2)/(y*(y-1))",
        "y/(y^2+1)",
        # the cubic splits over this cyclic field, but none of its roots is
        # rational, and irrational roots are found only in a quadratic tail
        "(y^3-3*y+1)/(y*(y-1)) over Q(r: r^3-3*r+1)",
    ])
    def test_residues_without_a_linear_factorization_name_their_kind(self, function):
        doc, code = run(["residues", function])
        assert code == 1
        assert doc["error"] == {
            "kind": "NoLinearFactorization",
            "message": "no full linear factorization over the declared field; supply the "
                       "function as a product of linear factors",
        }

    @pytest.mark.parametrize("function", ["0", "0*(y-1)/y", "0 over Q(r: r^2-2)"])
    def test_residues_of_zero_is_a_division_by_zero(self, function):
        # no factored input could help here: dx/f has no residues at all
        doc, code = invoke("residues", function)
        assert code == 1
        assert doc["error"] == {"kind": "DivisionByZero", "message": "dx/f is undefined for f = 0"}

    def test_logderiv_reduce(self):
        doc, code = invoke("logderiv-reduce", "y''' - t*y = 0")
        assert code == 0
        assert doc["reduction"] == "u^3 + 3*u*u' + u'' - t"
        assert doc["order"] == 2

    def test_logderiv_reduce_looks_up_riccati_reduce_on_each_call(self, monkeypatch):
        # a wrapper installed on diffalg.riccati_reduce after cli is loaded
        # must see the command's call; perfbench/capture.py relies on it
        import pfaffkit.diffalg as diffalg

        calls = []
        original = diffalg.riccati_reduce

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(diffalg, "riccati_reduce", counting)
        doc, code = run(["logderiv-reduce", "y'' + t*y = 0"])
        assert code == 0 and len(calls) == 1

    def test_search_presentation_found(self):
        doc, code = invoke("search-presentation", "y' = 1/(2*y)")
        assert code == 0 and doc["found"] is True
        assert doc["presentation"] == {"h": "1/x", "p": "-1/2*x^3"}

    def test_search_presentation_empty(self):
        doc, code = invoke(
            "search-presentation", "y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"
        )
        assert code == 0 and doc["found"] is False

    def test_asserted_field_provenance_note(self):
        doc, code = invoke(
            "classify-ode", "y' = (y-s)/(y*(y-1)) over Q(s: s^4-s-2)"
        )
        assert code == 0
        assert any("asserted" in note for note in doc["provenance"])

    def test_pretty_flag_same_data(self):
        doc1, _ = invoke("group-check", "--allowed", "eulerian", "Gm")
        doc2, _ = invoke("--pretty", "group-check", "--allowed", "eulerian", "Gm")
        assert doc1 == doc2


def readme_fixtures():
    """The ``text`` blocks of the README section on fixture files."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Fixture files", 1)[1].split("\n### ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```text\n")[1:]]


class TestFixtureFiles:
    def test_readme_examples_pass(self, tmp_path):
        blocks = readme_fixtures()
        assert len(blocks) == 3
        for text in blocks:
            fx = tmp_path / "readme.pfaff"
            fx.write_text(text, encoding="utf-8")
            mode = "backward" if "defining:" in text else "forward"
            doc, code = invoke("chain-verify", "--mode", mode, str(fx))
            assert code == 0 and doc["result"] == "pass", (text, doc)

    def lambert(self):
        with open(LAMBERT, encoding="utf-8") as fh:
            return fh.read()

    def test_unknown_key_rejected(self):
        text = self.lambert() + "rul: y2' = y2 + y1\n"
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        assert err.value.message == "unknown fixture key 'rul'"
        assert err.value.line == len(text.splitlines())

    @pytest.mark.parametrize("text, line", [
        ("rule: y1' = -1/2*y1^3\nelement: 1/y1\nelement: y1\node: y' = 1/(2*y)\n", 3),
        ("rule: y1' = -1/2*y1^3\nelement: 1/y1\node: y' = 1/(2*y)\node: y' = y\n", 4),
        ("field: Q\nrule: y1' = -1/2*y1^3\nelement: 1/y1\nfield: Q(t)\node: y' = 1/(2*y)\n", 4),
        ("var: z\nvar: t\ndefining: w' = w\nrule: y1' = y1\nassign: w\n", 2),
        ("system: noetherian\ndefining: y' = y\nsystem: noetherian\nrule: y' = y\n", 3),
        ("defining: w' = w\nrule: y1' = y1\nassign: w\ndefining: w' = 2*w\n", 4),
    ], ids=["element", "ode", "field", "var", "system", "defining"])
    def test_single_valued_key_appears_once(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        assert err.value.message.startswith("a second ")
        assert err.value.line == line

    def test_named_assignment_must_match_its_rule(self):
        text = self.lambert().replace("assign: y1 = 1/(1+w)", "assign: y2 = 1/(1+w)")
        text = text.replace("assign: y2 = w", "assign: y9 = w")
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        assert err.value.message == "assignment 1 must name y1, the variable of rule 1"

    def test_named_and_unnamed_assignments_read_alike(self):
        text = self.lambert()
        unnamed = text.replace("assign: y1 = ", "assign: ").replace("assign: y2 = ", "assign: ")
        assert parse_fixture_text(unnamed) == parse_fixture_text(text)

    @pytest.mark.parametrize("extra", ["element: 1/y1", "ode: y' = y"])
    def test_forward_line_in_a_backward_fixture(self, extra):
        text = self.lambert() + extra + "\n"
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        key = extra.split(":")[0]
        assert err.value.message == f"a backward fixture has no {key!r} line"
        assert (err.value.line, err.value.col) == (len(text.splitlines()), 1)

    def test_assignment_in_a_forward_fixture(self):
        # the assignment is never evaluated, so 1/0 is not what fails
        text = "rule: y1' = -1/2*y1^3\nassign: 1/0\nelement: 1/y1\node: y' = 1/(2*y)\n"
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        assert err.value.message == "an 'assign' line needs a 'defining' line"
        assert (err.value.line, err.value.col) == (2, 1)

    @pytest.mark.parametrize("old, new, message, line, col", [
        ("assign: y2 = w", "assign: y2 = q", "unknown identifier 'q'", 6, 14),
        ("rule: y2' = (1/z)*y1*y2", "rule: y2' = (1/z)*y1*y2/0", "division by zero", 8, 24),
        ("var: z", "var: z\nfield:  Q(r: r^2 $ 2)", "unexpected character '$'", 4, 18),
        ("var: z", "var: z\nfield: Q(r: r^2-2, s: s^2-3)",
         "a second generator in a field declaration", 4, 20),
        ("var: z", "var: z\nfield: Q(t, z)",
         "a second independent variable in a field declaration", 4, 13),
    ], ids=["assign", "rule", "field", "field-generator", "field-variable"])
    def test_errors_inside_a_value_give_file_positions(self, old, new, message, line, col):
        text = self.lambert().replace(old, new)
        with pytest.raises(ParseError) as err:
            parse_fixture_text(text)
        assert (err.value.message, err.value.line, err.value.col) == (message, line, col)

    def test_noetherian_fixture_file_is_the_readme_block(self):
        text = next(block for block in readme_fixtures() if "system: noetherian" in block)
        assert Path(NOETHERIAN_BWD).read_text(encoding="utf-8") == text
        doc, code = invoke("chain-verify", "--mode", "backward", NOETHERIAN_BWD)
        assert code == 0 and doc["result"] == "pass"

    def test_noetherian_fixture_reads_compare_equal(self):
        text = next(block for block in readme_fixtures() if "system: noetherian" in block)
        first, second = parse_fixture_text(text), parse_fixture_text(text)
        assert first.chain == second.chain and first == second
        assert hash(first.chain) == hash(second.chain)
        assert first.chain != parse_fixture_text(text.replace("- 5*y*w", "- 4*y*w")).chain

    def test_extra_assignment_is_an_arity_mismatch(self):
        fixture = parse_fixture_text(self.lambert() + "assign: y3 = 1\n")
        with pytest.raises(ArityMismatch):
            pk.verify_backward(fixture.defining, list(fixture.assignments), fixture.chain)


class TestSharedParser:
    """``run`` builds its argument parser once; no call may see another's."""

    def test_candidate_does_not_leak_into_the_next_call(self):
        plain = invoke("search-presentation", "y' = 1/(2*y)")
        # a candidate that does not parse fails its own call only
        doc, code = invoke("search-presentation", "y' = 1/(2*y)", "--candidate", ")(")
        assert (code, doc["error"]["kind"]) == (1, "parse")
        assert invoke("search-presentation", "y' = 1/(2*y)") == plain
        assert plain[1] == 0 and plain[0]["found"] is True

    def test_usage_error_then_good_call(self):
        doc, code = invoke("classify-ode")
        assert (code, doc["error"]["kind"]) == (1, "usage")
        good, code = invoke("group-check", "--allowed", "eulerian", "Gm")
        assert code == 0
        assert good == invoke("group-check", "--allowed", "eulerian", "Gm")[0]
        assert "error" not in good

    def test_help_returns_no_envelope(self, capsys):
        assert run(["--help"]) == (None, 0)
        assert run(["classify-ode", "--help"]) == (None, 0)
        assert "usage" in capsys.readouterr().out


class TestExitCodes:
    def test_parse_error_is_exit_1(self):
        doc, code = invoke("classify-ode", "y' = )(")
        assert code == 1
        assert doc["error"]["kind"] == "parse"
        assert doc["error"]["column"] == 6

    def test_unknown_subcommand_is_exit_1(self):
        doc, code = invoke("frobnicate")
        assert code == 1

    def test_fuzzed_inputs_never_exit_2(self):
        rng = random.Random(1234)
        alphabet = string.ascii_letters + string.digits + "+-*/^()=,:' "
        commands = (
            ["classify-ode"], ["classify-linear", "--group", "SL(2)"],
            ["noetherianize"], ["residues"], ["logderiv-reduce"],
            ["search-presentation"],
        )
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            cmd = list(rng.choice(commands)) + [text]
            _, code = invoke(*cmd)
            assert code in (0, 1), (cmd, code)
        for _ in range(100):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
            _, code = invoke("group-check", "--allowed", "eulerian", text)
            assert code in (0, 1), text

    @pytest.mark.parametrize("argv", [
        ["classify-ode", "y' = " + "(" * 400 + "y" + ")" * 400],
        ["group-check", "--allowed", "eulerian", "Sub(" * 1000 + "Gm" + ")" * 1000],
        ["classify-linear", "--group", "SL(2)", "y'' + " + "(" * 1000 + "t" + ")" * 1000 + "*y = 0"],
    ])
    def test_deep_nesting_is_a_parse_error(self, argv):
        doc, code = invoke(*argv)
        assert code == 1
        assert doc["error"]["kind"] == "parse"
        assert doc["error"]["line"] == 1 and doc["error"]["column"] > 1

    @pytest.mark.parametrize("argv", [
        ["classify-ode", "y' = " + "+".join(["y"] * 1500)],
        ["classify-linear", "--group", "SL(2)", "y' + " + " + ".join(["t*y"] * 1500) + " = 0"],
        ["classify-ode", "y' = y over Q(r: r^2 - 2" + " + 0" * 1500 + ")"],
    ])
    def test_long_flat_sum_gets_a_verdict(self, argv):
        doc, code = invoke(*argv)
        assert code == 0, doc
        assert "error" not in doc

    @pytest.mark.parametrize("argv, key, expected", [
        # 100000000380000000361 = 10000000019^2: both zeros are found
        (["classify-ode", "y' = (y^2 - 100000000380000000361)/(y*(y-1))"],
         "reasons", "residues at -10000000019 and 10000000019"),
        # a semiprime: the quadratic is irreducible, so the field is verified
        (["classify-ode", "y' = y over Q(r: r^2-10000000019*10000000033)"],
         "base", "Q(r)"),
    ])
    def test_quadratic_with_large_constant_term_finishes(self, argv, key, expected):
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", *argv],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout
        doc = json.loads(proc.stdout)
        assert expected in json.dumps(doc[key])
        assert doc.get("provenance") == []

    @pytest.mark.parametrize("text", [
        # 100000000520000000627 = 10000000019 * 10000000033
        "y' = y - r over Q(r: r^3-100000000520000000627)",
        "y' = (y^3 - 100000000520000000627)/(y*(y-1))",
        "y' = (100000000520000000627*y^3 - 1)/(y*(y-1))",
    ])
    def test_cubic_with_semiprime_coefficient_finishes(self, text):
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "classify-ode", text],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout
        doc = json.loads(proc.stdout)
        assert "error" not in doc
        # the cubic field is verified irreducible, not asserted
        assert doc["provenance"] == []

    def test_long_sum_of_fractions_finishes(self):
        # the parser reduces after every operation; on unreduced pairs the
        # 1500 denominators would multiply instead of cancelling
        text = "y' = " + "+".join(["1/(y+1)"] * 1500)
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "classify-ode", text],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout
        assert "error" not in json.loads(proc.stdout)

    @pytest.mark.parametrize("defining", ["r^2-2", "r^3-2"])
    def test_k_t_fraction_over_a_number_field_finishes(self, defining):
        # Euclid on K(t) coefficients took 58.8 s on this input over Q(r: r^2-2);
        # the remainder sequence in K[t][y] takes a fraction of a second
        text = (
            "y' = ((((t+y)*(-2-(y-1)))/(4+((y*t-1)/3/2)))*(((y)^3+((y+2))^1)"
            f"+(((y-r)/(y+2))*(-1/(y*t-1))))) over Q(r: {defining})"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "classify-ode", text],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout)["verdicts"]["rationally_pfaffian"] == "yes"

    @pytest.mark.parametrize("declaration", ["", " over Q(r: r^2-2)"])
    def test_hidden_common_factor_finishes(self, declaration):
        # A*G/(B*G) expanded, with A, B, G random monic of degree 40 and
        # coefficients up to 10^6: the parser's gcd must find G of degree 40,
        # over Q and over Q(sqrt2)
        rng = random.Random(40)

        def monic():
            return [rng.randint(-10 ** 6, 10 ** 6) for _ in range(40)] + [1]

        def times(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def text(cs):
            return " + ".join(f"({c})*y^{k}" for k, c in enumerate(cs))

        a, b, g = monic(), monic(), monic()
        ode = f"y' = ({text(times(a, g))})/({text(times(b, g))}){declaration}"
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "classify-ode", ode],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout
        assert "error" not in json.loads(proc.stdout)

    def test_closed_stdout_keeps_exit_code(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pfaffkit.cli", "classify-ode", "y' = 1/(2*y)"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "group-check",
             "--allowed", "eulerian", "SL(3)"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "no"
