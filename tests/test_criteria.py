import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import pfaffkit as pk
from pfaffkit.chains import (
    PfaffianChain,
    pole_case,
    search_presentation,
    verify_backward,
    verify_forward,
)
from pfaffkit.cli import _certificates_of
from pfaffkit.criteria import (
    FactoredRatFunc,
    PolynomialChainCertificate,
    Verdict,
    classify_linear,
    classify_order_one,
    degree_criterion,
    extract_factored,
    not_pfaffian_by_degree_theorem,
    residues_of_inverse,
    strict_disintegration_test,
    weierstrass_check,
)
from pfaffkit.diffalg import (
    BaseDiffField,
    DiffPoly,
    DiffRatFunc,
    from_unipoly,
    renamed,
    sole_variable,
    to_unipoly,
)
from pfaffkit.errors import (
    ArityMismatch,
    DegenerateCurve,
    InvalidFactoredForm,
    NotMonic,
    ZeroDenominatorData,
)
from pfaffkit.groups import GL, SL, unknown, yes

from conftest import RULE_FIELDS, as_diffratfunc, rand_one_pole, rand_scalar, solve_exact

C = BaseDiffField.constants()
Kt = BaseDiffField.rational_functions(var="t")


def rational(v):
    return pk.AlgebraicScalar.rational(v)


def simple(*locs):
    return tuple((x, 1) for x in locs)


def corollary_family(a, b):
    """f = (x-a)(x-b)/(x(x-1)) with exact scalars a, b."""
    one = rational(1).lift(a.field) if a.field else rational(1)
    zero = rational(0).lift(a.field) if a.field else rational(0)
    return FactoredRatFunc(leading=one, zeros=simple(a, b), poles=simple(zero, one))


def partial_fraction_oracle(f):
    """Residues by an exact linear solve, independent of the product formula.

    Writes 1/f = q(x) + sum r_k / (x - a_k) and equates coefficients of
    the cross-multiplied identity.
    """
    N = f.denominator()
    D = f.numerator()
    field = D.field
    n = D.degree
    m = N.degree
    x = pk.UniPoly.x(field)
    basis = []
    for a, mult in f.zeros:
        assert mult == 1
        basis.append(D // (x - pk.UniPoly.const(a, field)))
    qdeg = m - n
    ncols = len(basis) + max(qdeg + 1, 0)
    nrows = max(m, n - 1) + 1
    zero = rational(0).lift(field) if field else rational(0)
    rows = []
    rhs = []
    for k in range(nrows):
        row = [p.coeff(k) for p in basis]
        for j in range(max(qdeg + 1, 0)):
            # coefficient of x^k in x^j * D
            row.append(D.coeff(k - j) if k - j >= 0 else zero)
        rows.append(row)
        rhs.append(N.coeff(k))
    sol = solve_exact(rows, rhs)
    return sol[: len(basis)]


class TestResidues:
    def test_corollary_shape_closed_form(self, sqrt2):
        a = sqrt2.scalar(2)
        b = sqrt2.scalar(1, 1)
        f = corollary_family(a, b)
        data = residues_of_inverse(f)
        got = {str(e.pole): e.residue for e in data.entries}
        assert got["2"] == a * (a - 1) / (a - b)
        assert got["r + 1"] == b * (b - 1) / (b - a)

    def test_single_pole_of_inverse(self):
        f = FactoredRatFunc(leading=rational(1), zeros=simple(rational(0)), poles=())
        data = residues_of_inverse(f)
        assert len(data.entries) == 1
        assert data.entries[0].residue == rational(1)

    def test_two_zeros_with_infinity_balance(self):
        f = FactoredRatFunc(
            leading=rational(1),
            zeros=simple(rational(1), rational(-1)),
            poles=(),
        )
        data = residues_of_inverse(f)
        got = {str(e.pole): e.residue for e in data.entries}
        assert got["1"] == Fraction(1, 2)
        assert got["-1"] == Fraction(-1, 2)
        total = data.at_infinity
        for e in data.entries:
            total = total + e.residue
        assert total.is_zero()

    def test_repeated_zero_is_order_only(self):
        f = FactoredRatFunc(
            leading=rational(1),
            zeros=((rational(2), 2), (rational(3), 1)),
            poles=(),
        )
        data = residues_of_inverse(f)
        flagged = [e for e in data.entries if e.residue is None]
        assert len(flagged) == 1 and flagged[0].order == 2
        assert not data.all_simple

    def test_duplicate_zero_listing_rejected(self):
        f = FactoredRatFunc(
            leading=rational(1),
            zeros=simple(rational(2), rational(2)),
            poles=(),
        )
        with pytest.raises(ZeroDenominatorData):
            residues_of_inverse(f)

    def test_zero_equal_pole_rejected(self):
        with pytest.raises(InvalidFactoredForm):
            FactoredRatFunc(
                leading=rational(1),
                zeros=simple(rational(2)),
                poles=simple(rational(2)),
            )

    def test_matches_partial_fraction_solve(self, sqrt2):
        rng = random.Random(404)
        for _ in range(40):
            field = sqrt2 if rng.random() < 0.5 else None
            zeros = []
            while len(zeros) < rng.randint(1, 5):
                z = rand_scalar(rng, field, span=4)
                if z not in zeros:
                    zeros.append(z)
            poles = []
            while len(poles) < rng.randint(0, 2):
                p = rand_scalar(rng, field, span=4)
                if p not in zeros and p not in poles:
                    poles.append(p)
            lead = rand_scalar(rng, field, span=3, nonzero=True)
            f = FactoredRatFunc(leading=lead, zeros=simple(*zeros), poles=simple(*poles))
            data = residues_of_inverse(f)
            oracle = partial_fraction_oracle(f)
            assert [e.residue for e in data.entries] == oracle
            total = data.at_infinity
            for e in data.entries:
                total = total + e.residue
            assert total.is_zero()


class TestDisintegration:
    def test_irrational_ratio_certified(self, sqrt2):
        f = corollary_family(sqrt2.scalar(2), sqrt2.scalar(1, 1))
        assert strict_disintegration_test(f).is_yes

    def test_rational_ratio_inconclusive(self):
        f = corollary_family(rational(2), rational(3))
        v = strict_disintegration_test(f)
        assert v.value == "unknown"
        assert "rational ratio" in v.reason

    def test_single_pole_inconclusive(self):
        f = FactoredRatFunc(leading=rational(1), zeros=simple(rational(0)), poles=())
        assert strict_disintegration_test(f).value == "unknown"


class TestDegreeCriterion:
    def test_two_distinct_pole_locations(self, sqrt2):
        f = corollary_family(sqrt2.scalar(2), sqrt2.scalar(1, 1))
        assert degree_criterion(f) is True

    def test_degree_window(self):
        zs = simple(rational(1), rational(2), rational(3), rational(4))
        f = FactoredRatFunc(leading=rational(1), zeros=zs, poles=simple(rational(0)))
        assert degree_criterion(f) is True

    def test_half_reciprocal_shape_fails_both_branches(self):
        f = FactoredRatFunc(leading=Fraction(1, 2) + rational(0), zeros=(),
                            poles=simple(rational(0)))
        assert degree_criterion(f) is False

    def test_repeated_single_pole_location(self):
        zs = simple(rational(1), rational(2), rational(3), rational(4), rational(5))
        f = FactoredRatFunc(leading=rational(1), zeros=zs, poles=((rational(0), 2),))
        assert degree_criterion(f) is True  # 0 < 2 < 5 - 2


class TestRefutation:
    def test_theorem_family_refuted(self, sqrt2):
        f = corollary_family(sqrt2.scalar(2), sqrt2.scalar(1, 1))
        v = not_pfaffian_by_degree_theorem(f)
        assert v.is_no and v.reason == "degree+disintegration"

    def test_four_zero_family_refuted(self, sqrt2):
        th = sqrt2.gen()
        zs = simple(sqrt2.scalar(1), sqrt2.scalar(2), sqrt2.scalar(3), th)
        f = FactoredRatFunc(leading=sqrt2.one(), zeros=zs, poles=simple(sqrt2.zero()))
        data = residues_of_inverse(f)
        rs = [e.residue for e in data.entries]
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                assert pk.rational_multiple(rs[i], rs[j]) is None
        v = not_pfaffian_by_degree_theorem(f)
        assert v.is_no

    def test_rational_ratio_left_open(self):
        f = corollary_family(rational(2), rational(3))
        assert not_pfaffian_by_degree_theorem(f).value == "unknown"


class TestWeierstrass:
    def test_standard_invariants(self):
        v = weierstrass_check(0, 1)
        assert v.pfaffian.is_no
        assert v.pfaffian.reason == "binding group elliptic"
        assert v.one_reducible.is_yes

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateCurve):
            weierstrass_check(3, 1)

    def test_other_nondegenerate_point(self):
        v = weierstrass_check(4, 1)
        assert v.pfaffian.is_no and v.one_reducible.is_yes

    def test_agrees_with_series_checks(self):
        from pfaffkit.groups import EULERIAN, ONE_REDUCIBLE_INTERNAL, Elliptic, check_series

        for g2, g3 in ((0, 1), (4, 1), (5, 7), (-3, 2)):
            v = weierstrass_check(g2, g3)
            assert v.pfaffian.value == check_series(Elliptic(), EULERIAN).value
            assert v.one_reducible.value == check_series(Elliptic(), ONE_REDUCIBLE_INTERNAL).value


def ode_f(text):
    from pfaffkit.parser import parse_ode_text

    return parse_ode_text(text)


class TestClassifyOrderOne:
    def test_polynomial_over_t(self):
        spec = ode_f("y' = y^2 + t*y")
        v = classify_order_one(spec.f)
        assert v.pfaffian.is_yes
        assert v.rationally_pfaffian.is_yes
        assert v.pfaffian.payload.chain.serialize() == ["y1' = y1^2 + t*y1"]

    def test_half_reciprocal_certificate(self):
        spec = ode_f("y' = 1/(2*y)")
        v = classify_order_one(spec.f)
        assert v.pfaffian.is_yes
        cert = v.pfaffian.payload
        x = pk.UniPoly.x(None)
        assert cert.h_str() == "1/x"
        assert cert.p == x ** 3 * Fraction(-1, 2)
        assert verify_forward(cert.chain, cert.element, spec.f).ok

    def test_theorem_family_full_cascade(self):
        spec = ode_f("y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)")
        v = classify_order_one(spec.f)
        assert v.pfaffian.is_no
        assert v.pfaffian.reason == "degree+disintegration"
        assert v.rationally_pfaffian.is_yes

    def test_rational_ratio_family_unknown(self):
        spec = ode_f("y' = (y-2)*(y-3)/(y*(y-1))")
        v = classify_order_one(spec.f)
        assert v.pfaffian.value == "unknown"
        assert "rational ratio" in v.pfaffian.reason

    def test_nonconstant_base_rational_rhs_is_open(self):
        spec = ode_f("y' = (y^2+t)/y")
        v = classify_order_one(spec.f)
        assert v.pfaffian.value == "unknown"
        assert v.rationally_pfaffian.is_yes

    def test_rational_certificate_reverifies(self):
        spec = ode_f("y' = (y-2)*(y-3)/(y*(y-1))")
        v = classify_order_one(spec.f)
        cert = v.rationally_pfaffian.payload
        w = DiffPoly.var(C, ("w",), "w")
        gv = spec.f.substitute({"y": DiffRatFunc.from_poly(w)})
        assert verify_backward(gv, [DiffRatFunc.from_poly(w)], cert.chain).ok

    def test_unfactorable_numerator_still_searchable(self):
        # x^2 - 2 stays irreducible over plain Q, yet the reciprocal
        # candidate produces a genuine certificate
        spec = ode_f("y' = (y^2-2)/y")
        v = classify_order_one(spec.f)
        assert v.pfaffian.is_yes
        cert = v.pfaffian.payload
        assert verify_forward(cert.chain, cert.element, spec.f).ok

    def test_unfactorable_and_unsearchable_is_open(self):
        spec = ode_f("y' = (y^2-2)/(y*(y-1))")
        v = classify_order_one(spec.f)
        assert v.pfaffian.value == "unknown"
        assert "factorization" in v.pfaffian.reason

    @pytest.mark.parametrize("defining", ["r^2-2", "r^3-2"])
    def test_cube_of_a_fraction_over_a_number_field_and_t_finishes(self, defining):
        # moving f to the chain variable renames it; reducing the renamed
        # fraction again ran the K(t) gcd over Q(r), which did not finish
        rhs = "(((((y*t-r)+y)/((y-1)*y))+((r+0)*((y-1)*1))))^3"
        proc = subprocess.run(
            [sys.executable, "-m", "pfaffkit.cli", "classify-ode",
             f"y' = {rhs} over Q(r: {defining})"],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["verdicts"]["rationally_pfaffian"] == "yes"

    @pytest.mark.parametrize("text", [
        "y' = y^2 + t*y",
        "y' = 3*y - 1",
        "y' = 1/(2*y)",
        "y' = (y^2-2)/y",
        "y' = (y-2)*(y-3)/(y*(y-1))",
        "y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)",
        "y' = (y^2+t)/y",
    ])
    @pytest.mark.parametrize("ring", [("y", "z"), ("x", "y")])
    def test_a_larger_ring_gives_the_same_verdicts_and_certificates(self, text, ring):
        # f uses only y; before the rename its ring reached the noetherian
        # system, whose extend raised ValueError for the unused variable
        f = ode_f(text).f
        wide = DiffRatFunc(f.num.extend(ring), f.den.extend(ring))

        def report(v):
            return (
                [(tv.value, tv.reason, tv.witness) for tv in (v.pfaffian, v.rationally_pfaffian)],
                _certificates_of(v),
            )

        assert report(classify_order_one(wide)) == report(classify_order_one(f))
        if f.as_polynomial() is not None:
            poly = f.num
            assert report(classify_order_one(poly.extend(ring))) == report(classify_order_one(poly))


class TestExtractFactored:
    def test_quadratic_split_over_declared_field(self, sqrt2):
        spec = ode_f("y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)")
        fr = extract_factored(spec.f)
        assert fr is not None
        assert {str(z) for z, _ in fr.zeros} == {"2", "r + 1"}
        assert {str(p) for p, _ in fr.poles} == {"0", "1"}

    def test_unfactorable_over_rationals(self):
        spec = ode_f("y' = (y^2-2)/y")
        assert extract_factored(spec.f) is None

    # f = (y1-2)(y1-3)/(y2(y1-1)) uses two variables; the variable was once
    # picked from a set, so string hashing decided whether it factored
    TWO_VARIABLES = (
        "from pfaffkit.diffalg import BaseDiffField\n"
        "from pfaffkit.parser import EvalContext, eval_ratfunc, parse_expression_text\n"
        "from pfaffkit.criteria import extract_factored\n"
        "ctx = EvalContext(BaseDiffField.constants(), ('y1', 'y2'), None)\n"
        "f = eval_ratfunc(parse_expression_text('(y1-2)*(y1-3)/(y2*(y1-1))'), ctx)\n"
    )

    def test_two_variables_are_an_arity_error(self):
        y1, y2 = (DiffPoly.var(C, ("y1", "y2"), v) for v in ("y1", "y2"))
        with pytest.raises(ArityMismatch):
            extract_factored(DiffRatFunc((y1 - 2) * (y1 - 3), y2 * (y1 - 1)))

    @pytest.mark.parametrize("seed", ["0", "2"])
    def test_two_variables_under_hash_seed(self, seed):
        script = self.TWO_VARIABLES + (
            "try:\n"
            "    print(extract_factored(f))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=False, timeout=30, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ArityMismatch"


class TestClassifyLinear:
    def test_airy_like_with_sl3(self):
        coeffs = [(-1) * Kt.gen(), Kt.coerce(0), Kt.coerce(0), Kt.one()]
        rep = classify_linear(coeffs, SL(3), Kt)
        assert rep.pfaffian.is_no
        assert str(rep.logderiv_reduction) == "u^3 + 3*u*u' + u'' - t"
        assert rep.min_solvability_d == 3

    def test_order_two_with_sl2(self):
        coeffs = [(-1) * Kt.gen(), Kt.coerce(0), Kt.one()]
        rep = classify_linear(coeffs, SL(2), Kt)
        assert rep.pfaffian.is_yes
        assert rep.min_solvability_d == 2

    def test_order_four_gl4(self):
        coeffs = [Kt.one(), Kt.coerce(0), Kt.coerce(0), Kt.coerce(0), Kt.one()]
        rep = classify_linear(coeffs, GL(4), Kt)
        assert rep.reducibility.reducible_at == 3
        assert rep.reducibility.not_reducible_at == 2
        assert rep.min_solvability_d == 4

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            classify_linear([Kt.one(), Kt.coerce(2)], SL(2), Kt)


class TestConsistencyGuard:
    def test_no_instance_is_both_refuted_and_certified(self, sqrt2):
        rng = random.Random(17)
        corpus = []
        corpus.append(corollary_family(sqrt2.scalar(2), sqrt2.scalar(1, 1)))
        corpus.append(corollary_family(rational(2), rational(3)))
        th = sqrt2.gen()
        corpus.append(FactoredRatFunc(
            leading=sqrt2.one(),
            zeros=simple(sqrt2.scalar(1), sqrt2.scalar(2), sqrt2.scalar(3), th),
            poles=simple(sqrt2.zero()),
        ))
        corpus.append(FactoredRatFunc(
            leading=rational(Fraction(1, 2)), zeros=(), poles=simple(rational(0))
        ))
        for _ in range(30):
            zeros, poles = [], []
            for _k in range(rng.randint(0, 3)):
                z = rand_scalar(rng, sqrt2, span=3)
                if z not in zeros:
                    zeros.append(z)
            for _k in range(rng.randint(0, 2)):
                p = rand_scalar(rng, sqrt2, span=3)
                if p not in zeros and p not in poles:
                    poles.append(p)
            if not zeros and not poles:
                continue
            lead = rand_scalar(rng, sqrt2, span=3, nonzero=True)
            corpus.append(FactoredRatFunc(
                leading=lead, zeros=simple(*zeros), poles=simple(*poles)
            ))
        # the closed-form property's draws: one pole location with e >= 0, every rule field
        corpus += [rand_one_pole(random.Random(seed), field)
                   for field in RULE_FIELDS.values() for seed in range(3, 6)]
        for f in corpus:
            refuted = not_pfaffian_by_degree_theorem(f).is_no
            base = BaseDiffField.constants(f.leading.field)
            cert = search_presentation(as_diffratfunc(f, base), degree_bound=3)
            assert not (refuted and cert is not None), str(f)


# ---------------------------------------------------------------------------
# the pole case decides first

def ref_classify_order_one(f, factored=None, degree_bound=3, candidates=()):
    """The Pfaffian verdict in the earlier stage order, kept as a reference.

    It factored and ran the refutation first, then searched for a
    presentation, and on an Unknown asked the poles again to name the case.
    """
    name = sole_variable(f, default="y")
    poly = f.as_polynomial()
    if poly is not None:
        variables = ("y1",)
        chain = PfaffianChain(f.base, "polynomial", (renamed(poly, name, "y1"),), variables)
        return yes(
            witness=("polynomial right-hand side: the equation is its own chain",),
            payload=PolynomialChainCertificate(
                chain=chain, element=DiffPoly.var(f.base, variables, "y1")
            ),
        )
    stages = []
    fr = factored if factored is not None else extract_factored(f)
    if fr is None:
        stages.append("no full linear factorization over the declared field")
    else:
        refute = not_pfaffian_by_degree_theorem(fr)
        if refute.is_no:
            return refute
        stages.append(refute.reason)
    cert = search_presentation(f, candidates=candidates, degree_bound=degree_bound)
    if cert is not None:
        return yes(
            witness=(f"presentation h = {cert.h_str()} with rule {cert.p.str('x')}",),
            payload=cert,
        )
    reason, _ = pole_case(to_unipoly(f.num, name), to_unipoly(f.den, name))
    stages.append(f"no one-rule rational presentation: {reason}")
    return unknown("; ".join(stages))


def stage_order_corpus(rng, field, count):
    """(f, factored, candidates, shape) with 0, 1 and 2 pole locations, up to
    m + 5 split zeros, and a numerator times x^2 + x + 7 (split over none of
    the rule fields) in about a third of the draws."""
    base = BaseDiffField.constants(field)
    x = pk.UniPoly.x(field)
    for k in range(count):
        locations = k % 3
        poles = []
        while len(poles) < locations:
            b = rand_scalar(rng, field, 3)
            if b not in [p for p, _ in poles]:
                poles.append((b, rng.randint(1, 3)))
        m = sum(mult for _, mult in poles)
        zeros = {}
        for _ in range(rng.randint(0, m + 5)):
            a = rand_scalar(rng, field, 3)
            if a not in [p for p, _ in poles]:
                zeros[a] = zeros.get(a, 0) + 1
        fr = FactoredRatFunc(
            rand_scalar(rng, field, 3, nonzero=True), tuple(zeros.items()), tuple(poles)
        )
        num = fr.numerator()
        splits = rng.random() < 0.65
        if not splits:
            num = num * (x * x + x + 7)
        f = DiffRatFunc(
            from_unipoly(num, base, ("y",), "y"),
            from_unipoly(fr.denominator(), base, ("y",), "y"),
        )
        factored = fr if splits and rng.random() < 0.5 else None
        candidates = ((pk.UniPoly.const(1, field), x),) if rng.random() < 0.3 else ()
        e = m - num.degree + 2
        yield f, factored, candidates, (locations, locations != 1 or e >= 0, splits)


def pfaffian_report(tv):
    certs = _certificates_of(Verdict(pfaffian=tv))
    return tv.value, tv.reason, tv.witness, tv.payload if tv.is_no else None, certs


class TestPoleCaseFirst:
    def test_same_verdicts_as_the_earlier_stage_order(self):
        shapes, outcomes = set(), set()
        for i, field in enumerate(RULE_FIELDS.values()):
            rng = random.Random(7100 + i)
            for f, factored, candidates, shape in stage_order_corpus(rng, field, 30):
                got = classify_order_one(f, factored=factored, candidates=candidates).pfaffian
                want = ref_classify_order_one(f, factored=factored, candidates=candidates)
                assert pfaffian_report(got) == pfaffian_report(want), str(f)
                shapes.add(shape)
                outcomes.add((got.value, factored is None))
        assert {locations for locations, _, _ in shapes} == {0, 1, 2}
        assert {(1, True), (1, False)} <= {(locations, e_ok) for locations, e_ok, _ in shapes}
        assert {splits for _, _, splits in shapes} == {True, False}
        # a No both from the caller's factored form and from extract_factored
        assert {value for value, _ in outcomes} == {"yes", "no", "unknown"}
        assert {("no", True), ("no", False)} <= outcomes

    @pytest.mark.parametrize("text, presented", [
        ("y' = 1/(y-2)^3", True),
        ("y' = 2*(y+1/2)*(y-1/3)*(y+3/2)/y", True),
        ("y' = (y-1)^9/(y*(y-1/3))", False),
        ("y' = (y-1)^4/y", False),
    ])
    def test_factor_and_refute_only_when_no_rule_presents(self, monkeypatch, text, presented):
        import pfaffkit.criteria as criteria

        calls = []
        for name in ("extract_factored", "not_pfaffian_by_degree_theorem", "pole_case"):
            real = getattr(criteria, name)

            def recorded(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(criteria, name, recorded)
        v = classify_order_one(ode_f(text).f)
        assert v.pfaffian.is_yes == presented
        if presented:
            assert calls == ["pole_case"]
        else:
            assert calls == ["pole_case", "extract_factored", "not_pfaffian_by_degree_theorem"]


class TestCallersFactoredForm:
    def test_a_factored_form_of_another_function_is_rejected(self):
        # 1/(y-2)^3 has the presentation h = (2x+1)/x; the two-pole form
        # must not turn it into a refutation
        f = ode_f("y' = 1/(y-2)^3").f
        other = extract_factored(ode_f("y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)").f)
        with pytest.raises(InvalidFactoredForm):
            classify_order_one(f, factored=other)
        assert classify_order_one(f).pfaffian.payload.h_str() == "(2*x + 1)/x"

    def test_a_form_with_another_leading_coefficient_is_rejected(self):
        spec = ode_f("y' = (y-2)*(y-3)/(y*(y-1))")
        fr = extract_factored(spec.f)
        scaled = FactoredRatFunc(leading=rational(2), zeros=fr.zeros, poles=fr.poles)
        with pytest.raises(InvalidFactoredForm):
            classify_order_one(spec.f, factored=scaled)
