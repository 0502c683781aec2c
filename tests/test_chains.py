import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfaffkit as pk
import pfaffkit.chains as chains
import pfaffkit.cli as cli
import pfaffkit.criteria as criteria
import pfaffkit.diffalg as diffalg
import pfaffkit.exactfield as exactfield
from pfaffkit.chains import (
    PfaffianChain,
    _presentation_rule,
    combine,
    invert_element,
    pole_case,
    rational_to_noetherian,
    search_presentation,
    total_derivative,
    verify_backward,
    verify_forward,
)
from pfaffkit.cli import run
from pfaffkit.criteria import classify_order_one
from pfaffkit.diffalg import (
    BaseDiffField,
    DiffPoly,
    DiffRatFunc,
    RatFunc,
    sole_variable,
    to_unipoly,
)
from pfaffkit.exactfield import homogenized_pair
from pfaffkit.errors import (
    ArityMismatch,
    ChainMismatch,
    FieldMismatch,
    InternalInvariant,
    MixedKinds,
    NonConstantBase,
    TriangularityViolated,
    ZeroDenominator,
    ZeroElement,
)
from pfaffkit.parser import parse_fixture_text, parse_ode_text

from conftest import (
    RULE_FIELDS,
    as_diffratfunc,
    rand_diffpoly,
    rand_fraction,
    rand_nonzero_poly,
    rand_one_pole,
    rand_poly,
    rand_scalar,
    rand_unipoly,
)

C = BaseDiffField.constants()
Kt = BaseDiffField.rational_functions(var="t")
Kz = BaseDiffField.rational_functions(var="z")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def poly_chain(base, rules, names=None):
    names = names or tuple(f"y{i + 1}" for i in range(len(rules)))
    return PfaffianChain(base, "polynomial", rules, names).validate()


def lambert_chain():
    names = ("y1", "y2")
    y1 = DiffPoly.var(Kz, names, "y1")
    y2 = DiffPoly.var(Kz, names, "y2")
    z = Kz.gen()
    rule1 = (-(1 / z)) * (1 - y1) * y1 ** 2
    rule2 = (1 / z) * y1 * y2
    return PfaffianChain(Kz, "polynomial", (rule1, rule2), names).validate()


def lambert_data(flip_rule=None, flip_defining=False):
    chain = lambert_chain()
    if flip_rule is not None:
        rules = list(chain.rules)
        rules[flip_rule] = -rules[flip_rule]
        chain = PfaffianChain(Kz, "polynomial", rules, chain.variables).validate()
    w = DiffPoly.var(Kz, ("w",), "w")
    z = Kz.gen()
    g = DiffRatFunc(w, z * (1 + w))
    if flip_defining:
        g = -g
    h1 = DiffRatFunc(DiffPoly.const(Kz, ("w",), 1), 1 + w)
    h2 = DiffRatFunc.from_poly(w)
    return g, [h1, h2], chain


class TestValidation:
    def test_single_rule_ok(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        assert PfaffianChain(C, "polynomial", (y1,), ("y1",)).validate()

    def test_triangularity_violation_carries_indices(self):
        names = ("y1", "y2")
        y2 = DiffPoly.var(C, names, "y2")
        with pytest.raises(TriangularityViolated) as err:
            PfaffianChain(C, "polynomial", (y2, y2), names).validate()
        assert (err.value.rule_index, err.value.variable_index) == (1, 2)

    def test_rational_kind_ok(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        rule = DiffRatFunc(DiffPoly.const(C, ("y1",), 1), y1)
        assert PfaffianChain(C, "rational", (rule,), ("y1",)).validate()

    def test_mixed_kinds_rejected(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        rule = DiffRatFunc(DiffPoly.const(C, ("y1",), 1), y1)
        with pytest.raises(MixedKinds):
            PfaffianChain(C, "polynomial", (rule,), ("y1",)).validate()


class TestCheckedWhenBuilt:
    """Every rule system is a PfaffianChain, checked by its constructor."""

    @pytest.mark.parametrize("ring", [("y1",), ("y1", "y1")])
    def test_repeated_variable_is_an_arity_mismatch(self, ring):
        y = DiffPoly.var(C, ring, "y1")
        with pytest.raises(ArityMismatch):
            PfaffianChain(C, "polynomial", (y, y), ("y1", "y1"))

    def test_rule_and_variable_counts_must_agree(self):
        names = ("y1", "y2")
        y1 = DiffPoly.var(C, names, "y1")
        with pytest.raises(ArityMismatch):
            PfaffianChain(C, "polynomial", (y1,), names)
        with pytest.raises(ArityMismatch):
            PfaffianChain(C, "polynomial", (y1, y1), ("y1", "y2", "y3"))

    def test_a_rule_from_another_ring_is_an_arity_mismatch(self):
        y1 = DiffPoly.var(C, ("y1", "y2"), "y1")
        with pytest.raises(ArityMismatch):
            PfaffianChain(C, "polynomial", (y1,), ("y1",))
        y = DiffPoly.var(C, ("y", "w"), "y")
        with pytest.raises(ArityMismatch):
            chains.NoetherianSystem(C, (y, y), ("w", "y"))

    def test_a_rule_over_another_base_is_a_field_mismatch(self):
        t = Kt.gen()
        y1 = DiffPoly.var(Kt, ("y1",), "y1")
        with pytest.raises(FieldMismatch):
            PfaffianChain(C, "polynomial", (t * y1,), ("y1",))
        with pytest.raises(FieldMismatch):
            chains.NoetherianSystem(C, (y1,))
        assert PfaffianChain(Kt, "polynomial", (t * y1,), ("y1",)).base == Kt

    def test_a_built_chain_is_read_only(self):
        names = ("y1", "y2")
        y1, y2 = (DiffPoly.var(C, names, v) for v in names)
        for chain in (PfaffianChain(C, "polynomial", (y1, y1 * y2), names),
                      chains.NoetherianSystem(C, (y2, y1), names)):
            before = repr(chain)
            for name in ("base", "kind", "rules", "variables"):
                with pytest.raises(AttributeError):
                    setattr(chain, name, getattr(chain, name))
                with pytest.raises(AttributeError):
                    delattr(chain, name)
            with pytest.raises(AttributeError):
                chain.rules = (y2, y2)
            assert repr(chain) == before and chain.validate() is chain

    def test_constructor_raises_triangularity_violated(self):
        names = ("y1", "y2")
        y2 = DiffPoly.var(C, names, "y2")
        with pytest.raises(TriangularityViolated) as err:
            PfaffianChain(C, "rational", (DiffRatFunc.from_poly(y2), y2), names)
        assert (err.value.rule_index, err.value.variable_index) == (1, 2)

    def test_unknown_kind(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        with pytest.raises(MixedKinds):
            PfaffianChain(C, "triangular", (y1,), ("y1",))

    def test_noetherian_rules_must_be_polynomial(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        with pytest.raises(MixedKinds) as err:
            chains.NoetherianSystem(C, (DiffRatFunc(DiffPoly.const(C, ("y1",), 1), y1),))
        assert str(err.value) == "rule 1 of a Noetherian system must be polynomial"

    def test_a_noetherian_system_is_a_chain_of_that_kind(self):
        fx = parse_fixture_text((FIXTURES / "noetherian_backward.pfaff").read_text(encoding="utf-8"))
        system = fx.chain
        assert isinstance(system, PfaffianChain) and system.kind == "noetherian"
        rebuilt = chains.NoetherianSystem(system.base, system.rules, system.variables)
        assert rebuilt == system and hash(rebuilt) == hash(system)
        assert rebuilt == PfaffianChain(system.base, "noetherian", system.rules, system.variables)
        assert rebuilt.serialize() == [
            "y' = y^2*w - 5*y*w + 6*w",
            "w' = -2*y^3*w^3 + 11*y^2*w^3 - 17*y*w^3 + 6*w^3",
        ]
        assert repr(rebuilt) == f"<noetherian chain {'; '.join(rebuilt.serialize())}>"
        # the kind is part of a system's value
        y1 = DiffPoly.var(C, ("y1",), "y1")
        assert chains.NoetherianSystem(C, (y1,)) != PfaffianChain(C, "polynomial", (y1,))

    def test_a_rational_chain_certificate_is_hashable(self):
        y = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 2 * y)
        first, second = (pk.classify_order_one(f).rationally_pfaffian.payload for _ in range(2))
        assert first == second and hash(first) == hash(second)

    def test_verify_forward_on_a_noetherian_system(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        y = DiffPoly.var(C, ("y",), "y")
        assert verify_forward(chains.NoetherianSystem(C, (y1,), ("y1",)), y1, y).ok

    def test_an_equation_in_w_takes_the_auxiliary_v(self):
        w = DiffPoly.var(C, ("w",), "w")
        system = rational_to_noetherian(w + 1, w * w)
        assert system.variables == ("w", "v")
        assert system.serialize() == ["w' = w*v + v", "v' = -2*w^2*v^3 - 2*w*v^3"]
        g = DiffRatFunc(w + 1, w * w)
        assignments = [DiffRatFunc.from_poly(w), 1 / DiffRatFunc.from_poly(w * w)]
        assert verify_backward(g, assignments, system).ok


class TestClosureOperations:
    def test_combine_sum_and_product(self):
        names = ("y1", "y2")
        y1 = DiffPoly.var(C, names, "y1")
        y2 = DiffPoly.var(C, names, "y2")
        ch = poly_chain(C, (y1, y2), names)
        s = combine(ch.element(y1), ch.element(y2), "+")
        p = combine(ch.element(y1), ch.element(y1), "*")
        assert s.expr == y1 + y2
        assert p.expr == y1 ** 2

    def test_combine_with_t_coefficients(self):
        names = ("y1",)
        y1 = DiffPoly.var(Kt, names, "y1")
        t = Kt.gen()
        ch = poly_chain(Kt, (y1,), names)
        s = combine(ch.element(t * y1), ch.element(y1), "+")
        assert s.expr == (t + 1) * y1

    def test_combine_rejects_foreign_chains(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch1 = poly_chain(C, (y1,))
        ch2 = poly_chain(C, (y1 ** 2,))
        with pytest.raises(ChainMismatch):
            combine(ch1.element(y1), ch2.element(y1), "+")

    def test_total_derivative_reads_rule(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1 ** 2,))
        assert total_derivative(ch.element(y1)).expr == y1 ** 2

    def test_total_derivative_chain_rule(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1 ** 2,))
        assert total_derivative(ch.element(y1 ** 2)).expr == 2 * y1 ** 3

    def test_total_derivative_with_coefficient_derivation(self):
        y1 = DiffPoly.var(Kt, ("y1",), "y1")
        t = Kt.gen()
        ch = poly_chain(Kt, (DiffPoly.const(Kt, ("y1",), 1),))
        assert total_derivative(ch.element(t * y1)).expr == y1 + t * DiffPoly.const(Kt, ("y1",), 1)

    def test_invert_element_appends_quoted_rule(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        ext, z = invert_element(ch.element(y1))
        assert ext.order == 2
        names = ext.variables
        zvar = DiffPoly.var(C, names, names[-1])
        y1e = DiffPoly.var(C, names, "y1")
        assert ext.rules[-1] == -(zvar ** 2) * y1e

    def test_invert_constant_gives_zero_rule(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        ext, _ = invert_element(ch.element(DiffPoly.const(C, ("y1",), 1)))
        assert ext.rules[-1].is_zero()

    def test_invert_with_t_rule(self):
        y1 = DiffPoly.var(Kt, ("y1",), "y1")
        t = Kt.gen()
        ch = poly_chain(Kt, (DiffPoly.const(Kt, ("y1",), 1) * t,))
        ext, z = invert_element(ch.element(y1))
        names = ext.variables
        zvar = DiffPoly.var(Kt, names, names[-1])
        assert ext.rules[-1] == -t * zvar ** 2

    def test_invert_zero_rejected(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        with pytest.raises(ZeroElement):
            invert_element(ch.element(DiffPoly.zero(C, ("y1",))))

    def test_invert_fractional_element_rejected(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        with pytest.raises(MixedKinds, match="polynomial elements only"):
            invert_element(ch.element(DiffRatFunc(y1, y1 + 1)))

    def test_closure_bookkeeping(self):
        rng = random.Random(5)
        names = ("y1", "y2")
        y1 = DiffPoly.var(C, names, "y1")
        y2 = DiffPoly.var(C, names, "y2")
        ch = poly_chain(C, (y1, y1 * y2), names)
        e = ch.element(y1 + y2 ** 2)
        assert total_derivative(e).chain.order == ch.order
        ext, _ = invert_element(e)
        assert ext.order == ch.order + 1

    def test_derivation_is_additive_and_leibniz(self):
        rng = random.Random(6)
        names = ("y1", "y2")
        for _ in range(60):
            base = C if rng.random() < 0.5 else Kt
            r1 = rand_diffpoly(rng, base, names, max_deg=2, max_terms=3)
            r2 = rand_diffpoly(rng, base, names, max_deg=2, max_terms=3)
            r1 = DiffPoly(base, names, {e: c for e, c in r1.terms.items() if not e[1]})
            ch = poly_chain(base, (r1, r2), names)
            e1 = rand_diffpoly(rng, base, names, max_deg=2, max_terms=3)
            e2 = rand_diffpoly(rng, base, names, max_deg=2, max_terms=3)
            d_sum = total_derivative(ch.element(e1 + e2)).expr
            assert d_sum == total_derivative(ch.element(e1)).expr + total_derivative(ch.element(e2)).expr
            d_prod = total_derivative(ch.element(e1 * e2)).expr
            assert d_prod == (
                total_derivative(ch.element(e1)).expr * e2
                + e1 * total_derivative(ch.element(e2)).expr
            )

    def test_inverse_certified_backward(self):
        rng = random.Random(9)
        for _ in range(40):
            base = C if rng.random() < 0.5 else Kt
            names = ("y1",)
            rule = rand_diffpoly(rng, base, names, max_deg=2, max_terms=2, span=3)
            ch = poly_chain(base, (rule,), names)
            e = rand_diffpoly(rng, base, names, max_deg=2, max_terms=2, span=3)
            if e.is_zero():
                continue
            ext, zel = invert_element(ch.element(e))
            w = DiffPoly.var(base, ("w",), "w")
            g = DiffRatFunc.from_poly(rule.substitute({"y1": w}))
            h1 = DiffRatFunc.from_poly(e.substitute({"y1": w}))
            if h1.is_zero():
                continue
            result = verify_backward(g, [DiffRatFunc.from_poly(w), 1 / h1], ext)
            assert result.ok, result.witness


# Test-only copy of the reduce-every-step derivative that ``_derive_pair``
# replaced in ``total_derivative`` and ``invert_element``.
def ref_derive_expr(chain, expr):
    if isinstance(expr, DiffRatFunc):
        dn = ref_derive_expr(chain, expr.num)
        dd = ref_derive_expr(chain, expr.den)
        dn = dn if isinstance(dn, DiffRatFunc) else DiffRatFunc.from_poly(dn)
        dd = dd if isinstance(dd, DiffRatFunc) else DiffRatFunc.from_poly(dd)
        num = dn * expr.den - dd * expr.num
        return num / (DiffRatFunc.from_poly(expr.den) ** 2)
    total = expr.coeff_derivation()
    for v, rule in zip(chain.variables, chain.rules):
        part = expr.partial(v)
        if not part.is_zero():
            total = total + part * rule
    return total


class TestDeriveThroughChain:
    """``total_derivative`` and ``invert_element`` against the reference."""

    def rand_chain(self, rng, base, names):
        rules = [
            rand_poly(rng, base, names[: i + 1]).extend(names) for i in range(len(names))
        ]
        return poly_chain(base, rules, names)

    def run_cases(self, rng, base, count):
        for _ in range(count):
            names = rng.choice((("y1",), ("y1", "y2")))
            chain = self.rand_chain(rng, base, names)
            p = rand_poly(rng, base, names)
            d = total_derivative(chain.element(p)).expr
            want = ref_derive_expr(chain, p)
            assert isinstance(d, DiffPoly)
            assert d == want and str(d) == str(want)

            q = DiffRatFunc(p, rand_nonzero_poly(rng, base, names, max_deg=1))
            d = total_derivative(chain.element(q)).expr
            want = ref_derive_expr(chain, q)
            assert isinstance(d, DiffRatFunc)
            assert d == want and str(d) == str(want)

            if p.is_zero():
                continue
            ext, z = invert_element(chain.element(p))
            zvar = DiffPoly.var(base, ext.variables, ext.variables[-1])
            want = -(zvar * zvar) * ref_derive_expr(chain, p).extend(ext.variables)
            assert ext.rules[-1] == want and str(ext.rules[-1]) == str(want)
            assert z.expr == zvar

    def test_over_q(self):
        self.run_cases(random.Random(601), C, 60)

    def test_over_qsqrt2(self, sqrt2):
        self.run_cases(random.Random(602), BaseDiffField.constants(sqrt2), 40)

    def test_over_kt(self):
        self.run_cases(random.Random(603), Kt, 30)


class TestNoetherianize:
    def test_example_one_over_2x(self):
        yv = DiffPoly.var(C, ("y",), "y")
        ns = rational_to_noetherian(DiffPoly.const(C, ("y",), 1), 2 * yv)
        assert ns.serialize() == ["y' = w", "w' = -2*w^3"]

    def test_unit_denominator(self):
        yv = DiffPoly.var(C, ("y",), "y")
        P = yv ** 3 - 2
        ns = rational_to_noetherian(P, DiffPoly.const(C, ("y",), 1))
        assert ns.rules[1].is_zero()
        w = DiffPoly.var(C, ns.variables, "w")
        assert ns.rules[0] == w * P.extend(ns.variables)

    def test_quadratic_over_quadratic(self, sqrt2):
        base = BaseDiffField.constants(sqrt2)
        yv = DiffPoly.var(base, ("y",), "y")
        a = sqrt2.scalar(2)
        b = sqrt2.scalar(1, 1)
        P = (yv - a) * (yv - b)
        Q = yv * (yv - 1)
        ns = rational_to_noetherian(P, Q)
        w = DiffPoly.var(base, ns.variables, "w")
        ye = DiffPoly.var(base, ns.variables, "y")
        Pe = P.extend(ns.variables)
        assert ns.rules[0] == w * Pe
        assert ns.rules[1] == -(w ** 3) * Pe * (2 * ye - 1)

    @pytest.mark.parametrize("ring", [("y", "z"), ("x", "y")])
    def test_a_wider_ring_gives_the_one_variable_system(self, ring):
        y = DiffPoly.var(C, ring, "y")
        ns = rational_to_noetherian(y + 1, y * y)
        assert ns.variables == ("y", "w")
        assert ns.serialize() == ["y' = y*w + w", "w' = -2*y^2*w^3 - 2*y*w^3"]
        y1 = DiffPoly.var(C, ("y",), "y")
        assert ns == rational_to_noetherian(y1 + 1, y1 * y1)

    def test_zero_denominator_rejected(self):
        yv = DiffPoly.var(C, ("y",), "y")
        with pytest.raises(ZeroDenominator):
            rational_to_noetherian(yv, DiffPoly.zero(C, ("y",)))

    def test_random_soundness_constants_and_t(self):
        rng = random.Random(77)
        for _ in range(60):
            base = C if rng.random() < 0.5 else Kt
            names = ("y",)
            P = rand_diffpoly(rng, base, names, max_deg=5, max_terms=3, span=3)
            Q = rand_diffpoly(rng, base, names, max_deg=5, max_terms=3, span=3)
            if Q.is_zero():
                continue
            ns = rational_to_noetherian(P, Q)
            w = DiffPoly.var(base, ("w",), "w")
            Pw = DiffRatFunc.from_poly(P.substitute({"y": w}))
            Qw = DiffRatFunc.from_poly(Q.substitute({"y": w}))
            g = Pw / Qw
            result = verify_backward(g, [DiffRatFunc.from_poly(w), 1 / Qw], ns)
            assert result.ok, result.witness


class TestVerifyForward:
    def test_reciprocal_square_root_chain(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        rule = DiffPoly(C, ("y1",), {(3,): C.coerce(Fraction(-1, 2))})
        ch = poly_chain(C, (rule,))
        e = DiffRatFunc(DiffPoly.const(C, ("y1",), 1), y1)
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 2 * yv)
        assert verify_forward(ch, e, f).ok

    def test_identity_chain(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        yv = DiffPoly.var(C, ("y",), "y")
        assert verify_forward(ch, ch.element(y1), DiffRatFunc.from_poly(yv)).ok

    def test_failure_carries_witness(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        yv = DiffPoly.var(C, ("y",), "y")
        r = verify_forward(ch, ch.element(y1), DiffRatFunc.from_poly(yv + 1))
        assert not r.ok
        assert r.witness == DiffRatFunc.from_poly(DiffPoly.const(C, ("y1",), -1))

    def test_constant_right_hand_side(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (DiffPoly.const(C, ("y1",), 3),))
        three = DiffPoly.const(C, ("y",), 3)
        assert verify_forward(ch, ch.element(y1), three).ok
        assert verify_forward(ch, ch.element(y1), DiffRatFunc.from_poly(three)).ok
        # a constant f in a ring without variables
        assert verify_forward(ch, y1, DiffPoly.const(C, (), 3)).ok
        r = verify_forward(ch, ch.element(y1), DiffRatFunc(three, DiffPoly.const(C, ("y",), 2)))
        assert not r.ok
        assert r.witness == DiffRatFunc.from_poly(DiffPoly.const(C, ("y1",), Fraction(3, 2)))

    def test_undefined_at_the_element(self):
        y1 = DiffPoly.var(C, ("y1",), "y1")
        ch = poly_chain(C, (y1,))
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), yv - 1)
        r = verify_forward(ch, DiffPoly.const(C, ("y1",), 1), f)
        assert not r.ok
        assert r.witness == "f is undefined at the element"


class TestVerifyBackward:
    def test_lambert_chain_passes(self):
        g, hs, chain = lambert_data()
        assert verify_backward(g, hs, chain).ok

    def test_sign_corruptions_fail(self):
        for flip in (0, 1):
            g, hs, chain = lambert_data(flip_rule=flip)
            r = verify_backward(g, hs, chain)
            assert not r.ok and r.index == flip + 1
        g, hs, chain = lambert_data(flip_defining=True)
        assert not verify_backward(g, hs, chain).ok

    def test_identity_assignment(self):
        w = DiffPoly.var(C, ("w",), "w")
        g = DiffRatFunc.from_poly(w ** 2 - w)
        y1 = DiffPoly.var(C, ("y1",), "y1")
        chain = poly_chain(C, (y1 ** 2 - y1,))
        assert verify_backward(g, [DiffRatFunc.from_poly(w)], chain).ok

    def test_arity_mismatch(self):
        from pfaffkit.errors import ArityMismatch

        g, hs, chain = lambert_data()
        with pytest.raises(ArityMismatch):
            verify_backward(g, hs[:1], chain)

    def test_rule_undefined_at_the_assignments(self):
        text = (FIXTURES / "undefined_rule_backward.pfaff").read_text(encoding="utf-8")
        fx = parse_fixture_text(text)
        r = verify_backward(fx.defining, list(fx.assignments), fx.chain)
        assert not r.ok and r.index == 1
        assert r.witness == "rule 1 is undefined at the assignments"

    def test_only_the_undefined_rule_fails(self):
        w = DiffPoly.var(C, ("w",), "w")
        names = ("y1", "y2")
        y1 = DiffPoly.var(C, names, "y1")
        y2 = DiffPoly.var(C, names, "y2")
        one = DiffPoly.const(C, names, 1)
        chain = PfaffianChain(
            C, "rational", (DiffRatFunc.from_poly(one), DiffRatFunc(one, y2 - y1)), names
        ).validate()
        g = DiffRatFunc.from_poly(DiffPoly.const(C, ("w",), 1))
        r = verify_backward(g, [DiffRatFunc.from_poly(w), DiffRatFunc.from_poly(w)], chain)
        assert not r.ok and r.index == 2
        assert r.witness == "rule 2 is undefined at the assignments"


# Test-only copies of the verifiers before both took their derivative from
# ``_derive_pair(rules, expr)`` and their verdict from ``_compare``: the
# pair-based derivative through a chain, and the hand-written chain rule,
# quotient rule and coefficient derivation of the backward check.
def ref_pair_add(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def ref_pair_sub(a, b):
    return a[0] * b[1] - b[0] * a[1], a[1] * b[1]


def ref_pair_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def ref_pair_witness(a, b):
    return DiffRatFunc(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def ref_derive_pair(chain, expr):
    rule_pairs = [diffalg.as_pair(r) for r in chain.rules]

    def derive_poly(p):
        one = DiffPoly.const(p.base, p.variables, 1)
        acc = (p.coeff_derivation(), one)
        for v, rp in zip(chain.variables, rule_pairs):
            part = p.partial(v)
            if part.is_zero():
                continue
            acc = ref_pair_add(acc, ref_pair_mul((part, one), rp))
        return acc

    if isinstance(expr, DiffPoly):
        return derive_poly(expr)
    N, D = expr.num, expr.den
    one = DiffPoly.const(N.base, N.variables, 1)
    num = ref_pair_sub(ref_pair_mul(derive_poly(N), (D, one)), ref_pair_mul((N, one), derive_poly(D)))
    return num[0], num[1] * D * D


def ref_verify_forward(chain, expr, f):
    lhs = ref_derive_pair(chain, expr)
    rhs = diffalg.cleared_pair(f, {diffalg.sole_variable(f): diffalg.as_pair(expr)})
    if rhs[1].is_zero():
        return chains.VerifyResult(False, witness="f is undefined at the element")
    if (lhs[0] * rhs[1] - rhs[0] * lhs[1]).is_zero():
        return chains.VerifyResult(True)
    return chains.VerifyResult(False, witness=ref_pair_witness(lhs, rhs))


def ref_verify_backward(g, assignments, system):
    wname = diffalg.sole_variable(g, default="w")
    g_pair = diffalg.as_pair(g)
    h_pairs = [diffalg.as_pair(h) for h in assignments]
    pairs = dict(zip(system.variables, h_pairs))
    for i, rule in enumerate(system.rules):
        N, D = h_pairs[i]
        dN, dD = N.partial(wname), D.partial(wname)
        h_prime = (dN * D - N * dD, D * D)
        lhs = ref_pair_mul(h_prime, g_pair)
        delta = N.coeff_derivation() * D - N * D.coeff_derivation()
        if not delta.is_zero():
            lhs = ref_pair_add(lhs, (delta, D * D))
        rhs = diffalg.cleared_pair(rule, pairs)
        if not (lhs[0] * rhs[1] - rhs[0] * lhs[1]).is_zero():
            return chains.VerifyResult(False, index=i + 1, witness=ref_pair_witness(lhs, rhs))
    return chains.VerifyResult(True)


def lambert_corruption_texts():
    """The Lambert fixture and every single-sign flip of its body."""
    text = (FIXTURES / "lambert_backward.pfaff").read_text(encoding="utf-8")
    body = "\n".join(ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#"))
    flips = {"-": "+", "+": "-"}
    return [body] + [body[:i] + flips[ch] + body[i + 1:] for i, ch in enumerate(body) if ch in flips]


def round_trip(P, Q):
    """verify_backward arguments for y' = P/Q and its Noetherian system in (y, w)."""
    w = DiffPoly.var(P.base, ("w",), "w")
    Pw = DiffRatFunc.from_poly(P.substitute({"y": w}))
    Qw = DiffRatFunc.from_poly(Q.substitute({"y": w}))
    return Pw / Qw, [DiffRatFunc.from_poly(w), 1 / Qw], rational_to_noetherian(P, Q)


def bump_one_coefficient(rng, system):
    """``system`` with 1 added to one coefficient of one rule (a new term if the rule is zero)."""
    rules = list(system.rules)
    k = rng.randrange(len(rules))
    rule = rules[k]
    if rule.is_zero():
        rules[k] = rule + 1
    else:
        expo = rng.choice(sorted(rule.terms))
        rules[k] = rule + DiffPoly(rule.base, rule.variables, {expo: rule.base.one()})
    return chains.NoetherianSystem(system.base, rules, system.variables)


def same_result(new, ref):
    assert (new.ok, new.index) == (ref.ok, ref.index)
    assert str(new.witness) == str(ref.witness)


class TestSharedDerivativeAgainstReference:
    """Both verifiers against the copies of their code before the shared derivative."""

    def test_lambert_fixture_and_its_sign_flips(self):
        texts = lambert_corruption_texts()
        assert len(texts) == 5
        results = []
        for text in texts:
            fx = parse_fixture_text(text)
            args = fx.defining, list(fx.assignments), fx.chain
            new, ref = verify_backward(*args), ref_verify_backward(*args)
            same_result(new, ref)
            results.append(new)
        assert results[0].ok and not any(r.ok for r in results[1:])
        assert len({str(r.witness) for r in results[1:]}) == 4

    @pytest.mark.parametrize("which", ["Q", "Q(sqrt2)", "Q(t)"])
    def test_noetherianize_round_trips(self, which, sqrt2):
        base = {"Q": C, "Q(sqrt2)": BaseDiffField.constants(sqrt2), "Q(t)": Kt}[which]
        rng = random.Random(f"round trips {which}")
        passed = failed = 0
        for _ in range(12 if base.var is None else 6):
            P = rand_poly(rng, base, ("y",))
            Q = rand_nonzero_poly(rng, base, ("y",))
            g, hs, system = round_trip(P, Q)
            for system in (system, bump_one_coefficient(rng, system)):
                new, ref = verify_backward(g, hs, system), ref_verify_backward(g, hs, system)
                same_result(new, ref)
                passed += new.ok
                failed += not new.ok
        assert passed and failed

    def rand_rational_chain(self, rng, base, names):
        rules = []
        for i in range(len(names)):
            used = names[: i + 1]
            num = rand_poly(rng, base, used)
            den = rand_nonzero_poly(rng, base, used, max_deg=1)
            rules.append(DiffRatFunc(num.extend(names), den.extend(names)))
        return PfaffianChain(base, "rational", rules, names).validate()

    def rand_f(self, rng, base):
        return DiffRatFunc(rand_poly(rng, base, ("y",)), rand_nonzero_poly(rng, base, ("y",), max_deg=1))

    def run_forward(self, rng, base, count):
        for _ in range(count):
            names = rng.choice((("y1",), ("y1", "y2")))
            chain = TestDeriveThroughChain().rand_chain(rng, base, names)
            p = rand_poly(rng, base, names)
            f = self.rand_f(rng, base)
            for e in (p, DiffRatFunc(p, rand_nonzero_poly(rng, base, names, max_deg=1))):
                same_result(verify_forward(chain, e, f), ref_verify_forward(chain, e, f))
            # a polynomial element on a two-variable rational chain
            rational = self.rand_rational_chain(rng, base, ("y1", "y2"))
            e = rand_poly(rng, base, ("y1", "y2"))
            same_result(verify_forward(rational, e, f), ref_verify_forward(rational, e, f))
            # a fraction on it: the same value, possibly fewer uncancelled factors
            q = DiffRatFunc(e, rand_nonzero_poly(rng, base, ("y1", "y2"), max_deg=1))
            new, ref = verify_forward(rational, q, f), ref_verify_forward(rational, q, f)
            assert (new.ok, new.index) == (ref.ok, ref.index)
            assert new.witness == ref.witness
        # a chain and element that pass
        y1 = DiffPoly.var(base, ("y1",), "y1")
        rule = rand_poly(rng, base, ("y1",))
        chain = poly_chain(base, (rule,))
        f = DiffRatFunc.from_poly(rule.substitute({"y1": DiffPoly.var(base, ("y",), "y")}))
        assert verify_forward(chain, y1, f).ok and ref_verify_forward(chain, y1, f).ok

    def test_forward_over_q(self):
        self.run_forward(random.Random(1401), C, 30)

    def test_forward_over_qsqrt2(self, sqrt2):
        self.run_forward(random.Random(1402), BaseDiffField.constants(sqrt2), 20)

    def test_forward_over_kt(self):
        self.run_forward(random.Random(1403), Kt, 12)

    def test_a_fraction_on_a_rational_chain_has_fewer_factors(self):
        names = ("y1", "y2")
        y1 = DiffPoly.var(C, names, "y1")
        y2 = DiffPoly.var(C, names, "y2")
        one = DiffPoly.const(C, names, 1)
        chain = PfaffianChain(
            C, "rational", (DiffRatFunc(y1, y1 + 1), DiffRatFunc(one, y2 + 3)), names
        ).validate()
        element = DiffRatFunc(y1 + y2, y1 * y2 + 1)
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc.from_poly(yv * yv)
        new, ref = verify_forward(chain, element, f), ref_verify_forward(chain, element, f)
        assert not new.ok and not ref.ok
        assert new.witness == ref.witness
        # the old pair arithmetic multiplied in (y1 + 1)(y2 + 3) twice
        assert new.witness.den * (y1 + 1) * (y2 + 3) == ref.witness.den
        assert str(new.witness) != str(ref.witness)


def counting_products(monkeypatch):
    """Record every DiffPoly product formed inside ``chains._compare``."""
    products, inside = [], []
    real_compare, real_mul = chains._compare, DiffPoly.__mul__

    def compare(*args):
        inside.append(True)
        try:
            return real_compare(*args)
        finally:
            inside.pop()

    def mul(self, other):
        if inside:
            products.append((self, other))
        return real_mul(self, other)

    monkeypatch.setattr(chains, "_compare", compare)
    monkeypatch.setattr(DiffPoly, "__mul__", mul)
    return products


class TestCompareShortcut:
    """Pairs equal term by term pass ``_compare`` without a product."""

    def test_equal_pairs_pass_without_a_product(self, monkeypatch):
        products = counting_products(monkeypatch)
        rng = random.Random(2020)
        for base in (C, Kt):
            for _ in range(10):
                a, b = rand_poly(rng, base, ("y",)), rand_nonzero_poly(rng, base, ("y",))
                # copies built apart: the shortcut compares terms, not objects
                copy = tuple(DiffPoly(base, ("y",), dict(p.terms)) for p in (a, b))
                assert chains._compare((a, b), copy, 3, "undefined").ok
        assert products == []

    def test_pairs_equal_only_as_fractions_cross_multiply(self, monkeypatch):
        products = counting_products(monkeypatch)
        rng = random.Random(2021)
        for base in (C, Kt):
            for _ in range(10):
                a, b = rand_nonzero_poly(rng, base, ("y",)), rand_nonzero_poly(rng, base, ("y",))
                del products[:]
                assert chains._compare((2 * a, 2 * b), (a, b), 3, "undefined").ok
                assert len(products) == 2
                del products[:]
                r = chains._compare((a + 1, b), (a, b), 3, "undefined")
                assert not r.ok and r.index == 3
                assert r.witness == DiffRatFunc(b, b * b)
                assert len(products) >= 3
                # equal numerators over different denominators differ
                r = chains._compare((a, b), (a, 2 * b), 3, "undefined")
                assert not r.ok and r.witness == DiffRatFunc(a * b, 2 * b * b)

    def test_failing_certificates_keep_their_index_and_witness(self, monkeypatch):
        products = counting_products(monkeypatch)
        for text in lambert_corruption_texts()[1:]:
            fx = parse_fixture_text(text)
            args = fx.defining, list(fx.assignments), fx.chain
            new, ref = verify_backward(*args), ref_verify_backward(*args)
            assert not new.ok and new.index in (1, 2)
            same_result(new, ref)
        assert products
        for flip in (0, 1):
            r = verify_backward(*lambert_data(flip_rule=flip))
            assert not r.ok and r.index == flip + 1
        del products[:]
        text = (FIXTURES / "undefined_rule_backward.pfaff").read_text(encoding="utf-8")
        fx = parse_fixture_text(text)
        r = verify_backward(fx.defining, list(fx.assignments), fx.chain)
        assert (r.ok, r.index, r.witness) == (False, 1, "rule 1 is undefined at the assignments")
        assert products == []

    def test_a_degree_sweep_input_cross_multiplies_nothing(self, monkeypatch):
        products = counting_products(monkeypatch)
        compared = counting_calls(monkeypatch, "_compare")
        doc, code = run(["classify-ode", "y' = (y-1)^9/(y*(y-1/3))"])
        assert code == 0 and doc["verdicts"]["rationally_pfaffian"] == "yes"
        assert len(compared) == 3 and products == []


class TestSearchPresentation:
    def test_half_reciprocal_certificate(self):
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 2 * yv)
        cert = search_presentation(f)
        assert cert is not None
        assert cert.h_str() == "1/x"
        x = pk.UniPoly.x(None)
        assert cert.p == x ** 3 * Fraction(-1, 2)
        assert verify_forward(cert.chain, cert.element, f).ok

    def test_polynomial_right_hand_side(self):
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc.from_poly(yv ** 2 + 1)
        cert = search_presentation(f)
        assert cert is not None
        x = pk.UniPoly.x(None)
        assert cert.r == x and cert.s == pk.UniPoly.const(1, None)
        assert cert.p == x ** 2 + 1

    def test_theorem_candidate_family_yields_nothing(self, sqrt2):
        base = BaseDiffField.constants(sqrt2)
        yv = DiffPoly.var(base, ("y",), "y")
        a = sqrt2.scalar(2)
        b = sqrt2.scalar(1, 1)
        f = DiffRatFunc((yv - a) * (yv - b), yv * (yv - 1))
        assert search_presentation(f, degree_bound=3) is None

    def test_constant_f_without_variables(self):
        f = DiffRatFunc(DiffPoly.const(C, (), 3), DiffPoly.const(C, (), 2))
        cert = search_presentation(f)
        assert cert.h_str() == "x"
        assert [str(r) for r in cert.chain.rules] == ["3/2"]

    def test_nonconstant_base_rejected(self):
        yv = DiffPoly.var(Kt, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(Kt, ("y",), 1), yv)
        with pytest.raises(NonConstantBase):
            search_presentation(f)

    def test_user_candidates_are_tried(self):
        # y' = 1/(3 y^2) is presented by the closed form h = 1/x and by the
        # caller's h = 1/x^3, with rule -x^10/9; the caller's pair comes first
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 3 * yv ** 2)
        x = pk.UniPoly.x(None)
        cert = search_presentation(f, candidates=[(pk.UniPoly.const(1, None), x ** 3)])
        assert cert.h_str() == "1/x^3" and cert.p == x ** 10 * Fraction(-1, 9)
        assert verify_forward(cert.chain, cert.element, f).ok
        assert search_presentation(f).h_str() == "1/x"

    def test_caller_pairs_are_reduced_and_bounded(self, monkeypatch):
        # (x^3, x^4) is h = 1/x in lowest terms; (1, x^4) is over the bound
        yv = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 3 * yv ** 2)
        x, one = pk.UniPoly.x(None), pk.UniPoly.const(1, None)
        calls = counting_calls(monkeypatch, "_presentation_rule")
        cert = search_presentation(f, candidates=[(one, x ** 4), (x ** 3, x ** 4)])
        assert [args[2:4] for args in calls] == [(one, x)] and cert.h_str() == "1/x"

    def test_random_certificates_reverify(self):
        # one pole location at 0 and e >= 0: the closed form always presents
        rng = random.Random(13)
        yv = DiffPoly.var(C, ("y",), "y")
        for _ in range(20):
            c = rand_fraction(rng, 4, nonzero=True)
            f = DiffRatFunc(DiffPoly.const(C, ("y",), c), yv ** rng.randint(1, 2))
            cert = search_presentation(f)
            assert cert.h_str() == "1/x"
            assert verify_forward(cert.chain, cert.element, f).ok

    def test_exact_division_rule_matches_reduced_quotient(self):
        # the search divides the unreduced pair of homogenized_pair; the
        # reference reduces f(h) S^2 / W as a rational function
        def reference_rule(A, B, r, s, w):
            one = pk.UniPoly.const(1, A.field)
            quot = RatFunc(*homogenized_pair(A, B, r, s, one, 2)) / RatFunc(w, one)
            if not quot.is_polynomial():
                return None
            return quot.num * quot.den.constant_value().inverse()

        for field in RULE_FIELDS.values():
            rng = random.Random(31)
            x = pk.UniPoly.x(field)
            one = pk.UniPoly.const(1, field)
            for k in range(40):
                # a Moebius h = R/S and a rule P give f = (P W / S^2)(h^-1),
                # so (R, S) has a polynomial rule; the other pairs mostly not
                while True:
                    a, b, c, d = (rand_fraction(rng, 3) for _ in range(4))
                    if a * d - b * c:
                        break
                r, s = a * x + b, c * x + d
                w = r.derivative() * s - r * s.derivative()
                P = rand_unipoly(rng, field, max_deg=3) if k else pk.UniPoly.zero(field)
                g = RatFunc(w * P, s * s)
                f = RatFunc(*homogenized_pair(g.num, g.den, d * x - b, a - c * x, one, 0))
                A, B = f.num, f.den
                others = [
                    (x * x, pk.UniPoly.const(1, field)),
                    (pk.UniPoly.const(1, field), x * x - 1),
                    (rand_unipoly(rng, field, max_deg=2), rand_unipoly(rng, field, max_deg=2)),
                ]
                assert _presentation_rule(A, B, r, s, w) == P
                for r2, s2 in [(r, s)] + others:
                    if s2.is_zero():
                        continue
                    w2 = r2.derivative() * s2 - r2 * s2.derivative()
                    if w2.is_zero():
                        continue
                    assert _presentation_rule(A, B, r2, s2, w2) == reference_rule(A, B, r2, s2, w2)

    def test_exact_rule_builds_no_fraction_and_runs_no_gcd(self, monkeypatch):
        # shifted pairs on the zeros and poles of f, plus 0 and 1, straight
        # to the exact rule
        f = parse_ode_text("y' = (y - r)*(y + 1)/(y*(y - 2)) over Q(r: r^2-2)").f
        A, B = (to_unipoly(p, sole_variable(f)) for p in (f.num, f.den))
        field = A.field
        x, one = pk.UniPoly.x(field), pk.UniPoly.const(1, field)
        points = [x - c for c in (0, 1, 2, -1)] + [x - field.gen()]
        pairs = [(x, one), (one, x), (x * x, one), (one, x * x)]
        pairs += [(p, one) for p in points] + [(one, p) for p in points]
        pairs += [(p, q) for p in points for q in points if p != q]
        tried = [with_w(r, s) for r, s in pairs]
        counts = {"RatFunc": 0, "gcd": 0}

        def counting(key, real):
            def counted(*args):
                counts[key] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(RatFunc, "__init__", counting("RatFunc", RatFunc.__init__))
        for module in (exactfield, diffalg, chains):
            for gcd in ("poly_gcd", "subresultant_gcd"):
                if hasattr(module, gcd):
                    monkeypatch.setattr(module, gcd, counting("gcd", getattr(module, gcd)))
        assert all(_presentation_rule(A, B, r, s, w) is None for r, s, w in tried)
        assert len(tried) > 20 and counts == {"RatFunc": 0, "gcd": 0}


def with_w(r, s):
    return r, s, r.derivative() * s - r * s.derivative()


def counting_calls(monkeypatch, name):
    """Record the arguments of every call to ``chains.<name>``."""
    calls = []
    real = getattr(chains, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, name, counted)
    return calls


def check_rejections(field, rng):
    """When the pole case says no h presents a random f in lowest terms,
    every random caller pair fails the exact rule; returns how many
    pairs it checked.  Half the denominators have one pole location."""
    A, B = rand_unipoly(rng, field, max_deg=5), rand_unipoly(rng, field, max_deg=3)
    if rng.random() < 0.5:
        x = pk.UniPoly.x(field)
        B = (x - rand_scalar(rng, field, 3)) ** rng.randint(1, 3) * rand_scalar(rng, field, 3)
    if B.is_zero():
        B = pk.UniPoly.const(1, field)
    g = pk.poly_gcd(A, B)
    A, B = A // g, B // g
    reason, beta = pole_case(A, B)
    if reason is None:
        return 0
    assert beta is None
    checked = 0
    for _ in range(4):
        r, s = rand_unipoly(rng, field, max_deg=2), rand_unipoly(rng, field, max_deg=2)
        if s.is_zero():
            continue
        g = pk.poly_gcd(r, s)
        r, s, w = with_w(r // g, s // g)
        if not w.is_zero():
            assert _presentation_rule(A, B, r, s, w) is None
            checked += 1
    return checked


class TestPoleRules:
    """The case the poles of f name: which h = R/S can present y' = f(y)."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(RULE_FIELDS)), st.integers(0, 2 ** 32))
    def test_a_rejection_is_never_overturned(self, name, seed):
        check_rejections(RULE_FIELDS[name], random.Random(seed))

    def test_the_none_cases_are_drawn(self):
        checked = sum(check_rejections(field, random.Random(f"{name}/{k}"))
                      for name, field in RULE_FIELDS.items() for k in range(8))
        assert checked >= 40

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(RULE_FIELDS)), st.integers(0, 2 ** 32))
    def test_a_hit_is_never_rejected(self, name, seed):
        # a Moebius h = R/S and a rule P give f = (P W / S^2)(h^-1), whose
        # presentation through (R, S) has the rule P; with one pole
        # location beta, R - beta S is a constant
        field = RULE_FIELDS[name]
        rng = random.Random(seed)
        x = pk.UniPoly.x(field)
        while True:
            a, b, c, d = (rand_scalar(rng, field, 3) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        r, s, w = with_w(x * a + b, x * c + d)
        P = rand_unipoly(rng, field, max_deg=3)
        g = RatFunc(w * P, s * s)
        one = pk.UniPoly.const(1, field)
        f = RatFunc(*homogenized_pair(g.num, g.den, x * d - b, one * a - x * c, one, 0))
        A, B = f.num, f.den
        assert _presentation_rule(A, B, r, s, w) == P
        reason, beta = pole_case(A, B)
        assert reason is None
        assert beta is None or (r - s * beta).is_constant()

    def test_missing_powers_of_s_are_a_rejection(self):
        # f = y^3 + 1 and h = 1/x: P = -(1 + x^3)/x, so S^(-e) = x does not
        # divide the dividend 1 + x^3 (rule 2); with no pole h = x presents f
        x = pk.UniPoly.x(None)
        one = pk.UniPoly.const(1, None)
        A, B = x ** 3 + 1, one
        assert _presentation_rule(A, B, *with_w(one, x)) is None
        assert pole_case(A, B) == (None, None)
        assert _presentation_rule(A, B, *with_w(x + 1, one)) is not None

    @pytest.mark.parametrize("name", list(RULE_FIELDS))
    def test_rule_two_rejects_every_non_constant_s(self, name):
        # deg A > deg B + 2: S divides the divisor but not A~ = a_n R^n mod S,
        # for a denominator with no pole and for one with one pole location;
        # with one pole location the case is then "none"
        field = RULE_FIELDS[name]
        rng = random.Random(f"rule two/{name}")
        x = pk.UniPoly.x(field)
        beta = field.gen() if field else pk.AlgebraicScalar.rational(Fraction(1, 3))
        rejected = 0
        for k in range(30):
            m = k % 3
            B = (x - beta) ** m * rand_scalar(rng, field, 3, nonzero=True)
            A = x ** (m + 3) * rand_scalar(rng, field, 3, nonzero=True) + rand_unipoly(rng, field)
            if A.degree != m + 3 or not pk.poly_gcd(A, B).is_constant():
                continue
            reason, _ = pole_case(A, B)
            # with no pole, rule 2 alone leaves h = x
            assert (reason is None) == (m == 0)
            if m:
                assert reason == "one pole location and e = deg B - deg A + 2 = -1 < 0"
            r, s = rand_unipoly(rng, field, max_deg=2), rand_unipoly(rng, field, max_deg=2)
            if s.is_zero():
                continue
            g = pk.poly_gcd(r, s)
            r, s, w = with_w(r // g, s // g)
            if s.is_constant() or w.is_zero():
                continue
            assert _presentation_rule(A, B, r, s, w) is None
            rejected += 1
        assert rejected >= 10

    def test_cancellation_at_equal_degrees_is_a_rule_one_rejection(self):
        # B(1) = 0 and lc R = lc S, so B~ = R^2 - S^2 = -(2x + 5) drops a
        # degree; x^2 - 1 has two pole locations, so no h qualifies
        x = pk.UniPoly.x(None)
        one = pk.UniPoly.const(1, None)
        A, B = one, x * x - 1
        assert _presentation_rule(A, B, *with_w(x + 2, x + 3)) is None
        assert pole_case(A, B) == ("two pole locations", None)

    @pytest.mark.parametrize("n", [9, 120])
    def test_degree_sweep_inputs_never_reach_the_exact_rule(self, n, monkeypatch):
        argv = ["classify-ode", f"y' = (y-1)^{n}/(y*(y-1/3))"]
        calls = counting_calls(monkeypatch, "_presentation_rule")
        doc, code = run(argv)
        assert code == 0 and calls == []
        assert doc["verdicts"]["pfaffian"] == "unknown"
        reason = doc["reasons"]["pfaffian"]
        assert reason.endswith("no one-rule rational presentation: two pole locations")
        # caller pairs are not tried either, and the exact rule agrees
        with_pairs, pairs_code = run(argv + ["--candidate", "1/x", "--candidate", "(x-1)/x"])
        assert calls == []
        assert (with_pairs, pairs_code) == (doc, code)
        f = parse_ode_text(argv[1]).f
        A, B = (to_unipoly(p, "y") for p in (f.num, f.den))
        x, one = pk.UniPoly.x(None), pk.UniPoly.const(1, None)
        assert _presentation_rule(A, B, *with_w(one, x)) is None
        assert _presentation_rule(A, B, *with_w(x - 1, x)) is None

    @pytest.mark.parametrize("text", [
        "y' = 1/(y^2-2)",
        "y' = 1/((y-1)^2*(y-2))",
        "y' = (y-1)^5/(y*(y-1/3))",
    ])
    def test_two_pole_locations_try_no_pair(self, text, monkeypatch):
        calls = counting_calls(monkeypatch, "_presentation_rule")
        x, one = pk.UniPoly.x(None), pk.UniPoly.const(1, None)
        f = parse_ode_text(text).f
        assert search_presentation(f, candidates=[(one, x), (x + 1, x)]) is None
        assert calls == []

    def test_one_pole_location_keeps_exactly_the_shifted_candidates(self):
        # over Q(sqrt2) with B = (x - r)^2: a pair whose R - r S is not a
        # constant fails the exact rule; h = r - 2/x^2 passes, and as the
        # caller's pair it wins over the closed form h = r + 1/x
        field = RULE_FIELDS["Q(sqrt2)"]
        base = BaseDiffField.constants(field)
        x, one, root = pk.UniPoly.x(field), pk.UniPoly.const(1, field), field.gen()
        B = (x - root) ** 2
        unshifted = [(x, x - root), (x * root + 3, one), (one, x), (x + 1, x)]
        for A in (one, x + 1, x * x * x - 3):
            assert pole_case(A, B) == (None, root)
            for r, s in unshifted:
                assert _presentation_rule(A, B, *with_w(r, s)) is None
            f = DiffRatFunc(*(diffalg.from_unipoly(p, base, ("y",), "y") for p in (A, B)))
            cert = search_presentation(f)
            assert (cert.r, cert.s) == (x * root + 1, x)
            cert = search_presentation(f, candidates=unshifted + [(x * x * root - 2, x * x)])
            assert (cert.r, cert.s) == (x * x * root - 2, x * x)
        assert _presentation_rule(one, B, *with_w(x * root + 1, x)) == -(x ** 4)


def sympy_presents(field, fr, cert):
    """Whether sympy finds h'(x) P(x) = f(h(x)) for the factored f, with the
    field generator as a symbol reduced by its defining polynomial."""
    sympy = pytest.importorskip("sympy")
    x, theta = sympy.symbols("x theta")

    def value(coords):
        return sum(sympy.Rational(c.numerator, c.denominator) * theta ** j
                   for j, c in enumerate(coords))

    def poly(p):
        return sum(value(c.coords) * x ** i for i, c in enumerate(p.coeffs))

    h = poly(cert.r) / poly(cert.s)
    f_of_h = value(fr.leading.coords)
    for a, k in fr.zeros:
        f_of_h *= (h - value(a.coords)) ** k
    for b, k in fr.poles:
        f_of_h /= (h - value(b.coords)) ** k
    num = sympy.expand(sympy.numer(sympy.together(sympy.diff(h, x) * poly(cert.p) - f_of_h)))
    if field is not None:
        num = sympy.rem(num, value(field.minpoly), theta)
    return sympy.expand(num) == 0


class TestClosedForm:
    """One pole location with e >= 0 is presented by h = beta + 1/x."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(RULE_FIELDS)), st.integers(0, 2 ** 32))
    def test_one_pole_location_is_presented_by_the_closed_form(self, name, seed):
        field = RULE_FIELDS[name]
        fr = rand_one_pole(random.Random(seed), field)
        verdict = classify_order_one(as_diffratfunc(fr, BaseDiffField.constants(field)))
        assert verdict.pfaffian.is_yes
        cert = verdict.pfaffian.payload
        x = pk.UniPoly.x(field)
        assert (cert.r, cert.s) == (x * fr.poles[0][0] + 1, x)
        assert sympy_presents(field, fr, cert)

    @pytest.mark.parametrize("text, extra, h, p", [
        ("y' = 1/(y-2)^3", [], "(2*x + 1)/x", "-x^5"),
        ("y' = 1/(y-r)^2 over Q(r: r^2-2)", [], "(r*x + 1)/x", "-x^4"),
        ("y' = 2*(y+1/2)*(y-1/3)*(y+3/2)/y", [], "1/x", "1/2*x^3 - 1/6*x^2 - 10/3*x - 2"),
        ("y' = (y^2-2)/(y-1) over Q(r: r^2-2)", [], "(x + 1)/x", "x^3 - 2*x^2 - x"),
        ("y' = 1/(y-r)^3 over Q(r: r^2-2)", ["--candidate", "r - 1/x"], "(r*x - 1)/x", "-x^5"),
    ])
    def test_one_division_gives_the_certificate(self, text, extra, h, p, monkeypatch):
        # the closed form, or a caller pair that hits before it
        calls = counting_calls(monkeypatch, "_presentation_rule")
        doc, code = run(["classify-ode", text] + extra)
        assert code == 0 and len(calls) == 1
        assert doc["verdicts"]["pfaffian"] == "yes"
        assert doc["certificates"]["presentation"] == {"h": h, "p": p}

    @pytest.mark.parametrize("text, reason", [
        ("y' = (y-1)^9/(y*(y-1/3))", "two pole locations"),
        ("y' = (y-1)^4/y", "one pole location and e = deg B - deg A + 2 = -1 < 0"),
    ])
    def test_the_none_cases_name_themselves(self, text, reason):
        doc, code = run(["classify-ode", text])
        assert code == 0 and doc["verdicts"]["pfaffian"] == "unknown"
        assert doc["reasons"]["pfaffian"].endswith(f"no one-rule rational presentation: {reason}")

    def test_a_remainder_on_the_closed_form_is_an_invariant_breach(self, monkeypatch):
        monkeypatch.setattr(chains, "_presentation_rule", lambda A, B, r, s, w: None)
        with pytest.raises(InternalInvariant):
            search_presentation(parse_ode_text("y' = 1/(y-2)^3").f)
        doc, code = run(["classify-ode", "y' = 1/(y-2)^3"])
        assert code == 2 and doc["error"]["kind"] == "internal"

    @pytest.mark.parametrize("name", list(RULE_FIELDS))
    def test_the_pole_case_decides_the_result(self, name):
        # one pole location beta, drawn as 0, 1 or another scalar, and a
        # numerator of any degree, so both cases occur
        field = RULE_FIELDS[name]
        base = BaseDiffField.constants(field)
        rng = random.Random(f"pole case/{name}")
        x = pk.UniPoly.x(field)
        outcomes = {"none": 0, "hits": 0}
        for k in range(24):
            beta = [pk.AlgebraicScalar.rational(0), pk.AlgebraicScalar.rational(1),
                    rand_scalar(rng, field, 3, nonzero=True)][k % 3]
            B = (x - pk.UniPoly.const(beta, field)) ** rng.randint(1, 3)
            d = rng.choice([0, 2, 5])
            A = x ** d + (rand_unipoly(rng, field, max_deg=d - 1) if d else 0)
            A = A * rand_scalar(rng, field, 3, nonzero=True)
            f = DiffRatFunc(*(diffalg.from_unipoly(p, base, ("y",), "y") for p in (A, B)))
            cert = search_presentation(f)
            fn, fd = (to_unipoly(p, "y") for p in (f.num, f.den))
            # a common factor may leave no pole, and then h = x presents f
            assert (cert is None) == (0 < fd.degree < fn.degree - 2), (name, A, B)
            if cert is not None:
                assert verify_forward(cert.chain, cert.element, f).ok
            outcomes["none" if cert is None else "hits"] += 1
        assert outcomes["none"] > 0 and outcomes["hits"] > 0, outcomes

    def test_only_criteria_splits_the_roots(self, monkeypatch):
        # only extract_factored splits A and B; the search reads the poles
        # off B without a root
        calls = []
        real = exactfield.extract_linear_roots
        for module in (exactfield, diffalg, chains, criteria, cli):
            if hasattr(module, "extract_linear_roots"):
                def recorded(p, _module=module.__name__):
                    calls.append(_module.rsplit(".", 1)[1])
                    return real(p)
                monkeypatch.setattr(module, "extract_linear_roots", recorded)
        doc, code = run(["classify-ode", "y' = (y-2)*(y-3)/(y*(y-1)*(y+5))"])
        assert code == 0 and calls == ["criteria", "criteria"]


class TestSerialization:
    def test_round_trip_through_grammar(self):
        from pfaffkit.parser import parse_fixture_text

        chain = lambert_chain()
        lines = ["var: z"] + [f"rule: {s}" for s in chain.serialize()]
        lines += ["defining: w' = w/(z*(1+w))", "assign: 1/(1+w)", "assign: w"]
        fixture = parse_fixture_text("\n".join(lines))
        assert fixture.chain == chain
