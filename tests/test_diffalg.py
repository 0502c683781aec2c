import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfaffkit as pk
from pfaffkit.diffalg import (
    BaseDiffField,
    DiffIndeterminateExpr,
    DiffPoly,
    DiffRatFunc,
    RatFunc,
    _reduce_fraction,
    dense_to_diffpoly,
    riccati_reduce,
    sole_variable,
    substitute,
    univar_dense,
)
from pfaffkit.errors import (
    ArityMismatch,
    DenominatorVanishesIdentically,
    FieldMismatch,
    NotMonic,
    UnknownVariable,
)
from conftest import rand_diffpoly, rand_fraction, rand_nonzero_poly, rand_poly
from test_exactfield import ref_dense_divmod, ref_dense_gcd

C = BaseDiffField.constants()
Kt = BaseDiffField.rational_functions(var="t")
Kz = BaseDiffField.rational_functions(var="z")


def yvars(base, names=("y1", "y2")):
    return [DiffPoly.var(base, names, n) for n in names]


class TestCoeffDerivation:
    def test_zero_on_constants(self):
        y1, y2 = yvars(C)
        p = 3 * y1 ** 2 * y2 - y2 + 7
        assert p.coeff_derivation().is_zero()

    def test_ddt_coefficientwise(self):
        y1, y2 = yvars(Kt)
        t = Kt.gen()
        p = t * y1 ** 2 + y2
        assert p.coeff_derivation() == y1 ** 2

    def test_quotient_rule_coefficient(self):
        y1, y2 = yvars(Kz)
        z = Kz.gen()
        q = (1 / z) * y1 * y2
        expected = (-1 / (z * z)) * y1 * y2
        assert q.coeff_derivation() == expected

    def test_leibniz_on_random_products(self):
        rng = random.Random(11)
        names = ("y1", "y2")
        for _ in range(200):
            base = Kt if rng.random() < 0.5 else Kz
            p = rand_diffpoly(rng, base, names)
            q = rand_diffpoly(rng, base, names)
            lhs = (p * q).coeff_derivation()
            rhs = p.coeff_derivation() * q + p * q.coeff_derivation()
            assert lhs == rhs


class TestPartialDerivative:
    def test_simple_power(self):
        y1, y2 = yvars(C)
        assert (y1 ** 2 * y2).partial("y1") == 2 * y1 * y2

    def test_constant(self):
        p = DiffPoly.const(C, ("y1", "y2"), 5)
        assert p.partial("y1").is_zero()

    def test_with_t_coefficient(self):
        y1, y2 = yvars(Kt)
        t = Kt.gen()
        assert (t * y1 ** 3).partial("y1") == 3 * t * y1 ** 2

    def test_unknown_variable(self):
        y1, _ = yvars(C)
        with pytest.raises(UnknownVariable):
            y1.partial("w")


class TestSubstitute:
    def setup_method(self):
        self.y = DiffPoly.var(C, ("y",), "y")

    def test_square_of_reciprocal(self):
        f = DiffRatFunc.from_poly(self.y ** 2)
        h = DiffRatFunc(DiffPoly.const(C, ("y",), 1), self.y)
        assert substitute(f, h) == DiffRatFunc(DiffPoly.const(C, ("y",), 1), self.y ** 2)

    def test_half_reciprocal(self):
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), 2 * self.y)
        h = DiffRatFunc(DiffPoly.const(C, ("y",), 1), self.y)
        assert substitute(f, h) == DiffRatFunc.from_poly(self.y) * Fraction(1, 2)

    def test_identity_substitution(self):
        f = DiffRatFunc((self.y - 2) * (self.y - 3), self.y * (self.y - 1))
        assert substitute(f, DiffRatFunc.from_poly(self.y)) == f

    def test_denominator_vanishes(self):
        f = DiffRatFunc(DiffPoly.const(C, ("y",), 1), self.y)
        zero = DiffRatFunc.from_poly(DiffPoly.zero(C, ("y",)))
        with pytest.raises(DenominatorVanishesIdentically):
            substitute(f, zero)
        # a polynomial value through a nonconstant denominator
        f = DiffRatFunc(self.y, self.y ** 2 - 1)
        with pytest.raises(DenominatorVanishesIdentically, match="vanish identically"):
            f.substitute({"y": DiffPoly.const(C, ("y",), 1)})

    def test_cleared_form(self):
        from pfaffkit.exactfield import homogenized_pair

        x = pk.UniPoly.x(None)
        one = pk.UniPoly.const(1, None)
        # f = 1/(2x) at h = 1/x, cleared by S^2, is the polynomial x^3/2
        out = RatFunc(*homogenized_pair(one, 2 * x, one, x, one, 2))
        assert out.is_polynomial()
        assert out.num == x ** 3 * Fraction(1, 2)
        # d = 0 recovers plain composition
        plain = RatFunc(*homogenized_pair(one, 2 * x, one, x, one, 0))
        assert plain == pk.RatFunc(x, pk.UniPoly.const(2, None))

    def test_multiplicative_on_random_instances(self):
        rng = random.Random(23)
        names = ("y",)

        def small():
            num = rand_diffpoly(rng, C, names, max_deg=2, max_terms=2, span=2)
            den = rand_diffpoly(rng, C, names, max_deg=1, max_terms=2, span=2) ** 2 + 1
            return DiffRatFunc(num, den)

        for _ in range(40):
            f, g, h = small(), small(), small()
            assert substitute(f * g, h) == substitute(f, h) * substitute(g, h)


def riccati_oracle(coeffs, base):
    """Expand sum a_k y^(k) through the rewrite y' = u*y and divide by y.

    Independent of the production recursion: derivatives are taken with
    Leibniz through the polynomial ring in (u, u', ..., Y).
    """
    n = len(coeffs) - 1
    names = tuple(f"u{j}" for j in range(max(n, 1))) + ("Y",)
    Y = DiffPoly.var(base, names, "Y")

    def d(p):
        out = p.coeff_derivation()
        for j in range(len(names) - 2):
            pd = p.partial(f"u{j}")
            if pd.is_zero():
                continue
            out = out + pd * DiffPoly.var(base, names, f"u{j + 1}")
        pdy = p.partial("Y")
        if not pdy.is_zero():
            out = out + pdy * (DiffPoly.var(base, names, "u0") * Y)
        return out

    derivs = [Y]
    for _ in range(n):
        derivs.append(d(derivs[-1]))
    total = DiffPoly.zero(base, names)
    for a, dk in zip(coeffs, derivs):
        total = total + dk * base.coerce(a)
    terms = {}
    for e, c in total.terms.items():
        assert e[-1] == 1, "every term must be linear in Y"
        terms[e[:-1]] = c
    return DiffIndeterminateExpr(base, terms)


class TestRiccatiReduce:
    def test_order_one(self):
        red = riccati_reduce([Kt.coerce(-3), Kt.one()], Kt)
        u = DiffIndeterminateExpr.u(Kt)
        assert red == u - DiffIndeterminateExpr.const(Kt, 3)

    def test_order_two(self):
        a, b = Kt.coerce(7), Kt.coerce(5)
        red = riccati_reduce([b, a, Kt.one()], Kt)
        u = DiffIndeterminateExpr.u(Kt)
        u1 = DiffIndeterminateExpr.u(Kt, 1)
        expected = u1 + u * u + a * u + b
        assert red == expected

    def test_airy_like_third_order(self):
        t = Kt.gen()
        red = riccati_reduce([(-1) * t, Kt.coerce(0), Kt.coerce(0), Kt.one()], Kt)
        u = DiffIndeterminateExpr.u(Kt)
        u1 = DiffIndeterminateExpr.u(Kt, 1)
        u2 = DiffIndeterminateExpr.u(Kt, 2)
        expected = u2 + 3 * u * u1 + u * u * u - DiffIndeterminateExpr.const(Kt, t)
        assert red == expected

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            riccati_reduce([Kt.coerce(1), Kt.coerce(2)], Kt)

    def test_matches_independent_expansion(self):
        rng = random.Random(31)
        for n in range(1, 6):
            for _ in range(10):
                coeffs = []
                for _k in range(n):
                    c = Kt.coerce(rand_fraction(rng, 5))
                    if rng.random() < 0.5:
                        c = c * Kt.gen() ** rng.randint(0, 2)
                    if rng.random() < 0.3:
                        c = c / (Kt.gen() ** rng.randint(1, 2) + 1)
                    coeffs.append(c)
                coeffs.append(Kt.one())
                assert riccati_reduce(coeffs, Kt) == riccati_oracle(coeffs, Kt)

    def test_order_and_leading_coefficient(self):
        rng = random.Random(32)
        for n in range(1, 6):
            coeffs = [Kt.coerce(rand_fraction(rng, 4)) for _ in range(n)] + [Kt.one()]
            red = riccati_reduce(coeffs, Kt)
            assert red.order() == n - 1
            # the coefficient of the monomial u^(n-1) alone
            top = red.terms.get((0,) * red.order() + (1,), Kt.zero())
            assert (top - Kt.one()).is_zero()


class TestRatFuncCoefficients:
    def test_reduction_is_canonical(self):
        t = RatFunc.x(None)
        a = (t ** 2 - 1) / (t - 1)
        assert a == t + 1

    def test_derivative_quotient_rule(self):
        t = RatFunc.x(None)
        f = 1 / t
        assert f.derivative() == -1 / (t * t)

    def test_diffratfunc_cross_multiplied_equality(self):
        names = ("y1", "y2")
        y1, y2 = yvars(C, names)
        a = DiffRatFunc(y1 * y2, y1)             # reduces by monomial content
        b = DiffRatFunc.from_poly(y2)
        assert a == b


# Test-only copy of the per-term substitution that ``cleared_pair`` replaced:
# every term is a reduced DiffRatFunc and the sum is reduced after each step.
def ref_substitute(value, mapping):
    if isinstance(value, DiffRatFunc):
        top = ref_substitute(value.num, mapping)
        bot = ref_substitute(value.den, mapping)
        top = top if isinstance(top, DiffRatFunc) else DiffRatFunc.from_poly(top)
        bot = bot if isinstance(bot, DiffRatFunc) else DiffRatFunc.from_poly(bot)
        if bot.is_zero():
            raise DenominatorVanishesIdentically(
                "substitution makes the denominator vanish identically"
            )
        return top / bot
    values = [mapping.get(v) for v in value.variables]
    target = next((v for v in reversed(values) if v is not None), None)
    if target is None:
        raise UnknownVariable("substitution mapping is empty")
    t_base, t_vars = target.base, target.variables
    acc = DiffRatFunc.from_poly(DiffPoly.zero(t_base, t_vars))
    for e, c in value.terms.items():
        term = DiffRatFunc.from_poly(DiffPoly.const(t_base, t_vars, c))
        for i, k in enumerate(e):
            if not k:
                continue
            if values[i] is None:
                raise UnknownVariable(
                    f"no substitution value for variable {value.variables[i]!r}"
                )
            v = values[i]
            v = v if isinstance(v, DiffRatFunc) else DiffRatFunc.from_poly(v)
            term = term * v ** k
        acc = acc + term
    poly = acc.as_polynomial()
    if poly is not None and all(isinstance(v, DiffPoly) for v in values if v is not None):
        return poly
    return acc


def outcome(call):
    try:
        return call()
    except (DenominatorVanishesIdentically, UnknownVariable) as exc:
        return type(exc), str(exc)


class TestSoleVariable:
    def test_the_used_variable(self):
        y1, y2 = yvars(Kt)
        assert sole_variable(DiffRatFunc(y2 + 1, y2 * y2 - 3)) == "y2"
        assert sole_variable(y1 * y1) == "y1"

    def test_a_constant_takes_the_first_ring_variable(self):
        y1, y2 = yvars(C)
        assert sole_variable(DiffRatFunc.from_poly(y2 - y2 + 5)) == "y1"
        none = DiffPoly.const(C, (), 2)
        assert sole_variable(none) is None
        assert sole_variable(DiffRatFunc.from_poly(none), default="w") == "w"

    def test_two_variables_are_an_arity_error(self):
        y1, y2 = yvars(C)
        with pytest.raises(ArityMismatch):
            sole_variable(DiffRatFunc(y1 - 2, y2))

    def test_used_variables_of_a_fraction(self):
        y1, y2, y3 = yvars(Kt, ("y1", "y2", "y3"))
        assert DiffRatFunc(y1 + 1, y3 * y3).used_variables() == {"y1", "y3"}
        assert DiffRatFunc.from_poly(y1 - y1 + Kt.gen()).used_variables() == set()

    def test_as_polynomial_is_the_numerator(self):
        y1, _ = yvars(Kt)
        t = Kt.gen()
        f = DiffRatFunc(t * y1 ** 2 + 1, DiffPoly.const(Kt, ("y1", "y2"), 2 * t))
        assert f.as_polynomial() is f.num
        assert f.as_polynomial() == (t * y1 ** 2 + 1) * (1 / (2 * t))
        assert DiffRatFunc(y1, y1 + 1).as_polynomial() is None


class TestSubstitutionEngine:
    """``substitute`` through ``cleared_pair`` against the per-term reference."""

    def bases(self, sqrt2):
        return (C, BaseDiffField.constants(sqrt2), Kt)

    def rand_value(self, rng, base, names, rational):
        num = rand_poly(rng, base, names)
        if not rational:
            return num
        return DiffRatFunc(num, rand_nonzero_poly(rng, base, names, max_deg=1))

    def check(self, got, want, univariate_target):
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, DiffPoly) or univariate_target:
            # reduced forms are canonical here, so the printed text agrees
            assert str(got) == str(want)

    def run_cases(self, rng, base, count):
        for _ in range(count):
            source = rng.choice((("y",), ("y1", "y2")))
            target = rng.choice((("w",), ("w1", "w2")))
            f = self.rand_value(rng, base, source, rng.random() < 0.5)
            rational_values = rng.random() < 0.5
            mapping = {
                v: self.rand_value(rng, base, target, rational_values and rng.random() < 0.7)
                for v in source
            }
            got = outcome(lambda: f.substitute(mapping))
            want = outcome(lambda: ref_substitute(f, mapping))
            if isinstance(want, tuple):
                assert got == want
            else:
                self.check(got, want, len(target) == 1)

    def test_over_q(self):
        self.run_cases(random.Random(501), C, 120)

    def test_over_qsqrt2(self, sqrt2):
        self.run_cases(random.Random(502), BaseDiffField.constants(sqrt2), 60)

    def test_over_kt(self):
        self.run_cases(random.Random(503), Kt, 40)

    def test_return_types(self):
        y = DiffPoly.var(C, ("y",), "y")
        w = DiffPoly.var(C, ("w",), "w")
        inv_w = DiffRatFunc(DiffPoly.const(C, ("w",), 1), w)
        assert isinstance(y.substitute({"y": w}), DiffPoly)
        # a fraction value gives a fraction even when the result is polynomial
        out = (y - y).substitute({"y": inv_w})
        assert isinstance(out, DiffRatFunc) and out.is_zero()
        out = DiffRatFunc.from_poly(y ** 2).substitute({"y": w})
        assert isinstance(out, DiffRatFunc) and out == w ** 2

    def test_unknown_variable_messages(self):
        names = ("y1", "y2")
        y1, y2 = yvars(C, names)
        w = DiffPoly.var(C, ("w",), "w")
        for value in (y1 * y2, DiffRatFunc(y1, y2 + 1)):
            with pytest.raises(UnknownVariable, match="^substitution mapping is empty$"):
                value.substitute({})
            with pytest.raises(UnknownVariable, match="^substitution mapping is empty$"):
                value.substitute({"w": w, "y1": None})
            with pytest.raises(
                UnknownVariable, match="^no substitution value for variable 'y2'$"
            ):
                value.substitute({"y1": w})
        # a variable that does not occur needs no value
        assert (y1 + 1).substitute({"y1": w}) == w + 1


class TestFractionOperators:
    def test_reflected_division_by_a_foreign_value_is_a_type_error(self):
        y = DiffPoly.var(C, ("y",), "y")
        for f in (DiffRatFunc.from_poly(y), RatFunc.x()):
            with pytest.raises(TypeError):
                1j / f
            with pytest.raises(TypeError):
                1j - f

    def test_reflected_operators_on_numbers(self):
        y = DiffPoly.var(C, ("y",), "y")
        f = DiffRatFunc(y, y + 1)
        assert 1 / f == DiffRatFunc(y + 1, y)
        assert 2 - f == DiffRatFunc(y + 2, y + 1)
        assert f ** -2 == DiffRatFunc((y + 1) ** 2, y ** 2)
        t = RatFunc.x()
        assert 1 / t == t.inverse()
        assert 3 - t == RatFunc.const(3) - t

    def test_subtraction_matches_adding_the_negation(self):
        rng = random.Random(611)
        for base in (C, Kt):
            def frac():
                return DiffRatFunc(*(rand_nonzero_poly(rng, base, ("y",)) for _ in range(2)))

            for _ in range(20):
                a, b = frac(), frac()
                d = a - b
                assert d == a + (-b)
                assert (d.num.terms, d.den.terms) == ((a + (-b)).num.terms, (a + (-b)).den.terms)


class TestHashAgreesWithEquality:
    def test_constant_fractions_and_polynomials_hash_as_their_value(self):
        assert RatFunc.const(3) == 3 and hash(RatFunc.const(3)) == hash(3)
        c = DiffPoly.const(C, ("y",), 3)
        assert c == 3 and hash(c) == hash(3)
        ct = DiffPoly.const(Kt, ("y1", "y2"), Fraction(1, 2))
        assert ct == Fraction(1, 2) and hash(ct) == hash(Fraction(1, 2))
        u3 = DiffIndeterminateExpr.const(Kt, 3)
        assert u3 == 3 and hash(u3) == hash(3)

    def test_fraction_over_one_hashes_as_its_numerator(self):
        y = DiffPoly.var(C, ("y",), "y")
        assert DiffRatFunc.from_poly(y) == y
        assert hash(DiffRatFunc.from_poly(y)) == hash(y)
        assert len({DiffRatFunc.from_poly(y), y}) == 1
        t = RatFunc.x()
        assert hash(t) == hash(t.num)

    def test_multivariate_fractions_equal_by_cross_multiplication(self):
        y1, y2 = yvars(C)
        a = DiffRatFunc(y1, y2)
        b = DiffRatFunc(y1 * (y1 + y2), y2 * (y1 + y2))
        assert b.num.terms != a.num.terms  # only monomial content is cancelled
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_multivariate_fractions_hash_like_what_they_equal(self):
        y1, y2 = yvars(C)
        a = DiffRatFunc(y1 * y2 + y1, y2 + 1)
        assert a.den.terms != {(0, 0): C.one()}  # the factor y2 + 1 stays
        assert a == y1 and hash(a) == hash(y1)
        assert len({a, y1}) == 1
        b = DiffRatFunc(3 * y1 + 3 * y2, y1 + y2)
        assert b == 3 and hash(b) == hash(3)
        assert len({b, 3}) == 1
        u1, u2 = yvars(Kt)
        t = Kt.gen()
        c = DiffRatFunc(t * u1 + t * u2, u1 + u2)
        assert c == t and hash(c) == hash(t)

    def test_rational_functions_over_q_hash_like_their_lift(self, sqrt2):
        Q_t = RatFunc(pk.UniPoly.x() + 1, pk.UniPoly.x() ** 2 - 3)
        lifted = RatFunc(pk.UniPoly(sqrt2, Q_t.num.coeffs), pk.UniPoly(sqrt2, Q_t.den.coeffs))
        assert Q_t == lifted and hash(Q_t) == hash(lifted)


def ref_qtheta_reduce(num, den):
    """Test-only copy of the dense-Euclid branch that reduced univariate
    fractions over Q(theta) before ``poly_gcd`` on ``UniPoly`` did, and over
    K(t) before the subresultant kernel in K[t][y] did."""
    base, variables = num.base, num.variables
    (name,) = num.used_variables() | den.used_variables()
    a, b = univar_dense(num, name), univar_dense(den, name)
    g = ref_dense_gcd(a, b)
    if len(g) > 1:
        one = base.one()
        num = dense_to_diffpoly(base, variables, name, ref_dense_divmod(a, g, one)[0])
        den = dense_to_diffpoly(base, variables, name, ref_dense_divmod(b, g, one)[0])
    inv = den.leading_coefficient().inverse()
    return num * inv, den * inv


class TestFractionNormalForm:
    @pytest.fixture
    def rings(self, sqrt2, cbrt2):
        one = ("y",)
        return [
            (C, one), (BaseDiffField.constants(sqrt2), one), (BaseDiffField.constants(cbrt2), one),
            (Kt, one), (BaseDiffField.rational_functions(sqrt2), one), (C, ("y1", "y2")),
        ]

    def test_powers_and_polynomials_are_built_reduced(self, rings):
        rng = random.Random(1212)
        for base, names in rings:
            one = DiffPoly.const(base, names, 1)
            for _ in range(12):
                f = DiffRatFunc(*(rand_nonzero_poly(rng, base, names, 2) for _ in range(2)))
                for n in range(4):
                    g, ref = f ** n, DiffRatFunc(f.num ** n, f.den ** n)
                    assert (g.num.terms, g.den.terms) == (ref.num.terms, ref.den.terms), (base, f, n)
                p = rand_poly(rng, base, names)
                g, ref = DiffRatFunc.from_poly(p), DiffRatFunc(p, one)
                assert (g.num.terms, g.den.terms) == (ref.num.terms, ref.den.terms), (base, p)

    def test_univariate_reduction_over_a_number_field_matches_dense_euclid(self, sqrt2, cbrt2):
        rng = random.Random(1313)
        for base in (
            BaseDiffField.constants(sqrt2), BaseDiffField.constants(cbrt2),
            Kt, BaseDiffField.rational_functions(sqrt2),
        ):
            checked = 0
            while checked < 40:
                a, b, g = (rand_nonzero_poly(rng, base, ("y",)) for _ in range(3))
                if base.var is not None:
                    # t-denominators, which the K[t][y] gcd clears first
                    t = base.gen()
                    a = a * (t + rng.randint(1, 3)).inverse()
                    g = g * (t * t - rng.randint(1, 3)).inverse()
                num, den = a * g, b * g
                if num.is_constant() or den.is_constant():
                    continue
                red = _reduce_fraction(num, den)
                ref = ref_qtheta_reduce(num, den)
                assert (red[0].terms, red[1].terms) == (ref[0].terms, ref[1].terms), (num, den)
                checked += 1

    def test_an_inexact_divisor_over_k_t_is_a_broken_invariant(self, monkeypatch):
        # a kernel that returns y + 1, which divides neither side, must stop
        # the reduction with InternalInvariant, and the command with exit 2
        from pfaffkit import cli, diffalg

        def wrong_gcd(a, b, quo):
            one = pk.UniPoly.const(1)
            return [one, one]

        monkeypatch.setattr(diffalg, "subresultant_gcd", wrong_gcd)
        y = DiffPoly.var(Kt, ("y",), "y")
        t = Kt.gen()
        with pytest.raises(pk.InternalInvariant):
            DiffRatFunc(y * t - 1, y * y - t)
        doc, code = cli.run(["classify-ode", "y' = (y*t - 1)/(y^2 - t)"])
        assert code == 2
        assert doc["error"]["kind"] == "internal"
        assert doc["error"]["message"].startswith("InternalInvariant: ")

    @pytest.mark.parametrize("defining", ["r^2-2", "r^3-2"])
    @pytest.mark.parametrize("rhs", [
        "(((((y*t-r)+y)/((y-1)*y))+((r+0)*((y-1)*1))))^3",
        "(((y*t-r)+y)/((y-1)*y) + r*(y-1))^3",
    ])
    def test_power_of_a_fraction_over_a_number_field_and_t_parses(self, rhs, defining):
        # the power of a reduced fraction is reduced; reducing it again ran
        # the K(t) gcd over Q(r), which did not finish
        code = (
            "import sys\n"
            "from pfaffkit.parser import parse_ode_text\n"
            "print(parse_ode_text(sys.argv[1]).f)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, f"y' = {rhs} over Q(r: {defining})"],
            capture_output=True, text=True, check=False, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "y^9" in proc.stdout


# Test-only copies of the term loops of DiffPoly's +, -, * and unary -
# before operands of one ring skipped coercion and the results skipped a
# second pass through ``__init__``.
def ref_poly_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        cur = out.get(e)
        out[e] = c if cur is None else cur + c
    return DiffPoly(a.base, a.variables, out)


def ref_poly_neg(a):
    return DiffPoly(a.base, a.variables, {e: -c for e, c in a.terms.items()})


def ref_poly_sub(a, b):
    return ref_poly_add(a, ref_poly_neg(b))


def ref_poly_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
    return DiffPoly(a.base, a.variables, out)


ARITHMETIC_BASES = {
    "Q": C,
    "Q(sqrt2)": BaseDiffField.constants(pk.nf_new([-2, 0, 1])),
    "Q(cbrt2)": BaseDiffField.constants(pk.nf_new([-2, 0, 0, 1])),
    "Q(t)": Kt,
}


def stored_terms(p):
    """The terms as stored, in order, after checking that none is zero."""
    assert all(isinstance(e, tuple) and not c.is_zero() for e, c in p.terms.items())
    return list(p.terms.items())


class TestSameRingArithmetic:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(sorted(ARITHMETIC_BASES)),
        st.sampled_from([("y",), ("y1", "y2")]),
        st.integers(0, 2 ** 32),
    )
    def test_operators_match_the_reference_term_loops(self, name, names, seed):
        base = ARITHMETIC_BASES[name]
        rng = random.Random(seed)
        a = rand_poly(rng, base, names)
        b = rand_poly(rng, base, names)
        # shared terms make sums and products cancel, and a zero operand
        # takes the empty loops
        for b in (b, a, -a + b, a * b - b, DiffPoly.zero(base, names)):
            for new, ref in (
                (a + b, ref_poly_add(a, b)),
                (a - b, ref_poly_sub(a, b)),
                (a * b, ref_poly_mul(a, b)),
                (-b, ref_poly_neg(b)),
            ):
                assert stored_terms(new) == stored_terms(ref), (a, b)
                assert new.base is base and new.variables == names
        assert (a - a).is_zero() and (a + (-a)).terms == {}

    def test_mixed_rings_still_raise(self, sqrt2):
        y = DiffPoly.var(C, ("y",), "y")
        for other in (
            DiffPoly.var(BaseDiffField.constants(sqrt2), ("y",), "y"),
            DiffPoly.var(Kt, ("y",), "y"),
            DiffPoly.var(C, ("y", "w"), "y"),
            DiffPoly.var(C, ("w",), "w"),
        ):
            for op in (
                lambda: y + other, lambda: y - other, lambda: y * other,
                lambda: other + y, lambda: other * y,
            ):
                with pytest.raises(FieldMismatch):
                    op()

    def test_an_equal_base_built_apart_is_the_same_ring(self):
        y = DiffPoly.var(BaseDiffField.constants(), ("y",), "y")
        z = DiffPoly.var(BaseDiffField.constants(), ("y",), "y")
        assert y.base is not z.base
        assert (y * z).terms == {(2,): C.one()}
        assert (y - z).is_zero() and y == z

    def test_numbers_and_scalars_on_either_side(self, sqrt2):
        base = BaseDiffField.constants(sqrt2)
        y = DiffPoly.var(base, ("y",), "y")
        r = sqrt2.gen()
        for c in (2, Fraction(1, 3), r):
            k = DiffPoly.const(base, ("y",), c)
            assert y + c == c + y == y + k
            assert y - c == y - k and c - y == k - y
            assert y * c == c * y == y * k
        assert (y * 0).terms == {} and (0 * y).terms == {}
        assert (y + 1 - 1) == y and stored_terms(y - y) == []
        t = Kt.gen()
        u = DiffPoly.var(Kt, ("y",), "y")
        assert u * t == t * u == DiffPoly(Kt, ("y",), {(1,): t})
        assert (u + t - t) == u and (t - u) + u == t
