import random
from fractions import Fraction

import pytest

import pfaffkit as pk
from pfaffkit.diffalg import (
    BaseDiffField,
    DiffIndeterminateExpr,
    DiffPoly,
    DiffRatFunc,
    RatFunc,
    riccati_reduce,
    substitute,
)
from pfaffkit.errors import (
    DenominatorVanishesIdentically,
    NotMonic,
    UnknownVariable,
)

from conftest import rand_diffpoly, rand_fraction, rand_nonzero_poly, rand_poly

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
        from pfaffkit.diffalg import substitute_cleared
        import pfaffkit as pk

        x = pk.UniPoly.x(None)
        one = pk.UniPoly.const(1, None)
        # f = 1/(2x) at h = 1/x, cleared by S^2, is the polynomial x^3/2
        out = substitute_cleared(one, 2 * x, one, x, d=2)
        assert out.is_polynomial()
        assert out.num == x ** 3 * Fraction(1, 2)
        # d = 0 recovers plain composition
        plain = substitute_cleared(one, 2 * x, one, x, d=0)
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
            top = red.coefficient_of_top()
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

    def test_rational_functions_over_q_hash_like_their_lift(self, sqrt2):
        Q_t = RatFunc(pk.UniPoly.x() + 1, pk.UniPoly.x() ** 2 - 3)
        lifted = RatFunc(pk.UniPoly(sqrt2, Q_t.num.coeffs), pk.UniPoly(sqrt2, Q_t.den.coeffs))
        assert Q_t == lifted and hash(Q_t) == hash(lifted)
