import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfaffkit as pk
from pfaffkit.errors import (
    DivisionByZero,
    DivisionByZeroPolynomial,
    FieldMismatch,
    NotMonic,
    ReduciblePolynomial,
)
from pfaffkit.diffalg import RatFunc
from pfaffkit.exactfield import (
    AlgebraicScalar,
    UniPoly,
    _integer_roots,
    _rational_roots,
    dense_exact_quotient,
    extract_linear_roots,
    homogenized_pair,
    scalar_sqrt,
    subresultant_gcd,
)

from conftest import rand_fraction, rand_scalar, rand_unipoly


class TestNumberFieldConstruction:
    def test_quadratic_extension_verified(self):
        f = pk.nf_new([-2, 0, 1])
        assert f.degree == 2
        assert f.irreducibility_status == "verified"

    def test_rational_roots_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            pk.nf_new([-1, 0, 1])  # roots +-1

    def test_cubic_verified_by_exhausting_candidates(self):
        # candidates for x^3 - 2 are +-1, +-2; none is a root
        f = pk.nf_new([-2, 0, 0, 1])
        assert f.degree == 3
        assert f.irreducibility_status == "verified"

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            pk.nf_new([-2, 0, 2])

    def test_not_squarefree(self):
        # (x-1)^2 = x^2 - 2x + 1
        with pytest.raises(ReduciblePolynomial):
            pk.nf_new([1, -2, 1])

    def test_degree_four_is_asserted(self):
        f = pk.nf_new([2, 0, 0, 0, 1])
        assert f.irreducibility_status == "asserted"

    def test_degree_one_always_has_a_rational_root(self):
        with pytest.raises(ReduciblePolynomial):
            pk.nf_new([-5, 1])


class TestScalarArithmetic:
    def test_difference_of_squares(self, sqrt2):
        th = sqrt2.gen()
        assert (1 + th) * (1 - th) == pk.AlgebraicScalar.rational(-1).lift(sqrt2)

    def test_inverse_of_generator(self, sqrt2):
        th = sqrt2.gen()
        assert sqrt2.one() / th == th / 2

    def test_additive_inverse(self, sqrt2):
        th = sqrt2.gen()
        v = 2 + th
        assert (v - v).is_zero()

    def test_division_by_zero(self, sqrt2):
        with pytest.raises(DivisionByZero):
            sqrt2.one() / sqrt2.zero()

    def test_field_mismatch(self, sqrt2, cbrt2):
        with pytest.raises(FieldMismatch):
            sqrt2.gen() + cbrt2.gen()

    def test_field_axioms_random(self, sqrt2, cbrt2):
        for field in (None, sqrt2, cbrt2):
            rng = random.Random(20_240 + (field.degree if field else 0))
            one = pk.AlgebraicScalar.rational(1)
            if field:
                one = one.lift(field)
            for _ in range(10_000):
                a = rand_scalar(rng, field, span=4)
                b = rand_scalar(rng, field, span=4)
                c = rand_scalar(rng, field, span=4)
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                if not a.is_zero():
                    assert a * a.inverse() == one


class TestRationalityQueries:
    def test_generator_is_irrational(self, sqrt2):
        assert sqrt2.gen().is_rational() is None

    def test_generator_square(self, sqrt2):
        th = sqrt2.gen()
        assert (th * th).is_rational() == 2

    def test_norm_style_product(self, sqrt2):
        th = sqrt2.gen()
        assert ((2 + th) * (2 - th)).is_rational() == 2

    def test_rational_multiple_trivial(self, sqrt2):
        th = sqrt2.gen()
        assert pk.rational_multiple(2 * th, th) == 2

    def test_rational_multiple_conjugates(self, sqrt2):
        th = sqrt2.gen()
        # (1+th)/(1-th) = -3-2th, irrational
        assert pk.rational_multiple(1 + th, 1 - th) is None
        assert ((1 + th) / (1 - th)) == -3 - 2 * th

    def test_rational_multiple_quotient_pair(self, sqrt2):
        # the pair a(a-1), b(b-1) for a=2, b=1+sqrt(2): ratio 2-theta
        th = sqrt2.gen()
        assert pk.rational_multiple(sqrt2.scalar(2), 2 + th) is None
        assert (sqrt2.scalar(2) / (2 + th)) == 2 - th

    def test_rational_multiple_zero_divisor(self, sqrt2):
        with pytest.raises(DivisionByZero):
            pk.rational_multiple(sqrt2.one(), sqrt2.zero())

    def test_is_rational_agrees_with_multiple_of_one(self, sqrt2):
        rng = random.Random(7)
        one = pk.AlgebraicScalar.rational(1).lift(sqrt2)
        for _ in range(500):
            a = rand_scalar(rng, sqrt2)
            assert a.is_rational() == pk.rational_multiple(a, one)

    def test_rational_multiple_reconstructs(self, sqrt2):
        rng = random.Random(8)
        for _ in range(500):
            b = rand_scalar(rng, sqrt2, nonzero=True)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            a = q * b
            got = pk.rational_multiple(a, b)
            assert got == q
            assert (got * b - a).is_zero()


class TestGcdDerivativeDivision:
    def test_gcd_example(self):
        x = UniPoly.x(None)
        assert pk.poly_gcd(x ** 2 - 1, x - 1) == x - 1

    def test_derivative_example(self):
        x = UniPoly.x(None)
        assert (x ** 3).derivative() == 3 * x ** 2

    def test_exact_division_with_fraction_coefficients(self):
        x = UniPoly.x(None)
        quo, rem = divmod(x ** 3 * Fraction(1, 2), x)
        assert rem.is_zero()
        assert quo == x ** 2 * Fraction(1, 2)

    def test_gcd_of_zeros_rejected(self):
        z = UniPoly.zero(None)
        with pytest.raises(DivisionByZeroPolynomial):
            pk.poly_gcd(z, z)

    def test_gcd_divides_both_and_is_greatest(self, sqrt2):
        rng = random.Random(42)
        from conftest import rand_unipoly

        for _ in range(300):
            field = sqrt2 if rng.random() < 0.5 else None
            common = rand_unipoly(rng, field, max_deg=2)
            p = rand_unipoly(rng, field, max_deg=2) * common
            q = rand_unipoly(rng, field, max_deg=2) * common
            if p.is_zero() and q.is_zero():
                continue
            g = pk.poly_gcd(p, q)
            assert (p % g).is_zero()
            assert (q % g).is_zero()
            if not common.is_zero():
                assert (g % common.monic()).is_zero()


def reference_divmod(a, b):
    """Term-by-term division: one polynomial product and difference per term."""
    quo = UniPoly.zero(a.field)
    rem = a
    inv_lead = b.leading().inverse()
    x = UniPoly.x(a.field)
    while not rem.is_zero() and rem.degree >= b.degree:
        k = rem.degree - b.degree
        t = UniPoly.const(rem.leading() * inv_lead, a.field) * x ** k
        quo = quo + t
        rem = rem - t * b
    return quo, rem


class TestLongDivision:
    @pytest.mark.parametrize("use_field", [False, True])
    def test_matches_term_by_term_reference(self, sqrt2, use_field):
        field = sqrt2 if use_field else None
        rng = random.Random(97)
        x = UniPoly.x(field)
        pairs = [
            (x ** 3 - 2 * x + 5, UniPoly.const(Fraction(3, 7), field)),  # constant divisor
            (x + 1, x ** 4 - x),  # divisor of higher degree
            (UniPoly.zero(field), x - 1),
        ]
        while len(pairs) < 300:
            b = rand_unipoly(rng, field, max_deg=4)
            if not b.is_zero():
                pairs.append((rand_unipoly(rng, field, max_deg=8), b))
        for a, b in pairs:
            q, r = divmod(a, b)
            assert (q, r) == reference_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert a // b == q and a % b == r


# Test-only copies of the loops that the integer division and
# subresultant_gcd replaced: the long division on lists of scalars, the
# Fraction-list division, gcd and reduction of scalars, and the Euclidean
# gcd and exact division of univariate differential rational functions.

def ref_dense_divmod(a, b, inv_lead):
    """Schoolbook long division of coefficient list ``a`` by ``b``, given
    ``inv_lead``, the inverse of ``b[-1]``; the quotient and the remainder
    untrimmed, ``len(a) - len(b) + 1`` and ``len(b) - 1`` entries long."""
    m = len(b) - 1
    n = len(a) - 1 - m
    if n < 0:
        return [], list(a)
    # rem[k + m] is the leading coefficient left when quotient term k is taken
    rem = list(a)
    quo = [None] * (n + 1)
    for k in range(n, -1, -1):
        f = quo[k] = rem[k + m] * inv_lead
        for i in range(m):
            rem[k + i] = rem[k + i] - f * b[i]
    return quo, rem[:m]


def ref_qdivmod(a, b):
    """Fraction-list long division that trims the remainder after each step."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] * inv_lead
        quo[k] = f
        for i, c in enumerate(b):
            rem[i + k] -= f * c
        while rem and not rem[-1]:
            rem.pop()
    return trimmed(quo), rem


def ref_qgcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = ref_qdivmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def ref_reduce_mod(cs, minpoly):
    cs = list(cs)
    deg = len(minpoly) - 1
    while len(cs) > deg:
        lead = cs.pop()
        if not lead:
            continue
        k = len(cs) - deg
        for i in range(deg):
            cs[i + k] -= lead * minpoly[i]
    return cs


def ref_dmod(x, y):
    """Remainder of the differential-rational-function gcd loop."""
    x = list(x)
    inv = y[-1].inverse()
    while len(x) >= len(y) and x:
        k = len(x) - len(y)
        f = x[-1] * inv
        for i, c in enumerate(y):
            x[i + k] = x[i + k] - f * c
        while x and x[-1].is_zero():
            x.pop()
    return x


def ref_dense_gcd(a, b):
    a, b = trimmed(a), trimmed(b)
    while b:
        a, b = b, ref_dmod(a, b)
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def ref_exact_div(a, b):
    """Quotient of an exact division, as the differential-rational-function loop took it."""
    out = [a[0] - a[0] for _ in range(len(a) - len(b) + 1)]
    a = list(a)
    inv = b[-1].inverse()
    while a and len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] * inv
        out[k] = f
        for i, c in enumerate(b):
            a[i + k] = a[i + k] - f * c
        while a and a[-1].is_zero():
            a.pop()
    return out


def is_zero(c):
    return not c if isinstance(c, Fraction) else c.is_zero()


def trimmed(cs):
    cs = list(cs)
    while cs and is_zero(cs[-1]):
        cs.pop()
    return cs


def list_mul(a, b):
    if not a or not b:
        return []
    out = [b[0] - b[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trimmed(out)


def list_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return trimmed([x + b[i] if i < len(b) else x for i, x in enumerate(a)])


def rand_ratfunc(rng):
    num = UniPoly(None, [rand_fraction(rng, 4) for _ in range(2)])
    den = UniPoly(None, [rand_fraction(rng, 4, nonzero=True), rand_fraction(rng, 4)])
    return RatFunc(num, den)


def rand_coeffs(rng, make, max_deg, nonzero=False):
    while True:
        cs = trimmed([make(rng) for _ in range(rng.randint(0, max_deg) + 1)])
        if cs or not nonzero:
            return cs


def monic_gcd(a, b):
    """The kernel's gcd over a field, divided by its leading coefficient."""
    g = subresultant_gcd(a, b, lambda x, y: x / y)
    if g:
        inv = g[-1].inverse()
        g = [c * inv for c in g]
    return g


class TestDenseKernel:
    """UniPoly division and subresultant_gcd against the loops they replaced."""

    def check_division(self, field, a, b):
        q, r = (trimmed(x) for x in ref_dense_divmod(a, b, 1 / b[-1]))
        assert list_add(list_mul(q, b), r) == trimmed(a)
        assert len(r) < len(b)
        assert divmod(UniPoly(field, a), UniPoly(field, b)) == (UniPoly(field, q), UniPoly(field, r))
        return q, r

    def check_gcd(self, a, b, common):
        g = monic_gcd(a, b)
        assert g == ref_dense_gcd(a, b)
        assert monic_gcd(a + [common[0] - common[0]], b) == g  # zero leading entry
        if g:
            assert g[-1] == 1
            assert not trimmed(ref_dense_divmod(a, g, g[-1])[1])
            assert not trimmed(ref_dense_divmod(b, g, g[-1])[1])
            # the common factor divides the gcd
            assert not trimmed(ref_dense_divmod(g, common, common[-1].inverse())[1])
        return g

    def pairs(self, rng, make, count, max_deg):
        out = []
        while len(out) < count:
            common = rand_coeffs(rng, make, 2, nonzero=True)
            a = list_mul(rand_coeffs(rng, make, max_deg), common)
            b = list_mul(rand_coeffs(rng, make, max_deg, nonzero=True), common)
            out.append((a, b, common))
        return out

    def test_over_q_against_fraction_loops(self):
        rng = random.Random(311)
        q = pk.AlgebraicScalar.rational
        for a, b, common in self.pairs(rng, lambda r: rand_fraction(r, 5), 200, 4):
            quo, rem = self.check_division(None, a, b)
            assert (quo, rem) == ref_qdivmod(a, b)
            g = self.check_gcd([q(c) for c in a], [q(c) for c in b], [q(c) for c in common])
            assert [c.coords[0] for c in g] == ref_qgcd(a, b)

    def test_over_qsqrt2_against_reference_loops(self, sqrt2):
        rng = random.Random(312)
        pairs = self.pairs(rng, lambda r: rand_scalar(r, sqrt2, 4), 120, 3)
        for a, b, common in pairs:
            quo, rem = self.check_division(sqrt2, a, b)
            assert rem == ref_dmod(a, b)
            assert (UniPoly(sqrt2, quo), UniPoly(sqrt2, rem)) == reference_divmod(
                UniPoly(sqrt2, a), UniPoly(sqrt2, b))
            assert quo == trimmed(ref_exact_div(list_mul(quo, b), b))
            self.check_gcd(a, b, common)

    def test_over_kt_against_reference_loops(self):
        rng = random.Random(313)
        for a, b, common in self.pairs(rng, rand_ratfunc, 15, 2):
            self.check_gcd(a, b, common)

    def test_scalar_reduction_against_fraction_loop(self, sqrt2, cbrt2):
        rng = random.Random(314)
        for field in (sqrt2, cbrt2):
            for _ in range(200):
                cs = [rand_fraction(rng, 9) for _ in range(rng.randint(0, 2 * field.degree))]
                got = field.scalar(*cs)
                check_canonical(got, field)
                assert got.coords == tuple(padded(field, ref_reduce_mod(cs, field.minpoly)))


# Test-only copies of the Fraction-coordinate scalar arithmetic that the
# integer representation replaced: schoolbook product and reduction for
# ``*``, coordinatewise ``+`` and an extended Euclid for ``inverse``.

def ref_qxgcd(a, b):
    """Extended Euclid in Q[x]: (g, u) with u*a = g modulo b."""
    r0, r1 = trimmed(a), trimmed(b)
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = ref_qdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, list_add(u0, [-c for c in list_mul(q, u1)])
    return r0, u0


def padded(field, cs):
    return list(cs) + [Fraction(0)] * ((field.degree if field else 1) - len(cs))


def ref_mul(field, a, b):
    if field is None:
        return [a[0] * b[0]]
    return padded(field, ref_reduce_mod(list_mul(list(a), list(b)), field.minpoly))


def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_inverse(field, a):
    if field is None:
        return [1 / a[0]]
    g, u = ref_qxgcd(a, field.minpoly)
    if len(g) != 1:
        raise ReduciblePolynomial("zero divisor")
    return padded(field, ref_reduce_mod([c / g[0] for c in u], field.minpoly))


def check_canonical(s, field):
    assert s.field is field
    assert len(s.nums) == (field.degree if field else 1)
    assert all(type(n) is int for n in s.nums) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    if not any(s.nums):
        assert s.den == 1


INTEGER_FIELDS = {
    "Q": None,
    "Q(sqrt2)": pk.nf_new([-2, 0, 1]),
    "Q(cbrt2)": pk.nf_new([-2, 0, 0, 1]),
    # x^2 - x/2 - 1/3: the integer form 6x^2 - 3x - 2 has leading coefficient 6
    "Q(denominators)": pk.nf_new([Fraction(-1, 3), Fraction(-1, 2), 1]),
    # x^3 + x^2/3 - 1/2: reduction by 6x^3 + 2x^2 - 3 multiplies by 6 at each step
    "Q(cubic denominators)": pk.nf_new([Fraction(-1, 2), 0, Fraction(1, 3), 1]),
    "Q(x^4+2)": pk.nf_new([2, 0, 0, 0, 1]),
    "Q(sqrt3)": pk.nf_new([-3, 0, 1]),
    "Q(i)": pk.nf_new([1, 0, 1]),
}


class TestIntegerScalar:
    """The integer-vector scalars against the Fraction-coordinate reference."""

    @pytest.mark.parametrize("name", list(INTEGER_FIELDS))
    def test_matches_fraction_reference(self, name):
        field = INTEGER_FIELDS[name]
        rng = random.Random(f"integer-scalar/{name}")
        for i in range(400):
            span = 6 if i % 2 else 10 ** 9
            a = rand_scalar(rng, field, span)
            b = rand_scalar(rng, field, span)
            ac, bc = list(a.coords), list(b.coords)
            assert a.coords == tuple(padded(field, ac))
            for got, want in (
                (a * b, ref_mul(field, ac, bc)),
                (a + b, ref_add(ac, bc)),
                (a - b, ref_add(ac, [-c for c in bc])),
                (-a, [-c for c in ac]),
            ):
                check_canonical(got, field)
                assert got.coords == tuple(want)
            if not a.is_zero():
                inv = a.inverse()
                check_canonical(inv, field)
                assert inv.coords == tuple(ref_inverse(field, ac))

    @pytest.mark.parametrize("name", list(INTEGER_FIELDS))
    def test_zero_and_constructors_are_canonical(self, name):
        field = INTEGER_FIELDS[name]
        one = AlgebraicScalar.rational(1)
        if field is not None:
            one = one.lift(field)
            check_canonical(field.zero(), field)
            check_canonical(field.gen(), field)
            check_canonical(field.scalar(Fraction(4, 6), Fraction(-3, 9)), field)
            assert field.zero().nums == (0,) * field.degree and field.zero().den == 1
        check_canonical(one - one, field)
        assert (one - one).den == 1
        half = one * Fraction(1, 2)
        check_canonical(half + half - one, field)
        assert (half + half - one).den == 1

    def test_hash_of_rationals_is_the_fraction_hash(self, sqrt2):
        for q in (0, 1, -3, Fraction(7, 12), Fraction(-10 ** 30, 7)):
            s = AlgebraicScalar.rational(q)
            assert hash(s) == hash(Fraction(q))
            assert hash(s.lift(sqrt2)) == hash(Fraction(q))
        table = {AlgebraicScalar.rational(Fraction(3, 4)): "found", sqrt2.gen(): "theta"}
        assert table[Fraction(3, 4)] == "found"
        assert table[sqrt2.scalar(0, 1)] == "theta"

    def test_zero_divisor_of_reducible_asserted_quartic(self):
        # x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3) is squarefree, so it is accepted
        field = pk.nf_new([6, 0, -5, 0, 1])
        assert field.irreducibility_status == "asserted"
        th = field.gen()
        with pytest.raises(ReduciblePolynomial, match="zero divisor"):
            (th * th - 2).inverse()

    @pytest.mark.parametrize("root, minpoly", [("sqrt", [-2, 0, 1]), ("cbrt", [-2, 0, 0, 1])])
    def test_mul_and_inverse_match_sympy(self, root, minpoly):
        sympy = pytest.importorskip("sympy")
        gen = getattr(sympy, root)(2)
        domain = sympy.QQ.algebraic_field(gen)
        field = pk.nf_new(minpoly)

        # gen itself generates the domain, so coordinates are in powers of gen
        assert domain.mod.to_list() == [sympy.QQ(c) for c in reversed(minpoly)]

        def to_domain(s):
            return domain([sympy.QQ(c.numerator, c.denominator) for c in reversed(s.coords)])

        rng = random.Random(f"sympy-scalar/{root}")
        for _ in range(40):
            a = rand_scalar(rng, field, 10 ** 4, nonzero=True)
            b = rand_scalar(rng, field, 10 ** 4)
            assert to_domain(a * b) == to_domain(a) * to_domain(b)
            assert to_domain(a.inverse()) == domain.one / to_domain(a)


class TestSympyOracle:
    @pytest.mark.parametrize("use_field", [False, True])
    def test_gcd_and_divmod_match_sympy(self, sqrt2, use_field):
        sympy = pytest.importorskip("sympy")
        field = sqrt2 if use_field else None
        domain = sympy.QQ.algebraic_field(sympy.sqrt(2)) if use_field else sympy.QQ
        x = sympy.Symbol("x")

        def to_sympy(p):
            expr = sympy.Integer(0)
            for i, c in enumerate(p.coeffs):
                value = sum(
                    sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(2) ** j
                    for j, q in enumerate(c.coords)
                )
                expr += value * x ** i
            return sympy.Poly(expr, x, domain=domain)

        rng = random.Random(315)
        for _ in range(25):
            common = rand_unipoly(rng, field, max_deg=2)
            p = rand_unipoly(rng, field, max_deg=3) * common
            q = rand_unipoly(rng, field, max_deg=3) * common
            if q.is_zero():
                continue
            sp, sq = to_sympy(p), to_sympy(q)
            quo, rem = divmod(p, q)
            s_quo, s_rem = sp.div(sq)
            assert (to_sympy(quo), to_sympy(rem)) == (s_quo, s_rem)
            assert to_sympy(pk.poly_gcd(p, q)) == sp.gcd(sq).monic()


class TestSqrtAndRoots:
    def test_rational_square(self):
        s = scalar_sqrt(pk.AlgebraicScalar.rational(Fraction(9, 4)))
        assert s == Fraction(3, 2)

    def test_rational_nonsquare(self):
        assert scalar_sqrt(pk.AlgebraicScalar.rational(2)) is None

    def test_quadratic_field_square(self, sqrt2):
        s = sqrt2.scalar(3, -2)  # (r-1)^2
        r = scalar_sqrt(s)
        assert r is not None and r * r == s

    def test_rational_value_inside_quadratic_field(self, sqrt2):
        two = sqrt2.scalar(2)
        r = scalar_sqrt(two)
        assert r is not None and r * r == two  # sqrt(2) = theta itself

    def test_random_squares_recovered(self, sqrt2):
        rng = random.Random(99)
        for _ in range(300):
            v = rand_scalar(rng, sqrt2, span=5)
            s = v * v
            r = scalar_sqrt(s)
            assert r is not None and r * r == s

    def test_extract_roots_rational_and_quadratic(self, sqrt2):
        th = sqrt2.gen()
        roots = [sqrt2.scalar(1), sqrt2.scalar(1), sqrt2.scalar(-3), th, 1 - th]
        p = UniPoly.from_roots(roots, sqrt2, leading=sqrt2.scalar(2))
        found, rem = extract_linear_roots(p)
        assert rem.is_constant() and rem.constant_value() == 2
        as_dict = {r: m for r, m in found}
        assert as_dict[sqrt2.scalar(1)] == 2
        assert as_dict[sqrt2.scalar(-3)] == 1
        assert as_dict[th] == 1
        assert as_dict[1 - th] == 1

    def test_quadratic_roots_match_candidate_search(self):
        rng = random.Random(316)
        for _ in range(300):
            if rng.random() < 0.5:  # (a x - b)(c x - d): rational roots
                a, c = rng.randint(1, 6), rng.randint(1, 6)
                b, d = rng.randint(-6, 6), rng.randint(-6, 6)
                cs = [b * d, -(a * d + b * c), a * c]
            else:
                cs = [rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 30)]
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            cs = [Fraction(c) * scale for c in cs]
            # a nonzero rational root p/q has p | the lowest nonzero integer
            # coefficient and q | the leading one
            ints = [int(c / scale) for c in cs]
            low = next((c for c in ints if c), 1)
            candidates = {Fraction(0)} | {
                Fraction(s * p, q)
                for p in range(1, abs(low) + 1) if low % p == 0
                for q in range(1, ints[2] + 1) if ints[2] % q == 0
                for s in (1, -1)
            }
            expected = sorted(
                r for r in candidates if cs[2] * r * r + cs[1] * r + cs[0] == 0
            )
            assert _rational_roots(cs) == expected, cs

    def test_extract_roots_leaves_irreducible_quadratic(self):
        x = UniPoly.x(None)
        p = (x ** 2 - 2) * (x - 1)
        found, rem = extract_linear_roots(p)
        assert dict(found) == {pk.AlgebraicScalar.rational(1): 1}
        assert rem.degree == 2


# primes above 10^6: trial division up to the smaller one is what hung
PRIMES = (1000003, 1000033, 10000000019, 10000000033)


class TestRationalRootsWithoutFactoring:
    def test_cubic_with_semiprime_constant_is_verified(self):
        field = pk.nf_new([-PRIMES[2] * PRIMES[3], 0, 0, 1])
        assert field.irreducibility_status == "verified"

    def test_repeated_and_zero_roots(self):
        x = UniPoly.x(None)
        p = x ** 2 * (3 * x - 1) ** 3 * (x + 2) * (x ** 2 + 1)
        assert _rational_roots([c.is_rational() for c in p.coeffs]) == [
            Fraction(-2), Fraction(0), Fraction(1, 3)]

    @pytest.mark.parametrize("r", [9, -9, 3 ** 40, -(2 ** 61) - 1])
    def test_root_at_the_cauchy_bound(self, r):
        # (x - r)(x^2 + 1): the root lies one below the bound 1 + |r|
        assert _rational_roots([Fraction(c) for c in (-r, 1, -r, 1)]) == [Fraction(r)]

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(317)
        for _ in range(60):
            roots = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    p, q = rng.sample(PRIMES, 2)
                    num, den = (p * q, 1) if rng.random() < 0.5 else (rng.randint(-9, 9), p * q)
                else:
                    num, den = rng.randint(-40, 40), rng.randint(1, 12)
                roots.append(sympy.Rational(num, den))
            p, q = rng.sample(PRIMES, 2)
            irreducible = rng.choice([x ** 2 + p * q, x ** 3 - p * q, 5 * x ** 2 - 2 * x + p * q])
            expr = irreducible * sympy.Rational(rng.randint(1, 9), rng.randint(1, 9))
            for r in roots:
                expr *= x - r
            poly = sympy.Poly(expr, x)
            assert 3 <= poly.degree() <= 6
            cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
            expected = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
            assert _rational_roots(cs) == expected, cs


# Test-only copies of the scalar-tuple UniPoly arithmetic that the integer
# coefficient vectors replaced: each works on ``coeffs`` with scalar ``+``,
# ``-``, ``*`` and ``inverse``, as the methods did.

def scalar_zero(field):
    z = AlgebraicScalar.rational(0)
    return z.lift(field) if field else z


def ref_poly_add(field, a, b, sign=1):
    z = scalar_zero(field)
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(x + y if sign > 0 else x - y)
    return trimmed(out)


def ref_poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [scalar_zero(field)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trimmed(out)


def ref_poly_divmod(a, b):
    quo, rem = ref_dense_divmod(a, b, b[-1].inverse())
    return trimmed(quo), trimmed(rem)


def ref_poly_derivative(a):
    return trimmed([i * c for i, c in enumerate(a)][1:])


def ref_poly_monic(a):
    if not a:
        return []
    inv = a[-1].inverse()
    return [c * inv for c in a]


def check_canonical_poly(p, field):
    d = field.degree if field else 1
    assert p.field is field
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert len(p.nums) % d == 0
    if p.nums:
        assert any(p.nums[-d:])
    else:
        assert p.den == 1


def rand_poly_of(rng, field, max_deg, span):
    """A random UniPoly built from scalars; about one in eight is zero."""
    if rng.random() < 0.125:
        return UniPoly(field, [])
    return UniPoly(field, [rand_scalar(rng, field, span) for _ in range(rng.randint(0, max_deg) + 1)])


UNIPOLY_FIELDS = ("Q", "Q(sqrt2)", "Q(cbrt2)", "Q(denominators)", "Q(cubic denominators)")


class TestIntegerUniPoly:
    """The integer-vector UniPoly against the scalar-tuple reference."""

    @pytest.mark.parametrize("name", UNIPOLY_FIELDS)
    def test_matches_scalar_reference(self, name):
        field = INTEGER_FIELDS[name]
        rng = random.Random(f"integer-unipoly/{name}")
        for i in range(150):
            span = 6 if i % 3 else 10 ** 9
            a = rand_poly_of(rng, field, 6, span)
            b = rand_poly_of(rng, field, 4, span)
            c = rand_scalar(rng, field, span)
            ac, bc = list(a.coeffs), list(b.coeffs)
            for got, want in (
                (a + b, ref_poly_add(field, ac, bc)),
                (a - b, ref_poly_add(field, ac, bc, -1)),
                (-a, [-x for x in ac]),
                (a * b, ref_poly_mul(field, ac, bc)),
                (a * c, ref_poly_mul(field, ac, [c] if not c.is_zero() else [])),
                (a.derivative(), ref_poly_derivative(ac)),
                (a.monic(), ref_poly_monic(ac)),
            ):
                check_canonical_poly(got, field)
                assert got.coeffs == tuple(want)
            if not b.is_zero():
                q, r = divmod(a, b)
                check_canonical_poly(q, field)
                check_canonical_poly(r, field)
                assert (list(q.coeffs), list(r.coeffs)) == ref_poly_divmod(ac, bc)
            common = rand_poly_of(rng, field, 2, 6)
            p1, p2 = a * common, b * common
            if not (p1.is_zero() and p2.is_zero()):
                g = pk.poly_gcd(p1, p2)
                check_canonical_poly(g, field)
                assert list(g.coeffs) == monic_gcd(p1.coeffs, p2.coeffs)
                assert list(g.coeffs) == ref_dense_gcd(p1.coeffs, p2.coeffs)

    @pytest.mark.parametrize("name", UNIPOLY_FIELDS)
    def test_built_from_scalars_equals_built_by_arithmetic(self, name):
        field = INTEGER_FIELDS[name]
        rng = random.Random(f"integer-unipoly-eq/{name}")
        x = UniPoly.x(field)
        for _ in range(60):
            cs = [rand_scalar(rng, field, 10 ** 6) for _ in range(rng.randint(1, 6))]
            built = UniPoly(field, cs)
            by_arithmetic = UniPoly.zero(field)
            for k, c in enumerate(cs):
                by_arithmetic = by_arithmetic + x ** k * c
            # rational coefficients given as Fractions are lifted like scalars
            mixed = UniPoly(field, [c.is_rational() if c.is_rational() is not None else c
                                    for c in cs])
            for other in (by_arithmetic, mixed, UniPoly(field, built.coeffs)):
                check_canonical_poly(other, field)
                assert other == built
                assert (other.nums, other.den) == (built.nums, built.den)
                assert other.coeffs == built.coeffs
                assert hash(other) == hash(built)

    def test_rational_poly_lifts_into_a_field(self, sqrt2):
        x = UniPoly.x(None)
        p = (x - Fraction(1, 3)) ** 2
        lifted = p * sqrt2.one()
        assert lifted.field is sqrt2
        assert lifted == p and lifted.coeffs == tuple(c.lift(sqrt2) for c in p.coeffs)
        with pytest.raises(FieldMismatch):
            UniPoly(None, [sqrt2.gen()])

    def test_gcd_matches_sympy_over_qq(self):
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        rng = random.Random(318)

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.nums[0], c.den) for c in reversed(p.coeffs)],
                              y, domain=sympy.QQ)

        for i in range(40):
            span = 10 ** 6 if i % 2 else 9
            common = rand_poly_of(rng, None, 5, span)
            p = rand_poly_of(rng, None, 12, span) * common
            q = rand_poly_of(rng, None, 12, span) * common
            if p.is_zero() and q.is_zero():
                continue
            g = pk.poly_gcd(p, q)
            expected = to_sympy(p).gcd(to_sympy(q)).monic()
            assert to_sympy(g) == expected


class TestPrimeWalk:
    """Rational-root finding lifts the roots from the first prime that keeps them apart."""

    # 30030 = 2*3*5*7*11*13, so the roots 0 and 30030 meet modulo every prime
    # up to 13 and the walk lifts from 17.  Modulo the composite 4 the three
    # roots stay apart, but g'(0) = -30030 is no unit mod 4, so lifting from
    # 4 would find no inverse.
    COLLIDING = (0, 30030, -1)

    def test_integer_roots_skip_colliding_primes_and_composites(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for shift in (0, 1, -7, 30030):
            expr = sympy.prod([x - (r + shift) for r in self.COLLIDING])
            g = [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
            assert sorted(_integer_roots(g)) == sorted(sympy.Poly(expr, x).ground_roots())

    def test_rational_roots_skip_colliding_primes_and_composites(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for shift, den, irreducible in [(1, 1, 1), (1, 1, x ** 2 + 1), (-7, 3, x ** 2 - 2), (5, 1, 1)]:
            expr = sympy.prod([den * x - (r + shift) for r in self.COLLIDING]) * irreducible
            poly = sympy.Poly(expr, x)
            cs = [Fraction(int(c)) for c in reversed(poly.all_coeffs())]
            expected = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
            assert len(expected) == 3
            assert _rational_roots(cs) == expected, cs


def ref_homogenized(poly, r, s):
    """sum c_i R^i S^(deg - i) over the coefficients of ``poly``, term by term."""
    n = poly.degree
    return sum((r ** i * s ** (n - i) * c for i, c in enumerate(poly.coeffs)),
               UniPoly.zero(poly.field))


def rand_nonzero_poly_of(rng, field, max_deg, span):
    while True:
        p = rand_poly_of(rng, field, max_deg, span)
        if not p.is_zero():
            return p


class TestHomogenizedPair:
    """f(R/S) S^d / W as the unreduced pair that the presentation rule divides."""

    @pytest.mark.parametrize("name", list(INTEGER_FIELDS))
    def test_matches_the_term_by_term_sums(self, name):
        field = INTEGER_FIELDS[name]
        rng = random.Random(f"homogenized/{name}")
        for _ in range(25):
            A, B, r, s, w = (rand_nonzero_poly_of(rng, field, 4, 5) for _ in range(5))
            d = rng.randint(0, 3)
            e = B.degree - A.degree + d
            x, y = homogenized_pair(A, B, r, s, w, d)
            assert x == ref_homogenized(A, r, s) * s ** max(e, 0)
            assert y == ref_homogenized(B, r, s) * w * s ** max(-e, 0)
            # at a rational point where every value is defined, x/y is
            # f(h) S^d / W
            t = AlgebraicScalar.rational(rand_fraction(rng, 7)).lift(field)
            if s.eval(t).is_zero() or w.eval(t).is_zero():
                continue
            h = r.eval(t) / s.eval(t)
            if B.eval(h).is_zero():
                continue
            assert not y.eval(t).is_zero()
            assert x.eval(t) / y.eval(t) == A.eval(h) / B.eval(h) * s.eval(t) ** d / w.eval(t)

    @pytest.mark.parametrize("name", list(INTEGER_FIELDS))
    def test_a_split_denominator_is_the_product_over_its_roots(self, name):
        # B = lc prod (x - beta_j) gives B~ = lc prod (R - beta_j S), the
        # identity that the pole rules of the presentation search rest on
        field = INTEGER_FIELDS[name]
        rng = random.Random(f"split/{name}")
        one = UniPoly.const(1, field)
        for _ in range(25):
            roots = [rand_scalar(rng, field, 5) for _ in range(rng.randint(1, 4))]
            lead = rand_scalar(rng, field, 5, nonzero=True)
            B = UniPoly.from_roots(roots, field, leading=lead)
            A, r, s = (rand_nonzero_poly_of(rng, field, 3, 5) for _ in range(3))
            # d = deg A - deg B leaves the second entry B~ alone
            _, y = homogenized_pair(A, B, r, s, one, A.degree - B.degree)
            expected = UniPoly.const(lead, field)
            for beta in roots:
                expected = expected * (r - s * beta)
            assert y == expected


FIELDS_FOR_PROPERTIES = ("Q", "Q(sqrt2)", "Q(denominators)")


@st.composite
def unipolys(draw, field, max_deg=5):
    """UniPoly over ``field`` with small rational coordinates."""
    d = field.degree if field else 1
    ratio = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coords = draw(st.lists(st.lists(ratio, min_size=d, max_size=d), max_size=max_deg + 1))
    if field is None:
        return UniPoly(None, [c[0] for c in coords])
    return UniPoly(field, [field.scalar(*c) for c in coords])


def poly_triples(n=3):
    return st.sampled_from(FIELDS_FOR_PROPERTIES).flatmap(
        lambda name: st.tuples(*[unipolys(INTEGER_FIELDS[name])] * n))


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

DIVISION_FIELDS = {
    "Q": None,
    "Q(sqrt2)": INTEGER_FIELDS["Q(sqrt2)"],
    "Q(cbrt2)": INTEGER_FIELDS["Q(cbrt2)"],
    # s^4 - s/2 - 1 is 2s^4 - s - 2 over 2, so every theta-reduction of a
    # product scales by 2
    "Q(s^4-s/2-1)": pk.nf_new([-1, Fraction(-1, 2), 0, 0, 1], name="s"),
}

RATIOS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def division_cases(draw):
    """``(a, b)`` over one field, ``b`` nonzero with a leading coefficient
    that is rational or, over Q(theta), irrational, as drawn."""
    field = DIVISION_FIELDS[draw(st.sampled_from(sorted(DIVISION_FIELDS)))]
    d = field.degree if field else 1
    lead = [draw(RATIOS.filter(bool))] + [0] * (d - 1)
    if d > 1 and draw(st.booleans()):
        lead[draw(st.integers(1, d - 1))] = draw(RATIOS.filter(bool))
        lead[0] = draw(RATIOS)
    lead = AlgebraicScalar.rational(lead[0]) if field is None else field.scalar(*lead)
    low = draw(unipolys(field, 3))
    x = UniPoly.x(field)
    b = low + x ** (low.degree + 1 + draw(st.integers(0, 2))) * lead
    return draw(unipolys(field, 7)), b


@st.composite
def scalar_coordinates(draw):
    """``(field, cs)``: a number field and up to twice its degree in rational coordinates."""
    field = DIVISION_FIELDS[draw(st.sampled_from(sorted(k for k in DIVISION_FIELDS if k != "Q")))]
    return field, draw(st.lists(RATIOS, max_size=2 * field.degree))


def divides(p, q):
    """True when ``p`` divides ``q`` exactly."""
    if p.is_zero():
        return q.is_zero()
    return (q % p).is_zero()


class TestUniPolyProperties:
    @PROPERTY_SETTINGS
    @given(poly_triples())
    def test_ring_laws(self, abc):
        a, b, c = abc
        zero, one = UniPoly.zero(a.field), UniPoly.const(1, a.field)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and (a - a).is_zero()
        assert -(a - b) == b - a

    @PROPERTY_SETTINGS
    @given(poly_triples(2))
    def test_division_identity(self, ab):
        a, b = ab
        assume(not b.is_zero())
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @PROPERTY_SETTINGS
    @given(poly_triples())
    def test_gcd_divides_both(self, abc):
        a, b, c = abc
        a, b = a * c, b * c
        assume(not (a.is_zero() and b.is_zero()))
        g = pk.poly_gcd(a, b)
        assert g.leading() == 1
        assert divides(g, a) and divides(g, b)
        if not c.is_zero():
            assert divides(c, g)

    @PROPERTY_SETTINGS
    @given(division_cases())
    def test_divmod_matches_the_scalar_loop(self, ab):
        a, b = ab
        q, r = divmod(a, b)
        for p in (q, r):
            check_canonical_poly(p, a.field)
        want_q, want_r = ref_dense_divmod(list(a.coeffs), list(b.coeffs), b.leading().inverse())
        assert (list(q.coeffs), list(r.coeffs)) == (trimmed(want_q), trimmed(want_r))
        assert q * b + r == a
        assert r.degree < b.degree
        assert (a * b) // b == a

    @PROPERTY_SETTINGS
    @given(scalar_coordinates())
    def test_scalar_reduces_like_the_fraction_loop(self, case):
        field, cs = case
        got = field.scalar(*cs)
        check_canonical(got, field)
        assert got.coords == tuple(padded(field, ref_reduce_mod(cs, field.minpoly)))


KERNEL_DOMAINS = ("Q", "Q(sqrt2)", "Q(cbrt2)", "Q[t]", "Q(sqrt2)[t]")


@st.composite
def kernel_triples(draw):
    """``(name, a, b, c)``: coefficient lists over a field, or over K[t] as
    lists of ``UniPoly`` in t, for the subresultant kernel."""
    name = draw(st.sampled_from(KERNEL_DOMAINS))
    if name.endswith("[t]"):
        field = INTEGER_FIELDS[name[:-3]]
        poly = st.lists(unipolys(field, 2), max_size=4)
    else:
        poly = unipolys(INTEGER_FIELDS[name], 4).map(lambda p: list(p.coeffs))
    a, b, c = (trimmed(draw(poly)) for _ in range(3))
    return name, a, b, c


def kernel_normal_form(name, g):
    """The kernel's gcd as one representative: monic over a field; over K[t]
    primitive in t, with the leading scalar of its leading coefficient 1."""
    if not name.endswith("[t]"):
        return monic_gcd(g, [])
    content = g[-1].monic()
    for c in g:
        content = pk.poly_gcd(content, c)
    g = [c.exact_quotient(content) for c in g]
    inv = g[-1].leading().inverse()
    return [c * inv for c in g]


def kernel_to_sympy(g, sympy):
    """A coefficient list in y, of scalars or of polynomials in t, as a sympy Poly in y and t."""
    y, t = sympy.symbols("y t")

    def scalar(c):
        return sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(2) ** j
                   for j, q in enumerate(c.coords))

    expr = sympy.Integer(0)
    for i, c in enumerate(g):
        cs = c.coeffs if isinstance(c, UniPoly) else [c]
        expr += sum(scalar(x) * t ** k for k, x in enumerate(cs)) * y ** i
    return sympy.Poly(expr, y, t, domain=sympy.QQ.algebraic_field(sympy.sqrt(2)))


class TestSubresultantKernel:
    @PROPERTY_SETTINGS
    @given(kernel_triples())
    def test_gcd_divides_both_and_leaves_coprime_cofactors(self, case):
        name, a, b, c = case
        if c:
            a, b = list_mul(a, c), list_mul(b, c)
        assume(a or b)
        quo = UniPoly.exact_quotient if name.endswith("[t]") else (lambda x, y: x / y)
        g = kernel_normal_form(name, subresultant_gcd(a, b, quo))
        ca, cb = dense_exact_quotient(a, g, quo), dense_exact_quotient(b, g, quo)
        assert list_mul(ca, g) == a and list_mul(cb, g) == b
        assert len(subresultant_gcd(ca, cb, quo)) == 1
        if len(c) > 1:
            # the common factor, or over K[t] its primitive part, divides the gcd
            dense_exact_quotient(g, kernel_normal_form(name, c), quo)
        if "sqrt2" in name:
            sympy = pytest.importorskip("sympy")
            sa, sb = kernel_to_sympy(a, sympy), kernel_to_sympy(b, sympy)
            want = sa.gcd(sb)
            if name.endswith("[t]"):
                # sympy's gcd in K[y, t] keeps the common content in t
                y, t = want.gens
                _, prim = sympy.Poly(want.as_expr(), y, domain=want.domain[t]).primitive()
                want = sympy.Poly(prim.as_expr(), y, t, domain=want.domain)
            assert kernel_to_sympy(g, sympy) == want.monic()

    def test_returns_the_last_subresultant(self):
        # over Q[t], against sympy's subresultant sequence (equal up to sign);
        # Knuth's pair (TAOCP 4.6.1) has remainder degrees 4, 2, 1, 0 below
        # 8 and 6, so three steps divide by h^delta with delta 2
        sympy = pytest.importorskip("sympy")
        y, t = sympy.symbols("y t")
        T = UniPoly.x()

        def lifted(cs):
            return [c if isinstance(c, UniPoly) else UniPoly.const(c) for c in cs]

        def as_sympy(cs):
            return sum(sum(sympy.Rational(c.coords[0].numerator, c.coords[0].denominator) * t ** k
                           for k, c in enumerate(p.coeffs)) * y ** i for i, p in enumerate(cs))

        f, g = [-5, 2, 8, -3, -3, 0, 1, 0, 1], [21, -9, -4, 0, 5, 0, 3]
        common = [T, 0, 1]
        cases = [
            (f, g),
            ([T - 5] + f[1:], [21 - T * T] + g[1:]),
            (list_mul(lifted([T - 5] + f[1:]), lifted(common)), list_mul(lifted(g), lifted(common))),
            ([T * T + 1, 2, T, -3], [T, 1 - T]),
        ]
        for a, b in cases:
            a, b = lifted(a), lifted(b)
            got = sympy.expand(as_sympy(subresultant_gcd(a, b, UniPoly.exact_quotient)))
            want = sympy.expand(sympy.subresultants(as_sympy(a), as_sympy(b), y)[-1])
            assert got in (want, -want)

    def test_remainder_sequence_over_a_field_is_not_normalised(self, sqrt2):
        # (x^2 - 2)(x + r) and (x^2 - 2)(x + 1)*3: the last subresultant is a
        # scalar multiple of x^2 - 2, which the caller makes monic
        r = sqrt2.gen()
        x = UniPoly.x(sqrt2)
        a, b = (x * x - 2) * (x + r), (x * x - 2) * (x + 1) * 3
        g = subresultant_gcd(a.coeffs, b.coeffs, lambda u, v: u / v)
        assert UniPoly(sqrt2, g).monic() == x * x - 2
        assert subresultant_gcd([], [], lambda u, v: u / v) == []

    def test_an_inexact_division_is_a_broken_invariant(self):
        x = UniPoly.x()
        with pytest.raises(pk.InternalInvariant):
            (x * x + 1).exact_quotient(x)
        with pytest.raises(pk.InternalInvariant):
            dense_exact_quotient([x, x], [x + 1, x], UniPoly.exact_quotient)


class TestPolyHashAgreesWithEquality:
    def test_rational_polynomial_hashes_like_its_lift(self, sqrt2, cbrt2):
        for field in (sqrt2, cbrt2):
            a, b = UniPoly.x(), UniPoly.x(field)
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
            p = UniPoly(None, [Fraction(1, 3), -2, 0, Fraction(5, 7)])
            q = UniPoly(field, p.coeffs)
            assert p == q and hash(p) == hash(q)

    def test_constant_hashes_as_its_value(self, sqrt2):
        assert UniPoly.const(1) == 1 and hash(UniPoly.const(1)) == hash(1)
        assert hash(UniPoly.zero(sqrt2)) == hash(0)
        half = UniPoly.const(Fraction(1, 2), sqrt2)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        r = sqrt2.gen() + 1
        assert UniPoly.const(r) == r and hash(UniPoly.const(r)) == hash(r)

    def test_irrational_polynomials_still_differ(self, sqrt2):
        r = sqrt2.gen()
        a = UniPoly(sqrt2, [r, 1])
        b = UniPoly(sqrt2, [1, 1])
        assert a != b and len({a, b}) == 2
