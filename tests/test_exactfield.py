import random
from fractions import Fraction

import pytest

import pfaffkit as pk
from pfaffkit.errors import (
    DivisionByZero,
    DivisionByZeroPolynomial,
    FieldMismatch,
    NotMonic,
    ReduciblePolynomial,
)
from pfaffkit.exactfield import UniPoly, extract_linear_roots, scalar_sqrt

from conftest import rand_scalar, rand_unipoly


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
        assert pk.scalar_arith(sqrt2.one(), th, "/") == th / 2

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
        assert pk.is_rational(sqrt2.gen()) is None

    def test_generator_square(self, sqrt2):
        th = sqrt2.gen()
        assert pk.is_rational(th * th) == 2

    def test_norm_style_product(self, sqrt2):
        th = sqrt2.gen()
        assert pk.is_rational((2 + th) * (2 - th)) == 2

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
            assert pk.is_rational(a) == pk.rational_multiple(a, one)

    def test_rational_multiple_reconstructs(self, sqrt2):
        rng = random.Random(8)
        for _ in range(500):
            b = rand_scalar(rng, sqrt2, nonzero=True)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            a = q * b
            got = pk.rational_multiple(a, b)
            assert got == q
            assert (got * b - a).is_zero()


class TestPolyToolkit:
    def test_gcd_example(self):
        x = UniPoly.x(None)
        tk = pk.poly_toolkit(x ** 2 - 1, x - 1)
        assert tk.gcd == x - 1

    def test_derivative_example(self):
        x = UniPoly.x(None)
        assert pk.poly_toolkit(x ** 3, x).p_prime == 3 * x ** 2

    def test_exact_division_with_fraction_coefficients(self):
        x = UniPoly.x(None)
        tk = pk.poly_toolkit(x ** 3 * Fraction(1, 2), x)
        assert tk.divides
        assert tk.quotient == x ** 2 * Fraction(1, 2)

    def test_gcd_of_zeros_rejected(self):
        z = UniPoly.zero(None)
        with pytest.raises(DivisionByZeroPolynomial):
            pk.poly_toolkit(z, z)

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

    def test_extract_roots_leaves_irreducible_quadratic(self):
        x = UniPoly.x(None)
        p = (x ** 2 - 2) * (x - 1)
        found, rem = extract_linear_roots(p)
        assert dict(found) == {pk.AlgebraicScalar.rational(1): 1}
        assert rem.degree == 2
