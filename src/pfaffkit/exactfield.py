"""Exact arithmetic over Q and simple number fields Q(theta).

This is the coefficient domain for every criterion in the package.  A
scalar (``AlgebraicScalar``) of Q(theta), theta of degree d, is a vector
of d Python ints over one positive common denominator: the value is
``(nums[0] + nums[1]*theta + ... + nums[d-1]*theta^(d-1)) / den``, as in
FLINT's ``nf_elem`` (Cohen, A Course in Computational Algebraic Number
Theory, 4.2).  Rationals are the case d = 1.  Every operation works on
ints and returns the canonical representative (``gcd(den, *nums) == 1``),
so ``==`` is structural equality and all values are safe to share between
threads; ``coords`` gives the coordinates as ``fractions.Fraction``.  Q
and degree 2 have closed forms; higher degrees reduce by the integer
defining polynomial and invert by fraction-free elimination.

Long division and the Euclidean gcd are written once, on coefficient
lists (``dense_divmod``, ``dense_gcd``), for every coefficient type the
package uses: ``UniPoly`` over Q(theta), the univariate reduction of
differential rational functions over K and K(t), and the Fraction and
integer lists of defining polynomials and rational-root finding.

Only simple extensions are supported (one generator, no towers), which
covers every concrete irrationality condition the verdict engine needs.
Irreducibility of the defining polynomial is *verified* up to degree 3
(no rational root + squarefree); higher degrees are recorded as
*asserted* and verdicts computed in such a field carry a provenance
note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    DivisionByZero,
    DivisionByZeroPolynomial,
    FieldMismatch,
    NotMonic,
    ReduciblePolynomial,
)

Rational = Fraction

_Q0 = Fraction(0)
_Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense coefficient lists, lowest degree first

def dense_divmod(a, b, inv_lead):
    """Schoolbook long division of coefficient list ``a`` by ``b``.

    This is the one division loop behind every univariate polynomial in
    the package.  The caller passes ``inv_lead``, the inverse of
    ``b[-1]``, so the coefficients need only ``*`` and ``-``: Fractions,
    scalars and rational functions of K(t) all serve.  Returns the
    quotient and the remainder untrimmed, ``len(a) - len(b) + 1`` and
    ``len(b) - 1`` entries long (no quotient and all of ``a`` when ``a``
    is shorter than ``b``); each caller trims them with its own zero test.
    """
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


def _trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def dense_gcd(a, b):
    """Monic gcd of two coefficient lists by the Euclidean algorithm.

    The coefficients need ``is_zero()`` and ``inverse()``; zero leading
    entries are allowed.  The gcd of two zero lists is the empty list.
    """
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _trim(dense_divmod(a, b, b[-1].inverse())[1])
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _over_common_denominator(cs):
    """Rationals ``cs`` as ``(nums, den)``: integer numerators over their lcm.

    No factor of ``den`` divides every numerator.
    """
    den = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


# ---------------------------------------------------------------------------
# rational roots, found without factoring any coefficient

def _primitive(cs):
    """The primitive integer multiple of a rational coefficient list.

    Trailing zeros are dropped and the leading coefficient is made
    positive; an all-zero list gives ``[]``.
    """
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return []
    ints = _over_common_denominator(cs)[0]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _integer_gcd(a, b):
    """A gcd of two integer coefficient lists, up to a rational factor.

    Euclid over Q, each remainder made primitive so that the coefficients
    stay small.
    """
    while b:
        a, b = b, _primitive(dense_divmod(a, b, Fraction(1, b[-1]))[1])
    return a


def _integer_eval(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _integer_roots(g):
    """Integer roots of a monic squarefree integer polynomial (Loos 1983).

    Every integer root is a root modulo each prime p.  At a prime where
    every root modulo p is simple, Newton's iteration lifts each one to
    the only root modulo p^(2^k) above it, until the modulus passes twice
    the Cauchy bound on the roots; the symmetric residue is then tested
    exactly.
    """
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(abs(c) for c in g[:-1])
    p = 1
    while True:
        p += 1
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        gp = [c % p for c in g]
        roots = [r for r in range(p) if _integer_eval(gp, r) % p == 0]
        # g is squarefree, so only the finitely many primes dividing its
        # discriminant fail this
        if all(_integer_eval(dg, r) % p for r in roots):
            break
    out = []
    for z in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            z = (z - _integer_eval(g, z) * pow(_integer_eval(dg, z), -1, m)) % m
        if z > m // 2:
            z -= m
        if _integer_eval(g, z) == 0:
            out.append(z)
    return out


def _rational_roots(cs):
    """All rational roots of a nonzero polynomial with Fraction coefficients."""
    ints = _primitive(cs)
    if not ints:
        raise ValueError("zero polynomial has every rational root")
    roots = set()
    while ints[0] == 0:
        roots.add(_Q0)
        ints = ints[1:]
    if len(ints) <= 1:
        return sorted(roots)
    # degree <= 2 is decided exactly, without factoring the constant term
    if len(ints) == 2:
        roots.add(Fraction(-ints[0], ints[1]))
        return sorted(roots)
    if len(ints) == 3:
        c, b, a = ints
        disc = b * b - 4 * a * c
        s = isqrt(max(disc, 0))
        if s * s == disc:
            roots.update((Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)))
        return sorted(roots)
    # the squarefree part f has the same roots; g(z) = a^(n-1) f(z/a) is
    # monic with integer coefficients, and its integer roots are a times
    # the rational roots of f
    common = _integer_gcd(ints, [i * c for i, c in enumerate(ints)][1:])
    if len(common) > 1:
        ints = _primitive(dense_divmod(ints, common, Fraction(1, common[-1]))[0])
    a, n = ints[-1], len(ints) - 1
    g = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    roots.update(Fraction(z, a) for z in _integer_roots(g))
    return sorted(roots)


def _fraction_sqrt(q):
    """Exact square root of a Fraction, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# number fields

class NumberField:
    """A simple extension Q(theta), theta a root of a monic polynomial.

    ``minpoly`` holds the Fraction coefficients of the defining
    polynomial, lowest first; ``minpoly_nums`` and ``minpoly_den`` hold
    its integer form, ``minpoly[i] == minpoly_nums[i] / minpoly_den`` for
    ``i < degree`` (the leading coefficient is 1).

    ``irreducibility_status`` is ``"verified"`` when the defining
    polynomial passed the squarefree check and (degree <= 3) the
    rational-root check; otherwise it is ``"asserted"`` and the caller
    vouches for irreducibility.
    """

    __slots__ = ("minpoly", "name", "irreducibility_status", "minpoly_nums", "minpoly_den")

    def __init__(self, minpoly, name, irreducibility_status):
        self.minpoly = tuple(minpoly)  # Fraction coefficients, lowest first, monic
        self.name = name
        self.irreducibility_status = irreducibility_status
        nums, self.minpoly_den = _over_common_denominator(self.minpoly)
        self.minpoly_nums = nums[:-1]  # the leading one is minpoly_den

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def gen(self):
        """The generator theta as a scalar of this field."""
        nums = [0] * self.degree
        nums[1 if self.degree > 1 else 0] = 1
        return AlgebraicScalar(self, tuple(nums), 1)

    def scalar(self, *coords):
        """Scalar with the given coordinates (padded with zeros)."""
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            cs = _reduce_mod(cs, self.minpoly)
        cs = cs + [_Q0] * (self.degree - len(cs))
        return AlgebraicScalar(self, *_over_common_denominator(cs))

    def zero(self):
        return self.scalar()

    def one(self):
        return self.scalar(1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({poly_str_fractions(self.minpoly, self.name)})"


def _reduce_mod(cs, minpoly):
    # minpoly is monic, so the inverse of its leading coefficient is 1
    return dense_divmod(cs, minpoly, _Q1)[1]


def nf_new(minpoly, name="r"):
    """Create a number field from a monic defining polynomial over Q.

    ``minpoly`` is a sequence of rationals, constant term first.  The
    polynomial must be monic and squarefree; for degree <= 3 a rational
    root is an error (degree 2 and 3 are then genuinely irreducible).
    """
    cs = [Fraction(c) for c in minpoly]
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) < 2:
        raise NotMonic("defining polynomial must have degree >= 1")
    if cs[-1] != 1:
        raise NotMonic("defining polynomial must be monic")
    p = UniPoly(None, cs)
    g = poly_gcd(p, p.derivative())
    if g.degree > 0:
        raise ReduciblePolynomial(
            f"defining polynomial is not squarefree (gcd with derivative has "
            f"degree {g.degree})"
        )
    degree = len(cs) - 1
    status = "asserted"
    if degree <= 3:
        roots = _rational_roots(cs)
        if roots:
            raise ReduciblePolynomial(f"rational root {roots[0]} found")
        status = "verified"
    return NumberField(cs, name, status)


# ---------------------------------------------------------------------------
# scalars

class AlgebraicScalar:
    """An exact element of Q or of a declared Q(theta).

    The value is ``(nums[0] + nums[1]*theta + ... + nums[d-1]*theta^(d-1)) / den``
    in Python ints, where ``d`` is the degree of ``field`` (``field`` is
    ``None`` and ``d`` is 1 for rationals).  ``den > 0`` and
    ``gcd(den, *nums) == 1``, so zero is all zeros over 1 and equality is
    structural.  ``coords`` gives the same value as a tuple of Fractions.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coords(self):
        """The coordinates as Fractions, constant term first."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- construction / coercion

    @staticmethod
    def rational(q):
        if not isinstance(q, int):
            q = Fraction(q)
        return AlgebraicScalar(None, (q.numerator,), q.denominator)

    def lift(self, field):
        """Same value viewed in ``field`` (rationals embed everywhere)."""
        if self.field is None:
            if field is None:
                return self
            return AlgebraicScalar(field, self.nums + (0,) * (field.degree - 1), self.den)
        if self.field == field:
            return self
        raise FieldMismatch(
            f"cannot move a Q({self.field.name}) value into another field"
        )

    @staticmethod
    def _coerce(x):
        if isinstance(x, AlgebraicScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return AlgebraicScalar.rational(x)
        return None

    def _pair(self, other):
        b = other if other.__class__ is AlgebraicScalar else AlgebraicScalar._coerce(other)
        if b is None:
            return None, None
        if b.field is self.field:
            return self, b
        if self.field is None:
            return self.lift(b.field), b
        if b.field is None:
            return self, b.lift(self.field)
        if self.field == b.field:
            return self, b
        raise FieldMismatch(
            f"mixing Q({self.field.name}) and Q({b.field.name}) values"
        )

    # -- queries

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        """The value as a Fraction when it lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # -- arithmetic

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        an, bn, da, db = a.nums, b.nums, a.den, b.den
        if len(an) == 1:
            x, y = an[0], bn[0]
            # cancel across before multiplying, as Fraction does (Henrici 1956)
            g = gcd(x, db)
            if g > 1:
                x //= g
                db //= g
            g = gcd(y, da)
            if g > 1:
                y //= g
                da //= g
            return AlgebraicScalar(a.field, (x * y,), da * db)
        field = a.field
        ms, lead = field.minpoly_nums, field.minpoly_den
        if len(an) == 2:
            (a0, a1), (b0, b1), (m0, m1) = an, bn, ms
            top = a1 * b1
            # theta^2 = -(m1*theta + m0)/lead
            n0 = lead * a0 * b0 - m0 * top
            n1 = lead * (a0 * b1 + a1 * b0) - m1 * top
            den = lead * da * db
            g = gcd(n0, n1, den)
            if g != 1:
                n0, n1, den = n0 // g, n1 // g, den // g
            return AlgebraicScalar(field, (n0, n1), den)
        nums, scale = _product_mod(an, bn, ms, lead)
        return _canonical(field, nums, scale * da * db)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("scalar inverse of zero")
        nums, den, field = self.nums, self.den, self.field
        if len(nums) == 1:
            n = nums[0]
            return AlgebraicScalar(field, (den,), n) if n > 0 else AlgebraicScalar(field, (-den,), -n)
        ms, lead = field.minpoly_nums, field.minpoly_den
        if len(nums) == 2:
            (a0, a1), (m0, m1) = nums, ms
            # (a0 + a1*theta)*(lead*a0 - m1*a1 - lead*a1*theta) is the rational norm
            norm = lead * a0 * a0 - m1 * a0 * a1 + m0 * a1 * a1
            inv = (den * (lead * a0 - m1 * a1), -den * lead * a1)
        else:
            inv, norm = _inverse_mod(nums, ms, lead)
            inv = tuple(den * c for c in inv)
        if not norm:
            # only reachable when an asserted defining polynomial is in
            # fact reducible: the value is a zero divisor
            raise ReduciblePolynomial(
                "zero divisor found: the asserted defining polynomial of "
                f"Q({field.name}) is reducible"
            )
        if norm < 0:
            inv, norm = tuple(-c for c in inv), -norm
        return _canonical(field, inv, norm)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        b = AlgebraicScalar._coerce(other)
        if b is None:
            return NotImplemented
        return b / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = AlgebraicScalar.rational(1).lift(self.field) if self.field else AlgebraicScalar.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- identity

    def __eq__(self, other):
        b = AlgebraicScalar._coerce(other)
        if b is None:
            return NotImplemented
        try:
            a, b = self._pair(b)
        except FieldMismatch:
            return False
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        if any(self.nums[1:]):
            return hash((self.field, self.nums, self.den))
        return hash(Fraction(self.nums[0], self.den))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        name = self.field.name if self.field else "?"
        return poly_str_fractions(self.coords, name)


def _canonical(field, nums, den):
    """The scalar nums/den for ``den > 0``, with the common factor removed."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return AlgebraicScalar(field, nums, den)


def _sum(a, b, sign):
    """a + sign*b for scalars of one field, as ``Fraction`` adds.

    Over the lcm of the two denominators only a factor of their gcd can
    be common to the result (Knuth, TAOCP 4.5.1).
    """
    an, bn, da, db = a.nums, b.nums, a.den, b.den
    g = gcd(da, db)
    if len(an) == 1:
        x, y = an[0], bn[0] if sign > 0 else -bn[0]
        if g == 1:
            return AlgebraicScalar(a.field, (x * db + y * da,), da * db)
        s = da // g
        t = x * (db // g) + y * s
        g2 = gcd(t, g)
        if g2 == 1:
            return AlgebraicScalar(a.field, (t,), s * db)
        return AlgebraicScalar(a.field, (t // g2,), s * (db // g2))
    s, u = da // g, db // g
    sy = s if sign > 0 else -s
    t = tuple(x * u + y * sy for x, y in zip(an, bn))
    g2 = gcd(g, *t)
    if g2 != 1:
        t = tuple(v // g2 for v in t)
    return AlgebraicScalar(a.field, t, s * (db // g2))


def _product_mod(an, bn, ms, lead):
    """Product of two integer coordinate vectors modulo the defining polynomial.

    ``ms`` and ``lead`` are the integer defining polynomial.  Returns
    ``(nums, scale)``, the product being ``nums / scale``: every reduction
    step multiplies by ``lead``, and there is none when ``lead`` is 1.
    """
    d = len(an)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(an):
        if x:
            for j, y in enumerate(bn):
                prod[i + j] += x * y
    scale = 1
    for k in range(2 * d - 2, d - 1, -1):
        top = prod.pop()
        if not top:
            continue
        if lead != 1:
            prod = [lead * c for c in prod]
            scale *= lead
        # lead*theta^k = -top*theta^(k-d)*(ms[0] + ... + ms[d-1]*theta^(d-1))
        for i, m in enumerate(ms, k - d):
            prod[i] -= top * m
    return tuple(prod), scale


def _inverse_mod(nums, ms, lead):
    """Inverse of the integer coordinate vector ``nums`` as ``(inv, norm)``.

    Solves M*y = e_0 for the multiplication-by-``nums`` matrix M by
    fraction-free elimination (Bareiss 1968), all in integers.  The inverse
    is ``inv / norm``; ``norm`` is 0 when M is singular.
    """
    d = len(nums)
    # column j is nums*theta^j, scaled to integers by scales[j]
    cols, scales = [], []
    col, scale = list(nums), 1
    for _ in range(d):
        cols.append(col)
        scales.append(scale)
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            if lead != 1:
                col = [lead * c for c in col]
                scale *= lead
            col = [c - top * m for c, m in zip(col, ms)]
    rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
    prev = 1
    for k in range(d):
        piv = next((i for i in range(k, d) if rows[i][k]), None)
        if piv is None:
            return (), 0
        rows[k], rows[piv] = rows[piv], rows[k]
        rk, pk = rows[k], rows[k][k]
        for i in range(k + 1, d):
            ri, f = rows[i], rows[i][k]
            rows[i] = [0] * (k + 1) + [(pk * ri[j] - f * rk[j]) // prev for j in range(k + 1, d + 1)]
        prev = pk
    # det*y is integral (Cramer), so each back-substitution division is exact
    det, ys = prev, [0] * d
    for i in range(d - 1, -1, -1):
        acc = det * rows[i][d] - sum(rows[i][j] * ys[j] for j in range(i + 1, d))
        ys[i] = acc // rows[i][i]
    return tuple(y * s for y, s in zip(ys, scales)), det


def poly_str_fractions(coords, varname):
    """Print a coordinate vector as a polynomial in ``varname``, descending."""
    parts = []
    for i in range(len(coords) - 1, -1, -1):
        c = coords[i]
        if not c:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            v = varname if i == 1 else f"{varname}^{i}"
            body = v if abs(c) == 1 else f"{abs(c)}*{v}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) if parts else "0"


def scalar_arith(a, b, op):
    """Exact field arithmetic dispatch; ``op`` is one of ``+ - * /``."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def is_rational(a):
    """The Fraction value of ``a`` when it lies in Q, else None."""
    return a.is_rational()


def rational_multiple(a, b):
    """The q in Q with a = q*b, or None when a/b is irrational."""
    b = AlgebraicScalar._coerce(b) or b
    if b.is_zero():
        raise DivisionByZero("rational_multiple with zero second argument")
    return (a / b).is_rational()


def scalar_sqrt(s):
    """An exact square root of ``s`` in its own field, or None.

    Decides squareness over Q and over quadratic fields; for higher
    degree fields it returns None without deciding (callers treat that
    as "no usable root found").
    """
    s = AlgebraicScalar._coerce(s)
    q = s.is_rational()
    if q is not None and s.field is None:
        r = _fraction_sqrt(q)
        return None if r is None else AlgebraicScalar.rational(r)
    field = s.field
    if field is None or field.degree != 2:
        if q is not None:
            r = _fraction_sqrt(q)
            if r is not None:
                return AlgebraicScalar.rational(r).lift(field)
        return None
    # theta^2 = alpha*theta + beta from the monic defining polynomial
    alpha, beta = -field.minpoly[1], -field.minpoly[0]
    s0, s1 = s.coords
    candidates = []
    if s1 == 0:
        r = _fraction_sqrt(s0)
        if r is not None:
            candidates.append((r, _Q0))
        denom = alpha * alpha / 4 + beta
        if denom:
            b2 = s0 / denom
            b = _fraction_sqrt(b2)
            if b is not None:
                candidates.append((-alpha * b / 2, b))
    else:
        # b^2 = c solves (alpha^2+4 beta) c^2 - (2 alpha s1 + 4 s0) c + s1^2 = 0
        A = alpha * alpha + 4 * beta
        B = -(2 * alpha * s1 + 4 * s0)
        C = s1 * s1
        disc = B * B - 4 * A * C
        r = _fraction_sqrt(disc)
        if r is not None and A:
            for c in ((-B + r) / (2 * A), (-B - r) / (2 * A)):
                b = _fraction_sqrt(c)
                if b:
                    a = (s1 - alpha * b * b) / (2 * b)
                    candidates.append((a, b))
    for a, b in candidates:
        cand = field.scalar(a, b)
        if cand * cand == s:
            return cand
    return None


# ---------------------------------------------------------------------------
# univariate polynomials over scalars

class UniPoly:
    """Dense univariate polynomial over Q or a number field.

    Coefficients are stored lowest degree first; the leading coefficient
    is nonzero unless the polynomial is zero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        lifted = []
        for c in coeffs:
            c = AlgebraicScalar._coerce(c)
            lifted.append(c.lift(field) if c.field != field else c)
        while lifted and lifted[-1].is_zero():
            lifted.pop()
        self.field = field
        self.coeffs = tuple(lifted)

    # -- constructors

    @staticmethod
    def zero(field=None):
        return UniPoly(field, ())

    @staticmethod
    def const(c, field=None):
        c = AlgebraicScalar._coerce(c)
        if field is None:
            field = c.field
        return UniPoly(field, (c,))

    @staticmethod
    def x(field=None):
        return UniPoly(field, (0, 1))

    @staticmethod
    def from_roots(roots, field=None, leading=1):
        if roots and field is None:
            field = AlgebraicScalar._coerce(roots[0]).field
        out = UniPoly.const(leading, field)
        x = UniPoly.x(field)
        for r in roots:
            out = out * (x - UniPoly.const(r, field))
        return out

    # -- queries

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if self.is_zero():
            raise DivisionByZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self):
        if self.is_zero():
            return AlgebraicScalar.rational(0).lift(self.field) if self.field else AlgebraicScalar.rational(0)
        return self.coeffs[0]

    def coeff(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        z = AlgebraicScalar.rational(0)
        return z.lift(self.field) if self.field else z

    # -- arithmetic

    def _pair(self, other):
        if isinstance(other, UniPoly):
            if self.field == other.field:
                return self, other
            if self.field is None:
                return UniPoly(other.field, self.coeffs), other
            if other.field is None:
                return self, UniPoly(self.field, other.coeffs)
            raise FieldMismatch("polynomials over different number fields")
        c = AlgebraicScalar._coerce(other)
        if c is None:
            return None, None
        field = self.field if self.field is not None else c.field
        return (self if field == self.field else UniPoly(field, self.coeffs)), UniPoly.const(c, field)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = max(len(a.coeffs), len(b.coeffs))
        return UniPoly(a.field, [a.coeff(i) + b.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = max(len(a.coeffs), len(b.coeffs))
        return UniPoly(a.field, [a.coeff(i) - b.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.is_zero() or b.is_zero():
            return UniPoly.zero(a.field)
        out = [AlgebraicScalar.rational(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return UniPoly(a.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = UniPoly.const(1, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if b.is_zero():
            raise DivisionByZeroPolynomial("polynomial division by zero")
        quo, rem = dense_divmod(a.coeffs, b.coeffs, b.coeffs[-1].inverse())
        return UniPoly(a.field, quo), UniPoly(a.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """True when self divides ``other`` exactly."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def derivative(self):
        return UniPoly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def eval(self, x):
        acc = AlgebraicScalar.rational(0)
        if self.field is not None:
            acc = acc.lift(self.field)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, (UniPoly, int, Fraction, AlgebraicScalar)):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except FieldMismatch:
            return False
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"<poly {self.str('x')}>"

    def str(self, varname):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            neg, body = _coeff_term_str(c, _mono_str_uni(varname, i))
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)


def _mono_str_uni(varname, i):
    if i == 0:
        return ""
    if i == 1:
        return varname
    return f"{varname}^{i}"


def scalar_display_negative(c):
    """True when the canonical rendering of ``c`` starts with a minus sign."""
    for n in reversed(c.nums):
        if n:
            return n < 0
    return False


def _coeff_term_str(c, mono):
    """Render coefficient*monomial; returns (leading_minus, body)."""
    neg = scalar_display_negative(c)
    cpos = -c if neg else c
    s = str(cpos)
    if not mono:
        return neg, s
    if s == "1":
        return neg, mono
    if ("+" in s) or (" - " in s) or s.startswith("-"):
        s = f"({s})"
    return neg, f"{s}*{mono}"


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm; errors when both are zero."""
    a, b = p._pair(q)
    if a.is_zero() and b.is_zero():
        raise DivisionByZeroPolynomial("gcd(0, 0) is undefined")
    return UniPoly(a.field, dense_gcd(a.coeffs, b.coeffs))


@dataclass(frozen=True)
class PolyToolkit:
    gcd: UniPoly
    p_prime: UniPoly
    coprime: bool
    divides: bool
    quotient: UniPoly | None
    remainder: UniPoly | None


def poly_toolkit(p, q):
    """gcd / derivative / exact-division bundle for two polynomials.

    ``divides`` and ``quotient`` describe division of ``p`` by ``q``.
    """
    g = poly_gcd(p, q)
    if q.is_zero():
        quo, rem, div = None, None, False
    else:
        quo, rem = divmod(p, q)
        div = rem.is_zero()
    return PolyToolkit(
        gcd=g,
        p_prime=p.derivative(),
        coprime=g.is_constant() and not g.is_zero(),
        divides=div,
        quotient=quo if div else None,
        remainder=rem,
    )


def extract_linear_roots(p):
    """Peel off every linear factor of ``p`` that is visible over its field.

    Returns ``(roots, remainder)`` where ``roots`` is a list of
    ``(scalar, multiplicity)`` pairs and ``remainder`` has no root this
    routine can find.  Rational roots are found at any degree; roots
    generating the field itself are found only in the degree <= 2 tail
    (quadratics are split exactly when their discriminant is a square in
    the field).  Full factorizations beyond that are out of scope and
    callers fall back to factored input.
    """
    rem = p
    found = {}

    def peel(root):
        nonlocal rem
        lin = UniPoly(rem.field, (-root, 1))
        while not rem.is_constant():
            quo, r = divmod(rem, lin)
            if not r.is_zero():
                break
            found[root] = found.get(root, 0) + 1
            rem = quo

    # rational roots first (works at any degree)
    changed = True
    while changed and not rem.is_constant():
        changed = False
        coord_poly = None
        for j in range(1 if rem.field is None else rem.field.degree):
            if any(c.nums[j] for c in rem.coeffs):
                coord_poly = [Fraction(c.nums[j], c.den) for c in rem.coeffs]
                break
        for r in _rational_roots(coord_poly):
            root = AlgebraicScalar.rational(r)
            if rem.field is not None:
                root = root.lift(rem.field)
            if rem.eval(root).is_zero():
                before = rem
                peel(root)
                if rem is not before:
                    changed = True
    # quadratic tail: split when the discriminant is a square in the field
    while rem.degree == 2:
        c2, c1, c0 = rem.coeffs[2], rem.coeffs[1], rem.coeffs[0]
        disc = c1 * c1 - 4 * c2 * c0
        s = scalar_sqrt(disc.lift(rem.field) if disc.field != rem.field else disc)
        if s is None:
            break
        for root in ((-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)):
            peel(root)
        break
    if rem.degree == 1:
        peel(-rem.coeffs[0] / rem.coeffs[1])
    order = sorted(found, key=str)
    return [(r, found[r]) for r in order], rem
