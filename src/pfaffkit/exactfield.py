"""Exact arithmetic over Q and simple number fields Q(theta).

This is the coefficient domain for every criterion in the package.
Rationals are ``fractions.Fraction``; elements of a declared extension
Q(theta) are coordinate vectors reduced modulo a monic defining
polynomial.  Every operation returns a fully reduced canonical
representative, so ``==`` is structural equality and all values are
safe to share between threads.

Long division and the Euclidean gcd are written once, on coefficient
lists (``dense_divmod``, ``dense_gcd``), for every coefficient type the
package uses: the Q[theta] reduction of scalars, ``UniPoly`` over Q(theta)
and the univariate reduction of differential rational functions over K
and K(t).

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
from math import isqrt

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


# Fraction lists are the coordinate arithmetic of Q[theta] behind scalars

def _qtrim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _qadd(a, b):
    n = max(len(a), len(b))
    out = [_Q0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _qtrim(out)


def _qneg(a):
    return [-c for c in a]


def _qmul(a, b):
    if not a or not b:
        return []
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _qtrim(out)


def _qxgcd(a, b):
    """Extended Euclid in Q[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    u0, u1 = [_Q1], []
    v0, v1 = [], [_Q1]
    while r1:
        q, r = dense_divmod(r0, r1, 1 / r1[-1])
        r0, r1 = r1, _qtrim(r)
        u0, u1 = u1, _qadd(u0, _qneg(_qmul(q, u1)))
        v0, v1 = v1, _qadd(v0, _qneg(_qmul(q, v1)))
    return r0, u0, v0


def _qeval(a, x):
    acc = _Q0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _is_probable_prime(n):
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    factors = {}
    m = n
    p = 2
    while p * p <= m and p < 10 ** 6:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    while m > 1:
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            break
        # slow path for huge composite cofactors; inputs this size do not
        # occur in practice
        q = p
        while m % q:
            q += 1
        factors[q] = factors.get(q, 0) + 1
        m //= q
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime ** e for d in divs for e in range(mult + 1)]
    return sorted(divs)


def _rational_roots(cs):
    """All rational roots of a nonzero polynomial with Fraction coefficients."""
    cs = list(cs)
    if not _qtrim(list(cs)):
        raise ValueError("zero polynomial has every rational root")
    # clear denominators to get integer coefficients
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // _gcd_int(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    while ints and ints[-1] == 0:
        ints.pop()
    roots = set()
    k = 0
    while ints and ints[0] == 0:
        roots.add(_Q0)
        ints = ints[1:]
        k += 1
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
    a0, an = ints[0], ints[-1]
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _qeval([Fraction(c) for c in ints], cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a if a else 1


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

    ``irreducibility_status`` is ``"verified"`` when the defining
    polynomial passed the squarefree check and (degree <= 3) the
    rational-root check; otherwise it is ``"asserted"`` and the caller
    vouches for irreducibility.
    """

    __slots__ = ("minpoly", "name", "irreducibility_status")

    def __init__(self, minpoly, name, irreducibility_status):
        self.minpoly = tuple(minpoly)  # Fraction coefficients, lowest first, monic
        self.name = name
        self.irreducibility_status = irreducibility_status

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def gen(self):
        """The generator theta as a scalar of this field."""
        coords = [_Q0] * self.degree
        coords[1 if self.degree > 1 else 0] = _Q1
        return AlgebraicScalar(self, tuple(coords))

    def scalar(self, *coords):
        """Scalar with the given coordinates (padded with zeros)."""
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            cs = _reduce_mod(cs, self.minpoly)
        cs = cs + [_Q0] * (self.degree - len(cs))
        return AlgebraicScalar(self, tuple(cs))

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

    ``field`` is ``None`` for plain rationals; ``coords`` always has
    length ``deg`` (1 for rationals) and is fully reduced, so equality
    is coordinatewise.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    # -- construction / coercion

    @staticmethod
    def rational(q):
        return AlgebraicScalar(None, (Fraction(q),))

    def lift(self, field):
        """Same value viewed in ``field`` (rationals embed everywhere)."""
        if self.field == field:
            return self
        if self.field is None:
            if field is None:
                return self
            coords = (self.coords[0],) + (_Q0,) * (field.degree - 1)
            return AlgebraicScalar(field, coords)
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
        b = AlgebraicScalar._coerce(other)
        if b is None:
            return None, None
        if self.field == b.field:
            return self, b
        if self.field is None:
            return self.lift(b.field), b
        if b.field is None:
            return self, b.lift(self.field)
        raise FieldMismatch(
            f"mixing Q({self.field.name}) and Q({b.field.name}) values"
        )

    # -- queries

    def is_zero(self):
        return all(not c for c in self.coords)

    def is_rational(self):
        """The value as a Fraction when it lies in Q, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    # -- arithmetic

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return AlgebraicScalar(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.field, tuple(-c for c in self.coords))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return AlgebraicScalar(a.field, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.field is None:
            return AlgebraicScalar(None, (a.coords[0] * b.coords[0],))
        prod = _qmul(list(a.coords), list(b.coords))
        red = _reduce_mod(prod, a.field.minpoly)
        red += [_Q0] * (a.field.degree - len(red))
        return AlgebraicScalar(a.field, tuple(red))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("scalar inverse of zero")
        if self.field is None:
            return AlgebraicScalar(None, (1 / self.coords[0],))
        g, u, _ = _qxgcd(list(self.coords), list(self.field.minpoly))
        if len(g) != 1:
            # only reachable when an asserted defining polynomial is in
            # fact reducible; the gcd is a witness factor
            raise ReduciblePolynomial(
                "zero divisor found: the asserted defining polynomial of "
                f"Q({self.field.name}) is reducible"
            )
        inv = [c / g[0] for c in u]
        inv = _reduce_mod(inv, self.field.minpoly)
        inv += [_Q0] * (self.field.degree - len(inv))
        return AlgebraicScalar(self.field, tuple(inv))

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
            a, b = self._pair(other)
        except FieldMismatch:
            return False
        return a.coords == b.coords

    def __hash__(self):
        if self.is_rational() is not None:
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        name = self.field.name if self.field else "?"
        return poly_str_fractions(self.coords, name)


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
    for coord in reversed(c.coords):
        if coord:
            return coord < 0
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
            cs = [c.coords[j] for c in rem.coeffs]
            if any(cs):
                coord_poly = cs
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
