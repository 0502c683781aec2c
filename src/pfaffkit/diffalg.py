"""Differential polynomial algebra over a base differential field.

The base field is either a field of constants K (derivation zero) or
K(t) with d/dt; multivariate differential polynomials carry the
coefficient derivation.  Also home to the rational-function coefficient
type, the logarithmic-derivative (Riccati-style) reduction of a monic
linear equation, and exact composition of univariate rational
functions.  Univariate differential rational functions are reduced over
Q by ``UniPoly`` division and ``poly_gcd``, which run on integers, and
over Q(theta) and K(t) by the dense kernel ``exactfield.dense_divmod``
and ``exactfield.dense_gcd``.

``RatFunc`` and ``DiffRatFunc`` share their field operations through the
base class ``_Fraction``.  Printing is ``exactfield``'s term printer, with
``BaseDiffField.term_str`` rendering one coefficient times a monomial.

Substitution has one engine: ``cleared_pair`` evaluates a differential
polynomial or fraction at (numerator, denominator) pairs and returns one
unreduced pair, and ``as_pair``, ``pair_add``, ``pair_sub`` and
``pair_mul`` do arithmetic on such pairs without any gcd.  Each caller
reduces once at the end: ``DiffPoly.substitute`` and
``DiffRatFunc.substitute`` build a single ``DiffRatFunc``, and the chain
verifiers in ``chains`` decide their identities by cross multiplication.

Everything here is a pure value: arithmetic returns new objects and
never mutates, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatch,
    DenominatorVanishesIdentically,
    DivisionByZero,
    FieldMismatch,
    NotMonic,
    UnknownVariable,
)
from .exactfield import (
    AlgebraicScalar,
    NumberField,
    UniPoly,
    dense_divmod,
    dense_gcd,
    monomial_str,
    not_single_factor,
    poly_gcd,
    power,
    product_str,
    ratio_str,
    scalar_display_negative,
    scalar_term,
    signed_sum,
)


# ---------------------------------------------------------------------------
# fractions: the field operations of RatFunc and DiffRatFunc, written once

class _Fraction:
    """The field operations of a fraction ``num/den``, each result built as
    ``type(self)(num, den)``.  A subclass supplies ``__init__`` (which
    reduces), ``_coerce`` (an operand as the subclass, or None), ``__eq__``
    and printing.
    """

    __slots__ = ()

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return type(self)(self.num * b.den + b.num * self.den, self.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return type(self)(self.num * b.den - b.num * self.den, self.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return type(self)(self.num * b.num, self.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return type(self)(self.num * b.den, self.den * b.num)

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return type(self)(self.den, self.num) ** (-n)
        return type(self)(self.num ** n, self.den ** n)

    def _quotient_rule(self, dnum, dden):
        """The derivative of ``num/den`` from the derivatives of its two sides."""
        return type(self)(dnum * self.den - self.num * dden, self.den * self.den)

    def __hash__(self):
        # a normalised constant denominator is 1: the fraction equals its numerator
        if self.den.is_constant():
            return hash(self.num)
        return hash(self._hash_key())

    def _hash_key(self):
        return self.num, self.den


# ---------------------------------------------------------------------------
# rational functions in the independent variable (coefficients of K(t))

class RatFunc(_Fraction):
    """A reduced ratio of univariate polynomials over Q or Q(theta).

    The denominator is monic and coprime to the numerator, so equality
    is structural.  Doubles as the element type of K(t) (with
    ``derivative`` as d/dt) and as plain rational-function arithmetic in
    the presentation search.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, UniPoly):
            num = UniPoly.const(num)
        if not isinstance(den, UniPoly):
            den = UniPoly.const(den)
        num, den = num._pair(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = UniPoly.const(1, num.field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead_inv = den.leading().inverse()
        if not (lead_inv - 1).is_zero():
            num, den = num * lead_inv, den * lead_inv
        self.num = num
        self.den = den

    # -- constructors

    @staticmethod
    def const(c, field=None):
        return RatFunc(UniPoly.const(c, field), UniPoly.const(1, field))

    @staticmethod
    def x(field=None):
        return RatFunc(UniPoly.x(field), UniPoly.const(1, field))

    @property
    def field(self):
        return self.num.field

    def is_polynomial(self):
        return self.den.is_constant()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic

    def _coerce(self, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, UniPoly):
            return RatFunc(x, UniPoly.const(1, x.field))
        if isinstance(x, (int, Fraction, AlgebraicScalar)):
            return RatFunc.const(x, self.field)
        return None

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def derivative(self):
        return self._quotient_rule(self.num.derivative(), self.den.derivative())

    def __eq__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.num == b.num and self.den == b.den

    # a class that defines __eq__ gets __hash__ = None unless it names one
    __hash__ = _Fraction.__hash__

    def __repr__(self):
        return f"<ratfunc {self.str('t')}>"

    def str(self, varname):
        if self.is_polynomial():
            return self.num.str(varname)
        return ratio_str(self.num.str(varname), self.den.str(varname))


# ---------------------------------------------------------------------------
# base differential fields

@dataclass(frozen=True)
class BaseDiffField:
    """Constants K (derivation zero) or K(t) with derivation d/dt."""

    field: NumberField | None = None
    var: str | None = None

    @staticmethod
    def constants(field=None):
        return BaseDiffField(field, None)

    @staticmethod
    def rational_functions(field=None, var="t"):
        return BaseDiffField(field, var)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def gen(self):
        if self.var is None:
            raise UnknownVariable("a constant base field has no independent variable")
        return RatFunc.x(self.field)

    def coerce(self, x):
        """Lift ints, fractions, scalars and t-rational functions into the base."""
        if self.var is None:
            c = AlgebraicScalar._coerce(x)
            if c is None:
                if isinstance(x, RatFunc) and x.is_constant():
                    c = x.constant_value()
                else:
                    raise FieldMismatch(f"cannot view {x!r} as a constant of the base field")
            return c.lift(self.field)
        if isinstance(x, RatFunc):
            if x.field == self.field:
                return x
            if x.field is None:
                return RatFunc(UniPoly(self.field, x.num.coeffs), UniPoly(self.field, x.den.coeffs))
            raise FieldMismatch("rational function over a different number field")
        if isinstance(x, UniPoly):
            return RatFunc(x, UniPoly.const(1, x.field))
        c = AlgebraicScalar._coerce(x)
        if c is None:
            raise FieldMismatch(f"cannot view {x!r} as an element of the base field")
        return RatFunc.const(c.lift(self.field), self.field)

    def derive(self, c):
        if self.var is None:
            return AlgebraicScalar.rational(0).lift(self.field)
        return c.derivative()

    def term_str(self, c, mono):
        """``(negative, body)`` of the printed term ``c*mono``, ``c`` in this field."""
        if self.var is None:
            return scalar_term(c, mono)
        neg = not c.num.is_zero() and scalar_display_negative(c.num.leading())
        return neg, product_str((-c if neg else c).str(self.var), mono, not_single_factor)

    def __str__(self):
        k = "Q" if self.field is None else f"Q({self.field.name})"
        return k if self.var is None else f"{k}({self.var})"


# ---------------------------------------------------------------------------
# multivariate differential polynomials

class DiffPoly:
    """Polynomial in y1..yn over a base differential field.

    ``terms`` maps exponent tuples to nonzero base-field coefficients.
    The variable list is fixed per ring: arithmetic requires equal
    ``(base, variables)``.
    """

    __slots__ = ("base", "variables", "terms")

    def __init__(self, base, variables, terms):
        self.base = base
        self.variables = tuple(variables)
        clean = {}
        for expo, c in terms.items():
            if not c.is_zero():
                clean[tuple(expo)] = c
        self.terms = clean

    # -- constructors

    @staticmethod
    def zero(base, variables):
        return DiffPoly(base, variables, {})

    @staticmethod
    def const(base, variables, c):
        c = base.coerce(c)
        return DiffPoly(base, variables, {(0,) * len(variables): c})

    @staticmethod
    def var(base, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(f"variable {name!r} not in ring {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return DiffPoly(base, variables, {expo: base.one()})

    # -- queries

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.base.zero())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name):
        i = self._var_index(name)
        return max((e[i] for e in self.terms), default=0)

    def used_variables(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.variables[i])
        return used

    def _var_index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name!r} not in ring {self.variables}") from None

    def _check_ring(self, other):
        if self.base != other.base or self.variables != other.variables:
            raise FieldMismatch("differential polynomials from different rings")

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            self._check_ring(other)
            return other
        try:
            return DiffPoly.const(self.base, self.variables, other)
        except FieldMismatch:
            return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in b.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return DiffPoly(self.base, self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.base, self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return DiffPoly(self.base, self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(DiffPoly.const(self.base, self.variables, 1), self, n)

    # -- differential structure

    def partial(self, name):
        """Formal partial derivative with respect to a ring variable."""
        i = self._var_index(name)
        out = {}
        for e, c in self.terms.items():
            if not e[i]:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return DiffPoly(self.base, self.variables, out)

    def coeff_derivation(self):
        """Apply the base derivation to every coefficient (zero on constants)."""
        out = {}
        for e, c in self.terms.items():
            out[e] = self.base.derive(c)
        return DiffPoly(self.base, self.variables, out)

    # -- structural conversions

    def extend(self, variables):
        """The same polynomial in a larger ring (old variables by name)."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, k in enumerate(e):
                ne[idx[i]] = k
            out[tuple(ne)] = c
        return DiffPoly(self.base, variables, out)

    def substitute(self, mapping):
        """Evaluate with each variable replaced per ``mapping``.

        Values may be DiffPoly or DiffRatFunc objects of one common
        target ring (variables missing from the mapping must not occur).
        The result is a DiffPoly when every value is polynomial.
        """
        return _substitute_into(self, mapping)

    # -- identity and printing

    def __eq__(self, other):
        if isinstance(other, DiffRatFunc):
            return other == self
        if isinstance(other, DiffPoly):
            if self.base != other.base or self.variables != other.variables:
                return False
            return self.terms == other.terms
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.terms == b.terms

    def __hash__(self):
        # a constant equals its value under ``==``, so it hashes as the value
        if self.is_constant():
            return hash(self.constant_coefficient())
        return hash((self.base, self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<diffpoly {self}>"

    def sorted_terms(self):
        """Terms in graded-lex order (y1 < y2 < ...), highest first."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def leading_coefficient(self):
        if self.is_zero():
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.sorted_terms()[0][1]

    def __str__(self):
        return signed_sum(
            self.base.term_str(c, monomial_str(self.variables, e))
            for e, c in self.sorted_terms()
        )


def _ring_of(value):
    if isinstance(value, DiffPoly):
        return value.base, value.variables
    return value.num.base, value.num.variables


# ---------------------------------------------------------------------------
# rational differential functions

class DiffRatFunc(_Fraction):
    """Ratio of two differential polynomials from one ring.

    Fully gcd-reduced in the univariate case; in several variables only
    the common monomial content is cancelled and equality falls back to
    cross-multiplication.  The denominator's graded-lex leading
    coefficient is normalised to 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num._check_ring(den)
        if den.is_zero():
            raise DivisionByZero("denominator is the zero polynomial")
        num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p):
        return DiffRatFunc(p, DiffPoly.const(p.base, p.variables, 1))

    @property
    def base(self):
        return self.num.base

    @property
    def variables(self):
        return self.num.variables

    def as_polynomial(self):
        """The underlying DiffPoly when the denominator is constant, else None."""
        if not self.den.is_constant():
            return None
        c = self.den.constant_coefficient()
        inv = 1 / c if isinstance(c, RatFunc) else c.inverse()
        return self.num * inv

    def _coerce(self, other):
        if isinstance(other, DiffRatFunc):
            return other
        if isinstance(other, DiffPoly):
            return DiffRatFunc.from_poly(other)
        try:
            return DiffRatFunc.from_poly(DiffPoly.const(self.base, self.variables, other))
        except FieldMismatch:
            return None

    def coeff_derivation(self):
        return self._quotient_rule(self.num.coeff_derivation(), self.den.coeff_derivation())

    def partial(self, name):
        return self._quotient_rule(self.num.partial(name), self.den.partial(name))

    def substitute(self, mapping):
        """Evaluate with each variable replaced per ``mapping``; always a DiffRatFunc."""
        return _substitute_into(self, mapping)

    def __eq__(self, other):
        if isinstance(other, (DiffPoly, DiffRatFunc)):
            o_base, o_vars = _ring_of(other)
            if self.base != o_base or self.variables != o_vars:
                return False
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if self.num.terms == b.num.terms and self.den.terms == b.den.terms:
            return True
        return (self.num * b.den) == (b.num * self.den)

    __hash__ = _Fraction.__hash__

    def _hash_key(self):
        if len(self.variables) <= 1:
            return self.num, self.den
        # in several variables only monomial content is cancelled, so equal
        # fractions may differ by a common factor: only the ring is invariant
        return self.base, self.variables

    def __repr__(self):
        return f"<diffratfunc {self}>"

    def __str__(self):
        if self.den.is_constant() and (self.den.constant_coefficient() - self.base.one()).is_zero():
            return str(self.num)
        return ratio_str(str(self.num), str(self.den))


def _single_variable(p, q):
    used = set()
    for poly in (p, q):
        used |= poly.used_variables()
    if len(used) > 1:
        return None
    if not used:
        return p.variables[0] if p.variables else None
    return used.pop()


def univar_dense(p, name):
    """Coefficient list (lowest first) of a DiffPoly univariate in ``name``."""
    i = p._var_index(name)
    n = p.degree_in(name)
    out = [p.base.zero() for _ in range(n + 1)]
    for e, c in p.terms.items():
        out[e[i]] = out[e[i]] + c
    return out


def to_unipoly(p, name):
    """The DiffPoly ``p``, univariate in ``name``, as a UniPoly over its field."""
    dense = univar_dense(p, name) if p.variables else [p.constant_coefficient()]
    return UniPoly(p.base.field, dense)


def from_unipoly(u, base, variables, name):
    """The UniPoly ``u`` as a DiffPoly in ``name``; the inverse of ``to_unipoly``."""
    return dense_to_diffpoly(base, variables, name, [base.coerce(c) for c in u.coeffs])


def dense_to_diffpoly(base, variables, name, coeffs):
    i = tuple(variables).index(name)
    terms = {}
    for k, c in enumerate(coeffs):
        e = [0] * len(variables)
        e[i] = k
        terms[tuple(e)] = c
    return DiffPoly(base, variables, terms)


def _reduce_fraction(num, den):
    base, variables = num.base, num.variables
    if num.is_zero():
        return num, DiffPoly.const(base, variables, 1)
    name = _single_variable(num, den)
    if name is not None and variables and base.var is None and base.field is None:
        # over Q, UniPoly's gcd and division run on integers
        a, b = to_unipoly(num, name), to_unipoly(den, name)
        g = poly_gcd(a, b)
        if g.degree > 0:
            num = from_unipoly(a // g, base, variables, name)
            den = from_unipoly(b // g, base, variables, name)
    elif name is not None and variables:
        a = univar_dense(num, name)
        b = univar_dense(den, name)
        g = dense_gcd(a, b)
        if len(g) > 1:
            # g is monic, so the inverse of its leading coefficient is 1
            one = base.one()
            num = dense_to_diffpoly(base, variables, name, dense_divmod(a, g, one)[0])
            den = dense_to_diffpoly(base, variables, name, dense_divmod(b, g, one)[0])
    else:
        # multivariate: cancel common monomial content only
        def content(p):
            it = iter(p.terms)
            m = list(next(it))
            for e in it:
                m = [min(x, y) for x, y in zip(m, e)]
            return m

        cn, cd = content(num), content(den)
        shift = [min(x, y) for x, y in zip(cn, cd)]
        if any(shift):
            num = DiffPoly(base, variables, {
                tuple(x - s for x, s in zip(e, shift)): c for e, c in num.terms.items()
            })
            den = DiffPoly(base, variables, {
                tuple(x - s for x, s in zip(e, shift)): c for e, c in den.terms.items()
            })
    lead = den.leading_coefficient()
    inv = lead.inverse()
    num = num * inv
    den = den * inv
    return num, den


# ---------------------------------------------------------------------------
# the substitution engine: unreduced (numerator, denominator) pairs
#
# Substitution, and differentiation through chain rules, work on *unreduced*
# numerator/denominator pairs of DiffPoly: every intermediate step is plain
# polynomial arithmetic, and each caller reduces (or cross-multiplies) once
# at the end.  Reducing along the way looks cleaner but triggers severe
# coefficient blowup in the gcds.

def as_pair(value):
    """A DiffPoly or DiffRatFunc as a (numerator, denominator) pair."""
    if isinstance(value, DiffRatFunc):
        return value.num, value.den
    return value, DiffPoly.const(value.base, value.variables, 1)


def pair_add(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def pair_sub(a, b):
    return a[0] * b[1] - b[0] * a[1], a[1] * b[1]


def pair_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def cleared_pair(value, pairs):
    """Evaluate ``value`` at per-variable (num, den) pairs, denominators cleared.

    ``value`` is a DiffPoly or DiffRatFunc; ``pairs`` maps its variables
    to pairs of one target ring.  Exponents are homogenized against the
    per-variable maximum degree, so the result is a single unreduced pair
    and no rational arithmetic is needed on the way.
    """
    if isinstance(value, DiffRatFunc):
        top = cleared_pair(value.num, pairs)
        bot = cleared_pair(value.den, pairs)
        return top[0] * bot[1], top[1] * bot[0]
    variables = value.variables
    some = next(iter(pairs.values()))
    t_base, t_vars = some[0].base, some[0].variables
    one = DiffPoly.const(t_base, t_vars, 1)
    maxdeg = [0] * len(variables)
    for e in value.terms:
        for i, k in enumerate(e):
            maxdeg[i] = max(maxdeg[i], k)
    num_pows, den_pows = [], []
    for i, v in enumerate(variables):
        if maxdeg[i] == 0 or v not in pairs:
            num_pows.append(None)
            den_pows.append(None)
            continue
        n, d = pairs[v]
        npow, dpow = [one], [one]
        for _ in range(maxdeg[i]):
            npow.append(npow[-1] * n)
            dpow.append(dpow[-1] * d)
        num_pows.append(npow)
        den_pows.append(dpow)
    total = DiffPoly.zero(t_base, t_vars)
    for e, c in value.terms.items():
        term = DiffPoly.const(t_base, t_vars, c)
        for i, k in enumerate(e):
            if maxdeg[i] == 0:
                continue
            if num_pows[i] is None:
                raise ArityMismatch(f"no assignment for variable {variables[i]!r}")
            term = term * num_pows[i][k] * den_pows[i][maxdeg[i] - k]
        total = total + term
    den = one
    for i in range(len(variables)):
        if den_pows[i] is not None:
            den = den * den_pows[i][maxdeg[i]]
    return total, den


def _substitute_into(value, mapping):
    """The one body of ``DiffPoly.substitute`` and ``DiffRatFunc.substitute``."""
    values = {v: mapping[v] for v in value.variables if mapping.get(v) is not None}
    if not values:
        raise UnknownVariable("substitution mapping is empty")
    for p in (value,) if isinstance(value, DiffPoly) else (value.num, value.den):
        for e in p.terms:
            for v, k in zip(p.variables, e):
                if k and v not in values:
                    raise UnknownVariable(f"no substitution value for variable {v!r}")
    num, den = cleared_pair(value, {v: as_pair(h) for v, h in values.items()})
    if den.is_zero():
        raise DenominatorVanishesIdentically(
            "substitution makes the denominator vanish identically"
        )
    if isinstance(value, DiffPoly) and all(isinstance(h, DiffPoly) for h in values.values()):
        return num
    return DiffRatFunc(num, den)


# ---------------------------------------------------------------------------
# module-level operations

def coeff_derivation(p):
    """P with the base derivation applied to its coefficients."""
    return p.coeff_derivation()


def substitute(f, h):
    """Exact composition f(h) of univariate rational differential functions.

    ``f`` must involve at most one ring variable; ``h`` replaces it.
    """
    if isinstance(f, DiffPoly):
        f = DiffRatFunc.from_poly(f)
    used = f.num.used_variables() | f.den.used_variables()
    if len(used) > 1:
        raise UnknownVariable("composition requires a univariate function")
    if not used:
        return f
    name = used.pop()
    return f.substitute({name: h})


def substitute_cleared(f_num, f_den, r, s, d=2):
    """The cleared composition f(R/S) * S^d as a reduced rational function.

    ``f_num``/``f_den`` and ``r``/``s`` are UniPoly over one field; the
    caller picks the clearing power ``d``.  With d = 2 this is the form
    whose polynomiality a one-rule chain presentation needs: writing the
    result as N/D, the rule f(R/S) * S^2 / W is a polynomial exactly when
    D*W divides N.  The powers of ``r`` and ``s`` are tabulated once per
    call.
    """
    if f_den.is_zero():
        raise DivisionByZero("f has a zero denominator")
    top = max(f_num.degree, f_den.degree, 0)
    rpow = [UniPoly.const(1, r.field)]
    spow = [UniPoly.const(1, r.field)]
    for _ in range(top):
        rpow.append(rpow[-1] * r)
        spow.append(spow[-1] * s)

    def homog(a):
        deg = max(a.degree, 0)
        out = UniPoly.zero(r.field)
        for i, c in enumerate(a.coeffs):
            if not c.is_zero():
                out = out + rpow[i] * spow[deg - i] * c
        return out

    atilde = homog(f_num)
    btilde = homog(f_den)
    e = f_den.degree - f_num.degree + d
    if e >= 0:
        return RatFunc(atilde * s ** e, btilde)
    return RatFunc(atilde, btilde * s ** (-e))


# ---------------------------------------------------------------------------
# differential polynomials in one indeterminate u and its derivatives

class DiffIndeterminateExpr:
    """Polynomial in u, u', u'', ... with base-field coefficients.

    Term keys are exponent tuples indexed by derivative order.  The
    total formal derivative D sends u^(j) to u^(j+1) and applies the
    base derivation to coefficients.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base, terms):
        clean = {}
        for e, c in terms.items():
            if not c.is_zero():
                e = tuple(e)
                while e and not e[-1]:
                    e = e[:-1]
                cur = clean.get(e)
                clean[e] = c if cur is None else cur + c
        self.base = base
        self.terms = {e: c for e, c in clean.items() if not c.is_zero()}

    @staticmethod
    def const(base, c):
        return DiffIndeterminateExpr(base, {(): base.coerce(c)})

    @staticmethod
    def u(base, order=0):
        e = (0,) * order + (1,)
        return DiffIndeterminateExpr(base, {e: base.one()})

    def order(self):
        """Largest derivative order appearing (-1 for a constant expression)."""
        top = -1
        for e in self.terms:
            if e:
                top = max(top, len(e) - 1)
        return top

    def coefficient_of_top(self):
        """Coefficient of the monomial u^(order) alone."""
        n = self.order()
        if n < 0:
            return self.base.zero()
        key = (0,) * n + (1,)
        return self.terms.get(key, self.base.zero())

    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, DiffIndeterminateExpr):
            return other
        return DiffIndeterminateExpr.const(self.base, other)

    def __add__(self, other):
        b = self._coerce(other)
        out = dict(self.terms)
        for e, c in b.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return DiffIndeterminateExpr(self.base, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffIndeterminateExpr(self.base, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        b = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in b.terms.items():
                n = max(len(e1), len(e2))
                e = tuple(
                    (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                    for i in range(n)
                )
                c = c1 * c2
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return DiffIndeterminateExpr(self.base, out)

    __rmul__ = __mul__

    def total_derivative(self):
        """D: shift u^(j) -> u^(j+1) by Leibniz, derive coefficients."""
        out = DiffIndeterminateExpr(self.base, {})
        for e, c in self.terms.items():
            dc = self.base.derive(c)
            if not dc.is_zero():
                out = out + DiffIndeterminateExpr(self.base, {e: dc})
            for j, k in enumerate(e):
                if not k:
                    continue
                ne = list(e) + [0] * (j + 2 - len(e))
                ne[j] -= 1
                ne[j + 1] += 1
                out = out + DiffIndeterminateExpr(
                    self.base, {tuple(ne): c * k}
                )
        return out

    def __eq__(self, other):
        b = self._coerce(other)
        return self.terms == b.terms

    def __hash__(self):
        if self.order() < 0:
            return hash(self.terms.get((), 0))
        return hash((self.base, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<u-expr {self}>"

    def __str__(self):
        ordered = sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        return signed_sum(
            self.base.term_str(c, monomial_str(["u" + "'" * j for j in range(len(e))], e))
            for e, c in ordered
        )


def riccati_reduce(coeffs, base):
    """Order-(n-1) equation satisfied by u = y'/y for a monic linear ODE.

    ``coeffs`` lists a_0 .. a_n of y^(n) + a_(n-1) y^(n-1) + ... + a_0 y,
    with a_n = 1.  Uses the recursion r_0 = 1, r_(k+1) = D(r_k) + u*r_k
    and returns the sum of a_k * r_k.
    """
    coeffs = [base.coerce(c) for c in coeffs]
    if len(coeffs) < 2:
        raise NotMonic("a linear equation needs order >= 1")
    if not (coeffs[-1] - base.one()).is_zero():
        raise NotMonic("leading coefficient must be 1")
    u = DiffIndeterminateExpr.u(base)
    r = DiffIndeterminateExpr.const(base, 1)
    total = DiffIndeterminateExpr(base, {})
    for a in coeffs[:-1]:
        total = total + DiffIndeterminateExpr(base, {e: a * c for e, c in r.terms.items()})
        r = r.total_derivative() + u * r
    return total + r
