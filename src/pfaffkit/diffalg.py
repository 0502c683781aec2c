"""Differential polynomial algebra over a base differential field.

The base field is either a field of constants K (derivation zero) or
K(t) with d/dt; multivariate differential polynomials carry the
coefficient derivation.  Also home to the rational-function coefficient
type, the logarithmic-derivative (Riccati-style) reduction of a monic
linear equation, and exact composition of univariate rational
functions.  ``_reduce_fraction`` reduces every differential rational
function: in one variable by ``poly_gcd`` on ``UniPoly`` over the
constants, and over K(t) by the subresultant kernel
``exactfield.subresultant_gcd`` in K[t][y], once the t-denominators are
cleared; in several variables by cancelling the common monomial content.

``RatFunc`` and ``DiffRatFunc`` share their field operations through the
base class ``_Fraction``.  Printing is ``exactfield``'s term printer, with
``BaseDiffField.term_str`` rendering one coefficient times a monomial.
``sole_variable`` is the one rule for the variable of an equation: the
variable its right-hand side uses, else its ring's first one, and
ArityMismatch when it uses several.

Substitution has one engine: ``cleared_pair`` evaluates a differential
polynomial or fraction at (numerator, denominator) pairs and returns one
unreduced pair, without any gcd; ``as_pair`` gives a value as such a
pair.  Each caller reduces once at the end: ``DiffPoly.substitute`` and
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
    dense_exact_quotient,
    monomial_str,
    not_single_factor,
    poly_gcd,
    power,
    product_str,
    ratio_str,
    scalar_display_negative,
    scalar_term,
    signed_sum,
    subresultant_gcd,
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

    @classmethod
    def _reduced(cls, num, den):
        """``num/den`` as given, for sides already in ``__init__``'s normal form."""
        f = cls.__new__(cls)
        f.num = num
        f.den = den
        return f

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
        # gcd(a^n, b^n) = 1 when gcd(a, b) = 1, and a leading coefficient 1 stays 1
        return self._reduced(self.num ** n, self.den ** n)

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
    is structural.  It is the element type of K(t), with ``derivative``
    as d/dt.
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

    def _same_ring(self, other):
        # a ring's polynomials share their base object unless one was
        # built apart; only then does the dataclass ``==`` run
        return (
            (self.base is other.base or self.base == other.base)
            and self.variables == other.variables
        )

    def _check_ring(self, other):
        if not self._same_ring(other):
            raise FieldMismatch("differential polynomials from different rings")

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            # the same base object and variables need no further check
            if other.base is not self.base or other.variables != self.variables:
                self._check_ring(other)
            return other
        try:
            return DiffPoly.const(self.base, self.variables, other)
        except FieldMismatch:
            return None

    def _with_terms(self, terms):
        """A polynomial of this ring from ``terms`` as they are: tuple keys
        and nonzero coefficients, without ``__init__``'s pass over them."""
        p = DiffPoly.__new__(DiffPoly)
        p.base = self.base
        p.variables = self.variables
        p.terms = terms
        return p

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in b.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return self._with_terms({e: c for e, c in out.items() if not c.is_zero()})

    __radd__ = __add__

    def __neg__(self):
        # the negation of a nonzero coefficient is nonzero: the keys stay
        return self._with_terms({e: -c for e, c in self.terms.items()})

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
        one_variable = len(self.variables) == 1
        for e1, c1 in self.terms.items():
            for e2, c2 in b.terms.items():
                if one_variable:
                    e = (e1[0] + e2[0],)
                else:
                    e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return self._with_terms({e: c for e, c in out.items() if not c.is_zero()})

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
            return self._same_ring(other) and self.terms == other.terms
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.terms == b.terms

    def __hash__(self):
        # a constant equals its value under ``==``, so it hashes as the value;
        # in several variables a fraction not reduced to this polynomial may
        # equal it, and hashes by the ring
        if self.is_constant():
            return hash(self.constant_coefficient())
        if len(self.variables) > 1:
            return hash((self.base, self.variables))
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
        return DiffRatFunc._reduced(p, DiffPoly.const(p.base, p.variables, 1))

    @property
    def base(self):
        return self.num.base

    @property
    def variables(self):
        return self.num.variables

    def as_polynomial(self):
        """The numerator when the denominator is constant, else None.

        A constant denominator has been normalised to 1 by ``_reduce_fraction``.
        """
        return self.num if self.den.is_constant() else None

    def used_variables(self):
        """The ring variables that occur in the numerator or the denominator."""
        return self.num.used_variables() | self.den.used_variables()

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
            if self.base != other.base or self.variables != other.variables:
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
        # fractions may differ by a common factor: a fraction equal to a
        # number hashes as that number, any other only by its ring
        c = self.num.leading_coefficient()
        if self.num == self.den * c:
            return c
        return self.base, self.variables

    def __repr__(self):
        return f"<diffratfunc {self}>"

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        return ratio_str(str(self.num), str(self.den))


def sole_variable(f, default=None):
    """The one ring variable a DiffPoly or DiffRatFunc uses.

    When f uses none, the ring's first variable, or ``default`` in a ring
    without variables; ArityMismatch when f uses more than one.
    """
    used = f.used_variables()
    if len(used) > 1:
        raise ArityMismatch(
            f"expected a function of one variable, not of {', '.join(sorted(used))}"
        )
    if used:
        return used.pop()
    return f.variables[0] if f.variables else default


def renamed(f, name, new):
    """``f``, a DiffPoly or DiffRatFunc using no variable but ``name``, in the ring ``(new,)``.

    The exponents of ``name`` carry over as they are.  A rename is a ring
    isomorphism, so the sides of a fraction stay in lowest terms and are
    not reduced again.
    """
    i = f.variables.index(name) if f.variables else None

    def move(p):
        return DiffPoly(p.base, (new,), {(e[i] if e else 0,): c for e, c in p.terms.items()})

    if isinstance(f, DiffPoly):
        return move(f)
    return DiffRatFunc._reduced(move(f.num), move(f.den))


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
    """``num/den`` in lowest terms, the denominator's leading coefficient 1.

    In one variable the common factor is the gcd: ``poly_gcd`` on
    ``UniPoly`` over the constants.  Over K(t) both sides are multiplied by
    the lcm of their t-denominators, so that they lie in K[t][y]; the
    primitive part of their subresultant gcd divides both exactly there,
    and each coefficient of the quotients, over the new denominator's
    leading one, is a reduced ``RatFunc``.  A reduced fraction with that
    normalisation is unique, so each path gives the same result.  In
    several variables only the common monomial content is cancelled.
    """
    base, variables = num.base, num.variables
    if num.is_zero():
        return num, DiffPoly.const(base, variables, 1)
    # a constant side leaves the gcd 1 and the monomial content zero
    if not (num.is_constant() or den.is_constant()):
        used = num.used_variables() | den.used_variables()
        if len(used) > 1:
            shift = [min(col) for col in zip(*num.terms, *den.terms)]
            if any(shift):
                num, den = (DiffPoly(base, variables, {
                    tuple(x - s for x, s in zip(e, shift)): c for e, c in p.terms.items()
                }) for p in (num, den))
        elif base.var is None:
            name = used.pop()
            a, b = to_unipoly(num, name), to_unipoly(den, name)
            g = poly_gcd(a, b)
            if g.degree > 0:
                num = from_unipoly(a // g, base, variables, name)
                den = from_unipoly(b // g, base, variables, name)
        else:
            # over K(t): multiply both sides by the lcm of their t-denominators,
            # so that they lie in K[t][y], and take the gcd there
            name = used.pop()
            i = num._var_index(name)
            common = UniPoly.const(1, base.field)
            for c in (*num.terms.values(), *den.terms.values()):
                if c.den != common and not c.den.is_constant():
                    common = c.den if common.is_constant() else (
                        common * c.den.exact_quotient(poly_gcd(common, c.den)))
            a, b = ([UniPoly.zero(base.field)] * (p.degree_in(name) + 1) for p in (num, den))
            for p, out in ((num, a), (den, b)):
                for e, c in p.terms.items():
                    out[e[i]] = c.num if c.den == common else c.num * common.exact_quotient(c.den)
            g = subresultant_gcd(a, b, UniPoly.exact_quotient)
            if len(g) > 1:
                # the primitive part of the gcd divides both sides in K[t][y]
                content = g[-1]
                for c in g[:-1]:
                    content = poly_gcd(content, c)
                    if content.is_constant():
                        break
                else:
                    g = [c.exact_quotient(content) for c in g]
                a = dense_exact_quotient(a, g, UniPoly.exact_quotient)
                b = dense_exact_quotient(b, g, UniPoly.exact_quotient)
            # over the denominator's leading coefficient, that coefficient is 1
            lead = b[-1]
            return tuple(
                dense_to_diffpoly(base, variables, name, [RatFunc(c, lead) for c in side])
                for side in (a, b)
            )
    lead = den.leading_coefficient()
    if lead != 1:
        inv = lead.inverse()
        num, den = num * inv, den * inv
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
    # a factor equal to one (a zeroth power, a power of a denominator one)
    # is left out of every product
    num_pows, den_pows = [], []
    for i, v in enumerate(variables):
        if maxdeg[i] == 0 or v not in pairs:
            num_pows.append(None)
            den_pows.append(None)
            continue
        n, d = pairs[v]
        unit = d == one
        npow, dpow = [None, n], [None, None if unit else d]
        for _ in range(maxdeg[i] - 1):
            npow.append(npow[-1] * n)
            dpow.append(None if unit else dpow[-1] * d)
        num_pows.append(npow)
        den_pows.append(dpow)
    total = {}
    for e, c in value.terms.items():
        term = None
        for i, k in enumerate(e):
            if maxdeg[i] == 0:
                continue
            if num_pows[i] is None:
                raise ArityMismatch(f"no assignment for variable {variables[i]!r}")
            for factor in (num_pows[i][k], den_pows[i][maxdeg[i] - k]):
                if factor is not None:
                    term = factor if term is None else term * factor
        c = t_base.coerce(c)
        for t_e, t_c in (one if term is None else term).terms.items():
            cur = total.get(t_e)
            total[t_e] = c * t_c if cur is None else cur + c * t_c
    den = one
    for i in range(len(variables)):
        if den_pows[i] is not None and den_pows[i][maxdeg[i]] is not None:
            den = den * den_pows[i][maxdeg[i]]
    return DiffPoly(t_base, t_vars, total), den


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

def substitute(f, h):
    """Exact composition f(h) of univariate rational differential functions.

    ``f`` must involve at most one ring variable; ``h`` replaces it.
    """
    if isinstance(f, DiffPoly):
        f = DiffRatFunc.from_poly(f)
    used = f.used_variables()
    if len(used) > 1:
        raise UnknownVariable("composition requires a univariate function")
    if not used:
        return f
    return f.substitute({used.pop(): h})


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
