"""Chain certificates and their verification.

``PfaffianChain`` holds every rule system, checked when it is built, in
one of three kinds: a polynomial or rational chain has right-hand sides
P_1..P_N with P_i in y_1..y_i only; a Noetherian (unconstrained) system
has polynomial rules that may use every variable.  An element is a
(rational) expression in the chain variables.  Closure under the field
operations and derivatives is constructive: derivatives stay inside the
chain, a multiplicative inverse appends exactly one variable.

Certificates are never trusted: ``verify_forward`` recomputes the
derivative of the candidate element through the chain rules and
``verify_backward`` differentiates candidate assignments through the one
rule of a defining equation.  Both take that derivative from
``_derive_pair`` and decide it with ``_compare``: pairs equal term by
term pass as they are, any others by one cross-multiplied polynomial
identity.

The presentation search reads off the poles of f = A/B whether some
h = R/S presents y' = f(y) by one rule (``pole_case``): none does with
two pole locations, or with one when deg A > deg B + 2; otherwise h = x
(no pole) or h = beta + 1/x (one pole location beta) does.  Each pair
is decided by one exact division of the pair
``exactfield.homogenized_pair`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
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
from .diffalg import (
    DiffPoly,
    DiffRatFunc,
    as_pair,
    cleared_pair,
    from_unipoly,
    renamed,
    sole_variable,
    to_unipoly,
)
from .exactfield import (
    UniPoly,
    homogenized_pair,
    poly_gcd,
    ratio_str,
)


def _chain_vars(n):
    return tuple(f"y{i + 1}" for i in range(n))


class PfaffianChain:
    """Ordered rules v_i' = P_i over a base differential field, checked when built.

    ``kind`` is ``"polynomial"`` (DiffPoly rules), ``"rational"`` (DiffPoly
    or DiffRatFunc rules) or ``"noetherian"`` (DiffPoly rules that may use
    every variable); the first two are triangular, P_i in v_1..v_i only.
    Every rule lives in the ring ``variables`` over the field ``base``,
    one distinct variable per rule.  Chains are read-only; extension
    operations return new chains.
    """

    __slots__ = ("base", "kind", "rules", "variables")

    def __init__(self, base, kind, rules, variables=None):
        rules = tuple(rules)
        variables = tuple(variables) if variables is not None else _chain_vars(len(rules))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "variables", variables)
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"a chain is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a chain is read-only: cannot delete {name!r}")

    @property
    def order(self):
        return len(self.rules)

    def validate(self):
        """Raise MixedKinds, ArityMismatch, FieldMismatch or TriangularityViolated unless well formed.

        Returns the chain.
        """
        kind, variables = self.kind, self.variables
        if kind not in _RULE_TYPES:
            raise MixedKinds(f"unknown chain kind {kind!r}")
        if len(set(variables)) != len(variables) or len(variables) != len(self.rules):
            raise ArityMismatch(
                f"{len(self.rules)} rules need as many distinct variables, not {variables}"
            )
        types, unfit = _RULE_TYPES[kind]
        for i, rule in enumerate(self.rules, 1):
            if not isinstance(rule, types):
                raise MixedKinds(unfit.format(i))
            if rule.variables != variables:
                raise ArityMismatch(f"rule {i} is not in the ring {variables}")
            if rule.base != self.base:
                raise FieldMismatch(f"rule {i} is over {rule.base}, not the chain's base {self.base}")
            if kind == "noetherian":
                continue
            for v in rule.used_variables():
                j = variables.index(v) + 1
                if j > i:
                    raise TriangularityViolated(i, j)
        return self

    def element(self, expr):
        return ChainElement(self, expr)

    def serialize(self):
        """Rule strings in the expression grammar, one per variable."""
        return [f"{v}' = {rule}" for v, rule in zip(self.variables, self.rules)]

    def __eq__(self, other):
        return (
            isinstance(other, PfaffianChain)
            and self.base == other.base
            and self.kind == other.kind
            and self.variables == other.variables
            and self.rules == other.rules
        )

    def __hash__(self):
        return hash((self.base, self.kind, self.variables, self.rules))

    def __repr__(self):
        return f"<{self.kind} chain {'; '.join(self.serialize())}>"


# the rule types each kind admits, and the message for a rule of another type
_RULE_TYPES = {
    "polynomial": (DiffPoly, "rule {} is not polynomial"),
    "rational": ((DiffPoly, DiffRatFunc), "rule {} has unsupported type"),
    "noetherian": (DiffPoly, "rule {} of a Noetherian system must be polynomial"),
}


@dataclass(frozen=True)
class ChainElement:
    """An expression in the variables of a fixed chain."""

    chain: PfaffianChain
    expr: object  # DiffPoly (polynomial kind) or DiffRatFunc

    def __str__(self):
        return str(self.expr)


class NoetherianSystem(PfaffianChain):
    """A chain of kind ``"noetherian"``: each rule may use all variables."""

    def __init__(self, base, rules, variables=None):
        super().__init__(base, "noetherian", rules, variables)


def combine(e1, e2, op):
    """Sum or product of two elements of one chain (no new variables)."""
    if e1.chain is not e2.chain and e1.chain != e2.chain:
        raise ChainMismatch("elements of different chains cannot be combined")
    if op == "+":
        return ChainElement(e1.chain, e1.expr + e2.expr)
    if op in ("*", "x"):
        return ChainElement(e1.chain, e1.expr * e2.expr)
    raise ValueError(f"unsupported combination {op!r}")


def total_derivative(e):
    """D(e) as an element of the same chain; never extends the chain."""
    if e.chain.kind != "polynomial":
        raise MixedKinds("derivative closure is defined for polynomial chains only")
    num, den = _derive_pair(zip(e.chain.variables, e.chain.rules), e.expr)
    return ChainElement(e.chain, num if isinstance(e.expr, DiffPoly) else DiffRatFunc(num, den))


def invert_element(e):
    """Chain extension computing 1/e: appends z with z' = -z^2 D(e)."""
    if e.chain.kind != "polynomial":
        raise MixedKinds("inverse closure is defined for polynomial chains only")
    if not isinstance(e.expr, DiffPoly):
        raise MixedKinds("inverse closure is defined for polynomial elements only")
    if e.expr.is_zero():
        raise ZeroElement("cannot invert the zero element")
    chain = e.chain
    new_vars = chain.variables + (f"y{chain.order + 1}",)
    z = DiffPoly.var(chain.base, new_vars, new_vars[-1])
    de = total_derivative(e).expr.extend(new_vars)
    new_rule = -(z * z) * de
    extended = PfaffianChain(
        chain.base,
        "polynomial",
        [r.extend(new_vars) for r in chain.rules] + [new_rule],
        new_vars,
    )
    return extended, ChainElement(extended, z)


def rational_to_noetherian(p, q):
    """Noetherian system for y' = P(y)/Q(y) via the auxiliary w = 1/Q(y).

    ``p`` and ``q`` are DiffPoly of one ring that use at most one
    variable, the equation variable; the system's rules are polynomial
    in (y, w), with the auxiliary named v when the equation variable is w:

        y' = w * P(y)
        w' = -w^3 * P(y) * dQ/dy (y) - w^2 * Q^delta(y)
    """
    if q.is_zero():
        raise ZeroDenominator("Q must be nonzero")
    base = p.base
    # a nonzero product uses every variable that either side uses
    yname = sole_variable(q if p.is_zero() else p * q, default="y")
    variables = (yname, "v" if yname == "w" else "w")
    P, Q = (renamed(x, yname, yname).extend(variables) for x in (p, q))
    w = DiffPoly.var(base, variables, variables[1])
    qprime = Q.partial(yname)
    qdelta = Q.coeff_derivation()
    rule_y = w * P
    rule_w = -(w ** 3) * P * qprime - (w ** 2) * qdelta
    return NoetherianSystem(base, (rule_y, rule_w), variables)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    index: int | None = None
    witness: object = None

    def __bool__(self):
        return self.ok


def _derive_pair(rules, expr):
    """D(expr) through the rules v' = n_v/e_v, given as (v, rule) pairs, as one unreduced pair.

    For expr = N/D (D = 1 for a polynomial), with W_v = N_v D - N D_v
    (N_v the partial derivative in v) and W_delta the same with the
    coefficient derivation,

        D(N/D) = (W_delta E + sum_v W_v n_v E/e_v) / (E D^2),

    E the product of the e_v other than 1.  A polynomial takes W_v = N_v
    and no D^2.
    """
    N, D = as_pair(expr)
    poly = isinstance(expr, DiffPoly)

    def quotient_rule(dn, dd):
        return dn if poly else dn * D - N * dd

    dn, dd = N.coeff_derivation(), D.coeff_derivation()
    # W_delta is left out when both derivatives are zero, as over constants
    num = dn if dn.is_zero() and dd.is_zero() else quotient_rule(dn, dd)
    E = None
    for v, rule in rules:
        wv = quotient_rule(N.partial(v), D.partial(v))
        if wv.is_zero():
            continue
        n, e = as_pair(rule)
        term = wv * n if E is None else wv * n * E
        if not e.is_constant():
            num, E = num * e, e if E is None else E * e
        num = term if num.is_zero() else num + term
    den = D if poly else D * D
    return num, den if E is None else E * den


def _compare(lhs, rhs, index, undefined):
    """The verdict on lhs = rhs for two pairs, from one cross-multiplied difference.

    A zero rhs denominator fails with the witness ``undefined``.  Pairs
    equal term by term pass without a product; otherwise a nonzero
    difference fails with it over the product of the denominators.
    """
    if rhs[1].is_zero():
        return VerifyResult(False, index, undefined)
    if lhs[0] == rhs[0] and lhs[1] == rhs[1]:
        return VerifyResult(True)
    diff = lhs[0] * rhs[1] - rhs[0] * lhs[1]
    if diff.is_zero():
        return VerifyResult(True)
    return VerifyResult(False, index, DiffRatFunc(diff, lhs[1] * rhs[1]))


def verify_forward(chain, element, f):
    """Check D(e) = f(e) as an exact identity in the chain's fraction field.

    ``element`` may be a ChainElement or a raw expression; ``f`` is the
    univariate right-hand side of y' = f(y).  Failure carries the
    nonzero difference as a witness.
    """
    expr = element.expr if isinstance(element, ChainElement) else element
    lhs = _derive_pair(zip(chain.variables, chain.rules), expr)
    # a constant f substitutes nothing, but the element's pair still gives
    # the ring to evaluate in
    rhs = cleared_pair(f, {sole_variable(f): as_pair(expr)})
    return _compare(lhs, rhs, None, "f is undefined at the element")


def verify_backward(g, assignments, system):
    """Check assignments h_i(w) against a system, where w' = g(w).

    For every rule the derivative of h_i through the one rule w' = g(w)
    must equal P_i(h_1..h_n) as an identity of univariate rational
    functions.
    """
    rules = system.rules
    if len(assignments) != len(rules):
        raise ArityMismatch(
            f"{len(rules)} rules but {len(assignments)} assignments"
        )
    # a constant defining equation in no ring: any ring carrying the
    # assignments works
    defining = [(sole_variable(g, default="w"), g)]
    pairs = {v: as_pair(h) for v, h in zip(system.variables, assignments)}
    for i, (h, rule) in enumerate(zip(assignments, rules), 1):
        result = _compare(
            _derive_pair(defining, h), cleared_pair(rule, pairs), i,
            f"rule {i} is undefined at the assignments",
        )
        if not result.ok:
            return result
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# presentation search for y' = f(y) over a constant base

@dataclass(frozen=True)
class PresentationCertificate:
    """A one-rule chain b' = P(b) together with the element h(b) = R(b)/S(b).

    Witnesses that the generic solution of y' = f(y) lives in a
    polynomial chain: the rule is P = f(h) S^2 / W with W = R'S - RS'.
    """

    r: UniPoly
    s: UniPoly
    p: UniPoly
    chain: PfaffianChain
    element: DiffRatFunc

    def h_str(self):
        r = self.r.str("x")
        if self.s == UniPoly.const(1, self.s.field):
            return r
        return ratio_str(r, self.s.str("x"))


def search_presentation(f, candidates=(), degree_bound=3):
    """The presentation certificate for y' = f(y) over constants, or None when none exists.

    ``pole_case`` decides whether some h = R/S presents f.  When one does,
    the caller's (R, S) pairs, in lowest terms and of degree at most
    ``degree_bound``, are tried first, each by the exact division of
    ``_presentation_rule``; then h = x with no pole, or h = beta + 1/x
    with one pole location beta, which always presents f.  None means
    that no one-rule presentation exists; a one-rule presentation is only
    one kind of chain, so None does *not* refute the existence of a
    chain.  Every returned certificate has already passed
    ``verify_forward``.
    """
    f = f if isinstance(f, DiffRatFunc) else DiffRatFunc.from_poly(f)
    base = f.base
    if base.var is not None:
        raise NonConstantBase("the presentation search needs a constant base field")
    name = sole_variable(f, default="y")
    A = to_unipoly(f.num, name)
    B = to_unipoly(f.den, name)
    reason, beta = pole_case(A, B)
    if reason is not None:
        return None
    for r, s in candidates:
        if s.is_zero():
            continue
        g = poly_gcd(r, s)
        if g.degree > 0:
            r, s = r // g, s // g
        if max(r.degree, s.degree) > degree_bound:
            continue
        w = r.derivative() * s - r * s.derivative()
        # W = 0 means h is constant: not a presentation
        p = None if w.is_zero() else _presentation_rule(A, B, r, s, w)
        if p is not None:
            return _build_certificate(base, r, s, p, f, name)
    x, one = UniPoly.x(A.field), UniPoly.const(1, A.field)
    r, s = (x, one) if beta is None else (x * beta + one, x)
    p = _presentation_rule(A, B, r, s, r.derivative() * s - r * s.derivative())
    if p is None:
        raise InternalInvariant(
            f"the pair ({r.str('x')}, {s.str('x')}) that the pole case names "
            "leaves a remainder"
        )
    return _build_certificate(base, r, s, p, f, name)


def pole_case(A, B):
    """Whether some h = R/S presents y' = A(y)/B(y), as (reason, beta).

    ``reason`` is None when one does, or else names why none does;
    ``beta`` is the one pole location, None with no pole or with two.
    For f = A/B and h both in lowest terms, B~ = lc(B) prod_j (R - beta_j S),
    over the roots beta_j of B in an algebraic closure, with
    multiplicity, is coprime to A~ and to S; it divides the dividend of
    ``homogenized_pair`` only when it is a constant.  With two pole
    locations beta_1 != beta_2, both R - beta_1 S and R - beta_2 S would
    be constants, so h would be one.  When e = m - n + 2 < 0, S divides
    the divisor but not A~, which is a_n R^n mod S, so S must be a
    constant; with one pole location beta, R - beta S must be one too,
    so again h would be a constant.  Otherwise h = x (no pole) gives
    P = f, and h = beta + 1/x gives P = -x^(m+2) A(beta + 1/x) / lc(B),
    a polynomial since e >= 0.
    """
    m = B.degree
    if m == 0:
        return None, None
    lead = B.leading()
    # the mean of the roots: B has one root exactly when it is that one
    beta = -B.coeff(m - 1) / (lead * m)
    if B != (UniPoly.x(B.field) - beta) ** m * lead:
        return "two pole locations", None
    e = m - A.degree + 2
    if e < 0:
        return f"one pole location and e = deg B - deg A + 2 = {e} < 0", None
    return None, beta


def _presentation_rule(A, B, r, s, w):
    """The rule P = f(R/S) S^2 / W for f = A/B, or None when it is not a polynomial."""
    p, rem = divmod(*homogenized_pair(A, B, r, s, w, 2))
    return p if rem.is_zero() else None


def _build_certificate(base, r, s, p, f, name):
    variables = ("y1",)
    rule = from_unipoly(p, base, variables, "y1")
    chain = PfaffianChain(base, "polynomial", (rule,), variables)
    rexpr = from_unipoly(r, base, variables, "y1")
    sexpr = from_unipoly(s, base, variables, "y1")
    element = DiffRatFunc(rexpr, sexpr)
    check = verify_forward(chain, element, f)
    if not check.ok:
        raise InternalInvariant(
            "presentation search produced a certificate that fails forward "
            f"verification (witness {check.witness})"
        )
    return PresentationCertificate(r=r, s=s, p=p, chain=chain, element=element)
