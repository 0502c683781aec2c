"""Triangular chain certificates and their verification.

A chain is an ordered list of right-hand sides P_1..P_N with P_i a
polynomial (or rational function) in y_1..y_i only; an element is a
(rational) expression in the chain variables.  Closure under the field
operations and derivatives is constructive: derivatives stay inside the
chain, a multiplicative inverse appends exactly one variable.

Certificates are never trusted: ``verify_forward`` recomputes the
derivative of the candidate element through the chain rules and
``verify_backward`` differentiates candidate assignments through a
defining equation.  Both reduce to exact cross-multiplied polynomial
identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    ChainMismatch,
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
    pair_add,
    pair_mul,
    pair_sub,
    substitute_cleared,
    to_unipoly,
)
from .exactfield import AlgebraicScalar, UniPoly, extract_linear_roots, poly_gcd, ratio_str


def _chain_vars(n):
    return tuple(f"y{i + 1}" for i in range(n))


class PfaffianChain:
    """Ordered rules y_i' = P_i(y_1..y_i) over a base differential field.

    ``kind`` is ``"polynomial"`` or ``"rational"``; rules are DiffPoly
    (resp. DiffRatFunc) in the full ring y1..yN.  Chains are immutable;
    extension operations return new chains.
    """

    __slots__ = ("base", "kind", "rules", "variables")

    def __init__(self, base, kind, rules, variables=None):
        self.base = base
        self.kind = kind
        self.rules = tuple(rules)
        self.variables = tuple(variables) if variables is not None else _chain_vars(len(self.rules))

    @property
    def order(self):
        return len(self.rules)

    def validate(self):
        if self.kind not in ("polynomial", "rational"):
            raise MixedKinds(f"unknown chain kind {self.kind!r}")
        for i, rule in enumerate(self.rules):
            if self.kind == "polynomial" and not isinstance(rule, DiffPoly):
                raise MixedKinds(f"rule {i + 1} is not polynomial")
            if self.kind == "rational" and not isinstance(rule, (DiffPoly, DiffRatFunc)):
                raise MixedKinds(f"rule {i + 1} has unsupported type")
            used = rule.used_variables() if isinstance(rule, DiffPoly) else (
                rule.num.used_variables() | rule.den.used_variables()
            )
            for v in used:
                j = self.variables.index(v)
                if j > i:
                    raise TriangularityViolated(i + 1, j + 1)
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
            and all(_rules_equal(a, b) for a, b in zip(self.rules, other.rules))
            and len(self.rules) == len(other.rules)
        )

    def __repr__(self):
        return f"<chain {'; '.join(self.serialize())}>"


def _rules_equal(a, b):
    if isinstance(a, DiffPoly) and isinstance(b, DiffPoly):
        return a == b
    a = a if isinstance(a, DiffRatFunc) else DiffRatFunc.from_poly(a)
    b = b if isinstance(b, DiffRatFunc) else DiffRatFunc.from_poly(b)
    return a == b


@dataclass(frozen=True)
class ChainElement:
    """An expression in the variables of a fixed chain."""

    chain: PfaffianChain
    expr: object  # DiffPoly (polynomial kind) or DiffRatFunc

    def __str__(self):
        return str(self.expr)


class NoetherianSystem:
    """Like a chain but without triangularity: each rule may use all variables."""

    __slots__ = ("base", "rules", "variables")

    def __init__(self, base, rules, variables=None):
        self.base = base
        self.rules = tuple(rules)
        self.variables = tuple(variables) if variables is not None else _chain_vars(len(self.rules))
        for i, rule in enumerate(self.rules):
            if not isinstance(rule, DiffPoly):
                raise MixedKinds(f"rule {i + 1} of a Noetherian system must be polynomial")

    @property
    def order(self):
        return len(self.rules)

    def serialize(self):
        return [f"{v}' = {rule}" for v, rule in zip(self.variables, self.rules)]

    def __repr__(self):
        return f"<noetherian {'; '.join(self.serialize())}>"


def chain_validate(c):
    """Raise TriangularityViolated/MixedKinds unless ``c`` is well formed."""
    return c.validate()


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
    num, den = _derive_pair(e.chain, e.expr)
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
    ).validate()
    return extended, ChainElement(extended, z)


def rational_to_noetherian(p, q):
    """Noetherian system for y' = P(y)/Q(y) via the auxiliary w = 1/Q(y).

    ``p`` and ``q`` are univariate DiffPoly in the equation variable;
    the system's rules are polynomial in (y, w):

        y' = w * P(y)
        w' = -w^3 * P(y) * dQ/dy (y) - w^2 * Q^delta(y)
    """
    if q.is_zero():
        raise ZeroDenominator("Q must be nonzero")
    base = p.base
    yname = p.variables[0] if p.variables else "y"
    variables = (yname, "w")
    P = p.extend(variables) if p.variables else DiffPoly.const(base, variables, p.constant_coefficient())
    Q = q.extend(variables) if q.variables else DiffPoly.const(base, variables, q.constant_coefficient())
    w = DiffPoly.var(base, variables, "w")
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


def _pair_eq(a, b):
    return (a[0] * b[1] - b[0] * a[1]).is_zero()


def _pair_witness(a, b):
    num = a[0] * b[1] - b[0] * a[1]
    den = a[1] * b[1]
    return DiffRatFunc(num, den)


def _derive_pair(chain, expr):
    """D(expr) through the chain rules as one unreduced pair.

    D(p) = sum_i (dp/dy_i) P_i + p^delta for a polynomial p, and the
    quotient rule for a fraction N/D.
    """
    rule_pairs = [as_pair(r) for r in chain.rules]

    def derive_poly(p):
        one = DiffPoly.const(p.base, p.variables, 1)
        acc = (p.coeff_derivation(), one)
        for v, rp in zip(chain.variables, rule_pairs):
            part = p.partial(v)
            if part.is_zero():
                continue
            acc = pair_add(acc, pair_mul((part, one), rp))
        return acc

    if isinstance(expr, DiffPoly):
        return derive_poly(expr)
    N, D = expr.num, expr.den
    one = DiffPoly.const(N.base, N.variables, 1)
    num = pair_sub(pair_mul(derive_poly(N), (D, one)), pair_mul((N, one), derive_poly(D)))
    return num[0], num[1] * D * D


def verify_forward(chain, element, f):
    """Check D(e) = f(e) as an exact identity in the chain's fraction field.

    ``element`` may be a ChainElement or a raw expression; ``f`` is the
    univariate right-hand side of y' = f(y).  Failure carries the
    nonzero difference as a witness.
    """
    chain.validate()
    expr = element.expr if isinstance(element, ChainElement) else element
    lhs = _derive_pair(chain, expr)
    # for a constant f the key is None: nothing is substituted, but the
    # element's pair still gives the ring to evaluate in
    rhs = cleared_pair(f, {_univar_name(f): as_pair(expr)})
    if rhs[1].is_zero():
        return VerifyResult(False, witness="f is undefined at the element")
    if _pair_eq(lhs, rhs):
        return VerifyResult(True)
    return VerifyResult(False, witness=_pair_witness(lhs, rhs))


def _univar_name(f):
    if isinstance(f, DiffPoly):
        used = f.used_variables()
    else:
        used = f.num.used_variables() | f.den.used_variables()
    if len(used) > 1:
        raise ArityMismatch("the defining equation must be univariate")
    return used.pop() if used else None


def verify_backward(g, assignments, system):
    """Check assignments h_i(w) against a system, where w' = g(w).

    For every rule the derivative of h_i computed through the defining
    equation (chain rule plus coefficient derivation) must equal
    P_i(h_1..h_n) as an identity of univariate rational functions.
    """
    rules = system.rules
    if len(assignments) != len(rules):
        raise ArityMismatch(
            f"{len(rules)} rules but {len(assignments)} assignments"
        )
    wname = _univar_name(g)
    if wname is None:
        # constant defining equation: any ring carrying the assignments works
        wname = g.variables[0] if g.variables else "w"
    g_pair = as_pair(g)
    h_pairs = [as_pair(h) for h in assignments]
    pairs = dict(zip(system.variables, h_pairs))
    for i, rule in enumerate(rules):
        N, D = h_pairs[i]
        dN, dD = N.partial(wname), D.partial(wname)
        h_prime = (dN * D - N * dD, D * D)
        h_delta = (
            N.coeff_derivation() * D - N * D.coeff_derivation(),
            D * D,
        )
        lhs = pair_add(pair_mul(h_prime, g_pair), h_delta)
        rhs = cleared_pair(rule, pairs)
        if not _pair_eq(lhs, rhs):
            return VerifyResult(False, index=i + 1, witness=_pair_witness(lhs, rhs))
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# presentation search for y' = f(y) over a constant base

@dataclass(frozen=True)
class PresentationCertificate:
    """A one-rule chain b' = P(b) together with the element h(b) = R(b)/S(b).

    Witnesses that the generic solution of y' = f(y) lives in a
    polynomial chain: with W = R'S - RS' (nonzero since h is
    non-constant) the rule is P = f(h) S^2 / W, which the search only
    accepts when the division is exact.
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
    """Look for a presentation certificate for y' = f(y) over constants.

    Candidates h = R/S come from a fixed catalog built on the visible
    zeros and poles of f (plus 0 and 1) together with user-supplied
    (R, S) pairs.  A candidate is accepted only when its rule
    P = f(h) S^2 / W is a polynomial: with f(h) S^2 = N/D in lowest
    terms (``substitute_cleared``) and W = R'S - RS', that is when D*W
    divides N exactly, and P is the quotient.  This is a semi-decision:
    no bound on chain length exists, so an empty result is *not* a
    refutation.  Every returned certificate has already passed
    ``verify_forward``.
    """
    f = f if isinstance(f, DiffRatFunc) else DiffRatFunc.from_poly(f)
    base = f.base
    if base.var is not None:
        raise NonConstantBase("the presentation search needs a constant base field")
    name = _univar_name(f) or (f.variables[0] if f.variables else "y")
    A = to_unipoly(f.num, name)
    B = to_unipoly(f.den, name)
    field = A.field

    points = {AlgebraicScalar.rational(0).lift(field), AlgebraicScalar.rational(1).lift(field)}
    for poly in (A, B):
        roots, _ = extract_linear_roots(poly)
        for root, _mult in roots:
            points.add(root)
    points = sorted(points, key=str)

    x = UniPoly.x(field)
    one = UniPoly.const(1, field)
    catalog = [(x, one), (one, x)]
    for c in points:
        cpoly = UniPoly.const(c, field)
        catalog.append((x + cpoly, one))
        catalog.append((x - cpoly, one))
        catalog.append((one, x - cpoly))
    for c in points:
        for d in points:
            if c == d:
                continue
            catalog.append((x - UniPoly.const(c, field), x - UniPoly.const(d, field)))
    catalog.append((x * x, one))
    catalog.append((one, x * x))
    for r, s in candidates:
        catalog.append((r, s))

    seen = set()
    for r, s in catalog:
        if s.is_zero():
            continue
        g = poly_gcd(r, s)
        if g.degree > 0:
            r, s = r // g, s // g
        key = (tuple(r.nums), r.den, tuple(s.nums), s.den)
        if key in seen:
            continue
        seen.add(key)
        if max(r.degree, s.degree) > degree_bound:
            continue
        w = r.derivative() * s - r * s.derivative()
        if w.is_zero():
            continue  # h constant: not a presentation
        p = _presentation_rule(A, B, r, s, w)
        if p is None:
            continue
        cert = _build_certificate(base, r, s, p, f, name)
        if cert is not None:
            return cert
    return None


def _presentation_rule(A, B, r, s, w):
    """The rule P = f(R/S) S^2 / W for f = A/B, or None when it is not a polynomial.

    f(R/S) S^2 = N/D in lowest terms, so P is a polynomial exactly when
    D*W divides N; the degrees rule most candidates out before dividing.
    """
    cleared = substitute_cleared(A, B, r, s, d=2)
    num, den = cleared.num, cleared.den
    if not num.is_zero() and num.degree < den.degree + w.degree:
        return None
    p, rem = divmod(num, den * w)
    return p if rem.is_zero() else None


def _build_certificate(base, r, s, p, f, name):
    variables = ("y1",)
    rule = from_unipoly(p, base, variables, "y1")
    chain = PfaffianChain(base, "polynomial", (rule,), variables).validate()
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
