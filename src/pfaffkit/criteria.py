"""The verdict engine for order-one and linear equations.

Order-one equations y' = f(y) over a declared exact field: a polynomial f
is its own one-rule chain; for a rational f over constants the poles
decide first (``chains.pole_case``).  Where one rule presents f, the
presentation is the Yes certificate.  Elsewhere f meets the degree
condition of the pole/degree refutation, which runs on the factored form,
guarded by the sufficient residue-ratio disintegration test, and answers
No or Unknown with its reasons.  Linear equations are classified through
their declared symmetry group.

Each No names the violated criterion; each Yes carries a certificate
that has already been re-verified by exact differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateCurve,
    InternalInvariant,
    InvalidFactoredForm,
    ZeroDenominatorData,
)
from .exactfield import (
    AlgebraicScalar,
    UniPoly,
    extract_linear_roots,
    rational_multiple,
)
from .diffalg import (
    DiffPoly,
    DiffRatFunc,
    renamed,
    riccati_reduce,
    sole_variable,
    to_unipoly,
)
from .chains import (
    NoetherianSystem,
    PfaffianChain,
    pole_case,
    rational_to_noetherian,
    search_presentation,
    verify_backward,
)
from .groups import (
    Atom,
    EULERIAN,
    ONE_REDUCIBLE_INTERNAL,
    ThreeValued,
    check_series,
    d_solvable,
    no,
    reducibility_profile,
    unknown,
    yes,
)


# ---------------------------------------------------------------------------
# factored rational functions and residues

@dataclass(frozen=True)
class FactoredRatFunc:
    """f = c * prod (x - alpha_i)^m / prod (x - beta_j)^k, zeros apart from poles."""

    leading: AlgebraicScalar
    zeros: tuple            # ((scalar, multiplicity), ...)
    poles: tuple

    def __post_init__(self):
        if self.leading.is_zero():
            raise InvalidFactoredForm("leading coefficient must be nonzero")
        for _, m in self.zeros + self.poles:
            if m < 1:
                raise InvalidFactoredForm("multiplicities must be >= 1")
        for a, _ in self.zeros:
            for b, _ in self.poles:
                if a == b:
                    raise InvalidFactoredForm(
                        f"zero and pole coincide at {a}; cancel the factor first"
                    )

    @property
    def zero_degree(self):
        return sum(m for _, m in self.zeros)

    @property
    def pole_degree(self):
        return sum(m for _, m in self.poles)

    def distinct_pole_locations(self):
        out = []
        for b, _ in self.poles:
            if b not in out:
                out.append(b)
        return out

    def numerator(self):
        roots = [a for a, m in self.zeros for _ in range(m)]
        return UniPoly.from_roots(roots, self.leading.field, self.leading)

    def denominator(self):
        roots = [b for b, m in self.poles for _ in range(m)]
        return UniPoly.from_roots(roots, self.leading.field)


@dataclass(frozen=True)
class ResidueEntry:
    pole: AlgebraicScalar
    order: int
    residue: AlgebraicScalar | None   # omitted for repeated poles


@dataclass(frozen=True)
class ResidueData:
    """Residues of the form dx/f at the zeros of f, plus the one at infinity."""

    entries: tuple
    at_infinity: AlgebraicScalar
    all_simple: bool


def residues_of_inverse(f):
    """Residue data of dx/f for a factored f.

    At a simple zero a_k the residue of 1/f is 1/f'(a_k), which the
    factored form evaluates as
    prod_j (a_k - b_j)^k / (c * prod_{i != k} (a_k - a_i)^m); repeated
    zeros are reported with their order only.  The contribution at
    infinity comes from the x^-1 coefficient of the exact long division
    of 1/f.
    """
    locations = [a for a, _ in f.zeros]
    for i, a in enumerate(locations):
        for b in locations[i + 1:]:
            if a == b:
                raise ZeroDenominatorData(
                    f"zero {a} listed twice; merge it into one entry with its multiplicity"
                )
    entries = []
    for k, (a, m) in enumerate(f.zeros):
        if m > 1:
            entries.append(ResidueEntry(pole=a, order=m, residue=None))
            continue
        num = AlgebraicScalar.rational(1).lift(f.leading.field)
        for b, mb in f.poles:
            num = num * (a - b) ** mb
        den = f.leading
        for i, (ai, mi) in enumerate(f.zeros):
            if i == k:
                continue
            den = den * (a - ai) ** mi
        entries.append(ResidueEntry(pole=a, order=1, residue=num / den))
    # 1/f = N/D with N the pole product and D = c * zero product
    N = f.denominator()
    D = f.numerator()
    _, rem = divmod(N, D)
    coeff = (rem.coeff(D.degree - 1) / D.leading() if D.degree >= 1
             else AlgebraicScalar.rational(0).lift(f.leading.field))
    at_inf = -coeff
    return ResidueData(
        entries=tuple(entries),
        at_infinity=at_inf,
        all_simple=all(e.order == 1 for e in entries),
    )


def strict_disintegration_test(f):
    """Sufficient test: >= 2 simple poles of dx/f, pairwise irrational ratios.

    Yes certifies that distinct solutions of y' = f(y) satisfy no
    algebraic relations; the condition is sufficient but not necessary,
    so everything else is Unknown, never No.
    """
    data = residues_of_inverse(f)
    if not data.all_simple:
        return unknown(
            "a repeated zero leaves residues uncomputed; the sufficient "
            "residue test needs simple poles"
        )
    if len(data.entries) < 2:
        return unknown("the inverse has fewer than two simple poles")
    residues = [e.residue for e in data.entries]
    for i in range(len(residues)):
        for j in range(i + 1, len(residues)):
            q = rational_multiple(residues[i], residues[j])
            if q is not None:
                return unknown(
                    f"residues at {data.entries[i].pole} and "
                    f"{data.entries[j].pole} have rational ratio {q}"
                )
    return yes(
        witness=(
            f"{len(residues)} simple poles with pairwise irrational residue ratios",
        ),
        payload=data,
    )


def degree_criterion(f):
    """True when two pole locations differ, or 0 < m < n - 2 (degree window)."""
    if len(f.distinct_pole_locations()) >= 2:
        return True
    n, m = f.zero_degree, f.pole_degree
    return 0 < m < n - 2


def not_pfaffian_by_degree_theorem(f):
    """Refutation for y' = f(y): degree obstruction + certified disintegration.

    No(Pfaffian) exactly when the degree criterion holds and the residue
    test certifies strict disintegration; otherwise Unknown.
    """
    dis = strict_disintegration_test(f)
    deg = degree_criterion(f)
    if deg and dis.is_yes:
        return no(
            "degree+disintegration",
            payload={
                "zero_degree": f.zero_degree,
                "pole_degree": f.pole_degree,
                "distinct_poles": len(f.distinct_pole_locations()),
                "disintegration": dis,
            },
        )
    reasons = []
    if not deg:
        reasons.append(
            "degree criterion fails (single pole location and the window "
            f"0 < {f.pole_degree} < {f.zero_degree} - 2 does not hold)"
        )
    if not dis.is_yes:
        reasons.append(f"disintegration test inconclusive: {dis.reason}")
    return unknown("; ".join(reasons))


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    pfaffian: ThreeValued
    rationally_pfaffian: ThreeValued | None = None
    one_reducible: ThreeValued | None = None
    notes: tuple = ()


@dataclass(frozen=True)
class RationalChainCertificate:
    chain: PfaffianChain
    noetherian: NoetherianSystem
    assignments: tuple = ()   # witnesses for the unconstrained system


@dataclass(frozen=True)
class PolynomialChainCertificate:
    chain: PfaffianChain
    element: DiffPoly


def weierstrass_check(g2, g3):
    """Verdict for the elliptic equation (y')^2 = 4y^3 - g2*y - g3.

    Requires 27*g3^2 - g2^3 != 0 (otherwise the curve degenerates and
    this check does not apply).  The symmetry group is then the elliptic
    curve itself: not an allowed quotient for chains, but allowed for
    the 1-reducible alphabet.
    """
    g2 = _coerce_scalar(g2)
    g3 = _coerce_scalar(g3)
    disc = 27 * g3 * g3 - g2 * g2 * g2
    if disc.is_zero():
        raise DegenerateCurve("27*g3^2 - g2^3 = 0: the cubic has a repeated root")
    elliptic_pfaffian = check_series(Atom("Elliptic"), EULERIAN)
    one_red = check_series(Atom("Elliptic"), ONE_REDUCIBLE_INTERNAL)
    return Verdict(
        pfaffian=no("binding group elliptic", payload=elliptic_pfaffian),
        one_reducible=one_red,
        notes=(
            f"27*g3^2 - g2^3 = {disc} is nonzero",
            "an elliptic quotient is outside the chain alphabet but inside "
            "the 1-reducible alphabet",
        ),
    )


def _coerce_scalar(x):
    s = AlgebraicScalar._coerce(x)
    if s is None:
        raise InvalidFactoredForm(f"expected an exact scalar, got {x!r}")
    return s


def extract_factored(f):
    """Factored form of a univariate f over constants, or None.

    Linear factors are recovered by rational-root peeling plus exact
    quadratic splitting; anything left unfactored makes the whole
    extraction unavailable (callers then supply factored input).
    """
    name = sole_variable(f, default="y")
    A = to_unipoly(f.num, name)
    B = to_unipoly(f.den, name)
    if A.is_zero() or B.is_zero():
        return None
    roots_a, rem_a = extract_linear_roots(A)
    if not rem_a.is_constant():
        return None
    roots_b, rem_b = extract_linear_roots(B)
    if not rem_b.is_constant():
        return None
    leading = rem_a.constant_value() / rem_b.constant_value()
    try:
        return FactoredRatFunc(
            leading=leading, zeros=tuple(roots_a), poles=tuple(roots_b)
        )
    except InvalidFactoredForm:
        return None


def classify_order_one(f, factored=None, degree_bound=3, candidates=()):
    """Full cascade for y' = f(y).

    Rationally-Pfaffian is always Yes, certified by the one-rule
    rational chain together with the equivalent unconstrained
    two-variable system, both re-verified here.  The Pfaffian verdict is
    the trivial chain for polynomial f; over constants ``pole_case``
    decides next: a one-rule presentation is the Yes certificate, and only
    without one is f factored (``factored``, else ``extract_factored(f)``)
    for the degree/residue refutation.  A ``factored`` that does not
    multiply out to f raises InvalidFactoredForm.
    """
    f = f if isinstance(f, DiffRatFunc) else DiffRatFunc.from_poly(f)
    base = f.base
    name = sole_variable(f, default="y")
    f = renamed(f, name, name)

    rational_chain = PfaffianChain(base, "rational", (renamed(f, name, "y1"),), ("y1",))
    noeth = rational_to_noetherian(f.num, f.den)
    identity = DiffRatFunc.from_poly(DiffPoly.var(base, (name,), name))
    back = verify_backward(f, [identity], rational_chain)
    inv_q = DiffRatFunc(DiffPoly.const(base, (name,), 1), f.den)
    back2 = verify_backward(f, [identity, inv_q], noeth)
    if not (back.ok and back2.ok):
        raise InternalInvariant("rational-chain certificate failed to re-verify")
    rationally = yes(
        witness=("one-rule rational chain; unconstrained system in (y, w)",),
        payload=RationalChainCertificate(
            chain=rational_chain, noetherian=noeth, assignments=(identity, inv_q)
        ),
    )

    poly = f.as_polynomial()
    if poly is not None:
        variables = ("y1",)
        rule = renamed(poly, name, "y1")
        chain = PfaffianChain(base, "polynomial", (rule,), variables)
        element = DiffPoly.var(base, variables, "y1")
        pfaffian = yes(
            witness=("polynomial right-hand side: the equation is its own chain",),
            payload=PolynomialChainCertificate(chain=chain, element=element),
        )
        return Verdict(pfaffian=pfaffian, rationally_pfaffian=rationally)

    if base.var is not None:
        pfaffian = unknown(
            "the refutation and the presentation search apply over constant "
            "coefficients only"
        )
        return Verdict(pfaffian=pfaffian, rationally_pfaffian=rationally)

    A, B = to_unipoly(f.num, name), to_unipoly(f.den, name)
    if factored is not None and (factored.numerator() != A or factored.denominator() != B):
        raise InvalidFactoredForm("the factored form does not multiply out to f")
    reason, _ = pole_case(A, B)
    if reason is None:
        cert = search_presentation(f, candidates=candidates, degree_bound=degree_bound)
        pfaffian = yes(
            witness=(f"presentation h = {cert.h_str()} with rule {cert.p.str('x')}",),
            payload=cert,
        )
        return Verdict(pfaffian=pfaffian, rationally_pfaffian=rationally)
    fr = factored if factored is not None else extract_factored(f)
    if fr is None:
        stage = "no full linear factorization over the declared field"
    else:
        refute = not_pfaffian_by_degree_theorem(fr)
        if refute.is_no:
            return Verdict(pfaffian=refute, rationally_pfaffian=rationally)
        stage = refute.reason
    pfaffian = unknown(f"{stage}; no one-rule rational presentation: {reason}")
    return Verdict(pfaffian=pfaffian, rationally_pfaffian=rationally)


# ---------------------------------------------------------------------------
# linear equations with a declared symmetry group

@dataclass(frozen=True)
class LinearReport:
    pfaffian: ThreeValued
    min_solvability_d: int | None
    reducibility: object
    logderiv_reduction: object


def classify_linear(coeffs, declared_group, base):
    """Report for a monic linear equation with a declared symmetry group.

    ``coeffs`` lists a_0..a_n of y^(n) + a_(n-1) y^(n-1) + ... + a_0 y = 0.
    The chain verdict is the eulerian series check of the declared
    group; the solvability scan finds the least d <= n with a definite
    yes; for GL(n), n >= 3, the reducibility window is attached.  The
    logarithmic-derivative reduction is always computed, and
    ``riccati_reduce`` rejects an equation that is not monic.
    """
    reduction = riccati_reduce(coeffs, base)
    order = len(coeffs) - 1
    pfaffian = check_series(declared_group, EULERIAN)
    min_d = None
    for d in range(1, order + 1):
        if d_solvable(declared_group, d).is_yes:
            min_d = d
            break
    profile = None
    if isinstance(declared_group, Atom) and declared_group.kind == "GL" and declared_group.n >= 3:
        profile = reducibility_profile(declared_group.n)
    return LinearReport(
        pfaffian=pfaffian,
        min_solvability_d=min_d,
        reducibility=profile,
        logderiv_reduction=reduction,
    )
