import random
from fractions import Fraction

import pytest

import pfaffkit as pk
from pfaffkit.criteria import FactoredRatFunc
from pfaffkit.diffalg import DiffPoly, DiffRatFunc, from_unipoly


@pytest.fixture(scope="session")
def sqrt2():
    return pk.nf_new([-2, 0, 1], name="r")


@pytest.fixture(scope="session")
def cbrt2():
    return pk.nf_new([-2, 0, 0, 1], name="c")


def as_diffratfunc(fr, base, varname="y"):
    """A factored f as a differential fraction in ``varname`` over ``base``."""
    variables = (varname,)
    num = from_unipoly(fr.numerator(), base, variables, varname)
    den = from_unipoly(fr.denominator(), base, variables, varname)
    return DiffRatFunc(num, den)


def is_definite(verdict):
    """True for a yes or a no, False for unknown."""
    return verdict.value != "unknown"


def rand_fraction(rng, span=6, nonzero=False):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def rand_scalar(rng, field, span=6, nonzero=False):
    while True:
        if field is None:
            s = pk.AlgebraicScalar.rational(rand_fraction(rng, span))
        else:
            s = field.scalar(*[rand_fraction(rng, span) for _ in range(field.degree)])
        if not (nonzero and s.is_zero()):
            return s


def rand_unipoly(rng, field, max_deg=4, span=5):
    deg = rng.randint(0, max_deg)
    coeffs = [rand_scalar(rng, field, span) for _ in range(deg + 1)]
    return pk.UniPoly(field, coeffs)


# fields of the rule properties: Q, two integral fields, one whose integer
# defining polynomial 6x^3 + 2x^2 - 3 has a leading coefficient, and two
# more quadratics
RULE_FIELDS = {
    "Q": None,
    "Q(sqrt2)": pk.nf_new([-2, 0, 1]),
    "Q(cbrt2)": pk.nf_new([-2, 0, 0, 1]),
    "Q(cubic denominators)": pk.nf_new([Fraction(-1, 2), 0, Fraction(1, 3), 1]),
    "Q(sqrt3)": pk.nf_new([-3, 0, 1]),
    "Q(i)": pk.nf_new([1, 0, 1]),
}


def rand_one_pole(rng, field):
    """A factored f with one pole location of multiplicity m in 1..3 and at
    most m + 2 zeros (e = m - n + 2 >= 0), so that h = beta + 1/x presents it."""
    beta = rand_scalar(rng, field, 3)
    m = rng.randint(1, 3)
    zeros = {}
    for _ in range(rng.randint(0, m + 2)):
        a = rand_scalar(rng, field, 3)
        if a != beta:
            zeros[a] = zeros.get(a, 0) + 1
    return FactoredRatFunc(
        rand_scalar(rng, field, 3, nonzero=True), tuple(zeros.items()), ((beta, m),)
    )


def rand_diffpoly(rng, base, variables, max_deg=3, max_terms=4, span=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in variables)
        c = base.coerce(rand_fraction(rng, span))
        if base.var is not None and rng.random() < 0.5:
            c = c * base.gen() ** rng.randint(0, 2)
        terms[expo] = c
    return DiffPoly(base, variables, terms) + DiffPoly.zero(base, variables)


def rand_poly(rng, base, names, max_deg=2, max_terms=3):
    """A small random DiffPoly; over Q(theta) with irrational coefficients too."""
    p = rand_diffpoly(rng, base, names, max_deg=max_deg, max_terms=max_terms, span=3)
    if base.field is not None:
        q = rand_diffpoly(rng, base, names, max_deg=max_deg, max_terms=max_terms, span=3)
        p = p + q * base.field.gen()
    return p


def rand_nonzero_poly(rng, base, names, max_deg=2, max_terms=3):
    while True:
        p = rand_poly(rng, base, names, max_deg, max_terms)
        if not p.is_zero():
            return p


def ode(text):
    """Shortcut: parse an order-one equation command string."""
    from pfaffkit.parser import parse_ode_text

    return parse_ode_text(text)


def solve_exact(rows, rhs):
    """Gaussian elimination over exact scalars; returns the solution vector."""
    n = len(rows)
    m = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if not aug[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        assert aug[i][m].is_zero(), "inconsistent linear system"
    sol = [None] * m
    for row, c in enumerate(piv_cols):
        sol[c] = aug[row][m]
    zero = rhs[0] - rhs[0]
    return [s if s is not None else zero for s in sol]
