"""The printed form of every value, pinned against the printers it replaced.

Certificates leave pfaffkit as text and come back through the parser, so
the print format is one decision.  The ``old_*`` functions below are
test-only copies of the printers that each type used to carry on its
own; the library now prints everything through ``exactfield``'s one term
printer, and these tests hold its output to theirs character for
character, including the known misprint of negative composite constant
terms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfaffkit as pk
from pfaffkit.exactfield import scalar_term
from pfaffkit.diffalg import (
    BaseDiffField,
    DiffIndeterminateExpr,
    DiffPoly,
    DiffRatFunc,
    RatFunc,
)
from pfaffkit.parser import (
    ParseError,
    parse_expression_text,
    parse_field_decl_text,
    parse_fixture_text,
    parse_group_text,
    parse_linear_text,
    parse_ode_text,
    parse_ratfunc_text,
)

from conftest import rand_scalar, rand_unipoly


# ---------------------------------------------------------------------------
# the printers as they were, one copy per type


def old_poly_str_fractions(coords, varname):
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


def old_scalar_str(c):
    return old_poly_str_fractions(c.coords, c.field.name if c.field else "?")


def old_display_negative(c):
    for n in reversed(c.nums):
        if n:
            return n < 0
    return False


def old_coeff_term_str(c, mono):
    neg = old_display_negative(c)
    s = old_scalar_str(-c if neg else c)
    if not mono:
        return neg, s
    if s == "1":
        return neg, mono
    if ("+" in s) or (" - " in s) or s.startswith("-"):
        s = f"({s})"
    return neg, f"{s}*{mono}"


def old_mono_str_uni(varname, i):
    if i == 0:
        return ""
    if i == 1:
        return varname
    return f"{varname}^{i}"


def old_unipoly_str(p, varname):
    if p.is_zero():
        return "0"
    parts = []
    coeffs = p.coeffs
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.is_zero():
            continue
        neg, body = old_coeff_term_str(c, old_mono_str_uni(varname, i))
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def old_ratio_str(num_s, den_s):
    def factor(s):
        if (" + " in s) or (" - " in s) or ("*" in s) or ("/" in s) or s.startswith("-"):
            return f"({s})"
        return s

    return f"{factor(num_s)}/{factor(den_s)}"


def old_ratfunc_str(r, varname):
    if r.den.is_constant():
        return old_unipoly_str(r.num, varname)
    return old_ratio_str(old_unipoly_str(r.num, varname), old_unipoly_str(r.den, varname))


def old_term_str(base, c, mono):
    if base.var is None:
        return old_coeff_term_str(c, mono)
    neg = not c.num.is_zero() and old_display_negative(c.num.leading())
    s = old_ratfunc_str(-c if neg else c, base.var)
    if not mono:
        return neg, s
    if s == "1":
        return neg, mono
    if ("+" in s) or (" - " in s) or ("/" in s) or s.startswith("-") or "*" in s:
        s = f"({s})"
    return neg, f"{s}*{mono}"


def old_signed_join(pairs):
    parts = []
    for neg, body in pairs:
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def old_diffpoly_str(p):
    if p.is_zero():
        return "0"
    pairs = []
    for e, c in p.sorted_terms():
        mono = "*".join((v if k == 1 else f"{v}^{k}") for v, k in zip(p.variables, e) if k)
        pairs.append(old_term_str(p.base, c, mono))
    return old_signed_join(pairs)


def old_diffratfunc_str(f):
    if f.den.is_constant() and (f.den.constant_coefficient() - f.base.one()).is_zero():
        return old_diffpoly_str(f.num)
    return old_ratio_str(old_diffpoly_str(f.num), old_diffpoly_str(f.den))


def old_uexpr_str(u):
    if not u.terms:
        return "0"
    pairs = []
    for e, c in sorted(u.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True):
        mono = "*".join(
            ("u" + "'" * j if k == 1 else "u" + "'" * j + f"^{k}")
            for j, k in enumerate(e)
            if k
        )
        pairs.append(old_term_str(u.base, c, mono))
    return old_signed_join(pairs)


# ---------------------------------------------------------------------------
# seeded values over Q, Q(sqrt2), Q(cbrt2), a quartic field, Q(t) and Q(r)(t)

FIELD_NAMES = ("Q", "sqrt2", "cbrt2", "quartic")
# a field of degree 4, where irreducibility is only asserted: s^4 - s/2 - 1,
# which is 2s^4 - s - 2 over 2, has no rational root and no quadratic factor
# (s^4 - s - 2 has the root -1), and its denominator reaches the printed
# defining polynomial
QUARTIC = pk.nf_new([-1, Fraction(-1, 2), 0, 0, 1], name="s")


@pytest.fixture(params=FIELD_NAMES)
def field(request, sqrt2, cbrt2):
    return {"Q": None, "sqrt2": sqrt2, "cbrt2": cbrt2, "quartic": QUARTIC}[request.param]


def label(field):
    return "Q" if field is None else f"Q({field.name})"


def bases(field):
    return [BaseDiffField.constants(field), BaseDiffField.rational_functions(field, "t")]


def rand_nonzero_unipoly(rng, field, max_deg):
    while True:
        p = rand_unipoly(rng, field, max_deg=max_deg, span=4)
        if not p.is_zero():
            return p


def rand_coeff(rng, base):
    """A base element: a scalar, or a rational function of t with any shape."""
    if base.var is None:
        return rand_scalar(rng, base.field, span=4, nonzero=True)
    num = rand_nonzero_unipoly(rng, base.field, 2)
    den = rand_nonzero_unipoly(rng, base.field, 2) if rng.random() < 0.4 else 1
    return RatFunc(num, den)


def composite_constants(base):
    """Negative composite constants, the shapes that misprint."""
    t = None if base.var is None else base.gen()
    if base.field is None:
        out = [base.coerce(Fraction(-3, 2))]
    else:
        r = base.field.gen()
        out = [base.coerce(-(2 * r + 2)), base.coerce(-(r - Fraction(1, 3)))]
    if t is not None:
        out += [-(t + 1), -(t * t - 2 * t) / (t + 3), (1 - t) / (t + 1)]
    return out


def large_scalar(rng, field):
    """A scalar whose coordinates have numerators and denominators up to 10^12."""
    big = 10 ** 12
    coords = [
        Fraction(rng.randint(-big, big), rng.choice((1, rng.randint(1, big), big - 11)))
        for _ in range(1 if field is None else field.degree)
    ]
    if rng.random() < 0.3:
        coords[rng.randrange(len(coords))] = Fraction(0)
    if field is None:
        return pk.AlgebraicScalar.rational(coords[0])
    return field.scalar(*coords)


def rand_diffpoly(rng, base, variables):
    terms = {}
    extras = composite_constants(base)
    for _ in range(rng.randint(1, 4)):
        expo = tuple(rng.randint(0, 2) for _ in variables)
        terms[expo] = rng.choice(extras) if rng.random() < 0.3 else rand_coeff(rng, base)
    return DiffPoly(base, variables, terms)


def rand_uexpr(rng, base):
    terms = {}
    extras = composite_constants(base)
    for _ in range(rng.randint(1, 4)):
        expo = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        terms[expo] = rng.choice(extras) if rng.random() < 0.3 else rand_coeff(rng, base)
    return DiffIndeterminateExpr(base, terms)


class TestPrintersMatchThePinnedCopies:
    def test_scalars_and_field_names(self, field):
        rng = random.Random(f"print-scalars/{label(field)}")
        for _ in range(60):
            c = rand_scalar(rng, field, span=9)
            assert str(c) == old_scalar_str(c)
        if field is not None:
            old = old_poly_str_fractions(field.minpoly, field.name)
            assert repr(field) == f"NumberField({old})"

    def test_large_scalars_and_their_signed_terms(self, field):
        # coordinates up to 10^12 over large denominators, and the terms
        # that print them without their sign
        rng = random.Random(f"print-large-scalars/{label(field)}")
        for _ in range(60):
            c = large_scalar(rng, field)
            assert str(c) == old_scalar_str(c)
            for mono in ("", "y", "y^2"):
                assert scalar_term(c, mono) == old_coeff_term_str(c, mono)

    def test_unipolys(self, field):
        rng = random.Random(f"print-unipoly/{label(field)}")
        for _ in range(60):
            p = rand_unipoly(rng, field, max_deg=5, span=6)
            assert p.str("x") == old_unipoly_str(p, "x")

    def test_ratfuncs(self, field):
        rng = random.Random(f"print-ratfunc/{label(field)}")
        for _ in range(40):
            r = RatFunc(rand_unipoly(rng, field, 3), rand_nonzero_unipoly(rng, field, 3))
            assert r.str("t") == old_ratfunc_str(r, "t")

    @pytest.mark.parametrize("variables", [("y",), ("y1", "y2")])
    def test_diffpolys_and_fractions(self, field, variables):
        for base in bases(field):
            rng = random.Random(f"print-diffpoly/{label(field)}/{base}/{variables}")
            for _ in range(30):
                p = rand_diffpoly(rng, base, variables)
                assert str(p) == old_diffpoly_str(p)
                q = rand_diffpoly(rng, base, variables)
                if not q.is_zero():
                    f = DiffRatFunc(p, q)
                    assert str(f) == old_diffratfunc_str(f)

    def test_u_expressions(self, field):
        for base in bases(field):
            rng = random.Random(f"print-uexpr/{label(field)}/{base}")
            for _ in range(30):
                u = rand_uexpr(rng, base)
                assert str(u) == old_uexpr_str(u)

    def test_negative_composite_constant_terms_keep_their_misprint(self, sqrt2):
        r = sqrt2.gen()
        y = DiffPoly.var(BaseDiffField.constants(sqrt2), ("y",), "y")
        assert str(y - (2 * r + 2)) == "y - 2*r + 2"
        Kt = BaseDiffField.rational_functions(None, "t")
        t = Kt.gen()
        yt = DiffPoly.var(Kt, ("y",), "y")
        assert str(yt - (t + 1)) == "y - t + 1"
        u = DiffIndeterminateExpr.u(Kt)
        assert str(u - (t + 1)) == "u - t + 1"
        assert pk.UniPoly(sqrt2, [-(2 * r + 2), 1]).str("x") == "x - 2*r + 2"

    def test_long_sum_prints(self):
        y = DiffPoly.var(BaseDiffField.constants(), ("y",), "y")
        p = DiffPoly(y.base, ("y",), {(k,): y.base.coerce(k + 1) for k in range(1500)})
        assert str(p) == old_diffpoly_str(p)


# ---------------------------------------------------------------------------
# print, parse, compare: over Q no misprinting shape exists

_coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_polys = st.lists(_coefficients, min_size=1, max_size=5)


def _diffpoly(cs):
    base = BaseDiffField.constants()
    return DiffPoly(base, ("y",), {(k,): base.coerce(c) for k, c in enumerate(cs)})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_polys, _polys.filter(any))
def test_print_parse_round_trip_over_q(num, den):
    f = DiffRatFunc(_diffpoly(num), _diffpoly(den))
    back = parse_ratfunc_text(str(f)).f
    assert back == f
    assert str(back) == str(f)


# ---------------------------------------------------------------------------
# one message for every trailing token, at the token's line and column

FORWARD = "rule: y1' = -1/2*y1^3\nelement: 1/y1\node: y' = 1/(2*y)\n"
BACKWARD = (
    "var: z\ndefining: w' = w/(z*(1+w))\nassign: y1 = 1/(1+w)\nassign: y2 = w\n"
    "rule: y1' = -(1/z)*(1-y1)*y1^2\nrule: y2' = (1/z)*y1*y2\n"
)

TRAILING = [
    (lambda: parse_expression_text("y1 + 1 )"), "trailing ')'", 1, 8),
    (lambda: parse_field_decl_text("Q(t) x"), "trailing identifier 'x'", 1, 6),
    (
        lambda: parse_ode_text("y' = y over Q(t) x"),
        "trailing identifier 'x' after the field declaration", 1, 18,
    ),
    (lambda: parse_ode_text("y' = y + 1 )"), "trailing ')'", 1, 12),
    (lambda: parse_linear_text("y'' + y = 0 1"), "trailing number 1", 1, 13),
    (lambda: parse_group_text("Prod(Ga, Gm) Gm"), "trailing identifier 'Gm'", 1, 14),
    (
        lambda: parse_fixture_text(FORWARD.replace("y1^3", "y1^3 y1")),
        "trailing identifier 'y1'", 1, 23,
    ),
    (
        lambda: parse_fixture_text(BACKWARD.replace("assign: y2 = w", "assign: y2 = w (w)")),
        "trailing '('", 4, 16,
    ),
    (
        lambda: parse_fixture_text(FORWARD.replace("1/(2*y)", "1/(2*y) 2")),
        "trailing number 2", 3, 19,
    ),
    (
        lambda: parse_fixture_text(BACKWARD.replace("w/(z*(1+w))", "w/(z*(1+w)) 7 junk")),
        "trailing number 7", 2, 28,
    ),
]


@pytest.mark.parametrize(
    "parse, message, line, col", TRAILING,
    ids=["expression", "field", "after-over", "function", "linear", "group",
         "fixture-rule", "fixture-assign", "fixture-ode", "fixture-defining"],
)
def test_trailing_token_messages(parse, message, line, col):
    with pytest.raises(ParseError) as err:
        parse()
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{message} at line {line}, column {col}"


# ---------------------------------------------------------------------------
# every rejection of a linear equation, with its message and position

LINEAR_ERRORS = [
    ("y*y' = 0", "the equation must be linear in y", 1, 2),
    ("y^2 = 0", "the equation must be linear in y", 1, 2),
    ("y^0 = 0", "the equation must be linear in y", 1, 2),
    ("(y+y')^2 = 0", "the equation must be linear in y", 1, 7),
    ("1/y = 0", "cannot divide by y", 1, 2),
    ("y/0 = 0", "division by zero", 1, 2),
    ("y/(y-y) = 0", "division by zero", 1, 2),
    ("t = 0", "the equation does not involve y", 1, 1),
    ("y - y = 0", "the equation does not involve y", 1, 1),
    ("y + 1 = 0", "the equation must be homogeneous linear in y", 1, 1),
    ("y' + t'*y = 0", "cannot differentiate 't'", 1, 6),
    ("y' + q*y = 0", "unknown identifier 'q'", 1, 6),
    ("y'' + y^100001 = 0", "exponent 100001 exceeds the supported bound 10000", 1, 9),
    ("y'' + y^t = 0", "exponents must be nonnegative integer literals", 1, 9),
]


@pytest.mark.parametrize("text, message, line, col", LINEAR_ERRORS)
def test_linear_equation_errors(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_linear_text(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_linear_equation_coefficients():
    # a product with a vanishing factor, a cancelled term and a number-field
    # generator all parse to plain coefficients a_0 .. a_n
    spec = parse_linear_text("y*(y-y) + y' - y' + y'' = 0")
    assert [str(c) for c in spec.coeffs] == ["0", "0", "1"]
    spec = parse_linear_text("y'' + a*y/2 - t*y' = 0 over Q(a: a^2-2, t)")
    base = spec.base
    a, t = base.coerce(base.field.gen()), base.gen()
    assert spec.coeffs == (a / 2, -t, base.one())
