"""Seeded inputs for the four benchmark workloads.

Every workload is a list of rounds of ``Op`` objects, built from the seed
alone.  An op calls one public pfaffkit entry point: ``cli.run`` where a
command exists, the library function otherwise.  Entry points are looked
up on their module at call time, so the traced run sees the calls.

The generators format every number themselves from ``Fraction`` values;
the inputs therefore do not depend on how pfaffkit prints scalars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("tests/fixtures/lambert_backward.pfaff", "tests/fixtures/sqrt_shift_forward.pfaff")
SQRT2_DECL = " over Q(r: r^2-2)"

# verdicts that count as a definite answer; "answer" marks commands that
# always compute their result exactly (logderiv-reduce)
DECIDED = frozenset(("yes", "no", "pass", "fail", "answer"))


@dataclass
class Op:
    """One closed-loop operation: ``call()`` returns ``(exit_code, doc)``."""

    kind: str
    label: str
    call: object
    meta: dict = field(default_factory=dict)


def verdict_of(kind, doc):
    if kind in ("classify-ode", "classify-linear"):
        return doc["verdicts"]["pfaffian"]
    if kind == "group-check":
        return doc["verdict"]
    if kind in ("chain-verify", "verify-backward"):
        return doc["result"]
    if kind == "logderiv-reduce":
        return "answer"
    raise ValueError(f"unknown op kind {kind!r}")


def decided(op, code, doc, error):
    """Whether an op's output is a definite answer."""
    return error is None and code == 0 and verdict_of(op.kind, doc) in DECIDED


def cli_op(kind, argv, meta=None):
    import pfaffkit.cli as cli

    def call():
        doc, code = cli.run(argv)
        doc.pop("_pretty", None)
        return code, doc

    return Op(kind, " ".join(argv), call, meta or {})


# ---------------------------------------------------------------------------
# number formatting

def q_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_text(s):
    """``s`` is ``(a, b)`` meaning a + b*r; b is 0 over Q."""
    a, b = s
    if not b:
        return f"({q_text(a)})"
    return f"({q_text(a)} + ({q_text(b)})*r)"


def rand_q(rng, span):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_scalar(rng, over_r, span, nonzero=False):
    while True:
        s = (rand_q(rng, span), rand_q(rng, span) if over_r else Fraction(0))
        if not nonzero or any(s):
            return s


def ode_text(leading, zeros, poles, over_r):
    """``y' = c*prod(y-a_i)^m/prod(y-b_j)^k`` with every number spelled out."""
    def factors(items):
        out = []
        for s, m in items:
            f = f"(y - {scalar_text(s)})"
            out.append(f if m == 1 else f"{f}^{m}")
        return "*".join(out)

    text = f"y' = {scalar_text(leading)}"
    if zeros:
        text += "*" + factors(zeros)
    if poles:
        text += f"/({factors(poles)})"
    return text + (SQRT2_DECL if over_r else "")


def classify_ode_op(leading, zeros, poles, over_r):
    meta = {"leading": leading, "zeros": zeros, "poles": poles, "over_r": over_r}
    return cli_op("classify-ode", ["classify-ode", ode_text(leading, zeros, poles, over_r)], meta)


# ---------------------------------------------------------------------------
# family-batch

# (number of simple zeros, number of simple poles): every round holds each
# shape once, so the mix of early exits and full searches is the same in
# every round and only the coefficients change.  Polynomial right-hand
# sides count three times, so that about two thirds of the inputs get a
# definite answer and p50 falls inside the cluster of fast verdicts
# instead of in the gap between it and the searches.
FAMILY_SHAPES = tuple((nz, npole) for nz in (1, 2, 3, 4) for npole in (0, 0, 0, 1, 2))
# field of each input; 7 of every 10 are over Q(r: r^2-2), and the
# pattern shifts by one every round so every shape meets both fields
FAMILY_FIELDS = "rrrQrrQrrQ"
FAMILY_ROUNDS = 16


def family_batch(seed):
    rng = random.Random(f"family-batch/{seed}")
    rounds = []
    for r in range(FAMILY_ROUNDS):
        round_ops = []
        for k, (nz, npole) in enumerate(FAMILY_SHAPES):
            over_r = FAMILY_FIELDS[(r + k) % len(FAMILY_FIELDS)] == "r"
            points = []
            while len(points) < nz + npole:
                s = rand_scalar(rng, over_r, span=4)
                if s not in points:
                    points.append(s)
            leading = rand_scalar(rng, over_r, span=3, nonzero=True)
            zeros = tuple((s, 1) for s in points[:nz])
            poles = tuple((s, 1) for s in points[nz:])
            round_ops.append(classify_ode_op(leading, zeros, poles, over_r))
        rng.shuffle(round_ops)
        rounds.append(round_ops)
    return rounds


# ---------------------------------------------------------------------------
# degree-sweep

SWEEP_LADDER = (2, 3, 4, 5, 6, 7, 8, 9)
SWEEP_ROUNDS = 32
# poles of one height (denominator 3), so that the seed moves the input
# but not the size of its coefficients
SWEEP_POLES = tuple(Fraction(k, 3) for k in (-5, -4, -2, -1, 1, 2, 4, 5))


def degree_sweep(seed):
    """``y' = (y-1)^n/(y*(y-c))`` over Q; every round climbs the whole ladder."""
    rng = random.Random(f"degree-sweep/{seed}")
    one, zero = Fraction(1), Fraction(0)
    rounds = []
    for _ in range(SWEEP_ROUNDS):
        round_ops = []
        for n in SWEEP_LADDER:
            c = rng.choice(SWEEP_POLES)
            op = classify_ode_op((one, zero), (((one, zero), n),),
                                 (((zero, zero), 1), ((c, zero), 1)), False)
            op.meta["n"] = n
            round_ops.append(op)
        rounds.append(round_ops)
    return rounds


# ---------------------------------------------------------------------------
# certificates

def lambert_corruptions():
    """Every single-sign flip of the Lambert fixture body (all must fail)."""
    text = (ROOT / FIXTURES[0]).read_text(encoding="utf-8")
    body = "\n".join(
        ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
    )
    flips = {"-": "+", "+": "-"}
    return [body[:i] + flips[ch] + body[i + 1:] for i, ch in enumerate(body) if ch in flips]


# noetherianization round trips per round: over Q, then over Q(t)
ROUND_TRIPS = (10, 20)
CERT_ROUNDS = 12


def round_trip_layouts():
    """Term layouts of the round trips, round by round; the same for every seed.

    A layout is ``(over_t, P_terms, Q_terms)`` with terms
    ``{y exponent: t exponent}``: degree <= 5 in y, <= 1 in t, 1-3 terms.
    The time of a round trip over Q(t) depends mostly on its layout and
    spans a factor of 10, so fixed layouts keep the seed from moving the
    mix; the seed draws the coefficients.
    """
    rng = random.Random("certificates/layouts")
    rounds = []
    for _ in range(CERT_ROUNDS):
        layouts = []
        for over_t, count in ((False, ROUND_TRIPS[0]), (True, ROUND_TRIPS[1])):
            for _ in range(count):
                polys = []
                for _ in range(2):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        terms[rng.randint(0, 5)] = int(over_t and rng.random() < 0.5)
                    polys.append(terms)
                layouts.append((over_t, *polys))
        rounds.append(layouts)
    return rounds


def diffpoly(rng, base, terms):
    """sum c_k * t^(terms[k]) * y^k with seeded nonzero rationals c_k."""
    from pfaffkit.diffalg import DiffPoly

    out = {}
    for k, tk in terms.items():
        c = Fraction(0)
        while not c:
            c = rand_q(rng, 3)
        out[(k,)] = base.coerce(c) * base.gen() ** tk if tk else base.coerce(c)
    return DiffPoly(base, ("y",), out)


def verify_backward_op(label, build, expected):
    """Library op: ``verify_backward`` on arguments prepared by ``build``."""
    import pfaffkit.chains as chains

    def call():
        g, assignments, system = build()
        result = chains.verify_backward(g, assignments, system)
        doc = {"result": "pass" if result.ok else "fail"}
        if not result.ok:
            doc["rule_index"] = result.index
        return 0, doc

    return Op("verify-backward", label, call, {"expected": expected})


def round_trip(P, Q):
    """verify_backward arguments for y' = P/Q and its noetherianization in (y, w)."""
    import pfaffkit.chains as chains
    from pfaffkit.diffalg import DiffPoly, DiffRatFunc

    w = DiffPoly.var(P.base, ("w",), "w")
    Pw = DiffRatFunc.from_poly(P.substitute({"y": w}))
    Qw = DiffRatFunc.from_poly(Q.substitute({"y": w}))
    return Pw / Qw, [DiffRatFunc.from_poly(w), 1 / Qw], chains.rational_to_noetherian(P, Q)


def certificates(seed):
    """Each round: both fixtures, every Lambert corruption, seeded round trips."""
    import pfaffkit.parser as parser
    from pfaffkit.diffalg import BaseDiffField

    fixed = [
        cli_op("chain-verify", ["chain-verify", "--mode", mode, path], {"expected": "pass"})
        for mode, path in (("backward", FIXTURES[0]), ("forward", FIXTURES[1]))
    ]
    for k, text in enumerate(lambert_corruptions()):
        def build(text=text):
            fx = parser.parse_fixture_text(text)
            return fx.defining, list(fx.assignments), fx.chain

        fixed.append(verify_backward_op(f"lambert corruption {k}", build, "fail"))

    rng = random.Random(f"certificates/{seed}")
    q, qt = BaseDiffField.constants(), BaseDiffField.rational_functions(var="t")
    rounds = []
    for layouts in round_trip_layouts():
        round_ops = list(fixed)
        for over_t, p_terms, q_terms in layouts:
            base = qt if over_t else q
            P, Q = diffpoly(rng, base, p_terms), diffpoly(rng, base, q_terms)
            label = f"noetherianize round trip P={P} Q={Q} over {base}"
            round_ops.append(verify_backward_op(label, lambda P=P, Q=Q: round_trip(P, Q), "pass"))
        rng.shuffle(round_ops)
        rounds.append(round_ops)
    return rounds


# ---------------------------------------------------------------------------
# groups-linear

ALLOWED = ("eulerian", "1-reducible", "d-solvable:2", "d-solvable:3")
GROUP_TREES = 10
LINEAR_ORDERS = (2, 3, 4, 5)
LINEAR_PER_ORDER = 2
GROUP_ROUNDS = 24


def rand_atom(rng):
    kind = rng.choice(("Ga", "Gm", "GaxGm", "Fin", "E", "SL", "GL", "PSL", "PGL", "T"))
    if kind in ("SL", "GL", "PSL", "PGL"):
        return f"{kind}({rng.randint(2, 4)})"
    if kind == "T":
        return f"T({rng.randint(2, 3)})"
    return kind


def rand_group(rng, depth=4):
    if depth == 1 or rng.random() < 0.3:
        return rand_atom(rng)
    form = rng.choice(("Prod", "Ext", "Sub"))
    if form == "Prod":
        children = [rand_group(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        return f"Prod({', '.join(children)})"
    if form == "Ext":
        return f"Ext({rand_group(rng, depth - 1)}, {rand_group(rng, depth - 1)})"
    return f"Sub({rand_group(rng, depth - 1)})"


def rand_tpoly(rng):
    """Coefficient list (lowest first) of a polynomial in t of degree <= 2."""
    return tuple(rand_q(rng, 5) for _ in range(rng.randint(1, 3)))


def tpoly_text(cs):
    parts = []
    for k, c in enumerate(cs):
        if c:
            mono = "" if k == 0 else "*t" if k == 1 else f"*t^{k}"
            parts.append(f"({q_text(c)}){mono}")
    return " + ".join(parts) or "0"


def linear_text(coeffs):
    """Monic ``y^(n) + a_(n-1)*y^(n-1) + ... + a_0*y = 0`` (coeffs a_0..a_(n-1))."""
    n = len(coeffs)
    parts = ["y" + "'" * n]
    for k in range(n - 1, -1, -1):
        if any(coeffs[k]):
            parts.append(f"({tpoly_text(coeffs[k])})*y" + "'" * k)
    return " + ".join(parts) + " = 0"


def groups_linear(seed):
    """Each round: GROUP_TREES trees against every allowed set, then linear equations."""
    rng = random.Random(f"groups-linear/{seed}")
    rounds = []
    for r in range(GROUP_ROUNDS):
        round_ops = []
        for k in range(GROUP_TREES):
            tree = rand_group(rng)
            for allowed in ALLOWED:
                round_ops.append(cli_op("group-check", ["group-check", "--allowed", allowed, tree],
                                        {"tree": (r, k), "allowed": allowed}))
        for n in LINEAR_ORDERS:
            for _ in range(LINEAR_PER_ORDER):
                coeffs = tuple(
                    rand_tpoly(rng) if rng.random() < 0.6 else (Fraction(0),) for _ in range(n)
                )
                group = rng.choice((f"SL({n})", f"GL({n})", f"PSL({n})", rand_group(rng, 3)))
                text = linear_text(coeffs)
                meta = {"coeffs": coeffs, "group": group}
                round_ops.append(cli_op("classify-linear", ["classify-linear", text, "--group", group], meta))
                round_ops.append(cli_op("logderiv-reduce", ["logderiv-reduce", text], meta))
        rounds.append(round_ops)
    return rounds


WORKLOADS = {
    "family-batch": family_batch,
    "degree-sweep": degree_sweep,
    "certificates": certificates,
    "groups-linear": groups_linear,
}

# rounds in the traced pass
TRACE_ROUNDS = {"family-batch": 3, "degree-sweep": 2, "certificates": 2, "groups-linear": 4}

# number fields each workload declares during set-up
FIELDS = {
    "family-batch": ([-2, 0, 1],),
    "degree-sweep": (),
    "certificates": (),
    "groups-linear": (),
}


def build(workload, seed):
    """Declare the workload's number fields; return its rounds of ops.

    Every round of a workload has the same mix of input shapes, and a run
    measures whole rounds, so only the drawn coefficients differ between
    runs and seeds.
    """
    import pfaffkit

    for minpoly in FIELDS[workload]:
        pfaffkit.nf_new(minpoly, name="r")
    return WORKLOADS[workload](seed)
