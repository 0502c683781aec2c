"""Acceptance gate: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every tolerance is structural equality; the
stated runtime budgets are asserted with a monotonic clock.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from fractions import Fraction

import pfaffkit as pk
from pfaffkit.chains import search_presentation, verify_forward
from pfaffkit.cli import run as cli_run
from pfaffkit.criteria import (
    FactoredRatFunc,
    classify_linear,
    classify_order_one,
    not_pfaffian_by_degree_theorem,
    residues_of_inverse,
    weierstrass_check,
)
from pfaffkit.diffalg import BaseDiffField, DiffIndeterminateExpr, riccati_reduce
from pfaffkit.errors import DegenerateCurve
from pfaffkit.groups import (
    EULERIAN,
    Elliptic,
    Finite,
    GL,
    Ga,
    GaxGm,
    Gm,
    ONE_REDUCIBLE_INTERNAL,
    PSL,
    Product,
    SL,
    Torus,
    UnknownSubgroupOf,
    check_series,
    d_solvable_set,
    product,
    reducibility_profile,
    series_witness_valid,
    subgroup_of,
)
from pfaffkit.parser import parse_fixture_text, parse_ode_text

from conftest import (
    RULE_FIELDS,
    as_diffratfunc,
    is_definite,
    rand_fraction,
    rand_one_pole,
    rand_scalar,
)
from test_criteria import partial_fraction_oracle
from test_diffalg import riccati_oracle

LAMBERT = "tests/fixtures/lambert_backward.pfaff"


def report(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_1_lambert_backward_and_corruptions():
    start = time.monotonic()
    doc, code = cli_run(["chain-verify", "--mode", "backward", LAMBERT])
    elapsed = time.monotonic() - start
    assert code == 0 and doc["result"] == "pass"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    with open(LAMBERT, encoding="utf-8") as fh:
        text = fh.read()
    body = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    clean = "\n".join(body)
    corruptions = []
    for i, ch in enumerate(clean):
        if ch == "-":
            corruptions.append(clean[:i] + "+" + clean[i + 1:])
        elif ch == "+":
            corruptions.append(clean[:i] + "-" + clean[i + 1:])
    assert corruptions, "the fixture must contain signs to flip"
    from pfaffkit.chains import verify_backward

    for corrupted in corruptions:
        fixture = parse_fixture_text(corrupted)
        result = verify_backward(
            fixture.defining, list(fixture.assignments), fixture.chain
        )
        assert not result.ok, f"corruption went unnoticed:\n{corrupted}"
    report(1, f"backward check in {elapsed * 1000:.0f}ms; "
              f"all {len(corruptions)} single-sign corruptions detected")


def test_criterion_2_half_reciprocal_pipeline():
    start = time.monotonic()
    doc, code = cli_run(["classify-ode", "y' = 1/(2*y)"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert doc["verdicts"]["pfaffian"] == "yes"
    assert doc["certificates"]["presentation"] == {"h": "1/x", "p": "-1/2*x^3"}
    spec = parse_ode_text("y' = 1/(2*y)")
    verdict = classify_order_one(spec.f)
    cert = verdict.pfaffian.payload
    x = pk.UniPoly.x(None)
    assert cert.r == pk.UniPoly.const(1, None) and cert.s == x
    assert cert.p == x ** 3 * Fraction(-1, 2)
    assert verify_forward(cert.chain, cert.element, spec.f).ok
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, f"certificate (h=1/x, P=-x^3/2) re-verified forward in {elapsed * 1000:.0f}ms")


def test_criterion_3_theorem_family_batch():
    field = pk.nf_new([-2, 0, 1], name="r")
    spec = parse_ode_text("y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)")
    v = classify_order_one(spec.f)
    assert v.pfaffian.is_no and v.rationally_pfaffian.is_yes

    spec23 = parse_ode_text("y' = (y-2)*(y-3)/(y*(y-1))")
    v23 = classify_order_one(spec23.f)
    assert v23.pfaffian.value == "unknown"

    rng = random.Random(2024)
    base = BaseDiffField.constants(field)
    zero, one = field.zero(), field.one()
    start = time.monotonic()
    done = 0
    refuted = 0
    while done < 100:
        a = rand_scalar(rng, field, span=4)
        b = rand_scalar(rng, field, span=4)
        # exact preconditions of the family: a, b distinct and not 0 or 1
        if a == b or a in (zero, one) or b in (zero, one):
            continue
        fr = FactoredRatFunc(leading=one, zeros=((a, 1), (b, 1)),
                             poles=((zero, 1), (one, 1)))
        verdict = classify_order_one(as_diffratfunc(fr, base), factored=fr)
        assert verdict.rationally_pfaffian.is_yes
        assert verdict.pfaffian.value in ("no", "unknown", "yes")
        if verdict.pfaffian.is_no:
            refuted += 1
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"batch took {elapsed:.2f}s"
    report(3, f"(2,1+r) refuted, (2,3) open; {done} random (a,b) classified "
              f"({refuted} refuted) in {elapsed:.2f}s")


def test_criterion_4_residue_oracle_200_instances():
    field = pk.nf_new([-2, 0, 1], name="r")
    rng = random.Random(4040)
    checked = 0
    while checked < 200:
        use_field = field if rng.random() < 0.5 else None
        zeros = []
        target = rng.randint(1, 5)
        while len(zeros) < target:
            z = rand_scalar(rng, use_field, span=4)
            if z not in zeros:
                zeros.append(z)
        poles = []
        for _ in range(rng.randint(0, 2)):
            p = rand_scalar(rng, use_field, span=4)
            if p not in zeros and p not in poles:
                poles.append(p)
        lead = rand_scalar(rng, use_field, span=3, nonzero=True)
        f = FactoredRatFunc(
            leading=lead,
            zeros=tuple((z, 1) for z in zeros),
            poles=tuple((p, 1) for p in poles),
        )
        data = residues_of_inverse(f)
        assert [e.residue for e in data.entries] == partial_fraction_oracle(f)
        total = data.at_infinity
        for e in data.entries:
            total = total + e.residue
        assert total.is_zero()
        checked += 1
    report(4, f"{checked} random instances: closed form == linear solve, "
              "global residue sum 0")


def _enumeration_atoms():
    atoms = [Ga(), Gm(), GaxGm(), Finite(), Elliptic()]
    for n in (2, 3, 4):
        atoms += [SL(n), GL(n), PSL(n)]
    atoms += [Torus(2), Torus(3)]
    uniq = []
    for a in atoms:
        if a not in uniq:
            uniq.append(a)
    return uniq


def test_criterion_5_eulerian_iff_2_solvable_exhaustive():
    atoms = _enumeration_atoms()
    depth2 = list(atoms)
    for a, b in itertools.product(atoms, repeat=2):
        depth2.append(Product((a, b)))
        depth2.append(pk.Extension(a, b))
    for a in atoms:
        depth2.append(UnknownSubgroupOf(a))
    dsolv2 = d_solvable_set(2)

    def agree(g):
        e = check_series(g, EULERIAN)
        s = check_series(g, dsolv2)
        if is_definite(e) and is_definite(s):
            assert e.value == s.value, f"mismatch at {g}: {e.value} vs {s.value}"
        if e.is_yes:
            assert check_series(g, ONE_REDUCIBLE_INTERNAL).is_yes, g

    total = 0
    for g in depth2:
        agree(g)
        total += 1
    for a in depth2:
        for b in depth2:
            agree(Product((a, b)))
            agree(pk.Extension(a, b))
            total += 2
        agree(UnknownSubgroupOf(a))
        total += 1
    report(5, f"{total} trees (depth <= 3, n <= 4, k <= 3): zero mismatches, "
              "1-reducible alphabet contains the chain alphabet")


def test_criterion_6_paper_group_verdicts():
    v = check_series(SL(3), EULERIAN)
    assert v.is_no and "PSL(3)" in v.reason
    v = check_series(GL(2), EULERIAN)
    assert v.is_yes and series_witness_valid(v, EULERIAN)
    assert check_series(Elliptic(), EULERIAN).is_no
    assert check_series(Elliptic(), ONE_REDUCIBLE_INTERNAL).is_yes
    assert check_series(subgroup_of(product(SL(2), SL(2))), EULERIAN).is_yes

    w = weierstrass_check(0, 1)
    assert w.pfaffian.is_no
    try:
        weierstrass_check(3, 1)
        raise AssertionError("degenerate invariants must be rejected")
    except DegenerateCurve:
        pass
    report(6, "SL(3) no; GL(2) yes with valid series; elliptic split verdicts; "
              "subgroup closure yes; degenerate curve rejected")


def test_criterion_7_riccati_oracle_and_airy_like():
    Kt = BaseDiffField.rational_functions(var="t")
    rng = random.Random(700)
    instances = 0
    while instances < 50:
        n = rng.randint(1, 5)
        coeffs = []
        for _ in range(n):
            c = Kt.coerce(rand_fraction(rng, 5))
            if rng.random() < 0.5:
                c = c * Kt.gen() ** rng.randint(0, 2)
            coeffs.append(c)
        coeffs.append(Kt.one())
        assert riccati_reduce(coeffs, Kt) == riccati_oracle(coeffs, Kt)
        instances += 1

    coeffs = [(-1) * Kt.gen(), Kt.coerce(0), Kt.coerce(0), Kt.one()]
    red = riccati_reduce(coeffs, Kt)
    u = DiffIndeterminateExpr.u(Kt)
    u1 = DiffIndeterminateExpr.u(Kt, 1)
    u2 = DiffIndeterminateExpr.u(Kt, 2)
    assert red == u2 + 3 * u * u1 + u * u * u - DiffIndeterminateExpr.const(Kt, Kt.gen())
    rep = classify_linear(coeffs, SL(3), Kt)
    assert rep.pfaffian.is_no
    report(7, f"{instances} random reductions match the independent expansion; "
              "third-order example reduces correctly and is refuted under SL(3)")


def test_criterion_8_reducibility_table():
    for n in range(3, 7):
        p = reducibility_profile(n)
        assert (p.reducible_at, p.not_reducible_at) == (n - 1, n - 2)
    report(8, "windows (n-1, n-2) for n = 3..6")


def test_criterion_9_noetherianization_soundness():
    from pfaffkit.chains import rational_to_noetherian, verify_backward
    from pfaffkit.diffalg import DiffPoly, DiffRatFunc
    from conftest import rand_diffpoly

    rng = random.Random(900)
    C = BaseDiffField.constants()
    Kt = BaseDiffField.rational_functions(var="t")
    done = 0
    while done < 50:
        base = C if rng.random() < 0.5 else Kt
        P = rand_diffpoly(rng, base, ("y",), max_deg=5, max_terms=3, span=3)
        Q = rand_diffpoly(rng, base, ("y",), max_deg=5, max_terms=3, span=3)
        if Q.is_zero():
            continue
        ns = rational_to_noetherian(P, Q)
        w = DiffPoly.var(base, ("w",), "w")
        Pw = DiffRatFunc.from_poly(P.substitute({"y": w}))
        Qw = DiffRatFunc.from_poly(Q.substitute({"y": w}))
        result = verify_backward(Pw / Qw, [DiffRatFunc.from_poly(w), 1 / Qw], ns)
        assert result.ok, result.witness
        done += 1
    report(9, f"{done} random (P, Q) with deg <= 5 verified backward")


def test_criterion_10_consistency_guard():
    field = pk.nf_new([-2, 0, 1], name="r")
    rng = random.Random(1000)
    th = field.gen()

    corpus = [
        FactoredRatFunc(field.one(), ((field.scalar(2), 1), (field.scalar(1, 1), 1)),
                        ((field.zero(), 1), (field.one(), 1))),
        FactoredRatFunc(pk.AlgebraicScalar.rational(1),
                        ((pk.AlgebraicScalar.rational(2), 1), (pk.AlgebraicScalar.rational(3), 1)),
                        ((pk.AlgebraicScalar.rational(0), 1), (pk.AlgebraicScalar.rational(1), 1))),
        FactoredRatFunc(field.one(),
                        ((field.scalar(1), 1), (field.scalar(2), 1), (field.scalar(3), 1), (th, 1)),
                        ((field.zero(), 1),)),
        FactoredRatFunc(pk.AlgebraicScalar.rational(Fraction(1, 2)), (),
                        ((pk.AlgebraicScalar.rational(0), 1),)),
    ]
    while len(corpus) < 60:
        zeros, poles = [], []
        for _ in range(rng.randint(0, 3)):
            z = rand_scalar(rng, field, span=3)
            if z not in zeros:
                zeros.append(z)
        for _ in range(rng.randint(0, 2)):
            p = rand_scalar(rng, field, span=3)
            if p not in zeros and p not in poles:
                poles.append(p)
        if not zeros and not poles:
            continue
        corpus.append(FactoredRatFunc(
            rand_scalar(rng, field, span=3, nonzero=True),
            tuple((z, 1) for z in zeros),
            tuple((p, 1) for p in poles),
        ))
    # the closed-form property's draws: one pole location with e >= 0, every rule field
    corpus += [rand_one_pole(random.Random(seed), field)
               for field in RULE_FIELDS.values() for seed in range(3)]
    contradictions = 0
    for f in corpus:
        refuted = not_pfaffian_by_degree_theorem(f).is_no
        base = BaseDiffField.constants(f.leading.field)
        cert = search_presentation(as_diffratfunc(f, base), degree_bound=3)
        if cert is not None:
            assert verify_forward(cert.chain, cert.element, as_diffratfunc(f, base)).ok
        if refuted and cert is not None:
            contradictions += 1
    assert contradictions == 0
    report(10, f"{len(corpus)} corpus instances: refutation and certificate "
               "never coincide")
