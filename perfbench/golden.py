"""Golden envelopes: the README command examples and the acceptance 2/3/10
instances, run through ``cli.run`` and compared byte for byte (as
``json.dumps`` prints them) with the snapshot in ``golden/envelopes.json``.

Each entry belongs to one workload; the traced run of that workload
replays its share and reports the number of differing envelopes as
``cli.envelope_diffs``.

    python3 perfbench/golden.py --write    # re-take the snapshot
    python3 perfbench/golden.py            # compare every entry, print diffs
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SNAPSHOT = HERE / "golden" / "envelopes.json"

README_EXAMPLES = (
    ("family-batch", ["classify-ode", "y' = 1/(2*y)"]),
    ("family-batch", ["classify-ode", "y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"]),
    ("groups-linear", ["classify-linear", "y''' - t*y = 0", "--group", "SL(3)"]),
    ("groups-linear", ["group-check", "--allowed", "eulerian", "Ext(SL(2), Gm)"]),
    ("groups-linear", ["group-check", "--allowed", "d-solvable:2", "GL(3)"]),
    ("certificates", ["chain-verify", "--mode", "backward", "tests/fixtures/lambert_backward.pfaff"]),
    ("certificates", ["chain-verify", "--mode", "forward", "tests/fixtures/sqrt_shift_forward.pfaff"]),
    ("certificates", ["noetherianize", "y' = (y-2)*(y-3)/(y*(y-1))"]),
    ("certificates", ["residues", "(y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"]),
    ("groups-linear", ["logderiv-reduce", "y''' - t*y = 0"]),
    ("certificates", ["search-presentation", "y' = 1/(2*y)", "--bound", "3", "--candidate", "1/x^3"]),
)


def _fraction(rng, span):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _scalar(rng, span, nonzero=False):
    """Same draw order as the acceptance tests' ``rand_scalar`` over Q(sqrt 2)."""
    while True:
        s = (_fraction(rng, span), _fraction(rng, span))
        if not (nonzero and not any(s)):
            return s


def acceptance_3():
    from workloads import ode_text

    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    out = [
        ["classify-ode", "y' = (y-2)*(y-(1+r))/(y*(y-1)) over Q(r: r^2-2)"],
        ["classify-ode", "y' = (y-2)*(y-3)/(y*(y-1))"],
    ]
    rng = random.Random(2024)
    while len(out) < 102:
        a, b = _scalar(rng, 4), _scalar(rng, 4)
        if a == b or a in (zero, one) or b in (zero, one):
            continue
        out.append(["classify-ode", ode_text(one, ((a, 1), (b, 1)), ((zero, 1), (one, 1)), True)])
    return out


def acceptance_10():
    from workloads import ode_text

    q = lambda a, b=0: (Fraction(a), Fraction(b))  # noqa: E731
    corpus = [
        (q(1), ((q(2), 1), (q(1, 1), 1)), ((q(0), 1), (q(1), 1)), True),
        (q(1), ((q(2), 1), (q(3), 1)), ((q(0), 1), (q(1), 1)), False),
        (q(1), ((q(1), 1), (q(2), 1), (q(3), 1), (q(0, 1), 1)), ((q(0), 1),), True),
        (q(Fraction(1, 2)), (), ((q(0), 1),), False),
    ]
    rng = random.Random(1000)
    while len(corpus) < 60:
        zeros, poles = [], []
        for _ in range(rng.randint(0, 3)):
            z = _scalar(rng, 3)
            if z not in zeros:
                zeros.append(z)
        for _ in range(rng.randint(0, 2)):
            p = _scalar(rng, 3)
            if p not in zeros and p not in poles:
                poles.append(p)
        if not zeros and not poles:
            continue
        lead = _scalar(rng, 3, nonzero=True)
        corpus.append((lead, tuple((z, 1) for z in zeros), tuple((p, 1) for p in poles), True))
    return [["classify-ode", ode_text(*entry)] for entry in corpus]


def corpus():
    """(workload, argv) for every golden entry, without duplicates."""
    entries = list(README_EXAMPLES)
    entries.append(("family-batch", ["classify-ode", "y' = 1/(2*y)"]))  # acceptance 2
    entries += [("family-batch", argv) for argv in acceptance_3()]
    entries += [("degree-sweep", argv) for argv in acceptance_10()]
    seen, out = set(), []
    for workload, argv in entries:
        key = tuple(argv)
        if key not in seen:
            seen.add(key)
            out.append((workload, argv))
    return out


def envelope(argv):
    import pfaffkit.cli as cli

    doc, code = cli.run(argv)
    doc.pop("_pretty", None)
    return code, json.dumps(doc)


def envelope_diffs(workload=None):
    """Entries (of one workload, or all) whose exit code or envelope changed."""
    stored = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    diffs = []
    for entry in stored:
        if workload is not None and entry["workload"] != workload:
            continue
        code, text = envelope(entry["argv"])
        if code != entry["code"] or text != json.dumps(entry["envelope"]):
            diffs.append(entry["argv"])
    return diffs


def main(argv):
    os.chdir(HERE.parent)
    sys.path.insert(0, str(HERE.parent / "src"))
    if argv == ["--write"]:
        rows = []
        for workload, args in corpus():
            code, text = envelope(args)
            rows.append({"workload": workload, "argv": args, "code": code,
                         "envelope": json.loads(text)})
        SNAPSHOT.parent.mkdir(exist_ok=True)
        SNAPSHOT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} envelopes to {SNAPSHOT}")
        return 0
    diffs = envelope_diffs()
    for args in diffs:
        print("differs:", json.dumps(args))
    print(f"{len(diffs)} envelope(s) differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
