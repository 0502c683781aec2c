"""pfaffkit benchmark: seeded workloads in a closed loop, outputs checked.

    python3 perfbench/run.py --workload family-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; pfaffkit is imported from its ``src/``.
One client in one process, no threads: each operation starts when the
previous one has returned.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report.

``--trace 0`` measures the end-to-end metrics over whole rounds of the
workload (see ``workloads.build``).  ``--trace 1`` runs the first rounds
of the workload untraced and once more with spans installed at
pfaffkit's layer boundaries (see ``tracing.py``), times the layer kernels
and replays the workload's share of the golden envelopes; it reports the
per-layer metrics.  Spans are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import capture

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 5

# Shared machines change speed by a quarter or more from one minute to the
# next: on a shared 2-CPU container, set-up runs of identical work spread
# 20-45% across ten consecutive runs.  So every end-to-end time is scaled
# to a reference speed.  A fixed exact-arithmetic loop that does not touch
# pfaffkit is timed every CALIBRATE_EVERY_S through the run, and times are
# multiplied by REFERENCE_LOOP_S / (median loop time).  The report lines
# also give the unscaled wall-clock values and the factor.
REFERENCE_LOOP_S = 0.004
CALIBRATE_EVERY_S = 0.25

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_pfaffkit():
    """Import pfaffkit from this checkout's ``src/`` and nowhere else."""
    package = SRC / "pfaffkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no pfaffkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pfaffkit

    if Path(pfaffkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported pfaffkit from {pfaffkit.__file__}, not {package}")


def setup_seconds(workload, seed):
    """Median wall time of fresh interpreters that import pfaffkit and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def calibration_loop_s():
    """Seconds this machine needs for a fixed Fraction loop, now."""
    start = perf_counter()
    x, seen = Fraction(1, 3), {}
    for i in range(1, 600):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
        seen[i % 17] = x
    return perf_counter() - start


def timed_call(op):
    """Run one op; returns (code, doc, error, seconds).

    The library result behind the envelope is left in ``capture``.
    """
    capture.take()
    start = perf_counter()
    try:
        code, doc = op.call()
        error = None
    except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
        code, doc, error = None, None, f"{type(exc).__name__}: {exc}"
    return code, doc, error, perf_counter() - start


def closed_loop(ops, round_size, seconds):
    """Cycle through ``ops`` until ``seconds`` have passed and a round is complete.

    Returns the (index, seconds) samples, the first output of every op
    reached with the ``capture.facts`` behind it, the indices whose output
    changed on a later repetition, and the calibration loop times taken
    between operations.
    """
    samples, first, facts, changed, calibration = [], {}, {}, set(), []
    deadline = perf_counter() + seconds
    next_calibration = 0.0
    i = 0
    while i % round_size or perf_counter() < deadline:
        if perf_counter() >= next_calibration:
            calibration.append(calibration_loop_s())
            next_calibration = perf_counter() + CALIBRATE_EVERY_S
        idx = i % len(ops)
        code, doc, error, dt = timed_call(ops[idx])
        samples.append((idx, dt))
        if idx not in first:
            first[idx] = (code, doc, error)
            facts[idx] = capture.facts(ops[idx].kind, capture.take())
        elif first[idx] != (code, doc, error):
            changed.add(idx)
        i += 1
    return samples, first, facts, changed, calibration


def check_outputs(ops, first, facts, changed):
    """(problems, misprints) per op index; see ``oracle.check``."""
    import oracle

    problems, misprints = oracle.check(ops, first, facts)
    for idx in changed:
        problems.setdefault(idx, []).append("output changed when the input was run again")
    return problems, misprints


def scaling_exponent(ops, samples):
    """Least-squares slope of log(median seconds) against log(n)."""
    by_n = {}
    for idx, dt in samples:
        by_n.setdefault(ops[idx].meta["n"], []).append(dt)
    xs = [math.log(n) for n in sorted(by_n)]
    ys = [math.log(statistics.median(by_n[n])) for n in sorted(by_n)]
    if len(xs) < 2:
        return float("nan")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def report_failures(ops, problems, misprints):
    for heading, found in (("FAILED", problems), ("MISPRINTED", misprints)):
        for idx in sorted(found):
            print(f"{heading} {ops[idx].label}")
            for p in found[idx]:
                print(f"    {p}")


def untraced(args):
    import workloads

    setup_s = setup_seconds(args.workload, args.seed)
    rounds = workloads.build(args.workload, args.seed)
    ops = [op for r in rounds for op in r]
    samples, first, facts, changed, calibration = closed_loop(ops, len(rounds[0]), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, misprints = check_outputs(ops, first, facts, changed)

    lat = sorted(dt for _, dt in samples)
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond_p90 = sum(1 for dt in lat if dt > p90)
    failed = sum(1 for idx, _ in samples if idx in problems)
    n_decided = sum(1 for idx, _ in samples if workloads.decided(ops[idx], *first[idx]))
    wall = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    scale = REFERENCE_LOOP_S / statistics.median(calibration)
    metrics = {
        name: value if name == "peak_rss_mb" else value / scale if name == "ops_per_s"
        else value * scale
        for name, value in wall.items()
    }
    shares = {
        "decided_share": n_decided / len(samples),
        "error_share": failed / len(samples),
        "misprint_share": sum(1 for idx, _ in samples if idx in misprints) / len(samples),
    }
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"{len(samples)} operations on {len(first)} distinct inputs "
          f"({len(ops)} in the corpus); {beyond_p90} samples beyond p90")
    print(f"speed factor {scale:.4f} from {len(calibration)} calibration loops; "
          "metric (reference speed), wall clock:")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:12.4f} {wall[name]:12.4f} {E2E_UNITS[name]}")
    for name, value in shares.items():
        print(f"  {name:26s} {value:12.4f} ratio")
    if args.workload == "degree-sweep":
        print(f"  {'degree_scaling_exponent':26s} {scaling_exponent(ops, samples):12.4f}")
    if beyond_p90 < 10:
        print(f"warning: only {beyond_p90} samples beyond p90", file=sys.stderr)
    report_failures(ops, problems, misprints)
    return {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def traced(args):
    import golden
    import kernels
    import layers
    import workloads

    rounds = workloads.build(args.workload, args.seed)[: workloads.TRACE_ROUNDS[args.workload]]
    ops = [op for r in rounds for op in r]
    reference = [timed_call(op) for op in ops]
    tracer, outputs, facts, traced_s = traced_pass(ops)
    changed = {i for i, out in outputs.items() if out != reference[i][:3]}
    problems, misprints = check_outputs(ops, outputs, facts, changed)

    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_share"] = 1.0 - sum(out[3] for out in reference) / traced_s
    metrics["e2e.decided_share"] = sum(
        workloads.decided(ops[i], *out) for i, out in outputs.items()) / len(ops)
    metrics["e2e.error_share"] = len(problems) / len(ops)
    metrics["cli.misprinted_envelopes"] = len(misprints)
    if args.workload == "degree-sweep":
        metrics["e2e.degree_scaling_exponent"] = scaling_exponent(
            ops, [(i, out[3]) for i, out in enumerate(reference)])
    metrics.update(kernels.run_kernels(args.seed))
    metrics["cli.envelope_diffs"] = len(golden.envelope_diffs(args.workload))

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"workload {args.workload}  seed {args.seed}  traced pass over {len(ops)} inputs  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for name, unit in layers.UNITS.items():
        print(f"  {name:36s} {metrics.get(name, 0):14.4f} {unit}")
    report_failures(ops, problems, misprints)
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in layers.UNITS.items()},
    }


def traced_pass(ops):
    """One pass over ``ops`` with spans installed; every op is a root span.

    Returns the tracer, the outputs and ``capture.facts`` by op index,
    and the summed op seconds.
    """
    from tracing import Tracer

    tracer = Tracer().install()
    outputs, facts, seconds = {}, {}, 0.0
    try:
        for i, op in enumerate(ops):
            code, doc, error, dt = tracer.call("op", lambda op=op: timed_call(op))
            outputs[i] = (code, doc, error)
            facts[i] = capture.facts(op.kind, capture.take())
            seconds += dt
    finally:
        tracer.uninstall()
    return tracer, outputs, facts, seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    import_pfaffkit()
    import workloads

    capture.install()

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
