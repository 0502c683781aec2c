"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q
"""

import ast
import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import capture  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

capture.install()


def _trace_once(ops):
    tracer, outputs, _, _ = run.traced_pass(ops)
    verdicts = [workloads.verdict_of(op.kind, outputs[i][1]) for i, op in enumerate(ops)]
    calls, _, _ = tracer.summary()
    return verdicts, dict(tracer.counts), dict(calls), [span[4] for span in tracer.spans]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_pass_is_deterministic(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    rounds = workloads.build(workload, 7)[: workloads.TRACE_ROUNDS[workload]]
    ops = [op for r in rounds for op in r]
    first = _trace_once(ops)
    assert first == _trace_once(ops)
    assert sum(first[2].values()) > 0


def test_tracer_restores_every_function():
    import pfaffkit.chains
    import pfaffkit.cli
    from pfaffkit.exactfield import AlgebraicScalar

    before = (pfaffkit.cli.run, pfaffkit.chains.verify_backward, vars(AlgebraicScalar)["__mul__"])
    run.traced_pass([])
    after = (pfaffkit.cli.run, pfaffkit.chains.verify_backward, vars(AlgebraicScalar)["__mul__"])
    assert before == after


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _call_with_facts(op):
    code, doc, error, _ = run.timed_call(op)
    assert code == 0 and error is None
    return doc, capture.facts(op.kind, capture.take())


def test_oracle_rejects_a_wrong_certificate():
    op = workloads.classify_ode_op(
        (1, 0), (((2, 0), 1), ((3, 0), 1)), (), False)  # y' = (y-2)*(y-3)
    doc, facts = _call_with_facts(op)
    assert oracle.check_classify_ode(op.meta, doc, facts) == ([], [])

    printed = copy.deepcopy(doc)
    printed["certificates"]["pfaffian_chain"] = ["y1' = y1^2 - 5*y1 - 6"]
    problems, _ = oracle.check_classify_ode(op.meta, printed, facts)
    assert problems

    # a wrong rule behind a faithful printout fails too
    wrong = copy.deepcopy(facts)
    line, exact = wrong["pfaffian_chain"][0]
    tag, variables, terms = ast.literal_eval(exact)
    terms = tuple((e, ("s", ((-c[1][0][0], c[1][0][1]),))) if e == (0,) else (e, c) for e, c in terms)
    wrong["pfaffian_chain"][0] = (line, repr((tag, variables, terms)))
    problems, _ = oracle.check_classify_ode(op.meta, doc, wrong)
    assert any("D(h) = f(h)" in p for p in problems)


def test_oracle_tells_a_misprint_from_a_wrong_result():
    op = workloads.classify_ode_op(
        (1, 0), (((2, 0), 1), ((3, 0), 1)), (), False)  # y' = (y-2)*(y-3)
    doc, facts = _call_with_facts(op)
    bad = "y1' = y1^2 - 5*y1 - 6"  # prints y1^2 - 5*y1 + 6 wrongly
    doc["certificates"]["pfaffian_chain"] = doc["certificates"]["rational_chain"] = [bad]
    for key in ("pfaffian_chain", "rational_chain"):
        facts[key] = [(bad, facts[key][0][1])]
    problems, misprints = oracle.check_classify_ode(op.meta, doc, facts)
    assert problems == [] and len(misprints) == 2


def test_oracle_checks_the_reduction_behind_the_envelope():
    coeffs = ((Fraction(1), Fraction(2)), (Fraction(0),), (Fraction(-1, 3),))
    text = workloads.linear_text(coeffs)
    for kind, argv in (("logderiv-reduce", [text]), ("classify-linear", [text, "--group", "SL(3)"])):
        op = workloads.cli_op(kind, [kind, *argv], {"coeffs": coeffs, "group": "SL(3)"})
        doc, facts = _call_with_facts(op)
        assert oracle.check_linear(op.meta, kind, doc, facts) == ([], [])
        other = dict(op.meta, coeffs=coeffs[:2] + ((Fraction(1, 3),),))
        problems, _ = oracle.check_linear(other, kind, doc, facts)
        assert problems


def test_simple_residues_agree_with_sympy_residue():
    import sympy as sp

    rounds = workloads.build("family-batch", 7)[:2]
    metas = [op.meta for r in rounds for op in r
             if op.meta["poles"] and len(op.meta["zeros"]) >= 2][:4]
    y, r = sp.symbols("y r")
    for meta in metas:
        def scalar(s):
            return sp.Rational(s[0].numerator, s[0].denominator) + sp.Rational(
                s[1].numerator, s[1].denominator) * sp.sqrt(2)

        f = scalar(meta["leading"])
        for s, m in meta["zeros"]:
            f *= (y - scalar(s)) ** m
        for s, m in meta["poles"]:
            f /= (y - scalar(s)) ** m
        for (s, _), (a, b) in zip(meta["zeros"], oracle._simple_residues(meta)):
            expected = sp.residue(1 / f, y, scalar(s))
            value = sp.Rational(a.numerator, a.denominator) + sp.Rational(
                b.numerator, b.denominator) * sp.sqrt(2)
            assert sp.simplify(expected - value) == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
