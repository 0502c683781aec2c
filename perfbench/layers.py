"""Per-layer metrics derived from one traced pass.

Counts and milliseconds are totals over the pass (one round of the
workload, a fixed list of inputs), so two traced passes on one seed give
identical counts.  ``*_self_ms`` is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

# metric -> unit, in report order; BENCHMARK.json lists the same names
UNITS = {
    "exactfield.scalar_mul": "count",
    "exactfield.scalar_add": "count",
    "exactfield.scalar_inv": "count",
    "exactfield.unipoly_mul": "count",
    "exactfield.unipoly_divmod": "count",
    "exactfield.poly_gcd": "count",
    "exactfield.poly_gcd_ms": "ms",
    "exactfield.extract_linear_roots_ms": "ms",
    "exactfield.q_mul_us": "us",
    "exactfield.qsqrt2_mul_us": "us",
    "exactfield.qsqrt2_inv_us": "us",
    "exactfield.qcbrt2_mul_us": "us",
    "exactfield.unipoly_mul_d5_ms": "ms",
    "exactfield.unipoly_mul_d20_ms": "ms",
    "exactfield.unipoly_mul_d60_ms": "ms",
    "exactfield.unipoly_divmod_d20_ms": "ms",
    "exactfield.poly_gcd_d5_ms": "ms",
    "exactfield.poly_gcd_d20_ms": "ms",
    "exactfield.poly_gcd_d60_ms": "ms",
    "diffalg.substitute_cleared_ms": "ms",
    "diffalg.substitute_cleared_calls": "count",
    "diffalg.ratfunc_new": "count",
    "diffalg.diffratfunc_new": "count",
    "diffalg.riccati_reduce_ms": "ms",
    "chains.search_ms": "ms",
    "chains.search_calls": "count",
    "chains.candidates_tested": "count",
    "chains.search_hits": "count",
    "chains.search_hit_ratio": "ratio",
    "chains.verify_forward_ms": "ms",
    "chains.verify_backward_ms": "ms",
    "chains.verify_pass": "count",
    "chains.verify_fail": "count",
    "criteria.classify_self_ms": "ms",
    "criteria.extract_factored_ms": "ms",
    "criteria.refute_ms": "ms",
    "criteria.rational_cert_ms": "ms",
    "groups.check_series_ms": "ms",
    "groups.check_series_calls": "count",
    "groups.trees_per_s": "1/s",
    "parser.self_ms": "ms",
    "parser.calls": "count",
    "cli.self_ms": "ms",
    "cli.envelope_diffs": "count",
    "cli.misprinted_envelopes": "count",
    "trace.overhead_share": "ratio",
    "e2e.decided_share": "ratio",
    "e2e.error_share": "ratio",
    "e2e.degree_scaling_exponent": "1",
}

# counters taken straight from the class-method wrappers
_COUNTS = (
    "exactfield.scalar_mul", "exactfield.scalar_add", "exactfield.scalar_inv",
    "exactfield.unipoly_mul", "exactfield.unipoly_divmod",
    "diffalg.ratfunc_new", "diffalg.diffratfunc_new",
)

# metric -> (span name, "total" | "self" | "calls")
_SPAN_METRICS = {
    "exactfield.poly_gcd": ("exactfield.poly_gcd", "calls"),
    "exactfield.poly_gcd_ms": ("exactfield.poly_gcd", "total"),
    "exactfield.extract_linear_roots_ms": ("exactfield.extract_linear_roots", "total"),
    "diffalg.substitute_cleared_ms": ("diffalg.substitute_cleared", "total"),
    "diffalg.substitute_cleared_calls": ("diffalg.substitute_cleared", "calls"),
    "diffalg.riccati_reduce_ms": ("diffalg.riccati_reduce", "total"),
    "chains.search_ms": ("chains.search_presentation", "total"),
    "chains.search_calls": ("chains.search_presentation", "calls"),
    "chains.verify_forward_ms": ("chains.verify_forward", "total"),
    "chains.verify_backward_ms": ("chains.verify_backward", "total"),
    "criteria.classify_self_ms": ("criteria.classify_order_one", "self"),
    "criteria.extract_factored_ms": ("criteria.extract_factored", "total"),
    "criteria.refute_ms": ("criteria.refute", "total"),
    "groups.check_series_ms": ("groups.check_series", "total"),
    "groups.check_series_calls": ("groups.check_series", "calls"),
    "parser.self_ms": ("parser.parse", "self"),
    "parser.calls": ("parser.parse", "calls"),
    "cli.self_ms": ("cli.run", "self"),
}


def layer_metrics(tracer):
    calls, total, self_time = tracer.summary()
    out = {name: tracer.counts[name] for name in _COUNTS}
    for metric, (span, what) in _SPAN_METRICS.items():
        if what == "calls":
            out[metric] = calls[span]
        else:
            out[metric] = (total if what == "total" else self_time)[span] * 1e3

    spans = tracer.spans
    candidates = hits = passes = fails = 0
    rational_cert = 0.0
    for name, start, end, parent, outcome in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "diffalg.substitute_cleared" and parent_name == "chains.search_presentation":
            candidates += 1
        elif name == "chains.search_presentation" and outcome:
            hits += 1
        elif name in ("chains.verify_forward", "chains.verify_backward"):
            passes += outcome is True
            fails += outcome is False
            if parent_name == "criteria.classify_order_one":
                rational_cert += end - start
    out["chains.candidates_tested"] = candidates
    out["chains.search_hits"] = hits
    out["chains.search_hit_ratio"] = hits / candidates if candidates else 0.0
    out["chains.verify_pass"] = passes
    out["chains.verify_fail"] = fails
    out["criteria.rational_cert_ms"] = rational_cert * 1e3
    return out
