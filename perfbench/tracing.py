"""Span tracing around pfaffkit's layer boundaries, installed from outside.

``Tracer.install()`` replaces each traced function at every name its
callers look it up under (``criteria`` calls ``criteria.search_presentation``,
``cli`` calls ``cli.classify_order_one``, ...), and wraps a few class
methods with plain call counters.  ``uninstall()`` restores every original.

A span is ``[name, start, end, parent, outcome]``; spans stay in memory
until ``write()``.  A call that re-enters the function of the enclosing
span (``check_series`` recursing into itself) is not a new span.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


def _ok(result):
    return bool(result.ok)


def _found(result):
    return result is not None


# span name -> (lookup sites "module:attribute", outcome recorder).  Spans
# without a metric of their own keep their time out of the caller's self time.
SPANS = {
    "cli.run": (("cli:run",), None),
    "parser.parse": (
        ("cli:parse_ode_text", "cli:parse_linear_text", "cli:parse_group_text",
         "cli:parse_fixture_text", "parser:parse_fixture_text"),
        None,
    ),
    # field declarations happen while parsing; kept out of parser self time
    "exactfield.nf_new": (("parser:nf_new",), None),
    "criteria.classify_order_one": (("cli:classify_order_one",), None),
    "criteria.classify_linear": (("cli:classify_linear",), None),
    "criteria.extract_factored": (("criteria:extract_factored", "cli:extract_factored"), None),
    "criteria.refute": (("criteria:not_pfaffian_by_degree_theorem",), None),
    "chains.rational_to_noetherian": (
        ("criteria:rational_to_noetherian", "cli:rational_to_noetherian",
         "chains:rational_to_noetherian"),
        None,
    ),
    "chains.search_presentation": (
        ("criteria:search_presentation", "cli:search_presentation"), _found,
    ),
    "chains.verify_forward": (("chains:verify_forward", "cli:verify_forward"), _ok),
    "chains.verify_backward": (
        ("chains:verify_backward", "criteria:verify_backward", "cli:verify_backward"), _ok,
    ),
    "diffalg.substitute_cleared": (("chains:substitute_cleared",), None),
    "diffalg.riccati_reduce": (("criteria:riccati_reduce", "diffalg:riccati_reduce"), None),
    "exactfield.poly_gcd": (
        ("exactfield:poly_gcd", "diffalg:poly_gcd", "chains:poly_gcd"), None,
    ),
    "exactfield.extract_linear_roots": (
        ("criteria:extract_linear_roots", "chains:extract_linear_roots"), None,
    ),
    "groups.check_series": (
        ("groups:check_series", "cli:check_series", "criteria:check_series"), None,
    ),
}

# counter name -> class methods "module:Class.method"; used as counts only
COUNTERS = {
    "exactfield.scalar_mul": ("exactfield:AlgebraicScalar.__mul__", "exactfield:AlgebraicScalar.__rmul__"),
    "exactfield.scalar_add": (
        "exactfield:AlgebraicScalar.__add__", "exactfield:AlgebraicScalar.__radd__",
        "exactfield:AlgebraicScalar.__sub__", "exactfield:AlgebraicScalar.__rsub__",
    ),
    "exactfield.scalar_inv": ("exactfield:AlgebraicScalar.inverse",),
    "exactfield.unipoly_mul": ("exactfield:UniPoly.__mul__", "exactfield:UniPoly.__rmul__"),
    "exactfield.unipoly_divmod": ("exactfield:UniPoly.__divmod__",),
    "diffalg.ratfunc_new": ("diffalg:RatFunc.__init__",),
    "diffalg.diffratfunc_new": ("diffalg:DiffRatFunc.__init__",),
}


def _module(short):
    return importlib.import_module(f"pfaffkit.{short}")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- installation

    def install(self):
        for name, (sites, outcome) in SPANS.items():
            for site in sites:
                mod_name, attr = site.split(":")
                mod = _module(mod_name)
                if hasattr(mod, attr):
                    fn = getattr(mod, attr)
                    self._patch(mod, attr, fn, self._span_wrapper(name, fn, outcome))
        for name, sites in COUNTERS.items():
            for site in sites:
                mod_name, path = site.split(":")
                cls_name, attr = path.split(".")
                cls = getattr(_module(mod_name), cls_name)
                if attr in vars(cls):
                    fn = vars(cls)[attr]
                    self._patch(cls, attr, fn, self._count_wrapper(name, fn))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn, outcome):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if outcome is not None:
                rec[4] = outcome(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn):
        """Run ``fn()`` inside a span of its own (the benchmark's operations)."""
        return self._span_wrapper(name, fn, None)()

    # -- results

    def summary(self):
        """Per span name: number of spans, total seconds, self seconds."""
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        return calls, total, self_time

    def write(self, path):
        """Write every span as one JSON array per line, times in microseconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, outcome in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), parent, outcome]) + "\n")
