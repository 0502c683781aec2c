"""Layer kernels: scalar and UniPoly operations timed in isolation.

Operands are drawn from the workload seed.  Each kernel is timed in
batches and reports the median per-call time over its batches, so one
slow batch does not move it.
"""

from __future__ import annotations

import operator
import random
import statistics
from time import perf_counter

from workloads import rand_group, rand_q

BATCHES = 5


def _per_call(fn, operands, min_batch_s):
    """Median over BATCHES of the mean time of one call, cycling operands."""
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            for args in operands:
                fn(*args)
        elapsed = perf_counter() - start
        if elapsed >= min_batch_s:
            break
        reps *= 2
    times = [elapsed / (reps * len(operands))]
    for _ in range(BATCHES - 1):
        start = perf_counter()
        for _ in range(reps):
            for args in operands:
                fn(*args)
        times.append((perf_counter() - start) / (reps * len(operands)))
    return statistics.median(times)


def _nonzero_q(rng, span):
    while True:
        q = rand_q(rng, span)
        if q:
            return q


def _monic(rng, pk, degree):
    coeffs = [pk.AlgebraicScalar.rational(_nonzero_q(rng, 3)) for _ in range(degree)]
    return pk.UniPoly(None, coeffs + [pk.AlgebraicScalar.rational(1)])


def run_kernels(seed):
    """Return the kernel metrics (``exactfield.*`` and ``groups.trees_per_s``)."""
    import pfaffkit as pk
    from pfaffkit.groups import EULERIAN, check_series
    from pfaffkit.parser import parse_group_text

    rng = random.Random(f"kernels/{seed}")
    out = {}

    def scalars(field, count=16):
        degree = 1 if field is None else field.degree
        vals = []
        for _ in range(count):
            coords = [_nonzero_q(rng, 999) for _ in range(degree)]
            vals.append(pk.AlgebraicScalar.rational(coords[0]) if field is None
                        else field.scalar(*coords))
        return vals

    sqrt2 = pk.nf_new([-2, 0, 1], name="r")
    cbrt2 = pk.nf_new([-2, 0, 0, 1], name="c")
    mul = operator.mul
    for name, field in (("q", None), ("qsqrt2", sqrt2), ("qcbrt2", cbrt2)):
        xs, ys = scalars(field), scalars(field)
        out[f"exactfield.{name}_mul_us"] = _per_call(mul, list(zip(xs, ys)), 0.02) * 1e6
    out["exactfield.qsqrt2_inv_us"] = _per_call(
        pk.AlgebraicScalar.inverse, [(a,) for a in scalars(sqrt2)], 0.02) * 1e6

    for degree in (5, 20, 60):
        pairs = [(_monic(rng, pk, degree), _monic(rng, pk, degree)) for _ in range(2)]
        out[f"exactfield.unipoly_mul_d{degree}_ms"] = _per_call(mul, pairs, 0.02) * 1e3
        if degree == 20:
            divs = [(a * b, b) for a, b in pairs]
            out["exactfield.unipoly_divmod_d20_ms"] = _per_call(divmod, divs, 0.02) * 1e3
        half = degree // 2
        gcds = []
        for _ in range(2):
            g = _monic(rng, pk, half)
            gcds.append((g * _monic(rng, pk, degree - half), g * _monic(rng, pk, degree - half)))
        out[f"exactfield.poly_gcd_d{degree}_ms"] = _per_call(pk.poly_gcd, gcds, 0.02) * 1e3

    trees = [(parse_group_text(rand_group(rng)), EULERIAN) for _ in range(64)]
    out["groups.trees_per_s"] = 1.0 / _per_call(check_series, trees, 0.02)
    return out
