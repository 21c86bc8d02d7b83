"""Metric definitions and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` must list exactly the
same triples (the self-tests compare them).  ``PER_LAYER`` also records,
for every layer metric, the end-to-end metric it should move and the
workload it should move it on — the prediction a later change that
claims a gain is judged against.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "units_per_s": ("1/s", "higher"),
    "warm_units_per_s": ("1/s", "higher"),
    "cold_job_p50_s": ("s", "lower"),
    "cold_job_tail_s": ("s", "lower"),
    "warm_job_p50_s": ("s", "lower"),
    "warm_job_tail_s": ("s", "lower"),
    "cpu_ms_per_unit": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: top-level layers: the package modules the traced run splits time over
LAYERS: Tuple[str, ...] = (
    "core", "vm", "kernel", "env", "check", "serve", "fleet", "obs",
)

_C, _S = "check", "serve"
_UPS, _WUPS = "units_per_s", "warm_units_per_s"
_COLD, _WARM = "cold_job_p50_s", "warm_job_p50_s"

#: name -> (unit, better, ((end-to-end metric it should move, workload), ...))
PER_LAYER: Dict[str, Tuple[str, str, Tuple[Tuple[str, str], ...]]] = {}


def _layer(names: str, unit: str, moves: Tuple[Tuple[str, str], ...],
           better: str = "lower") -> None:
    for name in names.split():
        PER_LAYER[name] = (unit, better, moves)


_layer("kernel.exec.s", "s", ((_UPS, _C),))
_layer("kernel.exec.runs kernel.sim_events", "count", ((_UPS, _C),))
_layer("kernel.exec.us_per_event", "us", ((_UPS, _C),))
# 0 while the VM is off by default; paid once per runtime instance, so
# amortized over ~170 runs per check cell
_layer("vm.lower.s", "s", ((_UPS, _C),))
_layer("vm.lower.calls", "count", ((_UPS, _C),))
_layer("core.compile.s", "s", ((_UPS, _C),))
_layer("core.compile.misses", "count", ((_UPS, _C),))
# only the check cells under an energy environment call the env hooks
_layer("env.hooks.s", "s", ((_UPS, _C),))
_layer("env.hooks.calls env.brownouts", "count", ((_UPS, _C),))
_layer("check.diff.s", "s", ((_UPS, _C),))
_layer("check.diff.calls", "count", ((_UPS, _C),))
_layer("check.oracle.s check.probe.s", "s", ((_WUPS, _C),))
_layer("check.shrink.s check.shrink.incl_s", "s", ((_UPS, _C),))
_layer("check.shrink.evals", "count", ((_UPS, _C),))
_layer("serve.store.put.s", "s", ((_UPS, _C), (_COLD, _S)))
_layer("serve.store.puts", "count", ((_UPS, _C), (_COLD, _S)))
_layer("serve.store.get.s serve.keys.s serve.checkpoint.append.s", "s",
       ((_WUPS, _C),))
_layer("serve.store.gets", "count", ((_WUPS, _C),))
_layer("serve.store.hit_ratio", "ratio", ((_WUPS, _C),), better="higher")
_layer("serve.scheduler.wait.s", "s", ((_UPS, _C),))
_layer("serve.scheduler.shards", "count", ((_UPS, _C),))
_layer("serve.client.poll_wait.s serve.http.s serve.api.submit.s", "s",
       ((_WARM, _S), (_COLD, _S)))
_layer("serve.http.requests", "count", ((_WARM, _S), (_COLD, _S)))
_layer("fleet.board.s fleet.first_lease_wait.s", "s", ((_COLD, _S),))
_layer("fleet.lease.calls fleet.complete.calls fleet.requeued_units", "count",
       ((_COLD, _S),))
_layer("fleet.complete.per_unit", "ratio", ((_COLD, _S),))
_layer("obs.series.s", "s", ((_WARM, _S),))
# the wall-time ledger of the traced run: per top-level layer, the self
# time of the spans on the thread that issues the timed calls; with
# unattributed.s these add up to trace.wall.s
_layer("unattributed.s trace.wall.s", "s", ())
_layer("trace.overhead_pct", "%", ())
_layer(" ".join(f"ledger.{layer}.s" for layer in LAYERS), "s", ())


def median(values: Sequence[float]) -> float:
    """The median; 0.0 for no samples (a run whose work all failed)."""
    return float(statistics.median(values)) if values else 0.0


def hd_median(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median; 0.0 for no samples.

    It weighs every order statistic by how likely it is to be the
    median: sample ``i`` of ``n`` sorted ones gets the probability mass
    that a Beta((n+1)/2, (n+1)/2) variable puts on ``((i-1)/n, i/n]``.
    It estimates the same population median as the middle sample does,
    with a smaller spread from run to run when the samples mix jobs of
    different sizes, as a check round's cells do.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a = (n + 1) / 2.0 - 1.0  # both exponents of the Beta density

    def density(x: float) -> float:
        # relative to its value at the mode (1/2), so it never underflows
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(a * (math.log(4.0 * x) + math.log1p(-x)))

    steps = 16  # Simpson's rule over each sample's interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h)
                    for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + 1.0 / n))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(values: Sequence[float], beyond: int = 10) -> Tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Percentiles are nearest-rank: the p-th percentile of ``n`` sorted
    samples is the ``ceil(p * n / 100)``-th smallest, so exactly
    ``n - ceil(p * n / 100)`` samples lie beyond it.  Returns
    ``(p, value)``.  With fewer than ``2 * beyond`` samples that tail
    would sit below the median, so the maximum is returned as p100.
    """
    n = len(values)
    if not n:
        return 100, 0.0
    ordered = sorted(values)
    if n < 2 * beyond:
        return 100, float(ordered[-1])
    p = (100 * (n - beyond)) // n
    return p, float(ordered[-(-p * n // 100) - 1])


def end_to_end_row(name: str, value: float) -> Dict[str, object]:
    return {"value": value, "unit": END_TO_END[name][0]}


def per_layer_row(name: str, value: float) -> Dict[str, object]:
    return {"value": value, "unit": PER_LAYER[name][0]}
