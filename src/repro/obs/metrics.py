"""Metrics registry and the zero-cost-when-disabled run hook.

The registry is a flat namespace of dotted names holding three
instrument kinds:

* **counters** — monotonically accumulated numbers (``inc``): run,
  event, time and energy totals folded in from each finished run's
  :class:`~repro.kernel.stats.Metrics` and trace counts;
* **gauges** — last-value-wins samples (``gauge``): memory high-water
  marks, code-size proxies;
* **histograms** — bucketed distributions (``observe``): step and I/O
  durations.

Two ways metrics get populated:

* a :class:`RunRecorder` attached to a machine's trace
  (``machine.trace.recorder``) receives every trace event and every
  charged step and attributes energy/waste to tasks — the *detailed*
  per-run path, used by ``python -m repro obs``;
* an **ambient registry** (:func:`collecting`) receives one
  :func:`fold_run` of aggregate trace counters at the end of every
  executor run in the process — the *bulk* path campaigns and the perf
  harness use; its per-run cost is one dictionary fold, nothing per
  step or per event.

When neither is active, the only residue is an ``is not None`` test per
charged step and per trace emit — the fast path's zero-overhead
contract (see DESIGN.md), guarded by the perf harness's metrics gate.

This module deliberately imports nothing from the kernel or the
runtimes: it sits below them in the import graph so both can feed it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

#: canonical name of the step kind the executor charges for reboots;
#: duplicated from :mod:`repro.kernel.stats` (the kernel package's
#: executor imports *us*) to keep the import graph acyclic — pinned by
#: a test.
BOOT_KIND = "boot"

#: re-execution semantics that get per-semantic counter breakdowns
IO_SEMANTICS = ("Single", "Timely", "Always")
DMA_SEMANTICS = ("Single", "Private", "Always", "Exclude")


class Histogram:
    """A power-of-two bucketed distribution (microsecond-ish scales).

    Bucket ``b`` counts observations in ``[2**(b-1), 2**b)``; bucket 0
    counts values below 1.  Small, mergeable, JSON-friendly.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = int(value).bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Resolution is the bucket width: the answer is the upper edge
        of the first bucket whose cumulative count reaches ``q`` of
        the total — exact to within a factor of two, which is all a
        power-of-two histogram ever promises.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cum = 0
        for b, n in sorted(self.buckets.items()):
            cum += n
            if cum >= target:
                return float(1 << b) if b else 1.0
        return float(self.max)  # pragma: no cover - q > 1 only

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n

    def to_json(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": None if self.count == 0 else round(self.min, 6),
            "max": None if self.count == 0 else round(self.max, 6),
            "buckets": {
                str(1 << b if b else 0): n
                for b, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """A flat, mergeable namespace of counters, gauges and histograms.

    ``counters`` is a public plain dict on purpose: the end-of-run
    folds (:func:`fold_run`, and the executor's ``vm.*`` and energy
    environment counters) add into it directly, with no method-call
    overhead.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instruments ------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        c = self.counters
        c[name] = c.get(name, 0) + value

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- folding ----------------------------------------------------------

    def merge_counts(
        self, counts: Mapping[str, float], prefix: str = ""
    ) -> None:
        """Add a plain mapping of counters into this registry."""
        c = self.counters
        if prefix:
            for k, v in counts.items():
                key = prefix + k
                c[key] = c.get(key, 0) + v
        else:
            for k, v in counts.items():
                c[k] = c.get(k, 0) + v

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_counts(other.counters)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "counters": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in sorted(self.counters.items())
            },
            "gauges": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in sorted(self.gauges.items())
            },
            "histograms": {
                k: h.to_json() for k, h in sorted(self.histograms.items())
            },
        }

    @staticmethod
    def diff(
        a: Mapping[str, object], b: Mapping[str, object]
    ) -> Dict[str, Dict[str, object]]:
        """Per-name deltas between two ``to_json`` documents (b - a).

        Only names whose values differ appear; a name present in one
        document only is compared against zero.
        """
        out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}}
        for section in ("counters", "gauges"):
            av: Mapping = a.get(section, {})  # type: ignore[assignment]
            bv: Mapping = b.get(section, {})  # type: ignore[assignment]
            for name in sorted(set(av) | set(bv)):
                x, y = av.get(name, 0), bv.get(name, 0)
                if x != y:
                    out[section][name] = {
                        "a": x,
                        "b": y,
                        "delta": round(y - x, 6),
                    }
        return out


# -- Prometheus text exposition (format version 0.0.4) ---------------------


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """A registry name as a legal Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prometheus_value(value: float) -> str:
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def _prometheus_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def prometheus_line(
    name: str,
    labels: Optional[Mapping[str, str]],
    value: float,
) -> str:
    """One sample line, labels sorted and escaped per the text format."""
    if labels:
        inner = ",".join(
            f'{k}="{_prometheus_escape(str(v))}"'
            for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {_prometheus_value(value)}"
    return f"{name} {_prometheus_value(value)}"


def render_prometheus(
    registry: "MetricsRegistry", prefix: str = "repro_"
) -> str:
    """The registry as Prometheus text exposition (one family per name).

    Histograms render the standard cumulative ``_bucket`` series: our
    power-of-two bucket ``b`` holds ``[2**(b-1), 2**b)``, so its upper
    edge ``le="2**b"`` is exact, plus the mandatory ``+Inf`` bucket,
    ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name in sorted(registry.counters):
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(prometheus_line(metric, None, registry.counters[name]))
    for name in sorted(registry.gauges):
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(prometheus_line(metric, None, registry.gauges[name]))
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cum = 0
        for b, n in sorted(hist.buckets.items()):
            cum += n
            le = str(1 << b) if b else "1"
            lines.append(
                prometheus_line(metric + "_bucket", {"le": le}, cum)
            )
        lines.append(
            prometheus_line(metric + "_bucket", {"le": "+Inf"}, hist.count)
        )
        lines.append(prometheus_line(metric + "_sum", None, hist.total))
        lines.append(prometheus_line(metric + "_count", None, hist.count))
    return "\n".join(lines) + ("\n" if lines else "")


# -- the ambient (process-wide) registry ----------------------------------

_AMBIENT: Optional[MetricsRegistry] = None


def ambient() -> Optional[MetricsRegistry]:
    """The active ambient registry, or None when collection is off."""
    return _AMBIENT


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Aggregate every executor run in this process into one registry.

    Nestable; the previous ambient registry (usually None) is restored
    on exit.  Campaign *workers* are separate processes — their runs
    fold into their own ambient registries; the parent aggregates the
    per-run counters that verdicts already carry back.
    """
    global _AMBIENT
    reg = registry if registry is not None else MetricsRegistry()
    prev = _AMBIENT
    _AMBIENT = reg
    try:
        yield reg
    finally:
        _AMBIENT = prev


# -- end-of-run folding ----------------------------------------------------


def fold_run(registry: MetricsRegistry, metrics, trace) -> None:
    """Fold one finished run's aggregates into ``registry``.

    ``metrics`` is the run's :class:`~repro.kernel.stats.Metrics`;
    ``trace`` the machine's :class:`~repro.hw.trace.Trace` (its counters
    are maintained even in ``trace_events=False`` runs, so the fold is
    identical on the fast path, the reference path, and counter-only
    bulk runs).
    """
    c = registry.counters

    def inc(name: str, value: float) -> None:
        if value:
            c[name] = c.get(name, 0) + value

    tc = trace.counts()
    inc("runs", 1)
    inc("runs.completed", 1 if metrics.completed else 0)
    inc("power.failures", metrics.power_failures)
    inc("power.cycles", tc.get("boot", 0))
    inc("task.commits", metrics.task_commits)
    inc("task.starts", tc.get("task_start", 0))

    inc("io.executed", metrics.io_executions)
    inc("io.reexecuted", metrics.io_reexecutions)
    inc("io.skipped", metrics.io_skips)
    for sem in IO_SEMANTICS:
        inc(f"io.executed.{sem}", tc.get(f"io_exec:{sem}", 0))
        inc(f"io.reexecuted.{sem}", tc.get(f"io_exec:{sem}:repeat", 0))

    inc("dma.copies", metrics.dma_executions)
    inc("dma.reexecuted", metrics.dma_reexecutions)
    inc("dma.skipped", metrics.dma_skips)
    inc("dma.forced", tc.get("dma_exec:forced", 0))
    inc("dma.bytes", tc.get("dma_exec:nbytes", 0))
    for sem in DMA_SEMANTICS:
        inc(f"dma.copies.{sem}", tc.get(f"dma_exec:{sem}", 0))
    inc("reexecutions", metrics.io_reexecutions + metrics.dma_reexecutions)

    inc("priv.privatizations", tc.get("privatize", 0))
    inc("priv.restores", tc.get("restore", 0))
    inc("priv.bytes", tc.get("privatize:nbytes", 0))
    inc("priv.restore_bytes", tc.get("restore:nbytes", 0))

    inc("time.total_us", metrics.total_time_us)
    inc("time.active_us", metrics.active_time_us)
    inc("time.app_us", metrics.app_time_us)
    inc("time.overhead_us", metrics.overhead_time_us)
    inc("time.boot_us", metrics.boot_time_us)
    inc("time.dark_us", metrics.dark_time_us)

    inc("energy.total_uj", metrics.energy_uj)
    for category, uj in metrics.energy_by_category.items():
        inc(f"energy.{category}_uj", uj)

    for region, nbytes in metrics.memory_footprint.items():
        registry.gauges[f"mem.{region}_bytes"] = nbytes
    registry.gauges["text.proxy_bytes"] = metrics.text_proxy


class RunRecorder:
    """Detailed per-run metrics hook, attached via ``trace.recorder``.

    Receives every trace event (through :meth:`~repro.hw.trace.Trace.emit`)
    and every charged step (from the executor), and attributes energy and
    wasted work to the task that was running.  *Wasted-work steps* are
    steps charged in task attempts that never committed — the Figure 7
    "Wasted" bar at step granularity.  On :meth:`finish` the run's
    aggregates (:func:`fold_run`) land in :attr:`registry` too, so one
    recorder holds the complete picture of one run.
    """

    __slots__ = (
        "registry",
        "_task",
        "_attempt_steps",
        "_attempt_us",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._task: Optional[str] = None
        self._attempt_steps = 0
        self._attempt_us = 0.0

    # called by the executor for every charged step (possibly truncated)
    def on_step(self, step, executed_us: float, energy_uj: float) -> None:
        reg = self.registry
        reg.observe("step_us", executed_us)
        if step.kind == BOOT_KIND:
            return
        self._attempt_steps += 1
        self._attempt_us += executed_us
        task = self._task
        if task is not None:
            reg.inc(f"task.{task}.energy_uj", energy_uj)

    # called by Trace.emit for every event
    def on_event(self, time_us: float, kind: str, detail: Dict) -> None:
        reg = self.registry
        if kind == "task_start":
            task = detail.get("task")
            self._task = task if isinstance(task, str) else None
            if self._task is not None:
                reg.inc(f"task.{self._task}.attempts")
        elif kind == "task_commit":
            if self._task is not None:
                reg.inc(f"task.{self._task}.commits")
            # the attempt's work landed: nothing was wasted
            self._attempt_steps = 0
            self._attempt_us = 0.0
        elif kind == "power_failure":
            reg.inc("wasted.steps", self._attempt_steps)
            reg.inc("wasted.time_us", self._attempt_us)
            if self._task is not None:
                reg.inc(f"task.{self._task}.wasted_steps", self._attempt_steps)
            self._attempt_steps = 0
            self._attempt_us = 0.0
        elif kind == "io_exec":
            dur = detail.get("duration_us")
            if dur is not None:
                reg.observe("io_us", dur)  # type: ignore[arg-type]
            if detail.get("repeat") and self._task is not None:
                reg.inc(f"task.{self._task}.io_reexecuted")

    # called by the executor after the run's metrics are assembled
    def finish(self, metrics, trace) -> None:
        fold_run(self.registry, metrics, trace)
