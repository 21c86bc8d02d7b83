"""Rev-over-rev trend rendering and the one regression gate.

``python -m repro obs trends`` answers the fleet-level questions one
campaign report cannot: is campaign throughput holding across git
revs?  Is the warm-cache hit rate where it should be?  Did a
divergence class that used to be clean become nonzero?  Are the VM
speedups ``bench perf`` records drifting down?

Its one input is the **obs series** (:mod:`repro.obs.series`): campaign
points, folded per rev by :func:`~repro.obs.series.series_revs`, and
perf points, listed in recording order.  The series is the only perf
trajectory; ``BENCH_sim.json`` is a snapshot of one run.

:func:`gate_problems` turns rendering into enforcement: the *latest*
rev (or perf point) is compared against the best prior one inside
:data:`WINDOW`, and the gate fails when throughput or a VM speedup
dropped more than :data:`MAX_DROP_PCT` percent, when a divergence
class is newly nonzero, or when the warm-hit rate sits below an
opt-in floor.  A series with no points at all also fails — silently
green on missing data is how trend lines die.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.series import series_revs

SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: the gate fails on a throughput or VM-speedup drop beyond this
#: percentage of the best prior rev
MAX_DROP_PCT = 30.0

#: how many prior revs (or perf points) form the gate's baseline
WINDOW = 10


def sparkline(values: Sequence[float]) -> str:
    """A unicode mini-chart of ``values`` (empty string when < 1)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_CHARS[0] * len(vals)
    span = hi - lo
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[idx])
    return "".join(out)


def perf_points(
    points: Sequence[Mapping[str, object]],
) -> List[Mapping[str, object]]:
    """The ``bench perf`` points of a series, in recording order."""
    return [p for p in points if p.get("kind") == "perf"]


def _vm_speedup(point: Mapping[str, object], name: str) -> Optional[float]:
    cell = (point.get("benchmarks") or {}).get(name) or {}  # type: ignore
    value = cell.get("vm_speedup")
    return None if value is None else float(value)


# -- rendering --------------------------------------------------------------


def _table(rows: List[List[str]]) -> str:
    if not rows:
        return ""
    widths = [
        max(len(row[i]) for row in rows) for i in range(len(rows[0]))
    ]
    lines = [
        "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)
        ).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_series_trend(revs: List[Dict[str, object]]) -> str:
    if not revs:
        return "series: no campaign points recorded yet"
    rows: List[List[str]] = [[
        "rev", "points", "units", "runs/s", "hit-rate", "divergence",
    ]]
    for row in revs:
        div = row["divergence"]
        rows.append([
            str(row["rev"]),
            str(row["points"]),
            str(row["units"]),
            f"{row['runs_per_s']}",
            f"{row['hit_rate']}",
            (
                ", ".join(
                    f"{cls}={n}" for cls, n in sorted(div.items())  # type: ignore
                )
                or "-"
            ),
        ])
    spark = sparkline([float(r["runs_per_s"]) for r in revs])
    return (
        _table(rows)
        + (f"\nthroughput {spark}" if len(revs) > 1 else "")
    )


def render_perf_trend(perf: Sequence[Mapping[str, object]]) -> str:
    """The perf points as a table: rev, quick, ``vm Nx`` per benchmark."""
    if not perf:
        return "perf: no perf points recorded yet"
    names: List[str] = []
    for point in perf:
        for name in point.get("benchmarks") or {}:  # type: ignore
            if name not in names:
                names.append(name)
    rows: List[List[str]] = [["rev", "quick"] + names]
    for point in perf:
        row = [str(point.get("rev", "?")), "q" if point.get("quick") else "-"]
        for name in names:
            value = _vm_speedup(point, name)
            row.append("-" if value is None else f"vm {value}x")
        rows.append(row)
    lines = [_table(rows)]
    for name in names:
        vals = [
            v for v in (_vm_speedup(p, name) for p in perf) if v is not None
        ]
        if len(vals) > 1:
            lines.append(
                f"{name} vm {sparkline(vals)} ({vals[0]}x -> {vals[-1]}x)"
            )
    return "\n".join(lines)


# -- gating -----------------------------------------------------------------


def _pct_drop(latest: float, baseline: float) -> float:
    if baseline <= 0:
        return 0.0
    return (1.0 - latest / baseline) * 100.0


def gate_problems(
    points: Sequence[Mapping[str, object]],
    min_hit_rate: Optional[float] = None,
) -> List[str]:
    """Every way the latest rev regressed against the trend.

    Empty list == gate passes.  A single rev or a single perf point has
    no baseline and gates nothing (the first run is always green); a
    series with no points at all is itself a problem — a trend gate
    that cannot see the trend must not pass silently.
    """
    problems: List[str] = []
    revs = series_revs(points)
    perf = perf_points(points)
    if not revs and not perf:
        return ["nothing to gate: the series has no campaign or perf points"]

    # 1. campaign throughput per label, latest rev vs best prior rev
    if len(revs) > 1:
        latest = revs[-1]
        prior = revs[-(WINDOW + 1):-1]
        for label, cell in latest["labels"].items():  # type: ignore
            baselines = [
                float(r["labels"][label]["runs_per_s"])  # type: ignore
                for r in prior
                if label in r["labels"]  # type: ignore[operator]
                and float(r["labels"][label]["runs_per_s"]) > 0  # type: ignore
            ]
            if not baselines:
                continue
            best = max(baselines)
            drop = _pct_drop(float(cell["runs_per_s"]), best)
            if drop > MAX_DROP_PCT:
                problems.append(
                    f"throughput regression: {label!r} at rev "
                    f"{latest['rev']} runs at {cell['runs_per_s']} runs/s, "
                    f"{drop:.1f}% below the best prior rev ({best} runs/s; "
                    f"gate {MAX_DROP_PCT}%)"
                )

        # 2. divergence classes newly nonzero in the latest rev
        seen_before = set()
        for r in prior:
            seen_before.update(
                cls for cls, n in r["divergence"].items() if n  # type: ignore
            )
        for cls, n in sorted(latest["divergence"].items()):  # type: ignore
            if n and cls not in seen_before:
                problems.append(
                    f"new divergence class at rev {latest['rev']}: "
                    f"{cls} = {n} (zero in all prior revs)"
                )

    # 3. warm-hit-rate floor (opt-in: only meaningful for cached fleets)
    if min_hit_rate is not None and revs:
        latest = revs[-1]
        if float(latest["hit_rate"]) < min_hit_rate:
            problems.append(
                f"warm-hit rate at rev {latest['rev']} is "
                f"{latest['hit_rate']}, below the floor {min_hit_rate}"
            )

    # 4. VM speedups, latest perf point vs best prior same-quick point
    if len(perf) > 1:
        latest_p = perf[-1]
        prior_p = [
            p for p in perf[-(WINDOW + 1):-1]
            if p.get("quick") == latest_p.get("quick")
        ]
        for name in latest_p.get("benchmarks") or {}:  # type: ignore
            value = _vm_speedup(latest_p, name)
            baselines = [
                v for v in (_vm_speedup(p, name) for p in prior_p)
                if v is not None
            ]
            if value is None or not baselines:
                continue
            best = max(baselines)
            drop = _pct_drop(value, best)
            if drop > MAX_DROP_PCT:
                problems.append(
                    f"perf regression: {name} vm speedup "
                    f"{value}x at rev {latest_p.get('rev')}, "
                    f"{drop:.1f}% below the best prior {best}x "
                    f"(gate {MAX_DROP_PCT}%)"
                )
    return problems
