"""Rev-over-rev trend rendering and regression gating.

``python -m repro obs trends`` answers the fleet-level questions one
campaign report cannot: is campaign throughput holding across git
revs?  Is the warm-cache hit rate where it should be?  Did a
divergence class that used to be clean become nonzero?  Are the
VM speedups in ``BENCH_sim.json`` drifting down?

Two inputs, both optional and both read-only:

* the **obs series store** (``repro.obs.series``) — one point per
  finished campaign and per perf run, grouped here by rev;
* the **perf trajectory** in ``BENCH_sim.json`` — the ``history`` list
  ``bench perf`` appends on every invocation.

``--gate`` turns rendering into enforcement: the *latest* rev is
compared against the best prior rev inside ``--window``, and the exit
status is nonzero when throughput or speedups dropped more than
``--max-drop`` percent, when a divergence class is newly nonzero, or
when the warm-hit rate sits below ``--min-hit-rate``.  A gate with
nothing to gate (no series, no history) also fails — silently green
on missing data is how trend lines die.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence

SPARK_CHARS = "▁▂▃▄▅▆▇█"


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


def load_bench(path: str) -> Optional[Dict[str, object]]:
    """The BENCH_sim.json document, or None when absent/corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


# -- series rollup (per rev, per label) -------------------------------------


def series_revs(
    points: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Campaign points folded per rev, first-seen order preserved.

    Each row carries points/units/elapsed/throughput, cache economics,
    per-label throughput, and the summed divergence-by-class counts —
    everything the table renderer and the gate need.
    """
    order: List[str] = []
    rows: Dict[str, Dict[str, object]] = {}
    for p in points:
        if p.get("kind") != "campaign":
            continue
        rev = str(p.get("rev", "unknown"))
        if rev not in rows:
            order.append(rev)
            rows[rev] = {
                "rev": rev,
                "points": 0,
                "units": 0,
                "elapsed_s": 0.0,
                "store_hits": 0,
                "checkpoint_restored": 0,
                "executed": 0,
                "divergence": {},
                "labels": {},
            }
        row = rows[rev]
        n = int(p.get("units", 0) or 0)
        e = float(p.get("elapsed_s", 0.0) or 0.0)
        row["points"] = int(row["points"]) + 1
        row["units"] = int(row["units"]) + n
        row["elapsed_s"] = float(row["elapsed_s"]) + e
        serve = p.get("serve") or {}
        if isinstance(serve, Mapping):
            for key in ("store_hits", "checkpoint_restored", "executed"):
                row[key] = int(row[key]) + int(serve.get(key, 0) or 0)
        div = p.get("divergence_by_class") or {}
        if isinstance(div, Mapping):
            dest: Dict[str, int] = row["divergence"]  # type: ignore
            for cls, cell in div.items():
                count = (
                    int(cell.get("count", 0))
                    if isinstance(cell, Mapping) else int(cell or 0)
                )
                dest[cls] = dest.get(cls, 0) + count
        label = str(p.get("label", "") or "")
        if label:
            labels: Dict[str, Dict[str, float]] = row["labels"]  # type: ignore
            cell = labels.setdefault(label, {"units": 0, "elapsed_s": 0.0})
            cell["units"] += n
            cell["elapsed_s"] += e
    out: List[Dict[str, object]] = []
    for rev in order:
        row = rows[rev]
        e = float(row["elapsed_s"])
        row["elapsed_s"] = round(e, 4)
        row["runs_per_s"] = (
            round(int(row["units"]) / e, 2) if e > 0 else 0.0
        )
        satisfied = (
            int(row["store_hits"]) + int(row["checkpoint_restored"])
            + int(row["executed"])
        )
        row["hit_rate"] = (
            round(
                (int(row["store_hits"]) + int(row["checkpoint_restored"]))
                / satisfied, 4,
            )
            if satisfied else 0.0
        )
        for cell in row["labels"].values():  # type: ignore[union-attr]
            ce = float(cell["elapsed_s"])
            cell["runs_per_s"] = (
                round(cell["units"] / ce, 2) if ce > 0 else 0.0
            )
            cell["elapsed_s"] = round(ce, 4)
        out.append(row)
    return out


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


def render_bench_trend(doc: Optional[Dict[str, object]]) -> str:
    history = (doc or {}).get("history") or []
    if not history:
        return "bench: no perf history recorded yet"
    names: List[str] = []
    for point in history:
        for name in point.get("speedups", {}):
            if name not in names:
                names.append(name)
    rows: List[List[str]] = [["rev", "date", "q"] + names]
    for point in history:
        row = [
            str(point.get("rev", "?")),
            str(point.get("date", "?")),
            "q" if point.get("quick") else "-",
        ]
        for name in names:
            cell = point.get("speedups", {}).get(name) or {}
            if "vm" in cell:
                row.append(f"vm {cell['vm']}x")
            else:
                row.append(f"{cell.get('wall_s', '-')}s")
        rows.append(row)
    lines = [_table(rows)]
    if len(history) > 1:
        for name in names:
            vals = [
                float(p.get("speedups", {}).get(name, {}).get("vm"))
                for p in history
                if p.get("speedups", {}).get(name, {}).get("vm") is not None
            ]
            if len(vals) > 1:
                lines.append(
                    f"{name} vm {sparkline(vals)} "
                    f"({vals[0]}x -> {vals[-1]}x)"
                )
    return "\n".join(lines)


# -- gating -----------------------------------------------------------------


def _pct_drop(latest: float, baseline: float) -> float:
    if baseline <= 0:
        return 0.0
    return (1.0 - latest / baseline) * 100.0


def gate_problems(
    points: Sequence[Mapping[str, object]],
    bench_doc: Optional[Dict[str, object]],
    max_drop_pct: float = 30.0,
    min_hit_rate: Optional[float] = None,
    window: int = 10,
) -> List[str]:
    """Every way the latest rev regressed against the trend.

    Empty list == gate passes.  Single-rev series and single-entry
    histories have no baseline and gate nothing (first run is always
    green); *no data at all* is itself a problem — a trend gate that
    cannot see the trend must not pass silently.
    """
    problems: List[str] = []
    revs = series_revs(points)
    history = [
        h for h in ((bench_doc or {}).get("history") or [])
        if isinstance(h, Mapping)
    ]
    if not revs and not history:
        return ["nothing to gate: no series points and no perf history"]

    # 1. campaign throughput per label, latest rev vs best prior rev
    if len(revs) > 1:
        latest = revs[-1]
        prior = revs[-(window + 1):-1]
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
            if drop > max_drop_pct:
                problems.append(
                    f"throughput regression: {label!r} at rev "
                    f"{latest['rev']} runs at {cell['runs_per_s']} runs/s, "
                    f"{drop:.1f}% below the best prior rev ({best} runs/s; "
                    f"gate {max_drop_pct}%)"
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

    # 4. perf speedups, latest history entry vs best prior same-quick run
    if len(history) > 1:
        latest_h = history[-1]
        prior_h = [
            h for h in history[-(window + 1):-1]
            if h.get("quick") == latest_h.get("quick")
        ]
        for name, cell in (latest_h.get("speedups") or {}).items():
            value = cell.get("vm")
            if value is None:
                continue
            baselines = [
                float(h.get("speedups", {}).get(name, {}).get("vm"))
                for h in prior_h
                if h.get("speedups", {}).get(name, {}).get("vm") is not None
            ]
            if not baselines:
                continue
            best = max(baselines)
            drop = _pct_drop(float(value), best)
            if drop > max_drop_pct:
                problems.append(
                    f"perf regression: {name} vm speedup "
                    f"{value}x at rev {latest_h.get('rev')}, "
                    f"{drop:.1f}% below the best prior {best}x "
                    f"(gate {max_drop_pct}%)"
                )
    return problems
