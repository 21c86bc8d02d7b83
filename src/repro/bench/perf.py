"""Performance-regression harness for the simulator itself.

The paper's evaluation pipeline is simulation-bound: exhaustive
fault-injection campaigns execute one run per step boundary, and every
figure averages tens-to-hundreds of repetitions per cell.  This module
times that pipeline end-to-end on a small, fixed set of
macro-benchmarks and writes the numbers to ``BENCH_sim.json`` so a
change that slows the simulator down is caught by diffing the file (CI
uploads it as an artifact on every run).

Benchmarks (deterministic, fixed seeds):

``campaign_uni_dma``
    the exhaustive single-failure checking campaign of ``uni_dma`` on
    EaseIO, single worker — the checker's hot loop;
``run_many_dnn``
    ``run_many`` of the 11-task DNN weather classifier (the paper's
    ``dnn`` workload), 50 repetitions on EaseIO — the Figure 10 loop;
``run_many_fir``
    ``run_many`` of the FIR app, 50 repetitions on EaseIO;
``continuous_fir``
    back-to-back continuous-power FIR runs — pure interpreter speed,
    no failure machinery.

``--compare`` runs every benchmark twice: on the **reference path**
(``REPRO_SIM_PATH=reference`` — per-run rebuilds, byte round-trip
memory, the generator interpreter) and on the default **VM path**
(:mod:`repro.vm`), recording the honest same-machine speedup of the
VM.  Timed walls are the best of ``--repeats`` back-to-back passes
(min-of-N, the standard defence against scheduler noise).  A compared
benchmark whose VM speedup falls below :data:`VM_FLOOR` fails the
run: a same-run ratio, so it needs no history.

``BENCH_sim.json`` is a *snapshot* of one run.  The perf trajectory is
the obs series (:mod:`repro.obs.series`): with ``--series FILE`` (or
``REPRO_OBS_SERIES``) the run also records one perf point there, and
``python -m repro obs trends [--gate]`` renders and gates the points.

Every timed benchmark also runs under an ambient
:class:`~repro.obs.metrics.MetricsRegistry` (:func:`collecting`), so
``BENCH_sim.json`` records *what* each benchmark simulated (runs,
failures, I/O, commits, energy) alongside how long it took — a perf
number whose workload silently changed is no longer comparable, and now
the file says so.  ``--metrics-gate PCT`` additionally times each
benchmark with collection off and on, failing the suite when ambient
metrics collection costs more than ``PCT`` percent of the default
path's throughput — the zero-overhead contract of the obs hook,
enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import fastpath
from repro.obs import metrics as obs_metrics
from repro.obs import series as obs_series
from repro.obs.series import git_rev as _git_rev

#: file format version for BENCH_sim.json consumers
SCHEMA = "repro.bench.perf/3"

#: ``--compare`` fails when a benchmark's VM speedup over the
#: reference path is below this (on a 2-vCPU host quick runs sit at
#: 4-7x, full runs at 3-12x; the floor catches the VM regressing toward
#: interpreter speed, ~1x, without pinning the headline number)
VM_FLOOR = 2.5

#: the stable subset of ambient counters recorded per benchmark —
#: workload identity, not the full registry dump
SNAPSHOT_COUNTERS = (
    "runs",
    "runs.completed",
    "power.failures",
    "task.commits",
    "io.executed",
    "io.reexecuted",
    "io.skipped",
    "dma.copies",
    "dma.skipped",
    "priv.bytes",
    "reexecutions",
)


# -- benchmark bodies -------------------------------------------------------
#
# Each returns the number of simulated runs it performed, so the harness
# can report a throughput (runs/s) alongside the wall clock.


def _bench_campaign_uni_dma(quick: bool) -> int:
    from repro.check.campaign import CampaignConfig, run_campaign

    cfg = CampaignConfig(
        app="uni_dma",
        runtime="easeio",
        mode="exhaustive",
        workers=1,
        limit=40 if quick else None,
        shrink=False,
    )
    report = run_campaign(cfg)
    # +2: the oracle run and the boundary probe are simulated runs too
    return report.n_runs + 2


def _bench_run_many_dnn(quick: bool) -> int:
    from repro.apps import APPS
    from repro.bench.runner import run_many

    reps = 10 if quick else 50
    run_many(APPS["weather"], "easeio", reps=reps, seed0=0, env_seed=1)
    return reps + 1  # +1: the continuous-power "App bar" run


def _bench_run_many_fir(quick: bool) -> int:
    from repro.apps import APPS
    from repro.bench.runner import run_many

    reps = 10 if quick else 50
    run_many(APPS["fir"], "easeio", reps=reps, seed0=0, env_seed=1)
    return reps + 1


def _bench_continuous_fir(quick: bool) -> int:
    from repro.core.run import run_app
    from repro.kernel.power import NoFailures

    reps = 20 if quick else 100
    for _ in range(reps):
        run_app(
            "fir",
            runtime="easeio",
            failure_model=NoFailures(),
            seed=1,
            trace_events=False,
            reuse_machine=True,
        )
    return reps


#: registry order is the execution (and report) order
BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    "campaign_uni_dma": _bench_campaign_uni_dma,
    "run_many_dnn": _bench_run_many_dnn,
    "run_many_fir": _bench_run_many_fir,
    "continuous_fir": _bench_continuous_fir,
}


def select_benchmarks(names: Optional[List[str]] = None) -> List[str]:
    """The benchmarks to run, in deterministic registry order."""
    if not names:
        return list(BENCHMARKS)
    unknown = sorted(set(names) - set(BENCHMARKS))
    if unknown:
        raise ValueError(
            f"unknown benchmarks {unknown}; available: {list(BENCHMARKS)}"
        )
    return [name for name in BENCHMARKS if name in set(names)]


def _metrics_snapshot(reg) -> Dict[str, object]:
    c = reg.counters
    out: Dict[str, object] = {}
    for key in SNAPSHOT_COUNTERS:
        v = c.get(key)
        if v:
            out[key] = round(v, 2) if isinstance(v, float) else v
    uj = c.get("energy.total_uj")
    if uj:
        out["energy.total_uj"] = round(uj, 1)
    return out


def _time_once(
    name: str, quick: bool, collect: bool = True, repeats: int = 1
) -> Dict[str, object]:
    wall = None
    runs = 0
    metrics = None
    for _ in range(max(1, repeats)):
        fastpath.clear_caches()
        if collect:
            with obs_metrics.collecting() as reg:
                t0 = time.perf_counter()
                runs = BENCHMARKS[name](quick)
                pass_wall = time.perf_counter() - t0
            metrics = _metrics_snapshot(reg)
        else:
            t0 = time.perf_counter()
            runs = BENCHMARKS[name](quick)
            pass_wall = time.perf_counter() - t0
        if wall is None or pass_wall < wall:
            wall = pass_wall
    entry: Dict[str, object] = {
        "name": name,
        "runs": runs,
        "wall_s": round(wall, 4),
        "runs_per_s": round(runs / wall, 2) if wall > 0 else None,
    }
    if metrics is not None:
        entry["metrics"] = metrics
    return entry


def run_suite(
    names: Optional[List[str]] = None,
    quick: bool = False,
    compare: bool = False,
    metrics_gate: Optional[float] = None,
    repeats: int = 1,
) -> Dict[str, object]:
    """Execute the suite; returns the BENCH_sim.json document.

    ``compare`` times each benchmark on the reference path and the VM
    path back-to-back; each wall is the min of ``repeats`` passes.
    ``metrics_gate`` (a percentage) times every benchmark twice on the
    default path — ambient metrics collection off, then on — and marks
    the document as failed when total with-metrics wall clock exceeds
    the plain wall clock by more than that percentage.  All timings of one benchmark run back-to-back on the
    same machine, so comparisons are robust to absolute machine speed.
    """
    selected = select_benchmarks(names)
    results: List[Dict[str, object]] = []
    was_path = fastpath.path()
    plain_total = 0.0
    collected_total = 0.0
    try:
        for name in selected:
            entry: Dict[str, object]
            if compare:
                fastpath.set_path("reference")
                before = _time_once(name, quick, repeats=repeats)
                fastpath.set_path("vm")
                entry = _time_once(name, quick, repeats=repeats)
                entry["baseline_wall_s"] = before["wall_s"]
                entry["baseline_runs_per_s"] = before["runs_per_s"]
                wall = float(entry["wall_s"])  # type: ignore[arg-type]
                base = float(before["wall_s"])  # type: ignore[arg-type]
                entry["vm_speedup"] = round(base / wall, 2) if wall > 0 else None
            elif metrics_gate is not None:
                plain = _time_once(name, quick, collect=False, repeats=repeats)
                entry = _time_once(name, quick, collect=True, repeats=repeats)
                entry["plain_wall_s"] = plain["wall_s"]
                plain_wall = float(plain["wall_s"])  # type: ignore[arg-type]
                wall = float(entry["wall_s"])  # type: ignore[arg-type]
                plain_total += plain_wall
                collected_total += wall
                entry["metrics_overhead"] = (
                    round(wall / plain_wall, 4) if plain_wall > 0 else None
                )
            else:
                entry = _time_once(name, quick, repeats=repeats)
            results.append(entry)
            print(_format_entry(entry), file=sys.stderr, flush=True)
    finally:
        fastpath.set_path(was_path)
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "git_rev": _git_rev(),
        "date": time.strftime("%Y-%m-%d"),
        "fastpath": fastpath.enabled(),
        "quick": quick,
        "compare": compare,
        "repeats": max(1, repeats),
        "benchmarks": results,
    }
    if metrics_gate is not None:
        overhead_pct = (
            (collected_total / plain_total - 1.0) * 100.0
            if plain_total > 0 else 0.0
        )
        doc["metrics_gate_pct"] = metrics_gate
        doc["metrics_overhead_pct"] = round(overhead_pct, 2)
        doc["metrics_gate_ok"] = overhead_pct <= metrics_gate
        print(
            f"[perf] metrics collection overhead: {overhead_pct:+.2f}% "
            f"(gate {metrics_gate}%): "
            f"{'OK' if doc['metrics_gate_ok'] else 'FAIL'}",
            file=sys.stderr, flush=True,
        )
    return doc


def _format_entry(entry: Dict[str, object]) -> str:
    line = (
        f"[perf] {entry['name']}: {entry['wall_s']}s "
        f"({entry['runs']} runs, {entry['runs_per_s']} runs/s)"
    )
    if "vm_speedup" in entry:
        line += (
            f"  vs reference {entry['baseline_wall_s']}s "
            f"-> vm {entry['vm_speedup']}x"
        )
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench perf",
        description="Time the simulation pipeline's macro-benchmarks.",
    )
    parser.add_argument(
        "benchmarks", nargs="*",
        help=f"subset to run (default: all of {', '.join(BENCHMARKS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads (CI smoke; not comparable to full runs)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="also time the reference path (REPRO_SIM_PATH=reference) "
             "and record the vm speedup over it; exit 1 if any is "
             f"below {VM_FLOOR}x",
    )
    parser.add_argument(
        "--metrics-gate", type=float, default=None, metavar="PCT",
        help="time each benchmark with ambient metrics collection off "
             "and on; exit 1 if collection costs more than PCT percent "
             "of the default path's wall clock",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timed passes per path; the recorded wall is the fastest "
             "(min-of-N noise suppression, default 3)",
    )
    parser.add_argument(
        "--output", default="BENCH_sim.json",
        help="where to write this run's snapshot "
             "(default: ./BENCH_sim.json)",
    )
    parser.add_argument(
        "--series", default=None, metavar="FILE",
        help="also append a perf point to this obs series file "
             "(REPRO_OBS_SERIES works too); obs trends renders and "
             "gates it",
    )
    args = parser.parse_args(argv)
    if args.compare and args.metrics_gate is not None:
        parser.error("--compare and --metrics-gate are mutually exclusive")
    try:
        doc = run_suite(
            names=args.benchmarks,
            quick=args.quick,
            compare=args.compare,
            metrics_gate=args.metrics_gate,
            repeats=args.repeats,
        )
    except ValueError as exc:
        parser.error(str(exc))
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output} (git {doc['git_rev']})")
    if args.series:
        obs_series.activate(args.series)
    # no-op unless a series store is active (flag, activate(), env var)
    obs_series.record_perf_point(doc)
    failed = False
    if args.metrics_gate is not None and not doc.get("metrics_gate_ok", True):
        print(
            f"metrics gate FAILED: collection overhead "
            f"{doc['metrics_overhead_pct']}% > {args.metrics_gate}%",
            file=sys.stderr,
        )
        failed = True
    for bench in doc["benchmarks"]:
        vm_speedup = bench.get("vm_speedup")
        if vm_speedup is not None and vm_speedup < VM_FLOOR:
            print(
                f"vm floor FAILED: {bench['name']} vm speedup "
                f"{vm_speedup}x < {VM_FLOOR}x",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
