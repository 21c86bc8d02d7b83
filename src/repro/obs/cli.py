"""``python -m repro obs`` — observe one run in detail.

Subcommands:

``summary``
    execute one app under the detailed :class:`RunRecorder` hook and
    print the full metrics registry (counters, gauges, histograms);
    with ``--report PATH`` render an existing campaign report's
    telemetry block instead (rate timeline, divergence by class);
``export``
    execute one app and export its span tree — ``--format
    chrome-trace`` writes Perfetto-loadable Chrome trace-event JSON
    (load at https://ui.perfetto.dev), ``--format text`` prints the
    compact indented timeline; ``--validate`` checks the JSON against
    the checked-in ``schemas/chrome_trace.schema.json``;
``diff``
    execute two configurations of the same pipeline (different
    runtime, seed, or app) and print the per-metric deltas;
``trends``
    rev-over-rev fleet analytics: tables and sparklines over the obs
    series store (campaign points per rev, ``bench perf`` points in
    recording order); ``--gate`` exits nonzero when the latest rev
    regressed against the trend.  The series is the only file read.

Examples::

    python -m repro obs summary --app fir --runtime easeio --seed 3
    python -m repro obs export --app uni_dma --format chrome-trace \\
        --output uni_dma.trace.json --validate
    python -m repro obs diff --app fir --runtime easeio --vs-runtime alpaca
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Tuple

from repro.apps import APPS
from repro.core.run import RUNTIMES, run_app
from repro.kernel.executor import RunResult
from repro.kernel.power import NoFailures, UniformFailureModel
from repro.obs import series as obs_series
from repro.obs.export import chrome_trace_doc, text_timeline, validate_json
from repro.obs.metrics import RunRecorder
from repro.obs.spans import build_spans, check_invariants
from repro.obs.trends import (
    MAX_DROP_PCT,
    WINDOW,
    gate_problems,
    perf_points,
    render_perf_trend,
    render_series_trend,
    sparkline,
)

#: repo-root schema the ``export --validate`` flag checks against
SCHEMA_RELPATH = os.path.join("schemas", "chrome_trace.schema.json")


def _add_run_args(
    p: argparse.ArgumentParser, app_required: bool = True
) -> None:
    p.add_argument("--app", required=app_required, choices=sorted(APPS))
    p.add_argument("--runtime", default="easeio", choices=sorted(RUNTIMES))
    p.add_argument("--continuous", action="store_true",
                   help="no power failures")
    p.add_argument("--low-ms", type=float, default=5.0,
                   help="minimum failure interval (default 5)")
    p.add_argument("--high-ms", type=float, default=20.0,
                   help="maximum failure interval (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="failure-schedule seed")
    p.add_argument("--env-seed", type=int, default=1,
                   help="environment/sensor seed")


def observed_run(
    app: str,
    runtime: str = "easeio",
    continuous: bool = False,
    low_ms: float = 5.0,
    high_ms: float = 20.0,
    seed: int = 0,
    env_seed: int = 1,
) -> Tuple[RunResult, RunRecorder]:
    """One fully-observed run: events on, detailed recorder attached."""
    model = (
        NoFailures()
        if continuous
        else UniformFailureModel(low_ms, high_ms, seed=seed)
    )
    recorder = RunRecorder()
    result = run_app(
        app,
        runtime=runtime,
        failure_model=model,
        seed=env_seed,
        trace_events=True,
        recorder=recorder,
    )
    return result, recorder


def _observed_run_args(args) -> Tuple[RunResult, RunRecorder]:
    return observed_run(
        args.app,
        runtime=args.runtime,
        continuous=args.continuous,
        low_ms=args.low_ms,
        high_ms=args.high_ms,
        seed=args.seed,
        env_seed=args.env_seed,
    )


def _default_schema_path() -> str:
    # src/repro/obs/cli.py -> repo root is three levels above repro/
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(root, SCHEMA_RELPATH)
    if os.path.exists(candidate):
        return candidate
    return SCHEMA_RELPATH  # fall back to cwd-relative (CI runs at root)


def _cmd_summary(args) -> int:
    if args.report:
        return _summary_from_report(args)
    if not args.app:
        print("obs summary: --app is required without --report",
              file=sys.stderr)
        return 2
    result, recorder = _observed_run_args(args)
    doc = recorder.registry.to_json()
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    m = result.metrics
    print(f"obs summary: {args.app} on {args.runtime} "
          f"(completed={m.completed})")
    print("  counters:")
    for name, value in doc["counters"].items():  # type: ignore[union-attr]
        print(f"    {name:32s} {value}")
    gauges = doc["gauges"]
    if gauges:  # type: ignore[truthy-bool]
        print("  gauges:")
        for name, value in gauges.items():  # type: ignore[union-attr]
            print(f"    {name:32s} {value}")
    hists = doc["histograms"]
    if hists:  # type: ignore[truthy-bool]
        print("  histograms:")
        for name, h in hists.items():  # type: ignore[union-attr]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            print(f"    {name:32s} n={h['count']} mean={mean:.1f} "
                  f"min={h['min']} max={h['max']}")
    return 0


def _summary_from_report(args) -> int:
    """Render a campaign report's telemetry block (rate timeline etc.)."""
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read report {args.report}: {exc}", file=sys.stderr)
        return 1
    telemetry = report.get("telemetry")
    if not isinstance(telemetry, dict):
        print(f"{args.report} has no telemetry block", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(telemetry, indent=2, sort_keys=True))
        return 0
    config = report.get("config") or {}
    label = config.get("kind") or report.get("app") or "campaign"
    print(f"obs summary: report {args.report} ({label})")
    print(f"  runs:        {telemetry.get('runs')}")
    print(f"  elapsed_s:   {telemetry.get('elapsed_s')}")
    print(f"  runs_per_s:  {telemetry.get('runs_per_s')}")
    timeline = telemetry.get("rate_timeline") or []
    if timeline:
        rates = [float(s.get("runs_per_s", 0.0)) for s in timeline]
        print(f"  rate timeline ({len(timeline)} samples): "
              f"{sparkline(rates)}")
        for s in timeline:
            print(f"    t={s.get('t_s'):>9}s  done={s.get('done'):>6}  "
                  f"{s.get('runs_per_s')} runs/s")
    div = telemetry.get("divergence_by_class")
    if div:
        print("  divergence by class:")
        for cls, cell in sorted(div.items()):
            print(f"    {cls:24s} count={cell.get('count')} "
                  f"rate/run={cell.get('rate_per_run')}")
    counters = telemetry.get("counters") or {}
    serve_counts = {
        k: v for k, v in counters.items() if k.startswith("serve.")
    }
    if serve_counts:
        print("  serve:")
        for name, value in sorted(serve_counts.items()):
            print(f"    {name:32s} {value}")
    return 0


def _cmd_export(args) -> int:
    result, recorder = _observed_run_args(args)
    trace = result.runtime.machine.trace  # type: ignore[attr-defined]

    problems = check_invariants(build_spans(trace))
    for p in problems:
        print(f"warning: span invariant violated: {p}", file=sys.stderr)

    if args.format == "text":
        out = text_timeline(trace, limit=args.limit)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(out + "\n")
            print(f"wrote {args.output}")
        else:
            print(out)
        return 0

    doc = chrome_trace_doc(
        trace,
        app=args.app,
        runtime=args.runtime,
        metrics_json=recorder.registry.to_json(),
    )
    if args.validate:
        schema_path = args.schema or _default_schema_path()
        with open(schema_path) as fh:
            schema = json.load(fh)
        errors = validate_json(doc, schema)
        if errors:
            for e in errors:
                print(f"schema violation: {e}", file=sys.stderr)
            return 1
        print(f"valid against {schema_path}", file=sys.stderr)
    output = args.output or f"{args.app}_{args.runtime}.trace.json"
    with open(output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    n_events = len(doc["traceEvents"])  # type: ignore[arg-type]
    print(f"wrote {output} ({n_events} trace events; "
          f"load at https://ui.perfetto.dev)")
    return 1 if problems else 0


def _cmd_diff(args) -> int:
    _, rec_a = _observed_run_args(args)
    b_args = argparse.Namespace(**vars(args))
    b_args.app = args.vs_app or args.app
    b_args.runtime = args.vs_runtime or args.runtime
    if args.vs_seed is not None:
        b_args.seed = args.vs_seed
    if args.vs_env_seed is not None:
        b_args.env_seed = args.vs_env_seed
    _, rec_b = _observed_run_args(b_args)

    label_a = f"{args.app}/{args.runtime} seed={args.seed}"
    label_b = f"{b_args.app}/{b_args.runtime} seed={b_args.seed}"
    delta = rec_a.registry.diff(
        rec_a.registry.to_json(), rec_b.registry.to_json()
    )
    if args.json:
        print(json.dumps(
            {"a": label_a, "b": label_b, "diff": delta}, indent=2
        ))
        return 0
    print(f"obs diff: a = {label_a}   b = {label_b}")
    for section in ("counters", "gauges"):
        entries = delta[section]
        if not entries:
            continue
        print(f"  {section}:")
        for name, d in entries.items():
            print(f"    {name:32s} {d['a']!r:>12} -> {d['b']!r:>12} "
                  f"({d['delta']:+g})")
    if not delta["counters"] and not delta["gauges"]:
        print("  identical")
    return 0


def _cmd_trends(args) -> int:
    series_path = args.series or os.environ.get(obs_series.SERIES_ENV)
    points = []
    if series_path:
        points = obs_series.SeriesStore(series_path).load()
    revs = obs_series.series_revs(points)
    perf = perf_points(points)

    problems = []
    if args.gate:
        problems = gate_problems(points, min_hit_rate=args.min_hit_rate)

    if args.json:
        doc = {
            "series": {"path": series_path, "revs": revs, "perf": perf},
            "analytics": obs_series.aggregate(points),
        }
        if args.gate:
            doc["gate"] = {"ok": not problems, "problems": problems}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_series_trend(revs))
        print()
        print(render_perf_trend(perf))
        if args.gate:
            print()
            if problems:
                for p in problems:
                    print(f"GATE FAIL: {p}", file=sys.stderr)
            else:
                print("gate: trend holds (no regressions)")
    if args.gate and problems:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Observability: metrics summaries, span exports, diffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summary", help="print one run's full metrics")
    _add_run_args(p_sum, app_required=False)
    p_sum.add_argument("--report", default=None, metavar="PATH",
                       help="render an existing campaign report's "
                            "telemetry block (rate timeline, divergence "
                            "by class) instead of executing a run")
    p_sum.add_argument("--json", action="store_true",
                       help="emit the registry as JSON")

    p_exp = sub.add_parser("export", help="export one run's span tree")
    _add_run_args(p_exp)
    p_exp.add_argument("--format", default="chrome-trace",
                       choices=["chrome-trace", "text"])
    p_exp.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="output file (default: <app>_<runtime>."
                            "trace.json; text prints to stdout)")
    p_exp.add_argument("--validate", action="store_true",
                       help="validate the JSON against the checked-in "
                            "chrome_trace schema; exit 1 on violations")
    p_exp.add_argument("--schema", default=None, metavar="PATH",
                       help="schema file for --validate (default: "
                            f"{SCHEMA_RELPATH})")
    p_exp.add_argument("--limit", type=int, default=None,
                       help="text format: cap the number of span lines")

    p_diff = sub.add_parser(
        "diff", help="metric deltas between two configurations"
    )
    _add_run_args(p_diff)
    p_diff.add_argument("--vs-app", default=None, choices=sorted(APPS),
                        help="b-side app (default: same as --app)")
    p_diff.add_argument("--vs-runtime", default=None,
                        choices=sorted(RUNTIMES),
                        help="b-side runtime (default: same)")
    p_diff.add_argument("--vs-seed", type=int, default=None,
                        help="b-side failure seed (default: same)")
    p_diff.add_argument("--vs-env-seed", type=int, default=None,
                        help="b-side environment seed (default: same)")
    p_diff.add_argument("--json", action="store_true",
                        help="emit the diff as JSON")

    p_tr = sub.add_parser(
        "trends",
        help="rev-over-rev fleet analytics and perf trajectory from the "
             "obs series store",
    )
    p_tr.add_argument("--series", default=None, metavar="FILE",
                      help="obs series JSONL file (default: "
                           "$REPRO_OBS_SERIES)")
    p_tr.add_argument("--gate", action="store_true",
                      help="exit 2 when the latest rev regressed "
                           "against the trend (throughput or vm speedup "
                           f"more than {MAX_DROP_PCT:g}%% below the best "
                           f"of the prior {WINDOW}, newly nonzero "
                           "divergence class, hit rate below "
                           "--min-hit-rate) or the series is empty")
    p_tr.add_argument("--min-hit-rate", type=float, default=None,
                      metavar="RATE",
                      help="gate: fail when the latest rev's warm-hit "
                           "rate is below RATE (default: off)")
    p_tr.add_argument("--json", action="store_true",
                      help="emit trends (and the gate verdict) as JSON")

    args = parser.parse_args(argv)
    if args.command == "summary":
        return _cmd_summary(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "trends":
        return _cmd_trends(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
