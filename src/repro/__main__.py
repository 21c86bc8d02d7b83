"""Command-line interface.

Subcommands:

``run``
    execute one evaluation application on a chosen runtime and power
    environment, print metrics (optionally an event timeline);
``lint``
    run the intermittence linter over an application;
``annotate``
    print the annotation assistant's suggestions for an application;
``transform``
    show an application before/after the EaseIO compiler pass
    (the paper's Figure 5 presentation);
``check``
    differential fault-injection correctness checking: replay an
    application under injected power failures and diff every run
    against a continuous-power oracle (exit status 1 on violations);
``bench``
    alias for ``python -m repro.bench`` (regenerate tables/figures);
``obs``
    observability: run one app under the detailed metrics recorder and
    print a summary, export the span tree as Chrome trace-event JSON
    (Perfetto-loadable) or a text timeline, or diff two configurations;
``serve``
    persistent campaign service: a long-lived daemon with a
    content-addressed result store and resumable sharded campaigns,
    plus the matching submit/status/results/cancel/gc client commands;
``env``
    energy environments: record a run's power trace, replay it with
    bit-identical emergent failures, or sweep an environment grid as a
    serve-backed cached campaign;
``fleet``
    remote campaign workers: pull shard leases from a serve daemon,
    execute them with the campaign unit-runners, stream results back
    under a heartbeat (``fleet worker``, ``fleet status``).

``run``, ``check`` and ``fuzz`` accept energy-environment specs
(``--env kind:key=value,...`` — see ``repro.env``): power failures
then *emerge* from a harvest source charging a capacitor against the
workload's own draw, instead of (for ``check``: in addition to) being
injected by a timer.

``check``, ``fuzz`` and ``env sweep`` campaigns shut down gracefully
on SIGINT or SIGTERM (one runner, :func:`repro.serve.kinds.run_cli`,
serves all three): the worker pool drains in-flight units, a partial
report is printed, and the exit status is 130.  Re-running the same
command resumes the campaign from its one durable record of finished
units: the ``--store`` when given, else the ``--checkpoint`` journal
(the two flags exclude each other).

Examples::

    python -m repro run fir --runtime easeio --seed 3 --timeline
    python -m repro run weather --runtime alpaca --low-ms 5 --high-ms 20
    python -m repro check uni_temp --runtime easeio --mode exhaustive
    python -m repro check fir --runtime alpaca --mode random --runs 200
    python -m repro check fir --store .repro-store
    python -m repro check fir --checkpoint fir.ckpt
    python -m repro lint weather
    python -m repro annotate fir
    python -m repro transform uni_temp
    python -m repro bench figure7 --reps 100
    python -m repro obs summary --app fir --runtime easeio
    python -m repro obs export --app uni_dma --format chrome-trace
    python -m repro serve start --root /tmp/serve
    python -m repro serve submit check --app fir --runs 50 --wait
    python -m repro run uni_temp --env markov:seed=7,cap_uf=2.2
    python -m repro check fir --env bursty:seed=3 --mode random --runs 50
    python -m repro env sweep --count 100 --store .repro-store
    python -m repro serve submit check --app fir --fleet --wait
    python -m repro fleet worker --daemon http://127.0.0.1:7341
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APPS
from repro.core.run import nv_state, resolve_result_vars, run_program
from repro.kernel.power import NoFailures, UniformFailureModel


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="execute one evaluation application")
    p.add_argument("app", choices=sorted(APPS))
    p.add_argument("--runtime", default="easeio",
                   choices=["alpaca", "ink", "samoyed", "easeio"])
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
    p.add_argument("--env", default=None, metavar="SPEC",
                   help="energy-environment spec (kind:key=val,...); "
                        "failures then emerge from the energy budget "
                        "instead of the uniform timer")
    p.add_argument("--timeline", action="store_true",
                   help="print the event timeline")
    p.add_argument("--events", action="store_true",
                   help="print the chronological event listing")
    p.add_argument("--state", action="store_true",
                   help="print the final NV result state")


def _cmd_run(args) -> int:
    spec = APPS[args.app]
    if args.continuous:
        model = NoFailures()
    elif args.env is not None:
        from repro.env.spec import parse_env

        model = parse_env(args.env)
    else:
        model = UniformFailureModel(args.low_ms, args.high_ms, seed=args.seed)
    program = spec.build()
    result = run_program(
        program, runtime=args.runtime, failure_model=model,
        seed=args.env_seed,
    )
    m = result.metrics
    print(f"app={m.app} runtime={m.runtime} completed={m.completed}")
    print(f"  active time : {m.active_time_us / 1000.0:10.3f} ms")
    print(f"  app+io time : {m.app_time_us / 1000.0:10.3f} ms")
    print(f"  overhead    : {m.overhead_time_us / 1000.0:10.3f} ms")
    print(f"  boot time   : {m.boot_time_us / 1000.0:10.3f} ms")
    print(f"  failures    : {m.power_failures}")
    print(f"  task commits: {m.task_commits}")
    print(f"  io exec/skip: {m.io_executions}/{m.io_skips} "
          f"(re-executed {m.io_reexecutions})")
    print(f"  dma exec/skip: {m.dma_executions}/{m.dma_skips} "
          f"(re-executed {m.dma_reexecutions})")
    print(f"  energy      : {m.energy_uj:10.2f} uJ")
    if args.env is not None:
        print(f"  dark time   : {model.dark_time_us / 1000.0:10.3f} ms")
        print(f"  harvested   : {model.harvested_uj:10.2f} uJ "
              f"(consumed {model.consumed_uj:.2f} uJ)")
        if result.died_dark:
            print("  died dark: recharge never reached the on-threshold")
    if args.state:
        print("  final NV state:")
        names = resolve_result_vars(program, spec.result_vars)
        for name, value in nv_state(result, names).items():
            print(f"    {name} = {value}")
    trace = result.runtime.machine.trace  # type: ignore[attr-defined]
    if args.timeline:
        from repro.bench.timeline import render_lanes

        print()
        print(render_lanes(trace))
    if args.events:
        from repro.bench.timeline import render_events

        print()
        print(render_events(trace))
    return 0


def _add_check_parser(sub) -> None:
    p = sub.add_parser(
        "check", help="fault-injection correctness checking"
    )
    p.add_argument("app", choices=sorted(APPS))
    p.add_argument("--runtime", default="easeio",
                   choices=["alpaca", "ink", "samoyed", "easeio"])
    p.add_argument("--mode", default="exhaustive",
                   choices=["exhaustive", "random"],
                   help="one run per step boundary, or seeded "
                        "multi-failure schedules")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel checker processes "
                        "(default: all cores, os.cpu_count())")
    p.add_argument("--runs", type=int, default=100,
                   help="random mode: number of schedules (default 100)")
    p.add_argument("--failures-per-run", type=int, default=3,
                   help="random mode: resets per schedule (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="random mode: schedule seed")
    p.add_argument("--env-seed", type=int, default=1,
                   help="environment/sensor seed")
    p.add_argument("--limit", type=int, default=None,
                   help="exhaustive mode: thin the boundaries to at "
                        "most N injection points")
    p.add_argument("--env", default=None, metavar="SPEC",
                   help="energy-environment spec the injected runs "
                        "execute under (emergent brown-outs compose "
                        "with the injected resets)")
    p.add_argument("--no-events", action="store_true",
                   help="counters-only bulk mode: skip per-event "
                        "checks, keep NV-state checks")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of failing schedules")
    _add_record_options(p)
    p.add_argument("--series", default=None, metavar="FILE",
                   help="append one durable telemetry point to this obs "
                        "series file when the campaign finishes "
                        "(REPRO_OBS_SERIES works too); obs trends reads it")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")


def _add_record_options(p) -> None:
    """``--store`` or ``--checkpoint``: a campaign's one durable record."""
    record = p.add_mutually_exclusive_group()
    record.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store: cache hits "
                             "short-circuit simulation, and an "
                             "interrupted campaign resumes from it")
    record.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="without a store: journal progress to FILE; "
                             "an interrupted campaign resumes from it")


def _activate_series(path) -> None:
    if path:
        from repro.obs import series as obs_series

        obs_series.activate(path)


def _cmd_check(args) -> int:
    from repro.check.campaign import resolve_workers
    from repro.serve.kinds import campaign_kind, run_cli

    kind = campaign_kind("check")
    cfg = kind.config(
        app=args.app,
        runtime=args.runtime,
        mode=args.mode,
        workers=resolve_workers(args.workers),
        env_seed=args.env_seed,
        seed=args.seed,
        runs=args.runs,
        failures_per_run=args.failures_per_run,
        limit=args.limit,
        env=args.env,
        trace_events=not args.no_events,
        shrink=not args.no_shrink,
        progress=True,
        store_dir=args.store,
        checkpoint=args.checkpoint,
    )
    _activate_series(args.series)
    return run_cli(kind, cfg, as_json=args.json)


def _add_fuzz_parser(sub) -> None:
    p = sub.add_parser(
        "fuzz", help="property-based differential fuzzing"
    )
    p.add_argument("--runs", type=int, default=100,
                   help="number of generated programs (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel fuzzing processes (default 1)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="persist shrunk reproducers to this directory")
    p.add_argument("--runtimes", default=",".join(
                       ("easeio", "alpaca", "ink", "samoyed")),
                   help="comma-separated runtimes to check (default all)")
    p.add_argument("--limit", type=int, default=24,
                   help="exhaustive-boundary cap per campaign (default 24)")
    p.add_argument("--env-seed", type=int, default=1,
                   help="environment/sensor seed")
    p.add_argument("--envs", default=None,
                   help="comma-separated energy-environment specs the "
                        "generated programs cycle through; the literal "
                        "word 'random' draws a fresh seeded environment "
                        "per program")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip generator-aware program minimization")
    _add_record_options(p)
    p.add_argument("--series", default=None, metavar="FILE",
                   help="append one durable telemetry point to this obs "
                        "series file when the fuzz run finishes "
                        "(REPRO_OBS_SERIES works too); obs trends reads it")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="also write the JSON report to FILE")


def _cmd_fuzz(args) -> int:
    from repro.serve.kinds import campaign_kind, run_cli

    kind = campaign_kind("fuzz")
    cfg = kind.config(
        runs=args.runs,
        seed=args.seed,
        workers=max(1, args.workers),
        corpus_dir=args.corpus,
        runtimes=tuple(
            rt.strip() for rt in args.runtimes.split(",") if rt.strip()
        ),
        limit=args.limit,
        env_seed=args.env_seed,
        envs=tuple(
            e.strip() for e in args.envs.split(",") if e.strip()
        ) if args.envs else (),
        shrink=not args.no_shrink,
        progress=True,
        store_dir=args.store,
        checkpoint=args.checkpoint,
    )
    _activate_series(args.series)
    return run_cli(kind, cfg, as_json=args.json, output=args.output)


def _cmd_lint(args) -> int:
    from repro.ir.lint import lint_program

    diagnostics = lint_program(APPS[args.app].build())
    if not diagnostics:
        print("no findings")
        return 0
    for d in diagnostics:
        print(d)
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_transform(args) -> int:
    from repro.ir.pretty import diff_view
    from repro.ir.transform import transform_program

    program = APPS[args.app].build()
    result = transform_program(program)
    print(diff_view(program, result.program))
    return 0


def _cmd_annotate(args) -> int:
    from repro.ir.annotate import suggest_annotations

    suggestions = suggest_annotations(APPS[args.app].build())
    if not suggestions:
        print("no suggestions: annotations look complete")
        return 0
    for s in suggestions:
        print(s)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EaseIO reproduction: run apps, lint, annotate, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_check_parser(sub)
    _add_fuzz_parser(sub)
    p_lint = sub.add_parser("lint", help="intermittence linter")
    p_lint.add_argument("app", choices=sorted(APPS))
    p_ann = sub.add_parser("annotate", help="annotation suggestions")
    p_ann.add_argument("app", choices=sorted(APPS))
    p_tr = sub.add_parser(
        "transform", help="show the compiler pass before/after"
    )
    p_tr.add_argument("app", choices=sorted(APPS))
    p_bench = sub.add_parser("bench", help="regenerate tables/figures")
    p_bench.add_argument("rest", nargs=argparse.REMAINDER)
    p_obs = sub.add_parser(
        "obs", help="observability: summaries, span exports, diffs"
    )
    p_obs.add_argument("rest", nargs=argparse.REMAINDER)
    p_serve = sub.add_parser(
        "serve", help="persistent campaign service: daemon + client"
    )
    p_serve.add_argument("rest", nargs=argparse.REMAINDER)
    p_env = sub.add_parser(
        "env", help="energy environments: record, replay, sweep"
    )
    p_env.add_argument("rest", nargs=argparse.REMAINDER)
    p_fleet = sub.add_parser(
        "fleet", help="remote campaign workers: leased shards over HTTP"
    )
    p_fleet.add_argument("rest", nargs=argparse.REMAINDER)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "annotate":
        return _cmd_annotate(args)
    if args.command == "transform":
        return _cmd_transform(args)
    if args.command == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(args.rest)
    if args.command == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(args.rest)
    if args.command == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(args.rest)
    if args.command == "env":
        from repro.env.cli import main as env_main

        return env_main(args.rest)
    if args.command == "fleet":
        from repro.fleet.cli import main as fleet_main

        return fleet_main(args.rest)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
