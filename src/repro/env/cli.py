"""``python -m repro env`` — record, replay and sweep energy environments.

Subcommands:

``record``
    run one app/runtime under an ``--env`` spec and export the power
    signal the run actually saw as a JSONL trace file, with the
    capacitor identity and the emergent failure instants in the header;
``replay``
    re-run from a recorded trace file and verify the emergent failure
    instants are **bit-identical** to the recorded ones (exit 1 on any
    divergence) — the determinism contract, checkable from the shell;
``sweep``
    run a grid of environments x apps x runtimes as one serve-backed
    campaign: content-addressed (re-runs are warm cache hits),
    sharded across workers, resumable after SIGINT or SIGTERM (exit
    130 with a partial report, like ``check``) from its ``--store``,
    or without one from its ``--checkpoint`` journal; its ``--json``
    report re-submits to a daemon or a fleet with
    ``serve submit --from-report``.

Examples::

    python -m repro env record uni_temp --env markov:seed=7,cap_uf=2.2 \\
        --out /tmp/markov7.jsonl
    python -m repro env replay /tmp/markov7.jsonl
    python -m repro env sweep --count 100 --seed 1 --apps uni_temp,fir \\
        --store .repro-store --workers 4
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APPS
from repro.core.run import RUNTIMES
from repro.env.spec import parse_env
from repro.env.sweep import run_under
from repro.env.trace import load_trace, read_trace, write_trace
from repro.errors import ReproError


def _cmd_record(args) -> int:
    env = parse_env(args.env)
    result, error = run_under(
        env, args.app, args.runtime, args.env_seed, args.limit
    )
    meta = {
        "app": args.app,
        "runtime": args.runtime,
        "env": args.env,
        "env_seed": args.env_seed,
        "nontermination_limit": args.limit,
        "completed": bool(result is not None and result.metrics.completed),
        "died_dark": bool(result is not None and result.died_dark),
        "error": error,
    }
    n = write_trace(args.out, env, env.trace_horizon_us(), meta=meta)
    print(
        f"recorded {args.out}: {n} samples, "
        f"{len(env.failure_times)} emergent failures, "
        f"completed={meta['completed']} died_dark={meta['died_dark']}"
    )
    return 0


def _cmd_replay(args) -> int:
    header, _ = read_trace(args.trace)
    meta = header.get("meta") or {}
    app = args.app or meta.get("app")
    runtime = args.runtime or meta.get("runtime", "easeio")
    env_seed = args.env_seed if args.env_seed is not None else int(
        meta.get("env_seed", 1)
    )
    limit = args.limit if args.limit is not None else int(
        meta.get("nontermination_limit", 2000)
    )
    if not app:
        raise ReproError(
            f"trace {args.trace!r} records no app in its meta; pass --app"
        )
    env = load_trace(args.trace)
    result, error = run_under(env, app, runtime, env_seed, limit)
    recorded = [float(t) for t in header.get("failures", [])]
    replayed = list(env.failure_times)
    ok = replayed == recorded
    print(
        f"replayed {app}/{runtime} from {args.trace}: "
        f"{len(replayed)} failures, "
        + ("bit-identical to recording" if ok else "DIVERGED from recording")
    )
    if error:
        print(f"  run error: {error}")
    if not ok:
        for i, (a, b) in enumerate(zip(recorded, replayed)):
            if a != b:
                print(f"  first divergence at failure {i}: "
                      f"recorded {a!r} vs replayed {b!r}")
                break
        else:
            print(f"  failure counts differ: recorded {len(recorded)}, "
                  f"replayed {len(replayed)}")
    return 0 if ok else 1


def _csv(value: str):
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _cmd_sweep(args) -> int:
    from repro.serve.kinds import campaign_kind, run_cli

    kind = campaign_kind("env-sweep")
    cfg = kind.config(
        envs=_csv(args.envs) if args.envs else (),
        count=args.count,
        seed=args.seed,
        apps=_csv(args.apps),
        runtimes=_csv(args.runtimes),
        env_seed=args.env_seed,
        workers=max(1, args.workers),
        verify_replay=not args.no_verify,
        progress=True,
        store_dir=args.store,
        checkpoint=args.checkpoint,
    )
    return run_cli(kind, cfg, as_json=args.json)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro env",
        description="energy environments: record, replay, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="run once, export the power trace")
    p_rec.add_argument("app", choices=sorted(APPS))
    p_rec.add_argument("--runtime", default="easeio", choices=sorted(RUNTIMES))
    p_rec.add_argument("--env", required=True,
                       help="environment spec (kind:key=val,...)")
    p_rec.add_argument("--out", required=True, metavar="FILE",
                       help="trace output path (JSONL)")
    p_rec.add_argument("--env-seed", type=int, default=1)
    p_rec.add_argument("--limit", type=int, default=2000,
                       help="nontermination limit (default 2000)")

    p_rep = sub.add_parser(
        "replay", help="re-run from a trace, verify bit-identical failures"
    )
    p_rep.add_argument("trace", help="recorded trace file")
    p_rep.add_argument("--app", default=None, choices=sorted(APPS),
                       help="override the app recorded in the trace meta")
    p_rep.add_argument("--runtime", default=None, choices=sorted(RUNTIMES),
                       help="override the runtime recorded in the trace meta")
    p_rep.add_argument("--env-seed", type=int, default=None)
    p_rep.add_argument("--limit", type=int, default=None)

    p_sw = sub.add_parser(
        "sweep", help="environment grid as a serve-backed campaign"
    )
    p_sw.add_argument("--envs", default=None,
                      help="comma-separated explicit specs "
                           "(default: generate --count random ones)")
    p_sw.add_argument("--count", type=int, default=20,
                      help="generated environments (default 20)")
    p_sw.add_argument("--seed", type=int, default=0,
                      help="environment-generation seed")
    p_sw.add_argument("--apps", default=",".join(("uni_temp", "fir")),
                      help="comma-separated apps (default uni_temp,fir)")
    p_sw.add_argument("--runtimes", default="easeio",
                      help="comma-separated runtimes (default easeio)")
    p_sw.add_argument("--env-seed", type=int, default=1)
    p_sw.add_argument("--workers", type=int, default=1)
    p_sw.add_argument("--no-verify", action="store_true",
                      help="skip the per-unit record->replay verification")
    record = p_sw.add_mutually_exclusive_group()
    record.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store; "
                             "interrupted sweeps resume from it")
    record.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="without a store: journal progress; "
                             "interrupted sweeps resume from it")
    p_sw.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "record":
            return _cmd_record(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ReproError as exc:
        print(f"env: error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
