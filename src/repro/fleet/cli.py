"""``python -m repro fleet`` — run and inspect fleet workers.

Subcommands::

    fleet worker   pull shard leases from a daemon and execute them
    fleet status   show the daemon's lease board and worker registry

Examples::

    python -m repro fleet worker --daemon http://127.0.0.1:7341
    python -m repro fleet worker --daemon http://host:7341 \\
        --store /var/tmp/repro-store --max-idle 60
    python -m repro fleet status --daemon http://127.0.0.1:7341

A worker survives daemon restarts: while the daemon is down it polls
with bounded exponential backoff and re-registers when it answers
again.  SIGINT/SIGTERM finish the in-flight unit, release the lease
(uncompleted units requeue immediately), and exit.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.fleet.worker import FleetWorker
from repro.serve.daemon import ServeClient


def _cmd_worker(args) -> int:
    store = None
    if args.store:
        from repro.serve.store import ResultStore

        store = ResultStore(args.store)
    client = ServeClient(args.daemon, timeout_s=args.timeout)
    worker = FleetWorker(
        client,
        store=store,
        max_units=args.max_units,
        poll_s=args.poll,
        max_idle_s=args.max_idle,
        log=(lambda message: print(f"fleet: {message}", flush=True))
        if not args.quiet else None,
    )

    def _stop(signum, frame) -> None:
        worker.request_stop()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        stats = worker.run(max_leases=args.max_leases)
    finally:
        if store is not None:
            store.close()
    print(f"fleet: worker done {json.dumps(stats, sort_keys=True)}",
          flush=True)
    return 0


def _cmd_status(args) -> int:
    client = ServeClient(args.daemon, timeout_s=args.timeout)
    doc = client.fleet_status()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="remote campaign workers pulling leased shards",
    )
    sub = parser.add_subparsers(dest="fleet_command", required=True)

    p = sub.add_parser("worker", help="run one lease-pulling worker")
    p.add_argument("--daemon", required=True, metavar="URL",
                   help="serve daemon base URL")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request timeout in seconds (default 30)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed store on a local filesystem, "
                        "shareable by the workers of one host: cached "
                        "units short-circuit execution")
    p.add_argument("--max-units", type=int, default=None,
                   help="ask for at most N units per shard lease")
    p.add_argument("--max-leases", type=int, default=None,
                   help="exit after N leases (tests, batch jobs)")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many idle seconds (default: "
                        "poll forever)")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle poll interval in seconds (default 0.5)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-lease log lines")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("status", help="show the daemon's lease board")
    p.add_argument("--daemon", required=True, metavar="URL")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=_cmd_status)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"fleet: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("fleet: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
