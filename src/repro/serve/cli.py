"""``python -m repro serve`` — drive the campaign service.

Subcommands::

    serve start    run the daemon in the foreground (SIGINT/SIGTERM drain)
    serve submit   submit a campaign of any kind (flags or --from-report)
    serve status   show one job, or all jobs
    serve results  fetch a finished job's report (JSON or rendered text)
    serve cancel   gracefully stop a running job (finished units stay stored)
    serve gc       evict old store entries (evicted units of an
                   interrupted job re-run when it is resubmitted)

Examples::

    python -m repro serve start --root /tmp/serve --port 7341
    python -m repro serve submit check --app fir --runtime easeio \\
        --mode random --runs 50 --wait
    python -m repro serve submit --from-report report.json --wait
    python -m repro serve submit --from-report env-sweep.json --fleet
    python -m repro serve status
    python -m repro serve results <job-id>
    python -m repro serve gc --max-entries 10000
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.serve.daemon import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServeClient,
    make_server,
    run_daemon,
)
from repro.serve.kinds import campaign_kind, kinds

_RUNTIMES = ("alpaca", "ink", "samoyed", "easeio")


def _client(args) -> ServeClient:
    return ServeClient(args.url, timeout_s=args.timeout)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--url", default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        help=f"daemon base URL (default http://{DEFAULT_HOST}:{DEFAULT_PORT})",
    )
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request timeout in seconds (default 30)")


# -- start -----------------------------------------------------------------


def _cmd_start(args) -> int:
    server = make_server(
        args.root,
        host=args.host,
        port=args.port,
        store_dir=args.store,
        fleet_ttl_s=args.fleet_ttl,
        fleet_max_units=args.fleet_max_units,
        verbose=args.verbose,
    )
    print(f"serve: listening on {server.url} (root: {server.manager.root})",
          flush=True)
    return run_daemon(server, drain_s=args.drain)


# -- submit ----------------------------------------------------------------


def _flag_config(args, kind: str) -> Dict[str, object]:
    """The submit flags that name fields of ``kind``'s config.

    Flags left unset (``None``) keep the config's own default, so a
    served job is the campaign the same CLI run would be.
    """
    flags: Dict[str, object] = {
        "app": args.app,
        "runtime": args.runtime,
        "mode": args.mode,
        "workers": args.workers,
        "env_seed": args.env_seed,
        "seed": args.seed,
        "runs": args.runs,
        "failures_per_run": args.failures_per_run,
        "limit": args.limit,
        "runtimes": None if args.runtimes is None else [
            rt.strip() for rt in args.runtimes.split(",") if rt.strip()
        ],
        "trace_events": False if args.no_events else None,
        "shrink": False if args.no_shrink else None,
    }
    fields = {f.name for f in dataclasses.fields(campaign_kind(kind).config)}
    return {
        k: v for k, v in flags.items() if k in fields and v is not None
    }


def _cmd_submit(args) -> int:
    client = _client(args)
    if args.from_report:
        with open(args.from_report) as fh:
            report = json.load(fh)
        config = dict(report.get("config") or {})
        kind = str(config.pop("kind", ""))
        if not kind:
            raise ReproError(
                f"{args.from_report}: report carries no embedded campaign "
                "config (produced before config embedding?)"
            )
    elif args.kind:
        kind = args.kind
        config = _flag_config(args, kind)
    else:
        raise ReproError("submit needs a campaign kind or --from-report")
    job = client.submit(kind, config, fleet=args.fleet)
    job_id = str(job["id"])
    if job["state"] == "failed":  # the kind rejected the config
        raise ReproError(f"{kind} job {job_id} rejected: {job['error']}")
    mode = " (fleet)" if args.fleet else ""
    print(f"submitted {kind} job {job_id}{mode} "
          f"(campaign {job['campaign']})")
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout_s=args.wait_timeout)
    print(f"job {job_id}: {status['state']}")
    if status["state"] != "done":
        if status.get("error"):
            print(f"  error: {status['error']}")
        return 1
    return _print_results(client, job_id, as_json=args.json)


# -- status / results / cancel / gc ---------------------------------------


def _describe(job: Dict[str, object]) -> str:
    progress = job.get("progress") or {}
    done = progress.get("done", 0)
    total = progress.get("total", 0)
    frac = f"{done}/{total}" if total else "-"
    return (
        f"{job['id']}  {str(job['kind']):5s} {str(job['state']):11s} "
        f"{frac:>11s}  campaign {str(job['campaign'])[:12]}"
    )


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job_id:
        doc = client.status(args.job_id)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    jobs = client.jobs()["jobs"]
    if not jobs:
        print("no jobs")
        return 0
    for job in sorted(jobs, key=lambda j: str(j.get("submitted_at", ""))):
        print(_describe(job))
    return 0


def _print_results(client: ServeClient, job_id: str, as_json: bool) -> int:
    report = client.results(job_id)
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rendered = _render_report(report)
        print(rendered if rendered is not None
              else json.dumps(report, indent=2, sort_keys=True))
    return 0 if report.get("ok") else 1


def _render_report(report: Dict[str, object]) -> Optional[str]:
    """Re-render a JSON report as text via its kind's report type."""
    try:
        kind = campaign_kind(str(report["config"]["kind"]))
        return kind.report.from_json(report).render_text()
    except (ReproError, KeyError, TypeError, ValueError):
        return None


def _cmd_results(args) -> int:
    return _print_results(_client(args), args.job_id, as_json=args.json)


def _cmd_cancel(args) -> int:
    doc = _client(args).cancel(args.job_id)
    print(f"job {args.job_id}: cancel requested (state: {doc['state']})")
    return 0


def _cmd_gc(args) -> int:
    doc = _client(args).gc(
        max_entries=args.max_entries,
        max_age_s=args.max_age_s,
        max_bytes=args.max_bytes,
    )
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="persistent campaign service: daemon, jobs, store",
    )
    sub = parser.add_subparsers(dest="serve_command", required=True)

    p = sub.add_parser("start", help="run the daemon in the foreground")
    p.add_argument("--root", default=".repro-serve",
                   help="service state directory (default .repro-serve)")
    p.add_argument("--host", default=DEFAULT_HOST)
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"listen port (default {DEFAULT_PORT}; 0 = any)")
    p.add_argument("--store", default=None,
                   help="result store directory (default <root>/store)")
    p.add_argument("--fleet-ttl", type=float, default=None,
                   help="fleet lease TTL in seconds (default 30)")
    p.add_argument("--fleet-max-units", type=int, default=None,
                   help="max units per fleet shard lease (default 8)")
    p.add_argument("--drain", type=float, default=10.0,
                   help="seconds to wait for jobs on shutdown (default 10)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(func=_cmd_start)

    p = sub.add_parser("submit", help="submit a campaign job")
    _add_common(p)
    p.add_argument("kind", nargs="?",
                   help="campaign kind: " + ", ".join(sorted(kinds()))
                        + " (omit with --from-report)")
    p.add_argument("--from-report", default=None, metavar="FILE",
                   help="re-submit the campaign embedded in a JSON report")
    # an unset flag is left out of the config: the kind's default holds
    p.add_argument("--app", default=None, help="check: the app (required)")
    p.add_argument("--runtime", default=None, choices=_RUNTIMES)
    p.add_argument("--mode", default=None, choices=["exhaustive", "random"])
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--failures-per-run", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--env-seed", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--runtimes", default=None,
                   help="fuzz, env-sweep: comma-separated runtimes")
    p.add_argument("--no-events", action="store_true")
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument("--fleet", action="store_true",
                   help="execute on remote fleet workers (leased shards) "
                        "instead of the daemon's local pool")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes, then print results")
    p.add_argument("--wait-timeout", type=float, default=600.0)
    p.add_argument("--json", action="store_true",
                   help="with --wait: print the report as JSON")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="show job status")
    _add_common(p)
    p.add_argument("job_id", nargs="?", default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("results", help="fetch a job's report")
    _add_common(p)
    p.add_argument("job_id")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON instead of rendered text")
    p.set_defaults(func=_cmd_results)

    p = sub.add_parser("cancel", help="gracefully stop a job")
    _add_common(p)
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("gc", help="evict old store entries")
    _add_common(p)
    p.add_argument("--max-entries", type=int, default=None,
                   help="keep at most N newest entries")
    p.add_argument("--max-age-s", type=float, default=None,
                   help="evict entries older than S seconds")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="evict oldest entries until the store's payload "
                        "fits the byte budget")
    p.set_defaults(func=_cmd_gc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"serve: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
