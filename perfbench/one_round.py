"""One round of one workload, in a fresh process.

``python -m perfbench.one_round --workload W --seed S --t0 T --out F
[--traced] [--smoke]`` runs the round and writes its measurements,
outputs and (when traced) per-layer metrics to ``F`` as JSON.  ``T``
is the wall-clock time the parent stamped just before spawning this
process, so ``setup_s`` covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import threading
import traceback
import uuid

from perfbench import workloads as W


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.one_round")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = os.path.join(W.REPO, ".perfbench", uuid.uuid4().hex[:12])
    os.makedirs(root)
    sizes = W.SMOKE if args.smoke else W.FULL
    rnd = W.Round(args.workload, args.seed, sizes, root, args.t0, args.traced)
    fleet_trace = None
    try:
        if args.traced:
            from perfbench import ledger

            ledger.install(f"{args.workload}-{args.seed}")
        try:
            fleet_trace = W.RUNNERS[args.workload](rnd)
        except Exception:  # noqa: BLE001 - reported as a failed round
            rnd.attempted += 1
            rnd.failed += 1
            rnd.errors.append(traceback.format_exc(limit=8))
        doc = _measure(rnd, root)
        if args.traced:
            payloads = [ledger.tracer().payload()] + ledger.tracer().imported
            if fleet_trace is not None:
                payloads.append(fleet_trace)
            payloads.append({"spans": [], "calls": {}, "counts": rnd.extra})
            layers = ledger.summarize(
                payloads,
                wall_s=sum(end - start for start, end in rnd.timed),
                windows=rnd.timed,
                main=(os.getpid(), threading.main_thread().ident),
            )
            doc["layers"] = layers
    finally:
        shutil.rmtree(root, ignore_errors=True)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, args.out)
    return 0


def _measure(rnd, root: str) -> dict:
    from repro import fastpath
    from repro.serve.store import ResultStore

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    store_dir = os.path.join(root, "store")
    if not os.path.isdir(store_dir):
        store_dir = os.path.join(root, "service", "store")
    return {
        "workload": rnd.workload,
        "seed": rnd.seed,
        "setup_s": rnd.setup_s,
        "phases": [dict(p, name=name) for name, p in rnd.phases.items()],
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "violations": rnd.violations,
        "outputs": rnd.outputs,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB on Linux; children: the largest reaped one
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "env": {
            # none of them may reach a round: checked in checks.py
            "repro_vars": sorted(k for k in os.environ if k.startswith("REPRO_")),
            "fastpath": fastpath.enabled(),
            "vm": fastpath.vm_enabled(),
            "store_backend": ResultStore(store_dir).backend.name,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
    }


if __name__ == "__main__":
    sys.exit(main())
