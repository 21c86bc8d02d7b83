#!/usr/bin/env python
"""End-to-end smoke of the campaign service's resume contract.

The full dance, against real processes:

1. start the serve daemon;
2. submit a check campaign over HTTP;
3. kill the daemon mid-flight (SIGTERM, while the job is running);
4. start a fresh daemon on the same service root — the dead job must
   surface as ``interrupted``;
5. resubmit the same campaign — it must resume from the store, its
   one record of finished units (the service root keeps no checkpoint
   journals), rather than redoing finished work;
6. assert the final report is identical (modulo wall-clock fields) to
   an uninterrupted run of the same campaign in a clean service root.

Exit status 0 only if every step holds.  Used by the CI ``serve-smoke``
job; runs locally with ``python scripts/serve_smoke.py``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN = {
    "app": "uni_temp", "runtime": "easeio", "mode": "random",
    "runs": 300, "workers": 1, "seed": 23, "shrink": False,
}
VOLATILE = ("elapsed_s", "telemetry")


def comparable(report):
    """A report stripped of wall-clock and service-root-local fields."""
    doc = {k: v for k, v in report.items() if k not in VOLATILE}
    doc["config"] = {
        k: v for k, v in report.get("config", {}).items()
        if k not in ("store_dir", "checkpoint")
    }
    return doc


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def start_daemon(root):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--root", root, "--port", "0"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO,
    )
    line = proc.stdout.readline()
    if "listening on " not in line:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {line!r}")
    url = line.split("listening on ")[1].split(" ")[0]
    return proc, url


def stop_daemon(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    procs = []
    try:
        return smoke(tmp, procs)
    finally:
        for proc in procs:
            if proc.poll() is None:
                stop_daemon(proc)
        shutil.rmtree(tmp, ignore_errors=True)


def smoke(tmp, procs) -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.serve.daemon import ServeClient

    root = os.path.join(tmp, "serve")

    print("== 1. daemon up, campaign submitted over HTTP")
    proc, url = start_daemon(root)
    procs.append(proc)
    client = ServeClient(url)
    job = client.submit("check", CAMPAIGN)
    print(f"   job {job['id']} campaign {job['campaign'][:12]}")

    print("== 2. kill the daemon mid-flight")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status = client.status(job["id"])
        if status["state"] in ("done", "failed"):
            raise SystemExit(
                f"campaign outran the kill ({status['state']}); "
                "raise CAMPAIGN['runs']"
            )
        if status["progress"].get("done", 0) >= 10:
            break
        time.sleep(0.05)
    assert stop_daemon(proc) == 0, "daemon did not exit cleanly"
    print(f"   killed after {status['progress'].get('done', 0)} runs")

    print("== 3. fresh daemon on the same root: job is interrupted")
    proc, url = start_daemon(root)
    procs.append(proc)
    client = ServeClient(url)
    revived = client.status(job["id"])
    assert revived["state"] in ("interrupted", "cancelled"), revived["state"]

    print("== 4. resubmit: resumes from the store")
    again = client.submit("check", CAMPAIGN)
    assert again["campaign"] == job["campaign"], "campaign identity changed"
    final = client.wait(again["id"], timeout_s=600)
    assert final["state"] == "done", final
    resumed = client.results(again["id"])
    counters = resumed["telemetry"]["counters"]
    hits = counters.get("serve.store_hits", 0)
    print(f"   {hits} of {resumed['n_runs']} runs served from the store, "
          f"{counters.get('serve.executed', 0)} simulated fresh")
    assert hits > 0, "no finished work was reused after the kill"
    assert "serve.checkpoint_restored" not in counters, counters
    assert not os.path.exists(os.path.join(root, "checkpoints")), (
        "the service root keeps checkpoint journals"
    )
    stop_daemon(proc)

    print("== 5. uninterrupted reference run in a clean root")
    proc, url = start_daemon(os.path.join(tmp, "serve-ref"))
    procs.append(proc)
    client = ServeClient(url)
    ref_job = client.submit("check", CAMPAIGN)
    assert client.wait(ref_job["id"], timeout_s=600)["state"] == "done"
    reference = client.results(ref_job["id"])
    stop_daemon(proc)

    a = comparable(resumed)
    b = comparable(reference)
    if a != b:
        diff = {k for k in a if a.get(k) != b.get(k)}
        print(f"MISMATCH in fields: {sorted(diff)}")
        print(json.dumps({k: [a.get(k), b.get(k)] for k in diff}, indent=2))
        return 1
    print("== OK: interrupted+resumed report == uninterrupted report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
