#!/usr/bin/env python
"""Multi-node smoke of the fleet's kill/resume contract.

The full dance, against real processes:

1. start the serve daemon (short lease TTL);
2. start three fleet worker processes pulling shard leases over HTTP,
   all three writing one local ``--store`` (one SQLite file);
3. submit a check campaign with ``--fleet`` routing;
4. SIGKILL one worker while it holds a lease (all workers are
   SIGSTOPped while the board is read, so the lease cannot be released
   between the check and the kill) — its shard must expire and requeue
   (typed ``expire``/``requeue`` events in the job log); the two
   surviving workers stay stopped, so the campaign makes no progress
   until step 5;
5. SIGTERM the daemon with at least a quarter of the units unfinished,
   restart it on the same port, resubmit, and SIGCONT the survivors:
   they reconnect through their backoff loop, and the campaign resumes
   from the daemon's store — the finished units come back as store
   hits and the rest execute;
6. assert zero lost and zero double-counted units, and that every
   entry of the workers' shared store reads back intact, though one of
   its three writers was SIGKILLed;
7. assert that the final report is identical (modulo wall-clock
   fields) to an inline single-process run of the same campaign.

Exit status 0 only if every step holds.  Used by the CI ``fleet-smoke``
job; runs locally with ``python scripts/fleet_smoke.py``.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN = {
    "app": "fir", "runtime": "easeio", "mode": "random",
    "runs": 200, "workers": 1, "seed": 11, "shrink": False,
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


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_daemon(root, port):
    # a fixed port, unlike serve_smoke: workers must find the restarted
    # daemon at the same address to reconnect through their backoff loop
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--root", root, "--port", str(port),
         "--fleet-ttl", "2", "--drain", "5"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO,
    )
    line = proc.stdout.readline()
    if "listening on " not in line:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {line!r}")
    url = line.split("listening on ")[1].split(" ")[0]
    return proc, url


def start_worker(url, store):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "worker",
         "--daemon", url, "--store", store, "--poll", "0.1", "--quiet"],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=REPO,
    )


def wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out after {timeout_s}s waiting for {what}")


def kill_lease_holder(client, workers, timeout_s):
    """SIGKILL ``workers[0]`` at a moment it holds a lease, and leave
    the others stopped.

    A worker leases a shard, runs it, then releases it, so it holds at
    most one lease at a time.  With every worker stopped, an active
    lease count equal to the number of workers therefore means each
    one holds a lease, ``workers[0]`` included.  Otherwise one was
    between leases: resume them all and look again.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for proc in workers:
            proc.send_signal(signal.SIGSTOP)
        held = client.fleet_status().get("leases_active", 0)
        if held >= len(workers):
            workers[0].send_signal(signal.SIGKILL)
            workers[0].wait(timeout=30)
            return
        for proc in workers:
            proc.send_signal(signal.SIGCONT)
        time.sleep(0.05)
    raise SystemExit(
        f"timed out after {timeout_s}s waiting for every worker to hold "
        "a lease at once"
    )


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.check import CampaignConfig, run_campaign
    from repro.serve.daemon import ServeClient
    from repro.serve.store import ResultStore

    tmp = tempfile.mkdtemp(prefix="fleet-smoke-")
    root = os.path.join(tmp, "serve")
    worker_store = os.path.join(tmp, "worker-store")
    port = _free_port()
    workers = []
    daemon = None
    try:
        print("== 1. daemon + 3 fleet workers sharing one local store")
        daemon, url = start_daemon(root, port)
        client = ServeClient(url)
        workers = [start_worker(url, worker_store) for _ in range(3)]

        print("== 2. fleet campaign submitted over HTTP")
        job = client.submit("check", CAMPAIGN, fleet=True)
        print(f"   job {job['id']} campaign {job['campaign'][:12]}")

        print("== 3. SIGKILL one worker while it holds a lease")
        wait_for(
            lambda: client.fleet_status().get("leases_active", 0) >= 3
            and client.status(job["id"])["progress"].get("done", 0) >= 5,
            60, "all three workers to hold leases",
        )
        state = client.status(job["id"])["state"]
        if state in ("done", "failed"):
            raise SystemExit(
                f"campaign outran the kill ({state}); raise CAMPAIGN['runs']"
            )
        kill_lease_holder(client, workers, 60)

        print("== 4. dead worker's shard expires and requeues")
        wait_for(
            lambda: {"expire", "requeue"}.issubset(
                e["type"] for e in client.events(job["id"])["events"]
            ),
            30, "expire/requeue events (lease TTL is 2s)",
        )
        stats = client.fleet_status()
        print(f"   expired={stats.get('expired')} "
              f"requeued_units={stats.get('requeued_units')}")

        print("== 5. restart the daemon mid-flight; resubmit")
        finished = client.status(job["id"])["progress"].get("done", 0)
        unfinished = CAMPAIGN["runs"] - finished
        print(f"   {unfinished} of {CAMPAIGN['runs']} runs unfinished")
        assert unfinished >= CAMPAIGN["runs"] / 4, (
            "too little work left to resume"
        )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "daemon did not exit cleanly"
        daemon, url = start_daemon(root, port)
        client = ServeClient(url)
        again = client.submit("check", CAMPAIGN, fleet=True)
        assert again["campaign"] == job["campaign"], "campaign identity changed"

        # the two surviving worker processes reconnect on their own
        for proc in workers[1:]:
            proc.send_signal(signal.SIGCONT)
        final = client.wait(again["id"], timeout_s=600)
        assert final["state"] == "done", final
        resumed = client.results(again["id"])
        counters = resumed["telemetry"]["counters"]
        hits = counters.get("serve.store_hits", 0)
        executed = counters.get("serve.executed", 0)
        print(f"   {hits} of {resumed['n_runs']} runs served from the "
              f"store after the restart, {executed} executed")
        assert hits > 0, "no finished work was reused after the restart"
        assert executed > 0, "nothing was left to resume after the restart"

        print("== 6. nothing lost, nothing double-counted")
        progress = client.status(again["id"])["progress"]
        assert progress["done"] == progress["total"] == CAMPAIGN["runs"], (
            progress
        )
        assert os.path.exists(os.path.join(root, "store", "store.sqlite3")), (
            "the daemon's store is not one SQLite file"
        )
        shared = ResultStore(worker_store)
        try:
            keys = [key for _, _, key in shared.backend.entries()]
            intact = sum(shared.get(key) is not None for key in keys)
            corrupt = shared.corrupt
        finally:
            shared.close()
        print(f"   workers' shared store: {intact} of {len(keys)} entries "
              f"read back, {corrupt} corrupt")
        assert keys, "the workers wrote nothing to their shared store"
        assert intact == len(keys) and corrupt == 0, (intact, corrupt)

        print("== 7. report must match an inline single-process run")
        inline = run_campaign(CampaignConfig(**CAMPAIGN)).to_json()
        a, b = comparable(resumed), comparable(inline)
        if a != b:
            diff = {k for k in a if a.get(k) != b.get(k)}
            print(f"MISMATCH in fields: {sorted(diff)}")
            print(json.dumps(
                {k: [a.get(k), b.get(k)] for k in diff}, indent=2
            ))
            return 1
        print("== OK: fleet kill/resume report == inline report")
        return 0
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
                proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        if daemon is not None and daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
