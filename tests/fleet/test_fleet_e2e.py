"""Fleet end to end: live daemon, HTTP workers, kill/expire/requeue.

These tests run the real wire path — ``ThreadingHTTPServer`` on an
ephemeral port, ``FleetWorker`` instances pulling leases over HTTP —
against small check campaigns, and pin the contract the fleet exists
for: a remotely executed campaign's report is identical to the inline
single-process one, with zero lost and zero double-counted units, even
when a worker is killed mid-shard.
"""

import threading

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.errors import ReproError
from repro.fleet.worker import FleetWorker
from repro.serve.daemon import ServeClient, ServeHTTPError, make_server

LIMIT = 4

CHECK_CONFIG = {
    "app": "fir", "runtime": "easeio", "mode": "exhaustive",
    "limit": LIMIT, "workers": 1, "shrink": False,
}


def _comparable(doc):
    doc = {k: v for k, v in doc.items() if k not in ("elapsed_s",
                                                     "telemetry")}
    doc["config"] = {
        k: v for k, v in (doc.get("config") or {}).items()
        if k not in ("store_dir", "checkpoint")
    }
    return doc


@pytest.fixture
def daemon(tmp_path):
    server = make_server(
        str(tmp_path / "serve"), port=0, fleet_ttl_s=0.4,
        fleet_max_units=2,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.manager.shutdown(drain_s=5.0)
    thread.join(5)


def _run_worker(url, **kwargs):
    worker = FleetWorker(
        ServeClient(url, timeout_s=10.0, retries=1),
        poll_s=0.05, **kwargs,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestFleetExecution:
    def test_fleet_report_matches_inline_run(self, daemon):
        inline = run_campaign(CampaignConfig(**CHECK_CONFIG)).to_json()

        job = daemon.manager.submit("check", CHECK_CONFIG, fleet=True)
        workers = [_run_worker(daemon.url) for _ in range(2)]
        try:
            status = daemon.manager.wait(job["id"], timeout_s=60.0)
        finally:
            for worker, _ in workers:
                worker.request_stop()
            for _, thread in workers:
                thread.join(10)
        assert status["state"] == "done"
        report = daemon.manager.results(job["id"])
        assert _comparable(report) == _comparable(inline)

        # lease lifecycle landed in the job's typed event log
        types = [e["type"] for e in daemon.manager.job_events(job["id"])]
        assert "lease" in types and "done" in types
        executed = sum(
            w.stats["units_executed"] + w.stats["units_cached"]
            for w, _ in workers
        )
        assert executed >= LIMIT

    def test_killed_worker_shard_expires_and_requeues(self, daemon):
        """A worker that goes silent mid-shard loses its lease; the
        shard re-runs elsewhere and the report still byte-matches."""
        inline = run_campaign(CampaignConfig(**CHECK_CONFIG)).to_json()
        job = daemon.manager.submit("check", CHECK_CONFIG, fleet=True)

        # the "killed" worker: leases a shard over the wire, never
        # completes a unit, never renews — exactly what SIGKILL leaves
        rogue = ServeClient(daemon.url, timeout_s=10.0)
        rogue_id = rogue.fleet_register({"host": "rogue"})["worker"]
        shard = None
        deadline = threading.Event()
        for _ in range(100):
            shard = rogue.fleet_lease(rogue_id)
            if shard is not None:
                break
            deadline.wait(0.05)
        assert shard is not None and len(shard["units"]) > 0

        worker, thread = _run_worker(daemon.url)
        try:
            status = daemon.manager.wait(job["id"], timeout_s=60.0)
        finally:
            worker.request_stop()
            thread.join(10)
        assert status["state"] == "done"

        # nothing lost, nothing double-counted
        report = daemon.manager.results(job["id"])
        assert _comparable(report) == _comparable(inline)
        progress = daemon.manager.status(job["id"])["progress"]
        assert progress["done"] == progress["total"] == LIMIT

        types = [e["type"] for e in daemon.manager.job_events(job["id"])]
        assert "expire" in types and "requeue" in types
        stats = daemon.manager.board.stats()
        assert stats["expired"] >= 1
        assert stats["requeued_units"] >= 1

        # the dead lease is really dead: late results bounce with 410
        with pytest.raises(ServeHTTPError) as exc:
            rogue.fleet_complete(
                shard["lease"],
                [{"index": shard["units"][0]["index"], "result": None}],
                done=True,
            )
        assert exc.value.status == 410

    def test_metrics_expose_fleet_gauges(self, daemon):
        text = ServeClient(daemon.url).metrics()
        for gauge in ("repro_fleet_workers_live", "repro_fleet_queue_depth",
                      "repro_fleet_leases_active", "repro_fleet_expired"):
            assert gauge in text
        doc = ServeClient(daemon.url).fleet_status()
        assert "workers" in doc and "queue_depth" in doc

    def test_drain_stops_granting_but_keeps_renewals(self, daemon):
        client = ServeClient(daemon.url)
        worker_id = client.fleet_register()["worker"]
        handle = daemon.manager.board.handle("jobx", "check", {})
        handle.open([(0, [0.0]), (1, [1.0])], {}, events=None)
        shard = client.fleet_lease(worker_id)
        assert shard is not None
        daemon.manager.begin_shutdown()
        # no new grants while draining...
        assert client.fleet_lease(worker_id) is None
        # ...but the in-flight shard can still heartbeat and finish
        assert client.fleet_renew(shard["lease"])["lease"] == shard["lease"]
        out = client.fleet_complete(
            shard["lease"],
            [{"index": u["index"], "result": "r"} for u in shard["units"]],
            done=True,
        )
        assert out["absorbed"] == len(shard["units"])
        handle.close()


class TestClientRetries:
    def test_unreachable_daemon_fails_after_bounded_retries(self):
        client = ServeClient(
            "http://127.0.0.1:1", timeout_s=0.5,
            retries=2, backoff_s=0.01, backoff_max_s=0.02,
        )
        with pytest.raises(ReproError, match="after 3 attempts"):
            client.health()

    def test_backpressure_carries_retry_after(self, daemon):
        daemon.manager.board.max_active_leases = 1
        client = ServeClient(daemon.url)
        worker_id = client.fleet_register()["worker"]
        handle = daemon.manager.board.handle("joby", "check", {})
        handle.open([(i, [float(i)]) for i in range(8)], {}, events=None)
        assert client.fleet_lease(worker_id, max_units=1) is not None
        with pytest.raises(ServeHTTPError) as exc:
            client.fleet_lease(worker_id, max_units=1)
        assert exc.value.status == 429
        assert exc.value.retry_after is not None
        assert exc.value.retry_after > 0
        handle.close()

    def test_http_errors_are_not_retried(self, daemon):
        client = ServeClient(daemon.url, retries=3)
        with pytest.raises(ServeHTTPError) as exc:
            client.status("nonexistent")
        assert exc.value.status == 404
