"""The job layer and the HTTP daemon (in-process, ephemeral port)."""

import json
import os
import threading
import time

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.errors import ReproError
from repro.serve.api import JobManager, UnknownJob
from repro.serve.daemon import ServeClient, ServeHTTPError, make_server

SMALL_CHECK = {
    "app": "uni_temp", "runtime": "easeio", "mode": "exhaustive",
    "limit": 5, "workers": 1, "shrink": False,
}


@pytest.fixture
def manager(tmp_path):
    m = JobManager(str(tmp_path / "serve"))
    yield m
    m.shutdown(drain_s=30)


class TestJobLifecycle:
    def test_submit_wait_results(self, manager):
        job = manager.submit("check", SMALL_CHECK)
        assert job["campaign"]  # identity known at submit time
        final = manager.wait(job["id"], timeout_s=120)
        assert final["state"] == "done"
        assert final["progress"]["done"] == final["progress"]["total"] == 5
        report = manager.results(job["id"])
        assert report["ok"] is True
        assert report["n_runs"] == 5
        assert report["config"]["kind"] == "check"

    def test_job_record_and_report_are_durable(self, manager):
        job = manager.submit("check", SMALL_CHECK)
        manager.wait(job["id"], timeout_s=120)
        job_dir = os.path.join(manager.jobs_dir, job["id"])
        with open(os.path.join(job_dir, "job.json")) as fh:
            assert json.load(fh)["state"] == "done"
        with open(os.path.join(job_dir, "report.json")) as fh:
            assert json.load(fh)["ok"] is True

    def test_unknown_kind_rejected(self, manager):
        with pytest.raises(ReproError):
            manager.submit("bench", {})

    def test_bad_config_fails_at_submit(self, manager):
        job = manager.submit("check", {"app": "no_such_app", "workers": 1})
        assert job["state"] == "failed"
        assert "no_such_app" in job["error"]

    @pytest.mark.parametrize("kind, config, field", [
        ("check", dict(SMALL_CHECK, limt=3), "limt"),
        ("fuzz", {"run": 2}, "run"),
    ])
    def test_unknown_config_field_fails_at_submit(
        self, manager, kind, config, field
    ):
        job = manager.submit(kind, config)
        assert job["state"] == "failed"
        assert field in job["error"]
        assert job["progress"] == {}  # nothing ran

    def test_jobs_run_one_at_a_time(self, manager):
        """Inline jobs share the process's pooled runtimes, so they must
        not overlap; each report equals a standalone campaign's."""
        configs = [
            {"app": "fir", "runtime": "alpaca", "limit": 30, "workers": 1},
            {"app": "uni_dma", "runtime": "ink", "limit": 30, "workers": 1},
        ]
        jobs = [manager.submit("check", config) for config in configs]
        first, second = sorted(
            (manager.wait(job["id"], timeout_s=120) for job in jobs),
            key=lambda status: status["started_at"],
        )
        assert first["state"] == second["state"] == "done"
        assert second["started_at"] >= first["finished_at"]
        strip = ("elapsed_s", "telemetry")
        for job, config in zip(jobs, configs):
            served = manager.results(job["id"])
            alone = run_campaign(CampaignConfig(**config)).to_json()
            assert {k: v for k, v in served.items() if k not in strip} == \
                   {k: v for k, v in alone.items() if k not in strip}

    def test_unknown_job_raises(self, manager):
        with pytest.raises(UnknownJob):
            manager.status("nope")

    def test_results_before_report_is_an_error(self, manager):
        job = manager.submit("check", SMALL_CHECK)
        try:
            with pytest.raises(ReproError):
                # grab it in the tiny pre-report window; if the job
                # already finished, results() succeeds and that's fine
                if manager.status(job["id"])["state"] == "queued":
                    manager.results(job["id"])
                else:
                    raise ReproError("job outran the test")
        finally:
            manager.wait(job["id"], timeout_s=120)


class TestDedupAcrossJobs:
    def test_resubmitted_campaign_is_served_from_store(self, manager):
        first = manager.submit("check", SMALL_CHECK)
        manager.wait(first["id"], timeout_s=120)
        second = manager.submit("check", SMALL_CHECK)
        manager.wait(second["id"], timeout_s=120)
        r1 = manager.results(first["id"])
        r2 = manager.results(second["id"])
        strip = ("elapsed_s", "telemetry")
        assert {k: v for k, v in r1.items() if k not in strip} == \
               {k: v for k, v in r2.items() if k not in strip}
        counters = r2["telemetry"]["counters"]
        assert counters.get("serve.store_hits", 0) == 5
        assert counters.get("serve.executed", 0) == 0

    def test_jobs_count_on_the_managers_store(self, manager):
        """/metrics and /v1/store/stats read the handle jobs use."""
        for _ in ("cold", "warm"):
            job = manager.submit("check", SMALL_CHECK)
            assert manager.wait(job["id"], timeout_s=120)["state"] == "done"
        assert manager.store.writes == manager.store.hits == 5
        text = manager.metrics_text()
        assert "\nrepro_store_writes 5\n" in text
        assert "\nrepro_store_hits 5\n" in text

    def test_submit_from_report_replays_the_campaign(self, manager):
        first = manager.submit("check", SMALL_CHECK)
        manager.wait(first["id"], timeout_s=120)
        report = manager.results(first["id"])
        second = manager.submit_from_report(report)
        assert second["kind"] == "check"
        assert second["campaign"] == first["campaign"]
        manager.wait(second["id"], timeout_s=120)
        assert manager.results(second["id"])["ok"] is True

    def test_report_without_config_is_rejected(self, manager):
        with pytest.raises(ReproError, match="no embedded config"):
            manager.submit_from_report({"ok": True})


class TestFuzzJobs:
    SMALL_FUZZ = {
        "runs": 3, "seed": 2, "workers": 1, "shrink": False,
        "runtimes": ["easeio", "alpaca"], "limit": 8,
    }

    def test_fuzz_job_and_report_replay(self, manager):
        job = manager.submit("fuzz", self.SMALL_FUZZ)
        assert job["campaign"]
        final = manager.wait(job["id"], timeout_s=240)
        assert final["state"] == "done"
        report = manager.results(job["id"])
        assert report["config"]["kind"] == "fuzz"
        assert report["config"]["seed"] == 2
        assert report["partial"] is False

        # the embedded config replays, and the replay is all store hits
        again = manager.submit_from_report(report)
        assert again["campaign"] == job["campaign"]
        manager.wait(again["id"], timeout_s=240)
        counters = manager.results(again["id"])["telemetry"]["counters"]
        assert counters.get("serve.store_hits", 0) == 3
        assert counters.get("serve.executed", 0) == 0


class TestCancelAndRecovery:
    def test_cancel_yields_partial_resumable_report(self, tmp_path):
        manager = JobManager(str(tmp_path / "serve"))
        try:
            job = manager.submit("check", {
                "app": "uni_temp", "runtime": "easeio", "mode": "random",
                "runs": 300, "workers": 1, "shrink": False, "seed": 5,
            })
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                progress = manager.status(job["id"])["progress"]
                if progress.get("done", 0) >= 3:
                    break
                time.sleep(0.02)
            manager.cancel(job["id"])
            final = manager.wait(job["id"], timeout_s=120)
            if final["state"] == "done":
                pytest.skip("campaign outran the cancel request")
            assert final["state"] == "cancelled"
            report = manager.results(job["id"])
            assert report["partial"] is True
            assert report["ok"] is False
            assert 0 < report["n_runs"] < 300
            # the store is the job's one record of its finished units
            assert manager.store.stats()["entries"] == report["n_runs"]
            assert any(
                f"resumable via store {manager.store.root}" in note
                for note in report["notes"]
            )
            assert not os.path.exists(
                os.path.join(manager.root, "checkpoints")
            )
        finally:
            manager.shutdown(drain_s=30)

    def test_resubmission_resumes_a_cancelled_campaign(self, tmp_path):
        root = str(tmp_path / "serve")
        manager = JobManager(root)
        config = {
            "app": "uni_temp", "runtime": "easeio", "mode": "random",
            "runs": 120, "workers": 1, "shrink": False, "seed": 6,
        }
        try:
            job = manager.submit("check", config)
            while manager.status(job["id"])["progress"].get("done", 0) < 3:
                if manager.status(job["id"])["state"] != "running" and \
                        manager.status(job["id"])["state"] != "queued":
                    break
                time.sleep(0.02)
            manager.cancel(job["id"])
            first = manager.wait(job["id"], timeout_s=120)
        finally:
            manager.shutdown(drain_s=30)

        # a NEW manager on the same root (daemon restarted): the old
        # job surfaces as a record, the resubmitted campaign resumes
        revived = JobManager(root)
        try:
            assert revived.status(job["id"])["state"] in (
                "cancelled", "done", "interrupted",
            )
            again = revived.submit("check", config)
            final = revived.wait(again["id"], timeout_s=240)
            assert final["state"] == "done"
            report = revived.results(again["id"])
            assert report["partial"] is False
            assert report["n_runs"] == 120
            if first["state"] == "cancelled":
                counters = report["telemetry"]["counters"]
                # old work was not redone: it came back from the store
                assert counters.get("serve.store_hits", 0) > 0
                assert "serve.checkpoint_restored" not in counters
        finally:
            revived.shutdown(drain_s=30)

    def test_dead_daemon_jobs_recover_as_interrupted(self, tmp_path):
        root = str(tmp_path / "serve")
        manager = JobManager(root)
        manager.shutdown()
        # forge a job.json left behind mid-flight by a killed daemon
        job_dir = os.path.join(manager.jobs_dir, "deadjob00001")
        os.makedirs(job_dir)
        with open(os.path.join(job_dir, "job.json"), "w") as fh:
            json.dump({
                "id": "deadjob00001", "kind": "check",
                "config": SMALL_CHECK, "state": "running",
                "submitted_at": 1.0, "campaign": "abc",
            }, fh)
        revived = JobManager(root)
        status = revived.status("deadjob00001")
        assert status["state"] == "interrupted"
        assert "daemon died" in status["error"]
        revived.shutdown()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = make_server(
        str(tmp_path_factory.mktemp("serve-http")), port=0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.manager.shutdown(drain_s=30)


class TestHTTP:
    def test_health(self, daemon):
        client = ServeClient(daemon.url)
        doc = client.health()
        assert doc["ok"] is True and doc["root"] == daemon.manager.root

    def test_submit_wait_results_over_http(self, daemon):
        client = ServeClient(daemon.url)
        job = client.submit("check", SMALL_CHECK)
        final = client.wait(job["id"], timeout_s=120)
        assert final["state"] == "done"
        report = client.results(job["id"])
        assert report["ok"] is True and report["n_runs"] == 5
        listing = client.jobs()["jobs"]
        assert any(j["id"] == job["id"] for j in listing)
        stats = client.store_stats()
        assert stats["entries"] >= 5

    def test_unknown_job_is_404(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeHTTPError) as err:
            client.status("nope")
        assert err.value.status == 404

    def test_bad_submit_is_400(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeHTTPError) as err:
            client.submit("bench", {})
        assert err.value.status == 400

    def test_results_before_report_is_409(self, daemon):
        client = ServeClient(daemon.url)
        job = daemon.manager.submit("check", dict(SMALL_CHECK, seed=9))
        try:
            if daemon.manager.status(job["id"])["state"] == "queued":
                with pytest.raises(ServeHTTPError) as err:
                    client.results(job["id"])
                assert err.value.status == 409
        finally:
            daemon.manager.wait(job["id"], timeout_s=120)

    def test_unknown_route_is_404(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeHTTPError) as err:
            client._request("GET", "/v2/definitely/not")
        assert err.value.status == 404

    def test_gc_over_http(self, daemon):
        client = ServeClient(daemon.url)
        out = client.gc(max_entries=100000)
        assert "evicted" in out and "kept" in out
