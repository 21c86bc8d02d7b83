"""Daemon analytics: /metrics exposition, /v1/analytics, job event logs."""

import json
import os
import re
import threading

import pytest

from repro.obs import series as obs_series
from repro.obs.series import SeriesStore, aggregate
from repro.serve.daemon import ServeClient, make_server

SMALL_CHECK = {
    "app": "uni_temp", "runtime": "easeio", "mode": "exhaustive",
    "limit": 5, "workers": 1, "shrink": False,
}

#: one Prometheus sample line: name, optional {labels}, value
SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)$"
)
LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


@pytest.fixture(autouse=True)
def _no_ambient_series(monkeypatch):
    monkeypatch.delenv(obs_series.SERIES_ENV, raising=False)
    monkeypatch.setattr(obs_series, "_ACTIVE", None)
    monkeypatch.setattr(obs_series, "_ENV_STORE", None)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = make_server(
        str(tmp_path_factory.mktemp("serve-analytics")), port=0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.manager.shutdown(drain_s=30)


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url)


@pytest.fixture(scope="module")
def finished_job(client):
    """One completed check job every test in the module can inspect."""
    job = client.submit("check", SMALL_CHECK)
    final = client.wait(job["id"], timeout_s=120)
    assert final["state"] == "done"
    return final


def _parse_metrics(text):
    """Every sample as (name, labels-dict, float-value); comments checked."""
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert re.match(r"^# (TYPE|HELP) [A-Za-z_:][A-Za-z0-9_:]* ",
                            line), f"malformed comment: {line!r}"
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"unparseable exposition line: {line!r}"
        name, rawlabels, rawvalue = m.groups()
        labels = dict(LABEL_RE.findall(rawlabels or ""))
        samples.append((name, labels, float(rawvalue)))
    return samples


class TestMetricsEndpoint:
    def test_every_line_parses(self, client, finished_job):
        samples = _parse_metrics(client.metrics())
        assert samples
        names = {name for name, _, _ in samples}
        assert "repro_uptime_seconds" in names
        assert "repro_jobs" in names
        assert "repro_store_hits" in names

    def test_job_state_gauge_counts_the_job(self, client, finished_job):
        samples = _parse_metrics(client.metrics())
        done = [
            v for name, labels, v in samples
            if name == "repro_jobs" and labels.get("state") == "done"
        ]
        assert done and done[0] >= 1

    def test_progress_gauges_carry_job_labels(self, client, finished_job):
        samples = _parse_metrics(client.metrics())
        rows = [
            (labels, v) for name, labels, v in samples
            if name == "repro_job_progress_done"
        ]
        assert rows
        labels, value = rows[0]
        assert labels["kind"] == "check"
        assert value == 5.0

    def test_folded_run_counters_present(self, client, finished_job):
        samples = _parse_metrics(client.metrics())
        names = {name for name, _, _ in samples}
        # finished-job telemetry folded into the service registry
        assert any(n.startswith("repro_run_") for n in names), names

    def test_histogram_buckets_are_cumulative(self, client, finished_job):
        samples = _parse_metrics(client.metrics())
        by_hist = {}
        for name, labels, value in samples:
            if name.endswith("_bucket"):
                by_hist.setdefault(name, []).append(
                    (labels.get("le", ""), value)
                )
        assert by_hist, "expected at least one folded histogram"
        for name, buckets in by_hist.items():
            values = [v for _, v in buckets]
            assert values == sorted(values), f"{name} not cumulative"
            assert buckets[-1][0] == "+Inf", f"{name} missing +Inf"
            count = [
                v for n, _, v in samples if n == name[:-len("_bucket")]
                + "_count"
            ]
            assert count and count[0] == values[-1]

    def test_each_family_is_typed_once(self, client, finished_job):
        """A scraper rejects a family typed twice; a warm job (store
        hits) is where a second store-hit family could come from."""
        job = client.submit("check", SMALL_CHECK)
        assert client.wait(job["id"], timeout_s=120)["state"] == "done"
        families = [
            line.split()[2] for line in client.metrics().splitlines()
            if line.startswith("# TYPE ")
        ]
        repeated = sorted({f for f in families if families.count(f) > 1})
        assert not repeated


class TestAnalyticsEndpoint:
    def test_matches_local_aggregate(self, daemon, client, finished_job):
        doc = client.analytics()
        series_path = os.path.join(daemon.manager.root, "series.jsonl")
        assert doc["series_path"] == series_path
        expected = aggregate(SeriesStore(series_path).load())
        for key in ("points", "campaigns", "perf"):
            assert doc[key] == expected[key]

    def test_campaign_shape(self, client, finished_job):
        doc = client.analytics()
        c = doc["campaigns"]
        assert c["count"] >= 1
        assert c["units"] >= 5
        assert 0.0 <= c["cache"]["hit_rate"] <= 1.0
        assert c["latency_ms"]["count"] == c["count"]
        for rev_row in c["by_rev"].values():
            assert rev_row["units"] >= 1

    def test_identical_resubmit_dedups_the_point(self, client,
                                                 finished_job):
        before = client.analytics()["points"]
        job = client.submit("check", SMALL_CHECK)
        final = client.wait(job["id"], timeout_s=120)
        assert final["state"] == "done"
        after = client.analytics()
        # warm replay of the same campaign: same identity, no new point
        assert after["points"] == before


class TestJobEvents:
    def test_lifecycle_event_order(self, client, finished_job):
        doc = client.events(finished_job["id"])
        assert doc["job"] == finished_job["id"]
        events = doc["events"]
        types = [e["type"] for e in events]
        assert types[0] == "submit"
        assert types[-1] == "finish"
        assert "lease" in types
        assert "shard" in types
        assert types.index("lease") < types.index("shard")
        for e in events:
            assert isinstance(e["ts"], float)

    def test_submit_event_carries_campaign(self, client, finished_job):
        events = client.events(finished_job["id"])["events"]
        submit = events[0]
        assert submit["payload"]["kind"] == "check"
        assert submit["payload"]["campaign"] == finished_job["campaign"]

    def test_finish_event_carries_state(self, client, finished_job):
        events = client.events(finished_job["id"])["events"]
        assert events[-1]["payload"]["state"] == "done"

    def test_rejected_job_logs_reject(self, client):
        job = client.submit("check", {"app": "no_such_app", "workers": 1})
        assert job["state"] == "failed"
        types = [e["type"] for e in client.events(job["id"])["events"]]
        assert types == ["submit", "reject"]

    def test_events_file_is_jsonl(self, daemon, finished_job):
        path = os.path.join(
            daemon.manager.root, "jobs", finished_job["id"], "events.jsonl"
        )
        with open(path) as fh:
            for line in fh.read().splitlines():
                assert isinstance(json.loads(line), dict)
