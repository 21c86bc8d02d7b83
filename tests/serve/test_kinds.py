"""Every registered campaign kind against the contracts of the one driver.

A kind registered in :func:`repro.serve.kinds.kinds` is run standalone,
cached, sharded, served and leased to a fleet with no code of its own
in those layers — so each contract those layers rely on is checked
here for every kind, with one small config per kind.
"""

import json
import threading

import pytest

from repro.errors import CampaignInterrupted, ReproError
from repro.fleet.worker import FleetWorker
from repro.obs.campaign import CampaignTelemetry
from repro.serve.api import JobManager
from repro.serve.daemon import ServeClient, make_server
from repro.serve.kinds import campaign_kind, kinds, run_kind
from repro.serve.store import ResultStore

#: one small wire config per registered kind
SMALL = {
    "check": {
        "app": "fir", "runtime": "alpaca", "mode": "random", "runs": 8,
        "seed": 3,
    },
    "fuzz": {
        "runs": 2, "seed": 0, "runtimes": ["easeio", "alpaca"], "limit": 6,
        "shrink_limit": 6, "max_shrink_evals": 10,
    },
    "env-sweep": {"count": 3, "seed": 1, "apps": ["uni_temp"]},
}
KINDS = sorted(kinds())

#: report fields that time or account for a run, not state its result
VOLATILE = ("elapsed_s", "serve", "telemetry")


def _result(doc, drop=()):
    out = {k: v for k, v in doc.items() if k not in VOLATILE + drop}
    out["config"] = {
        k: v for k, v in doc["config"].items() if k not in drop
    }
    return out


def _cfg(name, **overrides):
    return campaign_kind(name).decode_config(dict(SMALL[name], **overrides))


def _run(name, telemetry=None, **overrides):
    return run_kind(
        campaign_kind(name), _cfg(name, **overrides), telemetry=telemetry
    )


def test_every_kind_has_a_small_config():
    assert sorted(SMALL) == KINDS


@pytest.mark.parametrize("name", KINDS)
def test_wire_config_keeps_digest_and_unit_keys(name):
    kind = campaign_kind(name)
    cfg = _cfg(name)
    wire = json.loads(json.dumps(kind.describe_config(cfg)))
    decoded = kind.decode_config(wire)
    assert kind.digest(decoded) == kind.digest(cfg)
    payloads = kind.units(cfg, kind.context(cfg))[0]
    assert payloads
    assert kind.unit_keys(decoded, payloads) == kind.unit_keys(cfg, payloads)


@pytest.mark.parametrize("name", KINDS)
def test_report_round_trips_through_json(name):
    report = _run(name)
    doc = report.to_json()
    again = campaign_kind(name).report.from_json(doc)
    assert again.to_json() == doc
    assert again.render_text() == report.render_text()


@pytest.mark.parametrize("name", KINDS)
def test_storeless_cold_and_warm_reports_agree(name, tmp_path):
    store = str(tmp_path / "store")
    storeless = _run(name).to_json()
    cold = _run(name, store_dir=store).to_json()
    telemetry = CampaignTelemetry("warm", 0)
    warm = _run(name, telemetry=telemetry, store_dir=store).to_json()
    assert _result(cold) == _result(storeless)
    assert _result(warm) == _result(storeless)
    counters = telemetry.registry.counters
    assert counters.get("serve.store_hits") == telemetry.total > 0
    assert "serve.executed" not in counters


@pytest.fixture
def closed(monkeypatch):
    """Every ``ResultStore.close`` call: the connection it left."""
    calls = []
    close = ResultStore.close

    def recording_close(store):
        close(store)
        calls.append(store.backend._db)

    monkeypatch.setattr(ResultStore, "close", recording_close)
    return calls


@pytest.mark.parametrize("name", KINDS)
def test_finished_run_closes_its_store(name, closed, tmp_path):
    _run(name, store_dir=str(tmp_path / "store"))
    assert (tmp_path / "store" / "store.sqlite3").exists()
    assert closed == [None]


@pytest.mark.parametrize("name", KINDS)
def test_interrupted_run_closes_its_store(name, closed, tmp_path):
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(CampaignInterrupted) as err:
        run_kind(
            campaign_kind(name), _cfg(name, store_dir=str(tmp_path / "s")),
            cancel=cancel,
        )
    assert err.value.report.partial
    assert (tmp_path / "s" / "store.sqlite3").exists()
    assert closed == [None]


@pytest.mark.parametrize("name", KINDS)
def test_pool_matches_inline(name):
    inline = _run(name).to_json()
    pooled = _run(name, workers=2).to_json()
    assert _result(pooled, drop=("workers",)) == _result(
        inline, drop=("workers",)
    )


@pytest.mark.parametrize("fleet", [False, True], ids=["daemon", "fleet"])
@pytest.mark.parametrize("name", KINDS)
def test_served_report_equals_inline(name, fleet, tmp_path):
    inline = _run(name).to_json()
    server = make_server(str(tmp_path / "serve"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    worker = None
    try:
        if fleet:
            worker = FleetWorker(
                ServeClient(server.url, timeout_s=10.0, retries=1),
                poll_s=0.05,
            )
            worker_thread = threading.Thread(target=worker.run, daemon=True)
            worker_thread.start()
        job = server.manager.submit(name, SMALL[name], fleet=fleet)
        status = server.manager.wait(job["id"], timeout_s=120)
        assert status["state"] == "done", status
        served = server.manager.results(job["id"])
    finally:
        if worker is not None:
            worker.request_stop()
            worker_thread.join(10)
        server.shutdown()
        server.server_close()
        server.manager.shutdown(drain_s=10)
        thread.join(5)
    assert _result(served) == _result(inline)
    if fleet:
        assert worker.stats["units_executed"] == status["progress"]["total"]


def test_unknown_kind_error_names_the_registered_kinds(tmp_path):
    manager = JobManager(str(tmp_path / "serve"))
    try:
        with pytest.raises(ReproError) as err:
            manager.submit("bench", {})
    finally:
        manager.shutdown()
    assert all(name in str(err.value) for name in KINDS)
