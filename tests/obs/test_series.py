"""The durable telemetry series: dedup, atomicity, the recording seams."""

import json
import multiprocessing
import os

import pytest

from repro.check.campaign import CampaignConfig, run_campaign
from repro.fuzz.harness import FuzzConfig, fuzz_run
from repro.obs import series as obs_series
from repro.obs.export import validate_json
from repro.obs.series import (
    SERIES_SCHEMA,
    SeriesStore,
    aggregate,
    point_digest,
    record_campaign_point,
    record_perf_point,
    series_revs,
)

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "schemas", "series_point.schema.json",
)


def _small_cfg(**overrides):
    base = dict(
        app="uni_temp", runtime="easeio", mode="random", runs=4,
        workers=1, shrink=False,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture
def store(tmp_path):
    return SeriesStore(str(tmp_path / "series.jsonl"))


@pytest.fixture(autouse=True)
def _no_ambient_series(monkeypatch):
    """Tests must not inherit an activated store or the env var."""
    monkeypatch.delenv(obs_series.SERIES_ENV, raising=False)
    monkeypatch.setattr(obs_series, "_ACTIVE", None)
    monkeypatch.setattr(obs_series, "_ENV_STORE", None)


class TestSeriesStore:
    def test_round_trip(self, store):
        point = store.record_point({"kind": "campaign", "rev": "abc",
                                    "label": "t", "campaign": "c1",
                                    "units": 3})
        assert point is not None
        assert point["schema"] == SERIES_SCHEMA
        loaded = store.load()
        assert loaded == [point]

    def test_points_validate_against_schema(self, store):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        record_campaign_point(
            campaign="c1", label="check x", units=2, series=store,
        )
        record_perf_point(
            {"git_rev": "abc", "quick": True,
             "benchmarks": [{"name": "b", "wall_s": 1.0,
                             "runs_per_s": 2.0, "speedup": 3.0}]},
            series=store,
        )
        points = store.load()
        assert len(points) == 2
        for point in points:
            assert validate_json(point, schema) == []

    def test_identical_points_dedup(self, store):
        doc = {"kind": "campaign", "rev": "abc", "label": "t",
               "campaign": "c1", "units": 3}
        assert store.record_point(doc) is not None
        assert store.record_point(dict(doc)) is None
        assert store.appended == 1 and store.deduped == 1
        assert len(store.load()) == 1

    def test_volatile_fields_do_not_change_identity(self):
        a = {"kind": "campaign", "rev": "r", "label": "t",
             "campaign": "c", "units": 4, "elapsed_s": 0.5,
             "runs_per_s": 8.0, "serve": {"executed": 4},
             "counters": {"run.io_exec": 10, "serve.executed": 4}}
        b = {"kind": "campaign", "rev": "r", "label": "t",
             "campaign": "c", "units": 4, "elapsed_s": 9.9,
             "runs_per_s": 0.4, "serve": {"store_hits": 4},
             "counters": {"run.io_exec": 10, "serve.store_hits": 4}}
        assert point_digest(a) == point_digest(b)
        c = dict(a)
        c["counters"] = {"run.io_exec": 11}
        assert point_digest(a) != point_digest(c)

    def test_torn_tail_is_skipped(self, store):
        store.record_point({"kind": "campaign", "rev": "r", "label": "t",
                            "campaign": "c", "units": 1})
        with open(store.path, "a") as fh:
            fh.write('{"kind": "campaign", "trunc')
        assert len(store.load()) == 1
        # and a fresh handle still appends past the torn tail
        fresh = SeriesStore(store.path)
        assert fresh.record_point(
            {"kind": "campaign", "rev": "r2", "label": "t",
             "campaign": "c2", "units": 1}
        ) is not None
        assert len(fresh.load()) == 2

    def test_an_append_parses_only_new_lines(self, store, monkeypatch):
        for i in range(300):
            store.record_point({"kind": "campaign", "rev": "r",
                                "label": "t", "campaign": f"c{i}",
                                "units": i})
        parsed = []
        loads = obs_series.json.loads

        def counting_loads(raw, *args, **kwargs):
            text = raw if isinstance(raw, str) else raw.decode("latin-1")
            if SERIES_SCHEMA in text:  # a series line, not another caller
                parsed.append(text)
            return loads(raw, *args, **kwargs)

        monkeypatch.setattr(obs_series.json, "loads", counting_loads)
        assert store.record_point({"kind": "campaign", "rev": "r",
                                   "label": "t", "campaign": "c300",
                                   "units": 300}) is not None
        assert len(parsed) <= 2

    def test_another_instances_append_is_deduped(self, store):
        other = SeriesStore(store.path)
        store.record_point({"kind": "campaign", "rev": "r", "label": "t",
                            "campaign": "b", "units": 1})
        late = {"kind": "campaign", "rev": "r", "label": "t",
                "campaign": "a", "units": 2}
        assert other.record_point(late) is not None
        assert store.record_point(dict(late)) is None
        assert len(store.load()) == 2

    def test_merged_fleet_files_read_as_a_set(self, tmp_path):
        a = SeriesStore(str(tmp_path / "a.jsonl"))
        b = SeriesStore(str(tmp_path / "b.jsonl"))
        shared = {"kind": "campaign", "rev": "r", "label": "t",
                  "campaign": "c", "units": 1}
        a.record_point(shared)
        b.record_point(dict(shared))
        b.record_point({"kind": "campaign", "rev": "r", "label": "t2",
                        "campaign": "c2", "units": 2})
        merged = tmp_path / "merged.jsonl"
        merged.write_bytes(
            (tmp_path / "a.jsonl").read_bytes()
            + (tmp_path / "b.jsonl").read_bytes()
        )
        assert len(SeriesStore(str(merged)).load()) == 2


def _concurrent_writer(barrier, path, worker, width):
    barrier.wait()
    store = SeriesStore(path)
    for i in range(25):
        store.record_point({
            "kind": "campaign",
            "rev": "r",
            "label": f"w{worker}-p{i}",
            "campaign": f"c-{worker}-{i}",
            "units": i,
            "counters": {f"run.k{j}": j for j in range(width)},
        })


class TestConcurrency:
    # lines of ~0.8 KB and ~3 KB: an append that spans two pages of the
    # page cache lands in more than one copy, and the wider the line,
    # the likelier another writer's tail check sees it half done.  The
    # writers start behind a barrier, so they do overlap (handed to a
    # pool they seldom did).  Without the lock one wide trial tears
    # only one time in four to ten, so the wide case runs 40 trials.
    @pytest.mark.parametrize("width", [50, 200])
    def test_concurrent_writers_never_tear_lines(self, tmp_path, width):
        for trial in range(40 if width == 200 else 1):
            path = str(tmp_path / f"series-{trial}.jsonl")
            barrier = multiprocessing.Barrier(4, timeout=60)
            writers = [
                multiprocessing.Process(
                    target=_concurrent_writer, args=(barrier, path, w, width)
                )
                for w in range(4)
            ]
            for proc in writers:
                proc.start()
            for proc in writers:
                proc.join(timeout=60)
            with open(path) as fh:
                lines = fh.read().splitlines()
            # every line parses — no interleaved partial writes
            docs = [json.loads(line) for line in lines]
            assert len(docs) == 100
            assert len({d["digest"] for d in docs}) == 100
            assert len(SeriesStore(path).load()) == 100


SAME_POINT = {"kind": "campaign", "rev": "r", "label": "t",
              "campaign": "same", "units": 1}


def _same_point_writer(barrier, path):
    barrier.wait()
    SeriesStore(path).record_point(SAME_POINT)


class TestConcurrentDedup:
    # 200 earlier points make each writer's catch-up take a while, so
    # the writers do reach their dedup checks together: with the check
    # outside the lock, most trials appended the point more than once
    def test_racing_writers_of_one_point_append_it_once(self, tmp_path):
        for trial in range(10):
            path = str(tmp_path / f"series-{trial}.jsonl")
            earlier = SeriesStore(path)
            for i in range(200):
                earlier.record_point(dict(SAME_POINT, campaign=f"c{i}"))
            barrier = multiprocessing.Barrier(4, timeout=60)
            writers = [
                multiprocessing.Process(
                    target=_same_point_writer, args=(barrier, path)
                )
                for _ in range(4)
            ]
            for proc in writers:
                proc.start()
            for proc in writers:
                proc.join(timeout=60)
                assert proc.exitcode == 0
            with open(path) as fh:
                docs = [json.loads(line) for line in fh]
            assert len(docs) == 201
            assert sum(d["campaign"] == "same" for d in docs) == 1


class TestCampaignSeam:
    def test_campaign_records_one_point(self, store):
        report = run_campaign(_small_cfg(), series=store)
        points = store.load()
        assert len(points) == 1
        p = points[0]
        assert p["kind"] == "campaign"
        assert p["units"] == report.n_runs
        assert p["label"] == "check uni_temp/easeio"
        assert p["campaign"]
        assert p["serve"] == {"executed": report.n_runs}
        assert any(k.startswith("run.") for k in p["counters"])

    def test_replay_dedups(self, store, tmp_path):
        cfg = _small_cfg(store_dir=str(tmp_path / "rstore"))
        run_campaign(cfg, series=store)
        run_campaign(cfg, series=store)  # 100% warm cache hits
        assert len(store.load()) == 1
        assert store.deduped >= 1

    def test_divergent_campaign_carries_classes(self, store):
        # alpaca's Single-semantics I/O re-executes: a known bug class
        report = run_campaign(
            _small_cfg(app="uni_temp", runtime="alpaca", mode="exhaustive",
                       runs=None, limit=8),
            series=store,
        )
        point = store.load()[0]
        if report.total_violations:
            assert point["divergence_by_class"]
            total = sum(
                c["count"] for c in point["divergence_by_class"].values()
            )
            assert total == sum(report.by_kind.values())

    def test_no_store_active_means_no_file(self, tmp_path):
        run_campaign(_small_cfg())
        assert list(tmp_path.iterdir()) == []

    def test_env_var_activates_recording(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env-series.jsonl")
        monkeypatch.setenv(obs_series.SERIES_ENV, path)
        run_campaign(_small_cfg())
        assert len(SeriesStore(path).load()) == 1

    def test_report_unchanged_by_recording(self, store):
        """The zero-cost contract: recording must not perturb reports."""
        plain = run_campaign(_small_cfg()).to_json()
        recorded = run_campaign(_small_cfg(), series=store).to_json()
        for doc in (plain, recorded):
            doc.pop("elapsed_s")
            doc.pop("telemetry")
        assert plain == recorded


class TestFuzzSeam:
    def test_fuzz_run_records_exactly_one_point(self, store):
        cfg = FuzzConfig(
            runs=2, seed=0, workers=1, runtimes=("easeio",),
            limit=3, shrink=False,
        )
        fuzz_run(cfg, series=store)
        points = store.load()
        # inner per-program campaigns are suppressed; only the fuzz
        # run's own top-level point lands
        assert len(points) == 1
        assert points[0]["label"] == "fuzz"
        assert points[0]["units"] == 2


class TestPerfSeam:
    def test_perf_point_shape(self, store):
        doc = {
            "git_rev": "abc1234", "quick": True,
            "benchmarks": [
                {"name": "campaign_uni_dma", "wall_s": 1.5,
                 "runs_per_s": 100.0, "speedup": 3.2, "vm_speedup": 8.1},
                {"name": "continuous_fir", "wall_s": 0.5,
                 "runs_per_s": 40.0},
            ],
        }
        point = record_perf_point(doc, series=store)
        assert point["kind"] == "perf"
        assert point["rev"] == "abc1234"
        assert point["benchmarks"]["campaign_uni_dma"]["vm_speedup"] == 8.1
        # the deleted interpreter fast path's column is not carried over
        assert "speedup" not in point["benchmarks"]["campaign_uni_dma"]
        assert "vm_speedup" not in point["benchmarks"]["continuous_fir"]
        # same suite rerun -> same identity
        assert record_perf_point(doc, series=store) is None


class TestAggregate:
    def test_hand_computed_fixture(self):
        points = [
            {"kind": "campaign", "rev": "r1", "label": "a", "units": 10,
             "elapsed_s": 2.0, "serve": {"executed": 10},
             "divergence_by_class": {"repeated_io": {"count": 3}}},
            {"kind": "campaign", "rev": "r2", "label": "a", "units": 10,
             "elapsed_s": 1.0,
             "serve": {"store_hits": 8, "executed": 2},
             "divergence_by_class": {"repeated_io": {"count": 1},
                                     "torn_dma": {"count": 2}}},
            {"kind": "perf", "rev": "r2",
             "benchmarks": {"b": {"wall_s": 1.0, "speedup": 3.0}}},
        ]
        doc = aggregate(points)
        assert doc["points"] == 3
        c = doc["campaigns"]
        assert c["count"] == 2
        assert c["units"] == 20
        assert c["elapsed_s"] == 3.0
        assert c["throughput_runs_per_s"] == round(20 / 3.0, 2)
        assert c["cache"] == {
            "store_hits": 8, "checkpoint_restored": 0, "executed": 12,
            "hit_rate": 0.4,
        }
        # elapsed 2000ms and 1000ms -> power-of-two upper edges
        assert c["latency_ms"]["p50"] == 1024.0
        assert c["latency_ms"]["p95"] == 2048.0
        assert c["latency_ms"]["count"] == 2
        assert c["by_rev"]["r1"]["runs_per_s"] == 5.0
        assert c["by_rev"]["r2"]["runs_per_s"] == 10.0
        assert c["divergence_by_class_by_rev"] == {
            "r1": {"repeated_io": 3},
            "r2": {"repeated_io": 1, "torn_dma": 2},
        }
        assert doc["perf"]["count"] == 1
        assert doc["perf"]["by_rev"]["r2"]["b"]["speedup"] == 3.0


class TestSeriesFold:
    def test_aggregate_per_rev_figures_are_the_series_fold(self):
        points = [
            {"kind": "campaign", "rev": "r2", "label": "check a",
             "units": 7, "elapsed_s": 0.3331,
             "serve": {"store_hits": 3, "executed": 4},
             "divergence_by_class": {"torn_dma": {"count": 1}}},
            {"kind": "perf", "rev": "r2",
             "benchmarks": {"b": {"wall_s": 1.0, "vm_speedup": 8.0}}},
            {"kind": "campaign", "rev": "r1", "label": "fuzz",
             "units": 12, "elapsed_s": 1.1117,
             "serve": {"checkpoint_restored": 2, "executed": 10}},
            {"kind": "campaign", "rev": "r2", "label": "check b",
             "units": 5, "elapsed_s": 0.2009,
             "divergence_by_class": {"torn_dma": 2, "repeated_io": 1}},
            {"kind": "campaign", "rev": "r3", "label": "check a",
             "units": 0},
        ]
        revs = series_revs(points)
        c = aggregate(points)["campaigns"]
        assert c["by_rev"] == {
            r["rev"]: {
                key: r[key]
                for key in ("points", "units", "elapsed_s", "runs_per_s")
            }
            for r in revs
        }
        assert c["divergence_by_class_by_rev"] == {
            r["rev"]: r["divergence"] for r in revs
        }
        for key in ("store_hits", "checkpoint_restored", "executed"):
            assert c["cache"][key] == sum(r[key] for r in revs)
        assert list(c["by_rev"]) == ["r1", "r2", "r3"]


class TestRateTimelinePersisted:
    def test_check_report_carries_rate_timeline(self):
        doc = run_campaign(_small_cfg()).to_json()
        timeline = doc["telemetry"]["rate_timeline"]
        assert timeline, "rate_timeline must be persisted in reports"
        assert {"t_s", "done", "runs_per_s"} <= set(timeline[-1])
        assert timeline[-1]["done"] == doc["n_runs"]

    def test_fuzz_report_carries_rate_timeline(self):
        cfg = FuzzConfig(
            runs=2, seed=0, workers=1, runtimes=("easeio",),
            limit=3, shrink=False,
        )
        doc = fuzz_run(cfg).to_json()
        timeline = doc["telemetry"]["rate_timeline"]
        assert timeline
        assert timeline[-1]["done"] == 2
