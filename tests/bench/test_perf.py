"""The perf-regression harness and its supporting fast-path guarantees."""

import json

import pytest

import repro.hw.trace as trace_mod
from repro.bench import perf
from repro.bench.perf import (
    BENCHMARKS,
    SCHEMA,
    VM_FLOOR,
    main,
    run_suite,
    select_benchmarks,
)
from repro.obs import series as obs_series
from repro.obs.series import SeriesStore


@pytest.fixture(autouse=True)
def _no_ambient_series(monkeypatch):
    """``--series`` activates a process-wide store; undo it per test."""
    monkeypatch.delenv(obs_series.SERIES_ENV, raising=False)
    monkeypatch.setattr(obs_series, "_ACTIVE", None)
    monkeypatch.setattr(obs_series, "_ENV_STORE", None)


def test_select_benchmarks_is_deterministic():
    """Selection follows registry order regardless of input order."""
    assert select_benchmarks() == list(BENCHMARKS)
    subset = select_benchmarks(["run_many_fir", "campaign_uni_dma"])
    assert subset == ["campaign_uni_dma", "run_many_fir"]
    assert select_benchmarks(list(reversed(list(BENCHMARKS)))) == list(BENCHMARKS)


def test_select_benchmarks_rejects_unknown():
    with pytest.raises(ValueError, match="unknown benchmarks"):
        select_benchmarks(["no_such_bench"])


def test_bench_sim_json_schema(tmp_path):
    """The CLI writes the documented BENCH_sim.json document."""
    out = tmp_path / "BENCH_sim.json"
    # a snapshot: whatever the file held before is replaced, not folded
    out.write_text(json.dumps({"history": [{"rev": "old"}]}))
    rc = main(["continuous_fir", "--quick", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA == "repro.bench.perf/3"
    assert "history" not in doc
    assert isinstance(doc["git_rev"], str) and doc["git_rev"]
    assert doc["quick"] is True
    assert doc["compare"] is False
    [entry] = doc["benchmarks"]
    assert entry["name"] == "continuous_fir"
    assert entry["wall_s"] > 0
    assert entry["runs"] > 0
    assert entry["runs_per_s"] > 0


def test_compare_mode_records_baseline_and_speedup():
    """Two paths: ``wall_s`` is the vm path, the baseline the reference."""
    from repro import fastpath

    was = fastpath.path()
    doc = run_suite(names=["continuous_fir"], quick=True, compare=True)
    [entry] = doc["benchmarks"]
    assert entry["baseline_wall_s"] > 0
    # the speedup is rounded to 2 decimals in the document
    assert entry["vm_speedup"] == pytest.approx(
        entry["baseline_wall_s"] / entry["wall_s"], abs=0.005
    )
    assert "speedup" not in entry  # no middle (fast path) column
    assert fastpath.path() == was  # restored after the suite


def _fake_suite(vm_speedup):
    def fake_run_suite(**kwargs):
        return {
            "schema": SCHEMA, "git_rev": "abc1234", "quick": True,
            "compare": True,
            "benchmarks": [
                {"name": "continuous_fir", "wall_s": 0.1,
                 "runs_per_s": 10.0, "vm_speedup": 6.0},
                {"name": "run_many_fir", "wall_s": 0.2,
                 "runs_per_s": 5.0, "vm_speedup": vm_speedup},
            ],
        }
    return fake_run_suite


@pytest.mark.parametrize("vm_speedup, rc", [(VM_FLOOR - 0.01, 1),
                                            (VM_FLOOR, 0)])
def test_compare_fails_below_the_vm_floor(
    tmp_path, monkeypatch, capsys, vm_speedup, rc
):
    monkeypatch.setattr(perf, "run_suite", _fake_suite(vm_speedup))
    out = tmp_path / "BENCH_sim.json"
    assert main(["--compare", "--output", str(out)]) == rc
    err = capsys.readouterr().err
    assert ("vm floor FAILED: run_many_fir" in err) == (rc == 1)
    assert "continuous_fir" not in err
    assert out.exists()  # the snapshot is written either way


def test_series_flag_records_the_perf_point(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "run_suite", _fake_suite(4.0))
    series = tmp_path / "series.jsonl"
    rc = main([
        "--compare", "--output", str(tmp_path / "BENCH_sim.json"),
        "--series", str(series),
    ])
    assert rc == 0
    [point] = SeriesStore(str(series)).load()
    assert point["kind"] == "perf" and point["rev"] == "abc1234"
    assert point["benchmarks"]["run_many_fir"]["vm_speedup"] == 4.0


def test_trace_events_false_allocates_no_events(monkeypatch):
    """A ``trace_events=False`` run must never construct an Event.

    Counter-only tracing is the metrics contract for bulk runs; this
    guards the lazy-detail path against regressions that would silently
    reintroduce per-event allocation.
    """
    from repro.core.run import run_app
    from repro.kernel.power import NoFailures

    class Exploding:
        def __init__(self, *a, **k):
            raise AssertionError(
                "Event allocated during a trace_events=False run"
            )

    monkeypatch.setattr(trace_mod, "Event", Exploding)
    result = run_app(
        "fir",
        runtime="easeio",
        failure_model=NoFailures(),
        seed=1,
        trace_events=False,
    )
    assert result.completed
    # counters must still work without stored events
    assert result.metrics.task_commits > 0
