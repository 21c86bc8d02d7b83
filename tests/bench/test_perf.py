"""The perf-regression harness and its supporting fast-path guarantees."""

import json

import pytest

import repro.hw.trace as trace_mod
from repro.bench.perf import (
    BENCHMARKS,
    SCHEMA,
    main,
    run_suite,
    select_benchmarks,
)


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
    rc = main(["continuous_fir", "--quick", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
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
