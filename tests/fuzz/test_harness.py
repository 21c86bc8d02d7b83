"""Fuzzing harness smoke tests (small runs; the 200-program acceptance
campaign lives in CI and EXPERIMENTS.md, not in tier-1)."""

import json

import pytest

from repro.core.compile import cache_info
from repro.core.run import run_app
from repro.fuzz.harness import (
    BUG_CLASSES,
    FuzzConfig,
    fuzz_run,
)
from tests.conftest import on_sim_path


@pytest.fixture(scope="module")
def small_report():
    # program #0 of seed 0 carries the planted repeated-I/O and
    # stale-Timely idioms, so even a 3-program run finds real classes
    return fuzz_run(FuzzConfig(
        runs=3, seed=0, runtimes=("easeio", "alpaca"), limit=12,
        shrink_limit=8, max_shrink_evals=40,
    ))


class TestFuzzRun:
    def test_easeio_is_clean(self, small_report):
        assert small_report.ok, small_report.render_text()
        assert small_report.easeio_divergences == []
        assert small_report.by_runtime.get("easeio", {}) == {}

    def test_baseline_diverges(self, small_report):
        assert sum(small_report.by_runtime["alpaca"].values()) >= 1

    def test_reproducers_are_shrunk_and_easeio_clean(self, small_report):
        assert small_report.reproducers
        for r in small_report.reproducers:
            assert r["statements"] <= 10
            assert r["easeio_clean"], r["kind"]
            assert r["kind"] in r["by_kind"]

    def test_bug_class_mapping(self, small_report):
        for cls, where in small_report.bug_classes_found.items():
            assert cls in BUG_CLASSES.values()
            if where:
                runtime, kind = where.split(":")
                assert runtime in small_report.runtimes
                assert BUG_CLASSES[kind] == cls

    def test_report_serializes(self, small_report):
        data = small_report.to_json()
        text = json.dumps(data)
        assert data["ok"] is True
        assert data["runs"] == 3
        assert "bug_classes_found" in text

    def test_render_text(self, small_report):
        text = small_report.render_text()
        assert "verdict: PASS" in text
        assert "alpaca" in text


class TestDeterminism:
    def test_worker_count_does_not_change_the_report(self):
        base = dict(
            runs=4, seed=5, runtimes=("easeio", "alpaca"), limit=10,
            shrink=False,
        )
        serial = fuzz_run(FuzzConfig(**base))
        parallel = fuzz_run(FuzzConfig(workers=2, **base))

        def fingerprint(report):
            return (
                report.by_runtime,
                [
                    (p["index"], p["name"], p["divergent_runtimes"])
                    for p in report.programs
                ],
            )

        assert fingerprint(serial) == fingerprint(parallel)


class TestCacheFootprint:
    def test_fuzz_run_leaves_the_compile_cache_as_it_found_it(self):
        """Every checked program and shrink candidate is evicted, and
        nothing else is: a warm pool entry from other work survives."""
        with on_sim_path("vm"):
            run_app("fir", runtime="easeio", reuse_machine=True)
            before = cache_info()
            report = fuzz_run(FuzzConfig(
                runs=10, seed=0, runtimes=("easeio", "alpaca"), limit=12,
                shrink_limit=8, max_shrink_evals=40,
            ))
            after = cache_info()
        assert len(report.programs) == 10 and report.reproducers
        assert before["compiled"] == before["runtimes"] == 1
        for key in ("programs", "compiled", "runtimes"):
            assert after[key] == before[key], key
