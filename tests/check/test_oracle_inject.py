"""Tests for oracle construction and schedule generation/injection."""

import math

import pytest

from repro.check.inject import (
    exhaustive_schedules,
    probe_boundaries,
    random_schedules,
    run_schedule,
)
from repro.check.oracle import build_oracle, consistency_checker


class TestOracle:
    def test_uni_temp_oracle(self):
        oracle = build_oracle("uni_temp", "easeio")
        assert oracle.duration_us > 0
        assert oracle.n_io == 16  # one sample per loop iteration
        assert len(oracle.effects) == 16
        assert not oracle.deterministic
        assert not oracle.conditional_io
        assert any(s.semantic == "Timely" for s in oracle.sites.values())

    def test_effects_key_on_logical_instances(self):
        oracle = build_oracle("uni_temp", "easeio")
        # 16 samples from one site in one task instance: the loop
        # index must disambiguate them into 16 distinct effects
        sites = {key[2] for key in oracle.effects}
        assert len(sites) == 1
        loops = {key[3] for key in oracle.effects}
        assert len(loops) == 16

    def test_deterministic_oracle_snapshot(self):
        oracle = build_oracle("uni_dma", "easeio")
        assert oracle.deterministic
        assert set(oracle.result_vars) == {"checksum", "probe"}
        assert oracle.nv["checksum"] is not None

    def test_consistency_checker_lookup(self):
        assert consistency_checker("fir") is not None
        assert consistency_checker("weather") is not None
        assert consistency_checker("uni_temp") is None


class TestProbe:
    def test_boundaries_sorted_unique_positive(self):
        boundaries = probe_boundaries("uni_temp", "easeio")
        assert boundaries == sorted(set(boundaries))
        assert len(boundaries) > 50
        # the first observable step starts after the 700 us boot
        assert boundaries[0] >= 700.0

    def test_baseline_runtime_has_own_boundaries(self):
        easeio = probe_boundaries("uni_temp", "easeio")
        alpaca = probe_boundaries("uni_temp", "alpaca")
        assert easeio != alpaca  # guard steps shift the timeline


class TestSchedules:
    def test_exhaustive_one_run_per_boundary(self):
        scheds = exhaustive_schedules([1.0, 2.0, 3.0])
        assert scheds == [(1.0,), (2.0,), (3.0,)]

    def test_exhaustive_limit_thins_evenly(self):
        boundaries = [float(i) for i in range(100)]
        scheds = exhaustive_schedules(boundaries, limit=10)
        assert len(scheds) == 10
        times = [s[0] for s in scheds]
        assert times[0] == 0.0 and times[-1] == 99.0  # ends kept

    def test_random_schedules_are_seeded(self):
        a = random_schedules(10_000.0, runs=5, failures_per_run=3, seed=4)
        b = random_schedules(10_000.0, runs=5, failures_per_run=3, seed=4)
        c = random_schedules(10_000.0, runs=5, failures_per_run=3, seed=5)
        assert a == b
        assert a != c
        assert all(len(s) == 3 and list(s) == sorted(s) for s in a)


class TestRunSchedule:
    def test_single_failure_run_completes(self):
        result, error = run_schedule("uni_temp", "easeio", (2000.0,))
        assert error is None
        assert result is not None and result.completed
        assert result.metrics.power_failures == 1

    def test_starving_schedule_reports_nontermination(self):
        times = tuple(50.0 * (i + 1) for i in range(200))
        result, error = run_schedule(
            "uni_temp", "easeio", times, nontermination_limit=20
        )
        assert result is None
        assert error is not None and "t_" in error

    def test_infinite_no_failure_schedule(self):
        result, error = run_schedule("uni_temp", "easeio", ())
        assert error is None and result.completed
        assert result.metrics.power_failures == 0
        assert math.isfinite(result.metrics.total_time_us)
