"""Unit tests for the experiment runner and harvesting calibration."""

import dataclasses

import pytest

from repro.apps import APPS, AppSpec, fir, uni_dma
from repro.bench.experiments import fig13_environment
from repro.bench.runner import Aggregate, run_many
from repro.env import RFSource
from repro.errors import ReproError


class TestRunMany:
    def test_aggregate_fields_consistent(self):
        agg = run_many(APPS["uni_temp"], "easeio", reps=5)
        assert agg.reps == 5
        assert agg.app == "uni_temp"
        assert agg.runtime == agg.label == "easeio"
        assert agg.total_ms > 0
        assert agg.completed == 5
        # the Fig. 7 decomposition adds back up
        assert agg.total_ms == pytest.approx(
            agg.app_ms + agg.overhead_ms + agg.wasted_ms, rel=0.05
        )

    def test_custom_label(self):
        agg = run_many(
            APPS["fir"], "easeio", reps=2, label="easeio/op",
            build_kwargs={"exclude_coeffs": True},
        )
        assert agg.label == "easeio/op"
        assert agg.runtime == "easeio"

    def test_consistency_counter(self):
        agg = run_many(
            APPS["fir"], "easeio", reps=4,
            consistency=fir.check_consistency,
        )
        assert agg.correct == 4
        assert agg.incorrect == 0

    def test_seeded_reproducibility(self):
        a = run_many(APPS["uni_temp"], "alpaca", reps=3, seed0=9)
        b = run_many(APPS["uni_temp"], "alpaca", reps=3, seed0=9)
        assert a.total_ms == b.total_ms
        assert a.failures == b.failures

    def test_different_seed_blocks_differ(self):
        a = run_many(APPS["uni_dma"], "alpaca", reps=3, seed0=0)
        b = run_many(APPS["uni_dma"], "alpaca", reps=3, seed0=300)
        assert a.total_ms != b.total_ms

    def test_memory_and_text_captured(self):
        agg = run_many(APPS["uni_temp"], "easeio", reps=1)
        assert agg.memory["fram"] > 0
        assert agg.text_proxy > 0

    @pytest.mark.parametrize("spec", [
        # a registered name with another program behind it: running
        # it by name would report APPS["uni_temp"]'s numbers
        dataclasses.replace(APPS["uni_temp"], build=uni_dma.build),
        AppSpec("mine", uni_dma.build, uni_dma.RESULT_VARS, "unregistered"),
    ], ids=["shadowed", "unregistered"])
    def test_unregistered_spec_is_refused(self, spec):
        with pytest.raises(ReproError, match="registered app spec"):
            run_many(spec, "easeio", reps=1)


class TestKneeHarvester:
    """The Figure 13 link calibration: ``RFSource``'s rectifier knee."""

    def test_knee_reduces_harvest_at_range(self):
        plain = RFSource(64.0, knee_mw=0.0)
        knee = RFSource(64.0)
        assert knee.mean_power_mw() < plain.mean_power_mw()

    def test_knee_penalty_grows_with_distance(self):
        """The knee makes the falloff steeper than inverse-square."""
        near_ratio = (
            RFSource(52.0).mean_power_mw()
            / RFSource(52.0, knee_mw=0.0).mean_power_mw()
        )
        far_ratio = (
            RFSource(64.0).mean_power_mw()
            / RFSource(64.0, knee_mw=0.0).mean_power_mw()
        )
        assert far_ratio < near_ratio

    def test_distance_factory_is_seeded(self):
        a = fig13_environment(58.0, seed=4).source
        b = fig13_environment(58.0, seed=4).source
        assert a.segments(200_000.0) == b.segments(200_000.0)

    def test_fading_enabled(self):
        h = fig13_environment(58.0, seed=4).source
        samples = {round(h.power_mw(t * 20_000.0), 9) for t in range(10)}
        assert len(samples) > 1
