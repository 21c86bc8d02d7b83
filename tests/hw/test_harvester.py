"""Unit tests for the harvesting sources' link physics.

The sources live in :mod:`repro.env.sources`: ``ConstantSource`` (a
fixed supply) and ``RFSource`` (the Figure 13 Powercast link: Friis
path loss into a knee rectifier, with log-normal fading on a fixed
time grid).
"""

import numpy as np
import pytest

from repro.env import ConstantSource, RFSource
from repro.errors import ReproError


class TestConstantSupply:
    def test_fixed_level(self):
        s = ConstantSource(level_mw=2.5)
        assert s.power_mw(0.0) == 2.5
        assert s.power_mw(1e9) == 2.5

    def test_negative_level_rejected(self):
        with pytest.raises(ReproError):
            ConstantSource(level_mw=-1.0)


class TestRFHarvester:
    def test_power_decreases_with_distance(self):
        powers = [RFSource(d).mean_power_mw() for d in (52, 55, 58, 61, 64)]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_inverse_square_law(self):
        # the plain Friis budget (no rectifier knee)
        near = RFSource(30.0, knee_mw=0.0).mean_power_mw()
        far = RFSource(60.0, knee_mw=0.0).mean_power_mw()
        assert near / far == pytest.approx(4.0)

    def test_power_scales_with_tx_power(self):
        weak = RFSource(52.0, tx_power_w=1.0).mean_power_mw()
        strong = RFSource(52.0, tx_power_w=3.0).mean_power_mw()
        assert strong > weak
        # linear in transmit power without the knee
        weak = RFSource(52.0, tx_power_w=1.0, knee_mw=0.0).mean_power_mw()
        strong = RFSource(52.0, tx_power_w=3.0, knee_mw=0.0).mean_power_mw()
        assert strong / weak == pytest.approx(3.0)

    def test_paper_distances_are_mw_scale(self):
        """At the paper's distances the harvest is around MCU-draw scale."""
        p52 = RFSource(52.0).mean_power_mw()
        p64 = RFSource(64.0).mean_power_mw()
        assert 0.1 < p64 < p52 < 20.0

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            RFSource(0.0)
        with pytest.raises(ReproError):
            RFSource(52.0, efficiency=0.0)
        with pytest.raises(ReproError):
            RFSource(52.0, efficiency=1.5)
        with pytest.raises(ReproError):
            RFSource(52.0, fading_period_us=0.0)

    def test_no_fading_is_constant(self):
        h = RFSource(52.0, fading_std_db=0.0)
        assert h.power_mw(0.0) == h.power_mw(123456.0) == h.mean_power_mw()

    def test_fading_varies_over_time(self):
        h = RFSource(52.0, fading_std_db=3.0, fading_period_us=1000.0)
        samples = {round(h.power_mw(t * 1000.0), 6) for t in range(20)}
        assert len(samples) > 1

    def test_fading_holds_within_coherence_period(self):
        h = RFSource(52.0, fading_std_db=3.0, fading_period_us=10_000.0)
        assert h.power_mw(0.0) == h.power_mw(5_000.0)
        assert h.next_change_us(5_000.0) == 10_000.0

    def test_fading_is_zero_mean_in_db(self):
        h = RFSource(52.0, fading_std_db=2.0, fading_period_us=1.0, seed=3)
        base = h.mean_power_mw()
        db = [
            10.0 * np.log10(h.power_mw(i * 2.0) / base) for i in range(2000)
        ]
        assert abs(np.mean(db)) < 0.2
