"""Energy sources for environment-driven power failures.

Every source here is a *piecewise-constant* power signal over absolute
simulated time: ``power_mw(t)`` is the harvested power inside the
segment containing ``t`` and ``next_change_us(t)`` is the absolute time
at which that segment ends.  The environment integrates the workload's
draw against the signal segment by segment, so failure instants and
dark periods come out in closed form — no numeric time-stepping, and
bit-identical results on every execution path.

Determinism contract
--------------------
Stochastic sources materialize their segments *lazily but
sequentially* from a dedicated seeded RNG: segment ``k`` is always the
``k``-th draw, whatever query pattern produced it.  Two consequences:

* a seed fully determines the signal — replaying a run replays its
  failure times exactly;
* ``reset()`` is a no-op for the signal itself (the signal is a pure
  function of absolute time), so one source instance can serve many
  runs of a campaign without re-seeding drift.

This is why :class:`RFSource` draws its multipath fading on a fixed
absolute-time grid rather than from whenever a query happens to
arrive: a query-timed fade would make the signal depend on the
workload's history, and a recorded run would no longer replay.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


class EnergySource:
    """Interface: a piecewise-constant harvested-power signal."""

    def power_mw(self, time_us: float) -> float:
        """Harvested power (mW) inside the segment containing ``time_us``."""
        raise NotImplementedError

    def next_change_us(self, time_us: float) -> float:
        """Absolute end of the segment containing ``time_us`` (may be inf)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Start-of-run hook.  Signals are pure in absolute time: no-op."""

    def describe(self) -> Dict[str, object]:
        """JSON-safe identity of this source (store keys, reports)."""
        raise NotImplementedError

    def segments(self, until_us: float) -> List[Tuple[float, float]]:
        """Materialized ``(start_us, power_mw)`` list covering [0, until]."""
        raise NotImplementedError


class ConstantSource(EnergySource):
    """A fixed supply level — the control environment (never changes)."""

    def __init__(self, level_mw: float = 1000.0) -> None:
        if level_mw < 0:
            raise ReproError("supply power must be >= 0")
        self.level_mw = float(level_mw)

    def power_mw(self, time_us: float) -> float:
        return self.level_mw

    def next_change_us(self, time_us: float) -> float:
        return math.inf

    def describe(self) -> Dict[str, object]:
        return {"kind": "constant", "level_mw": self.level_mw}

    def segments(self, until_us: float) -> List[Tuple[float, float]]:
        return [(0.0, self.level_mw)]


class _SegmentedSource(EnergySource):
    """Base: lazily materialized seeded segment sequence.

    Subclasses implement ``_draw_segment(k) -> (duration_us, power_mw)``
    using ``self._rng`` (and/or the index ``k``); draws happen in
    strictly increasing ``k`` order, which is what makes the signal a
    pure function of ``(seed, absolute time)``.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._bounds: List[float] = [0.0]   # segment k covers [b[k], b[k+1])
        self._powers: List[float] = []

    def _draw_segment(self, k: int) -> Tuple[float, float]:
        raise NotImplementedError

    def _segment_index(self, time_us: float) -> int:
        if time_us < 0:
            raise ReproError(f"source queried at negative time {time_us}")
        bounds = self._bounds
        while bounds[-1] <= time_us:
            duration, power = self._draw_segment(len(self._powers))
            if not duration > 0:
                raise ReproError("source segments must have positive duration")
            self._powers.append(max(0.0, float(power)))
            bounds.append(bounds[-1] + float(duration))
        return bisect_right(bounds, time_us) - 1

    def power_mw(self, time_us: float) -> float:
        return self._powers[self._segment_index(time_us)]

    def next_change_us(self, time_us: float) -> float:
        return self._bounds[self._segment_index(time_us) + 1]

    def segments(self, until_us: float) -> List[Tuple[float, float]]:
        self._segment_index(max(0.0, until_us))
        return [
            (self._bounds[i], self._powers[i])
            for i in range(len(self._powers))
            if self._bounds[i] <= until_us
        ]


class SolarSource(_SegmentedSource):
    """A scaled diurnal cycle: sinusoidal daylight, dark nights.

    Real days are ~10^10 µs — far beyond ms-scale runs — so the cycle
    is compressed: ``day_ms`` spans one full day.  Power follows the
    positive half of a sinusoid (clamped to zero at "night"), quantized
    into ``steps`` constant buckets per day with mild per-bucket
    log-normal cloud jitter.
    """

    def __init__(
        self,
        peak_mw: float = 8.0,
        day_ms: float = 200.0,
        steps: int = 32,
        jitter_db: float = 1.0,
        seed: int = 0,
    ) -> None:
        if peak_mw < 0 or day_ms <= 0 or steps < 2:
            raise ReproError("solar source needs peak>=0, day>0, steps>=2")
        super().__init__(seed)
        self.peak_mw = float(peak_mw)
        self.day_ms = float(day_ms)
        self.steps = int(steps)
        self.jitter_db = float(jitter_db)

    def _draw_segment(self, k: int) -> Tuple[float, float]:
        quantum_us = self.day_ms * 1000.0 / self.steps
        phase = (k % self.steps) / self.steps
        level = self.peak_mw * max(0.0, math.sin(2.0 * math.pi * phase))
        if self.jitter_db > 0:
            level *= 10.0 ** (
                float(self._rng.normal(0.0, self.jitter_db)) / 10.0
            )
        return quantum_us, level

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "solar",
            "peak_mw": self.peak_mw,
            "day_ms": self.day_ms,
            "steps": self.steps,
            "jitter_db": self.jitter_db,
            "seed": self.seed,
        }


class BurstySource(_SegmentedSource):
    """Kinetic-style harvesting: short energetic bursts, quiet gaps.

    Models piezo/vibration harvesters (footsteps, machinery): power
    arrives in exponentially-distributed bursts of log-normally jittered
    height separated by exponential quiet gaps at ``base_mw``.
    """

    def __init__(
        self,
        peak_mw: float = 12.0,
        base_mw: float = 0.0,
        mean_burst_ms: float = 4.0,
        mean_gap_ms: float = 12.0,
        jitter_db: float = 2.0,
        seed: int = 0,
    ) -> None:
        if peak_mw < 0 or base_mw < 0:
            raise ReproError("bursty source powers must be >= 0")
        if mean_burst_ms <= 0 or mean_gap_ms <= 0:
            raise ReproError("bursty source durations must be > 0")
        super().__init__(seed)
        self.peak_mw = float(peak_mw)
        self.base_mw = float(base_mw)
        self.mean_burst_ms = float(mean_burst_ms)
        self.mean_gap_ms = float(mean_gap_ms)
        self.jitter_db = float(jitter_db)

    def _draw_segment(self, k: int) -> Tuple[float, float]:
        rng = self._rng
        if k % 2 == 0:  # burst
            duration_ms = float(rng.exponential(self.mean_burst_ms))
            level = self.peak_mw * 10.0 ** (
                float(rng.normal(0.0, self.jitter_db)) / 10.0
            )
        else:  # gap
            duration_ms = float(rng.exponential(self.mean_gap_ms))
            level = self.base_mw
        return max(1.0, duration_ms * 1000.0), level

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "bursty",
            "peak_mw": self.peak_mw,
            "base_mw": self.base_mw,
            "mean_burst_ms": self.mean_burst_ms,
            "mean_gap_ms": self.mean_gap_ms,
            "jitter_db": self.jitter_db,
            "seed": self.seed,
        }


class MarkovSource(_SegmentedSource):
    """Seeded two-state on/off outage process with a heavy off-tail.

    On-durations are exponential around ``mean_on_ms``; off-durations
    are Pareto-tailed around ``mean_off_ms`` (shape ``tail``; smaller
    is heavier).  The heavy tail is the point: occasional outages far
    longer than any ``Timely(Δt)`` freshness window are exactly the
    scenario where stale-data bugs manifest (Surbatovich et al.).
    """

    def __init__(
        self,
        on_mw: float = 8.0,
        mean_on_ms: float = 10.0,
        mean_off_ms: float = 40.0,
        tail: float = 1.5,
        seed: int = 0,
    ) -> None:
        if on_mw < 0:
            raise ReproError("markov on-power must be >= 0")
        if mean_on_ms <= 0 or mean_off_ms <= 0:
            raise ReproError("markov durations must be > 0")
        if tail <= 1.0:
            raise ReproError("markov tail shape must be > 1 (finite mean)")
        super().__init__(seed)
        self.on_mw = float(on_mw)
        self.mean_on_ms = float(mean_on_ms)
        self.mean_off_ms = float(mean_off_ms)
        self.tail = float(tail)

    def _draw_segment(self, k: int) -> Tuple[float, float]:
        rng = self._rng
        if k % 2 == 0:  # on
            duration_ms = float(rng.exponential(self.mean_on_ms))
            level = self.on_mw
        else:  # off — Pareto(tail) scaled to mean ``mean_off_ms``
            a = self.tail
            duration_ms = (
                self.mean_off_ms * (a - 1.0) / a * (float(rng.pareto(a)) + 1.0)
            )
            level = 0.0
        return max(1.0, duration_ms * 1000.0), level

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "markov",
            "on_mw": self.on_mw,
            "mean_on_ms": self.mean_on_ms,
            "mean_off_ms": self.mean_off_ms,
            "tail": self.tail,
            "seed": self.seed,
        }


class RFSource(_SegmentedSource):
    """The Figure-13 RF link as a replayable source.

    The paper's testbed powers the board from a Powercast TX91501-3W
    transmitter at 915 MHz through a P2110-EVB receiver at 52–64 in.
    Received power follows Friis free-space path loss,
    ``P_r = P_t · G_t · G_r · (λ / 4πd)²``, and the rectifier converts
    ``efficiency · P_r / (P_r + knee_mw)`` of it: Powercast-class
    rectennas convert a smaller fraction of weak signals, which
    steepens the falloff so the 52–64 in sweep spans the
    sustains-the-load → duty-cycles transition.  ``knee_mw=0`` is the
    plain Friis budget.  Log-normal multipath fading is drawn on a
    *fixed* absolute-time grid (segment ``k`` covers
    ``[k·period, (k+1)·period)``), so the signal is a pure function of
    ``(distance, seed)`` and records replay exactly.
    """

    def __init__(
        self,
        distance_inch: float,
        tx_power_w: float = 3.0,
        tx_gain: float = 4.0,
        rx_gain: float = 2.0,
        frequency_mhz: float = 915.0,
        efficiency: float = 0.55,
        knee_mw: float = 20.0,
        fading_std_db: float = 2.0,
        fading_period_us: float = 15_000.0,
        seed: int = 0,
    ) -> None:
        if distance_inch <= 0:
            raise ReproError("harvester distance must be positive")
        if not 0 < efficiency <= 1:
            raise ReproError("rectifier efficiency must be in (0, 1]")
        if fading_period_us <= 0:
            raise ReproError("fading period must be positive")
        super().__init__(seed)
        self.distance_inch = float(distance_inch)
        self.tx_power_w = float(tx_power_w)
        self.tx_gain = float(tx_gain)
        self.rx_gain = float(rx_gain)
        self.frequency_mhz = float(frequency_mhz)
        self.efficiency = float(efficiency)
        self.knee_mw = float(knee_mw)
        self.fading_std_db = float(fading_std_db)
        self.fading_period_us = float(fading_period_us)

    def mean_power_mw(self) -> float:
        """Friis link budget through the knee rectifier, in milliwatts."""
        distance_m = self.distance_inch * 0.0254
        wavelength_m = 299_792_458.0 / (self.frequency_mhz * 1e6)
        path = (wavelength_m / (4.0 * math.pi * distance_m)) ** 2
        received_mw = self.tx_power_w * self.tx_gain * self.rx_gain * path * 1e3
        return (
            received_mw * self.efficiency * received_mw
            / (received_mw + self.knee_mw)
        )

    def _draw_segment(self, k: int) -> Tuple[float, float]:
        level = self.mean_power_mw()
        if self.fading_std_db > 0:
            fade_db = float(self._rng.normal(0.0, self.fading_std_db))
            level *= 10.0 ** (fade_db / 10.0)
        return self.fading_period_us, level

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "rf",
            "distance_inch": self.distance_inch,
            "tx_power_w": self.tx_power_w,
            "tx_gain": self.tx_gain,
            "rx_gain": self.rx_gain,
            "frequency_mhz": self.frequency_mhz,
            "efficiency": self.efficiency,
            "knee_mw": self.knee_mw,
            "fading_std_db": self.fading_std_db,
            "fading_period_us": self.fading_period_us,
            "seed": self.seed,
        }


class TraceSource(EnergySource):
    """A recorded power trace: explicit ``(start_us, power_mw)`` samples.

    The last sample's power holds forever — a finite recording must
    still answer queries past its end (e.g. a replayed workload that
    runs a bit longer than the recorded one).
    """

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        if not samples:
            raise ReproError("power trace must contain at least one sample")
        starts = [float(t) for t, _ in samples]
        if starts[0] != 0.0:
            raise ReproError("power trace must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ReproError("power trace times must strictly increase")
        self._starts = starts
        self._powers = [max(0.0, float(p)) for _, p in samples]

    def power_mw(self, time_us: float) -> float:
        return self._powers[bisect_right(self._starts, time_us) - 1]

    def next_change_us(self, time_us: float) -> float:
        i = bisect_right(self._starts, time_us)
        return self._starts[i] if i < len(self._starts) else math.inf

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "trace",
            "samples": len(self._starts),
            "duration_us": self._starts[-1],
        }

    def segments(self, until_us: float) -> List[Tuple[float, float]]:
        return [
            (t, p) for t, p in zip(self._starts, self._powers)
            if t <= until_us
        ]
