"""Power-failure models.

The paper evaluates under two regimes:

* **Emulated energy** (sections 5.3-5.4): "power failure is simulated by
  random soft resets triggered by an MCU timer with a uniformly
  distributed firing period in the interval of [5 ms, 20 ms]".
  :class:`UniformFailureModel` reproduces that renewal process; the
  device reboots immediately after a soft reset (no dark period).

* **Real harvesting** (section 5.5 / Figure 13): the device browns out
  when its capacitor is exhausted and stays dark until the harvester
  recharges it.  That regime lives in :mod:`repro.env`:
  :class:`~repro.env.environment.EnergyEnvironment` is a failure model
  with ``energy_coupled = True`` — the executor recognizes the flag and
  derives failure instants from the workload's own energy draw against
  a harvest source, instead of (or composed with) a timer.

:class:`ScriptedFailures` exists for tests that need a failure at an
exact instant.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import ReproError


class FailureModel:
    """Interface: absolute time of the next timer-induced reset."""

    #: True for models that meter energy themselves (the executor then
    #: routes per-step windows through fail_time/commit_window/on_failure)
    energy_coupled = False

    def schedule_next(self, now_us: float) -> float:
        """Called at boot; returns the absolute time of the next reset."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the initial state (start of an experiment)."""


class NoFailures(FailureModel):
    """Continuous power: the timer never fires."""

    def schedule_next(self, now_us: float) -> float:
        return math.inf


class UniformFailureModel(FailureModel):
    """Soft resets at i.i.d. uniform intervals (the paper's emulator).

    Each boot re-arms the timer: the next reset fires ``U[low, high]``
    milliseconds later.
    """

    def __init__(self, low_ms: float = 5.0, high_ms: float = 20.0, seed: int = 0) -> None:
        if not 0 < low_ms <= high_ms:
            raise ReproError(
                f"failure interval must satisfy 0 < low <= high "
                f"(got [{low_ms}, {high_ms}])"
            )
        self.low_ms = low_ms
        self.high_ms = high_ms
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def schedule_next(self, now_us: float) -> float:
        interval_ms = self._rng.uniform(self.low_ms, self.high_ms)
        return now_us + interval_ms * 1000.0

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)


class ScriptedFailures(FailureModel):
    """Failures at explicit absolute times (deterministic tests).

    Once the script is exhausted, no further failures fire.
    """

    def __init__(self, times_us: Sequence[float]) -> None:
        self._times = sorted(float(t) for t in times_us)
        if any(t < 0 for t in self._times):
            raise ReproError("scripted failure times must be >= 0")
        self._cursor = 0

    def schedule_next(self, now_us: float) -> float:
        while self._cursor < len(self._times):
            t = self._times[self._cursor]
            if t > now_us:
                return t
            self._cursor += 1
        return math.inf

    def reset(self) -> None:
        self._cursor = 0
