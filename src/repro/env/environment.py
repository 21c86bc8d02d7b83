"""The energy environment: harvest source → capacitor → power failure.

:class:`EnergyEnvironment` closes the loop the scripted/uniform timer
models leave open: *when* power fails becomes a function of the
workload's own energy draw.  It is a
:class:`~repro.kernel.power.FailureModel` with ``energy_coupled =
True``; the executor (both the step-generator path and the compiled-VM
path in :mod:`repro.kernel.executor`) drives it through three hooks:

``fail_time(start, duration, draw)``
    a *pure* query: given a step window at constant ``draw`` mW, the
    absolute instant the capacitor would cross the off-threshold, or
    ``inf``.  Computed segment-wise against the source signal in closed
    form (``t + usable / (net · 1e-3)``), so failure schedules are
    exact and identical on every execution path.

``commit_window(start, duration, draw)``
    the matching state update once the executor decided how much of
    the window really ran: charge by the source, discharge by the
    draw, per signal segment.

``on_failure(now)``
    the reboot-side hook: if the capacitor browned out, integrate the
    dark period segment-wise until the voltage re-arms at the *on*
    threshold (hysteresis); a dark period exceeding ``max_dark_us``
    means the device died dark (``inf``).  Timer-induced soft resets
    with charge remaining reboot immediately (zero dark) — matching
    the paper's emulated-energy regime.

A composed ``timer`` failure model (scripted or uniform resets) can
ride along; the checker uses this to inject its boundary probes *into*
an environment.  Determinism: the source signal is a pure function of
its seed and absolute time, ``reset()`` rewinds capacitor, timer and
counters, so a (workload, environment) pair fully determines the
failure schedule.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.hw.energy import Capacitor
from repro.kernel.power import FailureModel
from repro.env.sources import EnergySource

#: default buffer: small enough that ms-scale workloads actually brown
#: out when the source ducks under the draw (cf. Figure 13's 12 µF)
DEFAULT_CAPACITANCE_F = 4.7e-6

#: give up on recharge after this much continuous dark time (died dark)
DEFAULT_MAX_DARK_US = 10_000_000.0


class EnergyEnvironment(FailureModel):
    """Capacitor-coupled failure timing driven by an energy source."""

    #: executor dispatch flag: this failure model meters energy itself
    energy_coupled = True

    def __init__(
        self,
        source: EnergySource,
        capacitor: Optional[Capacitor] = None,
        timer: Optional[FailureModel] = None,
        max_dark_us: float = DEFAULT_MAX_DARK_US,
        spec: Optional[str] = None,
    ) -> None:
        if max_dark_us <= 0:
            raise ReproError("max_dark_us must be positive")
        self.source = source
        self.capacitor = (
            capacitor if capacitor is not None
            else Capacitor(capacitance_f=DEFAULT_CAPACITANCE_F)
        )
        self.timer = timer
        self.max_dark_us = float(max_dark_us)
        #: the spec string this environment was parsed from, if any
        self.spec = spec
        self._start_v = self.capacitor.voltage
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.failures = 0            # on_failure invocations (any cause)
        self.brownouts = 0           # energy-driven failures
        self.recharges = 0           # dark periods with positive length
        self.dark_time_us = 0.0
        self.harvested_uj = 0.0
        self.consumed_uj = 0.0
        self.died_dark = False
        #: absolute failure instants, in order (record/replay identity)
        self.failure_times: List[float] = []
        #: latest absolute source instant any hook consulted — the
        #: minimum horizon a recorded trace needs to replay exactly
        self.probed_us = 0.0

    # -- FailureModel interface ------------------------------------------

    def schedule_next(self, now_us: float) -> float:
        """Timer-induced resets only; energy failures come from hooks."""
        if self.timer is not None:
            return self.timer.schedule_next(now_us)
        return math.inf

    def reset(self) -> None:
        self.capacitor.voltage = self._start_v
        self.source.reset()
        if self.timer is not None:
            self.timer.reset()
        self._zero_counters()

    # -- executor hooks ---------------------------------------------------

    def fail_time(
        self, start_us: float, duration_us: float, draw_mw: float
    ) -> float:
        """Absolute brown-out instant inside the window, or ``inf``.

        Pure: simulates the charge balance on local copies; call
        :meth:`commit_window` to apply the survived portion.
        """
        cap = self.capacitor
        floor = cap._energy_at(cap.v_off)
        ceiling = cap._energy_at(cap.v_max)
        stored = cap.stored_uj
        source = self.source
        end = start_us + duration_us
        if end > self.probed_us:
            self.probed_us = end
        t = start_us
        while True:
            seg_end = source.next_change_us(t)
            if seg_end > end:
                seg_end = end
            net_mw = draw_mw - source.power_mw(t)
            if net_mw > 0:
                exhaust_at = t + (stored - floor) / (net_mw * 1e-3)
                if exhaust_at < seg_end:
                    return exhaust_at
            stored -= net_mw * (seg_end - t) * 1e-3
            if stored > ceiling:
                stored = ceiling
            if seg_end >= end:
                return math.inf
            t = seg_end

    def commit_window(
        self, start_us: float, duration_us: float, draw_mw: float
    ) -> None:
        """Apply a (possibly truncated) window to the capacitor."""
        cap = self.capacitor
        source = self.source
        end = start_us + duration_us
        if end > self.probed_us:
            self.probed_us = end
        t = start_us
        while True:
            seg_end = source.next_change_us(t)
            if seg_end > end:
                seg_end = end
            dt = seg_end - t
            if dt > 0:
                before = cap.stored_uj
                cap.charge(source.power_mw(t), dt)
                self.harvested_uj += cap.stored_uj - before
                before = cap.stored_uj
                cap.discharge(draw_mw * dt * 1e-3)
                self.consumed_uj += before - cap.stored_uj
            if seg_end >= end:
                return
            t = seg_end

    def brownout(self) -> None:
        """Pin the capacitor at the off-threshold after an energy failure.

        ``fail_time`` and ``commit_window`` round independently; forcing
        the brown-out state here keeps the reboot path's hysteresis
        decision exact instead of epsilon-dependent.
        """
        self.capacitor.voltage = self.capacitor.v_off
        self.brownouts += 1

    def on_failure(self, now_us: float) -> float:
        """Dark time until restart; ``inf`` when the device died dark.

        A brown-out (voltage at/below the off-threshold) keeps the
        device dark until the source recharges the capacitor to the
        *on* threshold; a timer soft reset with charge remaining
        reboots immediately.
        """
        self.failures += 1
        self.failure_times.append(now_us)
        cap = self.capacitor
        if cap.is_on:
            return 0.0
        source = self.source
        target = cap._energy_at(cap.v_on)
        stored = cap.stored_uj
        t = now_us
        dark = 0.0
        while stored < target:
            seg_end = source.next_change_us(t)
            power = source.power_mw(t)
            if power > 0:
                need_us = (target - stored) / (power * 1e-3)
                if t + need_us <= seg_end:
                    dark += need_us
                    stored = target
                    t = t + need_us
                    break
            if math.isinf(seg_end) or dark > self.max_dark_us:
                self.died_dark = True
                if t > self.probed_us:
                    self.probed_us = t
                return math.inf
            stored += power * (seg_end - t) * 1e-3
            dark += seg_end - t
            t = seg_end
        if t > self.probed_us:
            self.probed_us = t
        if dark > self.max_dark_us:
            self.died_dark = True
            return math.inf
        cap.voltage = cap.v_on
        if dark > 0:
            self.recharges += 1
        self.dark_time_us += dark
        return dark

    def trace_horizon_us(self, slack_us: float = 10_000.0) -> float:
        """A horizon safely past every source instant this run consulted.

        Recording a trace out to this point guarantees a replay sees
        exactly the signal the live run saw — including dark-period
        integrations past the last *recorded* failure, which a
        failure-time-based horizon under-covers on nonterminating runs
        (their final recharge walks tens of milliseconds past the last
        failure the run had time to log).
        """
        return self.probed_us + slack_us

    # -- reporting ---------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        cap = self.capacitor
        return {
            "source": self.source.describe(),
            "capacitance_f": cap.capacitance_f,
            "v_max": cap.v_max,
            "v_on": cap.v_on,
            "v_off": cap.v_off,
            "start_v": self._start_v,
            "max_dark_us": self.max_dark_us,
        }

    def counters(self) -> Dict[str, float]:
        """The run's ``env.*`` observability counters."""
        return {
            "env.runs": 1,
            "env.failures": self.failures,
            "env.brownouts": self.brownouts,
            "env.recharges": self.recharges,
            "env.dark_us": self.dark_time_us,
            "env.harvested_uj": self.harvested_uj,
            "env.consumed_uj": self.consumed_uj,
            "env.died_dark": 1 if self.died_dark else 0,
        }
