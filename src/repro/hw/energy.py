"""Energy storage and consumption accounting.

Batteryless platforms buffer harvested energy in a small capacitor and
die when the buffered energy is exhausted (Figure 1 of the paper).  Two
pieces live here:

``Capacitor``
    the energy buffer: a capacitance charged towards a supply voltage
    and discharged by the MCU's activity.  Execution is possible while
    the capacitor voltage stays above the *off* threshold; after a
    failure the device stays dark until the voltage recovers to the
    *on* threshold (hysteresis).  The paper's real-world experiment
    (Figure 13) uses a 1 mF capacitor charged over RF; the defaults
    mirror that setup.

``EnergyMeter``
    per-category consumption bookkeeping (CPU, FRAM, DMA, LEA, each
    peripheral...).  The evaluation metric "Energy Consumption"
    (section 5.2) is read from this meter.

Units: time in microseconds, power in milliwatts, energy in
microjoules.  1 mW x 1 us = 1e-3 uJ, hence the 1e-3 factor in
conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ReproError


def power_time_to_energy_uj(power_mw: float, duration_us: float) -> float:
    """Convert a (power, duration) pair to energy in microjoules."""
    return power_mw * duration_us * 1e-3


@dataclass
class Capacitor:
    """An energy-buffer capacitor with turn-on/turn-off hysteresis.

    Parameters
    ----------
    capacitance_f:
        capacitance in farads (paper: 1 mF).
    v_max:
        the voltage the harvester charges towards.
    v_on:
        voltage at which a dark device boots again.
    v_off:
        voltage below which the device browns out.
    """

    capacitance_f: float = 1e-3
    v_max: float = 3.3
    v_on: float = 2.8
    v_off: float = 1.8
    voltage: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if not (0 < self.v_off < self.v_on <= self.v_max):
            raise ReproError(
                "capacitor thresholds must satisfy 0 < v_off < v_on <= v_max "
                f"(got v_off={self.v_off}, v_on={self.v_on}, v_max={self.v_max})"
            )
        if self.voltage < 0:
            self.voltage = self.v_max

    # -- energy <-> voltage -------------------------------------------------

    def _energy_at(self, voltage: float) -> float:
        """Stored energy (uJ) at ``voltage``: E = 1/2 C V^2."""
        return 0.5 * self.capacitance_f * voltage * voltage * 1e6

    @property
    def stored_uj(self) -> float:
        """Energy currently stored, in microjoules."""
        return self._energy_at(self.voltage)

    @property
    def usable_uj(self) -> float:
        """Energy available before brown-out, in microjoules."""
        return max(0.0, self.stored_uj - self._energy_at(self.v_off))

    @property
    def budget_uj(self) -> float:
        """Best-case usable energy of one full charge (v_max -> v_off).

        Section 3.5: a task whose cost exceeds this budget can never
        complete and causes a non-termination bug.
        """
        return self._energy_at(self.v_max) - self._energy_at(self.v_off)

    @property
    def is_on(self) -> bool:
        """Whether execution is currently possible."""
        return self.voltage > self.v_off

    # -- charge / discharge ---------------------------------------------------

    def discharge(self, energy_uj: float) -> bool:
        """Drain ``energy_uj``; returns False when the device browns out.

        The voltage never goes below zero; draining past v_off leaves
        the capacitor exactly at v_off (the residual difference is the
        leakage spent during the brown-out transient).
        """
        if energy_uj < 0:
            raise ReproError(f"cannot discharge negative energy ({energy_uj})")
        remaining = self.stored_uj - energy_uj
        floor = self._energy_at(self.v_off)
        if remaining <= floor:
            self.voltage = self.v_off
            return False
        self.voltage = math.sqrt(2.0 * remaining * 1e-6 / self.capacitance_f)
        return True

    def charge(self, power_mw: float, duration_us: float) -> None:
        """Accumulate harvested energy, saturating at ``v_max``."""
        if power_mw < 0:
            raise ReproError(f"harvested power must be >= 0 (got {power_mw})")
        total = self.stored_uj + power_time_to_energy_uj(power_mw, duration_us)
        total = min(total, self._energy_at(self.v_max))
        self.voltage = math.sqrt(2.0 * total * 1e-6 / self.capacitance_f)

    def reset_full(self) -> None:
        """Return the capacitor to a full charge (start of an experiment)."""
        self.voltage = self.v_max


class EnergyMeter:
    """Accumulates consumed energy by category.

    Categories are free-form strings; the conventional ones are
    ``cpu``, ``fram``, ``dma``, ``lea``, ``boot`` and one per
    peripheral (``temp``, ``humidity``, ``radio``...).
    """

    def __init__(self) -> None:
        self._by_category: Dict[str, float] = {}

    def add(self, category: str, energy_uj: float) -> None:
        if energy_uj < 0:
            raise ReproError(f"cannot meter negative energy ({energy_uj})")
        self._by_category[category] = self._by_category.get(category, 0.0) + energy_uj

    def add_power(self, category: str, power_mw: float, duration_us: float) -> float:
        """Meter ``power_mw`` over ``duration_us``; returns the energy."""
        energy = power_time_to_energy_uj(power_mw, duration_us)
        self.add(category, energy)
        return energy

    @property
    def total_uj(self) -> float:
        return sum(self._by_category.values())

    def by_category(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def get(self, category: str) -> float:
        return self._by_category.get(category, 0.0)

    def reset(self) -> None:
        self._by_category.clear()
