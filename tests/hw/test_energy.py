"""Unit tests for the capacitor energy buffer and energy metering."""

import math

import pytest

from repro.env import ConstantSource, EnergyEnvironment
from repro.errors import ReproError
from repro.hw.energy import Capacitor, EnergyMeter, power_time_to_energy_uj


class TestConversions:
    def test_power_time_to_energy(self):
        # 2 mW for 1000 us = 2 uJ
        assert power_time_to_energy_uj(2.0, 1000.0) == pytest.approx(2.0)


class TestCapacitor:
    def test_starts_full(self):
        cap = Capacitor()
        assert cap.voltage == cap.v_max
        assert cap.is_on

    def test_stored_energy_formula(self):
        cap = Capacitor(capacitance_f=1e-3, v_max=3.0, v_on=2.5, v_off=1.5)
        # E = 0.5 * 1e-3 * 9 J = 4.5 mJ = 4500 uJ
        assert cap.stored_uj == pytest.approx(4500.0)

    def test_usable_energy_excludes_below_off_threshold(self):
        cap = Capacitor(capacitance_f=1e-3, v_max=3.0, v_on=2.5, v_off=1.5)
        floor = 0.5 * 1e-3 * 1.5**2 * 1e6
        assert cap.usable_uj == pytest.approx(4500.0 - floor)

    def test_discharge_reduces_voltage(self):
        cap = Capacitor()
        v0 = cap.voltage
        assert cap.discharge(100.0)
        assert cap.voltage < v0

    def test_discharge_to_brownout(self):
        cap = Capacitor()
        assert not cap.discharge(cap.usable_uj + 1.0)
        assert cap.voltage == pytest.approx(cap.v_off)
        assert not cap.is_on

    def test_discharge_never_negative(self):
        cap = Capacitor()
        cap.discharge(cap.stored_uj * 10)
        assert cap.voltage == pytest.approx(cap.v_off)

    def test_negative_discharge_rejected(self):
        with pytest.raises(ReproError):
            Capacitor().discharge(-1.0)

    def test_charge_saturates_at_vmax(self):
        cap = Capacitor()
        cap.charge(power_mw=1000.0, duration_us=1e9)
        assert cap.voltage == pytest.approx(cap.v_max)

    def test_charge_discharge_roundtrip(self):
        cap = Capacitor()
        cap.discharge(500.0)
        e = cap.stored_uj
        cap.charge(power_mw=1.0, duration_us=1000.0)  # +1 uJ
        assert cap.stored_uj == pytest.approx(e + 1.0)

    def test_recharge_to_on_duration(self):
        # after a brown-out the energy environment keeps the board dark
        # until its source recharges the capacitor to the on threshold
        cap = Capacitor(capacitance_f=1e-3, v_max=3.0, v_on=2.5, v_off=1.5)
        env = EnergyEnvironment(ConstantSource(2.0), capacitor=cap)
        cap.discharge(cap.usable_uj * 2)  # brown out
        deficit = 0.5 * 1e-3 * (2.5**2 - 1.5**2) * 1e6
        dark = env.on_failure(0.0)
        assert dark == pytest.approx(deficit / (2.0 * 1e-3))
        assert cap.voltage == pytest.approx(cap.v_on)
        assert cap.is_on

    def test_recharge_with_no_harvest_never_boots(self):
        cap = Capacitor()
        env = EnergyEnvironment(ConstantSource(0.0), capacitor=cap)
        cap.discharge(cap.usable_uj * 2)
        assert math.isinf(env.on_failure(0.0))
        assert env.died_dark

    def test_budget_is_full_swing(self):
        cap = Capacitor(capacitance_f=1e-3, v_max=3.0, v_on=2.5, v_off=1.5)
        assert cap.budget_uj == pytest.approx(0.5 * 1e-3 * (9 - 2.25) * 1e6)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ReproError):
            Capacitor(v_off=3.0, v_on=2.0, v_max=3.3)
        with pytest.raises(ReproError):
            Capacitor(v_off=1.0, v_on=4.0, v_max=3.3)

    def test_reset_full(self):
        cap = Capacitor()
        cap.discharge(1000.0)
        cap.reset_full()
        assert cap.voltage == cap.v_max


class TestEnergyMeter:
    def test_accumulates_by_category(self):
        meter = EnergyMeter()
        meter.add("cpu", 1.5)
        meter.add("cpu", 0.5)
        meter.add("radio", 3.0)
        assert meter.get("cpu") == pytest.approx(2.0)
        assert meter.get("radio") == pytest.approx(3.0)
        assert meter.total_uj == pytest.approx(5.0)

    def test_add_power_converts(self):
        meter = EnergyMeter()
        energy = meter.add_power("lea", power_mw=2.0, duration_us=500.0)
        assert energy == pytest.approx(1.0)
        assert meter.get("lea") == pytest.approx(1.0)

    def test_unknown_category_reads_zero(self):
        assert EnergyMeter().get("nothing") == 0.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ReproError):
            EnergyMeter().add("cpu", -1.0)

    def test_reset(self):
        meter = EnergyMeter()
        meter.add("cpu", 1.0)
        meter.reset()
        assert meter.total_uj == 0.0
        assert meter.by_category() == {}
