"""Unit tests for clock, cost model, and machine assembly."""

import pytest

from repro.errors import ReproError
from repro.hw.mcu import Clock, CostModel, build_machine


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clk = Clock()
        assert clk.now_us == 0.0
        clk.advance(12.5)
        clk.advance(7.5)
        assert clk.now_us == 20.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ReproError):
            Clock().advance(-1.0)

    def test_reset(self):
        clk = Clock()
        clk.advance(5.0)
        clk.reset()
        assert clk.now_us == 0.0


class TestCostModel:
    def test_defaults_are_positive(self):
        cost = CostModel()
        for name in CostModel.__dataclass_fields__:
            assert getattr(cost, name) > 0, name

    def test_scaled_scales_latencies_only(self):
        cost = CostModel().scaled(2.0)
        base = CostModel()
        assert cost.assign_us == base.assign_us * 2
        assert cost.boot_us == base.boot_us * 2
        assert cost.power_cpu_mw == base.power_cpu_mw  # power untouched

    def test_nv_access_costs_more_than_sram(self):
        cost = CostModel()
        assert cost.write_nv_us > cost.write_volatile_us
        assert cost.read_nv_us > cost.read_volatile_us


class TestMachine:
    def test_build_machine_wires_components(self):
        m = build_machine(seed=0)
        assert m.space.region("fram").volatile is False
        assert "temp" in m.peripherals
        assert m.dma.transfer_count == 0 and m.lea.invocations == 0
        assert m.now_us == 0.0

    def test_allocators_target_their_regions(self):
        m = build_machine()
        s = m.sram.alloc("a", "int16")
        f = m.fram.alloc("b", "int16")
        l = m.learam.alloc("c", "int16")
        assert m.space.region_of(s.addr).name == "sram"
        assert m.space.region_of(f.addr).name == "fram"
        assert m.space.region_of(l.addr).name == "learam"

    def test_power_cycle_clears_only_volatile(self):
        m = build_machine()
        m.sram.alloc("v", "int16")
        m.fram.alloc("nv", "int16")
        m.sram.cell("v").set(7)
        m.fram.cell("nv").set(7)
        m.power_cycle()
        assert m.sram.cell("v").get() == 0
        assert m.fram.cell("nv").get() == 7

    def test_memory_footprint(self):
        m = build_machine()
        m.fram.alloc("buf", "int16", 100)
        fp = m.memory_footprint()
        assert fp["fram"] == 200
        assert fp["sram"] == 0

    def test_engines_share_the_cost_model(self):
        cost = CostModel(dma_setup_us=99.0, lea_setup_us=77.0)
        m = build_machine(cost=cost)
        assert m.dma.setup_us == 99.0
        assert m.lea.setup_us == 77.0

    def test_seed_controls_sensor_noise(self):
        a = build_machine(seed=1).peripherals.invoke("temp", 100.0).value
        b = build_machine(seed=1).peripherals.invoke("temp", 100.0).value
        c = build_machine(seed=2).peripherals.invoke("temp", 100.0).value
        assert a == b
        assert a != c

    def test_trace_can_be_disabled(self):
        m = build_machine(trace_events=False)
        assert m.trace.enabled is False
