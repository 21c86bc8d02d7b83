"""Behavioural tests for the InK baseline."""

from repro.core.api import ProgramBuilder
from repro.core.run import nv_state, run_program
from repro.hw.mcu import build_machine
from repro.kernel.power import NoFailures, ScriptedFailures
from repro.runtimes.alpaca import AlpacaRuntime
from repro.runtimes.ink import InKRuntime


def flag_program():
    """A write-only NV flag plus a failure window after the write."""
    b = ProgramBuilder("flags")
    b.nv("flag")
    with b.task("t") as t:
        t.assign("flag", 1)
        t.compute(3000)
        t.halt()
    return b.build()


class TestSharedStateBuffering:
    def test_all_touched_nv_vars_are_buffered(self):
        """InK buffers everything a task touches, not just WAR vars."""
        b = ProgramBuilder("p")
        b.nv("a")
        b.nv("bb")
        with b.task("t") as t:
            t.assign("a", 1)          # write-only
            t.assign("bb", t.v("a"))  # read
            t.halt()
        rt = InKRuntime(b.build(), build_machine())
        assert set(rt._copies["t"]) == {"a", "bb"}  # noqa: SLF001

    def test_write_only_flags_are_protected(self):
        """Unlike Alpaca, InK's full buffering shields Fig. 2c flags
        from partial-write exposure (at a higher FRAM cost)."""
        result = run_program(
            flag_program(), runtime="ink",
            failure_model=ScriptedFailures([2000.0]),
        )
        assert result.completed
        assert nv_state(result, ("flag",))["flag"] == 1

    def test_commit_is_atomic_with_write_back(self):
        b = ProgramBuilder("count")
        b.nv("count", dtype="int32")
        with b.task("t") as t:
            t.assign("count", t.v("count") + 1)
            t.compute(2500)
            t.halt()
        result = run_program(
            b.build(), runtime="ink",
            failure_model=ScriptedFailures([3000.0]),
        )
        assert nv_state(result, ("count",))["count"] == 1

    def test_fram_footprint_exceeds_alpaca(self):
        """Table 6: InK's working copies live in FRAM."""
        b = ProgramBuilder("p")
        b.nv_array("data", 64)
        b.nv("x", dtype="int32")
        with b.task("t") as t:
            t.assign("x", t.at("data", 0))
            t.assign(t.at("data", 1), t.v("x"))
            t.halt()
        ink = InKRuntime(b.build(), build_machine())

        b2 = ProgramBuilder("p")
        b2.nv_array("data", 64)
        b2.nv("x", dtype="int32")
        with b2.task("t") as t:
            t.assign("x", t.at("data", 0))
            t.assign(t.at("data", 1), t.v("x"))
            t.halt()
        alp = AlpacaRuntime(b2.build(), build_machine())
        assert (
            ink.machine.memory_footprint()["fram"]
            > alp.machine.memory_footprint()["fram"]
        )

    def test_kernel_text_is_largest(self):
        assert InKRuntime.base_text_bytes > AlpacaRuntime.base_text_bytes


class TestDmaBlindness:
    def test_dma_war_produces_wrong_results(self):
        """InK suffers the same Figure 2b DMA bug as Alpaca."""
        b = ProgramBuilder("fig2b")
        b.nv_array("blk1", 4, init=[1, 1, 1, 1])
        b.nv_array("blk2", 4, init=[2, 2, 2, 2])
        b.nv_array("blk3", 4, init=[0, 0, 0, 0])
        with b.task("dma_task") as t:
            t.dma_copy("blk1", "blk3", 8)
            t.dma_copy("blk2", "blk1", 8)
            t.compute(3000)
            t.halt()
        result = run_program(
            b.build(), runtime="ink",
            failure_model=ScriptedFailures([2000.0]),
        )
        assert list(nv_state(result, ("blk3",))["blk3"]) == [2, 2, 2, 2]


class TestIOReexecution:
    def test_io_always_repeats(self):
        b = ProgramBuilder("io")
        b.nv("v", dtype="float64")
        with b.task("t") as t:
            t.call_io("temp", semantic="Timely", interval_ms=50, out="v")
            t.compute(3000)
            t.halt()
        result = run_program(
            b.build(), runtime="ink",
            failure_model=ScriptedFailures([2500.0]),
        )
        assert result.metrics.io_executions == 2
        assert result.metrics.io_skips == 0

    def test_dispatch_overhead_charged(self):
        result = run_program(
            flag_program(), runtime="ink", failure_model=NoFailures()
        )
        assert result.metrics.overhead_time_us > 0
