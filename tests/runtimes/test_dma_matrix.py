"""Exhaustive DMA endpoint matrix under the EaseIO runtime.

Section 4.3 defines the run-time semantics per endpoint class; this
module walks every (source storage x destination storage) combination
and asserts the resolved behaviour: which phases execute, what is
skipped after a failure, and what the destination holds at the end.
"""

import pytest

from repro.core.api import ProgramBuilder
from repro.core.run import nv_state, run_program
from repro.ir import ast as A
from repro.kernel.power import NoFailures, ScriptedFailures

# the DMA endpoint matrix is semantics-critical: run it on both paths
pytestmark = pytest.mark.usefixtures("sim_path")


STORAGES = {
    "nv": lambda b, name: b.nv_array(name, 4, init=[9, 8, 7, 6])
    if name.startswith("src")
    else b.nv_array(name, 4),
    "sram": lambda b, name: b.local(name, length=4),
    "learam": lambda b, name: b.lea_array(name, 4),
}


def dma_program(src_kind, dst_kind, tail_cycles=4000):
    b = ProgramBuilder("matrix")
    STORAGES[src_kind](b, "src")
    STORAGES[dst_kind](b, "dst")
    b.nv("seen", dtype="int32")
    with b.task("t") as t:
        if src_kind != "nv":
            # volatile sources must be produced in-task
            with t.loop("i", 4):
                t.assign(t.at("src", t.v("i")), 9 - t.v("i"))
        t.dma_copy("src", "dst", 8)
        t.compute(tail_cycles)
        t.assign("seen", t.at("dst", 0))
        t.halt()
    return b.build()


def phases_of(result):
    return [
        e.detail.get("phase")
        for e in result.runtime.machine.trace.of_kind("dma_exec")
    ]


class TestContinuousClassification:
    @pytest.mark.parametrize(
        "src,dst,expected_phase",
        [
            ("nv", "nv", "single"),
            ("sram", "nv", "single"),
            ("learam", "nv", "single"),
            ("nv", "sram", "private_commit"),
            ("nv", "learam", "private_commit"),
            ("sram", "learam", "always"),
            ("learam", "sram", "always"),
            ("sram", "sram", "always"),
        ],
    )
    def test_resolved_semantics(self, src, dst, expected_phase):
        result = run_program(
            dma_program(src, dst), runtime="easeio",
            failure_model=NoFailures(),
        )
        assert expected_phase in phases_of(result)
        assert nv_state(result, ("seen",))["seen"] == 9  # data arrived


class TestFailureBehaviour:
    @pytest.mark.parametrize("src,dst", [("nv", "nv"), ("sram", "nv")])
    def test_to_nv_is_skipped_after_completion(self, src, dst):
        result = run_program(
            dma_program(src, dst), runtime="easeio",
            failure_model=ScriptedFailures([3000.0]),
        )
        assert result.metrics.dma_skips >= 1
        assert result.metrics.dma_reexecutions == 0
        assert nv_state(result, ("seen",))["seen"] == 9

    @pytest.mark.parametrize("dst", ["sram", "learam"])
    def test_nv_to_volatile_redelivers_from_snapshot(self, dst):
        result = run_program(
            dma_program("nv", dst), runtime="easeio",
            failure_model=ScriptedFailures([3000.0]),
        )
        phases = phases_of(result)
        assert phases.count("private_snapshot") == 1
        assert phases.count("private_commit") == 2  # once per attempt
        assert nv_state(result, ("seen",))["seen"] == 9

    @pytest.mark.parametrize("src,dst", [("sram", "learam"), ("sram", "sram")])
    def test_volatile_to_volatile_replays(self, src, dst):
        result = run_program(
            dma_program(src, dst), runtime="easeio",
            failure_model=ScriptedFailures([3000.0]),
        )
        assert phases_of(result).count("always") == 2
        assert result.metrics.dma_skips == 0
        assert nv_state(result, ("seen",))["seen"] == 9


class TestBaselineContrast:
    @pytest.mark.parametrize("runtime", ["alpaca", "ink", "samoyed"])
    def test_baselines_have_no_dma_semantics(self, runtime):
        result = run_program(
            dma_program("nv", "nv"), runtime=runtime,
            failure_model=ScriptedFailures([3000.0]),
        )
        assert result.metrics.dma_skips == 0
        # samoyed's checkpoint resumes past the DMA; task runtimes re-run it
        if runtime != "samoyed":
            assert result.metrics.dma_executions == 2


class TestTransformMetadataMatrix:
    def test_priv_slots_only_for_nv_to_volatile(self):
        from repro.ir.transform import transform_program

        combos = {
            ("nv", "nv"): False,
            ("nv", "sram"): True,
            ("nv", "learam"): True,
            ("sram", "nv"): False,
            ("sram", "learam"): False,
        }
        for (src, dst), expect_slot in combos.items():
            result = transform_program(dma_program(src, dst))
            slots = result.task_info["t"].priv_slots
            assert bool(slots) == expect_slot, (src, dst)
