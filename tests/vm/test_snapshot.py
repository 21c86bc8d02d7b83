"""Snapshot/step determinism of the stepped VM.

The VM's machine state between two instructions is a plain value —
that is the property the lowering compiler must preserve to make
pause/resume and deterministic replay possible at any step boundary.
These tests pin it down: driving to step N, snapshotting, and resuming
must produce exactly the trace an uninterrupted run produces, and
restoring the snapshot must replay the identical suffix a second time.
"""

import pytest

from repro.core.compile import compile_app, instantiate
from repro.core.run import build_machine
from repro.vm.machine import DISPATCH_PC, HALT
from tests.conftest import on_sim_path


@pytest.fixture()
def vm_path():
    with on_sim_path("vm"):
        yield


def _fresh_vm(app="fir", runtime="easeio", seed=1):
    compiled = compile_app(app, runtime)
    rt = instantiate(compiled, build_machine(seed=seed))
    assert rt._vm is not None, "vm path did not attach bytecode"
    return rt._vm


def _trace_of(vm):
    return [
        (e.kind, e.time_us, tuple(sorted(e.detail.items())))
        for e in vm.runtime.machine.trace.events
    ]


def test_vm_attaches_only_when_enabled(vm_path):
    vm = _fresh_vm()
    assert vm.pc == DISPATCH_PC
    assert len(vm.vmcode) > 0
    assert vm.vmcode.runtime_name == "easeio"
    with on_sim_path("reference"):
        compiled = compile_app("fir", "easeio")
        rt = instantiate(compiled, build_machine(seed=1))
    assert getattr(rt, "_vm", None) is None


@pytest.mark.parametrize("pause_at", (1, 7, 40))
def test_pause_resume_matches_uninterrupted_run(vm_path, pause_at):
    straight = _fresh_vm()
    straight.drive()
    assert straight.halted
    want_trace = _trace_of(straight)
    want_now = straight.runtime.machine.clock.now_us
    assert len(want_trace) > 0

    paused = _fresh_vm()
    done = paused.drive(max_steps=pause_at)
    assert done == pause_at
    assert not paused.halted
    snap = paused.snapshot()
    paused.drive()
    assert paused.halted
    assert _trace_of(paused) == want_trace
    assert paused.runtime.machine.clock.now_us == want_now

    # restoring the snapshot replays the identical suffix again
    paused.restore(snap)
    assert paused.pc == snap["pc"]
    assert not paused.halted
    paused.drive()
    assert paused.halted
    assert _trace_of(paused) == want_trace
    assert paused.runtime.machine.clock.now_us == want_now


def test_snapshot_is_a_plain_value(vm_path):
    vm = _fresh_vm()
    vm.drive(max_steps=5)
    before = vm.snapshots_taken
    snap = vm.snapshot()
    assert vm.snapshots_taken == before + 1
    # mutating the running VM must not leak into the captured value
    pc0, now0 = snap["pc"], snap["now_us"]
    vm.drive(max_steps=5)
    assert snap["pc"] == pc0
    assert snap["now_us"] == now0
    assert snap["trace_events"] is not vm.runtime.machine.trace.events


def test_reboot_drops_pc_to_dispatch(vm_path):
    vm = _fresh_vm()
    vm.drive(max_steps=3)
    assert vm.pc not in (DISPATCH_PC, HALT)
    vm.on_reboot()
    assert vm.pc == DISPATCH_PC
