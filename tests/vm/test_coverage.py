"""The VM compiles everything the suite and the fuzzer feed it.

On the VM path :func:`repro.core.compile.instantiate` attaches each
runtime instance's bytecode as ``rt._vm`` or raises: a program the
lowerer cannot compile is never handed back to the interpreter, so a
VM ≡ reference comparison always runs bytecode on its VM side.
Coverage is pinned here: every evaluation app and the first 50
generated fuzz programs lower on every runtime, and a program the
lowerer rejects raises on the VM path while the reference path still
runs it.
"""

import pytest

from repro.core.api import ProgramBuilder
from repro.core.compile import compile_app, instantiate
from repro.core.run import RUNTIMES, build_runtime, nv_state, run_program
from repro.fuzz.gen import generate_valid_spec
from repro.fuzz.spec import spec_to_json
from repro.hw.mcu import build_machine
from repro.ir import ast as A
from repro.kernel.power import NoFailures
from repro.vm import Unlowerable
from tests.conftest import on_sim_path

APPS = ("uni_dma", "uni_temp", "uni_lea", "fir", "weather")


def _without_bytecode(app, build_kwargs=None):
    """Runtimes whose instance of this program got empty bytecode."""
    missing = []
    for runtime in RUNTIMES:
        compiled = compile_app(app, runtime, build_kwargs=build_kwargs)
        rt = instantiate(compiled, build_machine(seed=1))
        if not rt._vm:
            missing.append(runtime)
    return missing


def test_vm_attaches_only_when_enabled():
    with on_sim_path("vm"):
        rt = instantiate(compile_app("fir", "easeio"), build_machine(seed=1))
    assert isinstance(rt._vm, list) and len(rt._vm) > 0
    with on_sim_path("reference"):
        rt = instantiate(compile_app("fir", "easeio"), build_machine(seed=1))
    assert getattr(rt, "_vm", None) is None


def test_every_app_lowers_on_every_runtime():
    with on_sim_path("vm"):
        missing = {app: _without_bytecode(app) for app in APPS}
    assert missing == {app: [] for app in APPS}


def test_generated_programs_lower_on_every_runtime():
    with on_sim_path("vm"):
        missing = {
            i: _without_bytecode(
                "fuzz", {"spec": spec_to_json(generate_valid_spec(0, i))}
            )
            for i in range(50)
        }
    assert {i: m for i, m in missing.items() if m} == {}


class _TaggedCompute(A.Compute):
    """Compute work under a node type of its own.

    The interpreter dispatches statements with ``isinstance`` and runs
    it as a ``Compute``; the lowerer matches exact types and rejects it.
    """


def _program_with_a_tagged_compute():
    b = ProgramBuilder("tagged_compute")
    b.nv("x")
    with b.task("main") as t:
        t._emit(_TaggedCompute(400.0, "tagged"))
        t.assign("x", 5)
        t.halt()
    return b.build()


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_an_unlowerable_program_raises_on_the_vm_path(runtime):
    program = _program_with_a_tagged_compute()
    with on_sim_path("vm"):
        with pytest.raises(Unlowerable, match="_TaggedCompute"):
            build_runtime(program, runtime)
    with on_sim_path("reference"):
        result = run_program(
            program, runtime=runtime, failure_model=NoFailures()
        )
    assert result.completed
    assert nv_state(result, ("x",))["x"] == 5
