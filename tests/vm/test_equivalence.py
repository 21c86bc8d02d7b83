"""VM ≡ reference: observational equivalence across the full matrix.

The compiled VM is the default execution path and the reference
interpreter its oracle; the acceptance bar is the one the compile cache
had to clear (see ``tests/core/test_compile_cache.py``): byte-identical
observable behaviour.  Every evaluated app on every runtime must
produce the same metrics, the same trace event stream, the same final
NV memory image and the same differential-checker verdicts on both
paths.  A divergence here means the compiler changed semantics, not
just speed.

Every VM cell must also have *run bytecode*: :func:`repro.vm.lower`
returns ``None`` on anything it cannot compile and the executor then
quietly runs the generator, which would let the matrix pass without
exercising the VM at all.
"""

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.core.api import ProgramBuilder
from repro.core.run import build_runtime, nv_state, run_app, run_program
from repro.hw import trace as T
from repro.hw.mcu import CostModel
from repro.kernel.executor import IntermittentExecutor
from repro.kernel.power import NoFailures, UniformFailureModel
from repro.kernel.stats import OVERHEAD
from repro.obs import metrics as M
from repro.runtimes.ink import InKRuntime
from tests.conftest import on_sim_path

APPS = ("uni_dma", "uni_temp", "uni_lea", "fir", "weather")
RUNTIMES = ("easeio", "alpaca", "ink", "samoyed")


def _observe(app, runtime, recycled=False):
    """(bytecode attached?, everything a run exposes).

    ``recycled`` observes a pooled runtime whose machine already ran a
    different schedule: reset plus cached bytecode must replay exactly
    what a fresh machine does.
    """
    if recycled:
        run_app(
            app, runtime=runtime, seed=1, reuse_machine=True,
            failure_model=UniformFailureModel(5, 20, seed=9),
        )
    res = run_app(
        app,
        runtime=runtime,
        failure_model=UniformFailureModel(5, 20, seed=3),
        seed=1,
        reuse_machine=recycled,
    )
    rt = res.runtime
    fram = rt.machine.space.region("fram")
    return getattr(rt, "_vm", None) is not None, {
        "completed": res.completed,
        "metrics": dict(sorted(res.metrics.__dict__.items())),
        "trace": tuple(
            (e.kind, e.time_us, tuple(sorted(e.detail.items())))
            for e in rt.machine.trace.events
        ),
        "fram": bytes(fram.view(fram.base, fram.size)).hex(),
    }


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", APPS)
def test_three_paths_observationally_identical(app, runtime):
    """Reference, VM on a fresh machine, VM on a recycled pooled one."""
    with on_sim_path("reference"):
        ref_bytecode, reference = _observe(app, runtime)
    with on_sim_path("vm"):
        fresh_bytecode, fresh = _observe(app, runtime)
        pooled_bytecode, pooled = _observe(app, runtime, recycled=True)
    assert not ref_bytecode
    assert fresh_bytecode and pooled_bytecode, "vm path fell back"
    assert fresh == reference
    assert pooled == reference


def _verdict(app, runtime):
    """(verdict, runs, runs executed as bytecode) of a small campaign."""
    with M.collecting() as reg:
        report = run_campaign(CampaignConfig(
            app=app, runtime=runtime, limit=25, shrink=False,
        ))
    verdict = (report.ok, dict(report.by_kind), report.n_runs,
               report.total_violations)
    return verdict, reg.counters.get("runs", 0), reg.counters.get("vm.runs", 0)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", APPS)
def test_checker_verdicts_identical_on_all_paths(app, runtime):
    with on_sim_path("reference"):
        reference, _, ref_vm_runs = _verdict(app, runtime)
    with on_sim_path("vm"):
        vm, runs, vm_runs = _verdict(app, runtime)
    assert ref_vm_runs == 0
    assert runs > 0 and vm_runs == runs, "vm campaign ran the generator"
    assert vm == reference


def _exit_from_loop():
    """Task ``a`` transitions out of a loop whose variable shares the
    name of an NV scalar; task ``b`` then reads that scalar."""
    b = ProgramBuilder("exit_from_loop")
    b.nv("i", init=7)
    b.nv("x")
    with b.task("a") as t:
        with t.loop("i", 3):
            with t.if_(t.v("i") >= 1):
                t.transition("b")
        t.transition("b")
    with b.task("b") as t:
        t.assign("x", t.v("i"))
        t.halt()
    return b.build()


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_loop_register_ends_with_its_task(runtime):
    """A transition inside a loop ends the loop variable's scope: the
    next task reads the NV scalar, and pays for reading it."""
    observed = {}
    for path in ("reference", "vm"):
        with on_sim_path(path):
            res = run_program(
                _exit_from_loop(), runtime=runtime,
                failure_model=NoFailures(), seed=1,
            )
        assert res.completed
        observed[path] = (
            nv_state(res, ("x",))["x"],
            dict(sorted(res.metrics.__dict__.items())),
        )
    assert observed["vm"][0] == 7
    assert observed["reference"] == observed["vm"]


def _privatization_edges():
    """Task ``idle`` touches no NV variable.  Task ``use`` reads
    ``buf``, never writes it, and a DMA then overwrites ``buf`` in
    place.  No task has a WAR variable."""
    b = ProgramBuilder("privatization_edges")
    b.nv_array("src", 4, init=[5, 6, 7, 8])
    b.nv_array("buf", 4, init=[1, 2, 3, 4])
    b.nv("x")
    with b.task("idle") as t:
        t.compute(100)
        t.transition("use")
    with b.task("use") as t:
        t.assign("x", t.at("buf", 0))
        t.dma_copy("src", "buf", 8)
        t.halt()
    return b.build()


def _observe_privatization(runtime):
    """(bytecode attached?, (OVERHEAD steps, PRIVATIZE tasks, NV x/buf))
    of one continuous run."""
    rt = build_runtime(_privatization_edges(), runtime)
    steps = []

    def observe(now, step):
        if step.kind == OVERHEAD:
            steps.append(
                (rt.current_task_name(), step.duration_us, step.category)
            )

    assert IntermittentExecutor(step_observer=observe).run(rt).completed
    privatized = [
        e.detail["task"] for e in rt.machine.trace.events
        if e.kind == T.PRIVATIZE
    ]
    state = rt.result_state(("x", "buf"))
    return getattr(rt, "_vm", None) is not None, (
        steps, privatized, (state["x"], list(state["buf"])),
    )


@pytest.mark.parametrize("runtime", ("alpaca", "ink"))
def test_privatization_edge_cases(runtime):
    """Alpaca gives a task with no WAR variable no entry step; InK
    charges its dispatch to a task that copies nothing, with no
    PRIVATIZE event; InK publishes no read-only working copy, so the
    DMA's write to ``buf`` survives the commit.  Same on both paths."""
    with on_sim_path("reference"):
        ref_bytecode, reference = _observe_privatization(runtime)
    with on_sim_path("vm"):
        vm_bytecode, vm = _observe_privatization(runtime)
    assert not ref_bytecode and vm_bytecode
    assert vm == reference
    steps, privatized, nv = vm
    commit = CostModel().commit_base_us
    assert nv == (1, [5, 6, 7, 8])
    if runtime == "alpaca":
        assert steps == [("idle", commit, "fram"), ("use", commit, "fram")]
        assert privatized == []
    else:
        assert steps[:2] == [
            ("idle", InKRuntime.dispatch_us, "fram"), ("idle", commit, "fram"),
        ]
        assert privatized == ["use"]
