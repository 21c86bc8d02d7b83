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
from repro.core.run import nv_state, run_app, run_program
from repro.kernel.power import NoFailures, UniformFailureModel
from repro.obs import metrics as M
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
