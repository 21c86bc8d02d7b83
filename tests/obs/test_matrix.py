"""Metrics equality, VM path vs. reference, across the full matrix.

The acceptance bar for the observability hook: the counters it folds
must be identical whether the simulator runs on the default VM path
(fresh or recycled from the machine pool) or on the reference path —
on every evaluated app and runtime.  A divergence here means the VM
changed observable behaviour, not just speed.
"""

import pytest

from repro.core.run import run_app
from repro.kernel.power import UniformFailureModel
from repro.obs import metrics as M
from tests.conftest import on_sim_path

APPS = ("uni_dma", "uni_temp", "uni_lea", "fir", "weather")
RUNTIMES = ("easeio", "alpaca", "ink", "samoyed")

#: the counters the acceptance criterion names, plus close relatives
KEYS = (
    "io.skipped",
    "io.executed",
    "io.reexecuted",
    "reexecutions",
    "priv.bytes",
    "priv.privatizations",
    "dma.copies",
    "dma.bytes",
    "power.failures",
    "task.commits",
    "wall",  # time.active_us stands in for simulated wall clock
)


def _collect(app, runtime, path, recycled=False):
    """(folded counters, vm.runs) of one run on ``path``.

    ``recycled`` first dirties a pooled runtime with another schedule,
    so the observed run reuses its machine and cached bytecode.
    """
    with on_sim_path(path):
        if recycled:
            run_app(
                app, runtime=runtime, seed=1, reuse_machine=True,
                failure_model=UniformFailureModel(5, 20, seed=9),
            )
        with M.collecting() as reg:
            run_app(
                app,
                runtime=runtime,
                failure_model=UniformFailureModel(5, 20, seed=3),
                seed=1,
                reuse_machine=recycled,
            )
    c = reg.counters
    out = {k: c.get(k, 0) for k in KEYS if k != "wall"}
    out["wall"] = round(c.get("time.active_us", 0), 6)
    return out, c.get("vm.runs", 0)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", APPS)
def test_fastpath_metrics_match_reference(app, runtime):
    vm, vm_runs = _collect(app, runtime, "vm")
    reference, ref_vm_runs = _collect(app, runtime, "reference")
    assert (vm_runs, ref_vm_runs) == (1, 0), "vm path ran the generator"
    assert vm == reference


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", APPS)
def test_vm_metrics_match_fastpath(app, runtime):
    """Recycled bytecode folds the exact counters a fresh lowering does."""
    pooled, pooled_vm_runs = _collect(app, runtime, "vm", recycled=True)
    fresh, fresh_vm_runs = _collect(app, runtime, "vm")
    assert pooled_vm_runs == fresh_vm_runs == 1
    assert pooled == fresh


def test_vm_execution_counters_are_folded():
    """``vm.*`` counters land in the ambient registry on the vm path.

    Two recycled runs: the first lowers fresh bytecode (a compile-cache
    miss), the second recycles the pooled runtime (a hit); both must
    report their dispatched ops and run count.
    """
    with on_sim_path("vm"), M.collecting() as reg:
        for _ in range(2):
            run_app(
                "fir",
                runtime="easeio",
                failure_model=UniformFailureModel(5, 20, seed=3),
                seed=1,
                reuse_machine=True,
            )
    c = reg.counters
    assert c["vm.runs"] == 2
    assert c["vm.ops_dispatched"] > 0
    assert c["vm.compile_cache_misses"] == 1
    assert c["vm.compile_cache_hits"] == 1
