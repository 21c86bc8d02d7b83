"""Compilation cache and machine-recycling correctness.

The whole VM path hangs on one invariant: cached and cold execution
must be observationally identical — same metrics, same NV result state,
run after run, with no state leaking between runs through the shared
compiled artifact or a recycled machine.
"""

import pytest

from repro import fastpath
from repro.core.compile import (
    build_app_program,
    cache_info,
    clear_cache,
    compile_app,
    evict,
    instantiate,
    runtime_for,
)
from repro.core.run import nv_state, run_app
from repro.hw.mcu import build_machine
from repro.kernel.power import ScriptedFailures, UniformFailureModel
from tests.conftest import on_sim_path


@pytest.fixture(autouse=True)
def _fresh_caches():
    # switching paths clears every cache; the ambient path comes back
    with on_sim_path(fastpath.path()):
        yield


def _metrics_dict(result):
    m = result.metrics
    return {
        k: v for k, v in vars(m).items() if not k.startswith("_")
    }


def _run(app, runtime, reuse=False, seed=3):
    return run_app(
        app,
        runtime=runtime,
        failure_model=UniformFailureModel(low_ms=5.0, high_ms=20.0, seed=7),
        seed=seed,
        reuse_machine=reuse,
    )


@pytest.mark.parametrize("runtime", ["alpaca", "easeio"])
def test_cached_run_matches_cold_run(runtime):
    """VM-path (cached) and reference-path runs are byte-identical."""
    fastpath.set_path("vm")
    warm1 = _run("uni_dma", runtime)
    warm2 = _run("uni_dma", runtime)  # second run hits the cache
    assert cache_info()["hits"] > 0

    fastpath.set_path("reference")
    cold = _run("uni_dma", runtime)

    for other in (warm1, warm2):
        assert _metrics_dict(other) == _metrics_dict(cold)
        state_a = nv_state(other, ["dst_buf"])
        state_b = nv_state(cold, ["dst_buf"])
        assert (state_a["dst_buf"] == state_b["dst_buf"]).all()


def test_cache_keys_separate_build_kwargs_and_runtime():
    fastpath.set_path("vm")
    p1 = build_app_program("fir")
    p2 = build_app_program("fir")
    assert p1 is p2  # same key -> shared artifact
    c1 = compile_app("fir", "easeio")
    c2 = compile_app("fir", "alpaca")
    assert c1 is not c2
    assert c1.transformed is not None and c2.transformed is None


def test_cache_bypassed_when_fastpath_disabled():
    fastpath.set_path("reference")
    p1 = build_app_program("fir")
    p2 = build_app_program("fir")
    assert p1 is not p2
    assert cache_info()["programs"] == 0


def test_no_state_leaks_between_cached_runs():
    """The same compiled artifact backs failing and clean runs alike."""
    fastpath.set_path("vm")
    clean_before = _run_clean()
    _run("uni_dma", "easeio")  # a failing run in between
    clean_after = _run_clean()
    assert _metrics_dict(clean_before) == _metrics_dict(clean_after)


def _run_clean():
    from repro.kernel.power import NoFailures

    return run_app(
        "uni_dma", runtime="easeio", failure_model=NoFailures(), seed=3
    )


def test_recycled_machine_matches_fresh_machine():
    """reset()-recycled machines reproduce fresh-machine runs exactly."""
    fastpath.set_path("vm")
    fresh = _run("uni_dma", "easeio", reuse=False)
    recycled_1 = _run("uni_dma", "easeio", reuse=True)
    recycled_2 = _run("uni_dma", "easeio", reuse=True)  # pool hit + reset
    assert cache_info()["runtimes"] == 1
    assert _metrics_dict(fresh) == _metrics_dict(recycled_1)
    assert _metrics_dict(fresh) == _metrics_dict(recycled_2)
    assert (
        nv_state(fresh, ["dst_buf"])["dst_buf"]
        == nv_state(recycled_2, ["dst_buf"])["dst_buf"]
    ).all()


def test_recycled_machine_after_dirty_run():
    """A run abandoned mid-flight leaves no trace in the next one."""
    fastpath.set_path("vm")
    # scripted failures leave the machine mid-task (dirty flags, partial
    # NV writes) — the next acquisition must reset all of it
    compiled = compile_app("uni_dma", "easeio")
    rt = runtime_for(compiled, 3, True)
    gen = rt.start()
    for _ in range(25):  # abandon mid-run
        next(gen)
    gen.close()
    redo = _run("uni_dma", "easeio", reuse=True)
    fastpath.set_path("reference")
    cold = _run("uni_dma", "easeio", reuse=False)
    assert _metrics_dict(redo) == _metrics_dict(cold)


def test_runtime_pool_ignored_for_custom_machines():
    """Custom cost configurations never hit the pool."""
    from repro.hw.mcu import CostModel
    from repro.kernel.power import NoFailures

    fastpath.set_path("vm")
    run_app(
        "fir",
        runtime="easeio",
        failure_model=NoFailures(),
        cost=CostModel(),
        reuse_machine=True,
    )
    assert cache_info()["runtimes"] == 0


def test_instantiate_gives_independent_runtimes():
    """Two instances off one artifact share no mutable state."""
    fastpath.set_path("vm")
    compiled = compile_app("fir", "easeio")
    rt_a = instantiate(compiled, build_machine(seed=1))
    rt_b = instantiate(compiled, build_machine(seed=1))
    # drive one to completion; the other must stay at the entry state
    from repro.kernel.executor import IntermittentExecutor

    IntermittentExecutor(failure_model=ScriptedFailures([])).run(rt_a)
    assert rt_a.completed
    assert not rt_b.completed


def test_evict_drops_one_program_and_keeps_the_rest():
    fastpath.set_path("vm")
    _run("uni_dma", "easeio", reuse=True)
    _run("uni_dma", "alpaca", reuse=True)
    _run("fir", "easeio", reuse=True)
    assert cache_info()["compiled"] == cache_info()["runtimes"] == 3
    evict("uni_dma")
    info = cache_info()
    assert (info["programs"], info["compiled"], info["runtimes"]) == (1, 1, 1)
    # the surviving pool entry still recycles
    _run("fir", "easeio", reuse=True)
    assert cache_info()["vm_hits"] == 1
