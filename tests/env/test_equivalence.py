"""VM ≡ reference equivalence of energy-driven failure schedules.

The environment hooks (`fail_time` / `commit_window` / `on_failure`)
are driven twice — once by the reference path's step executor, once
by the compiled VM's loop — and the whole point of closed-form segment
arithmetic is that both produce the *same floats*.  Every app on every
runtime under a stochastic environment must therefore show identical
emergent failure instants, metrics, traces, NV images, env counters
and checker verdicts on both execution paths, with the VM side really
running bytecode.  A divergence here means the energy model leaks
path-dependent rounding.
"""

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.core.compile import compile_app, instantiate
from repro.core.run import run_app
from repro.env import parse_env
from repro.errors import NonTermination
from repro.hw.mcu import build_machine
from repro.obs import metrics as M
from tests.conftest import on_sim_path

APPS = ("uni_dma", "uni_temp", "uni_lea", "fir", "weather")
RUNTIMES = ("easeio", "alpaca", "ink", "samoyed")

ENV = "markov:on_mw=8,mean_on_ms=10,mean_off_ms=30,tail=1.5,seed=11,cap_uf=2.2"

def _lowers(app, runtime):
    """Whether the active path runs this cell as bytecode."""
    rt = instantiate(compile_app(app, runtime), build_machine(seed=1))
    return getattr(rt, "_vm", None) is not None


def _observe(app, runtime):
    """Everything an energy-driven run exposes, failure floats included."""
    env = parse_env(ENV)
    try:
        res = run_app(app, runtime=runtime, failure_model=env, seed=1)
    except NonTermination as exc:
        # a workload this buffer cannot power is itself an observation
        # — the diagnosis and the failure schedule that led to it must
        # match across paths too
        return {
            "nontermination": str(exc),
            "failure_times": tuple(env.failure_times),
            "env_counters": tuple(sorted(env.counters().items())),
        }
    rt = res.runtime
    fram = rt.machine.space.region("fram")
    return {
        "completed": res.completed,
        "died_dark": res.died_dark,
        # the raw floats: bit-identical, not approximately equal
        "failure_times": tuple(env.failure_times),
        "env_counters": tuple(sorted(env.counters().items())),
        "metrics": dict(sorted(res.metrics.__dict__.items())),
        "trace": tuple(
            (e.kind, e.time_us, tuple(sorted(e.detail.items())))
            for e in rt.machine.trace.events
        ),
        "fram": bytes(fram.view(fram.base, fram.size)).hex(),
    }


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", APPS)
def test_energy_runs_observationally_identical(app, runtime):
    with on_sim_path("reference"):
        reference = _observe(app, runtime)
    with on_sim_path("vm"):
        assert _lowers(app, runtime), "vm path would run the generator"
        vm = _observe(app, runtime)
    assert vm == reference


def _verdict(app, runtime):
    """(verdict, runs, runs executed as bytecode) of a small campaign."""
    with M.collecting() as reg:
        report = run_campaign(CampaignConfig(
            app=app, runtime=runtime, limit=12, shrink=False, env=ENV,
        ))
    verdict = (report.ok, dict(report.by_kind), report.n_runs,
               report.total_violations)
    return verdict, reg.counters.get("runs", 0), reg.counters.get("vm.runs", 0)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", ("uni_temp", "fir"))
def test_env_checker_verdicts_identical_on_all_paths(app, runtime):
    """Injected resets composed with emergent brown-outs: same verdicts."""
    with on_sim_path("reference"):
        reference, _, ref_vm_runs = _verdict(app, runtime)
    with on_sim_path("vm"):
        vm, runs, vm_runs = _verdict(app, runtime)
    assert ref_vm_runs == 0
    assert runs > 0 and vm_runs == runs, "vm campaign ran the generator"
    assert vm == reference
