"""Experiment runner: (application x runtime x environment) sweeps.

Each experiment in the paper is an average over many runs with
pseudo-random failure schedules (section 5.3: "each application is
executed 1000 times with pseudo-random seeds").  ``run_many`` executes
``reps`` independent runs — a just-built machine state, the cell's one
compiled program, a seeded failure model — and aggregates the section
5.2 metrics, including the Figure 7/10 time breakdown (application /
runtime overhead / wasted work) computed against the runtime's own
continuous-power useful time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps import APPS, AppSpec
from repro.core.run import nv_state, run_app
from repro.errors import ReproError
from repro.ir.transform import TransformOptions
from repro.kernel.power import NoFailures, UniformFailureModel


@dataclass
class Aggregate:
    """Mean metrics over one experiment cell."""

    app: str
    runtime: str
    label: str
    reps: int
    app_ms: float            # continuous-power useful time (the "App" bar)
    total_ms: float          # mean intermittent active time
    overhead_ms: float       # mean runtime-overhead time
    wasted_ms: float         # mean wasted work (incl. boot/restore)
    wall_ms: float           # mean wall clock (active + dark)
    failures: float          # mean power failures per run
    io_execs: float
    io_reexecs: float        # I/O + DMA re-executions per run
    io_skips: float          # skipped (avoided) operations per run
    energy_uj: float
    correct: int             # runs passing the consistency check
    completed: int
    memory: Dict[str, int] = field(default_factory=dict)
    text_proxy: int = 0

    @property
    def incorrect(self) -> int:
        return self.reps - self.correct


def run_many(
    spec: AppSpec,
    runtime: str,
    reps: int = 50,
    label: Optional[str] = None,
    build_kwargs: Optional[dict] = None,
    failure_low_ms: float = 5.0,
    failure_high_ms: float = 20.0,
    seed0: int = 0,
    env_seed: int = 1,
    transform_options: Optional[TransformOptions] = None,
    consistency: Optional[Callable[[dict], bool]] = None,
    env=None,
    nontermination_limit: int = 2000,
) -> Aggregate:
    """Run one experiment cell and aggregate its metrics.

    ``consistency`` receives the final NV snapshot of
    ``spec.result_vars`` and decides execution correctness; when
    omitted, completion counts as correct.  ``env`` switches to
    energy-coupled failures from a :mod:`repro.env` environment — a
    spec string, an :class:`~repro.env.EnergyEnvironment`, or a
    callable ``rep -> environment`` (Figure 13); otherwise the paper's
    uniform soft-reset timer in ``[failure_low_ms, failure_high_ms]`` is
    used.

    ``spec`` must be the registered :data:`~repro.apps.APPS` entry of
    its name: every run goes through the compilation cache (one compile
    for the whole cell), which builds programs by app name, so any
    other spec raises ``ReproError`` rather than report another
    program's numbers.
    """
    if APPS.get(spec.name) is not spec:
        raise ReproError(
            f"run_many needs a registered app spec; {spec.name!r} is not "
            f"APPS[{spec.name!r}]"
        )

    def execute(failure_model):
        return run_app(
            spec.name,
            runtime=runtime,
            failure_model=failure_model,
            seed=env_seed,
            build_kwargs=build_kwargs,
            transform_options=transform_options,
            trace_events=False,
            nontermination_limit=nontermination_limit,
            # each result is fully aggregated before the next rep
            reuse_machine=True,
        )

    app_us = execute(NoFailures()).metrics.app_time_us

    totals = {
        "active": 0.0, "overhead": 0.0, "wasted": 0.0, "wall": 0.0,
        "failures": 0.0, "io_execs": 0.0, "io_reexecs": 0.0,
        "io_skips": 0.0, "energy": 0.0,
    }
    correct = 0
    completed = 0
    memory: Dict[str, int] = {}
    text_proxy = 0

    for rep in range(reps):
        if env is not None:
            # energy-coupled mode: the environment IS the failure model
            if callable(env):
                failure_model = env(rep)
            elif isinstance(env, str):
                from repro.env.spec import parse_env

                failure_model = parse_env(env)
            else:
                env.reset()
                failure_model = env
        else:
            failure_model = UniformFailureModel(
                low_ms=failure_low_ms, high_ms=failure_high_ms, seed=seed0 + rep
            )
        result = execute(failure_model)
        m = result.metrics
        totals["active"] += m.active_time_us
        totals["overhead"] += m.overhead_time_us
        totals["wasted"] += m.waste_against(app_us)
        totals["wall"] += m.total_time_us
        totals["failures"] += m.power_failures
        totals["io_execs"] += m.io_executions + m.dma_executions
        totals["io_reexecs"] += m.io_reexecutions + m.dma_reexecutions
        totals["io_skips"] += m.io_skips + m.dma_skips
        totals["energy"] += m.energy_uj
        if m.completed:
            completed += 1
            if consistency is None:
                correct += 1
            else:
                state = nv_state(result, spec.result_vars)
                if consistency(state):
                    correct += 1
        memory = m.memory_footprint
        text_proxy = m.text_proxy

    n = float(reps)
    return Aggregate(
        app=spec.name,
        runtime=runtime,
        label=label if label is not None else runtime,
        reps=reps,
        app_ms=app_us / 1000.0,
        total_ms=totals["active"] / n / 1000.0,
        overhead_ms=totals["overhead"] / n / 1000.0,
        wasted_ms=totals["wasted"] / n / 1000.0,
        wall_ms=totals["wall"] / n / 1000.0,
        failures=totals["failures"] / n,
        io_execs=totals["io_execs"] / n,
        io_reexecs=totals["io_reexecs"] / n,
        io_skips=totals["io_skips"] / n,
        energy_uj=totals["energy"] / n,
        correct=correct,
        completed=completed,
        memory=memory,
        text_proxy=text_proxy,
    )
