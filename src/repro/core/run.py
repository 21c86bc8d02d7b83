"""One-call execution façade.

``run_program`` wires everything together: builds a fresh simulated
machine, loads the requested runtime (compiling the program with the
EaseIO front-end when ``runtime="easeio"``), and drives it with the
intermittent executor under the requested power environment.  Every run
gets its own machine, so results are independent and reproducible from
the two seeds (``seed`` for the environment/sensor noise, the failure
model's own seed for resets).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Type

from repro import fastpath
from repro.errors import ReproError
from repro.hw.mcu import CostModel, Machine, build_machine
from repro.ir import ast as A
from repro.ir.transform import TransformOptions
from repro.kernel.executor import IntermittentExecutor, RunResult
from repro.kernel.power import FailureModel, NoFailures
from repro.runtimes.alpaca import AlpacaRuntime
from repro.runtimes.base import TaskRuntime
from repro.runtimes.easeio import EaseIORuntime
from repro.runtimes.ink import InKRuntime
from repro.runtimes.samoyed import SamoyedRuntime

#: runtime name -> class, for CLI/bench parameterization.  "samoyed" is
#: an extension beyond the paper's evaluated baselines (Table 1 row).
RUNTIMES: Dict[str, Type[TaskRuntime]] = {
    "alpaca": AlpacaRuntime,
    "ink": InKRuntime,
    "samoyed": SamoyedRuntime,
    "easeio": EaseIORuntime,
}


def build_runtime(
    program: A.Program,
    runtime: str,
    machine: Optional[Machine] = None,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    transform_options: Optional[TransformOptions] = None,
    trace_events: bool = True,
) -> TaskRuntime:
    """Instantiate a named runtime with a (fresh) machine."""
    if runtime not in RUNTIMES:
        raise ReproError(
            f"unknown runtime {runtime!r}; choose from {sorted(RUNTIMES)}"
        )
    if machine is None:
        machine = build_machine(seed=seed, cost=cost, trace_events=trace_events)
    if runtime == "easeio":
        rt = EaseIORuntime.from_source(program, machine, transform_options)
    else:
        rt = RUNTIMES[runtime](program, machine)
    if fastpath.enabled():
        from repro.core.compile import _attach_vm

        _attach_vm(rt)
    return rt


def run_program(
    program: A.Program,
    runtime: str = "easeio",
    failure_model: Optional[FailureModel] = None,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    transform_options: Optional[TransformOptions] = None,
    trace_events: bool = True,
    nontermination_limit: int = 2000,
    max_active_time_us: float = 600_000_000.0,
    step_observer: Optional[Callable] = None,
    recorder=None,
) -> RunResult:
    """Execute ``program`` once under the given power environment.

    Returns the executor's :class:`~repro.kernel.executor.RunResult`;
    ``result.runtime`` is attached for post-run state inspection.
    ``step_observer`` is forwarded to the executor (used by the
    fault-injection checker's boundary probe).  ``recorder`` (a
    :class:`repro.obs.metrics.RunRecorder`) attaches the detailed
    observability hook for this run.
    """
    rt = build_runtime(
        program,
        runtime,
        seed=seed,
        cost=cost,
        transform_options=transform_options,
        trace_events=trace_events,
    )
    rt.machine.trace.recorder = recorder
    executor = IntermittentExecutor(
        failure_model=failure_model,
        nontermination_limit=nontermination_limit,
        max_active_time_us=max_active_time_us,
        step_observer=step_observer,
    )
    result = executor.run(rt)
    result.runtime = rt  # type: ignore[attr-defined]
    return result


def run_app(
    app: str,
    runtime: str = "easeio",
    failure_model: Optional[FailureModel] = None,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    build_kwargs: Optional[Dict[str, object]] = None,
    transform_options: Optional[TransformOptions] = None,
    trace_events: bool = True,
    nontermination_limit: int = 2000,
    max_active_time_us: float = 600_000_000.0,
    step_observer: Optional[Callable] = None,
    reuse_machine: bool = False,
    recorder=None,
) -> RunResult:
    """Execute a *registered app* once, through the compilation cache.

    Same contract as :func:`run_program`, but the program build and (for
    EaseIO) the IR transform are memoized per
    ``(app, build_kwargs, transform_options)`` — the hot entry point for
    the fault-injection checker and the benchmark runner, which execute
    the same compiled cell hundreds of times.  Each run gets its own
    fresh machine; only the immutable compiled artifact is shared (see
    :mod:`repro.core.compile`).

    ``reuse_machine=True`` opts into *machine recycling*: sequential
    calls with the same compiled cell, seed and trace setting recycle
    one pooled machine via ``TaskRuntime.reset()`` instead of building
    a new one.  Callers must consume each ``RunResult`` (including any
    NV snapshots — they are copies) before the next call, and only the
    default machine configuration is pooled; a custom ``cost`` always
    gets a fresh machine.  Ignored on the reference path.
    """
    from repro.core.compile import compile_app, instantiate, runtime_for

    compiled = compile_app(
        app,
        runtime,
        build_kwargs=build_kwargs,
        transform_options=transform_options,
    )
    if reuse_machine and fastpath.enabled() and cost is None:
        rt = runtime_for(compiled, seed, trace_events)
    else:
        machine = build_machine(seed=seed, cost=cost, trace_events=trace_events)
        rt = instantiate(compiled, machine)
    # unconditionally (re)assigned: pooled machines keep their trace
    # across recycles, so a stale recorder must not leak into this run
    rt.machine.trace.recorder = recorder
    executor = IntermittentExecutor(
        failure_model=failure_model,
        nontermination_limit=nontermination_limit,
        max_active_time_us=max_active_time_us,
        step_observer=step_observer,
    )
    result = executor.run(rt)
    result.runtime = rt  # type: ignore[attr-defined]
    return result


def continuous_useful_time(
    program: A.Program,
    runtime: str,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    transform_options: Optional[TransformOptions] = None,
) -> float:
    """Useful (APP+IO) time of a continuous-power run, microseconds.

    This is the "App" bar of Figures 7 and 10: what the application
    itself costs on this runtime when nothing ever fails.
    """
    result = run_program(
        program,
        runtime=runtime,
        failure_model=NoFailures(),
        seed=seed,
        cost=cost,
        transform_options=transform_options,
        trace_events=False,
    )
    return result.metrics.app_time_us


def resolve_result_vars(
    program: A.Program, result_vars: Sequence[str]
) -> tuple:
    """Resolve an app's ``RESULT_VARS`` against a built program.

    The ``("*",)`` sentinel (used by the ``fuzz`` app slot, whose
    programs declare their own variables) expands to every NV
    declaration of the program; anything else passes through.
    """
    if tuple(result_vars) == ("*",):
        return tuple(d.name for d in program.decls if d.storage == A.NV)
    return tuple(result_vars)


def nv_state(result: RunResult, names: Sequence[str]) -> Dict[str, object]:
    """Read NV variables from a finished run (correctness checks)."""
    return result.runtime.result_state(names)  # type: ignore[attr-defined]
