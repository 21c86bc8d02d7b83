"""Intermittent-execution kernel: failure models, executor, metrics.

- :mod:`repro.kernel.power` — timer/scripted failure models
- :mod:`repro.kernel.executor` — the intermittent executor
- :mod:`repro.kernel.stats` — steps and the per-run metrics record
"""

from repro.kernel.executor import IntermittentExecutor, RunResult
from repro.kernel.power import (
    FailureModel,
    NoFailures,
    ScriptedFailures,
    UniformFailureModel,
)
from repro.kernel.stats import APP, BOOT, IO, OVERHEAD, Metrics, Step

__all__ = [
    "APP",
    "BOOT",
    "IO",
    "OVERHEAD",
    "FailureModel",
    "IntermittentExecutor",
    "Metrics",
    "NoFailures",
    "RunResult",
    "ScriptedFailures",
    "Step",
    "UniformFailureModel",
]
