"""Memoized compilation of evaluation applications.

Building an application (``AppSpec.build``), validating its IR, and —
for EaseIO — running the source-to-source transform are all
*deterministic* functions of ``(app, build_kwargs, transform_options)``.
The fault-injection checker and the benchmark runner used to repeat
that work for every injected schedule / repetition; for the exhaustive
campaigns of section 5.4 that is hundreds of identical compilations per
(app, runtime) cell.

This module compiles **once per key** and shares the artifact:

``build_app_program(app, build_kwargs)``
    the built, site-assigned, validated :class:`~repro.ir.ast.Program`;

``compile_app(app, runtime, ...)``
    a :class:`CompiledProgram` bundling the program with the
    :class:`~repro.ir.transform.TransformResult` when ``runtime`` is
    EaseIO;

``instantiate(compiled, machine)``
    a fresh runtime instance on ``machine`` from the shared artifact —
    the explicit **copy-on-instantiate boundary**.  Compiled artifacts
    are immutable after construction (``Program`` is frozen; the
    interpreter keeps all mutable state in the machine/environment), so
    one artifact may back any number of sequential or concurrent runs.

Safety: the cache is only consulted on the VM path
(:mod:`repro.fastpath`); the reference path (or :func:`clear_cache`)
drops every artifact, restoring the historical compile-per-run
behaviour exactly.  :func:`evict` drops one program's artifacts, for
callers that compile many throwaway programs in one process (the
fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import fastpath
from repro.apps import APPS
from repro.errors import ReproError
from repro.hw.mcu import Machine, build_machine
from repro.ir import ast as A
from repro.ir.transform import (
    TransformOptions,
    TransformResult,
    transform_program,
)


@dataclass(frozen=True)
class CompiledProgram:
    """A shareable compilation artifact for one (app, runtime) cell."""

    app: str
    runtime: str
    program: A.Program
    #: EaseIO only: transform output (``program`` above is its input)
    transformed: Optional[TransformResult] = None


def _freeze(value: object) -> object:
    """A hashable, order-insensitive rendering of a kwargs value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def program_key(
    app: str, build_kwargs: Optional[Dict[str, object]] = None
) -> Tuple:
    """Cache key for a built program."""
    return (app, _freeze(dict(build_kwargs or {})))


def _options_key(options: Optional[TransformOptions]) -> Tuple:
    options = options or TransformOptions()
    return tuple(
        (name, getattr(options, name))
        for name in sorted(options.__dataclass_fields__)  # type: ignore[attr-defined]
    )


_programs: Dict[Tuple, A.Program] = {}
_compiled: Dict[Tuple, CompiledProgram] = {}
_hits = 0
_misses = 0
# bytecode-VM compile counters (the VM path's analogue of hits/misses;
# folded into the obs registry by the executor's VM driver)
_vm_hits = 0
_vm_misses = 0


def build_app_program(
    app: str, build_kwargs: Optional[Dict[str, object]] = None
) -> A.Program:
    """Build (or fetch) the validated program of a registered app.

    The program is exactly what ``AppSpec.build`` returns — site
    assignment is *not* folded in, because the baseline runtimes
    historically execute the unsited program (only the EaseIO transform
    assigns sites, internally).  Cached and cold builds must stay
    byte-identical in behaviour.
    """
    global _hits, _misses
    if app not in APPS:
        raise ReproError(f"unknown app {app!r}; choose from {sorted(APPS)}")
    if not fastpath.enabled():
        program = APPS[app].build(**dict(build_kwargs or {}))
        program.validate()
        return program
    key = program_key(app, build_kwargs)
    program = _programs.get(key)
    if program is None:
        _misses += 1
        program = APPS[app].build(**dict(build_kwargs or {}))
        program.validate()
        _programs[key] = program
    else:
        _hits += 1
    return program


def compile_app(
    app: str,
    runtime: str,
    build_kwargs: Optional[Dict[str, object]] = None,
    transform_options: Optional[TransformOptions] = None,
) -> CompiledProgram:
    """Compile (or fetch) the runtime-ready artifact for one cell."""
    global _hits, _misses
    if not fastpath.enabled():
        return _compile_cold(app, runtime, build_kwargs, transform_options)
    key = (program_key(app, build_kwargs), runtime, _options_key(transform_options))
    artifact = _compiled.get(key)
    if artifact is None:
        _misses += 1
        artifact = _compile_cold(app, runtime, build_kwargs, transform_options)
        _compiled[key] = artifact
    else:
        _hits += 1
    return artifact


def _compile_cold(
    app: str,
    runtime: str,
    build_kwargs: Optional[Dict[str, object]],
    transform_options: Optional[TransformOptions],
) -> CompiledProgram:
    program = build_app_program(app, build_kwargs)
    transformed = None
    if runtime == "easeio":
        transformed = transform_program(program, transform_options)
    return CompiledProgram(
        app=app, runtime=runtime, program=program, transformed=transformed
    )


def instantiate(compiled: CompiledProgram, machine: Machine):
    """A fresh runtime instance on ``machine`` from a shared artifact."""
    from repro.core.run import RUNTIMES  # local import: avoids a cycle

    cls = RUNTIMES[compiled.runtime]
    if compiled.transformed is not None:
        rt = cls.instantiate(compiled.transformed, machine)
    else:
        rt = cls.instantiate(compiled.program, machine)
    if fastpath.enabled():
        _attach_vm(rt)
    return rt


def _attach_vm(rt) -> None:
    """Compile the runtime's program to bytecode and attach the VM.

    Bytecode closes over one runtime instance's typed cells, so the
    artifact is inherently per-instance: a fresh instance compiles
    (a vm miss), a pooled instance recycled through :func:`runtime_for`
    keeps its VM across resets (a vm hit) because
    :meth:`~repro.hw.mcu.Machine.reset` preserves every object identity
    the bytecode bound.  ``lower`` returning ``None`` (unlowerable
    program) leaves the generator path in charge for this instance.
    """
    global _vm_misses
    from repro.vm import lower as _lower_vm  # local import: avoids a cycle

    _vm_misses += 1
    rt._vm = _lower_vm(rt)
    rt._vm_cached = False  # this instance compiled its own bytecode


#: recycled runtime instances (machine included), keyed by compiled
#: artifact identity + machine-construction arguments
_runtimes: Dict[Tuple, object] = {}


def runtime_for(compiled: CompiledProgram, seed: int, trace_events: bool):
    """A pooled, recycled runtime for a *default-configuration* machine.

    Building a machine and loading a runtime costs more than many short
    simulated runs; callers that execute one compiled cell hundreds of
    times sequentially (the checker, ``run_many``) can instead recycle
    one instance via :meth:`~repro.runtimes.base.TaskRuntime.reset`,
    which restores the exact just-instantiated state (memory re-zeroed
    in place, rngs reseeded, cursors at the entry task).

    Caller contract: runs must be **sequential** — acquiring the same
    key again resets the machine, so the previous ``RunResult`` must be
    fully consumed first (metrics and NV snapshots are copies, so
    holding those is fine; holding ``result.runtime`` live state is
    not).  Only valid for machines built with the default cost model;
    anything custom gets a fresh machine from the caller.
    """
    global _vm_hits
    key = (id(compiled), seed, trace_events)
    rt = _runtimes.get(key)
    if rt is None:
        machine = build_machine(seed=seed, trace_events=trace_events)
        rt = instantiate(compiled, machine)
        _runtimes[key] = rt
    else:
        rt.reset()
        if getattr(rt, "_vm", None) is not None:
            _vm_hits += 1
            rt._vm_cached = True  # recycled bytecode, no recompile
    return rt


def cache_info() -> Dict[str, int]:
    """Hit/miss/size counters (tests and the perf harness)."""
    return {
        "hits": _hits,
        "misses": _misses,
        "programs": len(_programs),
        "compiled": len(_compiled),
        "runtimes": len(_runtimes),
        "vm_hits": _vm_hits,
        "vm_misses": _vm_misses,
    }


def evict(app: str, build_kwargs: Optional[Dict[str, object]] = None) -> None:
    """Drop every cached artifact built from one ``(app, build_kwargs)``.

    Removes the built program, its compiled artifacts for every runtime
    and their pooled runtimes; other programs' entries (and counters)
    are untouched, so a long-lived process can shed throwaway programs
    without costing its other jobs their warm pools.
    """
    # daemon jobs share these dicts across threads: iterate snapshots
    # (``list(d)`` copies atomically) and tolerate a concurrent evict
    pkey = program_key(app, build_kwargs)
    _programs.pop(pkey, None)
    for key in [k for k in list(_compiled) if k[0] == pkey]:
        cid = id(_compiled.pop(key, None))
        for rkey in [k for k in list(_runtimes) if k[0] == cid]:
            _runtimes.pop(rkey, None)


def clear_cache() -> None:
    """Drop every cached artifact and reset the counters."""
    global _hits, _misses, _vm_hits, _vm_misses
    _programs.clear()
    _compiled.clear()
    _runtimes.clear()
    _hits = 0
    _misses = 0
    _vm_hits = 0
    _vm_misses = 0


fastpath.register_cache_clearer(clear_cache)
