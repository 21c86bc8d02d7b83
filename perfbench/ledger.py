"""Traced runs: spans around the calls into each layer, and the ledger.

Wrappers are installed where the caller looks each name up — a class
attribute for methods, the importing module's global for functions
bound with ``from ... import`` — so the program itself is unchanged.
Every wrapped call records a span ``(id, parent, name, start, end,
child_s, pid, thread, run)``; ``child_s`` is the time its child spans
and per-step calls cover, so a span's self time is its duration minus
``child_s``.  Per-step calls (the energy-environment hooks, run
hundreds of thousands of times) record only a count and cumulative
time.  Everything stays in memory and is written once, at the end.

Pool workers inherit the wrappers by fork; each shard they run ships
its spans back inside the shard's result list (see ``_ShardResult``).
The fleet worker installs the wrappers in its own entry point
(``perfbench.fleet_entry``) and writes its spans to a file on exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.metrics import LAYERS

perf_counter = time.perf_counter

# span tuple fields
_ID, _PARENT, _NAME, _START, _END, _CHILD, _PID, _TID, _RUN = range(9)


class Tracer:
    """In-memory spans, per-step call totals and work counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._fresh()

    def _fresh(self) -> None:
        self.pid = os.getpid()
        self.main_tid = threading.get_ident()
        self.lock = threading.Lock()
        self.spans: List[tuple] = []
        #: per-step calls: name -> [count, seconds, seconds on main thread]
        self.calls: Dict[str, List[float]] = {}
        #: work counted at the boundary: name -> number
        self.counts: Dict[str, float] = {}
        #: payloads shipped back by other processes
        self.imported: List[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: fleet job id -> time its units were opened for leasing
        self.opened: Dict[str, float] = {}

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, name: str, n: float = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def payload(self) -> dict:
        return {
            "pid": self.pid,
            "spans": list(self.spans),
            "calls": {k: list(v) for k, v in self.calls.items()},
            "counts": dict(self.counts),
        }

    def drain(self) -> dict:
        """This process's records since the last drain (then cleared)."""
        with self.lock:
            out = self.payload()
            self.spans = []
            self.calls = {}
            self.counts = {}
        return out


_TRACER: Optional[Tracer] = None


def _span(name: str, fn: Callable, after: Optional[Callable] = None,
          before: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``before``/``after`` see the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = _TRACER
        state = before(args, kwargs) if before is not None else None
        stack = tr.stack()
        parent = stack[-1] if stack else None
        entry = [f"{tr.pid}-{next(tr._ids)}", 0.0]
        stack.append(entry)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            if parent is not None:
                parent[1] += end - start
            tr.spans.append((
                entry[0], parent[0] if parent else None, name, start, end,
                entry[1], tr.pid, threading.get_ident(), tr.run_id,
            ))
            # also after a raise: a run that ends in NonTermination
            # still simulated every event up to it
            if after is not None:
                after(args, kwargs, result, state)

    return wrapper


def _counted(name: str, fn: Callable) -> Callable:
    """Wrap a per-step call: count and cumulative time, no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            tr = _TRACER
            main = threading.get_ident() == tr.main_tid
            with tr.lock:
                acc = tr.calls.get(name)
                if acc is None:
                    acc = tr.calls[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += took
                if main:
                    acc[2] += took
            stack = tr.stack()
            if stack:
                stack[-1][1] += took

    return wrapper


# -- per-layer hooks -------------------------------------------------------

_SIM_EVENTS = ("io_exec", "dma_exec", "task_commit", "power_failure")


def _events_of(runtime) -> int:
    trace = runtime.machine.trace
    return sum(trace.count(kind) for kind in _SIM_EVENTS)


def _exec_before(args, kwargs):
    return _events_of(args[1])


def _exec_after(args, kwargs, result, before):
    # pooled machines clear their trace on reset; a fresh one starts
    # empty — either way the run's events are the difference
    _TRACER.count("kernel.sim_events", _events_of(args[1]) - before)


def _compile_before(args, kwargs):
    from repro.core.compile import cache_info

    return cache_info()["misses"]


def _compile_after(args, kwargs, result, before):
    from repro.core.compile import cache_info

    _TRACER.count("core.compile.misses", cache_info()["misses"] - before)


def _get_after(args, kwargs, result, state):
    if result is not None:
        _TRACER.count("serve.store.hits")


def _shrinker(name: str, fn: Callable) -> Callable:
    """A shrinker span whose predicate evaluations are counted."""

    def call(subject, predicate, *rest, **kwargs):
        def counted(candidate):
            _TRACER.count(name + ".evals")
            return predicate(candidate)

        return fn(subject, counted, *rest, **kwargs)

    return _span(name, functools.wraps(fn)(call))


def _open_after(args, kwargs, result, state):
    _TRACER.opened[args[0].job_id] = perf_counter()


def _lease_after(args, kwargs, result, state):
    if not result:
        return
    tr = _TRACER
    opened = tr.opened.pop(str(result.get("job")), None)
    if opened is not None:
        tr.count("fleet.first_lease_wait.s", perf_counter() - opened)


def _complete_after(args, kwargs, result, state):
    results = args[2] if len(args) > 2 else kwargs.get("results", ())
    _TRACER.count("fleet.completed_units", len(results))


class _ShardResult(list):
    """A pool shard's results, carrying the worker's trace records.

    The scheduler iterates it like the plain list it was; unpickling it
    in the parent hands the records to the parent's tracer.
    """

    def __setstate__(self, state):
        if _TRACER is not None:
            _TRACER.imported.append(state["trace"])


_ORIGINAL_RUN_SHARD: Optional[Callable] = None


def _traced_run_shard(items):
    tr = _TRACER
    out = _ShardResult(_ORIGINAL_RUN_SHARD(items))
    tr.count("serve.scheduler.shards")
    out.trace = tr.drain()
    return out


def _targets() -> List[Tuple[object, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every traced call."""
    mod = importlib.import_module
    from repro.env.environment import EnergyEnvironment
    from repro.fleet.leases import FleetHandle, LeaseBoard
    from repro.kernel.executor import IntermittentExecutor
    from repro.serve.api import JobManager
    from repro.serve.daemon import ServeClient
    from repro.serve.scheduler import BatchScheduler, Checkpoint
    from repro.serve.store import ResultStore

    campaign = mod("repro.check.campaign")

    def span(name, after=None, before=None):
        return lambda fn: _span(name, fn, after=after, before=before)

    def counted(name):
        return lambda fn: _counted(name, fn)

    return [
        (IntermittentExecutor, "run",
         span("kernel.exec", _exec_after, _exec_before)),
        (mod("repro.vm"), "lower", span("vm.lower")),
        (mod("repro.core.compile"), "compile_app",
         span("core.compile", _compile_after, _compile_before)),
        (campaign, "compile_app",
         span("core.compile", _compile_after, _compile_before)),
        (EnergyEnvironment, "fail_time", counted("env.hooks")),
        (EnergyEnvironment, "commit_window", counted("env.hooks")),
        (EnergyEnvironment, "on_failure", counted("env.hooks")),
        (EnergyEnvironment, "brownout", counted("env.brownout")),
        (campaign, "diff_run", span("check.diff")),
        (campaign, "build_oracle", span("check.oracle")),
        (mod("repro.check.oracle"), "build_oracle", span("check.oracle")),
        (mod("repro.check.inject"), "probe_boundaries", span("check.probe")),
        (campaign, "ddmin", lambda fn: _shrinker("check.shrink", fn)),
        (ResultStore, "put", span("serve.store.put")),
        (ResultStore, "get", span("serve.store.get", _get_after)),
        (campaign, "unit_key", span("serve.keys")),
        (campaign, "program_digest", span("serve.keys")),
        (Checkpoint, "append", span("serve.checkpoint.append")),
        (BatchScheduler, "run", span("serve.scheduler")),
        (ServeClient, "submit", span("serve.http.submit")),
        (ServeClient, "status", span("serve.http.status")),
        (ServeClient, "results", span("serve.http.results")),
        (ServeClient, "wait", span("serve.client.wait")),
        (JobManager, "submit", span("serve.api.submit")),
        (FleetHandle, "open", span("fleet.open", _open_after)),
        (LeaseBoard, "lease", span("fleet.lease", _lease_after)),
        (LeaseBoard, "renew", span("fleet.renew")),
        (LeaseBoard, "complete", span("fleet.complete", _complete_after)),
        (mod("repro.obs.series"), "record_campaign_point", span("obs.series")),
    ]


def install(run_id: str) -> None:
    """Install every wrapper in this process (for the rest of its life)."""
    global _TRACER, _ORIGINAL_RUN_SHARD
    import repro.serve.scheduler as scheduler

    _TRACER = Tracer(run_id)
    # a forked pool worker starts with empty records of its own
    os.register_at_fork(after_in_child=_TRACER._fresh)
    for owner, attr, factory in _targets():
        setattr(owner, attr, factory(getattr(owner, attr)))
    _ORIGINAL_RUN_SHARD = scheduler._run_shard
    scheduler._run_shard = _traced_run_shard


def tracer() -> Tracer:
    assert _TRACER is not None, "tracing not installed"
    return _TRACER


# -- aggregation -----------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(
    payloads: List[dict],
    wall_s: float,
    windows: List[Tuple[float, float]],
    main: Tuple[int, int],
) -> Dict[str, float]:
    """Per-layer metrics from every process's trace records.

    ``main`` is the (pid, thread) that issued the timed calls and
    ``windows`` the timed phases on it; the ledger splits ``wall_s``
    over the self time of that thread's spans inside the windows.
    """
    spans: List[tuple] = []
    calls: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for p in payloads:
        spans.extend(tuple(s) for s in p["spans"])
        for name, (n, s, m) in p["calls"].items():
            acc = calls.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += s
            if p.get("pid") == main[0]:
                acc[2] += m
        for name, n in p["counts"].items():
            counts[name] = counts.get(name, 0) + n

    self_s: Dict[str, float] = {}
    incl_s: Dict[str, float] = {}
    n_spans: Dict[str, int] = {}
    ledger = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        name, dur = s[_NAME], s[_END] - s[_START]
        own = dur - s[_CHILD]
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + dur
        n_spans[name] = n_spans.get(name, 0) + 1
        if (s[_PID], s[_TID]) == main and any(
            a <= s[_START] < b for a, b in windows
        ):
            ledger[_layer(name)] += own
    for name, (_, _, main_s) in calls.items():
        ledger[_layer(name)] += main_s

    def own(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def num(name: str) -> int:
        return n_spans.get(name, 0)

    hooks = calls.get("env.hooks", [0, 0.0, 0.0])
    events = counts.get("kernel.sim_events", 0)
    gets = num("serve.store.get")
    completes = num("fleet.complete")
    completed_units = counts.get("fleet.completed_units", 0)
    http = ("serve.http.submit", "serve.http.status", "serve.http.results")
    out = {
        "kernel.exec.s": own("kernel.exec"),
        "kernel.exec.runs": num("kernel.exec"),
        "kernel.exec.us_per_event": (
            own("kernel.exec") * 1e6 / events if events else 0.0
        ),
        "kernel.sim_events": events,
        "vm.lower.s": own("vm.lower"),
        "vm.lower.calls": num("vm.lower"),
        "core.compile.s": own("core.compile"),
        "core.compile.misses": counts.get("core.compile.misses", 0),
        "env.hooks.s": hooks[1],
        "env.hooks.calls": hooks[0],
        "env.brownouts": calls.get("env.brownout", [0])[0],
        "check.diff.s": own("check.diff"),
        "check.diff.calls": num("check.diff"),
        "check.oracle.s": own("check.oracle"),
        "check.probe.s": own("check.probe"),
        "check.shrink.s": own("check.shrink"),
        "check.shrink.incl_s": incl_s.get("check.shrink", 0.0),
        "check.shrink.evals": counts.get("check.shrink.evals", 0),
        "serve.store.put.s": own("serve.store.put"),
        "serve.store.puts": num("serve.store.put"),
        "serve.store.get.s": own("serve.store.get"),
        "serve.store.gets": gets,
        "serve.store.hit_ratio": (
            counts.get("serve.store.hits", 0) / gets if gets else 0.0
        ),
        "serve.keys.s": own("serve.keys"),
        "serve.checkpoint.append.s": own("serve.checkpoint.append"),
        "serve.scheduler.wait.s": sum(
            s[_END] - s[_START] - s[_CHILD] for s in spans
            if s[_NAME] == "serve.scheduler" and s[_PID] == main[0]
        ),
        "serve.scheduler.shards": counts.get("serve.scheduler.shards", 0),
        "serve.client.poll_wait.s": own("serve.client.wait"),
        "serve.http.requests": sum(num(n) for n in http),
        "serve.http.s": own(*http),
        "serve.api.submit.s": own("serve.api.submit"),
        "fleet.lease.calls": num("fleet.lease"),
        "fleet.complete.calls": completes,
        "fleet.complete.per_unit": (
            completes / completed_units if completed_units else 0.0
        ),
        "fleet.board.s": own("fleet.lease", "fleet.renew", "fleet.complete"),
        "fleet.first_lease_wait.s": counts.get("fleet.first_lease_wait.s", 0.0),
        "fleet.requeued_units": counts.get("fleet.requeued_units", 0),
        "obs.series.s": own("obs.series"),
        "unattributed.s": wall_s - sum(ledger.values()),
        "trace.wall.s": wall_s,
    }
    for layer in LAYERS:
        out[f"ledger.{layer}.s"] = ledger[layer]
    return out

