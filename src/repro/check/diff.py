"""Differential verdicts: one injected run vs. the oracle.

The checks, in order:

1. **Re-execution discipline** (event-level): every ``io_exec`` marked
   ``repeat=True`` is a logical I/O instance running again.  For a
   ``Single`` site that is a violation outright; for a ``Timely`` site
   it is a violation when the previous execution is still fresh
   (younger than the annotated interval).  Exemptions, straight from
   the paper's own semantics:

   * *scope precedence* (3.3.1) — sites inside an ``IOBlock`` may be
     forced to re-execute by the block;
   * *dependence precedence* (3.3.2) — sites with producers re-execute
     when a producer did;
   * *atomicity window* — the guarded implementation cannot set the
     completion flag in the same instant as the I/O effect (the flag
     write is its own step, section 4.2).  A failure landing within
     ``atomicity_window_us`` after an execution makes one duplicate
     unavoidable for *any* flag-based implementation; such repeats are
     benign.  The window (default 50µs) is far below any reboot+retry
     path, so genuine unguarded re-execution is never excused.

   DMA repeats are *not* judged per-event: the runtime legitimately
   replays transfers whose producers re-ran, and a replayed idempotent
   copy is harmless — real damage (the WAR hazard of Figure 3) shows
   up as NV corruption, which the state checks below catch.

2. **Freshness at commit** (event-level): the dual of Timely
   re-execution — a task commit must not consume a ``Timely`` reading
   aged past its window across a real dark period without re-sampling
   (:func:`_stale_timely_checks`; fires only under energy environments,
   where outages physically age data).

3. **Effect completeness**: every oracle effect must appear in the run
   (a missing ``Always`` effect is the paper's "skipped I/O" failure
   mode).  Disabled when branches make I/O data-dependent.

4. **NV state**: for deterministic programs, bit-for-bit equality with
   the oracle; otherwise the app's own ``check_consistency`` predicate
   judges internal consistency.  A failure here with an unforced
   Private/Single DMA repeat in the trace is classified as a
   privatization break (the DMA re-read its own output), else as
   generic divergence.

When the run was executed with ``trace_events=False`` only aggregate
counters exist; per-event checks degrade gracefully (the NV checks
still run) and the verdict is marked ``check_level="counters"``.
Counter-only runs are not blind to re-execution bugs, though: the
trace's always-on failure records (power-failure time, interrupted
task/step category, distance from the last executed I/O) feed a
conservative ``Single``-re-execution screen (:func:`_counter_checks`)
that reports a violation only when no failure could possibly excuse
the counted repeats.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, List, Optional

from repro.hw import trace as T
from repro.hw.trace import Trace
from repro.kernel.executor import RunResult
from repro.check.model import RunVerdict, Schedule, SiteInfo, Violation
from repro.check.oracle import Oracle, consistency_checker, effect_set

#: repeats whose triggering failure landed this close (µs) after the
#: previous execution fall inside the unavoidable flag-write window
DEFAULT_ATOMICITY_WINDOW_US = 50.0


def _nv_equal(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return a == b


def _first_failure_after(failures: List[float], t: float) -> Optional[float]:
    for f in failures:
        if f >= t:
            return f
    return None


def _event_checks(
    trace: Trace,
    oracle: Oracle,
    schedule: Schedule,
    atomicity_window_us: float,
) -> List[Violation]:
    violations: List[Violation] = []
    failures = [e.time_us for e in trace.of_kind(T.POWER_FAILURE)]
    last_exec: Dict[object, float] = {}
    dma_suspect = False

    for event in trace.events:
        if event.kind == T.IO_EXEC:
            d = event.detail
            site = str(d.get("site"))
            key = ("io", d.get("seq"), site, d.get("loop"))
            info: Optional[SiteInfo] = oracle.sites.get(site)
            prev = last_exec.get(key)
            if (
                d.get("repeat")
                and prev is not None
                and info is not None
                and info.kind == "io"
                and not info.in_block
                and not info.producers
            ):
                fail = _first_failure_after(failures, prev)
                in_window = (
                    fail is not None
                    and fail - prev <= atomicity_window_us
                )
                if info.semantic == "Single" and not in_window:
                    violations.append(Violation(
                        kind="single_reexec",
                        site=site,
                        task=info.task,
                        time_us=event.time_us,
                        schedule=schedule,
                        detail={
                            "func": info.func,
                            "first_exec_us": prev,
                            "loop": d.get("loop"),
                        },
                    ))
                elif info.semantic == "Timely" and not in_window:
                    age_us = event.time_us - prev
                    if (
                        info.interval_us is not None
                        and age_us < info.interval_us - 1e-6
                    ):
                        violations.append(Violation(
                            kind="timely_reexec",
                            site=site,
                            task=info.task,
                            time_us=event.time_us,
                            schedule=schedule,
                            detail={
                                "func": info.func,
                                "age_us": age_us,
                                "interval_us": info.interval_us,
                                "loop": d.get("loop"),
                            },
                        ))
            last_exec[key] = event.time_us
        elif event.kind == T.DMA_EXEC:
            d = event.detail
            if d.get("phase") == "private_snapshot":
                continue
            if (
                d.get("repeat")
                and not d.get("forced")
                and d.get("semantic") in ("Private", "Single")
            ):
                dma_suspect = True

    if dma_suspect:
        # flag for the NV check's classification, not a violation per se
        violations.append(Violation(
            kind="_dma_repeat_marker",
            site=None, task=None, time_us=None, schedule=schedule,
        ))
    return violations


#: a Timely reading this much older than its interval at commit time is
#: reported; the margin keeps marginal overages (boot costs, guard
#: steps) from flaking the verdict at the freshness boundary
STALE_TIMELY_SLACK = 1.25


def _stale_timely_checks(
    trace: Trace, oracle: Oracle, schedule: Schedule
) -> List[Violation]:
    """Freshness at commit: a ``Timely`` datum must not out-age Δt.

    The re-execution checks above catch *repeats*; this is the dual
    failure mode — a runtime that checkpoints *past* a ``Timely`` site
    resumes after a long dark period and commits the pre-failure
    reading without re-sampling.  Under scripted/uniform timers the
    dark period is zero and ages stay bounded by boot costs, so the
    check is gated on an actual dark period (power failure → boot gap
    > 0): it only fires in energy environments, where
    an outage physically aged the datum — which is also what keeps
    every timer-only campaign verdict unchanged.

    Exemptions mirror the re-execution checks: sites inside an
    ``IOBlock`` and sites with producers follow scope/dependence
    precedence, so only plain ``Timely`` I/O sites are judged.
    """
    timely = [
        s for s in oracle.sites.values()
        if s.kind == "io"
        and s.semantic == "Timely"
        and s.interval_us is not None
        and not s.in_block
        and not s.producers
    ]
    if not timely:
        return []
    by_task: Dict[object, List[SiteInfo]] = {}
    for s in timely:
        by_task.setdefault(s.task, []).append(s)

    failures = [e.time_us for e in trace.of_kind(T.POWER_FAILURE)]
    boots = [e.time_us for e in trace.of_kind(T.BOOT)]
    violations: List[Violation] = []
    reported: set = set()
    last_exec: Dict[str, float] = {}

    def dark_failure_in(t_from: float, t_to: float) -> Optional[tuple]:
        """Last failure in (t_from, t_to) whose dark period was real."""
        for f in reversed(failures):
            if f <= t_from:
                break
            if f >= t_to:
                continue
            boot = _first_failure_after(boots, f)
            if boot is not None and boot - f > 1e-9:
                return f, boot - f
        return None

    for event in trace.events:
        if event.kind == T.IO_EXEC:
            last_exec[str(event.detail.get("site"))] = event.time_us
        elif event.kind == T.TASK_COMMIT:
            sites = by_task.get(event.detail.get("task"))
            if not sites:
                continue
            t_c = event.time_us
            for s in sites:
                if s.site in reported:
                    continue
                t_e = last_exec.get(s.site)
                if t_e is None or t_e > t_c:
                    continue
                age_us = t_c - t_e
                if age_us <= s.interval_us * STALE_TIMELY_SLACK:
                    continue
                dark = dark_failure_in(t_e, t_c)
                if dark is None:
                    continue
                reported.add(s.site)
                violations.append(Violation(
                    kind="timely_stale",
                    site=s.site,
                    task=s.task,
                    time_us=t_c,
                    schedule=schedule,
                    detail={
                        "func": s.func,
                        "age_us": age_us,
                        "interval_us": s.interval_us,
                        "last_exec_us": t_e,
                        "failure_us": dark[0],
                        "dark_us": dark[1],
                    },
                ))
    return violations


def _missing_effect_checks(
    trace: Trace, oracle: Oracle, schedule: Schedule
) -> List[Violation]:
    violations: List[Violation] = []
    missing = oracle.effects - effect_set(trace)
    for kind, seq, site, loop in sorted(
        missing, key=lambda k: (str(k[2]), str(k[1]), str(k[3]))
    ):
        info = oracle.sites.get(site)
        semantic = info.semantic if info else "?"
        violations.append(Violation(
            kind="always_skip" if semantic == "Always" else "io_missing",
            site=site,
            task=info.task if info else None,
            time_us=None,
            schedule=schedule,
            detail={"seq": seq, "loop": loop, "semantic": semantic},
        ))
    return violations


def _nv_checks(
    result: RunResult,
    oracle: Oracle,
    schedule: Schedule,
    dma_suspect: bool,
) -> List[Violation]:
    run_nv = result.runtime.result_state(  # type: ignore[attr-defined]
        list(oracle.result_vars)
    )
    checker = consistency_checker(oracle.app)
    if checker is not None:
        if not checker(run_nv):
            kind = "dma_privatization" if dma_suspect else "nv_divergence"
            return [Violation(
                kind=kind,
                site=None, task=None,
                time_us=result.metrics.total_time_us,
                schedule=schedule,
                detail={"check": f"repro.apps.{oracle.app}.check_consistency"},
            )]
        return []
    if oracle.deterministic:
        diverged = [
            name for name in oracle.result_vars
            if not _nv_equal(run_nv.get(name), oracle.nv.get(name))
        ]
        if diverged:
            kind = "dma_privatization" if dma_suspect else "nv_divergence"
            return [Violation(
                kind=kind,
                site=None, task=None,
                time_us=result.metrics.total_time_us,
                schedule=schedule,
                detail={"vars": diverged},
            )]
    return []


def _counters(trace: Trace) -> Dict[str, int]:
    keys = (
        T.IO_EXEC, f"{T.IO_EXEC}:repeat",
        f"{T.IO_EXEC}:Single:repeat", f"{T.IO_EXEC}:Timely:repeat",
        T.IO_SKIP, T.IO_SKIP_BLOCK,
        T.DMA_EXEC, f"{T.DMA_EXEC}:repeat", T.DMA_SKIP,
        f"{T.DMA_EXEC}:forced", f"{T.DMA_EXEC}:nbytes",
        T.PRIVATIZE, T.RESTORE, f"{T.PRIVATIZE}:nbytes",
        T.POWER_FAILURE, T.TASK_COMMIT,
    )
    return {k: trace.count(k) for k in keys if trace.count(k)}


def _counter_checks(
    trace: Trace,
    oracle: Oracle,
    schedule: Schedule,
    atomicity_window_us: float,
) -> List[Violation]:
    """Sound ``Single`` re-execution screen for counter-only runs.

    With ``trace_events=False`` there are no per-event timestamps, but
    the trace still maintains the ``io_exec:Single:repeat`` aggregate
    and the always-on :class:`~repro.hw.trace.FailureRecord` list,
    whose ``since_io_us`` measures each power failure's distance from
    the *last* executed I/O.  That is enough for a conservative
    verdict:

    * the check only applies when every ``Single`` I/O site of the
      program is unconditioned (not inside an ``IOBlock``, no
      producers) — otherwise a repeat can be a legal forced
      re-execution and we must stand down;
    * a repeat is only reportable when **zero** failures landed within
      the atomicity window of their preceding I/O: any event-excusable
      repeat requires some failure within the window of the execution
      that preceded it, and that failure's ``since_io_us`` (distance
      to the last I/O before it, which is at least as recent) is then
      within the window too.  So ``excused == 0`` proves no repeat was
      excusable, and at least one of the counted repeats is a genuine
      violation.

    The screen can miss violations (a benign in-window failure hides
    same-run unexcused repeats) but never false-positives — exactly
    the degraded-but-sound contract counters mode promises.
    """
    repeats = trace.count(f"{T.IO_EXEC}:Single:repeat")
    if not repeats:
        return []
    singles = [
        s for s in oracle.sites.values()
        if s.kind == "io" and s.semantic == "Single"
    ]
    if not singles or any(s.in_block or s.producers for s in singles):
        return []
    excused = sum(
        1 for rec in trace.failures
        if rec.since_io_us <= atomicity_window_us
    )
    if excused:
        return []
    return [Violation(
        kind="single_reexec",
        site=None,
        task=None,
        time_us=None,
        schedule=schedule,
        detail={
            "check": "counters",
            "single_repeats": repeats,
            "window_excused_failures": excused,
        },
    )]


def diff_run(
    result: RunResult,
    oracle: Oracle,
    schedule: Schedule,
    atomicity_window_us: float = DEFAULT_ATOMICITY_WINDOW_US,
) -> RunVerdict:
    """Judge one injected run against the oracle."""
    trace: Trace = result.runtime.machine.trace  # type: ignore[attr-defined]
    events_mode = trace.enabled
    violations: List[Violation] = []
    dma_suspect = False

    if events_mode:
        found = _event_checks(trace, oracle, schedule, atomicity_window_us)
        dma_suspect = any(v.kind == "_dma_repeat_marker" for v in found)
        violations.extend(v for v in found if v.kind != "_dma_repeat_marker")
        violations.extend(_stale_timely_checks(trace, oracle, schedule))
        if result.completed and not oracle.conditional_io:
            violations.extend(_missing_effect_checks(trace, oracle, schedule))
    else:
        violations.extend(
            _counter_checks(trace, oracle, schedule, atomicity_window_us)
        )

    if result.completed:
        violations.extend(_nv_checks(result, oracle, schedule, dma_suspect))
    else:
        violations.append(Violation(
            kind="incomplete",
            site=None,
            task=None,
            time_us=result.metrics.total_time_us,
            schedule=schedule,
            detail={"died_dark": result.died_dark},
        ))

    return RunVerdict(
        schedule=schedule,
        completed=result.completed,
        power_failures=result.metrics.power_failures,
        violations=tuple(violations),
        counters=_counters(trace),
        check_level="events" if events_mode else "counters",
    )
