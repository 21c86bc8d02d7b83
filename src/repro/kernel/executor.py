"""The intermittent executor: drives a runtime under power failures.

The executor owns the passage of time and energy.  A runtime exposes a
step generator (:meth:`~repro.runtimes.base.TaskRuntime.start`); each
yielded :class:`~repro.kernel.stats.Step` is charged against the clock
and the energy meter *before* its effects are applied — the interpreter
applies a step's effects only when the executor asks for the next step,
so a power failure inside a step window makes the step vanish entirely
(all-or-nothing, like an instruction that never retired).  On the VM
path every runtime carries its compiled bytecode (:mod:`repro.vm`),
and :meth:`IntermittentExecutor._run_vm` steps that instruction list
instead, with the same charging rules; a reboot there is a jump to
the dispatch instruction at pc 0.

Two failure sources can interrupt a step:

* the *timer* (:class:`~repro.kernel.power.FailureModel`) — the paper's
  emulated soft resets; the device reboots immediately;
* *energy exhaustion* — an
  :class:`~repro.env.environment.EnergyEnvironment` failure model
  (``energy_coupled = True``) meters a capacitor against a harvest
  source: the executor asks it for the brown-out instant inside each
  step window (``fail_time``), commits the survived portion
  (``commit_window``) and lets it integrate the hysteresis dark period
  on reboot (``on_failure``) — identically on the generator and VM
  paths.

On every failure the executor clears volatile memory, charges the boot
cost, notifies the persistent timekeeper of the dark period, and
restarts the runtime from its committed state.  A task that fails too
many consecutive times without any commit raises
:class:`~repro.errors.NonTermination` (section 3.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import NonTermination, ReproError
from repro.hw import trace as T
from repro.hw.mcu import Machine
from repro.ir.costs import power_table
from repro.kernel.power import FailureModel, NoFailures
from repro.kernel.stats import BOOT, Metrics, RunStats, Step
from repro.obs import metrics as obs_metrics


@dataclass
class RunResult:
    """Everything a single run produced."""

    metrics: Metrics
    stats: RunStats
    completed: bool
    died_dark: bool = False  # energy environment: charge never recovered


class IntermittentExecutor:
    """Runs one runtime instance to completion (or death).

    Parameters
    ----------
    failure_model:
        timer-driven reset schedule (use :class:`NoFailures` for
        continuous power), or an energy environment whose capacitor
        decides when the device browns out.
    max_active_time_us:
        safety valve against runaway experiments.
    nontermination_limit:
        consecutive power failures without a task commit before the
        run is declared non-terminating.
    step_observer:
        optional callback invoked as ``step_observer(now_us, step)``
        for every runtime-yielded step *before* it is charged.  The
        fault-injection checker uses this to discover the step/commit
        boundaries of a run (the candidate failure-injection points);
        the boot step is not reported.
    """

    def __init__(
        self,
        failure_model: Optional[FailureModel] = None,
        max_active_time_us: float = 600_000_000.0,
        nontermination_limit: int = 2000,
        step_observer: Optional[Callable[[float, Step], None]] = None,
    ) -> None:
        self.failure_model = failure_model or NoFailures()
        self.max_active_time_us = max_active_time_us
        self.nontermination_limit = nontermination_limit
        self.step_observer = step_observer

    # -- main loop ----------------------------------------------------------------

    def run(self, runtime) -> RunResult:
        """Execute ``runtime`` until it halts, dies dark, or misbehaves."""
        env = (
            self.failure_model
            if getattr(self.failure_model, "energy_coupled", False)
            else None
        )
        code = getattr(runtime, "_vm", None)
        if code is not None:
            return self._run_vm(runtime, code)
        machine: Machine = runtime.machine
        stats = RunStats()
        power = power_table(machine.cost, machine.peripherals)
        self.failure_model.reset()

        next_reset = math.inf
        failures_since_commit = 0
        died_dark = False
        dead = False  # set by reboot() when the dark period never ends

        def emit_failure(step_category: str) -> None:
            """Record a power failure, attributed to the interrupted work."""
            machine.trace.emit(
                machine.now_us,
                T.POWER_FAILURE,
                task=runtime.current_task_name(),
                step_category=step_category,
            )

        # loop-invariant lookups, resolved once per run: charge_window
        # executes once per yielded step
        power_get = power.get
        cpu_mw = machine.cost.power_cpu_mw
        clock_advance = machine.clock.advance
        meter_add_power = machine.meter.add_power
        stats_charge = stats.charge
        # observability hook: None in the common case, so each charged
        # step pays exactly one ``is not None`` test (the obs hook's
        # zero-overhead contract — see DESIGN.md)
        recorder = machine.trace.recorder

        def charge_window(step: Step) -> bool:
            """Charge a step; returns False when a failure truncated it.

            Advances the clock, meters energy, and (in an energy
            environment) charges/discharges its capacitor.
            """
            nonlocal next_reset
            draw_mw = power_get(step.category, cpu_mw)
            start = machine.now_us
            end = start + step.duration_us

            fail_at = next_reset
            efail = math.inf
            if env is not None:
                efail = env.fail_time(start, step.duration_us, draw_mw)
                if efail < fail_at:
                    fail_at = efail

            if fail_at < end:
                executed = max(0.0, fail_at - start)
                clock_advance(executed)
                meter_add_power(step.category, draw_mw, executed)
                if env is not None:
                    env.commit_window(start, executed, draw_mw)
                    if efail < next_reset:
                        env.brownout()
                stats_charge(step, executed_us=executed)
                if recorder is not None:
                    recorder.on_step(step, executed, draw_mw * executed * 1e-3)
                return False

            clock_advance(step.duration_us)
            meter_add_power(step.category, draw_mw, step.duration_us)
            if env is not None:
                env.commit_window(start, step.duration_us, draw_mw)
            stats_charge(step)
            if recorder is not None:
                recorder.on_step(
                    step,
                    step.duration_us,
                    draw_mw * step.duration_us * 1e-3,
                )
            return True

        def reboot(first: bool) -> bool:
            """Dark period + boot charge; returns False if boot failed."""
            nonlocal next_reset, dead
            if not first:
                dark_us = 0.0
                if env is not None:
                    dark_us = env.on_failure(machine.now_us)
                if math.isinf(dark_us):
                    dead = True
                    return False
                machine.clock.advance(dark_us)
                stats.dark_time_us += dark_us
                machine.timekeeper.notify_dark_period(dark_us)
                machine.power_cycle()
                runtime.on_reboot()
            next_reset = self.failure_model.schedule_next(machine.now_us)
            machine.trace.emit(machine.now_us, T.BOOT)
            boot_step = Step(machine.cost.boot_us, BOOT, "boot")
            return charge_window(boot_step)

        # -- initial boot (retrying if the boot window itself fails) -----
        first = True
        while True:
            if reboot(first):
                break
            first = False
            if dead:
                died_dark = True
                break
            if env is None and math.isinf(next_reset):
                raise ReproError("initial boot failed with no failure model")
            stats.power_failures += 1
            emit_failure("boot")
            failures_since_commit += 1
            if failures_since_commit > self.nontermination_limit:
                raise NonTermination(runtime.current_task_name(), failures_since_commit)

        completed = False
        # hoisted out of the per-step loop (hundreds of thousands of
        # iterations per campaign): bound methods and loop-invariant
        # attribute loads
        commit_count = machine.trace.count
        observer = self.step_observer
        max_active = self.max_active_time_us
        while not completed and not died_dark:
            gen: Iterator[Step] = runtime.start()
            interrupted = False
            last_commits = commit_count(T.TASK_COMMIT)
            interrupted_step: Optional[Step] = None
            for step in gen:
                commits = commit_count(T.TASK_COMMIT)
                if commits != last_commits:
                    failures_since_commit = 0
                    last_commits = commits
                if observer is not None:
                    observer(machine.now_us, step)
                if not charge_window(step):
                    interrupted = True
                    interrupted_step = step
                    break
                if stats.active_time_us > max_active:
                    raise ReproError(
                        f"run exceeded max_active_time_us="
                        f"{self.max_active_time_us}; runaway experiment?"
                    )
            if commit_count(T.TASK_COMMIT) != last_commits:
                failures_since_commit = 0

            if not interrupted:
                completed = True
                break

            stats.power_failures += 1
            emit_failure(
                interrupted_step.category if interrupted_step else "cpu"
            )
            failures_since_commit += 1
            if failures_since_commit > self.nontermination_limit:
                raise NonTermination(
                    runtime.current_task_name(), failures_since_commit
                )
            while not reboot(first=False):
                if dead:
                    died_dark = True
                    break
                stats.power_failures += 1
                emit_failure("boot")
                failures_since_commit += 1
                if failures_since_commit > self.nontermination_limit:
                    raise NonTermination(
                        runtime.current_task_name(), failures_since_commit
                    )

        stats.task_commits = machine.trace.count(T.TASK_COMMIT)
        metrics = self._build_metrics(runtime, machine, stats, completed)
        if recorder is not None:
            recorder.finish(metrics, machine.trace)
        ambient = obs_metrics.ambient()
        if ambient is not None:
            obs_metrics.fold_run(ambient, metrics, machine.trace)
            if env is not None:
                c = ambient.counters
                for key, value in env.counters().items():
                    c[key] = c.get(key, 0) + value
        return RunResult(
            metrics=metrics, stats=stats, completed=completed, died_dark=died_dark
        )

    # -- the VM stepping loop -------------------------------------------------------

    def _run_vm(self, runtime, code) -> RunResult:
        """Step the runtime's bytecode instead of its step generator.

        Observationally identical to :meth:`run` on the same runtime:
        same trace events, metrics, NV state and error behaviour.  The
        only machine state of its own is the local ``pc``; every run
        and every reboot starts at the dispatch instruction (pc 0),
        which re-reads the committed task cursor.  The hot loop
        touches only preresolved instruction tuples and plain dicts —
        no generator resumption, no attribute chases, and the
        zero-cost obs contract (a single ``is not None`` test per
        charged step) is preserved.
        """
        machine: Machine = runtime.machine
        stats = RunStats()
        self.failure_model.reset()
        schedule_next = self.failure_model.schedule_next
        env = (
            self.failure_model
            if getattr(self.failure_model, "energy_coupled", False)
            else None
        )

        trace = machine.trace
        emit = trace.emit
        commit_count = trace.count
        recorder = trace.recorder
        observer = self.step_observer
        counters = stats._counters
        meter_get = machine.meter._by_category.get
        meter_cat = machine.meter._by_category
        clock = machine.clock
        max_active = self.max_active_time_us
        limit = self.nontermination_limit

        boot_step = Step(machine.cost.boot_us, BOOT, "boot")
        boot_draw = machine.cost.power_boot_mw
        boot_dur = boot_step.duration_us
        boot_energy = boot_draw * boot_dur * 1e-3

        now = clock.now_us
        next_reset = math.inf
        failures_since_commit = 0
        died_dark = False
        dead = False  # set by reboot() when the dark period never ends
        ops = 0
        # active time accumulates in a local; the try/finally below
        # folds it into the counter dict on every exit path
        active = 0.0

        def emit_failure(step_category: str) -> None:
            emit(
                now,
                T.POWER_FAILURE,
                task=runtime.current_task_name(),
                step_category=step_category,
            )

        def charge_boot() -> bool:
            """Charge the boot window; False when a failure truncated it."""
            nonlocal now, active
            start = now
            end = now + boot_dur
            fail_at = next_reset
            efail = math.inf
            if env is not None:
                efail = env.fail_time(start, boot_dur, boot_draw)
                if efail < fail_at:
                    fail_at = efail
            if fail_at < end:
                executed = fail_at - now
                if executed < 0.0:
                    executed = 0.0
                now += executed
                meter_cat["boot"] = meter_get("boot", 0.0) + (
                    boot_draw * executed * 1e-3
                )
                counters["time_us.boot"] += executed
                active += executed
                if env is not None:
                    env.commit_window(start, executed, boot_draw)
                    if efail < next_reset:
                        env.brownout()
                if recorder is not None:
                    recorder.on_step(
                        boot_step, executed, boot_draw * executed * 1e-3
                    )
                return False
            now = end
            meter_cat["boot"] = meter_get("boot", 0.0) + boot_energy
            counters["time_us.boot"] += boot_dur
            active += boot_dur
            if env is not None:
                env.commit_window(start, boot_dur, boot_draw)
            if recorder is not None:
                recorder.on_step(boot_step, boot_dur, boot_energy)
            return True

        def reboot(first: bool) -> bool:
            nonlocal next_reset, now, dead
            if not first:
                dark_us = 0.0
                if env is not None:
                    dark_us = env.on_failure(now)
                    if math.isinf(dark_us):
                        dead = True
                        return False
                    now += dark_us
                    clock._now_us = now
                stats.dark_time_us += dark_us
                machine.timekeeper.notify_dark_period(dark_us)
                machine.power_cycle()
                runtime.on_reboot()
            next_reset = schedule_next(now)
            emit(now, T.BOOT)
            return charge_boot()

        # -- initial boot (retrying if the boot window itself fails) -----
        first = True
        while True:
            if reboot(first):
                break
            first = False
            if dead:
                died_dark = True
                break
            if env is None and math.isinf(next_reset):
                raise ReproError("initial boot failed with no failure model")
            stats.power_failures += 1
            emit_failure("boot")
            failures_since_commit += 1
            if failures_since_commit > limit:
                raise NonTermination(
                    runtime.current_task_name(), failures_since_commit
                )

        completed = False
        last_commits = commit_count(T.TASK_COMMIT)
        pc = 0  # the dispatch instruction: reads the committed cursor
        while not died_dark:
            dur, step, tk, cat, en, eff, draw = code[pc]
            if dur is None:
                # control instruction: free, just compute the next pc
                ops += 1
                pc = eff(now)
                if pc >= 0:
                    continue
                completed = True
                break
            if observer is not None:
                observer(now, step)
            end = now + dur
            fail_at = next_reset
            efail = math.inf
            if env is not None:
                efail = env.fail_time(now, dur, draw)
                if efail < fail_at:
                    fail_at = efail
            if fail_at < end:
                # -- power failure truncates the step: no effects ------
                executed = fail_at - now
                if executed < 0.0:
                    executed = 0.0
                start = now
                now += executed
                clock._now_us = now
                meter_cat[cat] = meter_get(cat, 0.0) + draw * executed * 1e-3
                counters[tk] += executed
                active += executed
                if env is not None:
                    env.commit_window(start, executed, draw)
                    if efail < next_reset:
                        env.brownout()
                if recorder is not None:
                    recorder.on_step(step, executed, draw * executed * 1e-3)

                commits = commit_count(T.TASK_COMMIT)
                if commits != last_commits:
                    failures_since_commit = 0
                    last_commits = commits
                stats.power_failures += 1
                emit_failure(step.category)
                failures_since_commit += 1
                if failures_since_commit > limit:
                    raise NonTermination(
                        runtime.current_task_name(), failures_since_commit
                    )
                while not reboot(first=False):
                    if dead:
                        died_dark = True
                        break
                    stats.power_failures += 1
                    emit_failure("boot")
                    failures_since_commit += 1
                    if failures_since_commit > limit:
                        raise NonTermination(
                            runtime.current_task_name(), failures_since_commit
                        )
                if died_dark:
                    break
                pc = 0  # reboot: resume from the committed cursor
                continue
            # -- full charge, then the instruction's effects -----------
            if env is not None:
                env.commit_window(now, dur, draw)
            now = end
            try:
                meter_cat[cat] += en
            except KeyError:
                meter_cat[cat] = en
            counters[tk] += dur
            active += dur
            if recorder is not None:
                recorder.on_step(step, dur, en)
            ops += 1
            try:
                pc = eff(now)
            except BaseException:
                clock._now_us = now  # keep now_us honest for error paths
                raise
            if active > max_active:
                clock._now_us = now
                raise ReproError(
                    f"run exceeded max_active_time_us="
                    f"{self.max_active_time_us}; runaway experiment?"
                )
            if pc < 0:
                completed = True
                break

        clock._now_us = now
        counters["time_us.active"] += active
        stats.task_commits = commit_count(T.TASK_COMMIT)
        metrics = self._build_metrics(runtime, machine, stats, completed)
        if recorder is not None:
            recorder.finish(metrics, trace)
        ambient = obs_metrics.ambient()
        if ambient is not None:
            obs_metrics.fold_run(ambient, metrics, trace)
            c = ambient.counters
            c["vm.runs"] = c.get("vm.runs", 0) + 1
            c["vm.ops_dispatched"] = c.get("vm.ops_dispatched", 0) + ops
            # per-run attribution: did this run's bytecode come from the
            # compile cache (recycled instance) or a fresh lowering?
            if getattr(runtime, "_vm_cached", False):
                c["vm.compile_cache_hits"] = (
                    c.get("vm.compile_cache_hits", 0) + 1
                )
            else:
                c["vm.compile_cache_misses"] = (
                    c.get("vm.compile_cache_misses", 0) + 1
                )
            if env is not None:
                for key, value in env.counters().items():
                    c[key] = c.get(key, 0) + value
        return RunResult(
            metrics=metrics,
            stats=stats,
            completed=completed,
            died_dark=died_dark,
        )

    # -- metrics assembly -----------------------------------------------------------

    @staticmethod
    def _build_metrics(
        runtime, machine: Machine, stats: RunStats, completed: bool
    ) -> Metrics:
        tr = machine.trace
        return Metrics(
            runtime=runtime.name,
            app=runtime.program_name,
            completed=completed,
            total_time_us=machine.now_us,
            active_time_us=stats.active_time_us,
            dark_time_us=stats.dark_time_us,
            app_time_us=stats.useful_time_us,
            overhead_time_us=stats.overhead_time_us,
            boot_time_us=stats.boot_time_us,
            power_failures=stats.power_failures,
            task_commits=stats.task_commits,
            io_executions=tr.count(T.IO_EXEC),
            io_reexecutions=tr.io_reexecutions(),
            io_skips=tr.count(T.IO_SKIP) + tr.count(T.IO_SKIP_BLOCK),
            dma_executions=tr.count(T.DMA_EXEC),
            dma_reexecutions=tr.dma_reexecutions(),
            dma_skips=tr.count(T.DMA_SKIP),
            energy_uj=machine.meter.total_uj,
            energy_by_category=machine.meter.by_category(),
            memory_footprint=machine.memory_footprint(),
            text_proxy=runtime.text_proxy(),
        )
