"""Integration-grade unit tests for the intermittent executor."""

import pytest

from repro import fastpath
from repro.core.api import ProgramBuilder
from repro.core.run import nv_state, run_app, run_program
from repro.env import parse_env
from repro.errors import NonTermination
from repro.hw import trace as T
from repro.kernel.power import NoFailures, ScriptedFailures, UniformFailureModel
from repro.kernel.stats import APP, BOOT, IO, OVERHEAD, STEP_KINDS
from tests.conftest import on_sim_path


def counter_program(work_cycles=1000, tasks=2):
    """Chain of tasks, each bumping an NV counter once committed."""
    b = ProgramBuilder("counter")
    b.nv("count", dtype="int32")
    names = [f"t{i}" for i in range(tasks)]
    for i, name in enumerate(names):
        with b.task(name) as t:
            t.compute(work_cycles, "work")
            t.assign("count", t.v("count") + 1)
            if i + 1 < len(names):
                t.transition(names[i + 1])
            else:
                t.halt()
    return b.build()


class TestContinuousExecution:
    def test_completes_and_counts_commits(self):
        result = run_program(counter_program(), runtime="easeio",
                             failure_model=NoFailures())
        assert result.completed
        assert result.metrics.power_failures == 0
        assert result.metrics.task_commits == 2
        assert nv_state(result, ("count",))["count"] == 2

    def test_clock_advances_monotonically(self):
        result = run_program(counter_program(), runtime="alpaca",
                             failure_model=NoFailures())
        m = result.metrics
        assert m.total_time_us > 0
        assert m.total_time_us == pytest.approx(m.active_time_us)  # no dark

    def test_boot_cost_charged_once(self):
        result = run_program(counter_program(), runtime="alpaca",
                             failure_model=NoFailures())
        assert result.metrics.boot_time_us == pytest.approx(700.0)


class TestScriptedInterruption:
    def test_failure_restarts_interrupted_task_only(self):
        # failure mid-second-task: t0's commit must survive
        prog = counter_program(work_cycles=1000, tasks=2)
        # t0 spans roughly [700, 1700+]us; schedule a failure at 2.5ms
        result = run_program(prog, runtime="easeio",
                             failure_model=ScriptedFailures([2500.0]))
        assert result.completed
        assert result.metrics.power_failures == 1
        # the counter is bumped exactly twice: commits are atomic
        assert nv_state(result, ("count",))["count"] == 2

    def test_uncommitted_work_vanishes(self):
        prog = counter_program(work_cycles=1000, tasks=1)
        result = run_program(prog, runtime="easeio",
                             failure_model=ScriptedFailures([900.0]))
        assert result.completed
        assert nv_state(result, ("count",))["count"] == 1  # not 2

    def test_multiple_failures(self):
        prog = counter_program(work_cycles=3000, tasks=3)
        result = run_program(
            prog, runtime="easeio",
            failure_model=ScriptedFailures([1000.0, 2500.0, 6000.0, 9000.0]),
        )
        assert result.completed
        assert result.metrics.power_failures == 4
        assert nv_state(result, ("count",))["count"] == 3

    def test_wasted_time_accounted(self):
        prog = counter_program(work_cycles=2000, tasks=1)
        no_fail = run_program(prog, runtime="alpaca", failure_model=NoFailures())
        with_fail = run_program(
            counter_program(work_cycles=2000, tasks=1), runtime="alpaca",
            failure_model=ScriptedFailures([1500.0]),
        )
        assert with_fail.metrics.active_time_us > no_fail.metrics.active_time_us


class TestNonTermination:
    def test_task_larger_than_interval_never_finishes(self):
        # 30 ms of work, failures every 5-6 ms: the task cannot complete
        prog = counter_program(work_cycles=30_000, tasks=1)
        with pytest.raises(NonTermination, match="t0"):
            run_program(
                prog, runtime="alpaca",
                failure_model=UniformFailureModel(low_ms=5, high_ms=6, seed=0),
                nontermination_limit=50,
            )

    def test_limit_is_per_commit(self):
        # plenty of failures overall, but each task fits the interval
        prog = counter_program(work_cycles=1500, tasks=6)
        result = run_program(
            prog, runtime="alpaca",
            failure_model=UniformFailureModel(low_ms=2, high_ms=4, seed=0),
            nontermination_limit=50,
        )
        assert result.completed

    def test_always_failing_schedule_raises(self):
        # a scripted reset every 100 us can never reach the first
        # commit; the executor must give up at the limit, not spin
        prog = counter_program(work_cycles=2000, tasks=1)
        times = [100.0 * (i + 1) for i in range(100)]
        with pytest.raises(NonTermination, match="t0"):
            run_program(
                prog, runtime="easeio",
                failure_model=ScriptedFailures(times),
                nontermination_limit=20,
            )


class TestStepObserver:
    def test_observer_sees_every_step_boundary(self):
        observed = []
        result = run_program(
            counter_program(), runtime="easeio",
            failure_model=NoFailures(),
            step_observer=lambda now, step: observed.append((now, step)),
        )
        assert result.completed
        assert observed, "observer never called"
        times = [now for now, _ in observed]
        assert times == sorted(times)
        # boot is charged before the first runtime step and not observed
        assert times[0] >= 700.0
        durations = {step.duration_us for _, step in observed}
        assert all(d > 0 for d in durations)


class TestFailureAttribution:
    def test_power_failure_events_carry_task_and_category(self):
        result = run_program(
            counter_program(work_cycles=2000, tasks=1), runtime="easeio",
            failure_model=ScriptedFailures([1500.0]),
        )
        assert result.completed
        trace = result.runtime.machine.trace
        failures = trace.of_kind("power_failure")
        assert len(failures) == 1
        assert failures[0].detail.get("task") == "t0"
        assert failures[0].detail.get("step_category") in (
            "cpu", "fram", "boot",
        )


def assert_counted_by_trace(result):
    """The counting rule: a run's failures and commits are its trace's."""
    m = result.metrics
    trace = result.runtime.machine.trace
    assert m.power_failures == trace.count(T.POWER_FAILURE) == len(trace.failures)
    assert m.task_commits == trace.count(T.TASK_COMMIT)
    if trace.enabled:
        assert m.power_failures == len(trace.of_kind(T.POWER_FAILURE))
        assert m.task_commits == len(trace.of_kind(T.TASK_COMMIT))


def run_on_each_path(program_fn, env_spec, **kwargs):
    """Run under a fresh energy environment on every execution path.

    Energy failures depend only on the workload's draw against the
    source, so every path must report the same metrics, each counted
    off its own trace; returns one path's result after checking that.
    """
    results = []
    for path in fastpath.PATHS:
        with on_sim_path(path):
            result = run_program(
                program_fn(), failure_model=parse_env(env_spec), **kwargs
            )
            assert_counted_by_trace(result)
            results.append(result)
    first = results[0]
    for other in results[1:]:
        assert other.metrics == first.metrics
        assert other.died_dark == first.died_dark
    return first


class TestHarvestingMode:
    """Energy-coupled failures from a ``constant:`` harvest source."""

    def test_sufficient_harvest_behaves_like_mains(self):
        result = run_on_each_path(
            counter_program, "constant:level_mw=100", runtime="easeio",
        )
        assert result.completed
        assert result.metrics.power_failures == 0
        assert result.metrics.dark_time_us == 0

    def test_deficit_supply_causes_duty_cycling(self):
        # draw ~1.2 mW vs 0.5 mW harvested: the capacitor drains, the
        # device browns out and recharges
        result = run_on_each_path(
            lambda: counter_program(work_cycles=6_000, tasks=5),
            "constant:level_mw=0.5,cap_uf=3,start_v=2.8",
            runtime="alpaca",
            nontermination_limit=500,
        )
        assert result.completed
        assert result.metrics.power_failures > 0
        assert result.metrics.dark_time_us > 0
        assert result.metrics.total_time_us > result.metrics.active_time_us

    def test_zero_harvest_dies_dark(self):
        result = run_on_each_path(
            lambda: counter_program(work_cycles=6_000, tasks=5),
            "constant:level_mw=0,cap_uf=3,start_v=2.8",
            runtime="alpaca",
        )
        assert not result.completed
        assert result.died_dark

    def test_energy_metered_by_category(self):
        result = run_program(
            counter_program(), runtime="easeio", failure_model=NoFailures()
        )
        cats = result.metrics.energy_by_category
        assert cats.get("cpu", 0) > 0
        assert cats.get("boot", 0) > 0


class TestDeterminism:
    def test_same_seeds_same_result(self):
        def go():
            return run_program(
                counter_program(work_cycles=4000, tasks=3), runtime="easeio",
                failure_model=UniformFailureModel(seed=11), seed=2,
            ).metrics

        a, b = go(), go()
        assert a.active_time_us == b.active_time_us
        assert a.power_failures == b.power_failures
        assert a.energy_uj == b.energy_uj

    def test_different_failure_seeds_differ(self):
        def go(seed):
            return run_program(
                counter_program(work_cycles=9000, tasks=3), runtime="easeio",
                failure_model=UniformFailureModel(seed=seed), seed=2,
            ).metrics.power_failures

        counts = {go(s) for s in range(12)}
        assert len(counts) > 1


class TestBootRetry:
    def test_boot_window_failures_are_survivable(self):
        """Resets that land inside the boot window itself do not wedge
        the executor: it retries boots until one completes."""
        prog = counter_program(work_cycles=500, tasks=1)
        # several failures inside the first 700 us boot window
        result = run_program(
            prog, runtime="alpaca",
            failure_model=ScriptedFailures([200.0, 500.0, 650.0]),
        )
        assert result.completed
        assert result.metrics.power_failures == 3
        assert nv_state(result, ("count",))["count"] == 1

    def test_marginal_harvest_boot_loop(self):
        """A capacitor that starts too low to cover the boot browns out
        inside the boot window, recharges dark, retries the boot, and
        then duty-cycles through the program to completion."""
        # boot nets (0.9 - 0.4) mW * 700 us = 0.35 uJ against 0.09 uJ
        # usable at 1.85 V; a recharge to v_on then leaves ~2.3 uJ
        result = run_on_each_path(
            lambda: counter_program(work_cycles=1800, tasks=3),
            "constant:level_mw=0.4,cap_uf=1,start_v=1.85",
            runtime="alpaca",
            nontermination_limit=500,
        )
        assert result.completed
        failures = result.runtime.machine.trace.of_kind("power_failure")
        assert failures[0].detail["step_category"] == "boot"
        assert len(failures) > 1
        assert result.metrics.dark_time_us > 0


@pytest.mark.usefixtures("sim_path")
class TestTraceCounting:
    """``Metrics`` takes power failures and task commits off the trace."""

    @pytest.mark.parametrize("trace_events", [True, False])
    def test_scripted_multi_failure_run(self, trace_events):
        result = run_program(
            counter_program(work_cycles=3000, tasks=3), runtime="easeio",
            failure_model=ScriptedFailures([1000.0, 2500.0, 6000.0, 9000.0]),
            trace_events=trace_events,
        )
        assert result.completed
        assert result.metrics.power_failures == 4
        assert result.metrics.task_commits == 3
        assert_counted_by_trace(result)

    def test_boot_window_failures(self):
        # TestBootRetry's scripted case: every failure lands in a boot
        result = run_program(
            counter_program(work_cycles=500, tasks=1), runtime="alpaca",
            failure_model=ScriptedFailures([200.0, 500.0, 650.0]),
        )
        assert result.completed
        assert result.metrics.power_failures == 3
        failures = result.runtime.machine.trace.failures
        assert [f.step_category for f in failures] == ["boot"] * 3
        assert_counted_by_trace(result)

    def test_run_that_dies_dark(self):
        result = run_program(
            counter_program(work_cycles=6_000, tasks=5), runtime="alpaca",
            failure_model=parse_env("constant:level_mw=0,cap_uf=3,start_v=2.8"),
        )
        assert result.died_dark and not result.completed
        assert result.metrics.power_failures == 1
        assert result.metrics.task_commits == 0
        assert_counted_by_trace(result)


@pytest.mark.usefixtures("sim_path")
class TestStepAccounting:
    """``Metrics`` sums the charged step time per kind, in charge order."""

    def test_charges_sum_per_kind(self):
        steps = []
        result = run_app(
            "uni_temp", "easeio", failure_model=NoFailures(), seed=1,
            step_observer=lambda now, step: steps.append(step),
        )
        boot_us = result.runtime.machine.cost.boot_us
        by_kind = dict.fromkeys(STEP_KINDS, 0.0)
        by_kind[BOOT] = active = boot_us  # charged first, never observed
        for step in steps:
            by_kind[step.kind] += step.duration_us
            active += step.duration_us
        assert all(by_kind[kind] > 0 for kind in STEP_KINDS)
        m = result.metrics
        assert m.app_time_us == by_kind[APP] + by_kind[IO]
        assert m.overhead_time_us == by_kind[OVERHEAD]
        assert m.boot_time_us == by_kind[BOOT]
        assert m.active_time_us == active == m.total_time_us

    def test_truncated_step_charges_its_executed_part(self):
        fail_at = 850.0  # inside the first 200 us compute slice
        observed = []
        result = run_program(
            counter_program(work_cycles=1000, tasks=1), runtime="alpaca",
            failure_model=ScriptedFailures([fail_at]),
            step_observer=lambda now, step: observed.append((now, step)),
        )
        boot_us = result.runtime.machine.cost.boot_us
        by_kind = dict.fromkeys(STEP_KINDS, 0.0)
        by_kind[BOOT] = active = boot_us
        cut = 0
        for now, step in observed:
            if now < fail_at < now + step.duration_us:
                cut += 1
                by_kind[step.kind] += fail_at - now
                active += fail_at - now
                by_kind[BOOT] += boot_us  # the reboot after the failure
                active += boot_us
            else:
                by_kind[step.kind] += step.duration_us
                active += step.duration_us
        assert cut == 1
        m = result.metrics
        assert m.power_failures == 1
        assert m.app_time_us == by_kind[APP] + by_kind[IO]
        assert m.overhead_time_us == by_kind[OVERHEAD]
        assert m.boot_time_us == by_kind[BOOT] == 2 * boot_us
        assert m.active_time_us == active
