"""End-to-end campaign tests (the checker's acceptance behaviour).

The whole module runs twice — once on the VM path and once on the
reference path — so the checker's verdicts can never silently depend
on the compile cache, the machine pool or the bytecode.
"""

import json
import os

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.serve import scheduler

pytestmark = pytest.mark.usefixtures("sim_path")

#: environment variable naming the file pool processes note pids in
_PID_LOG = "TEST_CAMPAIGN_PID_LOG"
_RUN_SHARD = scheduler._run_shard


def _run_shard_noting_pid(items):
    """The scheduler's shard runner, noting which process ran it."""
    with open(os.environ[_PID_LOG], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _RUN_SHARD(items)


@pytest.fixture(scope="module")
def easeio_report(sim_path):
    return run_campaign(CampaignConfig(app="uni_temp", runtime="easeio"))


@pytest.fixture(scope="module")
def alpaca_report(sim_path):
    return run_campaign(CampaignConfig(app="uni_temp", runtime="alpaca"))


class TestExhaustiveCampaign:
    def test_easeio_uni_temp_is_clean(self, easeio_report):
        report = easeio_report
        assert report.ok, report.render_text()
        assert report.n_runs > 100  # one run per step boundary
        assert report.n_failures_injected == report.n_runs
        assert report.by_kind == {}

    def test_alpaca_uni_temp_violates_timely(self, alpaca_report):
        report = alpaca_report
        assert not report.ok
        assert report.by_kind.get("timely_reexec", 0) >= 1
        assert report.total_violations >= 1

    def test_minimal_reproducer_attached(self, alpaca_report):
        sched = alpaca_report.minimal.get("timely_reexec")
        assert sched is not None and len(sched) == 1
        examples = [v for v in alpaca_report.violations
                    if v.kind == "timely_reexec"]
        assert examples and examples[0].minimal_schedule == sched

    def test_limit_thins_the_campaign(self):
        report = run_campaign(CampaignConfig(
            app="uni_temp", runtime="easeio", limit=20,
        ))
        assert report.ok
        assert report.n_runs <= 20
        assert any("thinned" in n for n in report.notes)


class TestRandomCampaign:
    def test_easeio_clean_under_random_schedules(self):
        report = run_campaign(CampaignConfig(
            app="uni_temp", runtime="easeio", mode="random",
            runs=15, failures_per_run=3, seed=11,
        ))
        assert report.ok, report.render_text()
        assert report.n_runs == 15
        assert report.n_failures_injected >= 15

    def test_alpaca_fir_shrinks_to_short_reproducer(self):
        report = run_campaign(CampaignConfig(
            app="fir", runtime="alpaca", mode="random",
            runs=15, failures_per_run=4, seed=3,
        ))
        assert not report.ok
        assert "single_reexec" in report.by_kind
        minimal = report.minimal["single_reexec"]
        assert 1 <= len(minimal) < 4  # pruned below the injected count


class TestWorkers:
    def test_parallel_verdicts_match_serial(self):
        base = CampaignConfig(app="uni_temp", runtime="alpaca", limit=30)
        serial = run_campaign(base)
        parallel = run_campaign(CampaignConfig(
            app="uni_temp", runtime="alpaca", limit=30, workers=2,
        ))
        assert parallel.n_runs == serial.n_runs
        assert parallel.by_kind == serial.by_kind
        assert parallel.workers == 2

    def test_seeded_campaign_identical_across_worker_counts(self):
        # the fuzzer replays campaign verdicts across processes, so a
        # fixed seed must pin down not just the counts but the exact
        # violation stream and the exact shrunk reproducers
        def fingerprint(report):
            return (
                report.n_runs,
                report.by_kind,
                {k: tuple(v) for k, v in report.minimal.items()},
                [
                    (v.kind, v.schedule, v.minimal_schedule)
                    for v in report.violations
                ],
            )

        base = dict(
            app="fir", runtime="alpaca", mode="random",
            runs=12, failures_per_run=3, seed=7,
        )
        serial = run_campaign(CampaignConfig(**base))
        parallel = run_campaign(CampaignConfig(workers=3, **base))
        assert fingerprint(parallel) == fingerprint(serial)

    def test_parallel_is_faster_on_multicore(self, tmp_path, monkeypatch):
        """The mechanism of the multicore speedup: a 4-worker campaign
        runs its shards in more than one pool process, with the serial
        run's verdicts.  Whether it also finishes first depends on how
        the host schedules the workers, so wall clocks are not raced."""
        pids = tmp_path / "pids"
        monkeypatch.setenv(_PID_LOG, str(pids))
        monkeypatch.setattr(scheduler, "_run_shard", _run_shard_noting_pid)
        serial = run_campaign(CampaignConfig(app="weather", runtime="easeio"))
        parallel = run_campaign(CampaignConfig(
            app="weather", runtime="easeio", workers=4,
        ))
        assert len(set(pids.read_text().split())) >= 2
        assert parallel.n_runs == serial.n_runs
        assert parallel.by_kind == serial.by_kind


class TestCountersMode:
    def test_no_events_campaign_still_checks_state(self):
        report = run_campaign(CampaignConfig(
            app="uni_dma", runtime="easeio", limit=25, trace_events=False,
        ))
        assert report.ok
        assert report.check_level == "counters"
        assert any("counters-only" in n for n in report.notes)


class TestReport:
    def test_json_is_serializable(self, alpaca_report):
        data = alpaca_report.to_json()
        text = json.dumps(data)
        assert "timely_reexec" in text
        assert data["ok"] is False
        assert data["n_runs"] == alpaca_report.n_runs

    def test_text_rendering(self, easeio_report, alpaca_report):
        clean = easeio_report.render_text()
        assert "PASS" in clean and "violations  : none" in clean
        dirty = alpaca_report.render_text()
        assert "FAIL" in dirty and "timely_reexec" in dirty
        assert "minimal reproducer" in dirty
