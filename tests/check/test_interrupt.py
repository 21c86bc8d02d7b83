"""Graceful campaign interruption (SIGINT/SIGTERM) and resumption.

Drives the real CLI in a subprocess, interrupts it mid-campaign with
the scripted signal a terminal Ctrl-C (or a service manager's SIGTERM)
would deliver, and asserts the contract: exit status 130, a partial
report on stdout, every finished unit in the campaign's one durable
record (its ``--store``, or its ``--checkpoint`` journal) — and a
resumed run whose final report matches an uninterrupted one.  Every
campaign CLI shares one runner, so each is one input of the same test
body.
"""

import json
import os
import re
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.check import CampaignConfig, run_campaign
from repro.env.sweep import SweepConfig, run_sweep
from repro.serve.store import ResultStore

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="POSIX signals required"
)

RUNS = 400
CONFIG = [
    "uni_temp", "--runtime", "easeio", "--mode", "random",
    "--runs", str(RUNS), "--workers", "1", "--seed", "17", "--no-shrink",
]
SWEEP_COUNT = 400
SWEEP = ["--count", str(SWEEP_COUNT), "--seed", "17", "--apps", "uni_temp"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    return env


def _record_path(tmp_path, record):
    return tmp_path / ("store" if record == "--store" else "campaign.jsonl")


def _cli(tmp_path, record, *command):
    return [
        sys.executable, "-m", "repro", *command,
        record, str(_record_path(tmp_path, record)), "--json",
    ]


def _fingerprint(report):
    return (
        report["n_runs"],
        report["by_kind"],
        report["total_violations"],
        [
            (v["kind"], tuple(v["schedule"])) for v in report["violations"]
        ],
    )


def _wait_for_progress(proc, timeout_s=120.0):
    """Block until the CLI prints a progress line (``[label] done/total``,
    written after those units are durable) or exits."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and proc.poll() is None:
        ready, _, _ = select.select([proc.stderr], [], [], 0.05)
        if ready and re.search(r"\] \d+/\d+$", proc.stderr.readline()):
            return


def _interrupt_and_resume(tmp_path, command, record, sig):
    """Interrupt ``command`` run with ``record`` (``--store`` or
    ``--checkpoint``) by ``sig`` once some units are durable, check the
    partial report and the record, resume.  Returns the partial report,
    the units finished before the interrupt, the campaign's unit count
    and the final report."""
    path = _record_path(tmp_path, record)
    proc = subprocess.Popen(
        _cli(tmp_path, record, *command), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    _wait_for_progress(proc)
    if proc.poll() is not None:
        proc.communicate()
        pytest.skip("campaign finished before the interrupt landed")
    proc.send_signal(sig)
    out, err = proc.communicate(timeout=120)

    # contract: clean nonzero exit, not a traceback
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    assert f"resume with {record} {path}" in err
    done, total = map(
        int, re.search(r"interrupted after (\d+)/(\d+)", err).groups()
    )

    # a partial report made it to stdout
    partial = json.loads(out)

    # every finished unit is in the one record the run was given
    if record == "--store":
        store = ResultStore(str(path))
        try:
            assert store.stats()["entries"] == done
        finally:
            store.close()
    else:
        header, *entries = path.read_text().splitlines()
        assert json.loads(header)["total"] == total
        assert len({json.loads(e)["index"] for e in entries}) == done

    # resume: the same command runs to completion
    finished = subprocess.run(
        _cli(tmp_path, record, *command), env=_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert finished.returncode == 0, finished.stderr
    if record == "--checkpoint":
        assert not path.exists()  # journal deleted on completion
    return partial, done, total, json.loads(finished.stdout)


class TestScriptedInterrupt:
    def test_sigint_drains_checkpoints_and_resumes(self, tmp_path):
        partial, done, total, final = _interrupt_and_resume(
            tmp_path, ["check", *CONFIG], "--checkpoint", signal.SIGINT
        )
        assert total == RUNS
        assert partial["partial"] is True
        assert partial["ok"] is False
        assert 0 < partial["n_runs"] == done < RUNS
        assert any("interrupted" in n for n in partial["notes"])
        # the partial report embeds the replayable config
        assert partial["config"]["kind"] == "check"
        assert partial["config"]["runs"] == RUNS

        assert final["partial"] is False
        assert final["n_runs"] == RUNS
        counters = final["telemetry"]["counters"]
        assert counters.get("serve.checkpoint_restored", 0) == done

        # the resumed report matches a fresh uninterrupted run
        reference = run_campaign(CampaignConfig(
            app="uni_temp", runtime="easeio", mode="random",
            runs=RUNS, workers=1, seed=17, shrink=False,
        ))
        assert _fingerprint(final) == _fingerprint(reference.to_json())

    def test_sigterm_drains_an_env_sweep_and_resumes(self, tmp_path):
        partial, done, total, final = _interrupt_and_resume(
            tmp_path, ["env", "sweep", *SWEEP], "--store", signal.SIGTERM
        )
        assert total == SWEEP_COUNT
        assert 0 < len(partial["rows"]) == done < SWEEP_COUNT
        assert partial["config"]["kind"] == "env-sweep"
        assert partial["partial"] is True
        assert partial["ok"] is False

        assert final["partial"] is False
        assert len(final["rows"]) == SWEEP_COUNT
        # the store alone carried the finished units across the interrupt
        assert final["serve"]["store_hits"] == done
        assert "checkpoint_restored" not in final["serve"]
        assert not (tmp_path / "campaign.jsonl").exists()

        # the resumed report matches a fresh uninterrupted run
        reference = run_sweep(SweepConfig(
            count=SWEEP_COUNT, seed=17, apps=("uni_temp",),
        ))
        assert final["rows"] == reference.to_json()["rows"]


@pytest.mark.parametrize("command", [
    ["check", "uni_temp"], ["fuzz"], ["env", "sweep"],
], ids=["check", "fuzz", "env-sweep"])
def test_store_and_checkpoint_exclude_each_other(tmp_path, capsys, command):
    """A campaign keeps one durable record, so the CLIs take a store or
    a checkpoint journal, not both: argparse's usage error, status 2."""
    with pytest.raises(SystemExit) as exc:
        main([
            *command, "--store", str(tmp_path / "store"),
            "--checkpoint", str(tmp_path / "campaign.jsonl"),
        ])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing ran


def test_interrupt_caught_in_generated_code_keeps_the_exit_status(tmp_path):
    """The VM lowerer evaluates generated source.  An interrupt raised
    inside that evaluation and caught by the draining campaign must not
    turn the CLI's status 130 into a death by SIGINT (it did in about
    one of three SIGTERMs of an env sweep, which lowers every unit)."""
    (tmp_path / "probe.py").write_text(
        "import sys\n"
        "from repro.vm.lower import _eval_source\n"
        "try:\n"
        "    _eval_source('(_ for _ in ()).throw(KeyboardInterrupt)', {})\n"
        "except KeyboardInterrupt:\n"
        "    pass\n"
        "sys.exit(130)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "probe"], cwd=tmp_path, env=_env(),
    )
    assert proc.returncode == 130


class TestInProcessCancel:
    def test_cancel_event_yields_partial_report(self):
        import threading

        from repro.errors import CampaignInterrupted
        from repro.obs.campaign import CampaignTelemetry

        cancel = threading.Event()
        telemetry = CampaignTelemetry("cancel-test", 0, progress=False)
        orig_tick = telemetry.tick

        def tick_and_cancel(counters=None, n=1):
            orig_tick(counters, n)
            if telemetry.done >= 5:
                cancel.set()

        telemetry.tick = tick_and_cancel
        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(
                CampaignConfig(
                    app="uni_temp", runtime="easeio", mode="random",
                    runs=100, workers=1, shrink=False,
                ),
                cancel=cancel, telemetry=telemetry,
            )
        exc = err.value
        assert 0 < exc.done < 100
        assert exc.report is not None
        assert exc.report.partial is True
        assert exc.report.n_runs == exc.done
        assert "PARTIAL (interrupted)" in exc.report.render_text()
