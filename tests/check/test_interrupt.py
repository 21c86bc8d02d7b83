"""Graceful campaign interruption (SIGINT/SIGTERM) and checkpoint resumption.

Drives the real CLI in a subprocess, interrupts it mid-campaign with
the scripted signal a terminal Ctrl-C (or a service manager's SIGTERM)
would deliver, and asserts the contract: exit status 130, a partial
report on stdout, a resumable checkpoint on disk — and a resumed run
whose final report matches an uninterrupted one.  Every campaign CLI
shares one runner, so each is one input of the same test body.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.check import CampaignConfig, run_campaign
from repro.env.sweep import SweepConfig, run_sweep

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


def _cli(tmp_path, *command):
    return [
        sys.executable, "-m", "repro", *command,
        "--checkpoint", str(tmp_path / "campaign.jsonl"),
        "--store", str(tmp_path / "store"),
        "--json",
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


def _interrupt_and_resume(tmp_path, command, sig):
    """Interrupt ``command`` with ``sig`` once it has journaled some
    units, check the partial report, resume; the final report."""
    ckpt = tmp_path / "campaign.jsonl"
    proc = subprocess.Popen(
        _cli(tmp_path, *command), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # wait for real progress (journal lines beyond the header),
    # then deliver the scripted interrupt
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        try:
            with open(ckpt) as fh:
                if len(fh.read().splitlines()) >= 6:
                    break
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    if proc.poll() is not None:
        pytest.skip("campaign finished before the interrupt landed")
    proc.send_signal(sig)
    out, err = proc.communicate(timeout=120)

    # contract: clean nonzero exit, not a traceback
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    assert "interrupted after" in err
    assert "resume with --checkpoint" in err

    # a partial report made it to stdout
    partial = json.loads(out)

    # the checkpoint survives and is resumable
    assert ckpt.exists()
    header = json.loads(ckpt.read_text().splitlines()[0])

    # resume: the same command runs to completion
    done = subprocess.run(
        _cli(tmp_path, *command), env=_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert not ckpt.exists()  # journal deleted on completion
    return partial, header["total"], json.loads(done.stdout)


class TestScriptedInterrupt:
    def test_sigint_drains_checkpoints_and_resumes(self, tmp_path):
        partial, total, final = _interrupt_and_resume(
            tmp_path, ["check", *CONFIG], signal.SIGINT
        )
        assert total == RUNS
        assert partial["partial"] is True
        assert partial["ok"] is False
        assert 0 < partial["n_runs"] < RUNS
        assert any("interrupted" in n for n in partial["notes"])
        # the partial report embeds the replayable config
        assert partial["config"]["kind"] == "check"
        assert partial["config"]["runs"] == RUNS

        assert final["partial"] is False
        assert final["n_runs"] == RUNS
        restored = final["telemetry"]["counters"].get(
            "serve.checkpoint_restored", 0
        )
        assert restored >= partial["n_runs"]

        # the resumed report matches a fresh uninterrupted run
        reference = run_campaign(CampaignConfig(
            app="uni_temp", runtime="easeio", mode="random",
            runs=RUNS, workers=1, seed=17, shrink=False,
        ))
        assert _fingerprint(final) == _fingerprint(reference.to_json())

    def test_sigterm_drains_an_env_sweep_and_resumes(self, tmp_path):
        partial, total, final = _interrupt_and_resume(
            tmp_path, ["env", "sweep", *SWEEP], signal.SIGTERM
        )
        assert total == SWEEP_COUNT
        assert 0 < len(partial["rows"]) < SWEEP_COUNT
        assert partial["config"]["kind"] == "env-sweep"
        assert partial["partial"] is True
        assert partial["ok"] is False

        assert final["partial"] is False
        assert len(final["rows"]) == SWEEP_COUNT
        assert final["serve"]["checkpoint_restored"] >= len(partial["rows"])

        # the resumed report matches a fresh uninterrupted run
        reference = run_sweep(SweepConfig(
            count=SWEEP_COUNT, seed=17, apps=("uni_temp",),
        ))
        assert final["rows"] == reference.to_json()["rows"]


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
