"""`python -m repro env` end-to-end: record, replay, sweep.

Drives the CLI in-process through :func:`repro.env.cli.main` — the
same argv the shell would pass — and checks the exit codes carry the
determinism contract: replaying a recorded trace is exit 0 only while
the emergent failures are bit-identical, and a tampered recording is
*detected*, not silently accepted.
"""

import json

import pytest

from repro.env.cli import main
from repro.errors import ReproError


def test_record_then_replay_is_bit_identical(tmp_path, capsys):
    trace = str(tmp_path / "markov.jsonl")
    assert main([
        "record", "uni_temp", "--env", "markov:seed=7,cap_uf=2.2",
        "--out", trace,
    ]) == 0
    recorded = capsys.readouterr().out
    assert "recorded" in recorded

    assert main(["replay", trace]) == 0
    replayed = capsys.readouterr().out
    assert "bit-identical to recording" in replayed


def test_replay_detects_a_tampered_recording(tmp_path, capsys):
    trace = str(tmp_path / "bursty.jsonl")
    assert main([
        "record", "uni_temp", "--env", "bursty:seed=5,cap_uf=1.0",
        "--out", trace,
    ]) == 0
    capsys.readouterr()

    with open(trace) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    assert header["failures"], "pick a seed that actually brown-outs"
    header["failures"][0] += 1.0  # shift one recorded instant
    lines[0] = json.dumps(header)
    with open(trace, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    assert main(["replay", trace]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out and "first divergence at failure 0" in out


def test_replay_runtime_override_comes_from_the_flag(tmp_path, capsys):
    trace = str(tmp_path / "solar.jsonl")
    assert main([
        "record", "uni_temp", "--runtime", "alpaca",
        "--env", "solar:seed=3,cap_uf=2.2", "--out", trace,
    ]) == 0
    capsys.readouterr()
    # same app, same power signal, same runtime (defaulted from meta)
    assert main(["replay", trace]) == 0
    assert "replayed uni_temp/alpaca" in capsys.readouterr().out


def test_sweep_cli_reruns_from_warm_cache(tmp_path, capsys):
    argv = [
        "sweep", "--count", "8", "--seed", "4", "--apps", "uni_temp",
        "--store", str(tmp_path / "store"),
        "--json",
    ]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["serve"] == {"executed": 8}
    assert cold["totals"]["replay_mismatches"] == 0

    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["serve"] == {"store_hits": 8}  # nothing re-executed
    assert warm["rows"] == cold["rows"]


def test_sweep_cli_rejects_unknown_axes(tmp_path):
    with pytest.raises(ReproError, match="unknown app"):
        main(["sweep", "--count", "1", "--apps", "nonesuch"])
    with pytest.raises(ReproError, match="unknown runtime"):
        main(["sweep", "--count", "1", "--runtimes", "mementos"])
