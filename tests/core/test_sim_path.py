"""``REPRO_SIM_PATH`` selects the execution path of a fresh process."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PROBE = (
    "from repro import fastpath; "
    "print(fastpath.path(), fastpath.enabled(), fastpath.vm_enabled())"
)


def _probe(value):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath(SRC)
    if value is not None:
        env["REPRO_SIM_PATH"] = value
    return subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "value, expected",
    [
        (None, "vm True True"),
        ("vm", "vm True True"),
        ("reference", "reference False False"),
    ],
)
def test_flag_selects_the_path(value, expected):
    proc = _probe(value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


@pytest.mark.parametrize("value", ["", "fast", "VM", "1"])
def test_any_other_value_is_rejected_naming_both_choices(value):
    proc = _probe(value)
    assert proc.returncode != 0
    assert "REPRO_SIM_PATH" in proc.stderr
    assert "'vm'" in proc.stderr and "'reference'" in proc.stderr
