"""Replay the committed fuzz corpus as ordinary pytest cases.

Each corpus entry is a shrunk reproducer a past fuzzing campaign
persisted: a minimal program spec, the runtime and violation kind it
demonstrates, and the campaign limit at which it reproduces.  Replay
asserts three things per entry — the recorded divergence still
reproduces on the recorded baseline runtime, EaseIO still runs the
same program clean, and the reproducer stayed minimal (≤ 10
statements).  Together the entries pin down the paper's Figure-2 bug
classes as executable regressions.
"""

import glob
import json
import os

import pytest

from repro.fuzz.harness import BUG_CLASSES, _campaign
from repro.fuzz.spec import count_statements, spec_to_json, validate_spec
from repro.obs import metrics as M
from tests.conftest import on_sim_path

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _ids(paths):
    return [os.path.splitext(os.path.basename(p))[0] for p in paths]


def test_corpus_is_present_and_covers_figure2():
    entries = [_load(p) for p in ENTRIES]
    classes = {e["bug_class"] for e in entries}
    # the paper's three motivating bug classes must all be represented
    assert {"repeated_io", "stale_timely", "torn_dma"} <= classes


@pytest.mark.parametrize("path", ENTRIES, ids=_ids(ENTRIES))
def test_entry_is_wellformed(path):
    entry = _load(path)
    assert entry["version"] == 1
    assert entry["runtime"] != "easeio"
    assert entry["bug_class"] == BUG_CLASSES.get(entry["kind"], entry["kind"])
    assert entry["statements"] == count_statements(entry["spec"])
    # the paper's bug classes must stay tightly minimal; other finding
    # kinds (samoyed's coarse checkpointing) shrink less readily
    bound = 10 if entry["bug_class"] in BUG_CLASSES.values() else 20
    assert entry["statements"] <= bound  # shrunk, not raw
    assert validate_spec(entry["spec"]) == []


@pytest.mark.parametrize("path", ENTRIES, ids=_ids(ENTRIES))
def test_entry_reproduces_on_recorded_runtime(path):
    entry = _load(path)
    report = _campaign(
        spec_to_json(entry["spec"]),
        entry["runtime"],
        entry["limit"],
        entry["env_seed"],
        env=entry.get("env"),
    )
    assert entry["kind"] in report.by_kind, (
        f"{entry['runtime']} no longer shows {entry['kind']} "
        f"on {os.path.basename(path)}"
    )


ENV_ENTRIES = [p for p in ENTRIES if _load(p).get("env")]


@pytest.mark.parametrize("path", ENV_ENTRIES, ids=_ids(ENV_ENTRIES))
def test_env_entry_needs_its_environment(path):
    """Environment-dependent reproducers vanish under an ideal supply.

    The recorded violation only manifests when outages physically age
    data (a long-tail energy environment): the same program and
    schedules must come back clean both without any environment and
    under an always-on constant supply.
    """
    entry = _load(path)
    for benign in (None, "constant:level_mw=1000"):
        report = _campaign(
            spec_to_json(entry["spec"]),
            entry["runtime"],
            entry["limit"],
            entry["env_seed"],
            env=benign,
        )
        assert entry["kind"] not in report.by_kind, (
            f"{os.path.basename(path)} reproduces even under "
            f"{benign or 'no environment'} — it is not env-dependent"
        )


@pytest.mark.parametrize("path", ENTRIES, ids=_ids(ENTRIES))
def test_entry_verdict_stable_across_execution_paths(path):
    """Each reproducer shows the *same* verdict class on both paths.

    The corpus doubles as a semantic regression net for the compiled
    VM: a shrunk reproducer that flags ``repeated_io`` on the reference
    interpreter must flag exactly ``repeated_io`` — not a different
    class, not a clean run — on compiled bytecode, and every VM run
    must really have executed bytecode.
    """
    entry = _load(path)
    verdicts = {}
    for name in ("reference", "vm"):
        with on_sim_path(name), M.collecting() as reg:
            report = _campaign(
                spec_to_json(entry["spec"]),
                entry["runtime"],
                entry["limit"],
                entry["env_seed"],
                env=entry.get("env"),
            )
        verdicts[name] = (report.ok, dict(report.by_kind))
        vm_runs = reg.counters.get("vm.runs", 0)
        if name == "vm":
            assert vm_runs == reg.counters.get("runs", 0) > 0, (
                f"{os.path.basename(path)} ran the generator on the vm path"
            )
        else:
            assert vm_runs == 0
    assert verdicts["vm"] == verdicts["reference"]
    assert entry["kind"] in verdicts["vm"][1], (
        f"{os.path.basename(path)} lost its {entry['kind']} verdict "
        f"on the vm path"
    )


@pytest.mark.parametrize("path", ENTRIES, ids=_ids(ENTRIES))
def test_entry_stays_clean_on_easeio(path):
    entry = _load(path)
    report = _campaign(
        spec_to_json(entry["spec"]),
        "easeio",
        entry["limit"],
        entry["env_seed"],
        env=entry.get("env"),
    )
    assert report.ok, (
        f"easeio diverges on {os.path.basename(path)}: {report.by_kind}"
    )
