"""Output checks: every round's results must be right, not just fast.

The simulator is deterministic, so a change that only makes the
program faster leaves every simulated statistic identical.  Checks
that hold on every seed:

* the per-round invariants the workloads assert (EaseIO ok on every
  check cell, warm reports equal to cold ones, warm phases all store
  hits with no unit leased to the fleet, no fleet unit requeued);
* no ``REPRO_*`` variable reached a round, so every round ran on the
  default execution path, whatever that default is;
* every round of a run, traced or not, produces the same outputs.

On the default seed at full size, the outputs and the traced
``kernel.sim_events`` must also equal the fingerprints recorded in
``fingerprints.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

DEFAULT_SEED = 1
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")


def load_fingerprints(path: str = FINGERPRINTS) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _diff_keys(got: object, want: object, prefix: str = "") -> List[str]:
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            out += _diff_keys(got.get(key), want.get(key), f"{prefix}{key}.")
        return out
    return [] if got == want else [prefix.rstrip(".") or "<root>"]


def check_rounds(
    workload: str,
    seed: int,
    rounds: List[dict],
    fingerprints: Optional[dict],
    sizes_doc: Optional[Dict[str, object]],
) -> List[str]:
    """Every problem found in a run's rounds (empty: outputs correct).

    ``sizes_doc`` is None for shrunken rounds, which have no fingerprints.
    """
    problems: List[str] = []
    for i, r in enumerate(rounds):
        problems += [f"round {i}: {v}" for v in r["violations"]]
        problems += [f"round {i}: error: {e}" for e in r["errors"]]
        if r["env"]["repro_vars"]:
            problems.append(
                f"round {i}: ran with {', '.join(r['env']['repro_vars'])} set"
            )
    first = rounds[0]["outputs"]
    for i, r in enumerate(rounds[1:], 1):
        for key in _diff_keys(r["outputs"], first):
            problems.append(f"round {i} output {key} differs from round 0")
    if (
        fingerprints is not None
        and sizes_doc is not None
        and seed == fingerprints["seed"]
    ):
        if sizes_doc != fingerprints["sizes"]:
            problems.append(
                "fingerprints.json was recorded at other workload sizes; "
                "record it again"
            )
            return problems
        want = fingerprints["outputs"].get(workload)
        for key in _diff_keys(first, want):
            problems.append(f"output {key} differs from the fingerprint")
        for i, r in enumerate(rounds):
            events = r.get("layers", {}).get("kernel.sim_events")
            expected = fingerprints["sim_events"].get(workload)
            if events is not None and events != expected:
                problems.append(
                    f"round {i}: kernel.sim_events {events} != "
                    f"fingerprint {expected}"
                )
    return problems
