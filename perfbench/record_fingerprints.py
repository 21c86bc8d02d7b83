"""Record the output fingerprints of the default seed.

``python3 perfbench/record_fingerprints.py`` runs one traced full-size
round of every workload on the default seed and writes their outputs
and ``kernel.sim_events`` to ``perfbench/fingerprints.json``.  Record
them only from a commit whose simulated behaviour is known good: every
later run on the default seed is checked against them.
"""

from __future__ import annotations

import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench import checks, run, workloads  # noqa: E402


def main() -> int:
    env = run.clean_env()
    doc = {
        "seed": checks.DEFAULT_SEED,
        "sizes": workloads.sizes_doc(workloads.FULL),
        "outputs": {},
        "sim_events": {},
    }
    for i, workload in enumerate(workloads.WORKLOADS):
        rnd = run.run_round(workload, checks.DEFAULT_SEED, True, False,
                            env, time.monotonic() + 600, i)
        problems = rnd["violations"] + rnd["errors"]
        if problems:
            print(f"{workload}: {problems}", file=sys.stderr)
            return 1
        doc["outputs"][workload] = rnd["outputs"]
        doc["sim_events"][workload] = rnd["layers"]["kernel.sim_events"]
        print(f"{workload}: {rnd['layers']['kernel.sim_events']} events",
              file=sys.stderr)
    with open(checks.FINGERPRINTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
