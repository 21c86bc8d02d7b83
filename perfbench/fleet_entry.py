"""Fleet worker entry of the ``serve`` workload.

``python -m perfbench.fleet_entry TRACE_OUT worker --daemon URL ...``
installs the traced-run wrappers when ``TRACE_OUT`` is a path (``-``
for an untraced run), runs ``repro.fleet.cli.main`` with the remaining
arguments, and on exit writes this process's trace records to
``TRACE_OUT`` so the round can merge them.  SIGTERM stops the worker
the way the CLI documents: it finishes its unit and returns.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    trace_out, rest = argv[0], argv[1:]
    if trace_out != "-":
        from perfbench import ledger

        ledger.install(f"fleet-{os.getpid()}")
    from repro.fleet.cli import main as fleet_main

    code = fleet_main(rest)
    if trace_out != "-":
        tmp = trace_out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ledger.tracer().payload(), fh)
        os.replace(tmp, trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
