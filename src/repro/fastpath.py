"""The simulator's execution-path switch.

Two execution paths run the same public API:

* ``vm`` (default): memoized compilation (:mod:`repro.core.compile`)
  with a pool of recycled machines, zero-copy typed memory views
  (:mod:`repro.hw.memory`), and each runtime's program lowered to
  stepped bytecode (:mod:`repro.vm`);
* ``reference``: every run rebuilds everything from scratch, every
  memory access goes through the raw byte read/write round-trip, and
  the runtime's plain step-generator interpreter
  (:mod:`repro.runtimes.base`) executes the program.

Both paths must be observationally identical — same metrics, same
traces, same NV state.  The reference path is the oracle of every
equivalence matrix and the baseline the perf harness
(:mod:`repro.bench.perf`) measures speedups against; a correctness
doubt about the VM can always be settled by re-running with
``REPRO_SIM_PATH=reference``.

The switch is process-global and read at cache/cell construction time;
flipping it clears every registered cache so artifacts of one path
cannot leak into runs of the other.
"""

from __future__ import annotations

import os
from typing import Callable, List

from repro.errors import ReproError

#: the values ``REPRO_SIM_PATH`` accepts; the first is the default
PATHS = ("vm", "reference")


def _checked(name: str) -> str:
    if name not in PATHS:
        raise ReproError(
            f"REPRO_SIM_PATH must be 'vm' or 'reference', got {name!r}"
        )
    return name


_path: str = _checked(os.environ.get("REPRO_SIM_PATH", PATHS[0]))

#: callbacks that drop memoized state when the switch flips
_cache_clearers: List[Callable[[], None]] = []


def path() -> str:
    """The active execution path: ``"vm"`` or ``"reference"``."""
    return _path


def set_path(name: str) -> None:
    """Select an execution path, clearing all registered caches."""
    global _path
    _path = _checked(name)
    clear_caches()


def enabled() -> bool:
    """Whether the accelerated (VM) path is active."""
    return _path == "vm"


#: the same predicate as :func:`enabled` (the accelerated path is the
#: VM), for callers outside the package that ask for the VM by name
vm_enabled = enabled


def register_cache_clearer(fn: Callable[[], None]) -> None:
    """Register a zero-arg callback invoked whenever caches must drop."""
    _cache_clearers.append(fn)


def clear_caches() -> None:
    """Drop every registered memoized artifact (test/bench isolation)."""
    for fn in _cache_clearers:
        fn()
