"""Run metrics: the five evaluation quantities of section 5.2.

``Step`` is the unit of work the interpreter yields to the executor.
``Metrics`` is the one per-run record: the executor assembles it when
a run ends, from the step time it charged per kind and from the
trace's event counts (power failures, task commits, I/O and DMA
executions), and every caller reads it:

* **wasted work** — active time beyond the continuous-execution useful
  time and the runtime overhead (re-executed work + boot/restore);
* **energy consumption** — from the machine's :class:`EnergyMeter`;
* **execution correctness** — NV result state versus a
  continuous-power reference (computed by the harness);
* **runtime overhead** — time spent in runtime-inserted work
  (privatization, guards, commits);
* **memory overhead** — region allocator high-water marks plus the
  statement-count ``.text`` proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ReproError

# Step kinds --------------------------------------------------------------
APP = "app"            # original application computation
IO = "io"              # peripheral / accelerator / DMA busy time
OVERHEAD = "overhead"  # runtime-inserted work (guards, privatization, commits)
BOOT = "boot"          # reboot/restore cost after a power failure

STEP_KINDS = (APP, IO, OVERHEAD, BOOT)


@dataclass(frozen=True, slots=True)
class Step:
    """One atomic slice of machine activity.

    The interpreter yields the step *before* applying its effects; the
    executor charges time/energy and may abandon the step at a power
    failure, in which case the effects never happen (all-or-nothing).

    Slotted: the interpreter allocates one per yielded slice, tens of
    thousands per simulated run.
    """

    duration_us: float
    kind: str
    category: str = "cpu"  # energy-meter category

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ReproError(f"step duration must be >= 0, got {self.duration_us}")
        if self.kind not in STEP_KINDS:
            raise ReproError(f"unknown step kind {self.kind!r}")


@dataclass
class Metrics:
    """Final record for one (application x runtime x environment) run."""

    runtime: str
    app: str
    completed: bool
    total_time_us: float          # active + dark (wall clock)
    active_time_us: float
    dark_time_us: float
    app_time_us: float            # APP+IO time across all attempts
    overhead_time_us: float       # OVERHEAD time across all attempts
    boot_time_us: float
    power_failures: int
    task_commits: int
    io_executions: int
    io_reexecutions: int
    io_skips: int
    dma_executions: int
    dma_reexecutions: int
    dma_skips: int
    energy_uj: float
    energy_by_category: Dict[str, float] = field(default_factory=dict)
    memory_footprint: Dict[str, int] = field(default_factory=dict)
    text_proxy: int = 0           # transformed-program statement count

    def waste_against(self, continuous_useful_us: float) -> float:
        """Wasted work versus a continuous-power useful time.

        The Figure 7/10 stacking: total active = useful (continuous) +
        overhead + wasted, where boot time counts as waste (it exists
        only because of failures).
        """
        wasted = self.active_time_us - continuous_useful_us - self.overhead_time_us
        return max(0.0, wasted)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "runtime": self.runtime,
            "app": self.app,
            "completed": self.completed,
            "total_ms": self.total_time_us / 1000.0,
            "active_ms": self.active_time_us / 1000.0,
            "overhead_ms": self.overhead_time_us / 1000.0,
            "failures": self.power_failures,
            "io_reexec": self.io_reexecutions,
            "energy_uj": self.energy_uj,
        }
