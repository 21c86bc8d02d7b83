"""InK baseline runtime (Yildirim et al. — SenSys '18).

InK is a reactive task *kernel*: tasks communicate through
double-buffered task-shared state held entirely in FRAM.  We model its
memory discipline as full privatization of every task-touched
non-volatile variable into FRAM working copies — copied in at each task
attempt, written back at commit — with the task-level privatization
of :class:`~repro.runtimes.base.PrivatizingRuntime`.  Compared with
Alpaca:

* a bigger kernel (scheduler, event queues) — larger ``.text``, and a
  dispatch charged at every attempt, even of a task that copies
  nothing;
* working copies live in FRAM rather than SRAM — the much larger FRAM
  footprint Table 6 reports for InK;
* *all* shared variables are buffered, not only WAR-dependent ones —
  which incidentally protects non-WAR branch flags (Figure 2c) but
  costs more per task.

Like Alpaca, InK has no I/O or DMA awareness: peripheral operations
re-execute on every attempt, and DMA transfers use raw non-volatile
addresses that bypass the working copies, so DMA-WAR bugs persist
(Figure 12, Table 5).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir import analysis as AN
from repro.ir import ast as A
from repro.runtimes.base import PrivatizingRuntime


class InKRuntime(PrivatizingRuntime):
    """Reactive task kernel with FRAM double-buffered shared state."""

    name = "ink"
    base_text_bytes = 2400
    text_bytes_per_stmt = 13

    copy_prefix = "__ink_"
    copy_storage = A.NV
    copy_category = "fram"
    region_label = "shared"
    #: fixed per-attempt kernel cost (scheduler dispatch)
    dispatch_us = 12.0

    def _task_sets(self, task: A.Task) -> Tuple[List[str], List[str]]:
        """Every shared NV variable; published are the CPU-written ones.

        A read-only buffer's working copy must not clobber data some
        DMA placed in the canonical location meanwhile.
        """
        shared = AN.shared_nv_variables(self.program, task)
        written = {
            rec.name
            for rec in AN.nv_accesses(
                self.program, list(task.body), include_dma=False
            )
            if rec.is_write
        }
        return shared, [var for var in shared if var in written]
