"""Alpaca baseline runtime (Maeng, Colin, Lucia — OOPSLA '17).

Alpaca's compiler finds task-shared non-volatile variables with
write-after-read (WAR) dependences and *privatizes* them: each task
works on a volatile private copy and commits the updated values back to
non-volatile memory atomically when the task ends.  Interrupted tasks
re-execute against the untouched originals, giving idempotence — for
CPU traffic.  The mechanism is
:class:`~repro.runtimes.base.PrivatizingRuntime`; this class chooses
what it copies.

What Alpaca does **not** do (and what this model therefore does not
do), per sections 2.1-2.2 of the EaseIO paper:

* no I/O awareness: every peripheral operation inside an interrupted
  task re-executes on every attempt;
* no DMA awareness: the WAR analysis cannot see peripheral-driven
  memory traffic (``include_dma=False``), and DMA transfers use raw
  addresses that bypass the privatization redirect — so DMA-written
  non-volatile data is durable immediately and WAR bugs through DMA
  slip through (Figure 2b / Figure 12);
* no branch protection for non-WAR variables: a flag that is only
  written (never read) in a task is not privatized, so the
  divergent-branch bug of Figure 2c persists.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir import analysis as AN
from repro.ir import ast as A
from repro.runtimes.base import PrivatizingRuntime


class AlpacaRuntime(PrivatizingRuntime):
    """Task runtime with WAR privatization into volatile copies."""

    name = "alpaca"
    base_text_bytes = 900
    text_bytes_per_stmt = 12

    copy_prefix = "__alp_"
    copy_storage = A.LOCAL
    copy_category = "cpu"
    region_label = "war"

    def _task_sets(self, task: A.Task) -> Tuple[List[str], List[str]]:
        """The task's WAR variables, copied in and all written back."""
        war = AN.war_variables(self.program, task, include_dma=False)
        return war, war
