"""InK baseline runtime (Yildirim et al. — SenSys '18).

InK is a reactive task *kernel*: tasks communicate through
double-buffered task-shared state held entirely in FRAM.  We model its
memory discipline as full privatization of every task-touched
non-volatile variable into FRAM working copies — copied in at each task
attempt, written back at commit.  Compared with Alpaca:

* a bigger kernel (scheduler, event queues) — larger ``.text``;
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

from typing import Dict, Iterator, List

from repro.hw import trace as T
from repro.ir import analysis as AN
from repro.ir import ast as A
from repro.kernel.stats import OVERHEAD, Step
from repro.runtimes.base import TaskRuntime


class InKRuntime(TaskRuntime):
    """Reactive task kernel with FRAM double-buffered shared state."""

    name = "ink"
    base_text_bytes = 2400
    text_bytes_per_stmt = 13

    #: fixed per-attempt kernel cost (scheduler dispatch)
    dispatch_us = 12.0

    def _load(self) -> None:
        self._shared: Dict[str, List[str]] = {}
        self._written: Dict[str, List[str]] = {}
        for task in self.program.tasks:
            shared = AN.shared_nv_variables(self.program, task)
            self._shared[task.name] = shared
            # only CPU-written variables are published at commit; a
            # read-only buffer's working copy must not clobber data some
            # DMA placed in the canonical location meanwhile
            written = {
                rec.name
                for rec in AN.nv_accesses(
                    self.program, list(task.body), include_dma=False
                )
                if rec.is_write
            }
            self._written[task.name] = [v for v in shared if v in written]
            for var in shared:
                decl = self.program.decl(var)
                self.env.add_runtime_var(
                    self._copy_name(task.name, var),
                    A.NV,
                    decl.dtype,
                    decl.length,
                )

    @staticmethod
    def _copy_name(task: str, var: str) -> str:
        return f"__ink_{task}_{var}"

    def _buffer_words(self, task: A.Task) -> int:
        return sum(self.env.words_of(var) for var in self._shared[task.name])

    def _task_prologue(self, task: A.Task) -> Iterator[Step]:
        """Kernel dispatch + copy-in of the task's shared state."""
        shared = self._shared[task.name]
        words = self._buffer_words(task)
        duration = self.dispatch_us + words * self.machine.cost.priv_word_us
        yield Step(duration, OVERHEAD, "fram")
        for var in shared:
            copy = self._copy_name(task.name, var)
            self.env.copy_words(var, copy)
            self.env.redirects[var] = copy
        if words:
            self.machine.trace.emit(
                self.machine.now_us, T.PRIVATIZE, task=task.name,
                region=f"shared:{task.name}", nbytes=words * 2,
                duration_us=duration,
            )

    def _commit_steps(self, task: A.Task) -> Iterator[Step]:
        """Cost of publishing the written working buffers."""
        written = self._written[task.name]
        if written:
            words = sum(self.env.words_of(var) for var in written)
            yield Step(words * self.machine.cost.commit_word_us, OVERHEAD, "fram")

    def _commit_effects(self, task: A.Task) -> None:
        """Swap the written working buffers in, atomically with commit.

        InK's real mechanism is a double-buffer index flip — inherently
        atomic; the copy-based model preserves that atomicity by
        folding the publication into the commit point.
        """
        for var in self._written[task.name]:
            self.env.copy_words(self._copy_name(task.name, var), var)

    # -- VM lowering -----------------------------------------------------------------

    def vm_redirects(self, task: A.Task) -> Dict[str, str]:
        return {
            var: self._copy_name(task.name, var)
            for var in self._shared[task.name]
        }

    def vm_lower_prologue(self, lw, task: A.Task) -> None:
        """Kernel dispatch + copy-in, charged even for empty tasks."""
        shared = self._shared[task.name]
        words = self._buffer_words(task)
        duration = self.dispatch_us + words * self.machine.cost.priv_word_us
        pairs = [
            lw.copy_pair(var, self._copy_name(task.name, var))
            for var in shared
        ]
        idx = lw.emit(duration, OVERHEAD, "fram", None)

        def build(_p=pairs, _w=words, _t=task.name, _d=duration,
                  _e=self.machine.trace.emit, _n=idx + 1):
            def eff(now, _p=_p, _w=_w, _t=_t, _d=_d, _e=_e, _n=_n):
                for dv, sv in _p:
                    dv[:] = sv
                if _w:
                    _e(
                        now, T.PRIVATIZE, task=_t, region=f"shared:{_t}",
                        nbytes=_w * 2, duration_us=_d,
                    )
                return _n
            return eff

        lw.specs[idx] = (duration, OVERHEAD, "fram", build)
