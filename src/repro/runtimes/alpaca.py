"""Alpaca baseline runtime (Maeng, Colin, Lucia — OOPSLA '17).

Alpaca's compiler finds task-shared non-volatile variables with
write-after-read (WAR) dependences and *privatizes* them: each task
works on a volatile private copy and commits the updated values back to
non-volatile memory atomically when the task ends.  Interrupted tasks
re-execute against the untouched originals, giving idempotence — for
CPU traffic.

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

from typing import Dict, Iterator, List

from repro.hw import trace as T
from repro.hw.mcu import Machine
from repro.ir import analysis as AN
from repro.ir import ast as A
from repro.kernel.stats import OVERHEAD, Step
from repro.runtimes.base import TaskRuntime


class AlpacaRuntime(TaskRuntime):
    """Task runtime with WAR privatization into volatile copies."""

    name = "alpaca"
    base_text_bytes = 900
    text_bytes_per_stmt = 12

    def _load(self) -> None:
        self._war: Dict[str, List[str]] = {}
        for task in self.program.tasks:
            war = AN.war_variables(self.program, task, include_dma=False)
            self._war[task.name] = war
            for var in war:
                decl = self.program.decl(var)
                self.env.add_runtime_var(
                    self._copy_name(task.name, var),
                    A.LOCAL,
                    decl.dtype,
                    decl.length,
                )

    @staticmethod
    def _copy_name(task: str, var: str) -> str:
        return f"__alp_{task}_{var}"

    def _privatization_words(self, task: A.Task) -> int:
        return sum(self.env.words_of(var) for var in self._war[task.name])

    def _task_prologue(self, task: A.Task) -> Iterator[Step]:
        """Copy WAR variables in and install redirects (every attempt)."""
        war = self._war[task.name]
        if not war:
            return
        words = self._privatization_words(task)
        duration = words * self.machine.cost.priv_word_us
        yield Step(duration, OVERHEAD, "cpu")
        for var in war:
            copy = self._copy_name(task.name, var)
            self.env.copy_words(var, copy)
            self.env.redirects[var] = copy
        self.machine.trace.emit(
            self.machine.now_us, T.PRIVATIZE, task=task.name,
            region=f"war:{task.name}", nbytes=words * 2, duration_us=duration,
        )

    def _commit_steps(self, task: A.Task) -> Iterator[Step]:
        """Cost of writing privatized values back (redo-log style)."""
        war = self._war[task.name]
        if war:
            words = self._privatization_words(task)
            yield Step(
                words * self.machine.cost.commit_word_us, OVERHEAD, "fram"
            )

    def _commit_effects(self, task: A.Task) -> None:
        """Apply the write-back atomically with the commit point.

        Alpaca's real commit is two-phase (a redo log replayed until a
        commit flag flips); modelling it as part of the atomic commit
        keeps the same observable behaviour: either the task's updates
        and its transition both land, or neither does.
        """
        for var in self._war[task.name]:
            self.env.copy_words(self._copy_name(task.name, var), var)

    # -- VM lowering -----------------------------------------------------------------

    def vm_redirects(self, task: A.Task) -> Dict[str, str]:
        return {
            var: self._copy_name(task.name, var)
            for var in self._war[task.name]
        }

    def vm_lower_prologue(self, lw, task: A.Task) -> None:
        """WAR copy-in as one charged instruction with prebound views."""
        war = self._war[task.name]
        if not war:
            return
        words = self._privatization_words(task)
        duration = words * self.machine.cost.priv_word_us
        pairs = [
            lw.copy_pair(var, self._copy_name(task.name, var)) for var in war
        ]
        idx = lw.emit(duration, OVERHEAD, "cpu", None)

        def build(_p=pairs, _t=task.name, _nb=words * 2, _d=duration,
                  _e=self.machine.trace.emit, _n=idx + 1):
            def eff(now, _p=_p, _t=_t, _nb=_nb, _d=_d, _e=_e, _n=_n):
                for dv, sv in _p:
                    dv[:] = sv
                _e(
                    now, T.PRIVATIZE, task=_t, region=f"war:{_t}",
                    nbytes=_nb, duration_us=_d,
                )
                return _n
            return eff

        lw.specs[idx] = (duration, OVERHEAD, "cpu", build)
