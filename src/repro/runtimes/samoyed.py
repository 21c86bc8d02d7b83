"""Samoyed-style baseline: atomic peripheral functions + checkpoints.

Samoyed (Maeng & Lucia, PLDI '19) represents the paper's third system
class (Table 1): peripheral operations run inside *atomic functions*
that re-execute wholly if interrupted, while fine-grained checkpoints
between them keep the rest of the program from re-executing at all.

This model maps the idea onto the task IR: every **top-level statement**
of a task is an atomic unit.  After each unit completes, the runtime
takes a checkpoint — the statement index plus a snapshot of the
program's volatile variables — committed to FRAM with two-phase
semantics.  On reboot, execution resumes *at the interrupted
statement*, restoring the volatile snapshot, rather than at the start
of the task.

Consequences, matching Table 1's Samoyed row:

* completed I/O is never repeated (the checkpoint passed it) — wasted
  I/O is *Medium*: only the operation interrupted mid-flight re-runs,
  and a whole atomic unit (e.g. a loop containing I/O) re-runs
  together;
* there is no timeliness support: a stale-but-checkpointed reading is
  simply kept (no `Timely` semantics, no re-sampling);
* DMA inside one atomic unit is safe by re-execution only when the
  unit is idempotent; a unit performing a WAR-dependent DMA chain
  (Figure 2b within one statement window) is still broken —
  checkpoints cannot roll back direct NV writes;
* the price is paid continuously: a checkpoint after every statement,
  volatile-snapshot included, whether or not a failure ever happens.

The checkpoint state itself is double-buffered (two slots plus a
selector flag) so an interrupted checkpoint never corrupts the last
good one.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import ProgramError
from repro.hw import trace as T
from repro.ir import ast as A
from repro.ir import costs
from repro.kernel.stats import OVERHEAD, Step
from repro.runtimes.base import TaskRuntime, _TaskExit


class SamoyedRuntime(TaskRuntime):
    """Checkpointing runtime with per-statement atomic units."""

    name = "samoyed"
    base_text_bytes = 1500
    text_bytes_per_stmt = 13

    def _load(self) -> None:
        # volatile program variables to include in each checkpoint
        self._volatile_vars: List[str] = [
            d.name
            for d in self.program.decls
            if d.storage in (A.LOCAL, A.LEARAM)
        ]
        words = 0
        for name in self._volatile_vars:
            decl = self.program.decl(name)
            for slot in (0, 1):
                self.env.add_runtime_var(
                    f"__smy_{slot}_{name}", A.NV, decl.dtype, decl.length
                )
            words += self.env.words_of(name)
        self._snapshot_words = words
        # checkpoint record: statement index per slot + selector
        self.env.add_runtime_var("__smy_idx_0", A.NV, "int32")
        self.env.add_runtime_var("__smy_idx_1", A.NV, "int32")
        self.env.add_runtime_var("__smy_slot", A.NV, "uint8")
        self.env.add_runtime_var("__smy_valid", A.NV, "uint8")

    # -- checkpoint mechanics ------------------------------------------------

    def _take_checkpoint(self, stmt_index: int) -> None:
        """Write the inactive slot, then flip the selector (two-phase)."""
        inactive = 1 - int(self.env.cell("__smy_slot").get())
        for name in self._volatile_vars:
            self.env.copy_words(name, f"__smy_{inactive}_{name}")
        self.env.cell(f"__smy_idx_{inactive}").set(stmt_index)
        self.env.cell("__smy_slot").set(inactive)  # atomic flip
        self.env.cell("__smy_valid").set(1)

    def _restore_checkpoint(self) -> int:
        """Restore volatile state; returns the resume statement index."""
        if not self.env.cell("__smy_valid").get():
            return 0
        slot = int(self.env.cell("__smy_slot").get())
        for name in self._volatile_vars:
            self.env.copy_words(f"__smy_{slot}_{name}", name)
        return int(self.env.cell(f"__smy_idx_{slot}").get())

    def _clear_checkpoint(self) -> None:
        self.env.cell("__smy_valid").set(0)
        self.env.cell("__smy_idx_0").set(0)
        self.env.cell("__smy_idx_1").set(0)

    # -- execution loop ----------------------------------------------------------

    def start(self) -> Iterator[Step]:
        restore_us = costs.restore_us(self.machine.cost, self._snapshot_words)
        checkpoint_us = costs.checkpoint_us(
            self.machine.cost, self._snapshot_words
        )
        while not self.completed:
            self._loop_vars.clear()  # see TaskRuntime.start
            idx = int(self.env.cell("__cur_task").get())
            task = self.program.tasks[idx]
            seq = int(self.env.cell("__task_seq").get())
            self._attempts[seq] = self._attempts.get(seq, 0) + 1
            # restore the last checkpoint (cost: read the snapshot back)
            yield Step(restore_us, OVERHEAD, "fram")
            resume_at = self._restore_checkpoint()
            self.machine.trace.emit(
                self.machine.now_us,
                T.TASK_START,
                task=task.name,
                seq=seq,
                attempt=self._attempts[seq],
                resume_at=resume_at,
            )
            if resume_at > 0:
                self.machine.trace.emit(
                    self.machine.now_us, T.RESTORE,
                    region=f"ckpt#{resume_at}",
                    nbytes=self._snapshot_words * 2,
                )
            try:
                for i in range(resume_at, len(task.body)):
                    yield from self._exec_stmt(task.body[i])
                    # atomic unit finished: checkpoint past it
                    yield Step(checkpoint_us, OVERHEAD, "fram")
                    self._take_checkpoint(i + 1)
            except _TaskExit as exit_:
                if exit_.halted:
                    return
                continue
            raise ProgramError(
                f"task {task.name!r} fell through without TransitionTo/Halt"
            )

    def _commit_effects(self, task: A.Task) -> None:
        # a committed transition invalidates the intra-task checkpoint
        self._clear_checkpoint()

    # -- VM lowering -----------------------------------------------------------------

    def _vm_ckpt_closures(self, lw):
        """(restore_fn, take_fn) with the double-buffer cells prebound."""
        cached = getattr(self, "_vm_ckpt", None)
        if cached is not None:
            return cached
        valid = lw._scalar("__smy_valid")
        slot = lw._scalar("__smy_slot")
        idx_get = (lw.scalar_get("__smy_idx_0"), lw.scalar_get("__smy_idx_1"))
        idx_set = (lw._scalar("__smy_idx_0").set, lw._scalar("__smy_idx_1").set)
        # per-slot view pairs, restore direction (slot -> var) and
        # snapshot direction (var -> slot)
        restore_pairs = tuple(
            [
                lw.copy_pair(f"__smy_{s}_{name}", name)
                for name in self._volatile_vars
            ]
            for s in (0, 1)
        )
        take_pairs = tuple(
            [
                lw.copy_pair(name, f"__smy_{s}_{name}")
                for name in self._volatile_vars
            ]
            for s in (0, 1)
        )

        def restore(_vg=valid.get, _sg=slot.get, _p=restore_pairs, _ig=idx_get):
            if not _vg():
                return 0
            s = int(_sg())
            for dv, sv in _p[s]:
                dv[:] = sv
            return int(_ig[s]())

        def take(stmt_index, _sg=slot.get, _ss=slot.set, _p=take_pairs,
                 _is=idx_set, _vs=valid.set):
            inactive = 1 - int(_sg())
            for dv, sv in _p[inactive]:
                dv[:] = sv
            _is[inactive](stmt_index)
            _ss(inactive)  # atomic flip
            _vs(1)

        self._vm_ckpt = (restore, take)
        return self._vm_ckpt

    def vm_build_dispatch(self, lw, entry_labels):
        """Samoyed defers TASK_START to the restore instruction."""
        done_get = lw.scalar_get("__done")
        cur_get = lw.scalar_get("__cur_task")
        seq_get = lw.scalar_get("__task_seq")
        attempts = self._attempts

        def build(_labels=entry_labels):
            entries = [lab.pc for lab in _labels]

            def eff(now, _d=done_get, _c=cur_get, _s=seq_get, _a=attempts,
                    _en=entries):
                if _d():
                    return -1
                seq = int(_s())
                _a[seq] = _a.get(seq, 0) + 1
                return _en[int(_c())]

            return eff

        return build

    def vm_lower_task(self, lw, task: A.Task, index: int) -> None:
        """Per-statement atomic units: restore, stmt+checkpoint pairs."""
        ctx = lw.begin_task(task)
        restore_fn, take_fn = self._vm_ckpt_closures(lw)
        stmt_labels = [lw.label() for _ in range(len(task.body) + 1)]
        seq_get = lw.scalar_get("__task_seq")
        nbytes = self._snapshot_words * 2

        # -- checkpoint restore (the per-attempt entry) ------------------
        dur = costs.restore_us(self.machine.cost, self._snapshot_words)
        ridx = lw.emit(dur, OVERHEAD, "fram", None)

        def build_restore(_labels=stmt_labels, _r=restore_fn, _sg=seq_get,
                          _a=self._attempts, _t=task.name, _nb=nbytes,
                          _e=self.machine.trace.emit):
            pcs = [lab.pc for lab in _labels]

            def eff(now, _r=_r, _sg=_sg, _a=_a, _t=_t, _nb=_nb, _e=_e,
                    _pcs=pcs):
                resume_at = _r()
                seq = int(_sg())
                _e(
                    now, T.TASK_START, task=_t, seq=seq,
                    attempt=_a[seq], resume_at=resume_at,
                )
                if resume_at > 0:
                    _e(
                        now, T.RESTORE, region=f"ckpt#{resume_at}",
                        nbytes=_nb,
                    )
                return _pcs[resume_at]

            return eff

        lw.specs[ridx] = (dur, OVERHEAD, "fram", build_restore)

        # -- statements, each followed by its checkpoint -----------------
        ckpt_dur = costs.checkpoint_us(
            self.machine.cost, self._snapshot_words
        )
        for i, stmt in enumerate(task.body):
            lw.mark(stmt_labels[i])
            lw.lower_stmt(stmt, ctx)
            cidx = lw.emit(ckpt_dur, OVERHEAD, "fram", None)

            def build_ckpt(_take=take_fn, _i=i + 1, _n=cidx + 1):
                def eff(now, _take=_take, _i=_i, _n=_n):
                    _take(_i)
                    return _n
                return eff

            lw.specs[cidx] = (ckpt_dur, OVERHEAD, "fram", build_ckpt)
        lw.mark(stmt_labels[len(task.body)])
        lw.emit_fell_through(task)
