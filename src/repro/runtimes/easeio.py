"""The EaseIO runtime (this paper's system).

Executes programs rewritten by the EaseIO compiler front-end
(:func:`repro.ir.transform.transform_program`).  The transformed IR
already contains the I/O guards, lock flags, private output copies and
``RegionBoundary`` intrinsics; this runtime contributes the parts the
paper assigns to the run-time library:

* **commit-time flag reset** — a task's lock/block/region flags are
  cleared atomically with its commit, so the next *instance* of the
  task performs its I/O afresh while re-attempts of the same instance
  skip completed operations;
* **run-time DMA semantics resolution** (section 4.3) — each
  ``_DMA_copy`` classifies its endpoints through the DMA engine:

  ========================  ==========  =====================================
  source -> destination     semantics   behaviour
  ========================  ==========  =====================================
  any -> non-volatile       Single      skip once completed; completion flag
                                        set by the *following* region
                                        boundary, making DMA + privatization
                                        atomic (Figure 6)
  non-volatile -> volatile  Private     two-phase copy through the shared
                                        privatization buffer; re-executions
                                        read the preserved snapshot, closing
                                        the WAR window on the source
  volatile -> volatile      Always      plain re-executable transfer
  (``Exclude`` annotated)   Always      no flags, no privatization
  ========================  ==========  =====================================

* **I/O -> DMA dependence** (section 4.3.1) — a Single DMA re-executes
  when the I/O operation producing its source data re-executed in this
  attempt (the ``RelatedConstFlag``); a Private DMA re-snapshots its
  source in that case.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import ProgramError
from repro.hw import trace as T
from repro.hw.mcu import Machine
from repro.ir import ast as A
from repro.ir import costs
from repro.ir.transform import PRIV_BUFFER, TransformResult
from repro.kernel.stats import IO, OVERHEAD, Step
from repro.runtimes.base import TaskRuntime


class EaseIORuntime(TaskRuntime):
    """Task runtime with semantic-aware I/O re-execution."""

    name = "easeio"
    base_text_bytes = 1900
    text_bytes_per_stmt = 12

    def __init__(self, transformed: TransformResult, machine: Machine) -> None:
        self._info = transformed.task_info
        self._options = transformed.options
        super().__init__(transformed.program, machine)

    # -- commit: clear this task's flags atomically -----------------------------

    def _flags_of(self, task: A.Task):
        info = self._info.get(task.name)
        return info.flags_to_clear if info else []

    def _commit_steps(self, task: A.Task) -> Iterator[Step]:
        flags = self._flags_of(task)
        if flags:
            yield Step(
                len(flags) * self.machine.cost.flag_set_us, OVERHEAD, "fram"
            )

    def _commit_effects(self, task: A.Task) -> None:
        # flag cells never move (redirects do not apply), so the name
        # resolution is memoized per task: commits run once per task
        # attempt on every path, thousands of times per campaign
        cache = getattr(self, "_commit_setter_cache", None)
        if cache is None:
            cache = self._commit_setter_cache = {}
        setters = cache.get(task.name)
        if setters is None:
            setters = []
            for flag in self._flags_of(task):
                sym = self.env.symbol(flag, follow_redirect=False)
                if sym.length > 1:
                    arr = self.env.array(flag, follow_redirect=False)
                    zeros = np.zeros(sym.length, dtype=sym.dtype)
                    setters.append((arr.load, zeros))
                else:
                    setters.append(
                        (self.env.cell(flag, follow_redirect=False).set, 0)
                    )
            cache[task.name] = setters
        for store, value in setters:
            store(value)

    # -- DMA policy -------------------------------------------------------------

    def _read_temp(self, name: Optional[str]) -> bool:
        if not name:
            return False
        return bool(self.env.read(name, follow_redirect=False))

    def _set_temp(self, name: Optional[str]) -> None:
        if name:
            self.env.write(name, 1, follow_redirect=False)

    def _transfer_raw(
        self, src: int, dst: int, nbytes: int, site: str, phase: str,
        mark_site: bool = False, semantic: str = "Always",
        forced: bool = False,
    ) -> None:
        """Perform a transfer and trace it.

        ``mark_site=True`` records the *logical* completion of the DMA
        site (after the transfer effect, so interrupted transfers are
        not miscounted as re-executions on retry).  ``semantic`` is the
        run-time-resolved re-execution semantic; ``forced=True`` marks
        a re-execution demanded by a re-executed producer (section
        4.3.1's ``RelatedConstFlag``), which the correctness checker
        must treat as legitimate.
        """
        key = self._site_key(site)
        repeat = False
        if mark_site:
            repeat = key in self._executed_sites
            self._executed_sites.add(key)
        report = self.machine.dma.transfer(src, dst, nbytes)
        self.machine.trace.emit(
            self.machine.now_us,
            T.DMA_EXEC,
            site=site,
            src=src,
            dst=dst,
            nbytes=nbytes,
            classification=report.classification.label,
            phase=phase,
            repeat=repeat,
            semantic=semantic,
            forced=forced,
            seq=key[0],
            loop=key[2],
            duration_us=self.machine.dma.cost_us(nbytes),
        )

    def _exec_dma(self, dma: A.DMACopy) -> Iterator[Step]:
        cost = self.machine.cost
        if dma.exclude:
            # Exclude: compile-time Always — no flags, no privatization
            # (section 4.3, the "EaseIO/Op" configuration).
            yield from super()._exec_dma(dma)
            return

        src, dst = self._dma_window(dma)
        cls = self.machine.dma.classify(src, dst, dma.size_bytes)
        dur = costs.dma_us(cost, dma.size_bytes)
        yield Step(cost.flag_check_us, OVERHEAD, "fram")
        lock_set = (
            bool(self.env.read(dma.lock_flag, follow_redirect=False))
            if dma.lock_flag
            else False
        )
        related_fired = self._read_temp(dma.related_reexec)

        if cls.dst_nonvolatile:
            # -- Single ------------------------------------------------------
            if lock_set and not related_fired:
                self.machine.trace.emit(
                    self.machine.now_us,
                    T.DMA_SKIP,
                    site=dma.site,
                    classification=cls.label,
                )
                return
            yield Step(dur, IO, "dma")
            self._transfer_raw(
                src, dst, dma.size_bytes, dma.site, "single",
                mark_site=True, semantic="Single", forced=related_fired,
            )
            self._set_temp(dma.reexec_temp)
            if not self._options.regional_privatization and dma.lock_flag:
                # without region boundaries, nothing else will set the
                # completion flag — set it here (ablation mode)
                self.env.write(dma.lock_flag, 1, follow_redirect=False)
            return

        if cls.src_nonvolatile:
            # -- Private: two-phase through the privatization buffer ---------
            if dma.priv_slot is None:
                raise ProgramError(
                    f"DMA site {dma.site!r} classified Private at run time "
                    f"but has no privatization slot; was the program "
                    f"transformed with a zero-sized buffer?"
                )
            buf = self.env.addr_of(PRIV_BUFFER, dma.priv_slot)
            need_snapshot = not lock_set or related_fired
            if need_snapshot:
                # the snapshot phase is privatization work, not useful
                # application I/O: account it as runtime overhead
                yield Step(dur, OVERHEAD, "dma")
                self._transfer_raw(
                    src, buf, dma.size_bytes, dma.site, "private_snapshot",
                    semantic="Private", forced=related_fired,
                )
                if dma.lock_flag:
                    self.env.write(dma.lock_flag, 1, follow_redirect=False)
            yield Step(dur, IO, "dma")
            self._transfer_raw(
                buf, dst, dma.size_bytes, dma.site, "private_commit",
                mark_site=True, semantic="Private", forced=related_fired,
            )
            self._set_temp(dma.reexec_temp)
            return

        # -- volatile -> volatile: Always ------------------------------------
        yield Step(dur, IO, "dma")
        self._transfer_raw(
            src, dst, dma.size_bytes, dma.site, "always",
            mark_site=True, semantic="Always",
        )
        self._set_temp(dma.reexec_temp)

    # -- VM lowering -----------------------------------------------------------------

    def vm_lower_dma(self, lw, dma: A.DMACopy, ctx) -> None:
        """Compile the run-time DMA semantics branch into bytecode.

        The flag-check instruction resolves the window, classification
        and guard flags, parks them in scratch slots, and jumps into
        the branch network; each branch instruction is specialized for
        its phase (Single / Private snapshot+commit / Always) with the
        guard cells and trace wiring prebound.
        """
        if dma.exclude:
            lw.lower_dma_base(dma, ctx)
            return
        cost = self.machine.cost
        dur = costs.dma_us(cost, dma.size_bytes)
        S = lw.S
        src_fn = lw.addr_fn(dma.src, ctx)
        dst_fn = lw.addr_fn(dma.dst, ctx)
        kf = lw.key_fn(ctx)
        classify = self.machine.dma.classify
        lock_get = (
            lw.scalar_get(dma.lock_flag) if dma.lock_flag else None
        )
        lock_set = (
            lw._scalar(dma.lock_flag).set if dma.lock_flag else None
        )
        temp_get = (
            lw.scalar_get(dma.related_reexec) if dma.related_reexec else None
        )
        temp_set = (
            lw._scalar(dma.reexec_temp).set if dma.reexec_temp else None
        )
        # ablation mode: without region boundaries the Single branch
        # itself sets the completion flag (resolved at compile time)
        ablation_lock = (
            lock_set
            if (not self._options.regional_privatization and dma.lock_flag)
            else None
        )
        l_single = lw.label()
        l_snap = lw.label()
        l_commit = lw.label()
        l_always = lw.label()
        l_end = lw.label()
        emit = self.machine.trace.emit
        has_slot = dma.priv_slot is not None
        buf = (
            self.env.addr_of(PRIV_BUFFER, dma.priv_slot) if has_slot else None
        )

        # -- flag check + branch resolve --------------------------------
        idx = lw.emit(cost.flag_check_us, OVERHEAD, "fram", None)

        def build_check(_sf=src_fn, _df=dst_fn, _cl=classify, _lg=lock_get,
                        _tg=temp_get, _nb=dma.size_bytes, _site=dma.site,
                        _slot=has_slot, _e=emit, _ls=l_single, _lp=l_snap,
                        _lc=l_commit, _la=l_always, _le=l_end):
            err = None if _slot else ProgramError(
                f"DMA site {_site!r} classified Private at run time "
                f"but has no privatization slot; was the program "
                f"transformed with a zero-sized buffer?"
            )

            def eff(now, _sf=_sf, _df=_df, _cl=_cl, _lg=_lg, _tg=_tg,
                    _nb=_nb, _site=_site, _e=_e, _err=err, _s=S,
                    _single=_ls.pc, _snap=_lp.pc, _commit=_lc.pc,
                    _always=_la.pc, _end=_le.pc):
                src = _sf(now)
                dst = _df(now)
                cls = _cl(src, dst, _nb)
                locked = bool(_lg()) if _lg is not None else False
                related = bool(_tg()) if _tg is not None else False
                _s[0] = src
                _s[1] = dst
                _s[2] = related
                if cls.dst_nonvolatile:
                    if locked and not related:
                        _e(
                            now, T.DMA_SKIP, site=_site,
                            classification=cls.label,
                        )
                        return _end
                    return _single
                if cls.src_nonvolatile:
                    if _err is not None:
                        raise _err
                    return _snap if (not locked or related) else _commit
                return _always

            return eff

        lw.specs[idx] = (cost.flag_check_us, OVERHEAD, "fram", build_check)

        # -- Single: durable destination, execute-once ------------------
        lw.mark(l_single)
        xf_single = lw.make_transfer_raw(
            dma.site, dma.size_bytes, "single", True, "Single", dur, kf
        )
        idx = lw.emit(dur, IO, "dma", None)

        def build_single(_x=xf_single, _ts=temp_set, _al=ablation_lock,
                         _le=l_end):
            def eff(now, _x=_x, _ts=_ts, _al=_al, _s=S, _n=_le.pc):
                _x(now, _s[0], _s[1], _s[2])
                if _ts is not None:
                    _ts(1)
                if _al is not None:
                    _al(1)
                return _n
            return eff

        lw.specs[idx] = (dur, IO, "dma", build_single)

        # -- Private: snapshot phase (overhead), then commit phase ------
        lw.mark(l_snap)
        xf_snap = lw.make_transfer_raw(
            dma.site, dma.size_bytes, "private_snapshot", False, "Private",
            dur, kf,
        )
        idx = lw.emit(dur, OVERHEAD, "dma", None)

        def build_snap(_x=xf_snap, _ls=lock_set, _buf=buf, _lc=l_commit):
            def eff(now, _x=_x, _ls=_ls, _buf=_buf, _s=S, _n=_lc.pc):
                _x(now, _s[0], _buf, _s[2])
                if _ls is not None:
                    _ls(1)
                return _n
            return eff

        lw.specs[idx] = (dur, OVERHEAD, "dma", build_snap)

        lw.mark(l_commit)
        xf_commit = lw.make_transfer_raw(
            dma.site, dma.size_bytes, "private_commit", True, "Private",
            dur, kf,
        )
        idx = lw.emit(dur, IO, "dma", None)

        def build_commit(_x=xf_commit, _ts=temp_set, _buf=buf, _le=l_end):
            def eff(now, _x=_x, _ts=_ts, _buf=_buf, _s=S, _n=_le.pc):
                _x(now, _buf, _s[1], _s[2])
                if _ts is not None:
                    _ts(1)
                return _n
            return eff

        lw.specs[idx] = (dur, IO, "dma", build_commit)

        # -- Always: volatile -> volatile -------------------------------
        lw.mark(l_always)
        xf_always = lw.make_transfer_raw(
            dma.site, dma.size_bytes, "always", True, "Always", dur, kf
        )
        idx = lw.emit(dur, IO, "dma", None)

        def build_always(_x=xf_always, _ts=temp_set, _le=l_end):
            def eff(now, _x=_x, _ts=_ts, _s=S, _n=_le.pc):
                _x(now, _s[0], _s[1], False)
                if _ts is not None:
                    _ts(1)
                return _n
            return eff

        lw.specs[idx] = (dur, IO, "dma", build_always)
        lw.mark(l_end)
