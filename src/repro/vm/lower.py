"""Lowering: runtime programs -> flat register-style bytecode.

The :class:`Lowerer` walks a runtime's program once and produces the
flat instruction list described in :mod:`repro.vm.machine`.  Everything
the generator interpreter re-derives per statement — access costs, step
kinds, energy categories, privatization policy, lock/guard wiring, task
dispatch — is resolved *here*, at compile time, and baked into
specialized instruction tuples:

* expression trees compile to Python lambdas over bound typed cells
  (``float(g0()) + 3.0``) with the reference evaluator's exact numeric
  semantics (``float()`` wraps on reads, ``//`` rounds through ``int``,
  comparisons produce ``1.0/0.0``, boolean operators short-circuit);
* loop variables become VM registers (``R[i]``), free to access, dying
  with the attempt — the interpreter's register-allocation stance;
* each runtime contributes its policy lowering through the
  ``vm_lower_*`` hooks on its class (the task-level privatization
  copy-in and commit write-back that Alpaca and InK share through
  :class:`~repro.runtimes.base.PrivatizingRuntime`, Samoyed's
  checkpoint/restore instruction forms, EaseIO's runtime
  DMA-semantics branch network), so policy is dispatched zero times
  per executed statement;
* per-instruction charge data (duration, preallocated ``Step``,
  stats time-key, energy at the category's power draw) is precomputed
  so the executor's hot loop does no lookups.

Prices come from :mod:`repro.ir.costs`, the same functions the
interpreter charges per executed statement (and per runtime-inserted
charge: copy-in, write-back, checkpoint, restore); here each is
priced once per compile, with the loop registers in scope free.  That
is sound because the environment's variable population is fixed after
runtime construction.

Anything the lowerer does not understand — subclassed AST nodes,
unknown statements, shape mismatches — raises :class:`Unlowerable`,
and :func:`lower` returns ``None`` so the caller falls back to the
generator interpreter (which then reproduces the reference behaviour,
including its error paths).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PeripheralError, ProgramError, ReproError
from repro.hw import trace as T
from repro.ir import ast as A
from repro.ir import costs
from repro.kernel.stats import APP, IO, OVERHEAD, Step
from repro.vm.machine import DISPATCH_PC, HALT, VM, VMCode


class Unlowerable(Exception):
    """The program uses a construct the VM compiler does not support."""


def _eval_source(src: str, ns: Dict[str, object]):
    """``eval`` generated source through an explicit code object.

    A KeyboardInterrupt raised inside ``eval`` of a *string* makes
    CPython exit by SIGINT at the end of a ``python -m`` run even when
    the exception was caught.  A campaign drained by SIGINT/SIGTERM
    while lowering would then die by SIGINT instead of exiting 130;
    ``eval`` of a code object leaves the exit status alone.
    """
    return eval(compile(src, "<vm>", "eval"), ns)


class _Label:
    """A forward-reference instruction address, resolved at finalize."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: Optional[int] = None


class Ctx:
    """Per-task lowering context: redirects, loop registers, pricing."""

    __slots__ = ("redirects", "loop_regs", "loop_order", "nv_of")

    def __init__(self, redirects: Dict[str, str], env) -> None:
        self.redirects = redirects
        self.loop_regs: Dict[str, int] = {}
        self.loop_order: List[int] = []
        #: access classifier for repro.ir.costs (loop registers free)
        self.nv_of = partial(env.nv_of, free=self.loop_regs)


#: statement node types with first-class lowering (exact-type matched;
#: subclasses fall back to the generator interpreter)
_CMP_SRC = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "!=": "!="}
_BIN_SRC = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%"}


class Lowerer:
    """Compiles one runtime instance's program into a :class:`VM`."""

    def __init__(self, runtime) -> None:
        self.rt = runtime
        self.machine = runtime.machine
        self.env = runtime.env
        self.cost = runtime.machine.cost
        self.program = runtime.program
        # instruction spec list: (dur, kind, cat, build) where
        # build() -> effect; dur None marks a control instruction
        self.specs: List[tuple] = []
        # registers/scratch: the lists the effects close over (grown
        # in place, identity never changes)
        self.R: List[int] = []
        self.S: List[object] = [None] * 4
        self.max_regs = 0
        self._emit_tr = runtime.machine.trace.emit
        self._power = costs.power_table(self.cost, runtime.machine.peripherals)
        self._cpu_mw = self.cost.power_cpu_mw

    # ==== spec stream primitives ==========================================

    def pc(self) -> int:
        return len(self.specs)

    def emit(self, dur: float, kind: str, cat: str, build: Callable) -> int:
        idx = len(self.specs)
        self.specs.append((dur, kind, cat, build))
        return idx

    def ctl(self, build: Callable) -> int:
        idx = len(self.specs)
        self.specs.append((None, None, None, build))
        return idx

    def label(self) -> _Label:
        return _Label()

    def mark(self, lab: _Label) -> None:
        lab.pc = len(self.specs)

    def jump(self, lab: _Label) -> None:
        def build(_l=lab):
            def eff(now, _n=_l.pc):
                return _n
            return eff
        self.ctl(build)

    def emit_cost_step(self, step: Step) -> None:
        """A charged instruction with no effect (cost-only work)."""
        idx = self.emit(step.duration_us, step.kind, step.category, None)
        def build(_n=idx + 1):
            def eff(now, _n=_n):
                return _n
            return eff
        self.specs[idx] = (step.duration_us, step.kind, step.category, build)

    # ==== cells, views, addresses =========================================

    def _scalar(self, name: str):
        sym = self.env.symbol(name, follow_redirect=False)
        if sym.length > 1:
            raise Unlowerable(f"array {name!r} accessed without an index")
        return self.env.cell(name, follow_redirect=False)

    def _array(self, name: str):
        return self.env.array(name, follow_redirect=False)

    def scalar_get(self, name: str) -> Callable:
        """A zero-arg reader for a scalar cell, as fast as available.

        On the VM path the cell's typed view is stable for the
        machine's lifetime, so ``partial(view.item, 0)`` reads the
        element with a single C-level call — no Python frame.  Falls
        back to the bound ``Cell.get`` when no view exists.
        """
        cell = self._scalar(name)
        view = getattr(cell, "_view", None)
        if view is not None:
            return partial(view.item, 0)
        return cell.get

    def copy_pair(self, src: str, dst: str) -> Tuple[np.ndarray, np.ndarray]:
        """(dst_view, src_view) byte views for a word copy (dst[:] = src)."""
        s = self.env.symbol(src, follow_redirect=False)
        d = self.env.symbol(dst, follow_redirect=False)
        if (s.dtype, s.length) != (d.dtype, d.length):
            raise Unlowerable(f"copy shape mismatch: {src!r} vs {dst!r}")
        space = self.machine.space
        return (space.view(d.addr, d.nbytes), space.view(s.addr, s.nbytes))

    def addr_fn(self, ref, ctx: Ctx):
        """Address computation for a DMA endpoint (no redirect)."""
        sym = self.env.symbol(ref.name, follow_redirect=False)
        base = sym.addr
        itemsize = int(np.dtype(sym.dtype).itemsize)
        off = ref.offset
        if type(off) is A.Const:
            addr = base + int(off.value) * itemsize
            def static_fn(now, _a=addr):
                return _a
            return static_fn
        ofn = self.compile_expr(off, ctx)
        def dyn_fn(now, _b=base, _i=itemsize, _o=ofn):
            return _b + int(_o(now)) * _i
        return dyn_fn

    # ==== expression compiler =============================================

    def compile_expr(self, expr: A.Expr, ctx: Ctx) -> Callable[[float], float]:
        binds: Dict[str, object] = {}
        src = self._gen(expr, ctx, binds)
        if not binds and "R[" not in src and "now" not in src:
            value = _eval_source(src, {})  # constant fold
            def const_fn(now, _v=value):
                return _v
            return const_fn
        names = list(binds)
        defaults = "".join(f", {n}={n}" for n in names)
        lam = f"lambda now, R=R{defaults}: ({src})"
        ns = {"R": self.R}
        ns.update(binds)
        return _eval_source(lam, ns)

    def _bind(self, binds: Dict[str, object], obj: object) -> str:
        name = f"_b{len(binds)}"
        binds[name] = obj
        return name

    def _gen(self, expr: A.Expr, ctx: Ctx, binds: Dict[str, object]) -> str:
        t = type(expr)
        if t is A.Const:
            return repr(float(expr.value))
        if t is A.Var:
            reg = ctx.loop_regs.get(expr.name)
            if reg is not None:
                return f"float(R[{reg}])"
            actual = ctx.redirects.get(expr.name, expr.name)
            g = self._bind(binds, self.scalar_get(actual))
            return f"float({g}())"
        if t is A.Index:
            actual = ctx.redirects.get(expr.name, expr.name)
            g = self._bind(binds, self._array(actual).get)
            idx = self._gen(expr.index, ctx, binds)
            return f"float({g}(int({idx})))"
        if t is A.BinOp:
            lhs = self._gen(expr.lhs, ctx, binds)
            rhs = self._gen(expr.rhs, ctx, binds)
            op = expr.op
            if op in _BIN_SRC:
                return f"({lhs} {op} {rhs})"
            if op == "//":
                return f"float(int({lhs} // {rhs}))"
            if op in ("min", "max"):
                return f"{op}({lhs}, {rhs})"
            raise Unlowerable(f"unknown binary op {op!r}")
        if t is A.Cmp:
            lhs = self._gen(expr.lhs, ctx, binds)
            rhs = self._gen(expr.rhs, ctx, binds)
            op = _CMP_SRC.get(expr.op)
            if op is None:
                raise Unlowerable(f"unknown comparison {expr.op!r}")
            return f"(1.0 if {lhs} {op} {rhs} else 0.0)"
        if t is A.BoolOp:
            parts = [f"({self._gen(op, ctx, binds)} != 0.0)" for op in expr.operands]
            joiner = " and " if expr.op == "and" else " or "
            return f"(1.0 if {joiner.join(parts)} else 0.0)"
        if t is A.Not:
            x = self._gen(expr.operand, ctx, binds)
            return f"(0.0 if {x} != 0.0 else 1.0)"
        if t is A.GetTime:
            g = self._bind(binds, self.machine.timekeeper.read)
            return f"{g}(now)"
        raise Unlowerable(f"unknown expression {type(expr).__name__}")

    def make_store(self, target: A.LValue, ctx: Ctx):
        """fn(value, now) replicating ``_store`` (value already computed)."""
        if type(target) is A.Var:
            actual = ctx.redirects.get(target.name, target.name)
            setter = self._scalar(actual).set
            def store_v(value, now, _s=setter):
                _s(value)
            return store_v
        if type(target) is A.Index:
            actual = ctx.redirects.get(target.name, target.name)
            aset = self._array(actual).set
            ifn = self.compile_expr(target.index, ctx)
            def store_i(value, now, _a=aset, _i=ifn):
                _a(int(_i(now)), value)
            return store_i
        raise Unlowerable(f"invalid assignment target {target!r}")

    # ==== site keys ========================================================

    def key_fn(self, ctx: Ctx):
        idxs = tuple(ctx.loop_order)
        if not idxs:
            def no_loops():
                return ()
            return no_loops
        src = "lambda R=R: (" + ",".join(f"R[{i}]" for i in idxs) + ",)"
        return _eval_source(src, {"R": self.R})

    # ==== statements =======================================================

    def begin_task(self, task: A.Task) -> Ctx:
        """Fresh per-task context with the runtime's static redirects."""
        return Ctx(dict(self.rt.vm_redirects(task)), self.env)

    def lower_stmts(self, stmts: Sequence[A.Stmt], ctx: Ctx) -> None:
        for stmt in stmts:
            self.lower_stmt(stmt, ctx)

    def lower_stmt(self, stmt: A.Stmt, ctx: Ctx) -> None:
        t = type(stmt)
        if t is A.Assign:
            self._lower_assign(stmt, ctx)
        elif t is A.Compute:
            self._lower_compute(stmt)
        elif t is A.IOCall:
            self._lower_io(stmt, ctx)
        elif t is A.IOBlock:
            # un-transformed block (baselines): plain sequencing
            self.lower_stmts(stmt.body, ctx)
        elif t is A.DMACopy:
            self.rt.vm_lower_dma(self, stmt, ctx)
        elif t is A.If:
            self._lower_if(stmt, ctx)
        elif t is A.Loop:
            self._lower_loop(stmt, ctx)
        elif t is A.RegionBoundary:
            self._lower_region_boundary(stmt)
        elif t is A.CopyWords:
            self._lower_copy_words(stmt)
        elif t is A.Marker:
            self._lower_marker(stmt)
        elif t is A.TransitionTo:
            self.rt.vm_lower_commit(self, self._cur_task, stmt.task)
        elif t is A.Halt:
            self.rt.vm_lower_commit(self, self._cur_task, None)
        else:
            raise Unlowerable(f"unsupported statement {type(stmt).__name__}")

    def _lower_assign(self, stmt: A.Assign, ctx: Ctx) -> None:
        duration, category = costs.assign(self.cost, ctx.nv_of, stmt)
        kind = OVERHEAD if stmt.synthetic else APP
        expr_fn = self.compile_expr(stmt.expr, ctx)
        if type(stmt.target) is A.Var:
            actual = ctx.redirects.get(stmt.target.name, stmt.target.name)
            setter = self._scalar(actual).set
            idx = self.emit(duration, kind, category, None)
            def build(_s=setter, _e=expr_fn, _n=idx + 1):
                def eff(now, _s=_s, _e=_e, _n=_n):
                    _s(_e(now))
                    return _n
                return eff
        elif type(stmt.target) is A.Index:
            # fused indexed store: skip the make_store trampoline frame
            actual = ctx.redirects.get(stmt.target.name, stmt.target.name)
            aset = self._array(actual).set
            ifn = self.compile_expr(stmt.target.index, ctx)
            idx = self.emit(duration, kind, category, None)
            def build(_a=aset, _i=ifn, _e=expr_fn, _n=idx + 1):
                def eff(now, _a=_a, _i=_i, _e=_e, _n=_n):
                    value = _e(now)
                    _a(int(_i(now)), value)
                    return _n
                return eff
        else:
            store = self.make_store(stmt.target, ctx)
            idx = self.emit(duration, kind, category, None)
            def build(_st=store, _e=expr_fn, _n=idx + 1):
                def eff(now, _st=_st, _e=_e, _n=_n):
                    _st(_e(now), now)
                    return _n
                return eff
        self.specs[idx] = (duration, kind, category, build)

    def _lower_compute(self, stmt: A.Compute) -> None:
        for slice_us in costs.compute_slices(self.cost, stmt):
            self.emit_cost_step(Step(slice_us, APP, "cpu"))

    def _lower_if(self, stmt: A.If, ctx: Ctx) -> None:
        duration = costs.if_head_us(self.cost, ctx.nv_of, stmt)
        kind = OVERHEAD if stmt.synthetic else APP
        cond_fn = self.compile_expr(stmt.cond, ctx)
        else_l = self.label()
        idx = self.emit(duration, kind, "cpu", None)
        def build(_c=cond_fn, _t=idx + 1, _el=else_l):
            def eff(now, _c=_c, _t=_t, _f=_el.pc):
                return _t if _c(now) != 0.0 else _f
            return eff
        self.specs[idx] = (duration, kind, "cpu", build)
        self.lower_stmts(stmt.then, ctx)
        if stmt.orelse:
            end_l = self.label()
            self.jump(end_l)
            self.mark(else_l)
            self.lower_stmts(stmt.orelse, ctx)
            self.mark(end_l)
        else:
            self.mark(else_l)

    def _lower_loop(self, stmt: A.Loop, ctx: Ctx) -> None:
        if stmt.count <= 0:
            return
        reg = len(ctx.loop_order)
        self.max_regs = max(self.max_regs, reg + 1)
        while len(self.R) <= reg:
            self.R.append(0)
        entry_idx = self.ctl(None)
        def entry_build(_r=reg, _n=entry_idx + 1):
            def eff(now, R=self.R, _r=_r, _n=_n):
                R[_r] = 0
                return _n
            return eff
        self.specs[entry_idx] = (None, None, None, entry_build)
        iter_pc = self.pc()
        self.emit_cost_step(Step(self.cost.loop_iter_us, APP, "cpu"))
        ctx.loop_regs[stmt.var] = reg
        ctx.loop_order.append(reg)
        self.lower_stmts(stmt.body, ctx)
        ctx.loop_order.pop()
        del ctx.loop_regs[stmt.var]
        latch_idx = self.ctl(None)
        def latch_build(_r=reg, _c=stmt.count, _it=iter_pc, _n=latch_idx + 1):
            def eff(now, R=self.R, _r=_r, _c=_c, _it=_it, _n=_n):
                v = R[_r] + 1
                R[_r] = v
                return _it if v < _c else _n
            return eff
        self.specs[latch_idx] = (None, None, None, latch_build)

    def _lower_marker(self, stmt: A.Marker) -> None:
        detail = dict(stmt.detail)
        idx = self.emit(0.0, OVERHEAD, "cpu", None)
        def build(_d=detail, _k=stmt.kind, _n=idx + 1):
            def eff(now, _e=self._emit_tr, _k=_k, _d=_d, _n=_n):
                _e(now, _k, **_d)
                return _n
            return eff
        self.specs[idx] = (0.0, OVERHEAD, "cpu", build)

    # -- I/O ----------------------------------------------------------------

    def _lower_io(self, call: A.IOCall, ctx: Ctx) -> None:
        rt = self.rt
        duration, category = costs.io_call(
            self.cost, self.machine.peripherals, self.program, call
        )
        store = None if call.out is None else self.make_store(call.out, ctx)
        kf = self.key_fn(ctx)
        seq_get = self.scalar_get("__task_seq")
        sites = rt._executed_sites
        semantic = call.annotation.semantic.value
        idx = self.emit(duration, IO, category, None)
        if call.is_lea:
            def invoke(now, _rt=rt, _c=call):
                return _rt._invoke_lea(_c)
        else:
            arg_fns = [self.compile_expr(a, ctx) for a in call.args]
            pinv = self.machine.peripherals.invoke
            def invoke(now, _p=pinv, _f=call.func, _a=arg_fns):
                return _p(_f, now, [fn(now) for fn in _a]).value
        def build(
            _inv=invoke, _st=store, _kf=kf, _sg=seq_get, _sites=sites,
            _f=call.func, _site=call.site, _sem=semantic, _d=duration,
            _e=self._emit_tr, _n=idx + 1,
        ):
            def eff(now, _inv=_inv, _st=_st, _kf=_kf, _sg=_sg, _sites=_sites,
                    _f=_f, _site=_site, _sem=_sem, _d=_d, _e=_e, _n=_n):
                seq = int(_sg())
                key = (seq, _site, _kf())
                repeat = key in _sites
                _sites.add(key)
                value = _inv(now)
                if _st is not None and value is not None:
                    _st(value, now)
                _e(
                    now, T.IO_EXEC, func=_f, site=_site, repeat=repeat,
                    value=value, semantic=_sem, seq=seq, loop=key[2],
                    duration_us=_d,
                )
                return _n
            return eff
        self.specs[idx] = (duration, IO, category, build)

    # -- DMA ----------------------------------------------------------------

    def make_transfer_raw(
        self, site: str, nbytes: int, phase: str, mark_site: bool,
        semantic: str, duration: float, kf: Callable,
    ):
        """fn(now, src, dst, forced): transfer + DMA_EXEC trace (EaseIO)."""
        seq_get = self.scalar_get("__task_seq")
        sites = self.rt._executed_sites
        xfer = self.machine.dma.transfer
        def transfer_raw(
            now, src, dst, forced, _kf=kf, _sg=seq_get, _sites=sites,
            _x=xfer, _site=site, _nb=nbytes, _ph=phase, _mark=mark_site,
            _sem=semantic, _d=duration, _e=self._emit_tr,
        ):
            seq = int(_sg())
            key = (seq, _site, _kf())
            repeat = False
            if _mark:
                repeat = key in _sites
                _sites.add(key)
            report = _x(src, dst, _nb)
            _e(
                now, T.DMA_EXEC, site=_site, src=src, dst=dst, nbytes=_nb,
                classification=report.classification.label, phase=_ph,
                repeat=repeat, semantic=_sem, forced=forced, seq=seq,
                loop=key[2], duration_us=_d,
            )
        return transfer_raw

    def lower_dma_base(self, dma: A.DMACopy, ctx: Ctx) -> None:
        """Base policy: transfer every time, no protection."""
        duration = costs.dma_us(self.cost, dma.size_bytes)
        src_fn = self.addr_fn(dma.src, ctx)
        dst_fn = self.addr_fn(dma.dst, ctx)
        kf = self.key_fn(ctx)
        seq_get = self.scalar_get("__task_seq")
        idx = self.emit(duration, IO, "dma", None)
        def build(
            _sf=src_fn, _df=dst_fn, _kf=kf, _sg=seq_get,
            _sites=self.rt._executed_sites, _x=self.machine.dma.transfer,
            _semf=self.rt._dma_semantic, _excl=dma.exclude,
            _site=dma.site, _nb=dma.size_bytes, _d=duration,
            _e=self._emit_tr, _n=idx + 1,
        ):
            def eff(now, _sf=_sf, _df=_df, _kf=_kf, _sg=_sg, _sites=_sites,
                    _x=_x, _semf=_semf, _excl=_excl, _site=_site, _nb=_nb,
                    _d=_d, _e=_e, _n=_n):
                src = _sf(now)
                dst = _df(now)
                seq = int(_sg())
                key = (seq, _site, _kf())
                repeat = key in _sites
                _sites.add(key)
                report = _x(src, dst, _nb)
                cls = report.classification
                _e(
                    now, T.DMA_EXEC, site=_site, src=src, dst=dst,
                    nbytes=_nb, classification=cls.label, repeat=repeat,
                    semantic=_semf(cls, _excl), seq=seq, loop=key[2],
                    duration_us=_d,
                )
                return _n
            return eff
        self.specs[idx] = (duration, IO, "dma", build)

    # -- regional privatization ---------------------------------------------

    def _lower_region_boundary(self, rb: A.RegionBoundary) -> None:
        duration, words = costs.region_boundary(self.cost, rb, self.env.words_of)
        flag = self._scalar(rb.flag)
        fget = self.scalar_get(rb.flag)
        dma_set = None if rb.dma_flag is None else self._scalar(rb.dma_flag).set
        nbytes = words * 2
        refresh_get = None
        if rb.refresh_on is not None:
            try:
                refresh_get = self.scalar_get(rb.refresh_on)
            except (ProgramError, Unlowerable):
                refresh_get = None
        fwd = []    # first privatization: var -> copy, all of them
        mix = []    # refresh re-entry: refreshed vars forward, rest back
        back = []   # restore: copy -> var
        for var, copy in rb.copies:
            f = self.copy_pair(var, copy)
            b = self.copy_pair(copy, var)
            fwd.append(f)
            mix.append(f if var in rb.refresh_vars else b)
            back.append(b)
        idx = self.emit(duration, OVERHEAD, "fram", None)
        def build(
            _fget=fget, _fset=flag.set, _dset=dma_set, _rg=refresh_get,
            _fwd=fwd, _mix=mix, _back=back, _rid=rb.region_id, _nb=nbytes,
            _d=duration, _e=self._emit_tr, _n=idx + 1,
        ):
            def eff(now, _fget=_fget, _fset=_fset, _dset=_dset, _rg=_rg,
                    _fwd=_fwd, _mix=_mix, _back=_back, _rid=_rid, _nb=_nb,
                    _d=_d, _e=_e, _n=_n):
                refresh = bool(_rg()) if _rg is not None else False
                first = not _fget()
                if first or refresh:
                    for dv, sv in (_fwd if first else _mix):
                        dv[:] = sv
                    _fset(1)
                    if _dset is not None:
                        _dset(1)
                    _e(
                        now, T.PRIVATIZE, region=_rid, refresh=refresh,
                        nbytes=_nb, duration_us=_d,
                    )
                else:
                    for dv, sv in _back:
                        dv[:] = sv
                    _e(
                        now, T.RESTORE, region=_rid, nbytes=_nb,
                        duration_us=_d,
                    )
                return _n
            return eff
        self.specs[idx] = (duration, OVERHEAD, "fram", build)

    def _lower_copy_words(self, cw: A.CopyWords) -> None:
        pair = self.copy_pair(cw.src, cw.dst)
        duration = costs.copy_words_us(self.cost, cw, self.env.words_of)
        idx = self.emit(duration, OVERHEAD, "fram", None)
        def build(_p=pair, _n=idx + 1):
            def eff(now, _p=_p, _n=_n):
                dv, sv = _p
                dv[:] = sv
                return _n
            return eff
        self.specs[idx] = (duration, OVERHEAD, "fram", build)

    # ==== commit (shared by the runtime hooks) =============================

    def lower_commit(
        self, task: A.Task, next_task: Optional[str], commit_effects,
    ) -> None:
        """The atomic commit instruction (cursor bump + TASK_COMMIT)."""
        rt = self.rt
        cur_set = self._scalar("__cur_task").set
        done_set = self._scalar("__done").set
        seq_cell = self._scalar("__task_seq")
        seq_get = self.scalar_get("__task_seq")
        next_idx = None if next_task is None else rt._task_index[next_task]
        idx = self.emit(self.cost.commit_base_us, OVERHEAD, "fram", None)
        def build(
            _ce=commit_effects, _cur=cur_set, _done=done_set,
            _sg=seq_get, _ss=seq_cell.set, _i=next_idx,
            _t=task.name, _nt=next_task, _e=self._emit_tr,
        ):
            def eff(now, _ce=_ce, _cur=_cur, _done=_done, _sg=_sg, _ss=_ss,
                    _i=_i, _t=_t, _nt=_nt, _e=_e):
                # ---- atomic commit point ----
                if _ce is not None:
                    _ce()
                if _i is not None:
                    _cur(_i)
                else:
                    _done(1)
                _ss(int(_sg()) + 1)
                _e(now, T.TASK_COMMIT, task=_t, next=_nt)
                if _i is None:
                    _e(now, T.PROGRAM_DONE)
                    return HALT
                return DISPATCH_PC
            return eff
        self.specs[idx] = (self.cost.commit_base_us, OVERHEAD, "fram", build)

    def emit_fell_through(self, task: A.Task) -> None:
        def build(_name=task.name):
            def eff(now, _name=_name):
                raise ProgramError(
                    f"task {_name!r} fell through without TransitionTo/Halt"
                )
            return eff
        self.ctl(build)

    # ==== program assembly =================================================

    def lower_program(self) -> VM:
        rt = self.rt
        tasks = rt.program.tasks
        entry_labels = [self.label() for _ in tasks]
        dispatch_build = rt.vm_build_dispatch(self, entry_labels)
        self.ctl(dispatch_build)  # pc 0 == DISPATCH_PC
        for i, task in enumerate(tasks):
            self.mark(entry_labels[i])
            self._cur_task = task
            rt.vm_lower_task(self, task, i)
        code = self._finalize()
        vmcode = VMCode(
            code, self.max_regs, len(self.S), rt.name, rt.program_name
        )
        return VM(vmcode, rt, self.R, self.S)

    def _finalize(self) -> List[tuple]:
        code: List[tuple] = []
        power_get = self._power.get
        cpu_mw = self._cpu_mw
        for dur, kind, cat, build in self.specs:
            eff = build()
            if dur is None:
                code.append((None, None, None, None, None, eff, None))
            else:
                step = Step(dur, kind, cat)
                draw = power_get(cat, cpu_mw)
                code.append(
                    (
                        dur, step, "time_us." + kind, cat,
                        draw * dur * 1e-3, eff, draw,
                    )
                )
        return code

    # The current task context, for commit lowering from lower_stmt.
    _cur_task: A.Task = None  # type: ignore[assignment]


def lower(runtime) -> Optional[VM]:
    """Compile ``runtime`` into a VM, or ``None`` when not lowerable.

    A ``None`` return means the executor keeps using the generator
    interpreter for this runtime — behaviour-preserving by
    construction.
    """
    try:
        return Lowerer(runtime).lower_program()
    except (Unlowerable, ProgramError, PeripheralError, ReproError, KeyError):
        return None
