"""Task-runtime machinery: environment, interpreter, base runtime.

A :class:`TaskRuntime` executes a :class:`~repro.ir.ast.Program` on a
:class:`~repro.hw.mcu.Machine` as a *step generator*: every statement
first yields a :class:`~repro.kernel.stats.Step` carrying its latency
and accounting class, and only applies its memory/peripheral effects
when the executor resumes the generator.  A power failure abandons the
generator between those two points, so interrupted statements leave no
trace — the all-or-nothing granularity real hardware gives at the
instruction level.

Key structural choices that reproduce the paper's phenomena:

* **Program state lives in simulated memory, not Python.**  All
  variables resolve to cells in SRAM/FRAM; the runtime itself keeps its
  progress cursor (``__cur_task``) in FRAM.  After a reboot,
  ``start()`` resumes purely from non-volatile state.
* **CPU accesses are virtualizable, DMA is not.**
  :class:`PrivatizingRuntime` installs per-task *redirects* to
  privatize CPU variable accesses (Alpaca's WAR privatization, InK's
  working copies).  DMA endpoints always resolve through
  :meth:`Environment.addr_of`, which ignores redirects: DMA
  configuration takes raw pointers, which is exactly why task-level
  privatization cannot protect DMA traffic (paper section 2.1.2).
* **Loop variables live in registers** (Python-side interpreter
  context): they cost nothing to access and die with the attempt.
* **Prices come from** :mod:`repro.ir.costs`, charged per executed
  statement; the VM lowerer charges the same prices once per compile.

Subclass hooks: ``_task_prologue`` (per-attempt entry work),
``_commit_steps`` (pre-commit work such as write-backs),
``_commit_effects`` (state folded into the atomic commit),
``_exec_dma`` (DMA policy — EaseIO overrides it), and their
``vm_lower_*`` counterparts for the VM lowerer.
:class:`PrivatizingRuntime` fills the entry and commit hooks on both
paths for the two task-level privatizers, Alpaca and InK, which only
choose what a task copies and what it writes back.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ProgramError, ReproError
from repro.hw import trace as T
from repro.hw.mcu import Machine
from repro.ir import ast as A
from repro.ir import costs
from repro.kernel.stats import APP, IO, OVERHEAD, Step


class _TaskExit(Exception):
    """Internal control flow: the running task committed a transition."""

    def __init__(self, halted: bool) -> None:
        super().__init__("task exit")
        self.halted = halted


class Environment:
    """Variable bindings of one loaded program.

    Allocates every declaration into its region, applies initializers,
    and mediates reads/writes.  ``redirects`` maps program variable
    names to privatized storage names for CPU accesses; DMA address
    resolution deliberately bypasses it.
    """

    _REGION_FOR = {A.NV: "fram", A.LOCAL: "sram", A.LEARAM: "learam"}

    def __init__(self, machine: Machine, program: A.Program) -> None:
        self.machine = machine
        self.program = program
        self.redirects: Dict[str, str] = {}
        self._storage: Dict[str, str] = {}
        #: storage class -> allocator, resolved once (hot path)
        self._allocators = {
            A.NV: machine.fram,
            A.LOCAL: machine.sram,
            A.LEARAM: machine.learam,
        }
        #: decl name -> (cell, ready-to-store value); initializers are
        #: re-applied on every reset/boot, and converting the literal
        #: tuple to an ndarray each time dominates recycled-run resets
        self._init_cache: Dict[str, tuple] = {}
        for decl in program.decls:
            allocator = self._allocator(decl.storage)
            allocator.alloc(decl.name, decl.dtype, decl.length)
            self._storage[decl.name] = decl.storage
        self.apply_nv_inits()
        self.apply_volatile_inits()

    def _allocator(self, storage: str):
        return self._allocators[storage]

    # -- extra runtime allocations ------------------------------------------

    def add_runtime_var(
        self, name: str, storage: str, dtype: str = "int16", length: int = 1
    ) -> None:
        """Allocate a runtime-internal variable (not in program decls)."""
        if name in self._storage:
            raise ProgramError(f"runtime variable {name!r} already exists")
        self._allocator(storage).alloc(name, dtype, length)
        self._storage[name] = storage

    # -- initialization ----------------------------------------------------------

    def apply_nv_inits(self) -> None:
        for decl in self.program.decls:
            if decl.storage == A.NV and decl.init is not None:
                self._store_init(decl)

    def apply_volatile_inits(self) -> None:
        """Re-apply volatile initializers (called at every boot)."""
        for decl in self.program.decls:
            if decl.storage != A.NV and decl.init is not None:
                self._store_init(decl)

    def _store_init(self, decl: A.VarDecl) -> None:
        cached = self._init_cache.get(decl.name)
        if cached is None:
            allocator = self._allocator(decl.storage)
            if decl.is_array:
                cached = (
                    allocator.array(decl.name).load,
                    np.asarray(decl.init, dtype=decl.dtype),
                )
            else:
                cached = (allocator.cell(decl.name).set, decl.init[0])
            self._init_cache[decl.name] = cached
        store, value = cached
        store(value)

    # -- resolution ----------------------------------------------------------------

    def storage_of(self, name: str) -> str:
        try:
            return self._storage[name]
        except KeyError:
            raise ProgramError(f"unknown variable {name!r}") from None

    def nv_of(self, name: str, free=()) -> Optional[bool]:
        """Access class of ``name`` for pricing (:mod:`repro.ir.costs`).

        ``None`` (free) for a name in ``free`` (the loop variables in
        scope) or one this environment does not hold.
        """
        if name in free:
            return None
        storage = self._storage.get(name)
        return None if storage is None else storage == A.NV

    def words_of(self, name: str) -> int:
        """Word moves a CPU copy of variable ``name`` takes (no redirect)."""
        return costs.words(self.symbol(name, follow_redirect=False).nbytes)

    def _resolved(self, name: str, follow_redirect: bool) -> str:
        if follow_redirect:
            return self.redirects.get(name, name)
        return name

    def read(self, name: str, index: Optional[int] = None, follow_redirect: bool = True):
        actual = self.redirects.get(name, name) if follow_redirect else name
        allocator = self._allocator(self.storage_of(actual))
        if index is None:
            sym = allocator.lookup(actual)
            if sym.length > 1:
                raise ProgramError(f"array {name!r} read without an index")
            return allocator.cell(actual).get()
        return allocator.array(actual).get(int(index))

    def write(
        self,
        name: str,
        value,
        index: Optional[int] = None,
        follow_redirect: bool = True,
    ) -> None:
        actual = self.redirects.get(name, name) if follow_redirect else name
        allocator = self._allocator(self.storage_of(actual))
        if index is None:
            sym = allocator.lookup(actual)
            if sym.length > 1:
                raise ProgramError(f"array {name!r} written without an index")
            allocator.cell(actual).set(value)
        else:
            allocator.array(actual).set(int(index), value)

    def array(self, name: str, follow_redirect: bool = True):
        actual = self._resolved(name, follow_redirect)
        return self._allocator(self.storage_of(actual)).array(actual)

    def cell(self, name: str, follow_redirect: bool = True):
        actual = self._resolved(name, follow_redirect)
        return self._allocator(self.storage_of(actual)).cell(actual)

    def symbol(self, name: str, follow_redirect: bool = True):
        actual = self._resolved(name, follow_redirect)
        return self._allocator(self.storage_of(actual)).lookup(actual)

    def addr_of(self, name: str, offset_elems: int = 0) -> int:
        """Raw address of a variable window — NO redirect.

        This is what gets programmed into DMA registers; privatization
        redirects do not apply (section 2.1.2).
        """
        sym = self.symbol(name, follow_redirect=False)
        return sym.addr + int(offset_elems) * int(np.dtype(sym.dtype).itemsize)

    def copy_words(self, src: str, dst: str) -> None:
        """Bulk copy variable ``src`` into ``dst``.

        Used by runtime privatization (CPU-driven, hence costed by the
        caller); both symbols must have identical shape.
        """
        s = self.symbol(src, follow_redirect=False)
        d = self.symbol(dst, follow_redirect=False)
        if (s.dtype, s.length) != (d.dtype, d.length):
            raise ProgramError(
                f"copy shape mismatch: {src!r} {s.dtype}x{s.length} vs "
                f"{dst!r} {d.dtype}x{d.length}"
            )
        data = self.machine.space.read(s.addr, s.nbytes)
        self.machine.space.write(d.addr, data)

    def snapshot_nv(self, names: Sequence[str]) -> Dict[str, object]:
        """Read NV variables for correctness comparison."""
        out: Dict[str, object] = {}
        for name in names:
            sym = self.symbol(name, follow_redirect=False)
            if sym.length > 1:
                out[name] = self.array(name, follow_redirect=False).to_numpy()
            else:
                out[name] = self.cell(name, follow_redirect=False).get()
        return out


class TaskRuntime:
    """Base task-based intermittent runtime (abstract policy points).

    The base class alone behaves like a plain task system with *no*
    privatization and no I/O awareness; the Alpaca/InK/EaseIO
    subclasses layer their policies on the hooks.
    """

    name = "base"
    #: fixed code-size contribution of the runtime kernel, bytes
    #: (Table 6 ``.text`` accounting; calibrated per subclass)
    base_text_bytes = 600
    #: bytes of .text attributed to each IR statement
    text_bytes_per_stmt = 14

    def __init__(self, program: A.Program, machine: Machine) -> None:
        program.validate()
        self.program = program
        self.machine = machine
        self.env = Environment(machine, program)
        self._task_index = {t.name: i for i, t in enumerate(program.tasks)}
        # runtime progress cursor, in FRAM: survives power failures
        self.env.add_runtime_var("__cur_task", A.NV, "int16")
        self.env.add_runtime_var("__done", A.NV, "uint8")
        self.env.add_runtime_var("__task_seq", A.NV, "int32")
        self.env.cell("__cur_task").set(self._task_index[program.entry])
        # measurement infrastructure (not program state): which I/O
        # sites already ran within the current task instance
        self._executed_sites: Set[Tuple[int, str, Tuple[int, ...]]] = set()
        # interpreter context: loop variables of the current attempt
        self._loop_vars: Dict[str, int] = {}
        self._nv_of = partial(self.env.nv_of, free=self._loop_vars)
        self._attempts: Dict[int, int] = {}
        self._load()

    # -- compiled-program lifecycle ------------------------------------------

    @classmethod
    def instantiate(cls, compiled, machine: Machine) -> "TaskRuntime":
        """Create a fresh runtime on ``machine`` from a compiled program.

        ``compiled`` is whatever this runtime class's constructor takes
        (a validated :class:`~repro.ir.ast.Program`; the EaseIO subclass
        takes a :class:`~repro.ir.transform.TransformResult`) and may be
        **shared** between many concurrent runtime instances — this is
        the copy-on-instantiate boundary of the compilation cache.  All
        mutable per-run state (memory image, flags, trace, cursors)
        lives in the machine and the runtime instance; the compiled
        artifact is never written to after construction.
        """
        return cls(compiled, machine)

    def reset(self) -> None:
        """Return the runtime and its machine to the just-loaded state.

        Equivalent to instantiating a fresh runtime on a fresh machine:
        memory is re-zeroed and re-initialized, clocks/traces/meters
        and peripheral state are cleared, and the progress cursor
        points at the entry task again.  Lets one instance be reused
        for many independent runs without paying allocation again.
        """
        self.machine.reset()
        self.env.redirects.clear()
        self._loop_vars.clear()
        self._executed_sites.clear()
        self._attempts.clear()
        self.env.apply_nv_inits()
        self.env.apply_volatile_inits()
        self.env.cell("__cur_task").set(self._task_index[self.program.entry])
        self.env.cell("__done").set(0)
        self.env.cell("__task_seq").set(0)
        self._reset_state()

    def _reset_state(self) -> None:
        """Subclass hook: re-initialize runtime-private state on reset.

        The default is a no-op because runtime-private variables live
        in simulated memory, which :meth:`reset` just re-zeroed — the
        same state they have right after :meth:`_load`.
        """

    # -- subclass hooks -------------------------------------------------------

    def _load(self) -> None:
        """Allocate runtime-private storage (called once at init)."""

    def _task_prologue(self, task: A.Task) -> Iterator[Step]:
        """Per-attempt entry work (privatization copies...)."""
        return iter(())

    def _commit_steps(self, task: A.Task) -> Iterator[Step]:
        """Pre-commit work with its own cost (write-backs...)."""
        return iter(())

    def _commit_effects(self, task: A.Task) -> None:
        """State folded into the atomic commit point."""

    def on_reboot(self) -> None:
        """Volatile runtime state reset (called by the executor)."""
        self.env.redirects.clear()
        self._loop_vars.clear()
        self.env.apply_volatile_inits()

    # -- public facade -----------------------------------------------------------

    @property
    def program_name(self) -> str:
        return self.program.name

    @property
    def completed(self) -> bool:
        return bool(self.env.cell("__done").get())

    def current_task_name(self) -> str:
        idx = int(self.env.cell("__cur_task").get())
        return self.program.tasks[idx].name

    def text_proxy(self) -> int:
        # memoized: the program is frozen, but metrics ask once per run
        # and statement_count() walks the whole AST
        cached = getattr(self, "_text_proxy_cache", None)
        if cached is None:
            cached = self._text_proxy_cache = (
                self.base_text_bytes
                + self.text_bytes_per_stmt * self.program.statement_count()
            )
        return cached

    def result_state(self, names: Sequence[str]) -> Dict[str, object]:
        return self.env.snapshot_nv(names)

    def start(self) -> Iterator[Step]:
        """(Re)start execution from the committed task cursor."""
        while not self.completed:
            self._loop_vars.clear()  # TransitionTo may exit mid-loop
            idx = int(self.env.cell("__cur_task").get())
            seq = int(self.env.cell("__task_seq").get())
            task = self.program.tasks[idx]
            self._attempts[seq] = self._attempts.get(seq, 0) + 1
            self.machine.trace.emit(
                self.machine.now_us,
                T.TASK_START,
                task=task.name,
                seq=seq,
                attempt=self._attempts[seq],
            )
            yield from self._task_prologue(task)
            try:
                yield from self._exec_stmts(task.body)
            except _TaskExit as exit_:
                if exit_.halted:
                    return
                continue
            raise ProgramError(
                f"task {task.name!r} fell through without TransitionTo/Halt"
            )

    # -- interpreter --------------------------------------------------------------

    def _exec_stmts(self, stmts: Sequence[A.Stmt]) -> Iterator[Step]:
        for stmt in stmts:
            yield from self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: A.Stmt) -> Iterator[Step]:
        if isinstance(stmt, A.Assign):
            yield from self._exec_assign(stmt)
        elif isinstance(stmt, A.Compute):
            yield from self._exec_compute(stmt)
        elif isinstance(stmt, A.IOCall):
            yield from self._exec_io(stmt)
        elif isinstance(stmt, A.IOBlock):
            # un-transformed block (baselines): plain sequencing
            yield from self._exec_stmts(stmt.body)
        elif isinstance(stmt, A.DMACopy):
            yield from self._exec_dma(stmt)
        elif isinstance(stmt, A.If):
            yield from self._exec_if(stmt)
        elif isinstance(stmt, A.Loop):
            yield from self._exec_loop(stmt)
        elif isinstance(stmt, A.RegionBoundary):
            yield from self._exec_region_boundary(stmt)
        elif isinstance(stmt, A.CopyWords):
            yield from self._exec_copy_words(stmt)
        elif isinstance(stmt, A.Marker):
            yield from self._exec_marker(stmt)
        elif isinstance(stmt, A.TransitionTo):
            yield from self._exec_transition(stmt.task)
        elif isinstance(stmt, A.Halt):
            yield from self._exec_halt()
        else:
            raise ProgramError(f"unknown statement {type(stmt).__name__}")

    # -- expressions ---------------------------------------------------------------

    def _eval(self, expr: A.Expr) -> float:
        if isinstance(expr, A.Const):
            return float(expr.value)
        if isinstance(expr, A.Var):
            if expr.name in self._loop_vars:
                return float(self._loop_vars[expr.name])
            return float(self.env.read(expr.name))
        if isinstance(expr, A.Index):
            return float(self.env.read(expr.name, int(self._eval(expr.index))))
        if isinstance(expr, A.BinOp):
            lhs, rhs = self._eval(expr.lhs), self._eval(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                return lhs / rhs
            if expr.op == "//":
                return float(int(lhs // rhs))
            if expr.op == "%":
                return lhs % rhs
            if expr.op == "min":
                return min(lhs, rhs)
            if expr.op == "max":
                return max(lhs, rhs)
        if isinstance(expr, A.Cmp):
            lhs, rhs = self._eval(expr.lhs), self._eval(expr.rhs)
            result = {
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
                "==": lhs == rhs,
                "!=": lhs != rhs,
            }[expr.op]
            return 1.0 if result else 0.0
        if isinstance(expr, A.BoolOp):
            if expr.op == "and":
                for op in expr.operands:
                    if self._eval(op) == 0.0:
                        return 0.0
                return 1.0
            for op in expr.operands:  # or
                if self._eval(op) != 0.0:
                    return 1.0
            return 0.0
        if isinstance(expr, A.Not):
            return 0.0 if self._eval(expr.operand) != 0.0 else 1.0
        if isinstance(expr, A.GetTime):
            return self.machine.timekeeper.read(self.machine.now_us)
        raise ProgramError(f"unknown expression {type(expr).__name__}")

    def _store(self, target: A.LValue, value: float) -> None:
        if isinstance(target, A.Var):
            self.env.write(target.name, value)
        elif isinstance(target, A.Index):
            self.env.write(target.name, value, int(self._eval(target.index)))
        else:
            raise ProgramError(f"invalid assignment target {target!r}")

    # -- simple statements -------------------------------------------------------------

    def _kind_of(self, synthetic: bool) -> str:
        return OVERHEAD if synthetic else APP

    def _exec_assign(self, stmt: A.Assign) -> Iterator[Step]:
        duration, category = costs.assign(self.machine.cost, self._nv_of, stmt)
        yield Step(duration, self._kind_of(stmt.synthetic), category)
        self._store(stmt.target, self._eval(stmt.expr))

    def _exec_compute(self, stmt: A.Compute) -> Iterator[Step]:
        for slice_us in costs.compute_slices(self.machine.cost, stmt):
            yield Step(slice_us, APP, "cpu")

    def _exec_if(self, stmt: A.If) -> Iterator[Step]:
        duration = costs.if_head_us(self.machine.cost, self._nv_of, stmt)
        yield Step(duration, self._kind_of(stmt.synthetic), "cpu")
        branch = stmt.then if self._eval(stmt.cond) != 0.0 else stmt.orelse
        yield from self._exec_stmts(branch)

    def _exec_loop(self, stmt: A.Loop) -> Iterator[Step]:
        cost = self.machine.cost
        for i in range(stmt.count):
            yield Step(cost.loop_iter_us, APP, "cpu")
            self._loop_vars[stmt.var] = i
            yield from self._exec_stmts(stmt.body)
        self._loop_vars.pop(stmt.var, None)

    def _exec_marker(self, stmt: A.Marker) -> Iterator[Step]:
        # a skipped operation still costs its guard's else-branch: nothing
        yield Step(0.0, OVERHEAD, "cpu")
        self.machine.trace.emit(
            self.machine.now_us, stmt.kind, **dict(stmt.detail)
        )

    # -- I/O ----------------------------------------------------------------------------

    def _loop_index_key(self) -> Tuple[int, ...]:
        return tuple(self._loop_vars.values())

    def _site_key(self, site: str) -> Tuple[int, str, Tuple[int, ...]]:
        seq = int(self.env.cell("__task_seq").get())
        return (seq, site, self._loop_index_key())

    def _exec_io(self, call: A.IOCall) -> Iterator[Step]:
        duration, category = costs.io_call(
            self.machine.cost, self.machine.peripherals, self.program, call
        )
        yield Step(duration, IO, category)
        key = self._site_key(call.site)
        repeat = key in self._executed_sites
        self._executed_sites.add(key)
        value = self._invoke_io(call, duration)
        if call.out is not None and value is not None:
            self._store(call.out, value)
        self.machine.trace.emit(
            self.machine.now_us,
            T.IO_EXEC,
            func=call.func,
            site=call.site,
            repeat=repeat,
            value=value,
            semantic=call.annotation.semantic.value,
            seq=key[0],
            loop=key[2],
            duration_us=duration,
        )

    def _invoke_io(self, call: A.IOCall, expected_duration: float) -> Optional[float]:
        if call.is_lea:
            return self._invoke_lea(call)
        args = [self._eval(a) for a in call.args]
        result = self.machine.peripherals.invoke(
            call.func, self.machine.now_us, args
        )
        return result.value

    def _lea_operand(self, p: Dict[str, object], key: str):
        """Resolve an accelerator operand, honoring optional windowing
        (``<key>_off`` / ``<key>_len`` parameters)."""
        cell = self.env.array(str(p[key]), follow_redirect=False)
        off = int(p.get(f"{key}_off", 0))  # type: ignore[arg-type]
        length = p.get(f"{key}_len")
        if off or length is not None:
            n = int(length) if length is not None else len(cell) - off
            cell = cell.slice(off, n)
        return cell

    def _invoke_lea(self, call: A.IOCall) -> Optional[float]:
        lea = self.machine.lea
        p = call.lea_params or {}
        op = call.func.split(".", 1)[1]

        def arr(key: str):
            return self._lea_operand(p, key)
        if op == "fir":
            lea.fir(arr("samples"), arr("coeffs"), arr("output"), int(p["n_out"]))
            return None
        if op == "mac":
            value, _ = lea.mac(arr("a"), arr("b"), int(p["n"]))
            return value
        if op == "conv2d":
            lea.conv2d(
                arr("image"), arr("kernel"), arr("output"),
                int(p["height"]), int(p["width"]), int(p["ksize"]),
            )
            return None
        if op == "fc":
            lea.fully_connected(
                arr("weights"), arr("inputs"), arr("output"),
                int(p["n_out"]), int(p["n_in"]),
            )
            return None
        if op == "relu":
            lea.relu(arr("data"), int(p["n"]))
            return None
        if op == "argmax":
            value, _ = lea.argmax(arr("data"), int(p["n"]))
            return float(value)
        raise ProgramError(f"unknown LEA op {call.func!r}")

    # -- DMA (base policy: execute every time, no protection) ---------------------------

    def _dma_window(self, dma: A.DMACopy) -> Tuple[int, int]:
        src = self.env.addr_of(dma.src.name, int(self._eval(dma.src.offset)))
        dst = self.env.addr_of(dma.dst.name, int(self._eval(dma.dst.offset)))
        return src, dst

    def _exec_dma(self, dma: A.DMACopy) -> Iterator[Step]:
        yield Step(costs.dma_us(self.machine.cost, dma.size_bytes), IO, "dma")
        self._do_dma_transfer(dma)

    @staticmethod
    def _dma_semantic(classification, exclude: bool) -> str:
        """Effective re-execution semantic of a DMA transfer.

        ``Exclude`` is the programmer's opt-out; otherwise the
        endpoint volatility decides (section 4.3): any transfer into
        non-volatile memory is ``Single``, out of non-volatile memory
        is ``Private``, volatile-to-volatile is ``Always``.
        """
        if exclude:
            return "Exclude"
        if classification.dst_nonvolatile:
            return "Single"
        if classification.src_nonvolatile:
            return "Private"
        return "Always"

    def _do_dma_transfer(self, dma: A.DMACopy) -> None:
        src, dst = self._dma_window(dma)
        key = self._site_key(dma.site)
        repeat = key in self._executed_sites
        self._executed_sites.add(key)
        report = self.machine.dma.transfer(src, dst, dma.size_bytes)
        self.machine.trace.emit(
            self.machine.now_us,
            T.DMA_EXEC,
            site=dma.site,
            src=src,
            dst=dst,
            nbytes=dma.size_bytes,
            classification=report.classification.label,
            repeat=repeat,
            semantic=self._dma_semantic(report.classification, dma.exclude),
            seq=key[0],
            loop=key[2],
            duration_us=self.machine.dma.cost_us(dma.size_bytes),
        )

    # -- regional privatization (used by EaseIO-transformed programs) --------------------

    def _exec_region_boundary(self, rb: A.RegionBoundary) -> Iterator[Step]:
        duration, words = costs.region_boundary(
            self.machine.cost, rb, self.env.words_of
        )
        flag = self.env.cell(rb.flag, follow_redirect=False)
        dma_flag_cell = (
            None
            if rb.dma_flag is None
            else self.env.cell(rb.dma_flag, follow_redirect=False)
        )
        nbytes = words * 2
        yield Step(duration, OVERHEAD, "fram")
        refresh = False
        if rb.refresh_on is not None:
            try:
                refresh = bool(self.env.read(rb.refresh_on, follow_redirect=False))
            except ProgramError:
                refresh = False
        first = not flag.get()
        if first or refresh:
            for var, copy in rb.copies:
                if first or var in rb.refresh_vars:
                    self.env.copy_words(var, copy)
                else:
                    # refresh re-entry: only the re-executed DMA's
                    # destination holds fresh data; other variables
                    # hold partial writes from the failed attempt and
                    # must roll back to the existing snapshot
                    self.env.copy_words(copy, var)
            flag.set(1)
            if dma_flag_cell is not None:
                dma_flag_cell.set(1)
            self.machine.trace.emit(
                self.machine.now_us, T.PRIVATIZE, region=rb.region_id,
                refresh=refresh, nbytes=nbytes, duration_us=duration,
            )
        else:
            for var, copy in rb.copies:
                self.env.copy_words(copy, var)
            self.machine.trace.emit(
                self.machine.now_us, T.RESTORE, region=rb.region_id,
                nbytes=nbytes, duration_us=duration,
            )

    def _exec_copy_words(self, cw: A.CopyWords) -> Iterator[Step]:
        # charged before the (atomic) effect
        duration = costs.copy_words_us(self.machine.cost, cw, self.env.words_of)
        yield Step(duration, OVERHEAD, "fram")
        self.env.copy_words(cw.src, cw.dst)

    # -- task transitions ------------------------------------------------------------------

    def _exec_transition(self, next_task: str) -> Iterator[Step]:
        cur_cell = self.env.cell("__cur_task")
        task = self.program.tasks[int(cur_cell.get())]
        yield from self._commit_steps(task)
        yield Step(self.machine.cost.commit_base_us, OVERHEAD, "fram")
        # ---- atomic commit point ----
        self._commit_effects(task)
        cur_cell.set(self._task_index[next_task])
        seq_cell = self.env.cell("__task_seq")
        seq_cell.set(int(seq_cell.get()) + 1)
        self.env.redirects.clear()
        self.machine.trace.emit(
            self.machine.now_us, T.TASK_COMMIT, task=task.name, next=next_task
        )
        raise _TaskExit(halted=False)

    def _exec_halt(self) -> Iterator[Step]:
        cur_cell = self.env.cell("__cur_task")
        task = self.program.tasks[int(cur_cell.get())]
        yield from self._commit_steps(task)
        yield Step(self.machine.cost.commit_base_us, OVERHEAD, "fram")
        self._commit_effects(task)
        self.env.cell("__done").set(1)
        seq_cell = self.env.cell("__task_seq")
        seq_cell.set(int(seq_cell.get()) + 1)
        self.env.redirects.clear()
        self.machine.trace.emit(
            self.machine.now_us, T.TASK_COMMIT, task=task.name, next=None
        )
        self.machine.trace.emit(self.machine.now_us, T.PROGRAM_DONE)
        raise _TaskExit(halted=True)

    # -- VM lowering hooks -----------------------------------------------------------
    #
    # Each runtime contributes its policy lowering to the bytecode
    # compiler (repro.vm.lower) through these hooks.  The base
    # implementations lower the unprotected-baseline policy; subclasses
    # override exactly the pieces where their policy diverges from the
    # generator path, so specialization happens once per compile
    # instead of once per executed statement.

    def vm_redirects(self, task: A.Task) -> Dict[str, str]:
        """Static name redirects in effect for ``task``'s whole body.

        The generator path installs redirects dynamically in
        ``env.redirects``; lowering resolves them at compile time, so a
        runtime whose redirects are fixed per task (privatization
        copies) reports them here and the VM never consults the dict.
        """
        return {}

    def vm_build_dispatch(self, lw, entry_labels) -> Callable:
        """Build the pc-0 dispatch instruction (the reboot entry).

        Re-reads the committed task cursor from simulated FRAM, bumps
        the attempt counter, emits TASK_START, and jumps to the task's
        entry — the lowered form of the ``start()`` loop header.
        """
        names = [t.name for t in self.program.tasks]
        done_get = lw.scalar_get("__done")
        cur_get = lw.scalar_get("__cur_task")
        seq_get = lw.scalar_get("__task_seq")
        attempts = self._attempts
        emit = self.machine.trace.emit

        def build(_labels=entry_labels):
            entries = [lab.pc for lab in _labels]

            def eff(now, _d=done_get, _c=cur_get, _s=seq_get, _a=attempts,
                    _e=emit, _n=names, _en=entries):
                if _d():
                    return -1  # HALT: resumed after PROGRAM_DONE
                idx = int(_c())
                seq = int(_s())
                attempt = _a.get(seq, 0) + 1
                _a[seq] = attempt
                _e(
                    now, T.TASK_START, task=_n[idx], seq=seq,
                    attempt=attempt,
                )
                return _en[idx]

            return eff

        return build

    def vm_lower_task(self, lw, task: A.Task, index: int) -> None:
        """Lower one task: prologue, body, fell-through guard."""
        ctx = lw.begin_task(task)
        self.vm_lower_prologue(lw, task)
        lw.lower_stmts(task.body, ctx)
        lw.emit_fell_through(task)

    def vm_lower_prologue(self, lw, task: A.Task) -> None:
        """Per-attempt entry work (privatization); base has none."""

    def vm_lower_commit(self, lw, task: A.Task, next_task: Optional[str]) -> None:
        """Lower TransitionTo/Halt: pre-commit steps + atomic commit.

        Assumes ``_commit_steps`` is effect-free (cost-only), which
        holds for every in-tree runtime; a runtime whose commit steps
        carry effects must override this hook.
        """
        for step in self._commit_steps(task):
            lw.emit_cost_step(step)
        lw.lower_commit(
            task, next_task, lambda _f=self._commit_effects, _t=task: _f(_t)
        )

    def vm_lower_dma(self, lw, dma: A.DMACopy, ctx) -> None:
        """Lower a DMA copy; base policy transfers unconditionally."""
        lw.lower_dma_base(dma, ctx)


class PrivatizingRuntime(TaskRuntime):
    """Task-level privatization: the one policy of Alpaca and InK.

    Each task works on copies of a *copy set* of its non-volatile
    variables.  Every attempt copies them in and redirects the task's
    CPU accesses to the copies; the commit writes the *publish set*
    (a subset) back, atomically with the transition.  An interrupted
    attempt leaves the originals untouched.  DMA endpoints resolve to
    raw addresses and bypass the copies (:meth:`Environment.addr_of`).

    Subclasses supply the two sets (:meth:`_task_sets`) and the class
    constants below.  Each execution path codes the policy once: the
    interpreter in ``_task_prologue``, ``_commit_steps`` and
    ``_commit_effects``, the lowerer in ``vm_redirects``,
    ``vm_lower_prologue`` and ``vm_lower_commit``.  The two share only
    prices: :func:`repro.ir.costs.copy_in` and the cost-only
    ``_commit_steps``.
    """

    #: a task's copy of ``var`` is named ``<copy_prefix><task>_<var>``
    copy_prefix: str
    #: storage class of the copies
    copy_storage: str
    #: energy category of the copy-in step
    copy_category: str
    #: the PRIVATIZE event's region is ``<region_label>:<task>``
    region_label: str
    #: fixed kernel cost of every attempt's entry; with none, a task
    #: that copies nothing has no entry step at all
    dispatch_us = 0.0

    def _task_sets(self, task: A.Task) -> Tuple[List[str], List[str]]:
        """(copy set, publish set) of ``task``, in copy order."""
        raise NotImplementedError

    def _load(self) -> None:
        #: task name -> {var: copy}, copied in at every attempt
        self._copies: Dict[str, Dict[str, str]] = {}
        #: task name -> {var: copy}, written back at commit
        self._publish: Dict[str, Dict[str, str]] = {}
        for task in self.program.tasks:
            copy_set, publish = self._task_sets(task)
            copies = {
                var: f"{self.copy_prefix}{task.name}_{var}"
                for var in copy_set
            }
            for var, copy in copies.items():
                decl = self.program.decl(var)
                self.env.add_runtime_var(
                    copy, self.copy_storage, decl.dtype, decl.length
                )
            self._copies[task.name] = copies
            self._publish[task.name] = {
                var: copy for var, copy in copies.items() if var in publish
            }

    # -- interpreter ---------------------------------------------------------

    def _task_prologue(self, task: A.Task) -> Iterator[Step]:
        """Dispatch, copy-in and redirects (every attempt)."""
        copies = self._copies[task.name]
        if not (copies or self.dispatch_us):
            return
        duration, words = costs.copy_in(
            self.machine.cost, copies, self.env.words_of, self.dispatch_us
        )
        yield Step(duration, OVERHEAD, self.copy_category)
        for var, copy in copies.items():
            self.env.copy_words(var, copy)
        self.env.redirects.update(copies)
        if copies:
            self.machine.trace.emit(
                self.machine.now_us, T.PRIVATIZE, task=task.name,
                region=f"{self.region_label}:{task.name}", nbytes=words * 2,
                duration_us=duration,
            )

    def _commit_steps(self, task: A.Task) -> Iterator[Step]:
        """The write-back's cost."""
        publish = self._publish[task.name]
        if publish:
            yield Step(
                costs.write_back_us(
                    self.machine.cost, publish, self.env.words_of
                ),
                OVERHEAD, "fram",
            )

    def _commit_effects(self, task: A.Task) -> None:
        """The write-back, atomic with the commit point.

        Alpaca's real commit replays a redo log until a commit flag
        flips, and InK's flips a double-buffer index; folding the
        copies into the commit keeps what both guarantee: the task's
        updates and its transition land together, or neither does.
        """
        for var, copy in self._publish[task.name].items():
            self.env.copy_words(copy, var)

    # -- VM lowering ---------------------------------------------------------

    def vm_redirects(self, task: A.Task) -> Dict[str, str]:
        return self._copies[task.name]

    def vm_lower_prologue(self, lw, task: A.Task) -> None:
        """Dispatch and copy-in as one charged instruction."""
        copies = self._copies[task.name]
        if not (copies or self.dispatch_us):
            return
        duration, words = costs.copy_in(
            self.machine.cost, copies, self.env.words_of, self.dispatch_us
        )
        pairs = [lw.copy_pair(var, copy) for var, copy in copies.items()]
        region = f"{self.region_label}:{task.name}" if copies else None
        cat = self.copy_category
        idx = lw.emit(duration, OVERHEAD, cat, None)

        def build(_p=pairs, _t=task.name, _r=region, _nb=words * 2,
                  _d=duration, _e=self.machine.trace.emit, _n=idx + 1):
            def eff(now, _p=_p, _t=_t, _r=_r, _nb=_nb, _d=_d, _e=_e, _n=_n):
                for dv, sv in _p:
                    dv[:] = sv
                if _r is not None:
                    _e(
                        now, T.PRIVATIZE, task=_t, region=_r, nbytes=_nb,
                        duration_us=_d,
                    )
                return _n
            return eff

        lw.specs[idx] = (duration, OVERHEAD, cat, build)

    def vm_lower_commit(self, lw, task: A.Task, next_task: Optional[str]) -> None:
        """The write-back's cost, then the commit with prebound views."""
        for step in self._commit_steps(task):  # cost only
            lw.emit_cost_step(step)
        pairs = [
            lw.copy_pair(copy, var)
            for var, copy in self._publish[task.name].items()
        ]

        def write_back(_p=pairs):
            for dv, sv in _p:
                dv[:] = sv

        lw.lower_commit(task, next_task, write_back if pairs else None)
