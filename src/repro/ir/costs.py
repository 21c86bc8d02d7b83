"""One cost model: the price of every IR node.

The functions below price IR nodes against a
:class:`~repro.hw.mcu.CostModel`, and three drivers call them.  The
drivers differ only in *when* they price:

* the reference interpreter (:mod:`repro.runtimes.base`) prices each
  statement as it executes it;
* the VM lowerer (:mod:`repro.vm.lower`) prices each statement once per
  compile and bakes the charge into the bytecode;
* :class:`CostEstimator` prices a task statically, without running it.

A driver tells the functions how a name is stored through an access
classifier ``nv_of(name)``: ``True`` for non-volatile memory (FRAM),
``False`` for volatile memory, and ``None`` for a free access — a loop
variable in scope (it lives in a register) or a name the program does
not hold.

The charges a runtime inserts around the program (a task's copy-in
and write-back, a checkpoint and its restore) are priced here too,
each by one function both execution paths call; only EaseIO's flag
checks and flag clears stay with EaseIO.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ProgramError
from repro.hw.dma import transfer_us
from repro.hw.mcu import CostModel
from repro.hw.peripherals import PeripheralSet, default_peripherals
from repro.ir import ast as A

#: access classifier: True = non-volatile, False = volatile, None = free
NvOf = Callable[[str], Optional[bool]]

#: long computations are charged in slices this long, so that failures
#: land mid-way through them
_SLICE_US = 200.0


def power_table(
    cost: CostModel, peripherals: PeripheralSet
) -> Dict[str, float]:
    """Power draw (mW) of every energy category a step can carry."""
    table = {
        "cpu": cost.power_cpu_mw,
        "fram": cost.power_fram_mw,
        "dma": cost.power_dma_mw,
        "lea": cost.power_lea_mw,
        "boot": cost.power_boot_mw,
        "timekeeper": cost.power_timekeeper_mw,
    }
    for name in peripherals.names():
        table[name] = peripherals.get(name).power_mw
    return table


def words(nbytes: int) -> int:
    """Word moves a CPU copy of ``nbytes`` takes (at least one)."""
    return max(1, nbytes // 2)


def access_us(
    cost: CostModel, nv_of: NvOf, accesses: Sequence[A.VarAccess]
) -> float:
    """CPU time of the given variable accesses."""
    total = 0.0
    for acc in accesses:
        nv = nv_of(acc.name)
        if nv is not None:
            total += cost.read_nv_us if nv else cost.read_volatile_us
    return total


def _gettimes(expr: A.Expr) -> int:
    if isinstance(expr, A.GetTime):
        return 1
    if isinstance(expr, (A.BinOp, A.Cmp)):
        return _gettimes(expr.lhs) + _gettimes(expr.rhs)
    if isinstance(expr, A.BoolOp):
        return sum(_gettimes(op) for op in expr.operands)
    if isinstance(expr, A.Not):
        return _gettimes(expr.operand)
    if isinstance(expr, A.Index):
        return _gettimes(expr.index)
    return 0


def expr_us(cost: CostModel, nv_of: NvOf, expr: A.Expr) -> float:
    """Evaluating ``expr``: its reads plus each timekeeper read."""
    return (
        access_us(cost, nv_of, expr.reads())
        + _gettimes(expr) * cost.timekeeper_read_us
    )


def assign(cost: CostModel, nv_of: NvOf, stmt: A.Assign) -> Tuple[float, str]:
    """(duration, energy category) of an assignment.

    The target's index is not charged; a store to non-volatile memory
    draws FRAM power.
    """
    duration = (
        cost.assign_us
        + expr_us(cost, nv_of, stmt.expr)
        + access_us(cost, nv_of, stmt.writes())
    )
    nv = nv_of(A.lvalue_access(stmt.target).name)
    return duration, "fram" if nv else "cpu"


def if_head_us(cost: CostModel, nv_of: NvOf, stmt: A.If) -> float:
    """The compare-and-jump of a branch."""
    return cost.branch_us + expr_us(cost, nv_of, stmt.cond)


def compute_slices(cost: CostModel, stmt: A.Compute) -> Iterator[float]:
    """The durations of the CPU steps a ``Compute`` is charged as."""
    remaining = stmt.cycles * cost.compute_unit_us
    while remaining > 0:
        slice_us = min(_SLICE_US, remaining)
        yield slice_us
        remaining -= slice_us


def _lea_macs(program: A.Program, call: A.IOCall) -> int:
    p = call.lea_params or {}
    op = call.func.split(".", 1)[1]
    if op == "fir":
        return int(p["n_out"]) * program.decl(str(p["coeffs"])).length
    if op == "mac":
        return int(p["n"])
    if op == "conv2d":
        oh = int(p["height"]) - int(p["ksize"]) + 1
        ow = int(p["width"]) - int(p["ksize"]) + 1
        return oh * ow * int(p["ksize"]) ** 2
    if op == "fc":
        return int(p["n_out"]) * int(p["n_in"])
    if op in ("relu", "argmax"):
        return (int(p["n"]) + 1) // 2
    raise ProgramError(f"unknown LEA op {call.func!r}")


def io_call(
    cost: CostModel,
    peripherals: PeripheralSet,
    program: A.Program,
    call: A.IOCall,
) -> Tuple[float, str]:
    """(duration, energy category) of a peripheral or LEA operation."""
    if call.is_lea:
        macs = _lea_macs(program, call)
        return cost.lea_setup_us + macs * cost.lea_per_mac_us, "lea"
    periph = peripherals.get(call.func)
    duration = periph.duration_us
    per_word = getattr(periph, "per_word_us", None)
    if per_word is not None:
        duration += per_word * len(call.args)
    return duration, call.func


def dma_us(cost: CostModel, nbytes: int) -> float:
    """One DMA transfer of ``nbytes``."""
    return transfer_us(nbytes, cost.dma_setup_us, cost.dma_per_word_us)


def region_boundary(
    cost: CostModel, rb: A.RegionBoundary, words_of: Callable[[str], int]
) -> Tuple[float, int]:
    """(duration, words moved) of a regional-privatization entry."""
    n = sum(words_of(var) for var, _copy in rb.copies)
    return cost.flag_check_us + cost.flag_set_us + n * cost.priv_word_us, n


def copy_words_us(
    cost: CostModel, cw: A.CopyWords, words_of: Callable[[str], int]
) -> float:
    """A whole-variable FRAM copy: one word move per data word."""
    return words_of(cw.src) * cost.priv_word_us


def copy_in(
    cost: CostModel,
    names: Iterable[str],
    words_of: Callable[[str], int],
    dispatch_us: float,
) -> Tuple[float, int]:
    """(duration, words moved) of a task's entry: a kernel dispatch
    (0 for a runtime without one), then a copy of each privatized
    variable."""
    n = sum(words_of(var) for var in names)
    return dispatch_us + n * cost.priv_word_us, n


def write_back_us(
    cost: CostModel, names: Iterable[str], words_of: Callable[[str], int]
) -> float:
    """A task's commit-time write-back of its privatized variables."""
    return sum(words_of(var) for var in names) * cost.commit_word_us


def checkpoint_us(cost: CostModel, words: int) -> float:
    """One two-phase checkpoint of a ``words``-word volatile snapshot."""
    return (
        cost.commit_base_us / 2.0 + words * cost.commit_word_us
        + cost.flag_set_us
    )


def restore_us(cost: CostModel, words: int) -> float:
    """Reading the checkpoint back: its validity check, then the words."""
    return cost.flag_check_us + words * cost.priv_word_us


# ---------------------------------------------------------------------------
# The static driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskCost:
    """Worst-case one-shot cost of a task."""

    duration_us: float
    energy_uj: float


class CostEstimator:
    """Prices each task statically: its worst-case one-shot cost.

    Feeds the linter's **non-termination check** (paper section 3.5):
    a task whose one-shot energy exceeds the capacitor's usable budget
    can never commit under intermittent power.  Every statement costs
    what the simulator charges for it, the task's commit
    (``commit_base_us`` at FRAM power) included; loops multiply by
    their trip count; a branch costs its dearer arm, for time and for
    energy separately (a short radio send can draw more than a long
    compute loop).  Runtime policy overheads (privatization,
    write-backs, checkpoints, I/O guards) are not included, so the
    estimate is the programmer-visible work every runtime pays.
    """

    def __init__(
        self,
        program: A.Program,
        cost: Optional[CostModel] = None,
        peripherals: Optional[PeripheralSet] = None,
    ) -> None:
        self.program = program
        self.cost = cost if cost is not None else CostModel()
        self.peripherals = (
            peripherals if peripherals is not None else default_peripherals()
        )
        self._power = power_table(self.cost, self.peripherals)

    def _nv_of(self, loops: Tuple[str, ...], name: str) -> Optional[bool]:
        if name in loops or not self.program.has_decl(name):
            return None
        return self.program.decl(name).storage == A.NV

    def _charge(self, duration: float, category: str) -> Tuple[float, float]:
        draw = self._power.get(category, self.cost.power_cpu_mw)
        return duration, duration * draw * 1e-3

    def _stmt(
        self, stmt: A.Stmt, loops: Tuple[str, ...]
    ) -> Tuple[float, float]:
        """(duration_us, energy_uj) of one statement."""
        c = self.cost
        nv_of = partial(self._nv_of, loops)
        if isinstance(stmt, A.Assign):
            return self._charge(*assign(c, nv_of, stmt))
        if isinstance(stmt, A.Compute):
            return self._charge(sum(compute_slices(c, stmt)), "cpu")
        if isinstance(stmt, A.IOCall):
            return self._charge(
                *io_call(c, self.peripherals, self.program, stmt)
            )
        if isinstance(stmt, A.DMACopy):
            return self._charge(dma_us(c, stmt.size_bytes), "dma")
        if isinstance(stmt, A.If):
            head = self._charge(if_head_us(c, nv_of, stmt), "cpu")
            then = self._seq(stmt.then, loops)
            orelse = self._seq(stmt.orelse, loops)
            return (
                head[0] + max(then[0], orelse[0]),
                head[1] + max(then[1], orelse[1]),
            )
        if isinstance(stmt, A.Loop):
            body = self._seq(stmt.body, loops + (stmt.var,))
            head = self._charge(c.loop_iter_us * stmt.count, "cpu")
            return (
                head[0] + body[0] * stmt.count,
                head[1] + body[1] * stmt.count,
            )
        if isinstance(stmt, A.IOBlock):
            return self._seq(stmt.body, loops)
        if isinstance(stmt, (A.TransitionTo, A.Halt)):
            return self._charge(c.commit_base_us, "fram")
        if isinstance(stmt, (A.Marker, A.RegionBoundary, A.CopyWords)):
            return 0.0, 0.0  # runtime-inserted, like the policy overheads
        raise ProgramError(f"cannot estimate {type(stmt).__name__}")

    def _seq(self, stmts, loops: Tuple[str, ...]) -> Tuple[float, float]:
        d = e = 0.0
        for stmt in stmts:
            sd, se = self._stmt(stmt, loops)
            d += sd
            e += se
        return d, e

    def task_cost(self, task_name: str) -> TaskCost:
        """Worst-case one-shot cost of the named task."""
        d, e = self._seq(self.program.task(task_name).body, ())
        return TaskCost(duration_us=d, energy_uj=e)
