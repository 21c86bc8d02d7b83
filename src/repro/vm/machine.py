"""The stepped VM: flat bytecode plus explicit, snapshotable state.

A :class:`VMCode` is the unit the lowering compiler produces for one
``(Program, runtime class, transform options)`` triple bound to one
runtime instance.  Its instruction stream is a flat list of tuples:

``(duration_us, step, time_key, category, energy_uj, effect, draw_mw)``
    a *charged* instruction: the precomputed :class:`Step` is charged
    against clock and meter exactly like the generator path
    (``draw_mw`` prices truncated windows at a power failure), and
    ``effect(now_us) -> next_pc`` applies the statement's memory and
    trace effects afterwards;

``(None, None, None, None, None, effect, None)``
    a *control* instruction: no time passes, ``effect(now_us)`` just
    computes the next pc (dispatch, loop latches, branch joins).

``effect`` returning :data:`HALT` (-1) ends the run.

Unlike the generator interpreter, the machine state between two
instructions is a plain value: the pc, the loop registers, the scratch
slots, the per-sequence attempt counts and executed-site set, plus the
simulated memory/clock/meter/RNG state.  :meth:`VM.snapshot` captures
all of it and :meth:`VM.restore` reinstates it, which is what makes a
power failure "drop volatile state, reload pc from the last commit"
and what makes pause/resume (and deterministic replay) possible at any
step boundary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.kernel.stats import Step

#: sentinel next-pc meaning "the program halted"
HALT = -1

#: pc of the dispatch instruction (every reboot resumes here)
DISPATCH_PC = 0


class VMCode:
    """Flat bytecode for one runtime instance.

    The instruction tuples close over the instance's typed cells, byte
    views and bound trace/peripheral methods, so executing them touches
    the same simulated hardware the generator interpreter would — just
    without re-walking the AST or re-dispatching runtime policy.
    """

    __slots__ = ("code", "n_regs", "n_scratch", "runtime_name", "program_name")

    def __init__(
        self,
        code: List[tuple],
        n_regs: int,
        n_scratch: int,
        runtime_name: str,
        program_name: str,
    ) -> None:
        self.code = code
        self.n_regs = n_regs
        self.n_scratch = n_scratch
        self.runtime_name = runtime_name
        self.program_name = program_name

    def __len__(self) -> int:
        return len(self.code)


class VM:
    """Executable VM state bound to one runtime instance.

    ``regs`` (loop counters) and ``scratch`` (intra-statement
    temporaries) are fixed lists whose *identity* the lowered effects
    close over; mutate them in place, never rebind.
    """

    __slots__ = ("vmcode", "runtime", "regs", "scratch", "pc", "snapshots_taken")

    def __init__(
        self,
        vmcode: VMCode,
        runtime,
        regs: Optional[List[int]] = None,
        scratch: Optional[List[Any]] = None,
    ) -> None:
        self.vmcode = vmcode
        self.runtime = runtime
        # the lowerer passes in the exact list objects its effect
        # closures captured; standalone construction allocates fresh
        self.regs = regs if regs is not None else [0] * max(1, vmcode.n_regs)
        self.scratch = (
            scratch if scratch is not None else [None] * max(1, vmcode.n_scratch)
        )
        while len(self.regs) < max(1, vmcode.n_regs):
            self.regs.append(0)
        self.pc = DISPATCH_PC
        self.snapshots_taken = 0

    # -- power-failure model -------------------------------------------------

    def on_reboot(self) -> None:
        """Drop volatile VM state: the pc reloads from the last commit.

        The committed task cursor lives in simulated FRAM; the dispatch
        instruction re-reads it, so "reboot" is just pc := DISPATCH_PC.
        Loop registers and scratch are dead values — the new attempt
        rewrites them before any use.
        """
        self.pc = DISPATCH_PC

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture the complete machine state as a plain value."""
        rt = self.runtime
        m = rt.machine
        tk = m.timekeeper
        tr = m.trace
        self.snapshots_taken += 1
        return {
            "pc": self.pc,
            "regs": list(self.regs),
            "scratch": list(self.scratch),
            "attempts": dict(rt._attempts),
            "sites": set(rt._executed_sites),
            "mem": {r.name: r.snapshot() for r in m.space._regions},
            "now_us": m.clock.now_us,
            "meter": dict(m.meter._by_category),
            "periph_rng": m.peripherals.rng.bit_generator.state,
            "periph_counts": {
                name: m.peripherals.get(name).invocations
                for name in m.peripherals.names()
            },
            "tk": (tk._skew_us, tk.reads, tk.dark_periods),
            "tk_rng": tk._rng.bit_generator.state,
            "dma": (m.dma.transfer_count, m.dma.bytes_moved),
            "lea": m.lea.invocations,
            "trace_events": list(tr.events),
            "trace_counts": dict(tr._counts),
            "trace_failures": list(tr.failures),
            "trace_last_io": tr._last_io_us,
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Reinstate a snapshot taken on this runtime instance."""
        rt = self.runtime
        m = rt.machine
        self.pc = snap["pc"]
        self.regs[:] = snap["regs"]
        self.scratch[:] = snap["scratch"]
        rt._attempts.clear()
        rt._attempts.update(snap["attempts"])
        rt._executed_sites.clear()
        rt._executed_sites.update(snap["sites"])
        for r in m.space._regions:
            r.restore(snap["mem"][r.name])
        m.clock._now_us = snap["now_us"]
        m.meter._by_category.clear()
        m.meter._by_category.update(snap["meter"])
        m.peripherals.rng.bit_generator.state = snap["periph_rng"]
        for name, count in snap["periph_counts"].items():
            m.peripherals.get(name).invocations = count
        tk = m.timekeeper
        tk._skew_us, tk.reads, tk.dark_periods = snap["tk"]
        tk._rng.bit_generator.state = snap["tk_rng"]
        m.dma.transfer_count, m.dma.bytes_moved = snap["dma"]
        m.lea.invocations = snap["lea"]
        tr = m.trace
        tr.events[:] = snap["trace_events"]
        tr._counts.clear()
        tr._counts.update(snap["trace_counts"])
        tr.failures[:] = snap["trace_failures"]
        tr._last_io_us = snap["trace_last_io"]

    # -- stand-alone stepping (tests, tools) ---------------------------------

    def drive(self, max_steps: Optional[int] = None) -> int:
        """Step the VM without a failure model; returns charged steps.

        Charges each instruction's time and energy against the bound
        machine (same arithmetic as the executor, no failures) and
        applies its effect.  Stops after ``max_steps`` charged steps or
        at :data:`HALT`.  This is the pause/resume surface: call with a
        budget, :meth:`snapshot`, resume later.
        """
        rt = self.runtime
        m = rt.machine
        code = self.vmcode.code
        clock = m.clock
        meter_add = m.meter.add
        now = clock.now_us
        done = 0
        pc = self.pc
        while pc >= 0:
            if max_steps is not None and done >= max_steps:
                break
            ins = code[pc]
            dur = ins[0]
            if dur is None:
                pc = ins[5](now)
                continue
            now += dur
            clock._now_us = now
            meter_add(ins[3], ins[4])
            pc = ins[5](now)
            done += 1
        self.pc = pc
        clock._now_us = now
        return done

    @property
    def halted(self) -> bool:
        return self.pc == HALT
