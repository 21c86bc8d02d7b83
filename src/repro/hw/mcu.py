"""The simulated microcontroller: clock, cost model, machine assembly.

``Machine`` wires the whole substrate together the way the paper's
MSP430FR5994 board is wired: an address space split into volatile SRAM,
volatile LEA-RAM and non-volatile FRAM; a DMA engine and LEA
accelerator on that address space; an external peripheral complement; a
persistent timekeeper; and energy metering.  The intermittent kernel
(:mod:`repro.kernel`) drives a ``Machine`` under a power-failure model.

``CostModel`` is the calibration surface: every latency and power
number the simulation uses lives here with MSP430-magnitude defaults
(1 MHz core clock, so one cycle is one microsecond).  Experiments that
need different hardware assumptions construct a custom cost model; the
evaluation's claims are about *shapes* across runtimes, which are
stable under any sane calibration because every runtime pays costs from
the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.hw.dma import DMAEngine
from repro.hw.energy import EnergyMeter
from repro.hw.lea import LEA
from repro.hw.memory import (
    AddressSpace,
    RegionAllocator,
    default_address_space,
)
from repro.hw.peripherals import PeripheralSet, default_peripherals
from repro.hw.timekeeper import PersistentTimekeeper
from repro.hw.trace import Trace


class Clock:
    """Ground-truth simulation time, in microseconds."""

    def __init__(self) -> None:
        self._now_us = 0.0

    @property
    def now_us(self) -> float:
        return self._now_us

    def advance(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ReproError(f"cannot advance the clock by {duration_us}us")
        self._now_us += duration_us

    def reset(self) -> None:
        self._now_us = 0.0


@dataclass(frozen=True)
class CostModel:
    """Latency (us at 1 MHz: one cycle = 1 us) and power (mW) constants."""

    # -- CPU instruction costs -------------------------------------------
    assign_us: float = 3.0          # evaluate + store a scalar
    read_volatile_us: float = 1.0   # SRAM word read
    read_nv_us: float = 2.0         # FRAM word read
    write_volatile_us: float = 1.0  # SRAM word write
    write_nv_us: float = 4.0        # FRAM word write
    branch_us: float = 2.0          # compare + jump
    loop_iter_us: float = 3.0       # loop bookkeeping per iteration
    compute_unit_us: float = 1.0    # one abstract compute cycle

    # -- runtime-inserted operation costs ---------------------------------
    flag_check_us: float = 4.0      # read an NV lock flag + test
    flag_set_us: float = 5.0        # write an NV lock flag
    priv_word_us: float = 6.0       # privatize/restore one NV word
    commit_base_us: float = 30.0    # task-commit fixed cost
    commit_word_us: float = 6.0     # task-commit cost per committed word
    boot_us: float = 700.0          # reboot: wake + runtime restore base

    # -- engines ---------------------------------------------------------
    dma_setup_us: float = 20.0
    dma_per_word_us: float = 2.0
    lea_setup_us: float = 40.0
    lea_per_mac_us: float = 1.0
    timekeeper_read_us: float = 15.0

    # -- power draws -------------------------------------------------------
    power_cpu_mw: float = 1.2
    power_fram_mw: float = 1.8
    power_dma_mw: float = 1.5
    power_lea_mw: float = 2.2
    power_boot_mw: float = 0.9
    power_timekeeper_mw: float = 0.3
    power_sleep_mw: float = 0.005   # draw while dark (leakage)

    def scaled(self, factor: float) -> "CostModel":
        """A cost model with all *latencies* scaled by ``factor``.

        Powers are left untouched; used by sensitivity/ablation
        benches.
        """
        latency_fields = [
            f.name
            for f in self.__dataclass_fields__.values()  # type: ignore[attr-defined]
            if f.name.endswith("_us")
        ]
        return replace(self, **{name: getattr(self, name) * factor for name in latency_fields})


class Machine:
    """A fully-assembled simulated board.

    Construct via :func:`build_machine` unless a test needs to inject
    custom components.
    """

    def __init__(
        self,
        space: AddressSpace,
        cost: CostModel,
        peripherals: PeripheralSet,
        timekeeper: PersistentTimekeeper,
        trace: Optional[Trace] = None,
    ) -> None:
        self.space = space
        self.cost = cost
        self.clock = Clock()
        self.meter = EnergyMeter()
        self.trace = trace if trace is not None else Trace()
        self.peripherals = peripherals
        self.timekeeper = timekeeper
        self.dma = DMAEngine(
            space, setup_us=cost.dma_setup_us, per_word_us=cost.dma_per_word_us
        )
        self.lea = LEA(
            space, setup_us=cost.lea_setup_us, per_mac_us=cost.lea_per_mac_us
        )
        self.sram = RegionAllocator(space, "sram")
        self.learam = RegionAllocator(space, "learam")
        self.fram = RegionAllocator(space, "fram")

    # -- convenience -------------------------------------------------------

    @property
    def now_us(self) -> float:
        return self.clock.now_us

    def power_cycle(self) -> None:
        """Hardware side of a power failure: volatile memory decays."""
        self.space.power_cycle()

    def reset(self) -> None:
        """Return the board to its just-built state for a fresh run.

        Memory is zeroed in place (cached zero-copy cell views stay
        valid), counters and the trace are cleared, and the seeded
        randomness sources (sensor noise, timekeeper error) are rewound
        to their construction state so a recycled machine replays the
        exact environment of a fresh one.  Allocator layouts are *kept*
        — the same compiled program re-runs against the same symbols.
        """
        self.space.reset()
        self.clock.reset()
        self.meter.reset()
        self.trace.clear()
        self.peripherals.reset()
        self.timekeeper.reset()
        self.dma.transfer_count = 0
        self.dma.bytes_moved = 0
        self.lea.invocations = 0

    def memory_footprint(self) -> "dict[str, int]":
        """Bytes allocated per region (Table 6 raw data)."""
        return {
            "sram": self.sram.used_bytes,
            "learam": self.learam.used_bytes,
            "fram": self.fram.used_bytes,
        }


def build_machine(
    seed: int = 0,
    cost: Optional[CostModel] = None,
    trace_events: bool = True,
) -> Machine:
    """Assemble the default evaluation board.

    ``seed`` drives sensor noise (and nothing else); the power-failure
    schedule has its own seed inside the kernel so that environment and
    failures vary independently, as on real hardware.
    """
    cost = cost if cost is not None else CostModel()
    space = default_address_space()
    peripherals = default_peripherals(seed=seed)
    timekeeper = PersistentTimekeeper(
        read_cost_us=cost.timekeeper_read_us,
        seed=seed + 1,
    )
    return Machine(
        space=space,
        cost=cost,
        peripherals=peripherals,
        timekeeper=timekeeper,
        trace=Trace(enabled=trace_events),
    )
