"""Hardware substrate: a simulated MSP430FR5994-class batteryless board.

Sub-modules:

- :mod:`repro.hw.memory` — SRAM/LEA-RAM/FRAM address space, allocators
- :mod:`repro.hw.mcu` — clock, cost model, machine assembly
- :mod:`repro.hw.dma` — CPU-bypassing block-copy engine
- :mod:`repro.hw.lea` — vector accelerator (FIR/conv/FC kernels)
- :mod:`repro.hw.peripherals` — sensors, radio, camera models
- :mod:`repro.hw.timekeeper` — persistent time across power failures
- :mod:`repro.hw.energy` — capacitor buffer and energy metering
- :mod:`repro.hw.trace` — execution event log
"""

from repro.hw.dma import DMAEngine, TransferClass, TransferReport
from repro.hw.energy import Capacitor, EnergyMeter
from repro.hw.lea import LEA, LeaReport
from repro.hw.memory import (
    AddressSpace,
    ArrayCell,
    Cell,
    MemoryRegion,
    RegionAllocator,
    Symbol,
    default_address_space,
)
from repro.hw.mcu import Clock, CostModel, Machine, build_machine
from repro.hw.peripherals import (
    Camera,
    DelayOp,
    EnvironmentSensor,
    IOResult,
    Peripheral,
    PeripheralSet,
    Radio,
    default_peripherals,
)
from repro.hw.timekeeper import PersistentTimekeeper
from repro.hw.trace import Event, Trace

__all__ = [
    "AddressSpace",
    "ArrayCell",
    "Camera",
    "Capacitor",
    "Cell",
    "Clock",
    "CostModel",
    "DMAEngine",
    "DelayOp",
    "EnergyMeter",
    "EnvironmentSensor",
    "Event",
    "IOResult",
    "LEA",
    "LeaReport",
    "Machine",
    "MemoryRegion",
    "Peripheral",
    "PeripheralSet",
    "PersistentTimekeeper",
    "Radio",
    "RegionAllocator",
    "Symbol",
    "Trace",
    "TransferClass",
    "TransferReport",
    "build_machine",
    "default_address_space",
    "default_peripherals",
]
