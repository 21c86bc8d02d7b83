"""repro.vm — compile runtime policy into a register-style stepped VM.

The default execution path (``REPRO_SIM_PATH=vm``, see
:mod:`repro.fastpath`): :func:`~repro.vm.lower.lower` compiles one
runtime instance's program — with that runtime's privatization/lock/
IO/DMA policy baked in — into flat bytecode, and
:class:`~repro.vm.machine.VM` steps it with explicit, snapshotable
machine state.  The runtime's step-generator interpreter is the
reference path and the oracle: every trace and metric the VM produces
must match it byte-for-byte (DESIGN.md §13).
"""

from repro.vm.machine import DISPATCH_PC, HALT, VM, VMCode
from repro.vm.lower import Lowerer, Unlowerable, lower

__all__ = [
    "DISPATCH_PC",
    "HALT",
    "VM",
    "VMCode",
    "Lowerer",
    "Unlowerable",
    "lower",
]
