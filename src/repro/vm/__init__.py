"""repro.vm — compile runtime policy into flat register-style bytecode.

The default execution path (``REPRO_SIM_PATH=vm``, see
:mod:`repro.fastpath`): :func:`~repro.vm.lower.lower` compiles one
runtime instance's program — with that runtime's privatization/lock/
IO/DMA policy baked in — into a flat instruction list, and the
executor steps that list with a local pc; the list is the whole VM.
A program the lowerer cannot compile raises.  The runtime's
step-generator interpreter is the reference path and the oracle:
every trace and metric the VM produces must match it byte-for-byte
(DESIGN.md §13).
"""

from repro.vm.lower import DISPATCH_PC, HALT, Lowerer, Unlowerable, lower

__all__ = [
    "DISPATCH_PC",
    "HALT",
    "Lowerer",
    "Unlowerable",
    "lower",
]
