"""Exception hierarchy shared across the repro package.

All errors raised by the simulator, the compiler front-end, and the
runtimes derive from :class:`ReproError` so applications can catch one
base type.  Specific subclasses exist where callers are expected to make
decisions based on the failure kind (e.g. the executor catches
:class:`PowerFailure` to model a reboot, while a
:class:`TransformError` from the compiler front-end is a programming
error that should surface to the user).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class MemoryMapError(ReproError):
    """Invalid address-space configuration (overlap, bad base/size)."""


class MemoryAccessError(ReproError):
    """Out-of-range or misaligned memory access."""


class AllocationError(ReproError):
    """A region allocator ran out of space or saw a duplicate symbol."""


class PowerFailure(ReproError):
    """Raised inside the interpreter when the failure model fires.

    The intermittent executor catches this, models a reboot (volatile
    state cleared, boot-time charged) and resumes the program from its
    last committed point.  It must never escape the executor.
    """

    def __init__(self, at_time_us: float, reason: str = "scheduled") -> None:
        super().__init__(f"power failure at t={at_time_us:.1f}us ({reason})")
        self.at_time_us = at_time_us
        self.reason = reason


class NonTermination(ReproError):
    """A task can never complete within one energy cycle.

    Detected by the executor when a task instance fails more than a
    configurable number of consecutive times without making progress
    (section 3.5 of the paper: a task whose energy cost exceeds the
    capacitor budget re-executes forever).
    """

    def __init__(self, task: str, attempts: int) -> None:
        super().__init__(
            f"task {task!r} did not complete after {attempts} consecutive "
            f"power failures; its energy cost likely exceeds the energy buffer"
        )
        self.task = task
        self.attempts = attempts


class ProgramError(ReproError):
    """Malformed program IR (unknown variable, bad operand types...)."""


class TransformError(ReproError):
    """The compiler front-end rejected the program.

    Examples: a ``Timely`` annotation without a freshness interval, or a
    ``_DMA_copy`` whose size exceeds the shared privatization buffer
    (section 6, "DMA Privatization Buffer Limits").
    """


class PeripheralError(ReproError):
    """Unknown peripheral operation or invalid peripheral arguments."""


class CampaignInterrupted(ReproError):
    """A campaign was stopped (SIGINT/SIGTERM/cancel) before finishing.

    Raised by the serve scheduler after it has *drained* in-flight
    work into the campaign's durable record (its store, or without one
    its checkpoint journal), so everything completed up to the
    interrupt is durable and the campaign can resume exactly where it
    died.  Drivers attach a partial, resumable report before
    re-raising; the CLI prints it and exits nonzero.
    """

    def __init__(self, message: str, done: int = 0, total: int = 0) -> None:
        super().__init__(message)
        self.done = done
        self.total = total
        #: index -> decoded result for every unit that finished
        self.results: dict = {}
        #: a partial report, attached by the campaign driver
        self.report: object = None
