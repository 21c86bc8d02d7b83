"""Direct Memory Access engine.

The defining property of DMA for this paper is that transfers *bypass
the CPU*: bytes move directly between memory regions without passing
through any runtime software layer.  In the simulation this means a
transfer writes straight into the backing :class:`~repro.hw.memory.
AddressSpace`, skipping whatever privatization/undo machinery a runtime
maintains for CPU stores.  That is exactly why task-level privatization
(Alpaca/InK) cannot protect DMA-touched non-volatile memory and why the
idempotence bugs of Figure 2b arise.

The engine also exposes :meth:`DMAEngine.classify`, the
volatile/non-volatile classification of a transfer's endpoints that the
EaseIO runtime uses to resolve DMA re-execution semantics at run time
(section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import MemoryAccessError
from repro.hw.memory import AddressSpace

#: Native DMA word size (the MSP430 DMA moves 16-bit words).
WORD_BYTES = 2


def transfer_us(nbytes: int, setup_us: float, per_word_us: float) -> float:
    """Latency of a transfer of ``nbytes`` (rounded up to words)."""
    words = (nbytes + WORD_BYTES - 1) // WORD_BYTES
    return setup_us + words * per_word_us


@dataclass(frozen=True)
class TransferClass:
    """Volatility classification of a transfer's endpoints."""

    src_nonvolatile: bool
    dst_nonvolatile: bool

    @property
    def label(self) -> str:
        def tag(nv: bool) -> str:
            return "nv" if nv else "v"

        return f"{tag(self.src_nonvolatile)}->{tag(self.dst_nonvolatile)}"


@dataclass(frozen=True)
class TransferReport:
    """What one transfer did and what it cost."""

    src: int
    dst: int
    nbytes: int
    duration_us: float
    classification: TransferClass


class DMAEngine:
    """A single-channel block-copy DMA engine.

    Parameters
    ----------
    space:
        the machine address space transfers operate on.
    setup_us:
        fixed channel-programming cost per transfer.
    per_word_us:
        cost of moving one 16-bit word.
    """

    def __init__(
        self,
        space: AddressSpace,
        setup_us: float = 20.0,
        per_word_us: float = 2.0,
    ) -> None:
        self._space = space
        self.setup_us = setup_us
        self.per_word_us = per_word_us
        #: total number of transfers performed (for overhead accounting)
        self.transfer_count = 0
        #: total bytes moved
        self.bytes_moved = 0

    def classify(self, src: int, dst: int, nbytes: int) -> TransferClass:
        """Classify both endpoints as volatile or non-volatile.

        This is the run-time check the EaseIO `_DMA_copy` implementation
        performs before choosing Single/Private/Always semantics.
        """
        return TransferClass(
            src_nonvolatile=self._space.is_nonvolatile(src, nbytes),
            dst_nonvolatile=self._space.is_nonvolatile(dst, nbytes),
        )

    def cost_us(self, nbytes: int) -> float:
        """Latency of a transfer of ``nbytes`` (rounded up to words)."""
        return transfer_us(nbytes, self.setup_us, self.per_word_us)

    def transfer(self, src: int, dst: int, nbytes: int) -> TransferReport:
        """Copy ``nbytes`` from ``src`` to ``dst``.

        The copy is atomic from the program's point of view: the
        intermittent executor charges its full duration before invoking
        it, so a power failure either preempts the whole transfer or
        none of it.  (Real DMA completes or is reset with its channel;
        partially-written destinations are not modelled, matching the
        paper's synchronous-peripheral assumption in section 6.)
        """
        if nbytes <= 0:
            raise MemoryAccessError(f"DMA transfer size must be positive, got {nbytes}")
        if nbytes % WORD_BYTES:
            raise MemoryAccessError(
                f"DMA transfers move {WORD_BYTES}-byte words; size {nbytes} is odd"
            )
        # resolve each endpoint region once: classification and the copy
        # both come from the same two lookups (transfers are the hottest
        # memory operation in DMA-bound campaigns)
        sr = self._space.region_of(src, nbytes)
        dr = self._space.region_of(dst, nbytes)
        classification = TransferClass(
            src_nonvolatile=not sr.volatile, dst_nonvolatile=not dr.volatile
        )
        soff = src - sr.base
        doff = dst - dr.base
        window = sr._buf[soff : soff + nbytes]
        if sr is dr and src < dst + nbytes and dst < src + nbytes:
            window = window.copy()  # overlapping same-region windows
        dr._buf[doff : doff + nbytes] = window
        self.transfer_count += 1
        self.bytes_moved += nbytes
        return TransferReport(
            src=src,
            dst=dst,
            nbytes=nbytes,
            duration_us=self.cost_us(nbytes),
            classification=classification,
        )

    def overlapping(self, src: int, dst: int, nbytes: int) -> bool:
        """Whether the source and destination windows overlap."""
        return src < dst + nbytes and dst < src + nbytes
