"""Byte-addressed memory model of an FRAM-enabled microcontroller.

The simulated machine mirrors the TI MSP430FR5994 used by the paper:

* **SRAM** — volatile working memory.  Its contents are lost on every
  power failure.
* **LEA-RAM** — the volatile scratch memory of the Low Energy
  Accelerator.  On the real chip this is the upper half of SRAM; we
  model it as its own region so DMA transfers into the accelerator are
  visible in traces.
* **FRAM** — byte-addressable non-volatile memory.  Contents survive
  power failures.  All task-shared program state, runtime flags and
  privatization buffers live here.

Three layers are provided:

``MemoryRegion``
    a contiguous byte range with volatile/non-volatile behaviour and a
    reboot hook (``power_cycle``).

``AddressSpace``
    routes absolute addresses to regions; this is what the DMA engine
    and the EaseIO runtime query to classify an address as volatile or
    non-volatile (section 4.3 of the paper resolves DMA re-execution
    semantics from exactly this classification).

``RegionAllocator`` / typed views (``Cell``, ``ArrayCell``)
    a bump allocator with a symbol table, used by runtimes to place
    named program variables, lock flags, timestamps, and privatization
    buffers; it tracks a high-water mark so the Table 6 memory-overhead
    experiment can report RAM/FRAM usage per runtime.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import fastpath
from repro.errors import AllocationError, MemoryAccessError, MemoryMapError

#: Default memory map (bases and sizes, in bytes).  The bases follow the
#: MSP430FR5994 datasheet loosely; only their relative classification
#: (volatile vs non-volatile) matters for the simulation.
SRAM_BASE = 0x1C00
SRAM_SIZE = 4 * 1024
LEARAM_BASE = 0x2C00
LEARAM_SIZE = 4 * 1024
FRAM_BASE = 0x10000
FRAM_SIZE = 256 * 1024


class MemoryRegion:
    """A contiguous, byte-addressed memory range.

    Parameters
    ----------
    name:
        human-readable region name (``"sram"``, ``"fram"``...).
    base:
        absolute address of the first byte.
    size:
        number of bytes.
    volatile:
        if true the region loses its contents on ``power_cycle``.
    decay_to:
        byte value volatile contents decay to on power loss.  Real SRAM
        decays to an unpredictable pattern; zero is the common model and
        keeps failures deterministic.  Tests can pick another value to
        prove that nothing relies on "convenient" zeroed garbage.
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        volatile: bool,
        decay_to: int = 0,
    ) -> None:
        if size <= 0:
            raise MemoryMapError(f"region {name!r}: size must be positive, got {size}")
        if base < 0:
            raise MemoryMapError(f"region {name!r}: base must be >= 0, got {base}")
        if not 0 <= decay_to <= 0xFF:
            raise MemoryMapError(f"region {name!r}: decay_to must be a byte value")
        self.name = name
        self.base = base
        self.size = size
        self.volatile = volatile
        self.decay_to = decay_to
        self._buf = np.zeros(size, dtype=np.uint8)
        #: number of power cycles this region went through
        self.power_cycles = 0

    # -- address helpers -------------------------------------------------

    @property
    def end(self) -> int:
        """One past the last valid absolute address."""
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """Whether ``[addr, addr + nbytes)`` lies fully inside the region."""
        return self.base <= addr and addr + nbytes <= self.end

    def _offset(self, addr: int, nbytes: int) -> int:
        if not self.contains(addr, nbytes):
            raise MemoryAccessError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside region "
                f"{self.name!r} [{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    # -- raw byte access --------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at absolute address ``addr``."""
        off = self._offset(addr, nbytes)
        return self._buf[off : off + nbytes].tobytes()

    def write(self, addr: int, data) -> None:
        """Write ``data`` starting at absolute address ``addr``.

        Accepts any object exposing the buffer protocol (``bytes``,
        ``bytearray``, ``memoryview``, a contiguous ``ndarray``) and
        copies it into the backing store exactly once.
        """
        arr = np.frombuffer(data, dtype=np.uint8)
        off = self._offset(addr, arr.size)
        self._buf[off : off + arr.size] = arr

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """A mutable uint8 view of ``[addr, addr + nbytes)``.

        Views alias the backing store: writing through a view is a
        memory write.  Used by typed cells for zero-copy access.
        """
        off = self._offset(addr, nbytes)
        return self._buf[off : off + nbytes]

    def fill(self, value: int = 0) -> None:
        """Set every byte of the region to ``value``."""
        self._buf[:] = value

    # -- power behaviour --------------------------------------------------

    def power_cycle(self) -> None:
        """Model a power failure: volatile regions lose their contents."""
        self.power_cycles += 1
        if self.volatile:
            self._buf[:] = self.decay_to

    def snapshot(self) -> bytes:
        """Copy of the full region contents (for test assertions)."""
        return self._buf.tobytes()

    def restore(self, snap: bytes) -> None:
        """Restore a snapshot taken with :meth:`snapshot`."""
        if len(snap) != self.size:
            raise MemoryAccessError(
                f"snapshot size {len(snap)} != region size {self.size}"
            )
        self._buf[:] = np.frombuffer(snap, dtype=np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "volatile" if self.volatile else "non-volatile"
        return (
            f"MemoryRegion({self.name!r}, base={self.base:#x}, "
            f"size={self.size}, {kind})"
        )


class AddressSpace:
    """The machine's flat address space: a set of non-overlapping regions.

    The EaseIO runtime classifies DMA source/destination addresses
    through :meth:`is_nonvolatile`; that classification drives the DMA
    re-execution semantics of section 4.3.
    """

    def __init__(self) -> None:
        self._regions: List[MemoryRegion] = []
        #: sorted region bases, kept in lockstep with ``_regions`` for
        #: the O(log n) ``region_of`` dispatch
        self._bases: List[int] = []

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        """Register ``region``; rejects overlaps with existing regions."""
        for other in self._regions:
            if region.base < other.end and other.base < region.end:
                raise MemoryMapError(
                    f"region {region.name!r} [{region.base:#x}, {region.end:#x}) "
                    f"overlaps {other.name!r} [{other.base:#x}, {other.end:#x})"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._bases = [r.base for r in self._regions]
        return region

    def __iter__(self) -> Iterator[MemoryRegion]:
        return iter(self._regions)

    def region_of(self, addr: int, nbytes: int = 1) -> MemoryRegion:
        """The region fully containing ``[addr, addr + nbytes)``.

        Regions are disjoint and sorted, so the candidate is the one
        with the greatest base <= addr (binary search, not a scan).
        """
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            region = self._regions[i]
            if addr + nbytes <= region.end:
                return region
        raise MemoryAccessError(
            f"no region maps [{addr:#x}, {addr + nbytes:#x})"
        )

    def region(self, name: str) -> MemoryRegion:
        """Look a region up by name."""
        for r in self._regions:
            if r.name == name:
                return r
        raise MemoryMapError(f"no region named {name!r}")

    def is_nonvolatile(self, addr: int, nbytes: int = 1) -> bool:
        """True if the addressed bytes survive a power failure."""
        return not self.region_of(addr, nbytes).volatile

    def read(self, addr: int, nbytes: int) -> bytes:
        return self.region_of(addr, nbytes).read(addr, nbytes)

    def write(self, addr: int, data: bytes) -> None:
        self.region_of(addr, len(data)).write(addr, data)

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        return self.region_of(addr, nbytes).view(addr, nbytes)

    def power_cycle(self) -> None:
        """Propagate a power failure to every region."""
        for region in self._regions:
            region.power_cycle()

    def reset(self) -> None:
        """Return every region (including FRAM) to all-zero bytes.

        Used by :meth:`repro.hw.mcu.Machine.reset` to recycle a machine
        between runs.  Regions are zeroed *in place* so cached
        zero-copy views stay valid.
        """
        for region in self._regions:
            region.fill(0)
            region.power_cycles = 0


def default_address_space(
    sram_size: int = SRAM_SIZE,
    learam_size: int = LEARAM_SIZE,
    fram_size: int = FRAM_SIZE,
) -> AddressSpace:
    """Build the MSP430FR5994-like memory map used across the package."""
    space = AddressSpace()
    space.add_region(MemoryRegion("sram", SRAM_BASE, sram_size, volatile=True))
    space.add_region(MemoryRegion("learam", LEARAM_BASE, learam_size, volatile=True))
    space.add_region(MemoryRegion("fram", FRAM_BASE, fram_size, volatile=False))
    return space


# ---------------------------------------------------------------------------
# Typed access on top of raw regions
# ---------------------------------------------------------------------------

#: dtypes a program variable may take.  int16 matches the native MSP430
#: word; int32/float32 appear in the DNN workloads.
SUPPORTED_DTYPES: Tuple[str, ...] = ("int16", "int32", "int64", "float32", "float64", "uint8")


def _wrap_store(value, dtype: np.dtype):
    """Two's-complement wrap of an out-of-range integer store.

    An MCU move instruction keeps the low bits of the register; numpy
    2.x instead raises ``OverflowError`` for out-of-bounds Python
    ints.  Wrapping identically on every store path keeps the
    continuous-power oracle and the intermittent runtimes bit-exact on
    overflowing arithmetic.
    """
    if dtype.kind in "iu":
        bits = dtype.itemsize * 8
        iv = int(value) & ((1 << bits) - 1)
        if dtype.kind == "i" and iv >= 1 << (bits - 1):
            iv -= 1 << bits
        return iv
    return value


def _check_dtype(dtype: str) -> np.dtype:
    if dtype not in SUPPORTED_DTYPES:
        raise AllocationError(
            f"unsupported dtype {dtype!r}; expected one of {SUPPORTED_DTYPES}"
        )
    return np.dtype(dtype)


@dataclass(frozen=True)
class Symbol:
    """An allocated, named variable: its placement and shape."""

    name: str
    addr: int
    dtype: str
    length: int  # number of elements; 1 for scalars

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize) * self.length


class Cell:
    """Typed scalar access to one allocated slot.

    Reads/writes go straight through the backing region, so the value
    is subject to the region's power-failure behaviour.

    On the VM path the cell resolves its region **once** at
    construction and keeps a typed ndarray view aliasing the backing
    store — every ``get``/``set`` is then a single element access with
    no region scan and no bytes round-trip.  The view stays valid for
    the machine's lifetime because regions mutate their buffer only in
    place (``power_cycle``/``fill``/``restore`` never reallocate).
    """

    __slots__ = ("_space", "symbol", "_dtype", "_view")

    def __init__(self, space: AddressSpace, symbol: Symbol) -> None:
        if symbol.length != 1:
            raise AllocationError(f"{symbol.name!r} is an array; use ArrayCell")
        self._space = space
        self.symbol = symbol
        self._dtype = _check_dtype(symbol.dtype)
        self._view: Optional[np.ndarray] = None
        if fastpath.enabled():
            region = space.region_of(symbol.addr, self._dtype.itemsize)
            self._view = region.view(
                symbol.addr, self._dtype.itemsize
            ).view(self._dtype)

    @property
    def addr(self) -> int:
        return self.symbol.addr

    def get(self):
        view = self._view
        if view is not None:
            # ndarray.item(i) skips the intermediate numpy scalar
            return view.item(0)
        raw = self._space.read(self.symbol.addr, self._dtype.itemsize)
        return np.frombuffer(raw, dtype=self._dtype)[0].item()

    def set(self, value) -> None:
        view = self._view
        if view is not None:
            try:
                view[0] = value
            except OverflowError:
                view[0] = _wrap_store(value, self._dtype)
            return
        try:
            arr = np.asarray([value], dtype=self._dtype)
        except OverflowError:
            arr = np.asarray(
                [_wrap_store(value, self._dtype)], dtype=self._dtype
            )
        self._space.write(self.symbol.addr, arr.tobytes())


class ArrayCell:
    """Typed array access to an allocated slot.

    VM-path construction caches a typed region-local view (see
    :class:`Cell`); element access stays bounds-checked.
    """

    __slots__ = ("_space", "symbol", "_dtype", "_view")

    def __init__(self, space: AddressSpace, symbol: Symbol) -> None:
        self._space = space
        self.symbol = symbol
        self._dtype = _check_dtype(symbol.dtype)
        self._view: Optional[np.ndarray] = None
        if fastpath.enabled():
            region = space.region_of(symbol.addr, symbol.nbytes)
            self._view = region.view(symbol.addr, symbol.nbytes).view(self._dtype)

    @property
    def addr(self) -> int:
        return self.symbol.addr

    def __len__(self) -> int:
        return self.symbol.length

    def element_addr(self, index: int) -> int:
        """Absolute address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.symbol.length:
            raise MemoryAccessError(
                f"{self.symbol.name}[{index}] out of bounds "
                f"(length {self.symbol.length})"
            )
        return self.symbol.addr + index * self._dtype.itemsize

    def get(self, index: int):
        view = self._view
        if view is not None:
            index = int(index)
            if not 0 <= index < self.symbol.length:
                raise MemoryAccessError(
                    f"{self.symbol.name}[{index}] out of bounds "
                    f"(length {self.symbol.length})"
                )
            return view.item(index)
        raw = self._space.read(self.element_addr(index), self._dtype.itemsize)
        return np.frombuffer(raw, dtype=self._dtype)[0].item()

    def set(self, index: int, value) -> None:
        view = self._view
        if view is not None:
            index = int(index)
            if not 0 <= index < self.symbol.length:
                raise MemoryAccessError(
                    f"{self.symbol.name}[{index}] out of bounds "
                    f"(length {self.symbol.length})"
                )
            try:
                view[index] = value
            except OverflowError:
                view[index] = _wrap_store(value, self._dtype)
            return
        try:
            arr = np.asarray([value], dtype=self._dtype)
        except OverflowError:
            arr = np.asarray(
                [_wrap_store(value, self._dtype)], dtype=self._dtype
            )
        self._space.write(self.element_addr(index), arr.tobytes())

    def to_numpy(self) -> np.ndarray:
        """Copy of the whole array as a numpy vector."""
        if self._view is not None:
            return self._view.copy()
        raw = self._space.read(self.symbol.addr, self.symbol.nbytes)
        return np.frombuffer(raw, dtype=self._dtype).copy()

    def load(self, values) -> None:
        """Bulk-store ``values`` (must match the symbol's length)."""
        arr = np.asarray(values, dtype=self._dtype)
        if arr.size != self.symbol.length:
            raise MemoryAccessError(
                f"loading {arr.size} values into {self.symbol.name!r} "
                f"of length {self.symbol.length}"
            )
        if self._view is not None:
            self._view[:] = arr.ravel()
            return
        self._space.write(self.symbol.addr, arr.tobytes())

    def slice(self, offset: int, length: int) -> "ArrayCell":
        """A typed view of ``length`` elements starting at ``offset``.

        The view aliases the same memory (same region, same power
        behaviour); used for windowed accelerator operations.
        """
        if offset < 0 or length <= 0 or offset + length > self.symbol.length:
            raise MemoryAccessError(
                f"slice [{offset}, {offset + length}) out of bounds for "
                f"{self.symbol.name!r} (length {self.symbol.length})"
            )
        sub = Symbol(
            name=f"{self.symbol.name}[{offset}:{offset + length}]",
            addr=self.symbol.addr + offset * self._dtype.itemsize,
            dtype=self.symbol.dtype,
            length=length,
        )
        return ArrayCell(self._space, sub)


@dataclass
class RegionAllocator:
    """Bump allocator with a symbol table over one region.

    Alignment follows the element size (natural alignment).  The
    allocator never frees: embedded runtimes place program state
    statically, and the high-water mark doubles as the memory-footprint
    figure reported in the Table 6 experiment.
    """

    space: AddressSpace
    region_name: str
    _cursor: int = field(default=-1)
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    #: VM-path memoization: one typed cell object per symbol, so the
    #: per-access cost is a dict hit instead of a Cell construction
    _cells: Dict[str, "Cell"] = field(default_factory=dict, repr=False)
    _arrays: Dict[str, "ArrayCell"] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        region = self.space.region(self.region_name)
        if self._cursor < 0:
            self._cursor = region.base

    @property
    def region(self) -> MemoryRegion:
        return self.space.region(self.region_name)

    @property
    def used_bytes(self) -> int:
        """High-water mark: bytes allocated so far."""
        return self._cursor - self.region.base

    @property
    def free_bytes(self) -> int:
        return self.region.end - self._cursor

    def _align(self, alignment: int) -> None:
        rem = self._cursor % alignment
        if rem:
            self._cursor += alignment - rem

    def alloc(self, name: str, dtype: str, length: int = 1) -> Symbol:
        """Allocate ``length`` elements of ``dtype`` under ``name``."""
        if name in self.symbols:
            raise AllocationError(
                f"symbol {name!r} already allocated in {self.region_name}"
            )
        if length <= 0:
            raise AllocationError(f"symbol {name!r}: length must be positive")
        dt = _check_dtype(dtype)
        self._align(dt.itemsize)
        nbytes = dt.itemsize * length
        if self._cursor + nbytes > self.region.end:
            raise AllocationError(
                f"out of {self.region_name} memory allocating {name!r} "
                f"({nbytes} bytes; {self.free_bytes} free)"
            )
        sym = Symbol(name=name, addr=self._cursor, dtype=dtype, length=length)
        self._cursor += nbytes
        self.symbols[name] = sym
        return sym

    def lookup(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise AllocationError(
                f"unknown symbol {name!r} in region {self.region_name}"
            ) from None

    def cell(self, name: str) -> Cell:
        if fastpath.enabled():
            cell = self._cells.get(name)
            if cell is None:
                cell = self._cells[name] = Cell(self.space, self.lookup(name))
            return cell
        return Cell(self.space, self.lookup(name))

    def array(self, name: str) -> ArrayCell:
        if fastpath.enabled():
            arr = self._arrays.get(name)
            if arr is None:
                arr = self._arrays[name] = ArrayCell(self.space, self.lookup(name))
            return arr
        return ArrayCell(self.space, self.lookup(name))
