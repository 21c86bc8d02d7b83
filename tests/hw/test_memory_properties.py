"""Property tests: typed memory views are observationally invisible.

The VM path reads and writes memory through zero-copy typed views
(the lowered closures bind them); the reference path goes through the
raw byte round-trip.  The contract is that any sequence of typed
accesses, raw byte traffic, and power cycles is *byte-identical* on
both paths — this suite is the views' byte-level oracle.  It drives
randomly generated operation sequences through both paths and
compares every intermediate read and the final region images.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import (
    RegionAllocator,
    _wrap_store,
    default_address_space,
)
from tests.conftest import on_sim_path

SCALARS = (("s16", "int16"), ("s32", "int32"), ("f32", "float32"))
ARRAYS = (("a16", "int16", 8), ("au8", "uint8", 6))
REGIONS = ("fram", "sram")

# wide enough to overflow int16/int32 stores (the _wrap_store path)
ints = st.integers(min_value=-(2**40), max_value=2**40)
floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


def _array_index(name):
    length = next(ln for n, _, ln in ARRAYS if n == name)
    return st.integers(min_value=0, max_value=length - 1)


op = st.one_of(
    st.tuples(
        st.just("set"),
        st.sampled_from(REGIONS),
        st.sampled_from([n for n, _ in SCALARS]),
        ints,
    ),
    st.tuples(
        st.just("fset"),
        st.sampled_from(REGIONS),
        st.just("f32"),
        floats,
    ),
    st.tuples(st.just("get"), st.sampled_from(REGIONS),
              st.sampled_from([n for n, _ in SCALARS])),
    st.tuples(
        st.just("aset"),
        st.sampled_from(REGIONS),
        st.sampled_from([n for n, _, _ in ARRAYS]).flatmap(
            lambda n: st.tuples(st.just(n), _array_index(n))
        ),
        ints,
    ),
    st.tuples(
        st.just("aget"),
        st.sampled_from(REGIONS),
        st.sampled_from([n for n, _, _ in ARRAYS]).flatmap(
            lambda n: st.tuples(st.just(n), _array_index(n))
        ),
    ),
    st.tuples(
        st.just("raw_write"),
        st.sampled_from(REGIONS),
        st.integers(min_value=0, max_value=48),
        st.binary(min_size=1, max_size=16),
    ),
    st.tuples(
        st.just("raw_read"),
        st.sampled_from(REGIONS),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=1, max_value=16),
    ),
    st.tuples(st.just("power_cycle")),
)


def _build_world():
    space = default_address_space()
    allocs = {r: RegionAllocator(space, r) for r in REGIONS}
    for rname, alloc in allocs.items():
        for name, dtype in SCALARS:
            alloc.alloc(f"{rname}_{name}", dtype)
        for name, dtype, length in ARRAYS:
            alloc.alloc(f"{rname}_{name}", dtype, length)
    return space, allocs


def _path(fast):
    return on_sim_path("vm" if fast else "reference")


def _run(ops, fast):
    """Execute an op sequence on a fresh world; return all observations."""
    with _path(fast):
        space, allocs = _build_world()
        seen = []
        for item in ops:
            kind = item[0]
            if kind in ("set", "fset"):
                _, rname, sname, value = item
                allocs[rname].cell(f"{rname}_{sname}").set(value)
            elif kind == "get":
                _, rname, sname = item
                seen.append(allocs[rname].cell(f"{rname}_{sname}").get())
            elif kind == "aset":
                _, rname, (aname, idx), value = item
                allocs[rname].array(f"{rname}_{aname}").set(idx, value)
            elif kind == "aget":
                _, rname, (aname, idx) = item
                seen.append(allocs[rname].array(f"{rname}_{aname}").get(idx))
            elif kind == "raw_write":
                _, rname, off, data = item
                region = space.region(rname)
                region.write(region.base + off, data)
            elif kind == "raw_read":
                _, rname, off, n = item
                region = space.region(rname)
                seen.append(region.read(region.base + off, n))
            elif kind == "power_cycle":
                space.power_cycle()
        images = tuple(space.region(r).snapshot() for r in REGIONS)
        return seen, images


class TestFastPathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(op, max_size=24))
    def test_same_observations_and_final_bytes(self, ops):
        slow = _run(ops, fast=False)
        fast = _run(ops, fast=True)
        # raw writes can form a float NaN; both paths must read it back
        assert fast[0] == pytest.approx(slow[0], nan_ok=True)
        assert fast[1] == slow[1]

    @settings(max_examples=40, deadline=None)
    @given(value=ints, dtype=st.sampled_from(["int16", "int32", "uint8"]))
    def test_overflowing_store_wraps_like_the_hardware(self, value, dtype):
        # an MCU store keeps the low bits of the register; both paths
        # must agree with the arithmetic definition of that wrap
        results = {}
        for fast in (False, True):
            with _path(fast):
                space, allocs = _build_world()
                name = {"int16": "s16", "int32": "s32"}.get(dtype)
                if name is None:
                    cell = allocs["fram"].array("fram_au8")
                    cell.set(0, value)
                    results[fast] = cell.get(0)
                else:
                    cell = allocs["fram"].cell(f"fram_{name}")
                    cell.set(value)
                    results[fast] = cell.get()
        expected = _wrap_store(value, np.dtype(dtype))
        assert results[False] == results[True] == expected

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(ints, min_size=8, max_size=8),
        fast=st.booleans(),
    )
    def test_power_cycle_is_selective(self, values, fast):
        # FRAM keeps every byte across a power cycle; SRAM decays —
        # on either path
        with _path(fast):
            space, allocs = _build_world()
            for rname in REGIONS:
                arr = allocs[rname].array(f"{rname}_a16")
                for i, v in enumerate(values):
                    arr.set(i, v)
            fram_before = space.region("fram").snapshot()
            space.power_cycle()
            assert space.region("fram").snapshot() == fram_before
            sram = space.region("sram")
            decayed = bytes([sram.decay_to]) * sram.size
            assert sram.snapshot() == decayed
