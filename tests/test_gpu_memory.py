"""Device memory: allocator behaviour, validation, data movement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, MemoryFaultError
from repro.gpu.memory import DeviceMemory


def test_alloc_alignment_and_zeroing():
    mem = DeviceMemory(1 << 16)
    a = mem.alloc(100)
    b = mem.alloc(100)
    assert a.addr % 256 == 0
    assert b.addr % 256 == 0
    assert b.addr >= a.addr + 256
    assert (mem.buffer[a.addr:a.addr + 100] == 0).all()


def test_oom():
    mem = DeviceMemory(1 << 12)
    mem.alloc(2048)
    with pytest.raises(AllocationError, match="out of device memory"):
        mem.alloc(4096)


def test_invalid_sizes():
    mem = DeviceMemory(1 << 12)
    with pytest.raises(AllocationError):
        mem.alloc(0)
    with pytest.raises(AllocationError):
        mem.alloc(-8)


def test_free_and_reuse():
    mem = DeviceMemory(1 << 12)
    a = mem.alloc(1024)
    addr = a.addr
    mem.free(a)
    b = mem.alloc(1024)
    assert b.addr == addr  # first fit reuses the hole


def test_double_free_rejected():
    mem = DeviceMemory(1 << 12)
    a = mem.alloc(64)
    mem.free(a)
    with pytest.raises(MemoryFaultError, match="already-freed"):
        mem.free(a)


def test_free_coalescing():
    """Three adjacent frees coalesce into one block big enough to reuse."""
    mem = DeviceMemory(3 * 256 + 256)
    blocks = [mem.alloc(256) for _ in range(3)]
    for blk in blocks:
        mem.free(blk)
    big = mem.alloc(3 * 256)  # only satisfiable if coalesced
    assert big.addr == blocks[0].addr


def test_counters():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(1000)
    assert mem.n_allocs == 1
    assert mem.bytes_in_use == 1024  # rounded to granules
    assert mem.peak_bytes == 1024
    mem.free(a)
    assert mem.bytes_in_use == 0
    assert mem.peak_bytes == 1024


def test_upload_download_roundtrip(rng):
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(800)
    data = rng.random(100)
    mem.upload(a, data)
    out = mem.download(a, np.float64, 100)
    np.testing.assert_array_equal(out, data)
    assert out.base is None  # download copies


def test_upload_outside_allocation_faults():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(64)
    with pytest.raises(MemoryFaultError, match="upload"):
        mem.upload(a, np.zeros(100))  # 800 bytes into a 64-byte block


def test_view_is_zero_copy():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(80)
    view = mem.view(a, np.float64, 10)
    view[:] = 7.0
    assert (mem.download(a, np.float64, 10) == 7.0).all()


def test_view_misalignment_rejected():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(128)
    with pytest.raises(MemoryFaultError, match="misaligned"):
        mem.view(a, np.float64, 4, byte_offset=4)


def test_copy_within():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(80)
    b = mem.alloc(80)
    mem.upload(a, np.arange(10, dtype=np.float64))
    mem.copy_within(b, a, 80)
    np.testing.assert_array_equal(mem.download(b, np.float64, 10),
                                  np.arange(10))


def test_validate_catches_oob_and_freed():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(64)
    addrs = np.array([a.addr, a.addr + 56], dtype=np.uint64)
    mem.validate(addrs, 8, write=False)  # in bounds
    with pytest.raises(MemoryFaultError, match="out-of-bounds"):
        mem.validate(np.array([a.addr + 64], dtype=np.uint64), 8, False)
    # straddles the end of the allocation
    with pytest.raises(MemoryFaultError):
        mem.validate(np.array([a.addr + 60], dtype=np.uint64), 8, False)
    mem.free(a)
    with pytest.raises(MemoryFaultError):
        mem.validate(addrs, 8, False)


def test_validate_between_allocations():
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(64)
    b = mem.alloc(64)
    mem.free(a)
    # b is alive, the hole where a was is not
    mem.validate(np.array([b.addr], dtype=np.uint64), 8, False)
    with pytest.raises(MemoryFaultError):
        mem.validate(np.array([a.addr], dtype=np.uint64), 8, False)


def test_validate_reports_faulting_lane_count():
    mem = DeviceMemory(1 << 14)
    mem.alloc(64)
    bad = np.full(5, 1 << 13, dtype=np.uint64)
    with pytest.raises(MemoryFaultError, match="5 faulting lanes"):
        mem.validate(bad, 8, True)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=8, max_value=2000), min_size=1,
                max_size=30))
def test_allocator_invariants(sizes):
    """Property: live allocations never overlap and stay in bounds."""
    mem = DeviceMemory(1 << 16)
    live = []
    for k, size in enumerate(sizes):
        try:
            a = mem.alloc(size)
        except AllocationError:
            if live:
                mem.free(live.pop(0))
            continue
        live.append(a)
        if k % 3 == 2 and live:
            mem.free(live.pop(0))
    intervals = sorted((a.addr, a.end) for a in live)
    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "allocations overlap"
    for s, e in intervals:
        assert 0 <= s < e <= mem.buffer.size


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 100), st.integers(0, 50))
def test_upload_download_property(count, offset_elems):
    mem = DeviceMemory(1 << 14)
    a = mem.alloc((count + offset_elems) * 8)
    data = np.arange(count, dtype=np.float64)
    mem.upload(a, data, byte_offset=offset_elems * 8)
    out = mem.download(a, np.float64, count, byte_offset=offset_elems * 8)
    np.testing.assert_array_equal(out, data)


# -- validate's range fast path vs the per-lane check --------------------------


def _per_lane_validate(mem, addrs, itemsize, write):
    """``DeviceMemory.validate`` before its range fast path, kept as the
    oracle: one ``searchsorted`` over every lane address."""
    if addrs.size == 0:
        return
    starts, ends = mem._tables()
    a = addrs.astype(np.int64, copy=False)
    if starts.size == 0:
        raise MemoryFaultError("device access with no live allocations")
    slot = np.searchsorted(starts, a, side="right") - 1
    bad = (slot < 0) | (a + itemsize > ends[np.maximum(slot, 0)])
    if bad.any():
        offender = int(a[bad][0])
        kind = "write" if write else "read"
        raise MemoryFaultError(
            f"out-of-bounds device {kind} of {itemsize} B at {offender:#x} "
            f"({int(bad.sum())} faulting lanes)"
        )


def _verdict(fn, *args):
    try:
        fn(*args)
    except MemoryFaultError as exc:
        return str(exc)
    return None


def _edge_memory():
    """Allocations with a gap, an abutting pair and a freed hole.

    ``a`` and ``b`` are full 256-byte granules, so ``b`` starts exactly
    where ``a`` ends; ``c`` is freed; ``d`` leaves a gap after its
    last byte (100 of 256 bytes used)."""
    mem = DeviceMemory(1 << 14)
    a = mem.alloc(256)
    b = mem.alloc(512)
    c = mem.alloc(256)
    d = mem.alloc(100)
    mem.free(c)
    assert b.addr == a.end
    return mem, (a, b, c, d)


def test_validate_range_fast_path_matches_per_lane_check_on_edges():
    mem, (a, b, c, d) = _edge_memory()
    cases = [
        [a.addr, a.end - 8],            # last valid element of a
        [a.end - 8, a.end - 4],         # last valid byte, 8-byte item
        [a.end - 4],                    # straddles into b (4 B past a)
        [a.addr, b.end - 8],            # spans the abutting pair
        [b.end - 8, b.end],             # one past the end of b
        [d.end - 8],                    # last element of d
        [d.end],                        # the gap after d's last byte
        [c.addr, c.addr + 8],           # freed allocation
        [a.addr, c.addr],               # live plus freed
        [-8, a.addr],                   # negative int64
        [1 << 63, a.addr],              # uint64 >= 2^63 (wraps negative)
        [(1 << 64) - 8],                # -8 as uint64
        [mem.buffer.size + 8],          # beyond the backing store
    ]
    for case in cases:
        dtypes = [np.int64, np.uint64]
        if min(case) < 0:
            dtypes.remove(np.uint64)
        if max(case) >= 1 << 63:
            dtypes.remove(np.int64)
        for dtype in dtypes:
            addrs = np.array(case, dtype=dtype)
            for itemsize in (1, 4, 8):
                for write in (False, True):
                    assert (_verdict(mem.validate, addrs, itemsize, write)
                            == _verdict(_per_lane_validate, mem, addrs,
                                        itemsize, write)), (case, itemsize)


def test_validate_range_fast_path_matches_per_lane_check_randomized(rng):
    mem, allocs = _edge_memory()
    span = mem.buffer.size + 512
    anchors = [x for al in allocs for x in (al.addr, al.end)]
    for _ in range(400):
        n = int(rng.integers(1, 64))
        if rng.random() < 0.5:
            # Clustered around one allocation edge: mostly legal runs.
            base = int(rng.choice(anchors))
            addrs = base + rng.integers(-48, 48, n)
        else:
            addrs = rng.integers(-64, span, n)
        if rng.random() < 0.1:
            addrs = addrs.astype(np.uint64)
            addrs[int(rng.integers(0, n))] = np.uint64(1 << 63) + np.uint64(
                int(rng.integers(0, 1 << 20)))
        itemsize = int(rng.choice([1, 2, 4, 8]))
        write = bool(rng.random() < 0.5)
        assert (_verdict(mem.validate, addrs, itemsize, write)
                == _verdict(_per_lane_validate, mem, addrs, itemsize, write))


def test_validate_fast_path_keeps_the_method_identity():
    """The trace tier recognises the allocator's hook by identity."""
    mem = DeviceMemory(1 << 12)
    assert mem.validate.__func__ is DeviceMemory.validate
