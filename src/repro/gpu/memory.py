"""Byte-addressable device memory with allocation tracking.

The backing store is one flat ``uint8`` NumPy array (so typed views are
zero-copy, per the guides' views-not-copies rule).  The allocator is a
first-fit free-list; every load/store from the interpreter is validated
against the live allocations with a vectorized ``searchsorted`` check,
which is what turns stray kernel addressing into a
:class:`~repro.errors.MemoryFaultError` instead of silent corruption.

The *simulated* capacity (the device's advertised HBM size) is decoupled
from the *backing* capacity (how much host RAM we actually reserve), so
an 80 GB H100 can be simulated with a 64 MB arena while out-of-memory
behaviour still triggers at the backing limit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.errors import AllocationError, MemoryFaultError

_ALIGN = 256  # allocation granularity/alignment, like cudaMalloc


@dataclass(frozen=True)
class Allocation:
    """A live device allocation; behaves as its base address in math."""

    addr: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def __index__(self) -> int:  # lets Allocation flow into address math
        return self.addr

    def __int__(self) -> int:
        return self.addr


class DeviceMemory:
    """Global memory of one simulated device."""

    def __init__(self, backing_bytes: int, simulated_bytes: int | None = None):
        backing_bytes = (backing_bytes + 7) // 8 * 8
        self.buffer = np.zeros(backing_bytes, dtype=np.uint8)
        self.simulated_bytes = simulated_bytes or backing_bytes
        # Free list as sorted, non-adjacent [start, end) intervals.
        self._free: list[tuple[int, int]] = [(0, backing_bytes)]
        self._live: dict[int, Allocation] = {}
        # Sorted views of live allocations for vectorized validation;
        # rebuilt lazily after alloc/free.
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self.n_allocs = 0

    # -- allocation ----------------------------------------------------------

    def alloc(self, nbytes: int) -> Allocation:
        """Allocate ``nbytes`` (rounded to 256-byte granules), first fit."""
        if nbytes <= 0:
            raise AllocationError(f"invalid allocation size {nbytes}")
        size = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        for i, (start, end) in enumerate(self._free):
            if end - start >= size:
                if end - start == size:
                    del self._free[i]
                else:
                    self._free[i] = (start + size, end)
                allocation = Allocation(start, nbytes)
                self._live[start] = allocation
                self._starts = self._ends = None
                self.bytes_in_use += size
                self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
                self.n_allocs += 1
                # Fresh allocations are zeroed so runs are reproducible.
                self.buffer[start:start + size] = 0
                return allocation
        raise AllocationError(
            f"out of device memory: requested {nbytes} B, "
            f"{self.buffer.size - self.bytes_in_use} B free of {self.buffer.size} B backing"
        )

    def free(self, allocation: Allocation | int) -> None:
        addr = int(allocation)
        live = self._live.pop(addr, None)
        if live is None:
            raise MemoryFaultError(f"free of unknown/already-freed address {addr:#x}")
        size = (live.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self.bytes_in_use -= size
        self._starts = self._ends = None
        # Insert and coalesce with neighbours.
        interval = (addr, addr + size)
        idx = bisect.bisect_left(self._free, interval)
        self._free.insert(idx, interval)
        merged: list[tuple[int, int]] = []
        for start, end in self._free:
            if merged and start == merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        self._free = merged

    def owns(self, addr: int) -> bool:
        return int(addr) in self._live

    # -- validated access (interpreter hook) -----------------------------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._starts is None:
            if self._live:
                allocs = sorted(self._live.values(), key=lambda a: a.addr)
                self._starts = np.array([a.addr for a in allocs], dtype=np.int64)
                self._ends = np.array([a.end for a in allocs], dtype=np.int64)
            else:
                self._starts = np.empty(0, dtype=np.int64)
                self._ends = np.empty(0, dtype=np.int64)
        return self._starts, self._ends

    def validate(self, addrs: np.ndarray, itemsize: int, write: bool) -> None:
        """Interpreter hook: every address must fall in a live allocation.

        Accepts in O(1) when ``[min, max + itemsize)`` of the addresses
        lies inside one live allocation; anything else (a fault, a run
        over abutting allocations, negative or wrapped addresses) takes
        the per-lane check, which names the first offender.
        """
        if addrs.size == 0:
            return
        starts, ends = self._tables()
        a = addrs.astype(np.int64, copy=False)
        if starts.size == 0:
            raise MemoryFaultError("device access with no live allocations")
        lo = int(a.min())
        if lo >= 0:
            first = int(np.searchsorted(starts, lo, side="right")) - 1
            if first >= 0 and int(a.max()) + itemsize <= int(ends[first]):
                return
        slot = np.searchsorted(starts, a, side="right") - 1
        bad = (slot < 0) | (a + itemsize > ends[np.maximum(slot, 0)])
        if bad.any():
            offender = int(a[bad][0])
            kind = "write" if write else "read"
            raise MemoryFaultError(
                f"out-of-bounds device {kind} of {itemsize} B at {offender:#x} "
                f"({int(bad.sum())} faulting lanes)"
            )

    def validate_contig(self, lo: int, count: int, itemsize: int) -> bool:
        """Would :meth:`validate` accept the contiguous element run
        ``lo, lo+itemsize, ..., lo+(count-1)*itemsize``?

        Decides legality without building the address array — the trace
        compiler's fast paths call this once per batch instead of
        validating per lane.  Walks the (sorted, possibly abutting) live
        allocations: each step advances to the last element that still
        fits the current allocation, so the cost is O(spanned
        allocations), not O(count).  Never raises; ``False`` sends the
        access down the generic per-lane path (which reproduces the
        exact fault).
        """
        starts, ends = self._tables()
        if starts.size == 0:
            return False
        a = int(lo)
        last = a + (count - 1) * itemsize
        while True:
            slot = int(np.searchsorted(starts, a, side="right")) - 1
            if slot < 0:
                return False
            end = int(ends[slot])
            if a + itemsize > end:
                return False
            if last + itemsize <= end:
                return True
            a += ((end - a) // itemsize) * itemsize

    # -- host <-> device data movement ---------------------------------------

    def upload(self, allocation: Allocation | int, host: np.ndarray,
               byte_offset: int = 0) -> None:
        """Copy a host array into device memory at ``allocation+offset``."""
        addr = int(allocation) + byte_offset
        data = np.ascontiguousarray(host)
        raw = data.view(np.uint8).reshape(-1)
        self._check_range(addr, raw.size, "upload")
        self.buffer[addr:addr + raw.size] = raw

    def download(self, allocation: Allocation | int, dtype: np.dtype,
                 count: int, byte_offset: int = 0) -> np.ndarray:
        """Copy ``count`` elements of ``dtype`` out to a fresh host array."""
        dtype = np.dtype(dtype)
        addr = int(allocation) + byte_offset
        nbytes = dtype.itemsize * count
        self._check_range(addr, nbytes, "download")
        return self.buffer[addr:addr + nbytes].view(dtype).copy()

    def view(self, allocation: Allocation | int, dtype: np.dtype,
             count: int, byte_offset: int = 0) -> np.ndarray:
        """Zero-copy typed view of device memory (host-mapped access)."""
        dtype = np.dtype(dtype)
        addr = int(allocation) + byte_offset
        nbytes = dtype.itemsize * count
        self._check_range(addr, nbytes, "view")
        if addr % dtype.itemsize:
            raise MemoryFaultError(f"misaligned {dtype} view at {addr:#x}")
        return self.buffer[addr:addr + nbytes].view(dtype)

    def copy_within(self, dst: Allocation | int, src: Allocation | int,
                    nbytes: int) -> None:
        """Device-to-device copy."""
        d, s = int(dst), int(src)
        self._check_range(d, nbytes, "copy dst")
        self._check_range(s, nbytes, "copy src")
        self.buffer[d:d + nbytes] = self.buffer[s:s + nbytes]

    def _check_range(self, addr: int, nbytes: int, what: str) -> None:
        if nbytes == 0:
            return
        starts, ends = self._tables()
        if starts.size:
            slot = int(np.searchsorted(starts, addr, side="right")) - 1
            if slot >= 0 and addr + nbytes <= ends[slot]:
                return
        raise MemoryFaultError(
            f"{what} of {nbytes} B at {addr:#x} is outside any live allocation"
        )
