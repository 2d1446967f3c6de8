"""Vectorized SIMT interpreter for target modules.

Execution model
---------------
One NumPy *lane* per GPU thread.  A launch is split into batches of
:func:`blocks_per_batch` whole thread blocks (``_CHUNK_LANES`` lanes'
worth, fewer when a big shared arena would result) — for *every*
kernel, including those that use shared memory or barriers.
Elementwise kernels run as a handful of whole-array NumPy operations,
and barrier/reduction kernels batch just as wide because block-private
state is kept per batched block:

* **shared memory** is a ``(blocks_in_batch, row_stride)`` arena — one
  zero-initialized row per block — and shared ``Load``/``Store``/
  ``AtomicOp`` addresses are offset into the owning block's row;
* **barriers** are checked per block: within each block that has any
  lane at the barrier, the arriving mask must equal that block's live
  (non-exited) mask, so ``DivergentBarrierError`` semantics are exactly
  those of the old one-block-per-batch path;
* **warps** never span blocks (``warp_base``/``warp_len`` are computed
  per block), so cross-lane shuffles are unaffected by batching.

Batch geometry arrays (tid/block/warp tables) are built once per
``(n_blocks, block, warp_size)`` and shared, read-only, by every
executor in the process; each executor also keeps its recent batches
(with their ctaid), and the shared arena is reused across batches, so
repeated launches of the same grid pay no per-batch setup — the
"vectorize the hot loop" rule of the hpc-parallel guides applied to an
interpreter.

Divergence is handled with boolean lane masks, exactly like the
reconvergence stacks in real SIMT hardware:

* ``If`` executes both arms under complementary sub-masks;
* ``While`` keeps a *live* mask that lanes leave as their condition
  fails;
* ``Exit`` (the kernel ``return``) retires lanes for the rest of the
  batch via a shared ``exited`` mask;
* ``Barrier`` under a partial mask raises
  :class:`~repro.errors.DivergentBarrierError` — the simulator's version
  of the hang that divergent ``__syncthreads()`` causes on hardware.

The interpreter also meters work (flops, bytes, atomics) per launch;
:mod:`repro.gpu.perfmodel` turns those counters into simulated time.

The lane semantics (:func:`resolve`, :func:`apply_atomic`,
:func:`check_barrier`, C division, the op tables, shuffle lanes, the
batch policy) are module-level, so traced programs and the static cost
model call this one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro import counters, memo
from repro.errors import (
    DivergentBarrierError,
    IRError,
    LaunchError,
    MemoryFaultError,
)
from repro.isa import dtypes
from repro.isa.instructions import (
    AtomicOp,
    Barrier,
    BinOp,
    Cmp,
    Cvt,
    Exit,
    If,
    Imm,
    Load,
    MemSpace,
    Mov,
    Operand,
    Register,
    Select,
    SharedAlloc,
    Shuffle,
    SpecialRead,
    Store,
    UnaryOp,
    While,
)
from repro.isa.module import KernelIR

#: Signature of the bounds-check hook supplied by the device memory
#: system: ``validator(byte_addrs, itemsize, write)`` raises
#: :class:`MemoryFaultError` for illegal accesses.
AccessValidator = Callable[[np.ndarray, int, bool], None]

#: Runaway-loop guard for buggy frontends.  Read when a loop runs and
#: when a trace is compiled or validated, so patching it reaches every
#: tier.
_MAX_LOOP_TRIPS = 10_000_000

#: Lanes per batch: every kernel batches ``_CHUNK_LANES // block_threads``
#: whole blocks (at least one), less any shared-arena cap.
_CHUNK_LANES = 1 << 18
#: Shared-arena rows are padded to this many bytes so every element size
#: divides the row stride (block-row offsets stay exact element counts).
_SHARED_ROW_ALIGN = 16
#: Upper bound on the batched shared arena; kernels with large per-block
#: tiles get their ``blocks_per_batch`` capped instead of a huge arena.
_SHARED_ARENA_BYTES = 32 * 1024 * 1024
#: Entries kept in the per-executor batch cache (FIFO evicted).
_GEOM_CACHE_ENTRIES = 16


@dataclass
class LaunchStats:
    """Work metered during one kernel launch (inputs to the perf model)."""

    threads: int = 0
    instructions: int = 0
    flops: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    atomic_ops: int = 0
    barriers: int = 0
    batches: int = 0

    @property
    def bytes_moved(self) -> int:
        return self.bytes_loaded + self.bytes_stored

    def merge(self, other: "LaunchStats") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def snapshot_interpreter_totals() -> SimpleNamespace:
    """The process-wide launch counts (:mod:`repro.counters`):
    ``launches``, ``stats`` (every launch's work, one :class:`LaunchStats`)
    and ``trace`` (trace-cache ``hits``, ``misses``, ``bailouts`` and
    their ``reasons``; ``traced_launches`` run fused, ``traced_batches``)."""
    c = counters.snapshot()
    return SimpleNamespace(
        launches=c["interpreter.launches"],
        stats=LaunchStats(**{name: c["interpreter." + name]
                             for name in LaunchStats.__dataclass_fields__}),
        trace=SimpleNamespace(
            hits=c["trace.hits"], misses=c["trace.misses"],
            bailouts=c["trace.bailouts"], traced_launches=c["trace.launches"],
            traced_batches=c["trace.batches"],
            reasons={k.removeprefix("trace.reason."): v for k, v in c.items()
                     if k.startswith("trace.reason.")}))


#: Lane-geometry tables shared by every executor, keyed by
#: ``(n_blocks, block, warp_size)``; see :func:`_geometry`.  Sized in
#: lanes: 2^20 lanes is about 46 MB of tables.
_GEOMETRY = memo.Memo("geometry", 1 << 20, size=lambda t: t[0].size)


def _build_geometry(n_blocks: int, block: tuple[int, int, int],
                    warp_size: int) -> tuple:
    """``(block_linear, block_row, tid, warp_base, warp_len)`` lane
    tables for a batch of ``n_blocks`` blocks, frozen read-only."""
    bx, by, bz = block
    block_threads = bx * by * bz
    lin = np.arange(n_blocks * block_threads, dtype=np.int64)
    block_lin = lin % block_threads
    block_row = lin // block_threads
    tid_x = (block_lin % bx).astype(np.uint32)
    tid_y = ((block_lin // bx) % by).astype(np.uint32)
    tid_z = (block_lin // (bx * by)).astype(np.uint32)
    # Warp geometry: warps never span blocks; the last warp of a
    # block may be partial.
    warp_in_block = block_lin // warp_size
    warp_start_in_block = warp_in_block * warp_size
    batch_block_start = lin - block_lin
    warp_base = batch_block_start + warp_start_in_block
    warp_len = np.minimum(
        warp_size, block_threads - warp_start_in_block
    ).astype(np.int64)
    for arr in (block_lin, block_row, tid_x, tid_y, tid_z,
                warp_base, warp_len):
        arr.flags.writeable = False
    return block_lin, block_row, (tid_x, tid_y, tid_z), warp_base, warp_len


def _geometry(n_blocks: int, block: tuple[int, int, int],
              warp_size: int) -> tuple:
    """The process-wide lane tables for one batch shape, built once."""
    return _GEOMETRY.get((n_blocks, block, warp_size),
                         lambda: _build_geometry(n_blocks, block, warp_size))


class _LazyCtaid:
    """Per-component lazy ``(ctaid.x, ctaid.y, ctaid.z)`` tuple.

    Unlike the shape-keyed geometry, ctaid depends on the batch's
    ``first_block``, so it cannot be shared between batches; building it
    lazily per component means kernels that never read a component (or,
    on the traced fast path, never read ctaid at all) skip the cost.
    """

    __slots__ = ("_parts", "_first_block", "_block_row", "_grid")

    def __init__(self, first_block: int, block_row: np.ndarray,
                 grid: tuple[int, int, int]):
        self._parts: list[np.ndarray | None] = [None, None, None]
        self._first_block = first_block
        self._block_row = block_row
        self._grid = grid

    def __getitem__(self, i: int) -> np.ndarray:
        part = self._parts[i]
        if part is None:
            gx, gy, _gz = self._grid
            blk = self._first_block + self._block_row
            if i == 0:
                part = (blk % gx).astype(np.uint32)
            elif i == 1:
                part = ((blk // gx) % gy).astype(np.uint32)
            else:
                part = (blk // (gx * gy)).astype(np.uint32)
            part.flags.writeable = False
            self._parts[i] = part
        return part


@dataclass
class _Batch:
    """Lane geometry of one interpreter batch (``n_blocks`` whole blocks).

    The arrays are cached and shared between batches of the same shape,
    so they are frozen read-only; consumers must copy before mutating.
    """

    lanes: int
    n_blocks: int  # blocks in this batch
    block_threads: int  # threads per block
    first_block: int  # launch-linear id of the batch's first block
    tid: tuple[np.ndarray, np.ndarray, np.ndarray]
    ctaid: _LazyCtaid
    block_linear: np.ndarray  # per-lane linear index within its block
    block_row: np.ndarray  # per-lane index of its block within the batch
    warp_base: np.ndarray  # per-lane: batch index of lane 0 of its warp
    warp_len: np.ndarray  # per-lane: populated width of its warp


# -- batch policy -------------------------------------------------------------


def shared_layout(kernel: KernelIR) -> tuple[int, int | None]:
    """``(limit, row_stride)`` of one block's shared memory: the bytes an
    access may touch (the kernel's allocations, at least 8), and that
    size padded to ``_SHARED_ROW_ALIGN`` as the block's row in the
    batched arena — ``None`` when the kernel touches no shared memory."""
    limit = max(kernel.shared_bytes, 8)
    if not kernel.uses_shared():
        return limit, None
    return limit, -(-limit // _SHARED_ROW_ALIGN) * _SHARED_ROW_ALIGN


def blocks_per_batch(block_threads: int, row_stride: int | None,
                     cap: int | None = None) -> int:
    """Whole blocks per batch: ``_CHUNK_LANES`` lanes' worth, few enough
    that a shared arena of ``row_stride``-byte rows stays within
    ``_SHARED_ARENA_BYTES``, and at most ``cap`` (the executor's
    ``max_blocks_per_batch``)."""
    width = max(1, _CHUNK_LANES // block_threads)
    if row_stride is not None:
        width = min(width, max(1, _SHARED_ARENA_BYTES // row_stride))
    if cap is not None:
        width = min(width, max(1, int(cap)))
    return width


# -- arithmetic ---------------------------------------------------------------


def c_int_div(a, b) -> np.ndarray:
    """Integer division truncating toward zero (C semantics, not floor)."""
    a, b = np.asarray(a), np.asarray(b)
    b_safe = np.where(b == 0, 1, b)
    q = a // b_safe
    r = a - q * b_safe
    fix = (r != 0) & ((a < 0) != (b_safe < 0))
    q = q + fix.astype(q.dtype)
    return np.where(b == 0, 0, q)


def c_int_rem(a, b) -> np.ndarray:
    """Integer remainder with the sign of the dividend (C semantics)."""
    a, b = np.asarray(a), np.asarray(b)
    return a - c_int_div(a, b) * np.where(b == 0, 1, b)


_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
          "min": np.minimum, "max": np.maximum, "pow": np.power,
          "shl": np.left_shift, "shr": np.right_shift}
_LOGICAL = {"and": (np.logical_and, np.bitwise_and),
            "or": (np.logical_or, np.bitwise_or),
            "xor": (np.logical_xor, np.bitwise_xor)}
#: ``UnaryOp`` and ``Cmp`` ops on lane values.
UNARY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt,
         "rsqrt": lambda x: 1.0 / np.sqrt(x), "exp": np.exp, "log": np.log,
         "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "floor": np.floor,
         "ceil": np.ceil, "round": np.rint, "not": np.logical_not,
         "bitnot": np.bitwise_not}
COMPARE = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
           "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


def binop(op: str, a, b, result: dtypes.DType):
    """``BinOp`` ``op`` on lane values, for a ``result``-typed register."""
    fn = _ARITH.get(op)
    if fn is not None:
        return fn(a, b)
    if op == "div":
        return np.divide(a, b) if result.is_float else c_int_div(a, b)
    if op == "rem":
        return np.mod(a, b) if result.is_float else c_int_rem(a, b)
    if op in _LOGICAL:
        logical, bitwise = _LOGICAL[op]
        return logical(a, b) if result.is_pred else bitwise(a, b)
    raise IRError(f"unknown binary op '{op}'")  # pragma: no cover


# -- memory, atomics, barriers, shuffles -------------------------------------


def resolve(X: KernelExecutor, B: _Batch, svs: dict | None,
            addr: np.ndarray, eff: np.ndarray | None, dt: dtypes.DType,
            is_global: bool, write: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fault-check a full-width ``u64`` address array and return
    ``(typed_view, element_indices)`` for executor ``X`` on batch ``B``.

    Only the lanes in ``eff`` (``None``: every lane) are checked;
    inactive lanes are parked on element 0 so gathers cannot fault.
    ``svs`` maps dtype names to flat views of the batch's shared arena
    (``None`` for global accesses).  Item sizes are powers of two, so
    alignment and indices are bit operations, and the upper bound is a
    Python int, so no address wraps.
    """
    isz = dt.itemsize
    full = eff is None or eff.all()
    active = addr if full else addr[eff]
    if isz > 1 and (active & (isz - 1)).any():
        raise MemoryFaultError(
            f"kernel '{X.kernel.name}': misaligned {dt.name} access"
        )
    shift = isz.bit_length() - 1
    # A shifted address is below 2**63, so its int64 view is its value.
    idx = (addr >> shift).view(np.int64) if shift else addr.astype(np.int64)

    def _hi():
        return int(active.max()) if active.size else -isz

    if is_global:
        if X.validator is not None:
            X.validator(active, isz, write)
        elif _hi() + isz > X.gmem.size:
            raise MemoryFaultError("global access out of device memory")
        view = X._gview(dt)
    else:
        limit = X._shared_bytes
        if _hi() + isz > limit:
            raise MemoryFaultError(
                f"kernel '{X.kernel.name}': shared access beyond "
                f"{limit} allocated bytes"
            )
        view = svs[dt.name]
        # Kernel addresses are block-local; offset each lane into its
        # own block's arena row.  The row stride is 16-byte aligned,
        # so the per-row element count is exact for every dtype.
        idx += B.block_row * (X._shared_stride // isz)
    if not full:
        np.copyto(idx, 0, where=~eff)
    return view, idx


def _prefix_old(view: np.ndarray, sel: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Old values for atomic-add with duplicate addresses.

    Simulates the schedule where lanes hit each address in batch-lane
    order: lane k's old value is the base plus the sum of earlier
    lanes' contributions to the same address.
    """
    order = np.argsort(sel, kind="stable")
    sorted_sel = sel[order]
    sorted_vals = vals[order]
    csum = np.cumsum(sorted_vals)
    excl = csum - sorted_vals  # exclusive prefix over the whole batch
    group_start = np.concatenate(([True], sorted_sel[1:] != sorted_sel[:-1]))
    group_first = np.maximum.accumulate(
        np.where(group_start, np.arange(sel.size), 0)
    )
    prefix = excl - excl[group_first]  # exclusive prefix within each address
    old_sorted = view[sorted_sel] + prefix.astype(view.dtype, copy=False)
    old = np.empty_like(old_sorted)
    old[order] = old_sorted
    return old


def apply_atomic(view: np.ndarray, idx: np.ndarray, eff: np.ndarray | None,
                 src: np.ndarray, op: str, want_old: bool, lanes: int,
                 npdt, compare: np.ndarray | None = None) -> np.ndarray | None:
    """Apply atomic ``op`` of full-width ``src`` (and, for ``cas``,
    ``compare``) at ``view[idx]`` for the lanes in ``eff`` (``None``:
    every lane), in batch-lane order.  Returns the ``lanes``-wide old
    values (zero on inactive lanes) when ``want_old``, else ``None``."""
    sel = idx if eff is None else idx[eff]
    vals = src if eff is None else src[eff]
    if op == "add":
        old = _prefix_old(view, sel, vals) if want_old else None
        np.add.at(view, sel, vals)
    elif op == "min":
        old = view[sel].copy() if want_old else None
        np.minimum.at(view, sel, vals)
    elif op == "max":
        old = view[sel].copy() if want_old else None
        np.maximum.at(view, sel, vals)
    elif op == "exch":
        old = view[sel].copy() if want_old else None
        view[sel] = vals
    elif op == "cas":
        old = view[sel].copy()
        # Within one batch step, only the first lane touching each
        # address may win its CAS; later lanes observe the post-CAS
        # value (and, in a CAS loop, retry next trip) — the legal
        # schedule where the first lane serializes before the rest.
        _uniq, first = np.unique(sel, return_index=True)
        winner = np.zeros(sel.size, dtype=bool)
        winner[first] = True
        success = winner & (old == (compare if eff is None
                                    else compare[eff]))
        view[sel[success]] = vals[success]
        old = np.where(winner, old, view[sel])
    else:  # pragma: no cover - verifier prevents this
        raise IRError(f"unknown atomic '{op}'")
    if not want_old:
        return None
    full_old = np.zeros(lanes, dtype=npdt)
    if eff is None:
        full_old[:] = old
    else:
        full_old[eff] = old
    return full_old


def check_barrier(X: KernelExecutor, B: _Batch, eff: np.ndarray,
                  live: np.ndarray | None = None) -> int:
    """Per-block barrier legality; returns the blocks that arrived.

    Within every block that has a lane at the barrier, the arriving
    mask ``eff`` must equal the block's ``live`` (non-exited) mask,
    ``None`` meaning every lane.  Blocks with no active lane are not
    "at" this barrier (their lanes exited or sit in another branch of
    the batch's control flow) and are skipped, exactly as a
    one-block-per-batch run skips them.
    """
    act = eff.reshape(B.n_blocks, B.block_threads)
    live = (np.ones(act.shape, dtype=bool) if live is None
            else live.reshape(act.shape))
    arrived = act.any(axis=1)
    partial = arrived & (act != live).any(axis=1)
    if partial.any():
        i = int(np.argmax(partial))
        raise DivergentBarrierError(
            f"kernel '{X.kernel.name}': barrier reached by "
            f"{int(act[i].sum())} of {int(live[i].sum())} live "
            f"threads in block {B.first_block + i}"
        )
    return int(arrived.sum())


def shuffle_source_lanes(mode: str, lane, warp_base: np.ndarray,
                         warp_len: np.ndarray, warp_size: int) -> np.ndarray:
    """The batch lane each lane's ``shfl.<mode>`` reads from.

    Out-of-range targets (or lanes beyond the populated warp width)
    keep their own value, matching ``__shfl_*_sync`` clamping.
    """
    if np.ndim(lane) == 0:
        lane = np.full(warp_base.size, lane, dtype=np.uint32)
    lane = lane.astype(np.int64)
    my = np.arange(warp_base.size, dtype=np.int64)
    in_warp = my - warp_base
    if mode == "idx":
        target = lane % warp_size
    elif mode == "up":
        target = in_warp - lane
    elif mode == "down":
        target = in_warp + lane
    else:  # xor
        target = in_warp ^ lane
    valid = (target >= 0) & (target < warp_len)
    return np.where(valid, warp_base + target, my)


class KernelExecutor:
    """Executes one kernel on one simulated device's memory.

    Args:
        kernel: Verified kernel IR (typically from a ``TargetModule``).
        warp_size: Execution width baked into the target binary.
        global_memory: The device's global memory as a flat ``uint8``
            array (modified in place by stores/atomics).
        validator: Bounds/liveness hook from the device allocator; may be
            ``None`` for raw (allocator-less) execution in unit tests.
        shared_limit: Per-block shared memory capacity in bytes.
        max_block_threads: Device limit on threads per block.
        max_blocks_per_batch: Optional cap on the blocks per batch that
            :func:`blocks_per_batch` picks.  ``1`` reproduces the
            historical block-isolated execution exactly; the
            differential tests and benchmarks sweep this knob.
        trace_mode: ``True`` fuses each batch through the trace compiler
            (``repro.isa.tracing``) when the kernel traces cleanly,
            ``False`` forces the batched dispatch loop, ``None`` (the
            default) defers to the process default
            (``tracing.default_trace_mode()``).  Traced execution is
            bit-identical to the interpreted path — results, faults,
            and counters — or the kernel bails out and falls back.
    """

    def __init__(
        self,
        kernel: KernelIR,
        warp_size: int,
        global_memory: np.ndarray,
        validator: AccessValidator | None = None,
        shared_limit: int = 64 * 1024,
        max_block_threads: int = 1024,
        max_blocks_per_batch: int | None = None,
        trace_mode: bool | None = None,
    ):
        if global_memory.dtype != np.uint8 or global_memory.ndim != 1:
            raise LaunchError("global memory must be a flat uint8 array")
        self.kernel = kernel
        self.warp_size = int(warp_size)
        self.gmem = global_memory
        self.validator = validator
        self.shared_limit = shared_limit
        self.max_block_threads = max_block_threads
        self.max_blocks_per_batch = max_blocks_per_batch
        self.trace_mode = trace_mode
        # Typed views of global memory, built lazily per element type.
        self._gviews: dict[str, np.ndarray] = {}
        # Per-block logical shared size (bounds checks) and the padded
        # row stride that gives each batched block its own arena row.
        self._shared_bytes, self._shared_stride = shared_layout(kernel)
        self._uses_shared = self._shared_stride is not None
        self._shared_buf: np.ndarray | None = None
        # Full batches keyed by (first_block, n_blocks, grid, block);
        # a miss takes the shape-only tables from the process-wide
        # geometry cache, so only ctaid is new when a launch walks the
        # grid.
        self._batch_cache: dict[tuple, _Batch] = {}
        self.geom_cache_hits = 0
        self.geom_cache_misses = 0

    # -- public API -----------------------------------------------------------

    def launch(
        self,
        grid: Sequence[int],
        block: Sequence[int],
        args: Sequence[object],
    ) -> LaunchStats:
        """Run the kernel over ``grid`` × ``block`` threads.

        ``args`` must match the kernel parameters positionally: Python
        numbers for scalars, integer byte addresses for pointers.
        """
        grid = tuple(int(g) for g in grid) + (1,) * (3 - len(grid))
        block = tuple(int(b) for b in block) + (1,) * (3 - len(block))
        if any(g <= 0 for g in grid) or any(b <= 0 for b in block):
            raise LaunchError(f"non-positive launch configuration {grid}x{block}")
        block_threads = block[0] * block[1] * block[2]
        if block_threads > self.max_block_threads:
            raise LaunchError(
                f"block of {block_threads} threads exceeds device limit "
                f"{self.max_block_threads}"
            )
        if self.kernel.shared_bytes > self.shared_limit:
            raise LaunchError(
                f"kernel needs {self.kernel.shared_bytes} B shared memory, "
                f"device provides {self.shared_limit} B"
            )
        if len(args) != len(self.kernel.params):
            raise LaunchError(
                f"kernel '{self.kernel.name}' takes {len(self.kernel.params)} "
                f"arguments, got {len(args)}"
            )

        n_blocks = grid[0] * grid[1] * grid[2]
        total = n_blocks * block_threads
        stats = LaunchStats(threads=total)

        width = blocks_per_batch(block_threads, self._shared_stride,
                                 self.max_blocks_per_batch)

        dims = {
            "ntid.x": block[0], "ntid.y": block[1], "ntid.z": block[2],
            "nctaid.x": grid[0], "nctaid.y": grid[1], "nctaid.z": grid[2],
        }
        traced = None
        mode = self.trace_mode
        if mode is None or mode:
            # Import lazily so trace_mode=False never touches (or pays
            # for) the trace layer — the PR 2 path byte-for-byte.
            from repro.isa import tracing

            if mode is None:
                mode = tracing.default_trace_mode()
            if mode:
                traced = tracing.lookup(self, grid, block, width)
        with np.errstate(all="ignore"):
            for first_block in range(0, n_blocks, width):
                n = min(width, n_blocks - first_block)
                batch = self._make_batch(first_block, n, grid, block)
                if traced is not None:
                    traced.fn(self, batch, args, stats)
                else:
                    self._run_batch(batch, args, stats, dims)
                stats.batches += 1
        counts = {"interpreter." + k: v for k, v in vars(stats).items()}
        counts["interpreter.launches"] = 1
        if traced is not None:
            counts["trace.launches"], counts["trace.batches"] = 1, stats.batches
        counters.merge(counts)
        return stats

    # -- batch construction ------------------------------------------------

    def _make_batch(
        self,
        first_block: int,
        n_blocks: int,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
    ) -> _Batch:
        key = (first_block, n_blocks, grid, block)
        cached = self._batch_cache.get(key)
        if cached is not None:
            self.geom_cache_hits += 1
            return cached
        self.geom_cache_misses += 1

        block_threads = block[0] * block[1] * block[2]
        lanes = n_blocks * block_threads
        block_lin, block_row, tid, warp_base, warp_len = _geometry(
            n_blocks, block, self.warp_size)

        batch = _Batch(
            lanes=lanes,
            n_blocks=n_blocks,
            block_threads=block_threads,
            first_block=first_block,
            tid=tid,
            ctaid=_LazyCtaid(first_block, block_row, grid),
            block_linear=block_lin,
            block_row=block_row,
            warp_base=warp_base,
            warp_len=warp_len,
        )
        if len(self._batch_cache) >= _GEOM_CACHE_ENTRIES:
            self._batch_cache.pop(next(iter(self._batch_cache)))
        self._batch_cache[key] = batch
        return batch

    # -- batch execution ---------------------------------------------------

    def _run_batch(self, batch: _Batch, args: Sequence[object],
                   stats: LaunchStats, dims: dict[str, int]) -> None:
        env: dict[str, np.ndarray] = {}
        for param, value in zip(self.kernel.params, args):
            dt = dtypes.U64 if param.is_pointer else param.dtype
            env[param.name] = np.full(batch.lanes, value, dtype=dt.np_dtype)

        state = _ExecState(
            executor=self,
            batch=batch,
            env=env,
            exited=np.zeros(batch.lanes, dtype=bool),
            shared=(self._shared_arena(batch.n_blocks)
                    if self._uses_shared else None),
            stats=stats,
            dims=dims,
        )
        mask = np.ones(batch.lanes, dtype=bool)
        state.exec_body(self.kernel.body, mask)

    def _shared_arena(self, n_blocks: int) -> np.ndarray:
        """A zeroed ``(n_blocks, row_stride)`` shared arena, buffer reused."""
        buf = self._shared_buf
        if buf is None or buf.shape[0] < n_blocks:
            buf = np.zeros((n_blocks, self._shared_stride), dtype=np.uint8)
            self._shared_buf = buf
            return buf[:n_blocks]
        arena = buf[:n_blocks]
        arena.fill(0)
        return arena

    def _gview(self, dtype: dtypes.DType) -> np.ndarray:
        view = self._gviews.get(dtype.name)
        if view is None:
            usable = (self.gmem.size // dtype.itemsize) * dtype.itemsize
            view = self.gmem[:usable].view(dtype.np_dtype)
            self._gviews[dtype.name] = view
        return view


class _ExecState:
    """Mutable per-batch interpreter state."""

    def __init__(self, executor: KernelExecutor, batch: _Batch,
                 env: dict[str, np.ndarray], exited: np.ndarray,
                 shared: np.ndarray | None, stats: LaunchStats,
                 dims: dict[str, int]):
        self.x = executor
        self.batch = batch
        self.env = env
        self.exited = exited
        self.shared = shared
        self.stats = stats
        self.dims = dims
        self._special_cache: dict[str, np.ndarray] = {}
        self._shared_views: dict[str, np.ndarray] = {}
        self._shared_cursor = 0

    # -- operand access -------------------------------------------------------

    def read(self, op: Operand):
        if isinstance(op, Imm):
            return op.dtype.np_dtype.type(op.value)
        try:
            return self.env[op.name]
        except KeyError:  # pragma: no cover - verifier prevents this
            raise IRError(f"register '{op.name}' undefined at execution") from None

    def assign(self, reg: Register, values, eff: np.ndarray, copy: bool = False) -> None:
        arr = np.asarray(values)
        if arr.dtype != reg.dtype.np_dtype:
            arr = arr.astype(reg.dtype.np_dtype)
        if arr.ndim == 0:
            arr = np.full(self.batch.lanes, arr)
        elif copy:
            # Callers pass copy=True when `values` may alias long-lived
            # storage (another register, the special-reg cache): without
            # the copy a later in-place masked update would corrupt it.
            arr = arr.copy()
        old = self.env.get(reg.name)
        if old is None or eff.all():
            self.env[reg.name] = arr
        elif old is not arr:
            old[eff] = arr[eff]

    # -- special registers ---------------------------------------------------

    def special(self, which: str) -> np.ndarray:
        cached = self._special_cache.get(which)
        if cached is not None:
            return cached
        b = self.batch
        table = {
            "tid.x": b.tid[0], "tid.y": b.tid[1], "tid.z": b.tid[2],
            "ctaid.x": b.ctaid[0], "ctaid.y": b.ctaid[1], "ctaid.z": b.ctaid[2],
        }
        if which in table:
            arr = table[which]
        elif which == "laneid":
            arr = (b.block_linear % self.x.warp_size).astype(np.uint32)
        elif which == "warpsize":
            arr = np.full(b.lanes, self.x.warp_size, dtype=np.uint32)
        else:
            # ntid.* / nctaid.* are uniform across the launch.
            arr = np.full(self.batch.lanes, self.dims[which], dtype=np.uint32)
        self._special_cache[which] = arr
        return arr

    # -- execution ------------------------------------------------------------

    def exec_body(self, body, mask: np.ndarray) -> None:
        for instr in body:
            eff = mask & ~self.exited
            if not eff.any():
                return
            self.step(instr, eff, mask)

    def step(self, instr, eff: np.ndarray, mask: np.ndarray) -> None:
        st = self.stats
        n_active = int(eff.sum())
        st.instructions += n_active

        if isinstance(instr, Mov):
            self.assign(instr.dst, self.read(instr.src), eff,
                        copy=isinstance(instr.src, Register))

        elif isinstance(instr, BinOp):
            a, b = self.read(instr.a), self.read(instr.b)
            self.assign(instr.dst, binop(instr.op, a, b, instr.dst.dtype), eff)
            if instr.dst.dtype.is_float:
                st.flops += n_active

        elif isinstance(instr, UnaryOp):
            src = self.read(instr.src)
            self.assign(instr.dst, UNARY[instr.op](src), eff)
            if instr.dst.dtype.is_float:
                st.flops += n_active

        elif isinstance(instr, Cmp):
            a, b = self.read(instr.a), self.read(instr.b)
            self.assign(instr.dst, COMPARE[instr.op](a, b), eff)

        elif isinstance(instr, Select):
            p = self.read(instr.pred)
            self.assign(instr.dst, np.where(p, self.read(instr.a), self.read(instr.b)), eff)

        elif isinstance(instr, Cvt):
            src = self.read(instr.src)
            self.assign(instr.dst, np.asarray(src).astype(instr.dst.dtype.np_dtype), eff)

        elif isinstance(instr, SpecialRead):
            self.assign(instr.dst, self.special(instr.which), eff, copy=True)

        elif isinstance(instr, Load):
            self._load(instr, eff)
            st.bytes_loaded += n_active * instr.dst.dtype.itemsize

        elif isinstance(instr, Store):
            self._store(instr, eff)
            st.bytes_stored += n_active * instr.src.dtype.itemsize

        elif isinstance(instr, SharedAlloc):
            nbytes = instr.dtype.itemsize * instr.count
            # Align allocations to the element size.
            align = instr.dtype.itemsize
            self._shared_cursor = -(-self._shared_cursor // align) * align
            base = self._shared_cursor
            self._shared_cursor += nbytes
            self.assign(instr.dst, np.uint64(base), eff)

        elif isinstance(instr, Barrier):
            st.barriers += check_barrier(self.x, self.batch, eff,
                                         ~self.exited)

        elif isinstance(instr, AtomicOp):
            self._atomic(instr, eff)
            st.atomic_ops += n_active

        elif isinstance(instr, Shuffle):
            self._shuffle(instr, eff)

        elif isinstance(instr, Exit):
            self.exited |= eff

        elif isinstance(instr, If):
            cond = self.read(instr.cond)
            if np.ndim(cond) == 0:
                cond = np.full(self.batch.lanes, bool(cond))
            then_mask = mask & cond
            if (then_mask & ~self.exited).any():
                self.exec_body(instr.then_body, then_mask)
            else_mask = mask & ~cond
            if instr.else_body and (else_mask & ~self.exited).any():
                self.exec_body(instr.else_body, else_mask)

        elif isinstance(instr, While):
            live = mask.copy()
            trips = 0
            while True:
                live &= ~self.exited
                if not live.any():
                    break
                self.exec_body(instr.cond_body, live)
                cond = self.read(instr.cond)
                if np.ndim(cond) == 0:
                    cond = np.full(self.batch.lanes, bool(cond))
                live = live & cond & ~self.exited
                if not live.any():
                    break
                self.exec_body(instr.body, live)
                trips += 1
                if trips > _MAX_LOOP_TRIPS:
                    raise IRError(
                        f"kernel '{self.x.kernel.name}': loop exceeded "
                        f"{_MAX_LOOP_TRIPS} iterations (runaway loop?)"
                    )
        else:  # pragma: no cover - verifier prevents this
            raise IRError(f"unknown instruction {instr!r}")

    # -- memory and cross-lane helpers -------------------------------------

    def _full(self, op: Operand, np_dtype=None) -> np.ndarray:
        """An operand as a lane-wide array (scalars broadcast)."""
        value = self.read(op)
        if np.ndim(value) == 0:
            value = np.full(self.batch.lanes, value, dtype=np_dtype)
        return value

    def _resolve(self, instr, dtype: dtypes.DType, eff: np.ndarray, write: bool):
        """Validate addresses and return (typed_view, element_indices)."""
        svs = self._shared_views
        is_global = instr.space == MemSpace.GLOBAL
        if not is_global and dtype.name not in svs:
            svs[dtype.name] = self.shared.reshape(-1).view(dtype.np_dtype)
        return resolve(self.x, self.batch, svs,
                       self._full(instr.addr, np.uint64), eff, dtype,
                       is_global, write)

    def _load(self, instr: Load, eff: np.ndarray) -> None:
        view, idx = self._resolve(instr, instr.dst.dtype, eff, write=False)
        self.assign(instr.dst, view[idx], eff)

    def _store(self, instr: Store, eff: np.ndarray) -> None:
        view, idx = self._resolve(instr, instr.src.dtype, eff, write=True)
        src = self.read(instr.src)
        if np.ndim(src) == 0:
            view[idx[eff]] = src
        else:
            view[idx[eff]] = src[eff]

    def _atomic(self, instr: AtomicOp, eff: np.ndarray) -> None:
        dtype = instr.src.dtype
        view, idx = self._resolve(instr, dtype, eff, write=True)
        compare = (self._full(instr.compare, dtype.np_dtype)
                   if instr.op == "cas" else None)
        src = self._full(instr.src, dtype.np_dtype)
        old = apply_atomic(view, idx, eff, src, instr.op,
                           instr.dst is not None, self.batch.lanes,
                           dtype.np_dtype, compare)
        if old is not None:
            self.assign(instr.dst, old, eff)

    def _shuffle(self, instr: Shuffle, eff: np.ndarray) -> None:
        b = self.batch
        source = shuffle_source_lanes(instr.mode, self.read(instr.lane),
                                      b.warp_base, b.warp_len,
                                      self.x.warp_size)
        self.assign(instr.dst, self._full(instr.src)[source], eff)
