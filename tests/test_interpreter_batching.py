"""Differential tests for multi-block batching.

Every shared-memory / barrier / shuffle / atomic kernel in the library
must produce bit-identical memory results and identical work counters
whether the interpreter runs one block per batch (the historical
block-isolated path, forced via ``max_blocks_per_batch=1``), a few
blocks, or as many as the batch policy allows.  Divergent barriers must
raise under every batch width.
"""

import numpy as np
import pytest

from repro.errors import DivergentBarrierError
from repro.isa import IRBuilder, KernelExecutor, dtypes
from repro.isa.instructions import MemSpace
from repro.kernels import BLOCK, KERNEL_LIBRARY

#: Batch widths under test: block-isolated, small, unlimited.
WIDTHS = (1, 4, None)

N = 4096
GRID = 16  # blocks; grid-stride kernels cover N with any grid


def _setup(name, rng):
    """Return (kernel_ir, grid, block, args, initial_memory_image)."""
    mem = np.zeros(1 << 17, dtype=np.uint8)
    if name in ("reduce_sum", "reduce_max", "warp_reduce_sum"):
        x = rng.random(N)
        mem[: N * 8] = x.view(np.uint8)
        if name == "reduce_max":
            mem[N * 8 : N * 8 + 8] = np.array([-1.0e308]).view(np.uint8)
        args = [N, 0, N * 8]
    elif name == "stream_dot":
        a = rng.random(N)
        b = rng.random(N)
        mem[: N * 8] = a.view(np.uint8)
        mem[N * 8 : 2 * N * 8] = b.view(np.uint8)
        args = [N, 0, N * 8, 2 * N * 8]
    elif name == "histogram":
        data = rng.integers(0, 1 << 20, N, dtype=np.int32)
        mem[: N * 4] = data.view(np.uint8)
        args = [N, 17, 0, N * 4]
    else:  # pragma: no cover - parametrization mismatch
        raise AssertionError(name)
    return KERNEL_LIBRARY[name].ir, (GRID,), (BLOCK,), args, mem


def _counters(stats):
    """Work counters that must not depend on batch width."""
    return (stats.threads, stats.instructions, stats.flops,
            stats.bytes_loaded, stats.bytes_stored,
            stats.atomic_ops, stats.barriers)


@pytest.mark.parametrize(
    "name",
    ["stream_dot", "reduce_sum", "reduce_max", "warp_reduce_sum",
     "histogram"],
)
def test_batch_width_is_unobservable(name, rng):
    ir, grid, block, args, image = _setup(name, rng)
    results = []
    for width in WIDTHS:
        mem = image.copy()
        ex = KernelExecutor(ir, 32, mem, max_blocks_per_batch=width)
        stats = ex.launch(grid, block, args)
        results.append((mem, stats))

    (mem1, st1), (mem4, st4), (memN, stN) = results
    np.testing.assert_array_equal(mem1, mem4)
    np.testing.assert_array_equal(mem1, memN)
    assert _counters(st1) == _counters(st4) == _counters(stN)
    # The widths genuinely differ in batching: isolated runs one block
    # per batch, the unlimited path fits the whole grid in one.
    assert st1.batches == GRID
    assert stN.batches == 1
    assert st1.batches > st4.batches > stN.batches


@pytest.mark.parametrize("width", WIDTHS)
def test_divergent_barrier_raises_under_every_width(width):
    b = IRBuilder("k")
    b.param("out", dtypes.F64, pointer=True)
    t = b.cvt(b.special("tid.x"), dtypes.I64)
    with b.if_(b.lt(t, 16)):
        b.barrier()
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(b.build(), 32, mem, max_blocks_per_batch=width)
    with pytest.raises(DivergentBarrierError, match="16 of 64"):
        ex.launch((4,), (64,), [0])


@pytest.mark.parametrize("width", WIDTHS)
def test_single_divergent_block_detected(width):
    """Divergence localized to one block is caught per block."""
    b = IRBuilder("k")
    b.param("out", dtypes.F64, pointer=True)
    blk = b.cvt(b.special("ctaid.x"), dtypes.I64)
    t = b.cvt(b.special("tid.x"), dtypes.I64)
    with b.if_(b.logical_and(b.eq(blk, 2), b.lt(t, 8))):
        b.barrier()
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(b.build(), 32, mem, max_blocks_per_batch=width)
    with pytest.raises(DivergentBarrierError, match="in block 2"):
        ex.launch((4,), (32,), [0])


@pytest.mark.parametrize("width", WIDTHS)
def test_whole_block_conditional_barrier_is_legal(width):
    """A barrier skipped by entire blocks is not divergent."""
    b = IRBuilder("k")
    out = b.param("out", dtypes.F64, pointer=True)
    blk = b.cvt(b.special("ctaid.x"), dtypes.I64)
    with b.if_(b.eq(blk, 2)):
        b.barrier()
    b.store_elem(out, b.global_id(), b.cvt(blk, dtypes.F64), dtypes.F64)
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(b.build(), 32, mem, max_blocks_per_batch=width)
    stats = ex.launch((4,), (32,), [0])
    # Only the one block that reached the barrier is counted.
    assert stats.barriers == 1
    got = mem[: 128 * 8].view(np.float64)
    np.testing.assert_array_equal(got, np.repeat(np.arange(4.0), 32))


def test_geometry_cache_reused_across_launches(rng):
    ir, grid, block, args, image = _setup("reduce_sum", rng)
    ex = KernelExecutor(ir, 32, image.copy(), max_blocks_per_batch=4)
    ex.launch(grid, block, args)
    misses_after_first = ex.geom_cache_misses
    assert ex.geom_cache_hits == 0
    ex.launch(grid, block, args)
    assert ex.geom_cache_misses == misses_after_first
    assert ex.geom_cache_hits == misses_after_first


def test_shared_rows_are_block_private(rng):
    """Each batched block sees its own zeroed shared row.

    reduce_sum over data where each block's partial sum is distinctive
    would corrupt if two blocks shared a tile; equality with the serial
    result (tested above) plus this direct small case pin it down.
    """
    b = IRBuilder("k")
    out = b.param("out", dtypes.F64, pointer=True)
    tile = b.shared_alloc(dtypes.F64, 1)
    blk = b.cvt(b.special("ctaid.x"), dtypes.F64)
    b.store_elem(tile, b.operand(0, dtypes.I64), blk, dtypes.F64,
                 space=MemSpace.SHARED)
    b.barrier()
    back = b.load_elem(tile, b.operand(0, dtypes.I64), dtypes.F64,
                       space=MemSpace.SHARED)
    b.store_elem(out, b.global_id(), back, dtypes.F64)
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(b.build(), 32, mem)
    stats = ex.launch((8,), (16,), [0])
    assert stats.batches == 1  # all 8 blocks batched together
    got = mem[: 128 * 8].view(np.float64)
    np.testing.assert_array_equal(got, np.repeat(np.arange(8.0), 16))


def test_geometry_tables_are_shared_across_executors(rng):
    """Lane tables are process-wide per (n_blocks, block, warp_size)."""
    from repro.isa import interpreter
    from repro.isa.tracing import clear_trace_cache

    clear_trace_cache()
    ir, grid, block, args, image = _setup("reduce_sum", rng)
    other = KERNEL_LIBRARY["stream_dot"].ir

    def tables(kernel, warp_size):
        ex = KernelExecutor(kernel, warp_size, image.copy())
        batch = ex._make_batch(0, 4, grid + (1, 1), block + (1, 1))
        return (batch.tid + (batch.block_linear, batch.block_row,
                             batch.warp_base, batch.warp_len))

    first = tables(ir, 32)
    second = tables(other, 32)
    assert all(a is b for a, b in zip(first, second))
    assert not any(a.flags.writeable for a in first)
    wide = tables(ir, 64)
    assert not any(a is b for a, b in zip(first, wide))
    assert (wide[-1] == 64).all() and (first[-1] == 32).all()
    assert len(interpreter._GEOMETRY.entries) == 2
    clear_trace_cache()
    assert interpreter._GEOMETRY.entries == {}
    assert not any(a is b for a, b in zip(first, tables(ir, 32)))


def test_geometry_tables_single_copy_under_contention():
    """Threads building one shape at once all get the stored copy."""
    import sys
    import threading

    from repro.isa import interpreter
    from repro.isa.tracing import clear_trace_cache

    clear_trace_cache()
    n = 8
    start = threading.Barrier(n)
    got = [None] * n

    def worker(i):
        start.wait(timeout=10)
        got[i] = interpreter._geometry(64, (256, 1, 1), 32)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is got[0] for g in got)
    assert interpreter._GEOMETRY.entries == {(64, (256, 1, 1), 32): got[0]}
