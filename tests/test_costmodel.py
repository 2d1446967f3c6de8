"""Differential tests for the abstract cost interpreter.

The load-bearing property: for every library kernel at its canonical
launch geometry, :func:`repro.analysis.costmodel.cost_kernel` produces
a :class:`LaunchStats` **bit-equal** to what a live metered
:class:`~repro.isa.interpreter.KernelExecutor` run reports — without
touching any memory values.  The one exception, ``bitonic_step``,
branches on a data-dependent comparison; there the model degrades to a
declared conservative upper bound (``exact=False`` + a note), never to
a silent wrong number.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.costmodel import cost_kernel
from repro.analysis.perfstat import STATIC_LAUNCHES, stream_kernel_costs
from repro.isa.interpreter import KernelExecutor
from repro.kernels import BLOCK, KERNEL_LIBRARY

STATS_FIELDS = ("threads", "instructions", "flops", "bytes_loaded",
                "bytes_stored", "atomic_ops", "barriers", "batches")

#: The one kernel whose control flow depends on loaded data: the model
#: charges both arms of the compare-and-swap branch (an upper bound).
INEXACT = {"bitonic_step"}


def _live_stats(name: str, grid, block, scalars):
    """Run the kernel for real on synthetic buffers; return LaunchStats."""
    kernel = KERNEL_LIBRARY[name].ir
    mem = np.zeros(64 << 20, dtype=np.uint8)
    rng = np.random.default_rng(7)
    addr = 0
    args = []
    for p in kernel.params:
        if p.is_pointer:
            nelem = 1 << 17
            if p.dtype.np_dtype.kind in "iu":
                raw = rng.integers(0, 64, nelem).astype(p.dtype.np_dtype)
            else:
                raw = (rng.random(nelem) + 0.5).astype(p.dtype.np_dtype)
            view = raw.view(np.uint8)
            mem[addr:addr + view.size] = view
            args.append(addr)
            addr += (view.size + 63) // 64 * 64
        else:
            args.append(scalars[p.name])
    return KernelExecutor(kernel, 32, mem).launch(grid, block, args)


@pytest.mark.parametrize("name", sorted(set(KERNEL_LIBRARY) - INEXACT))
def test_cost_matches_live_interpreter_bit_exactly(name):
    grid, block, scalars = STATIC_LAUNCHES[name]
    cost = cost_kernel(KERNEL_LIBRARY[name].ir, grid, block, scalars)
    assert cost.exact, cost.notes
    live = _live_stats(name, grid, block, scalars)
    for f in STATS_FIELDS:
        assert getattr(cost.stats, f) == getattr(live, f), f


def test_every_library_kernel_has_a_canonical_launch():
    assert set(STATIC_LAUNCHES) == set(KERNEL_LIBRARY)


def test_bitonic_step_is_a_declared_conservative_bound():
    grid, block, scalars = STATIC_LAUNCHES["bitonic_step"]
    cost = cost_kernel(KERNEL_LIBRARY["bitonic_step"].ir, grid, block,
                       scalars)
    assert not cost.exact
    assert any("data-dependent" in n for n in cost.notes)
    live = _live_stats("bitonic_step", grid, block, scalars)
    # Upper bound: the model charges both arms, a real run takes one.
    assert cost.stats.instructions >= live.instructions
    assert cost.stats.bytes_stored >= live.bytes_stored
    # Value-independent counters still agree exactly.
    assert cost.stats.threads == live.threads
    assert cost.stats.bytes_loaded == live.bytes_loaded


def test_stream_costs_at_perf_geometry_match_known_totals():
    """The five kernels perfstat times, at the perf-matrix shape
    (n=65536, block=256): totals pinned against live metered runs."""
    costs = stream_kernel_costs(1 << 16)
    want = {
        "copy": dict(instructions=1245184, flops=0,
                     bytes_loaded=524288, bytes_stored=524288),
        "mul": dict(instructions=1310720, flops=65536,
                    bytes_loaded=524288, bytes_stored=524288),
        "add": dict(instructions=1572864, flops=65536,
                    bytes_loaded=1048576, bytes_stored=524288),
        "triad": dict(instructions=1638400, flops=131072,
                      bytes_loaded=1048576, bytes_stored=524288),
        "dot": dict(instructions=7075840, flops=196352,
                    bytes_loaded=2095104, bytes_stored=1046528,
                    atomic_ops=256, barriers=2304, batches=1),
    }
    for kernel, fields in want.items():
        cost = costs[kernel]
        assert cost.exact
        for f, v in fields.items():
            assert getattr(cost.stats, f) == v, (kernel, f)


def test_stream_kernels_are_fully_coalesced():
    costs = stream_kernel_costs(1 << 12)
    for kernel in ("copy", "mul", "add", "triad"):
        assert costs[kernel].coalesced_fraction() == pytest.approx(1.0)
    # dot's grid-stride index is loop-carried, so the classifier
    # conservatively calls its global loads "unknown", never coalesced.
    dot = {k[1:]: v for k, v in costs["dot"].traffic.items()
           if k[0] == "global"}
    assert set(dot) == {("load", "unknown")}


def test_batches_follow_the_interpreter_chunking():
    # 2048 blocks x 256 threads = 524288 lanes; the interpreter chunks
    # at 2^18 lanes -> 1024 blocks per batch -> 2 batches.
    cost = cost_kernel(KERNEL_LIBRARY["stream_copy"].ir, (2048,), (BLOCK,),
                       {"n": 1 << 19})
    assert cost.stats.batches == 2
    live = _live_stats("stream_copy", (2048,), (BLOCK,), {"n": 1 << 19})
    assert cost.stats.batches == live.batches


def test_shared_arena_cap_sets_one_batch_width():
    """A 64 KiB tile caps a batch at 512 blocks (a 32 MiB arena) where
    the lane budget alone allows 8192: the interpreter, the cost model
    and tracesan's canonical width all take it from the one policy."""
    from repro.analysis.tracesan import canonical_batch_width
    from repro.isa import IRBuilder, dtypes, interpreter

    b = IRBuilder("big_tile")
    out = b.param("out", dtypes.F64, pointer=True)
    tile = b.shared_alloc(dtypes.F64, 8192)
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    b.store_elem(tile, tid, 1.0, dtypes.F64, space="shared")
    v = b.load_elem(tile, tid, dtypes.F64, space="shared")
    b.store_elem(out, b.global_id(), v, dtypes.F64)
    ir = b.build()
    grid, block = (1025,), (32,)
    width = interpreter.blocks_per_batch(32, interpreter.shared_layout(ir)[1])
    assert width == 512 < (1 << 18) // 32
    assert canonical_batch_width(ir, (32, 1, 1)) == width
    mem = np.zeros(1025 * 32 * 8, dtype=np.uint8)
    live = KernelExecutor(ir, 32, mem).launch(grid, block, [0])
    assert (mem.view(np.float64) == 1.0).all()
    cost = cost_kernel(ir, grid, block, {})
    assert live.batches == cost.stats.batches == 3


def test_to_dict_round_trips_traffic_keys():
    cost = cost_kernel(KERNEL_LIBRARY["stream_copy"].ir, (4,), (BLOCK,),
                       {"n": 1024})
    d = cost.to_dict()
    assert d["kernel"] == "stream_copy"
    assert d["exact"] is True
    assert all("/" in k for k in d["traffic"])
    assert sum(d["traffic"].values()) == sum(cost.traffic.values())
