"""Interpreter control flow: divergence masks, loops, early exit."""

import numpy as np
import pytest

from repro.enums import ISA
from repro.errors import IRError, LaunchError
from repro.isa import IRBuilder, KernelExecutor, ModuleIR, dtypes


def _exec(kernel, n_threads, args, mem_bytes=1 << 16, block=64,
          warp_size=32, width=None, trace_mode=None):
    mem = np.zeros(mem_bytes, dtype=np.uint8)
    ex = KernelExecutor(kernel, warp_size, mem, max_blocks_per_batch=width,
                        trace_mode=trace_mode)
    grid = (n_threads + block - 1) // block
    stats = ex.launch((grid,), (block,), args)
    return mem, stats


def test_if_else_divergence():
    """Odd and even lanes take different arms; both produce values."""
    b = IRBuilder("k")
    out = b.param("out", dtypes.F64, pointer=True)
    i = b.global_id()
    parity = b.binop("rem", i, b.operand(2, dtypes.I64))
    with b.if_(b.eq(parity, 0)) as iff:
        b.store_elem(out, i, 100.0, dtypes.F64)
    with b.orelse(iff):
        b.store_elem(out, i, 200.0, dtypes.F64)
    mem, _ = _exec(b.build(), 128, [0])
    got = mem[:128 * 8].view(np.float64)
    expected = np.where(np.arange(128) % 2 == 0, 100.0, 200.0)
    np.testing.assert_array_equal(got, expected)


def test_nested_divergence():
    """Two nested ifs partition lanes four ways."""
    b = IRBuilder("k")
    out = b.param("out", dtypes.I64, pointer=True)
    i = b.global_id()
    bit0 = b.binop("and", i, b.operand(1, dtypes.I64))
    bit1 = b.binop("and", i, b.operand(2, dtypes.I64))
    code = b.named("code", dtypes.I64)
    b.mov(code, 0)
    with b.if_(b.ne(bit0, 0)) as outer:
        with b.if_(b.ne(bit1, 0)) as inner:
            b.mov(code, 3)
        with b.orelse(inner):
            b.mov(code, 1)
    with b.orelse(outer):
        with b.if_(b.ne(bit1, 0)) as inner2:
            b.mov(code, 2)
        with b.orelse(inner2):
            b.mov(code, 0)
    b.store_elem(out, i, code, dtypes.I64)
    mem, _ = _exec(b.build(), 64, [0])
    got = mem[:64 * 8].view(np.int64)
    np.testing.assert_array_equal(got, np.arange(64) % 4)


def test_per_lane_loop_trip_counts():
    """Each lane loops i times: triangular-number output."""
    b = IRBuilder("k")
    out = b.param("out", dtypes.I64, pointer=True)
    i = b.global_id()
    acc = b.named("acc", dtypes.I64)
    b.mov(acc, 0)
    with b.for_range(0, i) as k:
        b.mov(acc, b.add(acc, k))
    b.store_elem(out, i, acc, dtypes.I64)
    mem, _ = _exec(b.build(), 100, [0])
    got = mem[:100 * 8].view(np.int64)
    expected = np.array([sum(range(i)) for i in range(100)])
    np.testing.assert_array_equal(got, expected)


def test_early_return_masks_lanes():
    b = IRBuilder("k")
    n = b.param("n", dtypes.I64)
    out = b.param("out", dtypes.F64, pointer=True)
    i = b.global_id()
    with b.if_(b.ge(i, n)):
        b.exit()
    b.store_elem(out, i, 1.0, dtypes.F64)
    mem, _ = _exec(b.build(), 128, [50, 0])
    got = mem[:128 * 8].view(np.float64)
    assert got[:50].sum() == 50
    assert got[50:].sum() == 0


def test_exit_inside_loop():
    """Lanes retire from inside a loop at different trip counts."""
    b = IRBuilder("k")
    out = b.param("out", dtypes.I64, pointer=True)
    i = b.global_id()
    count = b.named("count", dtypes.I64)
    b.mov(count, 0)
    with b.while_() as loop:
        with loop.cond():
            loop.set_cond(b.lt(count, 1000))
        b.store_elem(out, i, count, dtypes.I64)
        with b.if_(b.ge(count, i)):
            b.exit()
        b.mov(count, b.add(count, b.operand(1, dtypes.I64)))
    mem, _ = _exec(b.build(), 64, [0])
    got = mem[:64 * 8].view(np.int64)
    np.testing.assert_array_equal(got, np.arange(64))


def test_zero_trip_loop():
    b = IRBuilder("k")
    out = b.param("out", dtypes.F64, pointer=True)
    i = b.global_id()
    b.store_elem(out, i, 5.0, dtypes.F64)
    with b.for_range(10, 5) as _k:  # empty range
        b.store_elem(out, i, -1.0, dtypes.F64)
    mem, _ = _exec(b.build(), 32, [0])
    assert (mem[:32 * 8].view(np.float64) == 5.0).all()


def test_runaway_loop_guard(monkeypatch):
    """Both tiers stop a runaway loop at the one patched limit: the
    trace compiler reads it when it compiles, not from a copy."""
    from repro.isa import interpreter, tracing

    b = IRBuilder("k")
    b.param("out", dtypes.F64, pointer=True)
    flag = b.named("flag", dtypes.PRED)
    b.mov(flag, True)
    with b.while_() as loop:
        with loop.cond():
            loop.set_cond(flag)
        b.mov(b.named("x", dtypes.F64), 1.0)
    kernel = b.build()
    monkeypatch.setattr(interpreter, "_MAX_LOOP_TRIPS", 1000)
    for trace_mode in (True, False):
        tracing.clear_trace_cache()
        before = interpreter.snapshot_interpreter_totals().trace
        try:
            with pytest.raises(IRError, match=r"loop exceeded 1000 "
                               r"iterations \(runaway loop\?\)"):
                _exec(kernel, 32, [0], trace_mode=trace_mode)
        finally:
            tracing.clear_trace_cache()  # no program keeps the patched limit
        after = interpreter.snapshot_interpreter_totals().trace
        assert after.misses - before.misses == int(trace_mode)
        assert after.bailouts == before.bailouts


def test_uniform_condition_scalar_broadcast():
    """A condition uniform across lanes still branches correctly."""
    b = IRBuilder("k")
    flag = b.param("flag", dtypes.I64)
    out = b.param("out", dtypes.F64, pointer=True)
    i = b.global_id()
    with b.if_(b.gt(flag, 0)) as iff:
        b.store_elem(out, i, 1.0, dtypes.F64)
    with b.orelse(iff):
        b.store_elem(out, i, 2.0, dtypes.F64)
    kernel = b.build()
    mem, _ = _exec(kernel, 32, [1, 8])
    assert (mem[8:8 + 32 * 8].view(np.float64) == 1.0).all()
    mem, _ = _exec(kernel, 32, [0, 8])
    assert (mem[8:8 + 32 * 8].view(np.float64) == 2.0).all()


def test_launch_config_validation():
    b = IRBuilder("k")
    b.param("out", dtypes.F64, pointer=True)
    kernel = b.build()
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(kernel, 32, mem, max_block_threads=1024)
    with pytest.raises(LaunchError, match="exceeds device limit"):
        ex.launch((1,), (2048,), [0])
    with pytest.raises(LaunchError, match="non-positive"):
        ex.launch((0,), (256,), [0])
    with pytest.raises(LaunchError, match="takes 1 arguments"):
        ex.launch((1,), (32,), [])


def test_stats_metering():
    b = IRBuilder("k")
    n = b.param("n", dtypes.I64)
    x = b.param("x", dtypes.F64, pointer=True)
    i = b.global_id()
    with b.if_(b.lt(i, n)):
        v = b.load_elem(x, i, dtypes.F64)
        b.store_elem(x, i, b.mul(v, 2.0), dtypes.F64)
    _mem, stats = _exec(b.build(), 128, [100, 0])
    assert stats.threads == 128
    assert stats.bytes_loaded == 100 * 8
    assert stats.bytes_stored == 100 * 8
    assert stats.flops == 100  # one multiply per active lane
    assert stats.instructions > 0


def test_chunking_boundaries_consistent():
    """Results do not depend on the interpreter's batch size."""
    b = IRBuilder("k")
    n = b.param("n", dtypes.I64)
    out = b.param("out", dtypes.I64, pointer=True)
    i = b.global_id()
    with b.if_(b.lt(i, n)):
        b.store_elem(out, i, b.mul(i, i), dtypes.I64)
    kernel = b.build()
    results = []
    for width in (1, 4, None):
        mem, _ = _exec(kernel, 1000, [1000, 0], width=width,
                       mem_bytes=1 << 14)
        results.append(mem[:1000 * 8].view(np.int64).copy())
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[1], results[2])
