"""Differential tests for the trace-compiled interpreter path.

The contract of :mod:`repro.isa.tracing` is absolute: a traced launch
must be **bit-identical** to the batched interpreter — memory image and
every work counter — or the kernel must bail out and fall back.  These
tests drive every library kernel and a randomized population of
generated straight-line kernels through all three execution tiers
(traced, batched, block-isolated) and assert the tiers are mutually
indistinguishable except through the trace totals.
"""

import functools
import re
import tracemalloc

import numpy as np
import pytest

from repro.analysis.tracesan import canonical_batch_width
from repro.errors import DivergentBarrierError, MemoryFaultError
from repro.gpu.memory import DeviceMemory
from repro.isa import IRBuilder, KernelExecutor, dtypes
from repro.isa.interpreter import snapshot_interpreter_totals
from repro.isa.tracing import (
    TraceBailout,
    _TraceCompiler,
    cached_bailout_reason,
    clear_trace_cache,
    trace_cache_size,
)
from repro.kernels import BLOCK, KERNEL_LIBRARY

from tests.trace_fuzz import (
    BAILING_CASES,
    INDUCTION_RULES,
    TRACEABLE_CASES,
    induction_kernel,
)

N = 4096


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    """Each test sees an empty trace cache (totals are read as deltas)."""
    clear_trace_cache()
    yield
    clear_trace_cache()


def _setup(name, n, rng, grid=None):
    """Return (kernel_ir, grid, block, args, initial_memory_image); the
    grid defaults to one thread per element."""
    mem = np.zeros(n * 8 * 3 + (1 << 16), dtype=np.uint8)
    grid = grid or (n + BLOCK - 1) // BLOCK
    if name in ("reduce_sum", "reduce_max", "warp_reduce_sum"):
        x = rng.random(n)
        mem[: n * 8] = x.view(np.uint8)
        if name == "reduce_max":
            mem[n * 8 : n * 8 + 8] = np.array([-1.0e308]).view(np.uint8)
        args = [n, 0, n * 8]
    elif name in ("stream_dot", "ew_mul"):
        a, b = rng.random(n), rng.random(n)
        mem[: n * 8] = a.view(np.uint8)
        mem[n * 8 : 2 * n * 8] = b.view(np.uint8)
        args = [n, 0, n * 8, 2 * n * 8]
    elif name == "stream_triad":
        a, b = rng.random(n), rng.random(n)
        mem[: n * 8] = a.view(np.uint8)
        mem[n * 8 : 2 * n * 8] = b.view(np.uint8)
        args = [n, 1.5, n * 8, 2 * n * 8, 0]
    elif name == "histogram":
        data = rng.integers(0, 1 << 20, n, dtype=np.int32)
        mem[: n * 4] = data.view(np.uint8)
        args = [n, 97, 0, n * 4]
    else:  # pragma: no cover - parametrization mismatch
        raise AssertionError(name)
    return KERNEL_LIBRARY[name].ir, (grid,), (BLOCK,), args, mem


def _counters(stats):
    """Work counters that must not depend on the execution tier."""
    return (stats.threads, stats.instructions, stats.flops,
            stats.bytes_loaded, stats.bytes_stored,
            stats.atomic_ops, stats.barriers)


def _run(ir, grid, block, args, image, *, trace, width=None):
    mem = image.copy()
    ex = KernelExecutor(ir, 32, mem, max_blocks_per_batch=width,
                        trace_mode=trace)
    stats = ex.launch(grid, block, args)
    return mem, stats


def _trace_delta(fn):
    """Run ``fn`` and return the change in the process trace totals."""
    before = snapshot_interpreter_totals().trace
    out = fn()
    after = snapshot_interpreter_totals().trace
    delta = {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "bailouts": after.bailouts - before.bailouts,
        "traced_launches": after.traced_launches - before.traced_launches,
        "traced_batches": after.traced_batches - before.traced_batches,
        "reasons": {k: after.reasons.get(k, 0) - before.reasons.get(k, 0)
                    for k in after.reasons},
    }
    return out, delta


# -- library kernels ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 257, 4096, 1 << 16])
@pytest.mark.parametrize(
    "name",
    ["stream_triad", "ew_mul", "stream_dot", "reduce_sum", "reduce_max",
     "warp_reduce_sum", "histogram"],
)
def test_library_kernel_tiers_bit_identical(name, n, rng):
    """Traced, batched (unlimited and 4 blocks wide), and block-isolated
    runs are indistinguishable; n = 2^16 is 256 blocks, 64 batches of 4."""
    ir, grid, block, args, image = _setup(name, n, rng)
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(ir, grid, block, args, image, trace=True))
    mem_i, st_i = _run(ir, grid, block, args, image, trace=False)
    mem_4, st_4 = _run(ir, grid, block, args, image, trace=False, width=4)
    mem_1, st_1 = _run(ir, grid, block, args, image, trace=False, width=1)

    for mem in (mem_i, mem_4, mem_1):
        np.testing.assert_array_equal(mem_t, mem)
    assert (_counters(st_t) == _counters(st_i) == _counters(st_4)
            == _counters(st_1))
    if name == "warp_reduce_sum":
        # Shuffle is untraceable: the launch must fall back (and the
        # fallback is what the equality above just validated).
        assert delta["traced_launches"] == 0
        assert delta["reasons"].get("shuffle", 0) >= 1
    else:
        assert delta["traced_launches"] == 1
        assert delta["traced_batches"] == st_t.batches


@functools.cache
def _jit_corpus():
    """``examples/jit_kernels.py``, loaded once as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "examples" / \
        "jit_kernels.py"
    spec = importlib.util.spec_from_file_location("jit_corpus_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _grid_stride_setup(name, n, rng, grid):
    """``_setup`` for the library's grid-stride kernels, and for the jit
    corpus's ``branchy`` (``out[i]`` from ``x[i]``) and ``block_sum``
    (laid out like ``reduce_sum``)."""
    if name not in ("branchy", "block_sum"):
        return _setup(name, n, rng, grid=grid)
    _, grid, block, args, image = _setup("reduce_sum", n, rng, grid=grid)
    return getattr(_jit_corpus(), name).ir, grid, block, args, image


def _grid_stride_cases():
    """Kernel x grid x n: no element, one, one short of a trip over every
    lane, exactly one trip, a partial second trip, and a partial fourth.
    Grid 4 at ``3 * lanes + 5`` keeps the kernel name as its id."""
    cases = []
    for name in ("stream_dot", "reduce_sum", "reduce_max", "branchy",
                 "block_sum"):
        for grid in (4, 256):
            lanes = grid * BLOCK
            for label, n in (("0", 0), ("1", 1), ("lanes-1", lanes - 1),
                             ("lanes", lanes), ("lanes+5", lanes + 5),
                             ("3lanes+5", 3 * lanes + 5)):
                plain = grid == 4 and label == "3lanes+5" and name in (
                    "stream_dot", "reduce_sum", "reduce_max")
                cases.append(pytest.param(
                    name, grid, n,
                    id=name if plain else f"{name}-grid{grid}-n={label}"))
    return cases


@pytest.mark.parametrize("name,grid,n", _grid_stride_cases())
def test_grid_stride_loops_run_several_trips_bit_identical(name, grid, n,
                                                           rng):
    """Grid-stride loops run on a live lane prefix whose trips end
    ragged: traced at the canonical batch width, 4 and 1, every launch
    matches the interpreter at widths unlimited, 4 and 1, in memory and
    all 7 counters."""
    ir, grid, block, args, image = _grid_stride_setup(name, n, rng, grid)
    mem_i, st_i = _run(ir, grid, block, args, image, trace=False)
    for width in (4, 1):
        mem, st = _run(ir, grid, block, args, image, trace=False,
                       width=width)
        np.testing.assert_array_equal(mem_i, mem)
        assert _counters(st_i) == _counters(st)
    for width in (None, 4, 1):
        (mem_t, st_t), delta = _trace_delta(
            lambda: _run(ir, grid, block, args, image, trace=True,
                         width=width))
        np.testing.assert_array_equal(mem_t, mem_i)
        assert _counters(st_t) == _counters(st_i)
        assert delta["traced_launches"] == 1


def _short_input_image(name, n, a_elems, misalign):
    """A device whose first input holds ``a_elems`` of the ``n``
    elements, with no allocation after it, and the launch's args; with
    ``misalign`` the first input's base is 4 bytes off instead."""
    dm = DeviceMemory(8 * (3 * n + 4096))
    a = int(dm.alloc(8 * a_elems))
    gap = dm.alloc(8 * 1024)
    rest = [int(dm.alloc(8 * n)) for _ in range(2)]
    dm.free(gap)
    dm.buffer[:] = np.random.default_rng(7).integers(
        0, 64, dm.buffer.size, dtype=np.uint8)
    base = a + 4 if misalign else a
    if name == "stream_dot":
        args = [n, base, rest[0], rest[1]]
    else:
        args = [n, base, rest[1]]
    return dm, args


@pytest.mark.parametrize("width", [None, 4, 1], ids=["canonical", "w4", "w1"])
@pytest.mark.parametrize("fault", ["trip0", "trip1", "misaligned"])
@pytest.mark.parametrize("name", ["stream_dot", "reduce_sum", "reduce_max"])
def test_grid_stride_faults_match_the_interpreter(name, fault, width):
    """An input shorter than ``n`` runs past its allocation on trip 0 or
    on trip 1, and a misaligned input faults on its first load: the
    prefix loop's contiguous gate fails and its generic path raises the
    interpreter's exact MemoryFaultError."""
    ir = KERNEL_LIBRARY[name].ir
    grid, block = (4,), (BLOCK,)
    lanes = 4 * BLOCK
    n, a_elems = {"trip0": (lanes + 5, lanes // 2),
                  "trip1": (3 * lanes + 5, lanes + 32),
                  "misaligned": (lanes + 5, lanes + 5)}[fault]
    texts = []
    for trace in (True, False):
        dm, args = _short_input_image(name, n, a_elems, fault == "misaligned")
        ex = KernelExecutor(ir, 32, dm.buffer, validator=dm.validate,
                            trace_mode=trace, max_blocks_per_batch=width)
        with pytest.raises(MemoryFaultError) as exc:
            ex.launch(grid, block, args)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert ("misaligned f64" in texts[0]) == (fault == "misaligned")


# -- iteration-local registers ------------------------------------------------


def _loop_rule_kernel(case: str):
    """One varying grid-stride-like loop (0-3 trips per lane) whose
    register ``r`` sits where ``case`` puts it; see the rule table."""
    b = IRBuilder(f"rule_{case}")
    n = b.param("n", dtypes.I64)
    a = b.param("a", dtypes.F64, pointer=True)
    bb = b.param("b", dtypes.F64, pointer=True)
    out = b.param("out", dtypes.F64, pointer=True)
    t = b.global_id()
    x = b.load_elem(a, t, dtypes.F64)
    acc = b.named("acc", dtypes.F64)
    b.mov(acc, 0.0)
    left = b.named("left", dtypes.I64)
    b.mov(left, b.rem(t, 4))
    r = b.named("r", dtypes.F64)
    if case in ("next_trip", "after_loop"):
        b.mov(r, x)
    with b.while_() as loop:
        with loop.cond():
            c = b.gt(left, 0)
            if case == "next_trip":
                b.mov(acc, b.add(acc, r))
            loop.set_cond(c)
        y = b.load_elem(bb, b.rem(b.add(t, left), n), dtypes.F64)
        if case == "nested_if":
            with b.if_(b.lt(y, 0.5)):
                b.mov(r, b.mul(y, 3.0))
                b.mov(acc, b.add(acc, r))
        elif case == "inner_loop":
            k = b.named("k", dtypes.I64)
            b.mov(k, left)
            with b.while_() as inner:
                with inner.cond():
                    inner.set_cond(b.gt(k, 1))
                b.mov(r, b.mul(y, b.cvt(k, dtypes.F64)))
                b.mov(acc, b.add(acc, r))
                b.mov(k, b.sub(k, 1))
        else:
            b.mov(r, b.mul(y, x))
            if case == "redefined_in_if":
                with b.if_(b.lt(y, 0.5)):
                    b.mov(r, y)
            b.mov(acc, b.add(acc, r))
        b.mov(left, b.sub(left, 1))
    if case == "after_loop":
        b.mov(acc, b.add(acc, r))
    b.store_elem(out, t, acc, dtypes.F64)
    return b.build()


#: case -> whether ``r`` is iteration-local (a plain local), or stays a
#: merge register.  ``redefined_in_if`` is local by its first mention
#: but stays a merge register: a def inside a nested If must keep the
#: lanes the If skips.
_LOOP_RULES = {"top_level": True, "next_trip": False, "nested_if": False,
               "after_loop": False, "inner_loop": True,
               "redefined_in_if": False}


@pytest.mark.parametrize("case", list(_LOOP_RULES))
def test_iteration_local_rule_table(case):
    from repro.analysis.tracesan import _IRInfo, validate_program
    from repro.isa.tracing import _TraceCompiler
    from tests.trace_fuzz import FuzzCase

    fz = FuzzCase(f"rule_{case}", _loop_rule_kernel(case), 4 * BLOCK)
    image = fz.image()
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(fz.ir, fz.grid, fz.block, fz.args, image, trace=True))
    for width in (1, 4):
        mem, st = _run(fz.ir, fz.grid, fz.block, fz.args, image,
                       trace=False, width=width)
        np.testing.assert_array_equal(mem_t, mem)
        assert _counters(st_t) == _counters(st)
    assert delta["traced_launches"] == 1

    grid3, block3 = (fz.grid[0], 1, 1), (BLOCK, 1, 1)
    comp = _TraceCompiler(fz.ir, 32, grid3, block3, 4)
    source = comp.compile()
    info = _IRInfo(fz.ir, 32, grid3, block3)
    local = _LOOP_RULES[case]
    assert ("r" in comp.loop_local) is local
    assert ("r" in comp.merge) is not local
    assert set(comp.loop_local) == set(info.loop_local)
    assert comp.merge == info.merge
    verdict = validate_program(fz.ir, source, 32, grid3, block3, 4)
    assert verdict.validated and verdict.exact, \
        [d.render() for d in verdict.diagnostics]


# -- induction loops: prefix form or live-mask form ---------------------------


@pytest.mark.parametrize("case", list(INDUCTION_RULES))
def test_induction_rule_table(case, monkeypatch):
    """The compiler runs a grid-stride loop on a live lane prefix exactly
    when tracesan's re-derivation finds an induction register, every
    program validates exactly, and traced runs match the interpreter."""
    from repro.analysis import tracesan

    ir = induction_kernel(case)
    grid, block, n = (4,), (BLOCK,), 3 * 4 * BLOCK + 5
    image = np.zeros(8 * (n + 4 * BLOCK) + 64, dtype=np.uint8)
    image[: 8 * n] = np.random.default_rng(11).random(n).view(np.uint8)
    args = [n, 0, 8 * n]
    mem_i, st_i = _run(ir, grid, block, args, image, trace=False)
    for width in (None, 1):
        (mem_t, st_t), delta = _trace_delta(
            lambda: _run(ir, grid, block, args, image, trace=True,
                         width=width))
        np.testing.assert_array_equal(mem_t, mem_i)
        assert _counters(st_t) == _counters(st_i)
        assert delta["traced_launches"] == 1

    grid3, block3 = (4, 1, 1), (BLOCK, 1, 1)
    bpb = canonical_batch_width(ir, block3)
    source = _TraceCompiler(ir, 32, grid3, block3, bpb).compile()
    prefix = re.search(r"_sy\d+ = _tr\d+ \* int\(", source) is not None
    assert prefix is INDUCTION_RULES[case]
    seen = []
    derive = tracesan._Checker._induction
    monkeypatch.setattr(
        tracesan._Checker, "_induction",
        lambda self, ins, ctx: seen.append(derive(self, ins, ctx)) or seen[-1])
    verdict = tracesan.validate_program(ir, source, 32, grid3, block3, bpb)
    assert verdict.validated and verdict.exact, \
        [d.render() for d in verdict.diagnostics]
    assert [plan is not None for plan in seen] == [prefix]


# -- randomized straight-line kernels -----------------------------------------


def _random_kernel(trial, gen):
    """A random bounds-guarded elementwise kernel over two f64 inputs."""
    b = IRBuilder(f"rand{trial}")
    n_p = b.param("n", dtypes.I64)
    a_p = b.param("a", dtypes.F64, pointer=True)
    b_p = b.param("b", dtypes.F64, pointer=True)
    o_p = b.param("out", dtypes.F64, pointer=True)
    t = b.global_id()
    with b.if_(b.lt(t, n_p)):
        x = b.load_elem(a_p, t, dtypes.F64)
        y = b.load_elem(b_p, t, dtypes.F64)
        v = x
        for _ in range(int(gen.integers(3, 9))):
            op = gen.choice(["add", "sub", "mul", "min", "max",
                             "select", "cvt"])
            other = y if gen.random() < 0.5 else x
            if op == "select":
                v = b.select(b.lt(v, other), other, v)
            elif op == "cvt":
                v = b.cvt(b.cvt(v, dtypes.F32), dtypes.F64)
            else:
                v = b.binop(op, v, other)
        b.store_elem(o_p, t, v, dtypes.F64)
    return b.build()


@pytest.mark.parametrize("trial", range(8))
def test_randomized_kernels_tiers_bit_identical(trial, rng):
    gen = np.random.default_rng(1000 + trial)
    ir = _random_kernel(trial, gen)
    n = int(gen.integers(1, 3000))
    image = np.zeros(3 * n * 8 + 64, dtype=np.uint8)
    image[: n * 8] = gen.random(n).view(np.uint8)
    image[n * 8 : 2 * n * 8] = gen.random(n).view(np.uint8)
    grid = ((n + BLOCK - 1) // BLOCK,)
    args = [n, 0, n * 8, 2 * n * 8]

    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(ir, grid, (BLOCK,), args, image, trace=True))
    mem_i, st_i = _run(ir, grid, (BLOCK,), args, image, trace=False)
    mem_1, st_1 = _run(ir, grid, (BLOCK,), args, image, trace=False, width=1)

    np.testing.assert_array_equal(mem_t, mem_i)
    np.testing.assert_array_equal(mem_t, mem_1)
    assert _counters(st_t) == _counters(st_i) == _counters(st_1)
    # Straight-line kernels must actually take the traced path.
    assert delta["traced_launches"] == 1
    assert delta["bailouts"] == 0


def test_runtime_divergence_stays_traced(rng):
    """Data-dependent branching is handled inside the trace, not bailed."""
    b = IRBuilder("diverge")
    n_p = b.param("n", dtypes.I64)
    a_p = b.param("a", dtypes.F64, pointer=True)
    o_p = b.param("out", dtypes.F64, pointer=True)
    t = b.global_id()
    with b.if_(b.lt(t, n_p)):
        x = b.load_elem(a_p, t, dtypes.F64)
        with b.if_(b.lt(x, 0.5)):
            b.store_elem(o_p, t, b.mul(x, 2.0), dtypes.F64)
    ir = b.build()

    n = 1000
    image = np.zeros(2 * n * 8 + 64, dtype=np.uint8)
    image[: n * 8] = rng.random(n).view(np.uint8)
    grid = ((n + BLOCK - 1) // BLOCK,)
    args = [n, 0, n * 8]

    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(ir, grid, (BLOCK,), args, image, trace=True))
    mem_i, st_i = _run(ir, grid, (BLOCK,), args, image, trace=False)
    np.testing.assert_array_equal(mem_t, mem_i)
    assert _counters(st_t) == _counters(st_i)
    assert delta["traced_launches"] == 1
    assert delta["bailouts"] == 0


# -- shared fuzz corpus, dynamic half + static agreement ----------------------
#
# The same seeded corpus test_tracesan.py validates statically runs here
# through the traced and batched tiers; the observed bit-equality and
# the static verdict must agree.




@pytest.mark.parametrize("case", TRACEABLE_CASES, ids=lambda c: c.name)
def test_fuzz_corpus_tiers_bit_identical_and_statically_agreed(case):
    from repro.analysis.tracesan import validate_program
    from repro.isa.tracing import lookup

    image = case.image()
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(case.ir, case.grid, case.block, case.args, image,
                     trace=True))
    mem_i, st_i = _run(case.ir, case.grid, case.block, case.args, image,
                       trace=False)
    np.testing.assert_array_equal(mem_t, mem_i)
    assert _counters(st_t) == _counters(st_i)
    assert delta["traced_launches"] == 1
    assert delta["bailouts"] == 0

    # Static translation validation must agree with the observed
    # bit-equality: the program the launch cached validates.
    ex = KernelExecutor(case.ir, 32, image.copy(), trace_mode=True)
    grid3 = (case.grid[0], 1, 1)
    block3 = (case.block[0], 1, 1)
    bpb = canonical_batch_width(case.ir, block3)
    program = lookup(ex, grid3, block3, bpb)
    assert program is not None
    verdict = validate_program(case.ir, program.source, 32, grid3, block3,
                               bpb, key=program.key)
    assert verdict.validated, [d.render() for d in verdict.diagnostics]


@pytest.mark.parametrize("case", BAILING_CASES, ids=lambda c: c.name)
def test_fuzz_bailing_cases_fall_back_bit_identical(case):
    """Bailed kernels run on the interpreter tier — and still match it."""
    image = case.image()
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(case.ir, case.grid, case.block, case.args, image,
                     trace=True))
    mem_i, st_i = _run(case.ir, case.grid, case.block, case.args, image,
                       trace=False)
    np.testing.assert_array_equal(mem_t, mem_i)
    assert _counters(st_t) == _counters(st_i)
    assert delta["traced_launches"] == 0
    assert delta["reasons"].get(case.bailout_reason, 0) >= 1


# -- bailouts are localized ---------------------------------------------------


def test_bailout_localized_to_bailing_kernel(rng):
    """One untraceable kernel must not de-trace its neighbors."""
    ir_w, grid_w, block_w, args_w, image_w = _setup(
        "warp_reduce_sum", 4096, rng)
    (mem_w, _), delta_w = _trace_delta(
        lambda: _run(ir_w, grid_w, block_w, args_w, image_w, trace=True))
    assert delta_w["traced_launches"] == 0
    assert delta_w["reasons"].get("shuffle", 0) == 1

    # The bailout is cached under the bailing kernel's key only ...
    bpb = canonical_batch_width(ir_w, (BLOCK, 1, 1))
    assert cached_bailout_reason(
        ir_w, 32, (grid_w[0], 1, 1), (BLOCK, 1, 1), bpb) == "shuffle"

    # ... and a different kernel in the same process still traces.
    ir_t, grid_t, block_t, args_t, image_t = _setup("stream_triad", 4096, rng)
    _, delta_t = _trace_delta(
        lambda: _run(ir_t, grid_t, block_t, args_t, image_t, trace=True))
    assert delta_t["traced_launches"] == 1
    assert delta_t["bailouts"] == 0

    # The bailing kernel still computed the right answer (fallback ran).
    mem_ref, _ = _run(ir_w, grid_w, block_w, args_w, image_w, trace=False)
    np.testing.assert_array_equal(mem_w, mem_ref)


def test_cached_bailout_not_retried(rng):
    """A second launch of a bailing kernel reuses the cached verdict."""
    ir, grid, block, args, image = _setup("warp_reduce_sum", 257, rng)
    _, d1 = _trace_delta(
        lambda: _run(ir, grid, block, args, image, trace=True))
    _, d2 = _trace_delta(
        lambda: _run(ir, grid, block, args, image, trace=True))
    assert d1["reasons"].get("shuffle", 0) == 1
    assert d2["reasons"].get("shuffle", 0) == 1  # counted, served from cache
    assert trace_cache_size() == 1  # one negative entry, not one per launch


# -- trace_mode=off is inert --------------------------------------------------


def test_trace_off_touches_nothing(rng):
    """trace_mode=False must leave every trace counter and cache alone."""
    ir, grid, block, args, image = _setup("stream_triad", 4096, rng)
    _, delta = _trace_delta(
        lambda: _run(ir, grid, block, args, image, trace=False))
    assert delta["hits"] == delta["misses"] == delta["bailouts"] == 0
    assert delta["traced_launches"] == delta["traced_batches"] == 0
    assert trace_cache_size() == 0


# -- cache behaviour ----------------------------------------------------------


def test_trace_cache_hit_on_relaunch(rng):
    ir, grid, block, args, image = _setup("stream_triad", 4096, rng)
    ex = KernelExecutor(ir, 32, image.copy(), trace_mode=True)
    _, d1 = _trace_delta(lambda: ex.launch(grid, block, args))
    _, d2 = _trace_delta(lambda: ex.launch(grid, block, args))
    assert (d1["misses"], d1["hits"]) == (1, 0)
    assert (d2["misses"], d2["hits"]) == (0, 1)
    assert trace_cache_size() == 1


def test_kernel_content_is_computed_once_across_executors(rng):
    """Every traced launch hashes its kernel for the trace key, but the
    kernel reprs its body once: the content is kept on the kernel, not
    on an executor."""
    from repro.isa.module import clone_ir

    reprs = []

    class CountingBody(list):
        def __repr__(self):
            reprs.append(1)
            return super().__repr__()

    ir, grid, block, args, image = _setup("stream_dot", 4096, rng)
    kernel = clone_ir(ir)
    kernel.body = CountingBody(kernel.body)
    for _ in range(2):
        ex = KernelExecutor(kernel, 32, image.copy(), trace_mode=True)
        for _ in range(3):
            _, delta = _trace_delta(lambda: ex.launch(grid, block, args))
            assert delta["traced_launches"] == 1
    assert len(reprs) == 1
    assert kernel.content() == ir.content()


def test_distinct_shapes_get_distinct_programs(rng):
    """The trace key covers geometry: a new grid is a new program."""
    ir, grid, block, args, image = _setup("stream_triad", 4096, rng)
    _run(ir, grid, block, args, image, trace=True)
    assert trace_cache_size() == 1
    ir2, grid2, block2, args2, image2 = _setup("stream_triad", 257, rng)
    _run(ir2, grid2, block2, args2, image2, trace=True)
    assert trace_cache_size() == 2


def test_racing_lookups_compile_one_shape_once(rng, monkeypatch):
    """Six launches missing one key at once compile it once: the leader
    is held inside the compile until the others wait on its flight."""
    import threading
    import time

    from repro.isa import tracing

    ir, grid, block, args, image = _setup("stream_triad", 4096, rng)
    real = tracing._TraceCompiler.compile
    entered, release = threading.Event(), threading.Event()
    calls = []

    def held_compile(self):
        calls.append(self.k.name)
        entered.set()
        assert release.wait(timeout=10), "test never released the leader"
        return real(self)

    monkeypatch.setattr(tracing._TraceCompiler, "compile", held_compile)
    n = 6
    threads = [threading.Thread(target=_run, args=(ir, grid, block, args,
                                                   image),
                                kwargs={"trace": True})
               for _ in range(n)]

    def race():
        for t in threads:
            t.start()
        assert entered.wait(timeout=10)
        time.sleep(0.05)  # let the followers reach the flight lock
        release.set()
        for t in threads:
            t.join(timeout=10)

    _, delta = _trace_delta(race)
    assert not any(t.is_alive() for t in threads)
    assert calls == ["stream_triad"]
    assert (delta["misses"], delta["hits"]) == (1, n - 1)
    assert delta["traced_launches"] == n
    assert trace_cache_size() == 1


# -- errors surface identically -----------------------------------------------


@pytest.mark.parametrize("trace", [True, False])
def test_divergent_barrier_raises_in_both_modes(trace):
    b = IRBuilder("k")
    b.param("out", dtypes.F64, pointer=True)
    t = b.cvt(b.special("tid.x"), dtypes.I64)
    with b.if_(b.lt(t, 16)):
        b.barrier()
    mem = np.zeros(1 << 12, dtype=np.uint8)
    ex = KernelExecutor(b.build(), 32, mem, trace_mode=trace)
    with pytest.raises(DivergentBarrierError, match="16 of 64"):
        ex.launch((4,), (64,), [0])


def _fault_text(ir, grid, block, args, image, *, trace, device,
                width=None):
    """The MemoryFaultError one launch raises, as text."""
    mem = image.copy()
    validator = None
    if device:
        # One live allocation holds the image; the slack past it is
        # backing store no allocation owns.
        dm = DeviceMemory(image.size + 4096)
        assert int(dm.alloc(image.size)) == 0
        dm.buffer[: image.size] = image
        mem, validator = dm.buffer, dm.validate
    ex = KernelExecutor(ir, 32, mem, validator=validator, trace_mode=trace,
                        max_blocks_per_batch=width)
    with pytest.raises(MemoryFaultError) as exc:
        ex.launch(grid, block, args)
    return str(exc.value)


@pytest.mark.parametrize("device", [False, True], ids=["raw", "device"])
@pytest.mark.parametrize("fault", ["misaligned", "out_of_bounds"])
@pytest.mark.parametrize("name", ["stream_dot", "reduce_sum", "reduce_max"])
def test_uniform_out_faults_match_the_interpreter(name, fault, device, rng):
    """A bad `out` fails the closing atomic's uniform-address gate, and
    its generic path raises the interpreter's exact message."""
    ir, grid, block, args, image = _setup(name, 4096, rng)
    args = list(args)
    args[-1] = args[-1] + 4 if fault == "misaligned" else image.size
    traced = _fault_text(ir, grid, block, args, image, trace=True,
                         device=device)
    interpreted = _fault_text(ir, grid, block, args, image, trace=False,
                              device=device)
    assert traced == interpreted
    assert ("misaligned f64" in traced) == (fault == "misaligned")


def _tile_reader(full: bool):
    """Each block stages its thread ids in a 128-element tile, then
    reads ``tile[k]`` (one address on every lane) into ``out``."""
    b = IRBuilder("tile_reader_full" if full else "tile_reader")
    k = b.param("k", dtypes.I64)
    out = b.param("out", dtypes.F64, pointer=True)
    sh = b.shared_alloc(dtypes.F64, BLOCK)
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    b.store_elem(sh, tid, b.cvt(tid, dtypes.F64), dtypes.F64, space="shared")
    b.barrier()
    slot = b.global_id()
    if full:
        v = b.load_elem(sh, k, dtypes.F64, space="shared")
        b.store_elem(out, slot, v, dtypes.F64)
    else:
        with b.if_(b.eq(tid, 0)):
            v = b.load_elem(sh, k, dtypes.F64, space="shared")
            b.store_elem(out, slot, v, dtypes.F64)
    return b.build()


@pytest.mark.parametrize("full", [False, True], ids=["masked", "full"])
def test_uniform_shared_load_past_its_tile_faults_identically(full):
    ir = _tile_reader(full)
    image = np.zeros(4 * BLOCK * 8 + 64, dtype=np.uint8)
    grid, block = (4,), (BLOCK,)
    texts = {_fault_text(ir, grid, block, [BLOCK, 0], image, trace=t,
                         device=False) for t in (True, False)}
    assert texts == {f"kernel '{ir.name}': shared access beyond "
                     f"{BLOCK * 8} allocated bytes"}
    # In range, both tiers agree on every byte and counter.
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(ir, grid, block, [5, 0], image, trace=True))
    mem_i, st_i = _run(ir, grid, block, [5, 0], image, trace=False)
    np.testing.assert_array_equal(mem_t, mem_i)
    assert _counters(st_t) == _counters(st_i)
    assert delta["traced_launches"] == 1


def _neighbour_reader():
    """Each block stages its thread ids in a tile and reads
    ``tile[tid - 1]``: thread 0's shared offset wraps to ``2**64 - 8``."""
    b = IRBuilder("neighbour_reader")
    out = b.param("out", dtypes.F64, pointer=True)
    sh = b.shared_alloc(dtypes.F64, BLOCK)
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    b.store_elem(sh, tid, b.cvt(tid, dtypes.F64), dtypes.F64, space="shared")
    b.barrier()
    v = b.load_elem(sh, b.sub(tid, 1), dtypes.F64, space="shared")
    b.store_elem(out, b.global_id(), v, dtypes.F64)
    return b.build()


def _copy_kernel():
    """``out[i] = x[i]``."""
    b = IRBuilder("copy")
    x = b.param("x", dtypes.F64, pointer=True)
    out = b.param("out", dtypes.F64, pointer=True)
    i = b.global_id()
    b.store_elem(out, i, b.load_elem(x, i, dtypes.F64), dtypes.F64)
    return b.build()


@pytest.mark.parametrize("case", ["tile_minus_one", "global_at_2_63",
                                  "shared_at_2_64_minus_8"])
def test_addresses_past_2_63_fault_identically(case):
    """A load at or above ``2**63`` faults with one MemoryFaultError text
    traced and at batch widths 4 and 1, never a NumPy IndexError."""
    grid, block = (4,), (BLOCK,)
    image = np.zeros(4 * BLOCK * 8 + 64, dtype=np.uint8)
    limit = f"shared access beyond {BLOCK * 8} allocated bytes"
    if case == "tile_minus_one":
        ir, args, device = _neighbour_reader(), [0], True
        want = f"kernel 'neighbour_reader': {limit}"
    elif case == "global_at_2_63":
        ir, args, device = _copy_kernel(), [1 << 63, 0], False
        want = "global access out of device memory"
    else:
        ir, args, device = _tile_reader(True), [-1, 0], False
        want = f"kernel 'tile_reader_full': {limit}"
    texts = [_fault_text(ir, grid, block, args, image, trace=trace,
                         device=device, width=width)
             for trace, width in ((True, None), (False, 4), (False, 1))]
    assert texts == [want] * 3


def _uniform_kernel(where: str):
    """Uniform-address loads (global and shared) and atomics (add, max,
    a uniform-valued min) under one kind of active mask."""
    b = IRBuilder(f"uniform_{where}")
    n = b.param("n", dtypes.I64)
    a = b.param("a", dtypes.F64, pointer=True)
    bb = b.param("b", dtypes.F64, pointer=True)
    out = b.param("out", dtypes.F64, pointer=True)
    sh = b.shared_alloc(dtypes.F64, BLOCK)
    t = b.global_id()
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    x = b.load_elem(a, t, dtypes.F64)
    b.store_elem(sh, tid, x, dtypes.F64, space="shared")
    b.barrier()
    g_addr = b.elem_addr(bb, 3, dtypes.F64)
    s_addr = b.elem_addr(sh, 5, dtypes.F64)

    def body():
        g = b.load(dtypes.F64, g_addr)
        s = b.load(dtypes.F64, s_addr, space="shared")
        b.store_elem(out, t, b.add(g, s), dtypes.F64)
        b.atomic("add", b.elem_addr(out, n, dtypes.F64), x)
        b.atomic("max", b.elem_addr(out, b.add(n, 1), dtypes.F64), s)
        b.atomic("min", b.elem_addr(out, b.add(n, 2), dtypes.F64), 0.25)

    if where == "full":
        body()
    elif where == "lin":
        with b.if_(b.lt(t, b.sub(n, 5))):
            body()
    elif where == "block":
        with b.if_(b.lt(tid, 100)):
            body()
    elif where == "gen":
        with b.if_(b.lt(x, 0.5)):
            body()
    else:  # a varying loop: the loads' registers merge across trips
        v = b.named("v", dtypes.F64)
        b.mov(v, 0.0)
        left = b.named("left", dtypes.I64)
        b.mov(left, b.rem(t, 3))
        with b.while_() as loop:
            with loop.cond():
                loop.set_cond(b.gt(left, 0))
            g = b.load(dtypes.F64, g_addr)
            s = b.load(dtypes.F64, s_addr, space="shared")
            b.mov(v, b.add(v, b.mul(g, s)))
            b.mov(left, b.sub(left, 1))
        b.store_elem(out, t, v, dtypes.F64)
    return b.build()


@pytest.mark.parametrize("where", ["full", "lin", "block", "gen", "loop"])
def test_uniform_address_fast_paths_bit_identical(where):
    from repro.analysis.tracesan import validate_program
    from repro.isa.tracing import _TraceCompiler
    from tests.trace_fuzz import FuzzCase

    case = FuzzCase(f"uniform_{where}", _uniform_kernel(where), 5 * BLOCK)
    image = case.image()
    (mem_t, st_t), delta = _trace_delta(
        lambda: _run(case.ir, case.grid, case.block, case.args, image,
                     trace=True))
    mem_i, st_i = _run(case.ir, case.grid, case.block, case.args, image,
                       trace=False)
    mem_1, st_1 = _run(case.ir, case.grid, case.block, case.args, image,
                       trace=False, width=1)
    np.testing.assert_array_equal(mem_t, mem_i)
    np.testing.assert_array_equal(mem_t, mem_1)
    assert _counters(st_t) == _counters(st_i) == _counters(st_1)
    assert delta["traced_launches"] == 1

    grid3, block3 = (case.grid[0], 1, 1), (BLOCK, 1, 1)
    source = _TraceCompiler(case.ir, 32, grid3, block3, 2048).compile()
    gates = source.count(", 1, 8)") + source.count(" + 1 * 8 <= ")
    atomics = 0 if where == "loop" else 3
    assert source.count("np.broadcast_to(") == atomics
    assert gates == 2 + atomics
    verdict = validate_program(case.ir, source, 32, grid3, block3, 2048)
    assert verdict.validated and verdict.exact, \
        [d.render() for d in verdict.diagnostics]


def _warm_launch_peak(name, rng):
    """Bytes of temporaries one warm traced launch of ``name`` over
    65,536 lanes (grid 256 x block 256) peaks at."""
    ir, grid, block, args, image = _setup(name, 1 << 16, rng)
    assert grid == (256,)
    ex = KernelExecutor(ir, 32, image.copy(), trace_mode=True)
    _, delta = _trace_delta(lambda: ex.launch(grid, block, args))
    assert delta["traced_launches"] == 1
    tracemalloc.start()
    try:
        ex.launch(grid, block, args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_dot_launch_peak_stays_bounded(rng):
    """A warm traced stream_dot launch peaks under 5 MB of temporaries:
    the program releases each lane array after its last use, inside the
    grid-stride loop too, and the closing atomic resolves its one
    address instead of 65,536 copies of it."""
    peak = _warm_launch_peak("stream_dot", rng)
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def test_traced_reduce_launch_peak_stays_bounded(rng):
    """reduce_sum's grid-stride loop keeps one loaded lane array per
    trip: a warm launch peaks under 4.5 MB."""
    peak = _warm_launch_peak("reduce_sum", rng)
    assert peak < 4.5e6, f"peak {peak / 1e6:.1f} MB"


def _canonical_programs():
    """``name -> source`` of every library and fuzz-corpus program at
    the geometry ``lint --traces`` and the fuzz suites validate at."""
    from repro.analysis.perfstat import STATIC_LAUNCHES

    launches = {}
    for name, spec in KERNEL_LIBRARY.items():
        grid, block = STATIC_LAUNCHES[name][:2]
        launches[name] = (spec.ir, grid, block)
    for case in TRACEABLE_CASES:
        launches[case.name] = (case.ir, case.grid, case.block)
    out = {}
    for name, (ir, grid, block) in launches.items():
        grid3 = tuple(grid) + (1,) * (3 - len(grid))
        block3 = tuple(block) + (1,) * (3 - len(block))
        try:
            out[name] = _TraceCompiler(
                ir, 32, grid3, block3,
                canonical_batch_width(ir, block3)).compile()
        except TraceBailout:
            continue
    return out


def test_programs_read_every_symbol_they_bind():
    """A ``_syN = int(...)`` bind whose model was dropped is removed,
    so no trip of stream_dot's grid-stride loop converts a register
    nothing reads."""
    programs = _canonical_programs()
    assert "stream_dot" in programs and len(programs) > 40
    unread = {}
    for name, source in programs.items():
        # A release (``a = b = None``) is not a read.
        reads = "\n".join(line for line in source.splitlines()
                          if not line.endswith(" = None"))
        for sym in re.findall(r"^\s*(_sy\d+) = int\(", source, re.M):
            if len(re.findall(rf"\b{sym}\b", reads)) == 1:
                unread.setdefault(name, []).append(sym)
    assert not unread, unread


# -- metrics surface ----------------------------------------------------------


def test_metrics_snapshot_exposes_trace_section(rng):
    from repro.service.metrics import MetricsRegistry

    ir, grid, block, args, image = _setup("ew_mul", 257, rng)
    _run(ir, grid, block, args, image, trace=True)
    snap = MetricsRegistry().snapshot()
    trace = snap["trace"]
    for key in ("hits", "misses", "bailouts", "traced_launches",
                "traced_batches", "bailout_reasons"):
        assert key in trace
    assert trace["misses"] >= 1
    assert trace["traced_launches"] >= 1
