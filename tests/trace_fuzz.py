"""Shared seeded fuzz corpus for the trace tier and its validator.

One deterministic population of randomized IRBuilder kernels, consumed
by **two** independent suites:

* ``test_tracing.py`` runs every case through the traced and the
  batched interpreter tiers and asserts bit-identical results
  (the *dynamic* differential oracle);
* ``test_tracesan.py`` statically validates the generated program of
  every case against its IR without executing anything (the *static*
  oracle), and asserts the two oracles agree.

Every case fixes its own seed, so both suites see byte-identical
kernels, geometries, and memory images.  Cases cover the grammar the
trace compiler actually emits: straight-line elementwise chains,
data-dependent divergence (if/else, nesting, varying loops), shared
memory with barriers, atomics — plus a handful of kernels built to
*bail out* (shuffle, Exit, CAS), which must be reported as
nothing-to-validate, never validated.

All kernels share one signature ``(n: i64, a: *f64, b: *f64,
out: *f64)`` and one memory layout (``a`` at 0, ``b`` at ``n*8``,
``out`` at ``2*n*8``, slack after) so the harnesses stay trivial.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.isa import IRBuilder, dtypes

BLOCK = 128


@dataclass(frozen=True)
class FuzzCase:
    """One corpus kernel plus its canonical launch."""

    name: str
    ir: object
    n: int
    expect_bailout: bool = False
    bailout_reason: str | None = None

    @property
    def grid(self) -> tuple:
        return ((self.n + BLOCK - 1) // BLOCK,)

    @property
    def block(self) -> tuple:
        return (BLOCK,)

    @property
    def args(self) -> list:
        return [self.n, 0, self.n * 8, 2 * self.n * 8]

    def image(self) -> np.ndarray:
        gen = np.random.default_rng(hash(self.name) % (1 << 32))
        mem = np.zeros(3 * self.n * 8 + 4096, dtype=np.uint8)
        mem[: self.n * 8] = gen.random(self.n).view(np.uint8)
        mem[self.n * 8: 2 * self.n * 8] = gen.random(self.n).view(np.uint8)
        return mem


def _sig(b: IRBuilder):
    n = b.param("n", dtypes.I64)
    a = b.param("a", dtypes.F64, pointer=True)
    bb = b.param("b", dtypes.F64, pointer=True)
    out = b.param("out", dtypes.F64, pointer=True)
    return n, a, bb, out


def _elementwise(i: int, gen: np.random.Generator) -> IRBuilder:
    """Bounds-guarded straight-line op chain (the trace fast path)."""
    b = IRBuilder(f"fz_ew{i}")
    n, a, bb, out = _sig(b)
    t = b.global_id()
    with b.if_(b.lt(t, n)):
        x = b.load_elem(a, t, dtypes.F64)
        y = b.load_elem(bb, t, dtypes.F64)
        v = x
        for _ in range(int(gen.integers(3, 9))):
            op = gen.choice(["add", "sub", "mul", "div", "min", "max",
                             "select", "cvt"])
            other = y if gen.random() < 0.5 else x
            if op == "select":
                v = b.select(b.lt(v, other), other, v)
            elif op == "cvt":
                v = b.cvt(b.cvt(v, dtypes.F32), dtypes.F64)
            else:
                v = b.binop(op, v, other)
        b.store_elem(out, t, v, dtypes.F64)
    return b


def _divergent(i: int, gen: np.random.Generator) -> IRBuilder:
    """Data-dependent control flow inside the bounds guard."""
    b = IRBuilder(f"fz_div{i}")
    n, a, bb, out = _sig(b)
    t = b.global_id()
    thr = float(gen.random())
    with b.if_(b.lt(t, n)):
        x = b.load_elem(a, t, dtypes.F64)
        y = b.load_elem(bb, t, dtypes.F64)
        if i == 0:        # one-sided varying if
            with b.if_(b.lt(x, thr)):
                b.store_elem(out, t, b.mul(x, 2.0), dtypes.F64)
        elif i == 1:      # if/else
            with b.if_(b.lt(x, thr)) as br:
                b.store_elem(out, t, b.mul(x, 2.0), dtypes.F64)
            with b.orelse(br):
                b.store_elem(out, t, b.add(x, y), dtypes.F64)
        elif i == 2:      # nested divergence in both arms
            with b.if_(b.lt(x, thr)) as br:
                with b.if_(b.lt(y, thr)):
                    b.store_elem(out, t, b.mul(x, y), dtypes.F64)
            with b.orelse(br):
                b.store_elem(out, t, b.sub(x, y), dtypes.F64)
        elif i == 3:      # uniform branch nested under a varying one
            with b.if_(b.gt(n, 100)) as br:
                b.store_elem(out, t, b.add(x, 1.0), dtypes.F64)
            with b.orelse(br):
                b.store_elem(out, t, y, dtypes.F64)
        elif i == 4:      # thread-dependent trip count
            v = b.named("v", dtypes.F64)
            b.mov(v, x)
            idx = b.named("idx", dtypes.I64)
            b.mov(idx, b.rem(t, 4))
            with b.while_() as loop:
                with loop.cond():
                    loop.set_cond(b.gt(idx, 0))
                b.mov(v, b.add(b.mul(v, 0.5), y))
                b.mov(idx, b.sub(idx, 1))
            b.store_elem(out, t, v, dtypes.F64)
        else:             # uniform counted loop (fma chain)
            v = b.named("v", dtypes.F64)
            b.mov(v, x)
            with b.for_range(0, 6):
                b.mov(v, b.add(b.mul(v, y), x))
            b.store_elem(out, t, v, dtypes.F64)
    return b


def _shared(i: int, gen: np.random.Generator) -> IRBuilder:
    """Shared-memory staging with barriers (full-width launches only)."""
    b = IRBuilder(f"fz_sh{i}")
    n, a, bb, out = _sig(b)
    sh = b.shared_alloc(dtypes.F64, BLOCK)
    t = b.global_id()
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    x = b.load_elem(a, t, dtypes.F64)
    b.store_elem(sh, tid, x, dtypes.F64, space="shared")
    b.barrier()
    if i == 0:            # reversed neighbour
        rev = b.sub(BLOCK - 1, tid)
        v = b.load_elem(sh, rev, dtypes.F64, space="shared")
    elif i == 1:          # rotated neighbour
        rot = b.rem(b.add(tid, 1), BLOCK)
        v = b.load_elem(sh, rot, dtypes.F64, space="shared")
    elif i == 2:          # strided neighbour pair
        s1 = b.rem(b.add(tid, 7), BLOCK)
        v = b.add(b.load_elem(sh, s1, dtypes.F64, space="shared"),
                  b.load_elem(sh, tid, dtypes.F64, space="shared"))
    else:                 # two barrier intervals
        rev = b.sub(BLOCK - 1, tid)
        v0 = b.load_elem(sh, rev, dtypes.F64, space="shared")
        b.barrier()
        b.store_elem(sh, tid, b.add(v0, 1.0), dtypes.F64, space="shared")
        b.barrier()
        v = b.load_elem(sh, tid, dtypes.F64, space="shared")
    b.store_elem(out, t, v, dtypes.F64)
    return b


def _atomic(i: int, gen: np.random.Generator) -> IRBuilder:
    """Atomics into the output region."""
    b = IRBuilder(f"fz_at{i}")
    n, a, bb, out = _sig(b)
    t = b.global_id()
    with b.if_(b.lt(t, n)):
        if i == 0:        # contended integer histogram
            slot = b.rem(t, 16)
            b.atomic("add", b.elem_addr(out, slot, dtypes.I64), 1,
                     dtype=dtypes.I64)
        elif i == 1:      # single float accumulator
            x = b.load_elem(a, t, dtypes.F64)
            b.atomic("add", b.elem_addr(out, 0, dtypes.F64), x)
        else:             # atomic max with captured old value
            x = b.load_elem(a, t, dtypes.F64)
            old = b.atomic("max", b.elem_addr(out, 0, dtypes.F64), x,
                           want_old=True)
            b.store_elem(out, b.add(b.rem(t, 8), 1), old, dtypes.F64)
    return b


def _bailing(i: int, gen: np.random.Generator) -> tuple[IRBuilder, str]:
    """Kernels the trace compiler must refuse, with the refusal reason."""
    b = IRBuilder(f"fz_bail{i}")
    n, a, bb, out = _sig(b)
    t = b.global_id()
    with b.if_(b.lt(t, n)):
        x = b.load_elem(a, t, dtypes.F64)
        if i == 0:        # cross-lane shuffle
            v = b.shuffle("down", x, 1)
            b.store_elem(out, t, v, dtypes.F64)
            return b, "shuffle"
        if i == 1:        # lane-retiring Exit
            with b.if_(b.lt(x, 0.5)):
                b.exit()
            b.store_elem(out, t, x, dtypes.F64)
            return b, "exit"
        # first-lane-wins CAS schedule
        b.atomic("cas", b.elem_addr(out, 0, dtypes.F64), x, compare=0.0)
        return b, "atomic_cas"


def _build() -> list[FuzzCase]:
    cases: list[FuzzCase] = []
    for i in range(8):
        gen = np.random.default_rng(7000 + i)
        n = int(gen.integers(1, 3000))
        cases.append(FuzzCase(f"fz_ew{i}", _elementwise(i, gen).build(), n))
    for i in range(6):
        gen = np.random.default_rng(7100 + i)
        n = int(gen.integers(1, 3000))
        cases.append(FuzzCase(f"fz_div{i}", _divergent(i, gen).build(), n))
    for i in range(4):
        gen = np.random.default_rng(7200 + i)
        # Barriered kernels launch full blocks so the barrier is uniform.
        n = int(gen.integers(1, 8)) * BLOCK
        cases.append(FuzzCase(f"fz_sh{i}", _shared(i, gen).build(), n))
    for i in range(3):
        gen = np.random.default_rng(7300 + i)
        n = int(gen.integers(1, 2000))
        cases.append(FuzzCase(f"fz_at{i}", _atomic(i, gen).build(), n))
    for i in range(3):
        gen = np.random.default_rng(7400 + i)
        n = int(gen.integers(1, 2000))
        builder, reason = _bailing(i, gen)
        cases.append(FuzzCase(f"fz_bail{i}", builder.build(), n,
                              expect_bailout=True, bailout_reason=reason))
    return cases


#: The corpus, built once at import; 24 cases, 3 of which must bail out.
FUZZ_CORPUS: list[FuzzCase] = _build()

TRACEABLE_CASES = [c for c in FUZZ_CORPUS if not c.expect_bailout]
BAILING_CASES = [c for c in FUZZ_CORPUS if c.expect_bailout]


# -- induction loops: the prefix-form rule table -----------------------------

#: case -> whether the grid-stride loop of :func:`induction_kernel` runs
#: on a live lane prefix (the induction rule holds) or keeps the general
#: live-mask form.
INDUCTION_RULES = {"library": True, "le": True, "read_after": False,
                   "if_assigned": False, "stride_assigned": False,
                   "lane_stride": False, "gt": False}


def induction_kernel(case: str):
    """``acc += a[i]`` over a grid-stride loop, ``out[gid] = acc``, with
    the loop shaped as ``case`` says (see :data:`INDUCTION_RULES`):
    ``i < n`` (the library form), ``i <= n - 1``, ``i`` read after the
    loop, ``i`` also assigned in an ``If``, the stride assigned in the
    loop, a per-lane stride ``lid(0) + 1``, or a count-down ``i > -1``.
    Launch as ``(n, a, out)`` with ``out`` one element per thread."""
    b = IRBuilder(f"induction_{case}")
    n = b.param("n", dtypes.I64)
    a = b.param("a", dtypes.F64, pointer=True)
    out = b.param("out", dtypes.F64, pointer=True)
    t = b.global_id()
    i = b.named("i", dtypes.I64)
    b.mov(i, t)
    stride = b.named("stride", dtypes.I64)
    if case == "lane_stride":
        b.mov(stride, b.add(b.cvt(b.special("tid.x"), dtypes.I64), 1))
    elif case == "gt":
        b.mov(stride, b.sub(0, b.global_size()))
    else:
        b.mov(stride, b.global_size())
    bound = b.named("bound", dtypes.I64)
    b.mov(bound, b.sub(n, 1) if case == "le" else n)
    acc = b.named("acc", dtypes.F64)
    b.mov(acc, 0.0)
    with b.while_() as loop:
        with loop.cond():
            if case == "le":
                loop.set_cond(b.le(i, bound))
            elif case == "gt":
                loop.set_cond(b.gt(i, -1))
            else:
                loop.set_cond(b.lt(i, bound))
        x = b.load_elem(a, i, dtypes.F64)
        b.mov(acc, b.add(acc, x))
        if case == "if_assigned":
            with b.if_(b.lt(x, 0.25)):
                b.mov(i, b.add(i, 1))
        elif case == "stride_assigned":
            b.mov(stride, b.add(stride, 0))
        b.mov(i, b.add(i, stride))
    if case == "read_after":
        b.mov(acc, b.add(acc, b.cvt(i, dtypes.F64)))
    b.store_elem(out, t, acc, dtypes.F64)
    return b.build()
