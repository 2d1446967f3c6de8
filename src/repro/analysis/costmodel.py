"""Static cost model: abstract interpretation of kernel IR.

The dynamic interpreter (:mod:`repro.isa.interpreter`) meters work —
instructions, flops, bytes, atomics, barriers — as a side effect of
executing kernels on simulated memory.  This pass derives the *same*
:class:`~repro.isa.interpreter.LaunchStats` without executing anything:
it walks the IR with one NumPy lane per thread, tracking every value on
a two-level lattice

* **concrete** — per-lane arrays for everything derived from thread
  geometry, parameters, and immediates (loop counters, guards, shared
  base offsets); and
* **UNKNOWN** — a single top element for anything data-dependent
  (every ``Load`` result, every atomic return value).

Metering never depends on *values*, only on lane masks, so as long as
control flow stays on the concrete slice the derived counters are
exactly those the interpreter would record (``test_costmodel`` asserts
bit-equality against metered runs).  When control flow does touch
UNKNOWN the walk degrades conservatively instead of guessing:

* an ``If`` on an UNKNOWN predicate charges **both** arms under the
  incoming mask (an upper bound);
* a ``While`` whose condition goes UNKNOWN charges the condition block
  once and skips the body (no finite upper bound exists);
* the result is flagged ``exact=False`` with a note per degradation —
  surfaced as ``PS05`` diagnostics by :mod:`repro.analysis.perfstat`.

Memory traffic is additionally split by address space, direction, and
*stride class* (coalesced / uniform / strided / unknown), classified
from the same affine index expressions the race detector derives in
:mod:`repro.analysis.dataflow` — an access whose address is not affine
in thread ids degrades to "unknown stride" rather than being
misreported as coalesced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dataflow import Access, LaunchBounds, analyze_dataflow
from repro.analysis.symbolic import THREAD_ATOMS
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
from repro.isa import interpreter
from repro.isa.interpreter import LaunchStats
from repro.isa.module import KernelIR

#: Stride classes, most to least desirable.
STRIDE_CLASSES = ("coalesced", "uniform", "strided", "unknown")

#: Refuse launches wider than this many lanes — the cost model is the
#: "instant answer" path and must stay bounded.
MAX_STATIC_LANES = 1 << 21

#: Give up on loops after this many body trips (marked inexact) — far
#: above anything the library kernels do under canonical launches.
MAX_STATIC_TRIPS = 1 << 17


class _Unknown:
    """Lattice top: a value the static walk cannot determine."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNKNOWN"


UNKNOWN = _Unknown()


@dataclass
class KernelCost:
    """Statically derived cost of one kernel launch.

    ``stats`` carries the interpreter-compatible counters (bit-equal to
    a metered run when ``exact``); ``traffic`` refines the byte counts
    by ``(space, direction, stride class)``.
    """

    kernel: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    warp_size: int
    stats: LaunchStats
    traffic: dict[tuple[str, str, str], int] = field(default_factory=dict)
    shared_bytes: int = 0
    exact: bool = True
    notes: tuple[str, ...] = ()

    def traffic_by_class(self) -> dict[str, int]:
        """Bytes per stride class, summed over spaces and directions."""
        out = {klass: 0 for klass in STRIDE_CLASSES}
        for (_space, _kind, klass), nbytes in self.traffic.items():
            out[klass] += nbytes
        return out

    def coalesced_fraction(self) -> float:
        """Fraction of global traffic with provably unit-stride access."""
        glob = {k: v for k, v in self.traffic.items() if k[0] == MemSpace.GLOBAL}
        total = sum(glob.values())
        if total == 0:
            return 1.0
        good = sum(v for k, v in glob.items() if k[2] in ("coalesced", "uniform"))
        return good / total

    def to_dict(self) -> dict:
        s = self.stats
        return {
            "kernel": self.kernel,
            "grid": list(self.grid),
            "block": list(self.block),
            "warp_size": self.warp_size,
            "threads": s.threads,
            "instructions": s.instructions,
            "flops": s.flops,
            "bytes_loaded": s.bytes_loaded,
            "bytes_stored": s.bytes_stored,
            "atomic_ops": s.atomic_ops,
            "barriers": s.barriers,
            "batches": s.batches,
            "shared_bytes": self.shared_bytes,
            "traffic": {"/".join(k): v
                        for k, v in sorted(self.traffic.items())},
            "exact": self.exact,
            "notes": list(self.notes),
        }


def classify_stride(access: Access, facts) -> str:
    """Stride class of one access from its affine byte-address.

    Conservative by construction: any non-affine or data-dependent
    component (the index went through a multiply of two variables, a
    division, a load...) classifies as "unknown" — never as coalesced.
    """
    expr = access.addr
    if expr is None:
        return "unknown"
    variant = facts.variant_atoms_of(expr)
    if any(a not in THREAD_ATOMS for a in variant):
        return "unknown"  # loop-carried or data-dependent address
    if not variant:
        return "uniform"
    tx = expr.coeff("sr:tid.x")
    rest = (expr.coeff("sr:tid.y"), expr.coeff("sr:tid.z"),
            expr.coeff("sr:laneid"))
    if tx == access.dtype.itemsize and not any(rest):
        return "coalesced"
    return "strided"


def _stride_map(kernel: KernelIR, bounds: LaunchBounds) -> dict[int, str]:
    """``id(instruction) -> stride class`` via the dataflow walk."""
    try:
        facts = analyze_dataflow(kernel, bounds)
    except Exception:  # non-analyzable kernel: everything unknown
        return {}
    return {id(a.instr): classify_stride(a, facts)
            for a in facts.accesses if a.instr is not None}


def _predicted_batches(kernel: KernelIR, n_blocks: int,
                       block_threads: int) -> int:
    """The interpreter's batch count (the one counter that depends on
    batch geometry), from its own batch policy."""
    width = interpreter.blocks_per_batch(
        block_threads, interpreter.shared_layout(kernel)[1])
    return -(-n_blocks // width)


class _CostWalker:
    """One abstract-interpretation pass over a kernel launch."""

    def __init__(self, kernel: KernelIR, grid: tuple[int, int, int],
                 block: tuple[int, int, int], warp_size: int,
                 args: dict[str, object], stride_map: dict[int, str]):
        self.kernel = kernel
        self.grid = grid
        self.block = block
        self.warp_size = warp_size
        self.stride_map = stride_map
        self.block_threads = block[0] * block[1] * block[2]
        self.n_blocks = grid[0] * grid[1] * grid[2]
        self.lanes = self.block_threads * self.n_blocks
        if self.lanes > MAX_STATIC_LANES:
            raise ValueError(
                f"static cost launch of {self.lanes} lanes exceeds "
                f"{MAX_STATIC_LANES}")
        self.stats = LaunchStats(threads=self.lanes)
        self.traffic: dict[tuple[str, str, str], int] = {}
        self.exact = True
        self.notes: list[str] = []
        self.exited = np.zeros(self.lanes, dtype=bool)
        #: Bumped on every Exit; lets mask/count caches know when the
        #: set of live lanes last changed without re-reducing per step.
        self._exit_gen = 0
        self.env: dict[str, object] = {}
        self._shared_cursor = 0
        self._trips = 0
        self._specials: dict[str, np.ndarray] = {}
        self._geom: tuple | None = None
        for param in self.kernel.params:
            dt = dtypes.U64 if param.is_pointer else param.dtype
            value = args.get(param.name, UNKNOWN)
            if value is UNKNOWN or param.is_pointer:
                # Pointer *values* never matter to cost (no memory is
                # touched); keep them concrete zeros so address math
                # stays cheap, unless the caller marked them unknown.
                value = 0 if param.is_pointer else value
            if value is UNKNOWN:
                self.env[param.name] = UNKNOWN
            else:
                # 0-d: uniform values stay scalar until an op mixes
                # them with per-lane geometry (broadcasting is free).
                self.env[param.name] = np.asarray(value,
                                                  dtype=dt.np_dtype)

    # -- geometry (lazy: only what the kernel actually reads) ---------------

    def _geometry(self) -> tuple:
        """The interpreter's lane tables for the whole launch as one
        batch: ``(block_linear, block_row, tid, warp_base, warp_len)``."""
        if self._geom is None:
            self._geom = interpreter._build_geometry(
                self.n_blocks, self.block, self.warp_size)
        return self._geom

    def _special(self, which: str) -> np.ndarray:
        """A special register's value, read as ``_ExecState.special``
        reads it: ``tid.*`` and ``laneid`` from the geometry tables,
        ``ctaid.*`` through ``_LazyCtaid``."""
        value = self._specials.get(which)
        if value is not None:
            return value
        if which.startswith("ntid."):
            value = np.uint32(self.block["xyz".index(which[-1])])
        elif which.startswith("nctaid."):
            value = np.uint32(self.grid["xyz".index(which[-1])])
        elif which == "warpsize":
            value = np.uint32(self.warp_size)
        else:
            block_lin, block_row, tid = self._geometry()[:3]
            if which == "laneid":
                value = (block_lin % self.warp_size).astype(np.uint32)
            elif which.startswith("tid."):
                value = tid["xyz".index(which[-1])]
            else:
                value = interpreter._LazyCtaid(0, block_row, self.grid)[
                    "xyz".index(which[-1])]
        self._specials[which] = value
        return value

    # -- lattice helpers ----------------------------------------------------

    def _degrade(self, note: str) -> None:
        if self.exact:
            self.exact = False
        if note not in self.notes:
            self.notes.append(note)

    def read(self, op: Operand):
        if isinstance(op, Imm):
            return op.dtype.np_dtype.type(op.value)
        return self.env.get(op.name, UNKNOWN)

    def assign(self, reg: Register, value, eff: np.ndarray,
               n_active: int) -> None:
        old = self.env.get(reg.name)
        if value is UNKNOWN:
            # A partial unknown write poisons the whole register: lanes
            # outside ``eff`` keep concrete values, but tracking a mixed
            # array buys nothing the metering needs.
            self.env[reg.name] = UNKNOWN
            return
        arr = np.asarray(value)
        if arr.dtype != reg.dtype.np_dtype:
            arr = arr.astype(reg.dtype.np_dtype)
        if old is None or old is UNKNOWN or n_active == self.lanes:
            # Stored arrays are never mutated in place (partial writes
            # below always allocate), so sharing one array between
            # registers — or with the cached geometry — is safe and
            # saves a defensive copy per assignment.
            self.env[reg.name] = arr
            return
        merged = (np.full(self.lanes, old) if np.ndim(old) == 0
                  else old.copy())
        merged[eff] = arr if arr.ndim == 0 else arr[eff]
        self.env[reg.name] = merged

    # -- traffic ------------------------------------------------------------

    def _charge(self, instr, kind: str, space: str, nbytes: int) -> None:
        klass = self.stride_map.get(id(instr), "unknown")
        key = (space, kind, klass)
        self.traffic[key] = self.traffic.get(key, 0) + nbytes

    # -- the walk -----------------------------------------------------------

    def run(self) -> None:
        mask = np.ones(self.lanes, dtype=bool)
        with np.errstate(all="ignore"):
            self.exec_body(self.kernel.body, mask)

    def exec_body(self, body, mask: np.ndarray) -> None:
        # The effective mask only changes when a lane exits; cache it
        # (and its popcount) against the exit generation instead of
        # re-reducing the full lane set on every instruction.
        gen = -1
        eff = mask
        n_active = 0
        for instr in body:
            if gen != self._exit_gen:
                gen = self._exit_gen
                eff = mask & ~self.exited if gen else mask
                n_active = int(eff.sum())
            if not n_active:
                return
            self.step(instr, eff, mask, n_active)

    def step(self, instr, eff: np.ndarray, mask: np.ndarray,
             n_active: int) -> None:
        st = self.stats
        st.instructions += n_active

        if isinstance(instr, Mov):
            self.assign(instr.dst, self.read(instr.src), eff, n_active)

        elif isinstance(instr, BinOp):
            a, b = self.read(instr.a), self.read(instr.b)
            if a is UNKNOWN or b is UNKNOWN:
                self.assign(instr.dst, UNKNOWN, eff, n_active)
            else:
                self.assign(instr.dst,
                            interpreter.binop(instr.op, a, b,
                                              instr.dst.dtype),
                            eff, n_active)
            if instr.dst.dtype.is_float:
                st.flops += n_active

        elif isinstance(instr, UnaryOp):
            src = self.read(instr.src)
            if src is UNKNOWN:
                self.assign(instr.dst, UNKNOWN, eff, n_active)
            else:
                self.assign(instr.dst, interpreter.UNARY[instr.op](src),
                            eff, n_active)
            if instr.dst.dtype.is_float:
                st.flops += n_active

        elif isinstance(instr, Cmp):
            a, b = self.read(instr.a), self.read(instr.b)
            if a is UNKNOWN or b is UNKNOWN:
                self.assign(instr.dst, UNKNOWN, eff, n_active)
            else:
                self.assign(instr.dst,
                            interpreter.COMPARE[instr.op](a, b),
                            eff, n_active)

        elif isinstance(instr, Select):
            p = self.read(instr.pred)
            a, b = self.read(instr.a), self.read(instr.b)
            if UNKNOWN in (p, a, b):
                self.assign(instr.dst, UNKNOWN, eff, n_active)
            else:
                self.assign(instr.dst, np.where(p, a, b), eff, n_active)

        elif isinstance(instr, Cvt):
            src = self.read(instr.src)
            if src is UNKNOWN:
                self.assign(instr.dst, UNKNOWN, eff, n_active)
            else:
                self.assign(
                    instr.dst,
                    np.asarray(src).astype(instr.dst.dtype.np_dtype), eff,
                    n_active)

        elif isinstance(instr, SpecialRead):
            self.assign(instr.dst, self._special(instr.which), eff,
                        n_active)

        elif isinstance(instr, Load):
            st.bytes_loaded += n_active * instr.dst.dtype.itemsize
            self._charge(instr, "load", instr.space,
                         n_active * instr.dst.dtype.itemsize)
            self.assign(instr.dst, UNKNOWN, eff, n_active)

        elif isinstance(instr, Store):
            nbytes = n_active * instr.src.dtype.itemsize
            st.bytes_stored += nbytes
            self._charge(instr, "store", instr.space, nbytes)

        elif isinstance(instr, SharedAlloc):
            nbytes = instr.dtype.itemsize * instr.count
            align = instr.dtype.itemsize
            self._shared_cursor = -(-self._shared_cursor // align) * align
            base = self._shared_cursor
            self._shared_cursor += nbytes
            self.assign(instr.dst, np.uint64(base), eff, n_active)

        elif isinstance(instr, Barrier):
            act = eff.reshape(self.n_blocks, self.block_threads)
            live = (~self.exited).reshape(self.n_blocks, self.block_threads)
            arrived = act.any(axis=1)
            if (arrived & (act != live).any(axis=1)).any():
                # The interpreter would raise DivergentBarrierError here;
                # kernelsan reports it (DIV01/DIV02) — the cost model
                # just stops pretending its counts are exact.
                self._degrade("barrier reached under a partial lane mask")
            st.barriers += int(arrived.sum())

        elif isinstance(instr, AtomicOp):
            st.atomic_ops += n_active
            if instr.dst is not None:
                self.assign(instr.dst, UNKNOWN, eff, n_active)

        elif isinstance(instr, Shuffle):
            self._shuffle(instr, eff, n_active)

        elif isinstance(instr, Exit):
            self.exited |= eff
            self._exit_gen += 1

        elif isinstance(instr, If):
            cond = self.read(instr.cond)
            if cond is UNKNOWN:
                # Upper bound: every masked lane may take either arm.
                self._degrade("branch on a data-dependent condition "
                              "(both arms charged)")
                if (mask & ~self.exited).any():
                    self.exec_body(instr.then_body, mask)
                if instr.else_body and (mask & ~self.exited).any():
                    self.exec_body(instr.else_body, mask)
                return
            if np.ndim(cond) == 0:
                # Uniform predicate: one arm under the unchanged mask,
                # no per-lane mask arithmetic needed.
                if bool(cond):
                    self.exec_body(instr.then_body, mask)
                elif instr.else_body:
                    self.exec_body(instr.else_body, mask)
                return
            then_mask = mask & cond
            self.exec_body(instr.then_body, then_mask)
            if instr.else_body:
                self.exec_body(instr.else_body, mask & ~cond)

        elif isinstance(instr, While):
            # exec_body masks out exited lanes itself, so the loop only
            # re-intersects ``live`` with the survivors when a lane has
            # actually exited since the last check (the exit generation
            # moved) — a uniform trip count costs no mask arithmetic.
            live = mask
            gen = self._exit_gen
            if gen:
                live = live & ~self.exited
            alive = bool(live.any())
            while True:
                if gen != self._exit_gen:
                    gen = self._exit_gen
                    live = live & ~self.exited
                    alive = bool(live.any())
                if not alive:
                    break
                self.exec_body(instr.cond_body, live)
                cond = self.read(instr.cond)
                if cond is UNKNOWN:
                    # No finite upper bound exists for a data-dependent
                    # trip count; charge the condition block (already
                    # done) and leave the body uncosted.
                    self._degrade("loop with a data-dependent trip count "
                                  "(body not charged)")
                    break
                if np.ndim(cond) != 0:
                    live = live & cond
                    if gen != self._exit_gen:
                        gen = self._exit_gen
                        live = live & ~self.exited
                    alive = bool(live.any())
                elif not bool(cond):
                    break
                if not alive:
                    break
                self.exec_body(instr.body, live)
                self._trips += 1
                if self._trips > MAX_STATIC_TRIPS:
                    self._degrade(
                        f"loop exceeded the static trip budget "
                        f"({MAX_STATIC_TRIPS}); remaining trips not charged")
                    break
        else:  # pragma: no cover - verifier prevents unknown instructions
            raise TypeError(f"unknown instruction {instr!r}")

    def _shuffle(self, instr: Shuffle, eff: np.ndarray,
                 n_active: int) -> None:
        src = self.read(instr.src)
        lane = self.read(instr.lane)
        if src is UNKNOWN or lane is UNKNOWN:
            self.assign(instr.dst, UNKNOWN, eff, n_active)
            return
        if np.ndim(src) == 0:
            src = np.full(self.lanes, src)
        source = interpreter.shuffle_source_lanes(
            instr.mode, lane, *self._geometry()[3:], self.warp_size)
        self.assign(instr.dst, src[source], eff, n_active)


def cost_kernel(kernel: KernelIR, grid, block, args: dict[str, object],
                warp_size: int = 32) -> KernelCost:
    """Statically derive the launch cost of ``kernel``.

    Args:
        kernel: The IR *as executed* — i.e. from a compiled
            ``TargetModule``, so the optimizer's effect on instruction
            counts is included.
        grid, block: Launch geometry (1-3 ints each, padded like a real
            launch).
        args: Scalar parameter values by name.  Missing scalars become
            UNKNOWN (degrading any control flow that reads them);
            pointer parameters never need values.
        warp_size: Execution width (affects laneid/warpsize kernels).
    """
    grid = tuple(int(g) for g in grid) + (1,) * (3 - len(grid))
    block = tuple(int(b) for b in block) + (1,) * (3 - len(block))
    bounds = LaunchBounds.of(block=block, grid=grid)
    walker = _CostWalker(kernel, grid, block, warp_size, args,
                         _stride_map(kernel, bounds))
    walker.run()
    walker.stats.batches = _predicted_batches(
        kernel, walker.n_blocks, walker.block_threads)
    return KernelCost(
        kernel=kernel.name,
        grid=grid,
        block=block,
        warp_size=warp_size,
        stats=walker.stats,
        traffic=walker.traffic,
        shared_bytes=kernel.shared_bytes,
        exact=walker.exact,
        notes=tuple(walker.notes),
    )
