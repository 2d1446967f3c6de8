"""Trace compiler: fuse one interpreter batch into a generated NumPy program.

The batched interpreter (PR 2) executes one IR instruction at a time,
re-deciding masks, operand shapes, and memory-path legality on every
``step()``.  For the hot kernels that cost is now dominated by Python
dispatch, not NumPy work.  This module records the per-batch instruction
sequence **once** per ``(kernel fingerprint, warp size, grid, block,
blocks_per_batch)`` and compiles it into a single generated-and-``exec``'d
Python function over the executor's lane arrays — the same content-keyed
caching idiom as the toolchain compile cache.

The one invariant that matters
------------------------------
**The traced path must be bit-identical to the interpreted path, or it
doesn't run.**  Every emitted operation is the *same NumPy call on the
same dtypes* the interpreter would have made, including:

* full-width arithmetic — inactive lanes compute the same garbage from
  the same garbage, so register files match exactly;
* ``assign`` merge semantics (replace on first/full assignment, masked
  in-place merge otherwise), replicated by the ``_rt_assign`` helper;
* memory faults, divergent-barrier errors, and runaway-loop errors with
  the interpreter's exact messages, raised at the same program point;
* work counters (instructions/flops/bytes/atomics/barriers) accumulated
  with exact per-instruction active-lane counts.

Fast paths (contiguous global slices, per-block shared-row slices,
prefix masks) are taken only behind compile-time *and* runtime guards
that prove the result equals the generic path; otherwise the generated
code falls through to helpers that mirror the interpreter line by line.

Bailout taxonomy
----------------
Compilation refuses (and the launch transparently falls back to the
batched interpreter) with one of these cached reasons:

* ``shuffle`` — cross-lane shuffles (warp tables + clamping stay in the
  interpreter);
* ``atomic_cas`` — first-lane-wins CAS scheduling;
* ``exit`` — ``Exit`` retires lanes via a batch-wide mask the trace does
  not model;
* ``too_large`` — instruction count above ``_MAX_TRACE_INSTRS``;
* ``unsupported`` — anything else the compiler cannot prove exact
  (non-top-level ``SharedAlloc``, reads of not-definitely-defined
  registers, unknown ops).

Bailouts are cached like programs, so a kernel pays the analysis once.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import DivergentBarrierError, IRError, MemoryFaultError
from repro.gpu.memory import DeviceMemory
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

#: Bump when generated-code semantics change; part of every trace key.
TRACE_SCHEMA = 1

#: Kernels above this instruction count bail out (``too_large``).
_MAX_TRACE_INSTRS = 512

#: Compiled programs (and cached bailouts) kept process-wide, FIFO.
_MAX_PROGRAMS = 256

#: The bailout-reason taxonomy (see module docstring).
BAILOUT_REASONS = ("shuffle", "atomic_cas", "exit", "too_large", "unsupported")

_ENV_VAR = "REPRO_TRACE_MODE"

_MAX_LOOP_TRIPS = 10_000_000  # keep in sync with interpreter._MAX_LOOP_TRIPS


class TraceBailout(Exception):
    """Raised by the compiler when a kernel cannot be traced exactly."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


@dataclass
class TracedProgram:
    """One compiled trace: the generated source and its callable.

    ``fn(executor, batch, args, stats)`` executes one batch and folds the
    batch's work counters into ``stats`` — a drop-in replacement for
    ``KernelExecutor._run_batch``.
    """

    key: str
    kernel_name: str
    source: str
    fn: object
    #: tracesan verdict cached alongside the program (filled lazily when
    #: a caller passes ``validate=True`` to :func:`lookup`).
    verdict: object = None


#: key -> TracedProgram, or a bailout-reason string for cached refusals.
_CACHE: dict[str, object] = {}
_CACHE_LOCK = threading.Lock()

_default_mode: bool | None = None


def default_trace_mode() -> bool:
    """Process default for ``trace_mode=None`` executors.

    ``set_default_trace_mode()`` wins; otherwise the ``REPRO_TRACE_MODE``
    environment variable (``off``/``0``/``false``/``no`` disable), and
    tracing is on by default.
    """
    if _default_mode is not None:
        return _default_mode
    import os

    raw = os.environ.get(_ENV_VAR, "on").strip().lower()
    return raw not in ("off", "0", "false", "no")


def set_default_trace_mode(mode: bool | None) -> None:
    """Override (or, with ``None``, restore) the process trace default."""
    global _default_mode
    _default_mode = None if mode is None else bool(mode)


def clear_trace_cache() -> None:
    """Drop all compiled programs and cached bailouts, and the
    interpreter's shared launch-geometry tables (a cold start)."""
    from repro.isa.interpreter import _clear_geometry

    with _CACHE_LOCK:
        _CACHE.clear()
    _clear_geometry()


def trace_cache_size() -> int:
    with _CACHE_LOCK:
        return len(_CACHE)


def kernel_fingerprint(kernel: KernelIR) -> str:
    """Structural content hash of one kernel, compile-cache style:
    the trace schema, then :meth:`KernelIR.content_parts`."""
    h = hashlib.sha256()
    h.update(f"trace-schema={TRACE_SCHEMA}".encode())
    for part in kernel.content_parts():
        h.update(part.encode())
    return h.hexdigest()


def trace_key(kernel: KernelIR, warp_size: int,
              grid: tuple[int, int, int], block: tuple[int, int, int],
              blocks_per_batch: int) -> str:
    """Content-addressed key of one (kernel, geometry, batch width)."""
    return _shape_key(kernel_fingerprint(kernel), warp_size, grid, block,
                      blocks_per_batch)


def _shape_key(fingerprint: str, warp_size: int,
               grid: tuple[int, int, int], block: tuple[int, int, int],
               blocks_per_batch: int) -> str:
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(f"|warp={warp_size}|grid={grid}|block={block}"
             f"|bpb={blocks_per_batch}".encode())
    return h.hexdigest()


def _count(outcome: str, reason: str | None = None) -> None:
    """Fold one cache outcome into the process-wide interpreter totals."""
    from repro.isa import interpreter as _interp

    with _interp._TOTALS_LOCK:
        tr = _interp._TOTALS.trace
        if outcome == "hit":
            tr.hits += 1
        elif outcome == "miss":
            tr.misses += 1
        else:
            tr.bailouts += 1
            tr.reasons[reason] = tr.reasons.get(reason, 0) + 1


def lookup(executor, grid: tuple[int, int, int], block: tuple[int, int, int],
           blocks_per_batch: int, *,
           validate: bool = False) -> TracedProgram | None:
    """The traced program for one launch shape, compiling on first use.

    Returns ``None`` (after recording the bailout) when the kernel can't
    be traced; the caller falls back to the batched interpreter.  Cache
    outcomes (hit/miss/bailout + reason) flow into
    ``interpreter_totals().trace``.  The kernel's fingerprint is hashed
    on the executor's first lookup and kept on the executor.

    ``validate=True`` additionally runs the tracesan translation
    validator (:func:`repro.analysis.tracesan.validate_program`) over the
    generated source and caches the :class:`TraceVerdict` on the
    program's ``verdict`` field — once per cached program, purely static,
    never executing the kernel.
    """
    fingerprint = executor.trace_fingerprint
    if fingerprint is None:
        fingerprint = kernel_fingerprint(executor.kernel)
        executor.trace_fingerprint = fingerprint
    key = _shape_key(fingerprint, executor.warp_size, grid, block,
                     blocks_per_batch)
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
    if entry is None:
        try:
            compiler = _TraceCompiler(executor.kernel, executor.warp_size,
                                      grid, block, blocks_per_batch)
            source = compiler.compile()
            fn = _exec_program(source, executor.kernel.name, key)
            entry = TracedProgram(key=key, kernel_name=executor.kernel.name,
                                  source=source, fn=fn)
            outcome = "miss"
        except TraceBailout as exc:
            entry = exc.reason
            outcome = "bailout"
        except Exception:  # defensive: an untraceable corner is a bailout
            entry = "unsupported"
            outcome = "bailout"
        with _CACHE_LOCK:
            if len(_CACHE) >= _MAX_PROGRAMS:
                _CACHE.pop(next(iter(_CACHE)))
            entry = _CACHE.setdefault(key, entry)
    else:
        outcome = "hit" if isinstance(entry, TracedProgram) else "bailout"
    if isinstance(entry, TracedProgram):
        if validate and entry.verdict is None:
            from repro.analysis import tracesan as _tracesan

            entry.verdict = _tracesan.validate_program(
                executor.kernel, entry.source, executor.warp_size,
                grid, block, blocks_per_batch, key=entry.key)
        _count(outcome)
        return entry
    _count("bailout" if outcome != "bailout" else outcome, entry)
    return None


def cached_bailout_reason(kernel: KernelIR, warp_size: int, grid, block,
                          blocks_per_batch: int) -> str | None:
    """The cached bailout reason for one shape, if any (introspection)."""
    key = trace_key(kernel, warp_size, tuple(grid), tuple(block),
                    blocks_per_batch)
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
    return entry if isinstance(entry, str) else None


# -- runtime helpers injected into generated programs -------------------------
#
# Each replicates the corresponding interpreter code path line by line;
# the generated code calls them only where the interpreter would have
# performed the identical operations.


def _rt_assign(old, values, eff, eff_n: int, lanes: int, npdt, copy: bool):
    """``_ExecState.assign`` with the register's array threaded explicitly.

    ``eff_n == lanes`` stands in for ``eff.all()`` (the caller passes the
    exact active-lane count); ``eff`` may be None in that case.
    """
    arr = np.asarray(values)
    if arr.dtype != npdt:
        arr = arr.astype(npdt)
    if arr.ndim == 0:
        arr = np.full(lanes, arr)
    elif copy:
        arr = arr.copy()
    if old is None or eff_n == lanes:
        return arr
    if old is not arr:
        old[eff] = arr[eff]
    return old


def _rt_resolve(X, B, svs, addr, eff, dt, is_global: bool, write: bool):
    """``_ExecState._resolve`` for a full-array address operand.

    Item sizes are always powers of two, so alignment, bounds, and
    element-index math use bit ops and a scalar ``max`` reduction in
    place of the interpreter's modulo/divide/compare sweeps — same
    verdict and indices, fewer full-width temporaries.
    """
    isz = dt.itemsize
    active = addr if eff is None else addr[eff]
    if isz > 1 and (active & (isz - 1)).any():
        raise MemoryFaultError(
            f"kernel '{X.kernel.name}': misaligned {dt.name} access"
        )
    shift = isz.bit_length() - 1
    idx = (addr >> shift).astype(np.int64) if shift else addr.astype(np.int64)

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
        idx += B.block_row * (X._shared_stride // isz)
    if eff is not None and not eff.all():
        np.copyto(idx, 0, where=~eff)
    return view, idx


def _rt_atomic(view, idx, eff, src, op: str, want_old: bool,
               lanes: int, npdt):
    """``_ExecState._atomic`` minus CAS (CAS bails out of tracing)."""
    from repro.isa.interpreter import _ExecState

    sel = idx if eff is None else idx[eff]
    vals = src if eff is None else src[eff]
    if op == "add":
        old = _ExecState._prefix_old(view, sel, vals) if want_old else None
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
    else:  # pragma: no cover - compiler bails on anything else
        raise IRError(f"unknown atomic '{op}'")
    if not want_old:
        return None
    full_old = np.zeros(lanes, dtype=npdt)
    if eff is None:
        full_old[:] = old
    else:
        full_old[eff] = old
    return full_old


def _rt_barrier(X, B, eff) -> int:
    """``Barrier`` legality under a partial mask (no-Exit traces only)."""
    act = eff.reshape(B.n_blocks, B.block_threads)
    live = np.ones((B.n_blocks, B.block_threads), dtype=bool)
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


def _rt_span_ok(X, lo: int, count: int, itemsize: int) -> bool:
    """True iff the contiguous element run is provably legal AND the
    interpreter's generic checks would accept it unchanged.

    Conservative: ``False`` routes the access to the generic path (which
    replicates the interpreter's checks and exact error messages), never
    the other way around.  The ``2**63`` cap preserves the interpreter's
    int64 bounds arithmetic bug-for-bug.
    """
    if lo < 0 or count <= 0:
        return False
    end = lo + count * itemsize
    if end > 2 ** 63:
        return False
    v = X.validator
    if v is None:
        return end <= X.gmem.size
    if getattr(v, "__func__", None) is DeviceMemory.validate:
        return v.__self__.validate_contig(lo, count, itemsize)
    return False


def _rt_cdiv(a, b):
    from repro.isa.interpreter import _c_int_div

    return _c_int_div(np.asarray(a), np.asarray(b))


def _rt_crem(a, b):
    from repro.isa.interpreter import _c_int_rem

    return _c_int_rem(np.asarray(a), np.asarray(b))


def _exec_namespace() -> dict:
    return {
        "np": np,
        "DT": dict(dtypes.SCALAR_TYPES),
        "_assign": _rt_assign,
        "_resolve": _rt_resolve,
        "_atomic": _rt_atomic,
        "_barrier": _rt_barrier,
        "_span_ok": _rt_span_ok,
        "_cdiv": _rt_cdiv,
        "_crem": _rt_crem,
        "IRError": IRError,
        "MemoryFaultError": MemoryFaultError,
        "DivergentBarrierError": DivergentBarrierError,
    }


def _exec_program(source: str, kernel_name: str, key: str):
    g = _exec_namespace()
    code = compile(source, f"<trace:{kernel_name}:{key[:12]}>", "exec")
    exec(code, g)
    return g["_trace"]


# -- compile-time value model -------------------------------------------------


class _Aff:
    """Affine lane model: ``value = sc*SYM + d0 + dfb*fb + cbl*t + crow*row``
    where ``fb`` is the batch's first block, ``t`` the lane's linear index
    within its block, ``row`` its block's index within the batch, and
    ``SYM`` an optional runtime-uniform Python int bound in the generated
    code.  ``lo``/``hi`` bound the non-SYM part over the full geometric
    ranges (so the model holds for *every* lane, active or not), and
    ``guards`` are runtime int-comparison expressions that must all hold
    for the model (no dtype wraparound) to be exact.
    """

    __slots__ = ("sym", "sc", "d0", "dfb", "cbl", "crow", "lo", "hi",
                 "guards")

    def __init__(self, sym, sc, d0, dfb, cbl, crow, lo, hi, guards=()):
        self.sym = sym
        self.sc = sc
        self.d0 = d0
        self.dfb = dfb
        self.cbl = cbl
        self.crow = crow
        self.lo = lo
        self.hi = hi
        self.guards = tuple(guards)


class _Prefix:
    """Cmp result known to be a prefix mask: lane-prefix (``lin``) of
    ``thr`` lanes, or per-block thread-prefix (``block``) of ``thr``
    threads.  ``thr`` is a Python-int expression (pre-clamp)."""

    __slots__ = ("kind", "thr")

    def __init__(self, kind, thr):
        self.kind = kind
        self.thr = thr


class _Val:
    """What the compiler knows about one operand/register value."""

    __slots__ = ("expr", "dtype", "uniform", "const", "aff", "prefix")

    def __init__(self, expr, dtype, uniform, const=None, aff=None,
                 prefix=None):
        self.expr = expr
        self.dtype = dtype
        self.uniform = uniform
        self.const = const
        self.aff = aff
        self.prefix = prefix


class _Ctx:
    """Active-mask context of the instruction being emitted.

    kind ``full``: all lanes active (statically).  ``lin``: the first
    ``k`` lanes of the batch.  ``block``: the first ``k`` threads of
    every block.  ``gen``: arbitrary mask.  ``n`` is a Python-int
    expression for the exact active-lane count; ``arr`` a bool-array
    expression equal to the mask (None for ``full``).
    """

    __slots__ = ("kind", "n", "arr", "k")

    def __init__(self, kind, n, arr=None, k=None):
        self.kind = kind
        self.n = n
        self.arr = arr
        self.k = k


_CMP_FNS = {"eq": "np.equal", "ne": "np.not_equal", "lt": "np.less",
            "le": "np.less_equal", "gt": "np.greater",
            "ge": "np.greater_equal"}

_UNARY_FNS = {"neg": "np.negative", "abs": "np.abs", "sqrt": "np.sqrt",
              "exp": "np.exp", "log": "np.log", "sin": "np.sin",
              "cos": "np.cos", "tanh": "np.tanh", "floor": "np.floor",
              "ceil": "np.ceil", "round": "np.rint",
              "not": "np.logical_not", "bitnot": "np.bitwise_not"}

#: Unary ops whose result dtype equals the operand dtype.
_UNARY_SAME_DT = ("neg", "abs", "bitnot")


def _np_name(dt: dtypes.DType) -> str:
    name = dt.np_dtype.name
    return "bool_" if name == "bool" else name


def _int_bounds(dt: dtypes.DType) -> tuple[int, int]:
    bits = dt.itemsize * 8
    if dt.np_dtype.kind == "u":
        return 0, (1 << bits) - 1
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


#: Generated-code local names (``r<n>``) — used by the deferral pass to
#: find register references in emitted lines.
_LOCAL_RE = re.compile(r"\br(\d+)\b")


def _dst_of(ins):
    if isinstance(ins, (Mov, UnaryOp, BinOp, Cmp, Select, Cvt, Load,
                        SpecialRead, SharedAlloc)):
        return ins.dst
    if isinstance(ins, AtomicOp):
        return ins.dst
    return None


def _assigned_names(body) -> set:
    out = set()
    for ins in body:
        d = _dst_of(ins)
        if d is not None:
            out.add(d.name)
        if isinstance(ins, If):
            out |= _assigned_names(ins.then_body)
            out |= _assigned_names(ins.else_body)
        elif isinstance(ins, While):
            out |= _assigned_names(ins.cond_body)
            out |= _assigned_names(ins.body)
    return out


class _TraceCompiler:
    """Compiles one kernel × launch geometry into Python source.

    The generated function has the signature
    ``_trace(X, B, args, stats)`` — executor, batch, raw args, and the
    launch's ``LaunchStats`` — and is bit-identical to
    ``KernelExecutor._run_batch`` on the same batch or it raises
    :class:`TraceBailout` at compile time.
    """

    def __init__(self, kernel: KernelIR, warp_size: int, grid, block,
                 blocks_per_batch: int):
        self.k = kernel
        self.warp = int(warp_size)
        self.grid = tuple(grid)
        self.block = tuple(block)
        self.bpb = int(blocks_per_batch)
        self.bt = self.block[0] * self.block[1] * self.block[2]
        self.total_blocks = self.grid[0] * self.grid[1] * self.grid[2]
        self.rows_max = min(self.bpb, self.total_blocks)
        self.dims = {
            "ntid.x": self.block[0], "ntid.y": self.block[1],
            "ntid.z": self.block[2], "nctaid.x": self.grid[0],
            "nctaid.y": self.grid[1], "nctaid.z": self.grid[2],
        }
        self.uses_shared = kernel.uses_shared()
        self.shared_bytes = max(kernel.shared_bytes, 8)
        self.shared_stride = -(-self.shared_bytes // 16) * 16
        self.lines: list[str] = []
        self.ind = 1
        self.tmp_n = 0
        self.depth = 0
        self.shared_cursor = 0
        self.vals: dict[str, _Val] = {}
        self.defined: set[str] = set()
        self.varying: set[str] = set()
        self.merge: set[str] = set()
        self.counts: dict[str, int] = {}
        self.regdt: dict[str, dtypes.DType] = {}
        self.locals_: dict[str, str] = {}
        self.global_dts: set[str] = set()
        self.shared_dts: set[str] = set()
        # Deferral (two-pass): pass 1 logs every emitted line and which
        # were inside a fast-path else branch; pure single-site values
        # referenced only there are emitted lazily in pass 2.
        self.collecting = False
        self.line_log: list[tuple[str, bool, int]] = []
        self.else_depth = 0
        self.site_count: dict[str, int] = {}
        self.pure_sites: dict[str, int] = {}
        self.cand_line: dict[str, int] = {}
        self.cand_span: dict[str, tuple[int, int]] = {}
        self.cand_ops: dict[str, set[str]] = {}
        self.assign_pos: dict[str, list[int]] = {}
        self._cand_start = 0
        self.defer_regs: set[str] = set()
        self.deferred: dict[str, str] = {}
        self.defer_order: dict[str, int] = {}

    # -- small emission utilities -----------------------------------------

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.ind + text)
        if self.collecting:
            self.line_log.append((text, self.else_depth > 0, self.ind))

    def _tmp(self) -> int:
        self.tmp_n += 1
        return self.tmp_n

    def _local(self, name: str) -> str:
        loc = self.locals_.get(name)
        if loc is None:
            loc = f"r{len(self.locals_)}"
            self.locals_[name] = loc
        return loc

    # -- pre-passes --------------------------------------------------------

    def _precheck(self) -> None:
        if self.k.instruction_count() > _MAX_TRACE_INSTRS:
            raise TraceBailout(
                "too_large",
                f"{self.k.instruction_count()} > {_MAX_TRACE_INSTRS}")

        def walk(body, depth):
            for ins in body:
                if isinstance(ins, Shuffle):
                    raise TraceBailout("shuffle", "cross-lane shuffle")
                if isinstance(ins, Exit):
                    raise TraceBailout("exit", "lane-retiring Exit")
                if isinstance(ins, AtomicOp) and ins.op == "cas":
                    raise TraceBailout("atomic_cas",
                                       "first-lane-wins CAS schedule")
                if isinstance(ins, SharedAlloc) and depth > 0:
                    raise TraceBailout(
                        "unsupported", "SharedAlloc below top level")
                if isinstance(ins, If):
                    walk(ins.then_body, depth + 1)
                    walk(ins.else_body, depth + 1)
                elif isinstance(ins, While):
                    walk(ins.cond_body, depth + 1)
                    walk(ins.body, depth + 1)

        walk(self.k.body, 0)

    def _op_uniform(self, op) -> bool:
        if isinstance(op, Imm):
            return True
        return op.name not in self.varying

    def _value_uniform(self, ins) -> bool:
        if isinstance(ins, Mov):
            return self._op_uniform(ins.src)
        if isinstance(ins, UnaryOp) or isinstance(ins, Cvt):
            return self._op_uniform(ins.src)
        if isinstance(ins, (BinOp, Cmp)):
            return self._op_uniform(ins.a) and self._op_uniform(ins.b)
        if isinstance(ins, Select):
            return (self._op_uniform(ins.pred) and self._op_uniform(ins.a)
                    and self._op_uniform(ins.b))
        if isinstance(ins, SpecialRead):
            return ins.which in ("ntid.x", "ntid.y", "ntid.z", "nctaid.x",
                                 "nctaid.y", "nctaid.z", "warpsize")
        if isinstance(ins, SharedAlloc):
            return True
        return False  # Load / AtomicOp old value

    def _analyze(self) -> None:
        counts = self.counts

        def cwalk(body, in_loop):
            for ins in body:
                d = _dst_of(ins)
                if d is not None:
                    counts[d.name] = counts.get(d.name, 0) + (
                        2 if in_loop else 1)
                    self.regdt[d.name] = d.dtype
                if isinstance(ins, If):
                    cwalk(ins.then_body, in_loop)
                    cwalk(ins.else_body, in_loop)
                elif isinstance(ins, While):
                    cwalk(ins.cond_body, True)
                    cwalk(ins.body, True)

        cwalk(self.k.body, False)
        for p in self.k.params:
            counts[p.name] = counts.get(p.name, 0) + 1
            self.regdt[p.name] = dtypes.U64 if p.is_pointer else p.dtype

        nonfull: set[str] = set()
        changed = True
        while changed:
            changed = False
            nonfull = set()

            def uwalk(body, static_full):
                nonlocal changed
                for ins in body:
                    if isinstance(ins, If):
                        cu = self._op_uniform(ins.cond)
                        uwalk(ins.then_body, static_full and cu)
                        uwalk(ins.else_body, static_full and cu)
                        continue
                    if isinstance(ins, While):
                        cu = self._op_uniform(ins.cond)
                        uwalk(ins.cond_body, static_full and cu)
                        uwalk(ins.body, static_full and cu)
                        continue
                    d = _dst_of(ins)
                    if d is None:
                        continue
                    if not static_full:
                        nonfull.add(d.name)
                    ok = self._value_uniform(ins) and (
                        static_full or counts.get(d.name, 0) <= 1)
                    if not ok and d.name not in self.varying:
                        self.varying.add(d.name)
                        changed = True

            uwalk(self.k.body, True)

        self.merge = {name for name in self.varying
                      if counts.get(name, 0) >= 2 and name in nonfull}

        def mwalk(body):
            for ins in body:
                if isinstance(ins, Load):
                    (self.global_dts if ins.space == MemSpace.GLOBAL
                     else self.shared_dts).add(ins.dst.dtype.name)
                elif isinstance(ins, (Store, AtomicOp)):
                    (self.global_dts if ins.space == MemSpace.GLOBAL
                     else self.shared_dts).add(ins.src.dtype.name)
                elif isinstance(ins, If):
                    mwalk(ins.then_body)
                    mwalk(ins.else_body)
                elif isinstance(ins, While):
                    mwalk(ins.cond_body)
                    mwalk(ins.body)

        mwalk(self.k.body)

    # -- top-level orchestration ------------------------------------------

    def compile(self) -> str:
        self._precheck()
        self._analyze()
        # Pass 1: emit normally, logging which lines land inside a
        # fast-path else branch; from the log, find pure single-site
        # values only those branches need.  Pass 2 re-emits with their
        # computation deferred into the (rarely-taken) else branches, so
        # the fast path skips dead work entirely — the counters those
        # instructions owe still accrue at their original position.
        self.collecting = True
        self._emit_all()
        self._compute_deferral()
        self.collecting = False
        self._reset_emission()
        self._emit_all()
        return "\n".join(self.lines) + "\n"

    def _emit_all(self) -> None:
        self.lines.append("def _trace(X, B, args, stats):")
        self._prelude()
        self._emit_body(self.k.body, _Ctx("full", "_L"))
        self._line("stats.instructions += _ic")
        self._line("stats.flops += _fl")
        self._line("stats.bytes_loaded += _bld")
        self._line("stats.bytes_stored += _bst")
        self._line("stats.atomic_ops += _ao")
        self._line("stats.barriers += _ba")

    def _reset_emission(self) -> None:
        self.lines = []
        self.ind = 1
        self.tmp_n = 0
        self.depth = 0
        self.shared_cursor = 0
        self.vals = {}
        self.defined = set()
        self.deferred = {}
        self.defer_order = {}

    def _compute_deferral(self) -> None:
        """Decide which pure single-site values to emit lazily.

        A register qualifies when (a) its value is produced by exactly
        one pure lanewise instruction and nothing else ever assigns it,
        (b) every operand in that line is itself single-site and never
        merge-mutated (so re-evaluating later yields the same value),
        and (c) every other line mentioning it sits inside a fast-path
        else branch or is the assignment of another deferred register.
        """
        loc2reg = {loc: name for name, loc in self.locals_.items()}
        refs: list[set] = []
        inds: list[int] = []
        for text, _, ind in self.line_log:
            names = set()
            if not text.endswith(" = None"):  # merge-reg prelude init
                for m in _LOCAL_RE.findall(text):
                    reg = loc2reg.get(f"r{m}")
                    if reg is not None:
                        names.add(reg)
            refs.append(names)
            inds.append(ind)
        cands = {
            name for name, c in self.pure_sites.items()
            if c == 1 and self.site_count.get(name) == 1
            and name in self.cand_line
        }
        # Kernel params are bound once in the prelude (no _assign site)
        # and never merge-mutated, so they are always safe operands.
        params = {p.name for p in self.k.params}
        ops_of = {n: {loc2reg[l] for l in self.cand_ops.get(n, ())
                      if l in loc2reg} - {n}
                  for n in cands}
        line_owner: dict[int, str] = {}
        for n in cands:
            s, e = self.cand_span[n]
            for li in range(s, e + 1):
                line_owner[li] = n
        apos = self.assign_pos
        # Conservative replay horizon: a deferred chain can be spliced
        # into any else branch up to the last one in the trace, so every
        # non-deferred operand must be stable over that whole window.
        horizon = max((i for i, entry in enumerate(self.line_log)
                       if entry[1]), default=-1)
        defer = set(cands)
        changed = True
        while changed:
            changed = False
            for n in list(defer):
                start, end = self.cand_span[n]
                bad = False
                for li, names in enumerate(refs):
                    if n not in names or start <= li <= end:
                        continue
                    # Dominance: the block that assigned n must still be
                    # open at the referencing line, or replaying n's
                    # assignment there could read locals a skipped
                    # prefix arm never bound — and for merge registers
                    # it also pins the reference mask to a subset of the
                    # assignment's effective mask.
                    if li < end or min(inds[end:li + 1]) < inds[end]:
                        bad = True
                        break
                    owner = line_owner.get(li)
                    if owner is not None and owner != n:
                        if owner in defer:
                            continue  # replayed together, in order
                        bad = True
                        break
                    if not self.line_log[li][1]:
                        bad = True
                        break
                if not bad:
                    # Replay re-evaluates the operands: each must
                    # provably hold the value it held at the original
                    # site for the whole replay window.
                    for op in ops_of[n]:
                        if op in params or op in defer:
                            continue
                        if any(end < p <= horizon
                               for p in apos.get(op, ())):
                            bad = True
                            break
                if bad:
                    defer.discard(n)
                    changed = True
        self.defer_regs = defer

    def _inject_deferred(self, start: int) -> None:
        """Prepend the deferred lines an else branch needs (pass 2)."""
        if not self.deferred:
            return
        needed: set[str] = set()
        queue = self.lines[start:]
        while queue:
            new = set()
            for text in queue:
                for m in _LOCAL_RE.findall(text):
                    loc = f"r{m}"
                    if loc in self.deferred and loc not in needed:
                        new.add(loc)
            needed |= new
            queue = [self.deferred[loc] for loc in new]
        if not needed:
            return
        prefix = "    " * self.ind
        inject = [prefix + self.deferred[loc]
                  for loc in sorted(needed,
                                    key=lambda loc: self.defer_order[loc])]
        self.lines[start:start] = inject

    def _prelude(self) -> None:
        self._line("_L = B.lanes")
        self._line("_nB = B.n_blocks")
        self._line("_fb = int(B.first_block)")
        self._line("_ic = 0; _fl = 0; _bld = 0; _bst = 0; _ao = 0; _ba = 0")
        for dtn in sorted(self.global_dts):
            self._line(f"_gv_{dtn} = X._gview(DT['{dtn}'])")
        if self.shared_dts:
            self._line("_sh = X._shared_arena(_nB)")
            for dtn in sorted(self.shared_dts):
                dt = dtypes.SCALAR_TYPES[dtn]
                rowe = self.shared_stride // dt.itemsize
                self._line(f"_sv_{dtn} = _sh.reshape(-1)"
                           f".view(np.{_np_name(dt)})")
                self._line(f"_s2_{dtn} = _sv_{dtn}.reshape(_nB, {rowe})")
            pairs = ", ".join(f"'{d}': _sv_{d}"
                              for d in sorted(self.shared_dts))
            self._line(f"_svs = {{{pairs}}}")
        for i, p in enumerate(self.k.params):
            dt = dtypes.U64 if p.is_pointer else p.dtype
            npn = _np_name(dt)
            loc = self._local(p.name)
            if p.name in self.varying:
                self._line(f"{loc} = np.full(_L, args[{i}], dtype=np.{npn})")
                self.vals[p.name] = _Val(loc, dt, False)
            else:
                # np.full's cast semantics, as a scalar (0-d extract):
                # uniform registers stay scalars until an assignment
                # needs lane width.
                self._line(f"{loc} = np.full((), args[{i}], "
                           f"dtype=np.{npn})[()]")
                self.vals[p.name] = _Val(loc, dt, True)
            self.defined.add(p.name)
            self.regdt[p.name] = dt
        # Merge registers start life as the interpreter's missing-env
        # entry (first assignment replaces wholesale, even under a mask).
        for name in sorted(self.merge):
            if name not in self.defined:
                self._line(f"{self._local(name)} = None")

    # -- value access ------------------------------------------------------

    def _read(self, op) -> _Val:
        if isinstance(op, Imm):
            dt = op.dtype
            const = op.value if dt.is_integer else None
            return _Val(f"np.{_np_name(dt)}({op.value!r})", dt, True,
                        const=const)
        if op.name not in self.defined:
            raise TraceBailout(
                "unsupported",
                f"read of possibly-undefined register '{op.name}'")
        return self.vals[op.name]

    def _cast(self, expr: str, src_dt, dst_dt) -> tuple[str, bool]:
        """The interpreter's asarray/astype-if-differs, as an expression.

        Unknown source dtype casts unconditionally: ``astype`` to the
        same dtype copies but never changes values, so this is exact.
        """
        if src_dt is not None and src_dt.np_dtype == dst_dt.np_dtype:
            return expr, False
        return (f"np.asarray({expr}).astype(np.{_np_name(dst_dt)})", True)

    def _slab_val(self, v: _Val, ctx: _Ctx) -> _Val:
        """Operand view covering exactly the prefix lanes of ``ctx``.

        Value instructions are lanewise, so computing them over the
        prefix sub-slab yields bit-identical values for every active
        lane; inactive lanes of a merge register keep their old values
        in both paths.
        """
        if v.uniform:
            return v
        if ctx.kind == "lin":
            e = f"{v.expr}[:{ctx.k}]"
        else:
            e = f"{v.expr}.reshape(_nB, {self.bt})[:, :{ctx.k}]"
        return _Val(e, v.dtype, False)

    def _wants_slab(self, dst: Register, ctx: _Ctx) -> bool:
        """Merge-register updates in a prefix arm can write a sub-slab
        slice instead of computing full width and fancy-indexing."""
        return (ctx.kind in ("lin", "block") and dst.name in self.merge
                and dst.name in self.varying)

    def _assign(self, dst: Register, val: _Val, ctx: _Ctx,
                copy: bool = False, aff=None, prefix=None,
                slab: str | None = None, pure: bool = False) -> None:
        """Emit ``_ExecState.assign`` for one computed value."""
        name, dt = dst.name, dst.dtype
        loc = self._local(name)
        if self.collecting:
            self.site_count[name] = self.site_count.get(name, 0) + 1
            self.assign_pos.setdefault(name, []).append(len(self.line_log))
            if pure and name in self.varying:
                self.pure_sites[name] = self.pure_sites.get(name, 0) + 1
                self._cand_start = len(self.line_log)
        expr, fresh = self._cast(val.expr, val.dtype, dt)
        if slab is not None:
            slab, _ = self._cast(slab, val.dtype, dt)
        const = val.const
        if const is not None:
            lo, hi = (_int_bounds(dt) if dt.is_integer else (0, -1))
            if not (dt.is_integer and lo <= const <= hi):
                const = None
        if fresh:
            aff = prefix = None  # meta was computed for the pre-cast dtype
            if val.dtype is not None:
                const = None
        if name not in self.varying:
            # Uniform register: a scalar local; every assignment site is
            # statically full or the single site, so a rebind is the
            # interpreter's whole-array replace.
            self._line(f"{loc} = {expr}")
        elif val.uniform:
            # Scalar value into a varying register: materialize np.full
            # exactly where the interpreter does (assign's ndim-0 path).
            self._varying_store(name, loc, f"np.full(_L, {expr})", ctx,
                                fresh=True, slab=expr)
        else:
            if copy and not fresh:
                expr = f"({expr}).copy()"
                fresh = True
            self._varying_store(name, loc, expr, ctx, fresh=fresh,
                                slab=slab)
        if self.collecting and pure and name in self.varying:
            self.cand_line[name] = len(self.line_log) - 1
            self.cand_span[name] = (self._cand_start,
                                    len(self.line_log) - 1)
            self.cand_ops[name] = {f"r{m}"
                                   for m in _LOCAL_RE.findall(expr)}
        self.vals[name] = _Val(loc, dt, name not in self.varying,
                               const=const, aff=aff, prefix=prefix)
        self.defined.add(name)

    def _varying_store(self, name: str, loc: str, expr: str, ctx: _Ctx,
                       fresh: bool, slab: str | None = None) -> None:
        if name in self.defer_regs:
            # Deferred: replayed as a plain full-width rebuild inside
            # the else branches that consume it (for merge registers
            # the replay matches the interpreter on every lane the
            # consumer's mask can select — dominance pins that mask to
            # a subset of this site's effective mask).
            self.deferred[loc] = f"{loc} = {expr}"
            self.defer_order[loc] = len(self.defer_order)
            return
        if name not in self.merge or ctx.kind == "full":
            self._line(f"{loc} = {expr}")
            return
        # Merge register at a masked site: first (runtime) assignment
        # stores the full computed array (interpreter assign with no
        # prior env entry); later ones update only the active lanes.
        if slab is not None and ctx.kind in ("lin", "block"):
            tgt = (f"{loc}[:{ctx.k}]" if ctx.kind == "lin"
                   else f"{loc}.reshape(_nB, {self.bt})[:, :{ctx.k}]")
            self._line(f"if {loc} is None:")
            self._line(f"    {loc} = {expr}")
            self._line("else:")
            self._line(f"    {tgt} = {slab}")
            return
        t = self._tmp()
        self._line(f"_t{t} = {expr}")
        self._line(f"if {loc} is None:")
        self._line(f"    {loc} = _t{t}")
        self._line("else:")
        self._line(f"    np.copyto({loc}, _t{t}, where={ctx.arr})")

    # -- instruction emission ---------------------------------------------

    def _emit_body(self, body, ctx: _Ctx) -> None:
        before = len(self.lines)
        for ins in body:
            self._emit(ins, ctx)
        if len(self.lines) == before:
            self._line("pass")

    def _emit(self, ins, ctx: _Ctx) -> None:
        self._line(f"_ic += {ctx.n}")
        if isinstance(ins, Mov):
            src = self._read(ins.src)
            slab = (self._slab_val(src, ctx).expr
                    if self._wants_slab(ins.dst, ctx) and not src.uniform
                    else None)
            self._assign(ins.dst, src, ctx,
                         copy=isinstance(ins.src, Register),
                         aff=src.aff, prefix=src.prefix, slab=slab,
                         pure=True)
        elif isinstance(ins, BinOp):
            self._emit_binop(ins, ctx)
        elif isinstance(ins, UnaryOp):
            self._emit_unary(ins, ctx)
        elif isinstance(ins, Cmp):
            self._emit_cmp(ins, ctx)
        elif isinstance(ins, Select):
            p, a, b = (self._read(ins.pred), self._read(ins.a),
                       self._read(ins.b))
            sd = (a.dtype if (a.dtype is not None and b.dtype is not None
                              and a.dtype.np_dtype == b.dtype.np_dtype)
                  else None)
            val = _Val(f"np.where({p.expr}, {a.expr}, {b.expr})", sd,
                       p.uniform and a.uniform and b.uniform)
            slab = None
            if self._wants_slab(ins.dst, ctx) and not val.uniform:
                ps, as_, bs = (self._slab_val(p, ctx), self._slab_val(a, ctx),
                               self._slab_val(b, ctx))
                slab = f"np.where({ps.expr}, {as_.expr}, {bs.expr})"
            self._assign(ins.dst, val, ctx, slab=slab, pure=True)
        elif isinstance(ins, Cvt):
            self._emit_cvt(ins, ctx)
        elif isinstance(ins, SpecialRead):
            self._emit_special(ins, ctx)
        elif isinstance(ins, Load):
            self._emit_load(ins, ctx)
        elif isinstance(ins, Store):
            self._emit_store(ins, ctx)
        elif isinstance(ins, SharedAlloc):
            self._emit_shared_alloc(ins, ctx)
        elif isinstance(ins, Barrier):
            if ctx.kind == "full":
                self._line("_ba += _nB")
            else:
                self._line(f"_ba += _barrier(X, B, {ctx.arr})")
        elif isinstance(ins, AtomicOp):
            self._emit_atomic(ins, ctx)
        elif isinstance(ins, If):
            self._emit_if(ins, ctx)
        elif isinstance(ins, While):
            self._emit_while(ins, ctx)
        else:
            raise TraceBailout("unsupported",
                               f"instruction {type(ins).__name__}")

    def _emit_binop(self, ins: BinOp, ctx: _Ctx) -> None:
        a, b = self._read(ins.a), self._read(ins.b)
        dt = ins.dst.dtype
        expr, vdt = self._binop_expr(ins.op, a, b, dt)
        aff = self._binop_meta(ins.op, a, b, vdt)
        const = self._binop_const(ins.op, a, b, vdt)
        val = _Val(expr, vdt, a.uniform and b.uniform, const=const)
        slab = None
        if self._wants_slab(ins.dst, ctx) and not val.uniform:
            slab, _ = self._binop_expr(ins.op, self._slab_val(a, ctx),
                                       self._slab_val(b, ctx), dt)
        self._assign(ins.dst, val, ctx, aff=aff, slab=slab, pure=True)
        if dt.is_float:
            self._line(f"_fl += {ctx.n}")

    def _binop_expr(self, op: str, a: _Val, b: _Val, result_dt):
        same = (a.dtype is not None and b.dtype is not None
                and a.dtype.np_dtype == b.dtype.np_dtype)
        sd = a.dtype if same else None
        if op in ("add", "sub", "mul"):
            fn = {"add": "np.add", "sub": "np.subtract",
                  "mul": "np.multiply"}[op]
            return f"{fn}({a.expr}, {b.expr})", sd
        if op == "div":
            if result_dt.is_float:
                return (f"np.divide({a.expr}, {b.expr})",
                        sd if (sd and sd.is_float) else None)
            return f"_cdiv({a.expr}, {b.expr})", sd
        if op == "rem":
            if result_dt.is_float:
                return (f"np.mod({a.expr}, {b.expr})",
                        sd if (sd and sd.is_float) else None)
            return f"_crem({a.expr}, {b.expr})", sd
        if op == "min":
            return f"np.minimum({a.expr}, {b.expr})", sd
        if op == "max":
            return f"np.maximum({a.expr}, {b.expr})", sd
        if op == "pow":
            return f"np.power({a.expr}, {b.expr})", sd
        if op in ("and", "or", "xor"):
            if result_dt.is_pred:
                return (f"np.logical_{op.replace('xor', 'xor')}"
                        f"({a.expr}, {b.expr})", dtypes.PRED)
            fn = {"and": "np.bitwise_and", "or": "np.bitwise_or",
                  "xor": "np.bitwise_xor"}[op]
            return f"{fn}({a.expr}, {b.expr})", sd
        if op == "shl":
            return f"np.left_shift({a.expr}, {b.expr})", sd
        if op == "shr":
            return f"np.right_shift({a.expr}, {b.expr})", sd
        raise TraceBailout("unsupported", f"binary op '{op}'")

    def _binop_const(self, op: str, a: _Val, b: _Val, vdt):
        if (a.const is None or b.const is None or vdt is None
                or not vdt.is_integer):
            return None
        fn = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
              "mul": lambda x, y: x * y}.get(op)
        if fn is None:
            return None
        c = fn(a.const, b.const)
        lo, hi = _int_bounds(vdt)
        return c if lo <= c <= hi else None

    def _emit_unary(self, ins: UnaryOp, ctx: _Ctx) -> None:
        src = self._read(ins.src)
        dt = ins.dst.dtype

        def build(s):
            if ins.op == "rsqrt":
                return f"(1.0 / np.sqrt({s}))"
            return f"{_UNARY_FNS[ins.op]}({s})"

        if ins.op == "rsqrt":
            vdt = src.dtype if (src.dtype and src.dtype.is_float) else None
        elif ins.op in _UNARY_FNS:
            if ins.op in _UNARY_SAME_DT:
                vdt = src.dtype
            elif ins.op == "not":
                vdt = dtypes.PRED
            else:
                vdt = src.dtype if (src.dtype
                                    and src.dtype.is_float) else None
        else:
            raise TraceBailout("unsupported", f"unary op '{ins.op}'")
        expr = build(src.expr)
        slab = (build(self._slab_val(src, ctx).expr)
                if self._wants_slab(ins.dst, ctx) and not src.uniform
                else None)
        self._assign(ins.dst, _Val(expr, vdt, src.uniform), ctx, slab=slab,
                     pure=True)
        if dt.is_float:
            self._line(f"_fl += {ctx.n}")

    def _emit_cmp(self, ins: Cmp, ctx: _Ctx) -> None:
        a, b = self._read(ins.a), self._read(ins.b)
        expr = f"{_CMP_FNS[ins.op]}({a.expr}, {b.expr})"
        prefix = self._cmp_prefix(ins.op, a, b)
        uni = a.uniform and b.uniform
        slab = None
        if self._wants_slab(ins.dst, ctx) and not uni:
            slab = (f"{_CMP_FNS[ins.op]}({self._slab_val(a, ctx).expr}, "
                    f"{self._slab_val(b, ctx).expr})")
        self._assign(ins.dst, _Val(expr, dtypes.PRED, uni), ctx,
                     prefix=prefix, slab=slab, pure=True)

    def _emit_cvt(self, ins: Cvt, ctx: _Ctx) -> None:
        src = self._read(ins.src)
        dt = ins.dst.dtype
        expr = f"np.asarray({src.expr}).astype(np.{_np_name(dt)})"
        aff = self._cvt_meta(src, dt)
        const = None
        if (src.const is not None and dt.is_integer):
            lo, hi = _int_bounds(dt)
            if lo <= src.const <= hi:
                const = src.const
        val = _Val(expr, dt, src.uniform, const=const)
        slab = None
        if self._wants_slab(ins.dst, ctx) and not src.uniform:
            slab = (f"np.asarray({self._slab_val(src, ctx).expr})"
                    f".astype(np.{_np_name(dt)})")
        self._assign(ins.dst, val, ctx, aff=aff, slab=slab, pure=True)

    def _emit_special(self, ins: SpecialRead, ctx: _Ctx) -> None:
        which = ins.which
        dt = dtypes.U32
        aff = None
        if which == "tid.x":
            if self.block[1] == 1 and self.block[2] == 1:
                aff = _Aff(None, 0, 0, 0, 1, 0, 0, self.bt - 1)
            val = _Val("B.tid[0]", dt, False, aff=aff)
        elif which in ("tid.y", "tid.z"):
            val = _Val(f"B.tid[{'xyz'.index(which[-1])}]", dt, False)
        elif which == "ctaid.x":
            if self.grid[1] == 1 and self.grid[2] == 1 \
                    and self.total_blocks - 1 <= _int_bounds(dt)[1]:
                aff = _Aff(None, 0, 0, 1, 0, 1, 0, self.total_blocks - 1)
            val = _Val("B.ctaid[0]", dt, False, aff=aff)
        elif which in ("ctaid.y", "ctaid.z"):
            val = _Val(f"B.ctaid[{'xyz'.index(which[-1])}]", dt, False)
        elif which == "laneid":
            val = _Val(f"(B.block_linear % {self.warp})"
                       f".astype(np.uint32)", dt, False)
        elif which == "warpsize":
            val = _Val(f"np.uint32({self.warp})", dt, True, const=self.warp)
        elif which in self.dims:
            c = self.dims[which]
            val = _Val(f"np.uint32({c})", dt, True, const=c)
        else:
            raise TraceBailout("unsupported", f"special '{which}'")
        slab = None
        if (self._wants_slab(ins.dst, ctx) and not val.uniform
                and which != "laneid"):
            slab = self._slab_val(val, ctx).expr
        self._assign(ins.dst, val, ctx, copy=not val.uniform,
                     aff=val.aff, slab=slab, pure=True)

    def _emit_shared_alloc(self, ins: SharedAlloc, ctx: _Ctx) -> None:
        if ctx.kind != "full" or self.depth > 0:
            raise TraceBailout("unsupported",
                               "SharedAlloc below top level")
        align = ins.dtype.itemsize
        self.shared_cursor = -(-self.shared_cursor // align) * align
        base = self.shared_cursor
        self.shared_cursor += ins.dtype.itemsize * ins.count
        val = _Val(f"np.uint64({base})", dtypes.U64, True, const=base)
        self._assign(ins.dst, val, ctx,
                     aff=_Aff(None, 0, base, 0, 0, 0, base, base))

    def _strip(self, names) -> None:
        """Reset compile-time knowledge after runtime-conditional writes."""
        for name in names:
            v = self.vals.get(name)
            if v is not None:
                self.vals[name] = _Val(self._local(name),
                                       self.regdt.get(name, v.dtype),
                                       name not in self.varying)

    # -- control flow ------------------------------------------------------

    def _emit_if(self, ins: If, ctx: _Ctx) -> None:
        cv = self._read(ins.cond)
        assigned = (_assigned_names(ins.then_body)
                    | _assigned_names(ins.else_body))
        pre_vals = dict(self.vals)
        pre_def = set(self.defined)
        self.depth += 1
        if cv.uniform:
            self._line(f"if bool({cv.expr}):")
            self.ind += 1
            self._emit_body(ins.then_body, ctx)
            self.ind -= 1
            then_def = set(self.defined)
            self.vals = dict(pre_vals)
            self.defined = set(pre_def)
            if ins.else_body:
                self._line("else:")
                self.ind += 1
                self._emit_body(ins.else_body, ctx)
                self.ind -= 1
                else_def = set(self.defined)
            else:
                else_def = set(pre_def)
        else:
            c = cv.expr
            t = self._tmp()
            then_ctx = None
            if ctx.kind == "full" and cv.prefix is not None:
                pf = cv.prefix
                if pf.kind == "lin":
                    self._line(f"_k{t} = min(max({pf.thr}, 0), _L)")
                    then_ctx = _Ctx("lin", f"_k{t}", arr=c, k=f"_k{t}")
                else:
                    self._line(f"_k{t} = min(max({pf.thr}, 0), {self.bt})")
                    then_ctx = _Ctx("block", f"(_k{t} * _nB)", arr=c,
                                    k=f"_k{t}")
                gate = f"_k{t} > 0"
            if then_ctx is None:
                if ctx.kind == "full":
                    self._line(f"_n{t} = int({c}.sum())")
                    then_ctx = _Ctx("gen", f"_n{t}", arr=c)
                else:
                    self._line(f"_m{t} = {ctx.arr} & {c}")
                    self._line(f"_n{t} = int(_m{t}.sum())")
                    then_ctx = _Ctx("gen", f"_n{t}", arr=f"_m{t}")
                gate = f"_n{t} > 0"
            then_n = then_ctx.n
            self._line(f"if {gate}:")
            self.ind += 1
            self._emit_body(ins.then_body, then_ctx)
            self.ind -= 1
            then_def = set(self.defined)
            self.vals = dict(pre_vals)
            self.defined = set(pre_def)
            if ins.else_body:
                e = self._tmp()
                if ctx.kind == "full":
                    self._line(f"_m{e} = ~{c}")
                    en = f"(_L - {then_n})"
                else:
                    self._line(f"_m{e} = {ctx.arr} & ~{c}")
                    en = f"({ctx.n} - {then_n})"
                self._line(f"if {en} > 0:")
                self.ind += 1
                self._emit_body(ins.else_body, _Ctx("gen", en, arr=f"_m{e}"))
                self.ind -= 1
                else_def = set(self.defined)
            else:
                else_def = set(pre_def)
        self.depth -= 1
        self.vals = dict(pre_vals)
        self.defined = pre_def | (then_def & else_def)
        self._strip(assigned)

    def _emit_while(self, ins: While, ctx: _Ctx) -> None:
        assigned = (_assigned_names(ins.cond_body)
                    | _assigned_names(ins.body))
        self._strip(assigned)  # loop-carried values are runtime-only
        t = self._tmp()
        trips_raise = (f"raise IRError(\"kernel '{self.k.name}': "
                       f"loop exceeded {_MAX_LOOP_TRIPS} iterations "
                       f"(runaway loop?)\")")
        self._line(f"_tr{t} = 0")
        self.depth += 1
        if self._op_uniform(ins.cond):
            self._line("while True:")
            self.ind += 1
            self._emit_body(ins.cond_body, ctx)
            cv = self._read(ins.cond)
            self._line(f"if not bool({cv.expr}):")
            self._line("    break")
            def_after_cond = set(self.defined)
            self._emit_body(ins.body, ctx)
            self._line(f"_tr{t} += 1")
            self._line(f"if _tr{t} > {_MAX_LOOP_TRIPS}:")
            self._line(f"    {trips_raise}")
            self.ind -= 1
        else:
            if ctx.kind == "full":
                self._line(f"_lv{t} = np.ones(_L, dtype=bool)")
            else:
                self._line(f"_lv{t} = {ctx.arr}.copy()")
            self._line(f"_ln{t} = {ctx.n}")
            self._line("while True:")
            self.ind += 1
            self._line(f"if _ln{t} == 0:")
            self._line("    break")
            lctx = _Ctx("gen", f"_ln{t}", arr=f"_lv{t}")
            self._emit_body(ins.cond_body, lctx)
            cv = self._read(ins.cond)
            self._line(f"_lv{t} &= {cv.expr}")
            self._line(f"_ln{t} = int(_lv{t}.sum())")
            self._line(f"if _ln{t} == 0:")
            self._line("    break")
            def_after_cond = set(self.defined)
            self._emit_body(ins.body, lctx)
            self._line(f"_tr{t} += 1")
            self._line(f"if _tr{t} > {_MAX_LOOP_TRIPS}:")
            self._line(f"    {trips_raise}")
            self.ind -= 1
        self.depth -= 1
        self.defined = def_after_cond
        self._strip(assigned)

    # -- affine/prefix metadata -------------------------------------------

    def _pure_const(self, v: _Val):
        if v.const is None:
            return None
        a = v.aff
        if a is not None and (a.sym is not None or a.dfb or a.cbl or a.crow):
            return None
        return v.const

    def _aff_of(self, v: _Val):
        """An _Aff for this value, binding a runtime symbol if needed.

        ``_syN = int(expr)`` lines are scope-safe: metadata referencing
        them is stripped at every branch-arm/loop exit, so a symbol is
        never read outside the block that bound it.
        """
        if v.aff is not None:
            return v.aff
        if v.const is not None:
            c = v.const
            return _Aff(None, 0, c, 0, 0, 0, c, c)
        if v.uniform and v.dtype is not None and v.dtype.is_integer:
            s = self._tmp()
            self._line(f"_sy{s} = int({v.expr})")
            return _Aff(f"_sy{s}", 1, 0, 0, 0, 0, 0, 0)
        return None

    def _bounded(self, aff: _Aff, dt):
        """Keep the model only if the value provably fits ``dt``.

        Sym-free models must fit statically (and stay guard-free); models
        with a symbol get runtime no-wraparound guards, capped at 8.
        """
        dmin, dmax = _int_bounds(dt)
        guards = list(dict.fromkeys(aff.guards))
        if aff.sym is None:
            if aff.lo < dmin or aff.hi > dmax or guards:
                return None
            return _Aff(None, aff.sc, aff.d0, aff.dfb, aff.cbl, aff.crow,
                        aff.lo, aff.hi)
        guards += [f"({dmin} <= {aff.sc} * {aff.sym} + {aff.lo})",
                   f"({aff.sc} * {aff.sym} + {aff.hi} <= {dmax})"]
        guards = list(dict.fromkeys(guards))
        if len(guards) > 8:
            return None
        return _Aff(aff.sym, aff.sc, aff.d0, aff.dfb, aff.cbl, aff.crow,
                    aff.lo, aff.hi, guards)

    def _binop_meta(self, op: str, a: _Val, b: _Val, vdt):
        if vdt is None or not vdt.is_integer or op not in ("add", "sub",
                                                           "mul"):
            return None
        if op == "mul":
            fa, fb = self._pure_const(a), self._pure_const(b)
            if (fa is None) == (fb is None):
                return None  # need exactly one pure-const factor
            base, f = (b, fa) if fa is not None else (a, fb)
            A = self._aff_of(base)
            if A is None:
                return None
            lo, hi = ((A.lo * f, A.hi * f) if f >= 0
                      else (A.hi * f, A.lo * f))
            return self._bounded(
                _Aff(A.sym, A.sc * f, A.d0 * f, A.dfb * f, A.cbl * f,
                     A.crow * f, lo, hi, A.guards), vdt)
        A = self._aff_of(a)
        if A is None:
            return None
        B = self._aff_of(b)
        if B is None:
            return None
        if A.sym is not None and B.sym is not None:
            return None
        sym = A.sym or B.sym
        sa = A.sc if A.sym else 0
        sb = B.sc if B.sym else 0
        if op == "add":
            aff = _Aff(sym, sa + sb, A.d0 + B.d0, A.dfb + B.dfb,
                       A.cbl + B.cbl, A.crow + B.crow, A.lo + B.lo,
                       A.hi + B.hi, A.guards + B.guards)
        else:
            aff = _Aff(sym, sa - sb, A.d0 - B.d0, A.dfb - B.dfb,
                       A.cbl - B.cbl, A.crow - B.crow, A.lo - B.hi,
                       A.hi - B.lo, A.guards + B.guards)
        return self._bounded(aff, vdt)

    def _cvt_meta(self, src: _Val, dst_dt):
        if (src.aff is None or not dst_dt.is_integer or src.dtype is None
                or not src.dtype.is_integer):
            return None
        return self._bounded(src.aff, dst_dt)

    def _cmp_prefix(self, op: str, a: _Val, b: _Val):
        if op not in ("lt", "le", "gt", "ge"):
            return None
        if (a.dtype is None or b.dtype is None
                or a.dtype.np_dtype != b.dtype.np_dtype
                or not a.dtype.is_integer):
            return None
        # Normalize to AFF < U, which holds on a prefix of lanes.
        if a.aff is not None and not a.uniform and b.uniform:
            A, u = a.aff, b
            if op == "lt":
                off = 0
            elif op == "le":
                off = 1
            else:
                return None  # aff > u is a suffix, not a prefix
        elif b.aff is not None and not b.uniform and a.uniform:
            A, u = b.aff, a
            if op == "gt":
                off = 0  # u > aff  <=>  aff < u
            elif op == "ge":
                off = 1  # u >= aff <=>  aff < u + 1
            else:
                return None
        else:
            return None
        if A.sym is not None or A.guards or A.cbl <= 0:
            return None
        if A.crow == A.cbl * self.bt:
            kind = "lin"
        elif A.crow == 0:
            kind = "block"
        else:
            return None
        base = f"({A.d0} + {A.dfb} * _fb)"
        thr = f"-(({base} - (int({u.expr}) + {off})) // {A.cbl})"
        return _Prefix(kind, thr)

    # -- memory ------------------------------------------------------------

    def _contig_info(self, av: _Val, isz: int, space, ctx: _Ctx):
        """(base_expr, guards) when active addresses form exact runs."""
        A = av.aff
        if A is None:
            return None
        if space == MemSpace.GLOBAL:
            if not (A.cbl == isz and A.crow == isz * self.bt
                    and ctx.kind in ("full", "lin")):
                return None
        else:
            if not (A.cbl == isz and A.crow == 0
                    and ctx.kind in ("full", "block")):
                return None
        if A.sym is None:
            base = f"({A.d0} + {A.dfb} * _fb)"
        else:
            base = f"({A.sc} * {A.sym} + {A.d0} + {A.dfb} * _fb)"
        return base, list(A.guards)

    def _addr_expr(self, av: _Val, t: int) -> str:
        if av.uniform:
            self._line(f"_ad{t} = np.full(_L, {av.expr}, dtype=np.uint64)")
            return f"_ad{t}"
        return av.expr

    def _mem_conds(self, t: int, isz: int, space, ctx: _Ctx, guards):
        conds = list(guards)
        if space == MemSpace.GLOBAL:
            k = "_L" if ctx.kind == "full" else ctx.k
            conds += [f"_b{t} % {isz} == 0",
                      f"_span_ok(X, _b{t}, {k}, {isz})"]
        else:
            k = str(self.bt) if ctx.kind == "full" else ctx.k
            conds += [f"0 <= _b{t}", f"_b{t} % {isz} == 0",
                      f"_b{t} + {k} * {isz} <= {self.shared_bytes}"]
        return conds, k

    def _emit_load(self, ins: Load, ctx: _Ctx) -> None:
        dt = ins.dst.dtype
        isz, dtn, npn = dt.itemsize, dt.name, _np_name(dt)
        av = self._read(ins.addr)
        name = ins.dst.name
        loc = self._local(name)
        fast = self._contig_info(av, isz, ins.space, ctx)
        if fast is not None and name in self.varying:
            base, guards = fast
            t = self._tmp()
            self._line(f"_b{t} = {base}")
            conds, k = self._mem_conds(t, isz, ins.space, ctx, guards)
            self._line(f"if {' and '.join(conds)}:")
            self.ind += 1
            if ins.space == MemSpace.GLOBAL:
                self._line(f"_j{t} = _b{t} // {isz}")
                sl = f"_gv_{dtn}[_j{t}:_j{t} + {k}]"
                if ctx.kind == "full":
                    self._line(f"{loc} = {sl}.copy()")
                else:
                    self._fast_prefix_load(name, loc, sl, k,
                                           f"_gv_{dtn}[0]", False, npn)
            else:
                self._line(f"_c{t} = _b{t} // {isz}")
                sl = f"_s2_{dtn}[:, _c{t}:_c{t} + {k}]"
                if ctx.kind == "full":
                    self._line(f"{loc} = {sl}.flatten()")
                else:
                    self._fast_prefix_load(name, loc, sl, k,
                                           f"_sv_{dtn}[0]", True, npn)
            self.ind -= 1
            self._line("else:")
            self.ind += 1
            self.else_depth += 1
            start = len(self.lines)
            self._generic_load(ins, ctx, av, dt)
            self._inject_deferred(start)
            self.else_depth -= 1
            self.ind -= 1
            self.vals[name] = _Val(loc, dt, False)
            self.defined.add(name)
        else:
            self._generic_load(ins, ctx, av, dt)
        self._line(f"_bld += {ctx.n} * {isz}")

    def _fast_prefix_load(self, name: str, loc: str, sl: str, k: str,
                          tail: str, per_block: bool, npn: str) -> None:
        t = self._tmp()
        if per_block:
            build = [f"_a{t} = np.empty(_L, dtype=np.{npn})",
                     f"_a2{t} = _a{t}.reshape(_nB, {self.bt})",
                     f"_a2{t}[:, :{k}] = {sl}",
                     f"_a2{t}[:, {k}:] = {tail}"]
            merge_line = f"{loc}.reshape(_nB, {self.bt})[:, :{k}] = {sl}"
        else:
            build = [f"_a{t} = np.empty(_L, dtype=np.{npn})",
                     f"_a{t}[:{k}] = {sl}",
                     f"_a{t}[{k}:] = {tail}"]
            merge_line = f"{loc}[:{k}] = {sl}"
        if name in self.merge:
            self._line(f"if {loc} is None:")
            self.ind += 1
            for ln in build:
                self._line(ln)
            self._line(f"{loc} = _a{t}")
            self.ind -= 1
            self._line("else:")
            self.ind += 1
            self._line(merge_line)
            self.ind -= 1
        else:
            # non-merge + non-full site => single assignment => the
            # interpreter's missing-env whole-array replace, inactive
            # lanes included (they read the parked element 0).
            for ln in build:
                self._line(ln)
            self._line(f"{loc} = _a{t}")

    def _generic_load(self, ins: Load, ctx: _Ctx, av: _Val, dt) -> None:
        t = self._tmp()
        addr = self._addr_expr(av, t)
        eff = "None" if ctx.kind == "full" else ctx.arr
        is_g = "True" if ins.space == MemSpace.GLOBAL else "False"
        svs = "None" if ins.space == MemSpace.GLOBAL else "_svs"
        self._line(f"_vw{t}, _ix{t} = _resolve(X, B, {svs}, {addr}, "
                   f"{eff}, DT['{dt.name}'], {is_g}, False)")
        self._assign(ins.dst, _Val(f"_vw{t}[_ix{t}]", dt, False), ctx)

    def _emit_store(self, ins: Store, ctx: _Ctx) -> None:
        sv = self._read(ins.src)
        dt = ins.src.dtype
        isz, dtn = dt.itemsize, dt.name
        av = self._read(ins.addr)
        fast = self._contig_info(av, isz, ins.space, ctx)
        if fast is not None:
            base, guards = fast
            t = self._tmp()
            self._line(f"_b{t} = {base}")
            conds, k = self._mem_conds(t, isz, ins.space, ctx, guards)
            self._line(f"if {' and '.join(conds)}:")
            self.ind += 1
            if ins.space == MemSpace.GLOBAL:
                self._line(f"_j{t} = _b{t} // {isz}")
                dst = f"_gv_{dtn}[_j{t}:_j{t} + {k}]"
                if sv.uniform:
                    self._line(f"{dst} = {sv.expr}")
                elif ctx.kind == "full":
                    self._line(f"{dst} = {sv.expr}")
                else:
                    self._line(f"{dst} = {sv.expr}[:{k}]")
            else:
                self._line(f"_c{t} = _b{t} // {isz}")
                dst = f"_s2_{dtn}[:, _c{t}:_c{t} + {k}]"
                if sv.uniform:
                    self._line(f"{dst} = {sv.expr}")
                else:
                    self._line(f"{dst} = np.ascontiguousarray({sv.expr})"
                               f".reshape(_nB, {self.bt})[:, :{k}]")
            self.ind -= 1
            self._line("else:")
            self.ind += 1
            self.else_depth += 1
            start = len(self.lines)
            self._generic_store(ins, ctx, av, sv, dt)
            self._inject_deferred(start)
            self.else_depth -= 1
            self.ind -= 1
        else:
            self._generic_store(ins, ctx, av, sv, dt)
        self._line(f"_bst += {ctx.n} * {isz}")

    def _generic_store(self, ins: Store, ctx: _Ctx, av: _Val, sv: _Val,
                       dt) -> None:
        t = self._tmp()
        addr = self._addr_expr(av, t)
        eff = "None" if ctx.kind == "full" else ctx.arr
        is_g = "True" if ins.space == MemSpace.GLOBAL else "False"
        svs = "None" if ins.space == MemSpace.GLOBAL else "_svs"
        self._line(f"_vw{t}, _ix{t} = _resolve(X, B, {svs}, {addr}, "
                   f"{eff}, DT['{dt.name}'], {is_g}, True)")
        tgt = (f"_vw{t}[_ix{t}]" if ctx.kind == "full"
               else f"_vw{t}[_ix{t}[{ctx.arr}]]")
        if sv.uniform or ctx.kind == "full":
            self._line(f"{tgt} = {sv.expr}")
        else:
            self._line(f"{tgt} = {sv.expr}[{ctx.arr}]")

    def _emit_atomic(self, ins: AtomicOp, ctx: _Ctx) -> None:
        sv = self._read(ins.src)
        dt = ins.src.dtype
        npn = _np_name(dt)
        t = self._tmp()
        av = self._read(ins.addr)
        addr = self._addr_expr(av, t)
        eff = "None" if ctx.kind == "full" else ctx.arr
        is_g = "True" if ins.space == MemSpace.GLOBAL else "False"
        svs = "None" if ins.space == MemSpace.GLOBAL else "_svs"
        self._line(f"_vw{t}, _ix{t} = _resolve(X, B, {svs}, {addr}, "
                   f"{eff}, DT['{dt.name}'], {is_g}, True)")
        if sv.uniform:
            self._line(f"_sf{t} = np.full(_L, {sv.expr}, dtype=np.{npn})")
            src = f"_sf{t}"
        else:
            src = sv.expr
        want = ins.dst is not None
        self._line(f"_o{t} = _atomic(_vw{t}, _ix{t}, {eff}, {src}, "
                   f"'{ins.op}', {want}, _L, np.{npn})")
        if want:
            self._assign(ins.dst, _Val(f"_o{t}", dt, False), ctx)
        self._line(f"_ao += {ctx.n}")
