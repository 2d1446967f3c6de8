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
  in-place merge otherwise), emitted inline by the compiler's
  ``_assign``;
* memory faults, divergent-barrier errors, and runaway-loop errors with
  the interpreter's exact messages, raised at the same program point;
* work counters (instructions/flops/bytes/atomics/barriers) accumulated
  with exact per-instruction active-lane counts.

Fast paths (contiguous global slices, per-block shared-row slices,
prefix masks, grid-stride loops whose trips run on a live lane prefix,
and one resolved address where every lane holds the same one) are
taken only behind compile-time *and* runtime guards that prove
the result equals the generic path; otherwise the generated code falls
through to the interpreter's own functions: ``_resolve``, ``_atomic``,
``_barrier``, ``_cdiv`` and ``_crem`` are :mod:`repro.isa.interpreter`'s
``resolve``, ``apply_atomic``, ``check_barrier``, ``c_int_div`` and
``c_int_rem``.  Only ``_span_ok``, the contiguous fast paths' bounds
check, is the trace tier's own.

Lane-array lifetimes
--------------------
A batch's locals are lane-wide arrays (65,536 lanes is 512 KiB per
``f64`` register).  After each top-level statement the generated
function rebinds to ``None`` every local no later statement mentions, so
a launch's peak holds only the arrays still live rather than every
temporary the program ever made.  Loop bodies do the same for the names
each trip binds before it reads them: per-site temporaries and
*iteration-local* registers (see :func:`_iteration_locals`), which are
plain locals rather than merge registers.  A masked ``Mov`` into a merge
register merges straight from its source register.

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
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from repro import counters, memo
from repro.errors import IRError
from repro.gpu.memory import DeviceMemory
from repro.isa import dtypes, interpreter
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

#: The bailout-reason taxonomy (see module docstring).
BAILOUT_REASONS = ("shuffle", "atomic_cas", "exit", "too_large", "unsupported")


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


#: key -> TracedProgram, or a bailout-reason string for cached refusals;
#: the oldest of more than 256 are evicted.
_PROGRAMS = memo.Memo("traces", 256)

_default_mode: bool | None = None


def default_trace_mode() -> bool:
    """Process default for ``trace_mode=None`` executors: on, unless
    ``set_default_trace_mode()`` (or ``gpu-compat --trace-mode``) says
    otherwise."""
    return True if _default_mode is None else _default_mode


def set_default_trace_mode(mode: bool | None) -> None:
    """Override (or, with ``None``, restore) the process trace default."""
    global _default_mode
    _default_mode = None if mode is None else bool(mode)


def clear_trace_cache() -> None:
    """Drop all compiled programs and cached bailouts, and the
    interpreter's shared launch-geometry tables (a cold start)."""
    memo.clear("traces")
    memo.clear("geometry")


def trace_cache_size() -> int:
    return len(_PROGRAMS.entries)


def kernel_fingerprint(kernel: KernelIR) -> str:
    """Structural content hash of one kernel, compile-cache style:
    the trace schema, then :meth:`KernelIR.content`."""
    h = hashlib.sha256()
    h.update(f"trace-schema={TRACE_SCHEMA}".encode())
    h.update(kernel.content())
    return h.hexdigest()


def trace_key(kernel: KernelIR, warp_size: int,
              grid: tuple[int, int, int], block: tuple[int, int, int],
              blocks_per_batch: int) -> str:
    """Content-addressed key of one (kernel, geometry, batch width)."""
    h = hashlib.sha256()
    h.update(kernel_fingerprint(kernel).encode())
    h.update(f"|warp={warp_size}|grid={grid}|block={block}"
             f"|bpb={blocks_per_batch}".encode())
    return h.hexdigest()


def lookup(executor, grid: tuple[int, int, int], block: tuple[int, int, int],
           blocks_per_batch: int) -> TracedProgram | None:
    """The traced program for one launch shape, compiling on first use.

    Returns ``None`` (after recording the bailout) when the kernel can't
    be traced; the caller falls back to the batched interpreter.  Cache
    outcomes count as ``trace.hits|misses|bailouts`` (and
    ``trace.reason.<reason>``) in :mod:`repro.counters`.
    """
    key = trace_key(executor.kernel, executor.warp_size, grid, block,
                    blocks_per_batch)
    outcome = "trace.hits"

    def build():
        nonlocal outcome
        outcome = "trace.misses"
        try:
            compiler = _TraceCompiler(executor.kernel, executor.warp_size,
                                      grid, block, blocks_per_batch)
            source = compiler.compile()
            fn = _exec_program(source, executor.kernel.name, key)
            return TracedProgram(key=key, kernel_name=executor.kernel.name,
                                 source=source, fn=fn)
        except TraceBailout as exc:
            return exc.reason
        except Exception:  # defensive: an untraceable corner is a bailout
            return "unsupported"

    entry = _PROGRAMS.get(key, build)
    if isinstance(entry, TracedProgram):
        counters.add(outcome)
        return entry
    counters.merge({"trace.bailouts": 1, "trace.reason." + entry: 1})
    return None


def cached_bailout_reason(kernel: KernelIR, warp_size: int, grid, block,
                          blocks_per_batch: int) -> str | None:
    """The cached bailout reason for one shape, if any (introspection)."""
    key = trace_key(kernel, warp_size, tuple(grid), tuple(block),
                    blocks_per_batch)
    entry = _PROGRAMS.peek(key)
    return entry if isinstance(entry, str) else None


# -- runtime helpers injected into generated programs -------------------------


def _rt_span_ok(X, lo: int, count: int, itemsize: int) -> bool:
    """True iff the contiguous element run is provably legal AND the
    interpreter's generic checks would accept it unchanged.

    Conservative: ``False`` routes the access to the generic path (the
    interpreter's :func:`~repro.isa.interpreter.resolve`, with its exact
    error messages), never the other way around.  The ``2**63`` cap
    keeps the run inside the ``int64`` range
    :meth:`~repro.gpu.memory.DeviceMemory.validate` computes in.
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


def _exec_namespace() -> dict:
    return {
        "np": np,
        "DT": dict(dtypes.SCALAR_TYPES),
        "_resolve": interpreter.resolve,
        "_atomic": interpreter.apply_atomic,
        "_barrier": interpreter.check_barrier,
        "_span_ok": _rt_span_ok,
        "_cdiv": interpreter.c_int_div,
        "_crem": interpreter.c_int_rem,
        "IRError": IRError,
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

#: Register locals and numbered temporaries (``r12``, ``_t3``, ``_ix7``,
#: ``_a212``): the generated locals that can hold lane arrays.
_RELEASE_RE = re.compile(r"\b(?:r|_[a-z]+)\d+\b")

#: A loop's own state (live mask, live count, trip count), never
#: released inside the loop, and its trip-count bump.
_LOOP_STATE_RE = re.compile(r"_(?:lv|ln|tr)\d+")
_TRIP_BUMP_RE = re.compile(r"\s*(_tr\d+) \+= 1")

#: The line that binds a runtime symbol (``_sy3 = int(r2)``).
_SYM_BIND_RE = re.compile(r"\s*(_sy\d+) = int\(.*\)")

#: A runtime symbol's name (in a line, or in a combined symbol).
_SY_RE = re.compile(r"\b_sy\d+\b")


def _statements(lines, start: int, end: int, indent: int) -> list:
    """``(first, past-last)`` line of each statement that starts at
    ``indent`` spaces in ``lines[start:end]``; ``else:`` continues its
    ``if``."""
    starts = [i for i in range(start, end) if lines[i][indent] != " "
              and not lines[i].startswith("else:", indent)]
    return list(zip(starts, starts[1:] + [end]))


def _last_mentions(lines, spans) -> list[set[str]]:
    """Per statement, the locals it mentions and no later one does."""
    later: set[str] = set()
    out = []
    for s, e in reversed(spans):
        names = set(_RELEASE_RE.findall("\n".join(lines[s:e])))
        out.append(names - later)
        later |= names
    return out[::-1]


def _with_releases(lines, spans, free, indent: int) -> list[str]:
    """``lines`` with one ``a = b = None`` line after each statement
    whose ``free`` names are non-empty, at ``indent`` spaces."""
    out = lines[:spans[0][0]]
    for (s, e), names in zip(spans, free):
        out.extend(lines[s:e])
        if names:
            out.append(" " * indent + " = ".join(sorted(names)) + " = None")
    return out + lines[spans[-1][1]:]


def _dst_of(ins):
    """The register an instruction assigns, if any."""
    dst = getattr(ins, "dst", None)
    return dst if isinstance(dst, Register) else None


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


def _iteration_locals(body) -> dict[str, While]:
    """Registers each loop trip writes before it reads: ``name -> loop``.

    A register qualifies when every mention of it lies inside one
    ``While`` and its first mention in program order, like every other
    def of it, is placed directly in that loop's ``cond_body`` or
    ``body`` (not in a nested ``If`` or ``While``).  Each trip then
    rewrites it on all of the trip's lanes before anything reads it, and
    nothing after the loop reads it, so its inactive lanes are never
    observed and it needs no merge slot.
    """
    first: dict[str, While | None] = {}
    within: dict[str, set[int]] = {}
    direct: dict[str, set] = {}

    def mention(name, loops, home=None, is_def=False):
        first.setdefault(name, home)
        ids = {id(w) for w in loops}
        within[name] = within[name] & ids if name in within else ids
        if is_def:
            direct.setdefault(name, set()).add(
                None if home is None else id(home))

    def walk(block, loops, home):
        for ins in block:
            if isinstance(ins, If):
                if isinstance(ins.cond, Register):
                    mention(ins.cond.name, loops)
                walk(ins.then_body, loops, None)
                walk(ins.else_body, loops, None)
            elif isinstance(ins, While):
                inner = loops + (ins,)
                walk(ins.cond_body, inner, ins)
                mention(ins.cond.name, inner)
                walk(ins.body, inner, ins)
            else:
                for f in fields(ins):
                    op = getattr(ins, f.name)
                    if f.name != "dst" and isinstance(op, Register):
                        mention(op.name, loops)
                d = _dst_of(ins)
                if d is not None:
                    mention(d.name, loops, home, is_def=True)

    walk(body, (), None)
    return {name: loop for name, loop in first.items()
            if loop is not None and id(loop) in within[name]
            and direct[name] == {id(loop)}}


def _def_count(body, name: str) -> int:
    """How many instructions in ``body`` (at any depth) assign ``name``."""
    count = 0
    for ins in body:
        d = _dst_of(ins)
        count += d is not None and d.name == name
        if isinstance(ins, If):
            count += (_def_count(ins.then_body, name)
                      + _def_count(ins.else_body, name))
        elif isinstance(ins, While):
            count += (_def_count(ins.cond_body, name)
                      + _def_count(ins.body, name))
    return count


def _induction_loops(body) -> dict[int, tuple]:
    """Loops whose IR admits the prefix form: ``id(loop) -> (i, cmp, S,
    steps)``.

    A qualifying loop sits in no other loop; its ``cond_body`` is one
    ``Cmp`` ``i < U`` or ``i <= U`` whose result is read only as the
    loop's condition; its body ends in the step ``i = i + S`` (one
    ``BinOp``, or a ``BinOp`` into a register only the closing ``Mov``
    reads), the loop's only def of ``i``; ``U`` and ``S`` are
    immediates or registers the loop does not assign; all four share
    one integer dtype; and no instruction after the loop mentions
    ``i``.  :meth:`_TraceCompiler._induction` adds what only the
    emission state knows.
    """
    shapes: dict[int, tuple] = {}

    def find(block):
        for ins in block:
            if isinstance(ins, If):
                find(ins.then_body)
                find(ins.else_body)
            elif isinstance(ins, While):
                shape = _induction_shape(ins)
                if shape is not None:
                    shapes[id(ins)] = (ins, shape)

    find(body)
    if not shapes:
        return {}
    events: list[str] = []
    ends: dict[int, int] = {}

    def walk(block):
        for ins in block:
            if isinstance(ins, If):
                if isinstance(ins.cond, Register):
                    events.append(ins.cond.name)
                walk(ins.then_body)
                walk(ins.else_body)
            elif isinstance(ins, While):
                walk(ins.cond_body)
                events.append(ins.cond.name)
                walk(ins.body)
                ends[id(ins)] = len(events)
            else:
                events.extend(op.name for op in vars(ins).values()
                              if isinstance(op, Register))

    walk(body)
    out = {}
    for key, (loop, (i, cmp, step, steps)) in shapes.items():
        if (events.count(cmp.dst.name) == 2
                and i.name not in events[ends[key]:]
                and (steps == 1
                     or events.count(loop.body[-2].dst.name) == 2)):
            out[key] = (i, cmp, step, steps)
    return out


def _induction_shape(loop):
    """``(i, cmp, S, steps)`` when one loop's own instructions have the
    induction shape (see :func:`_induction_loops`), else ``None``."""
    cond = loop.cond_body
    if (len(cond) != 1 or not isinstance(cond[0], Cmp)
            or cond[0].op not in ("lt", "le")
            or cond[0].dst.name != loop.cond.name
            or not isinstance(cond[0].a, Register)):
        return None
    cmp = cond[0]
    i = cmp.a
    body = loop.body
    last = body[-1] if body else None
    if isinstance(last, BinOp) and last.dst.name == i.name:
        add, steps = last, 1
    elif (isinstance(last, Mov) and last.dst.name == i.name
          and isinstance(last.src, Register) and len(body) >= 2
          and isinstance(body[-2], BinOp)
          and body[-2].dst.name == last.src.name != i.name):
        add, steps = body[-2], 2
    else:
        return None
    step = add.b
    if (add.op != "add" or not isinstance(add.a, Register)
            or add.a.name != i.name or not i.dtype.is_integer
            or any(op.dtype.np_dtype != i.dtype.np_dtype
                   for op in (cmp.b, step, add.dst))
            or _def_count(body, i.name) != 1):
        return None
    assigned = _assigned_names(loop.cond_body) | _assigned_names(body)
    if any(isinstance(op, Register) and op.name in assigned
           for op in (cmp.b, step)):
        return None
    return i, cmp, step, steps


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
        self.shared_bytes, self.shared_stride = interpreter.shared_layout(
            kernel)
        self.lines: list[str] = []
        self.ind = 1
        self.tmp_n = 0
        self.depth = 0
        self.shared_cursor = 0
        self.vals: dict[str, _Val] = {}
        self.defined: set[str] = set()
        self.varying: set[str] = set()
        self.merge: set[str] = set()
        self.loop_local: dict[str, While] = {}
        self.loop_frees: dict[str, set[str]] = {}
        self.inductions: dict[int, tuple] = {}
        self.trip_syms: set[str] = set()
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

        params = {p.name for p in self.k.params}
        self.loop_local = {
            name: loop for name, loop in _iteration_locals(self.k.body).items()
            if name in self.varying and name not in params}
        self.merge = {name for name in self.varying
                      if counts.get(name, 0) >= 2 and name in nonfull
                      and name not in self.loop_local}
        self.inductions = _induction_loops(self.k.body)

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
        self._drop_dead_binds()
        self._release_in_loops()
        self._release_dead()
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
        self.loop_frees = {}
        self.trip_syms = set()

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
        refs: dict[str, list[int]] = {}  # register -> lines naming it
        inds: list[int] = []
        for li, (text, _, ind) in enumerate(self.line_log):
            if not text.endswith(" = None"):  # merge-reg prelude init
                for name in {loc2reg.get(f"r{m}")
                             for m in _LOCAL_RE.findall(text)} - {None}:
                    refs.setdefault(name, []).append(li)
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
                for li in refs.get(n, ()):
                    if start <= li <= end:
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

    def _drop_dead_binds(self) -> None:
        """Drop each ``_syN = int(...)`` line no other line mentions: a
        symbol ``_binop_meta`` bound for an operand whose partner had no
        model.  Every instruction opens with ``_ic +=``, so no block
        empties."""
        counts = Counter(_SY_RE.findall("\n".join(self.lines)))
        self.lines = [text for text in self.lines
                      if not ("= int(" in text
                              and (m := _SYM_BIND_RE.fullmatch(text))
                              and counts[m.group(1)] == 1)]

    def _release_dead(self) -> None:
        """After each top-level body statement, rebind to ``None`` every
        register or numbered temporary no later statement mentions.

        Works on the final lines, deferral splices included.  A name
        inside a string literal only counts as a mention, which delays a
        release and never brings one forward.  The prelude keeps its
        locals, and nothing is released after the last body statement:
        the epilogue follows and the return frees the rest.
        """
        lines = self.lines
        spans = _statements(lines, 1, len(lines), 4)  # line 0 is the `def`
        first = next((k for k, (s, _) in enumerate(spans)
                      if lines[s].startswith("    _ic += ")), None)
        if first is None:
            return
        last_body = len(spans) - 7  # the six stats lines close the program
        free = [names if first <= k < last_body else ()
                for k, names in enumerate(_last_mentions(lines, spans))]
        self.lines = _with_releases(lines, spans, free, 4)

    def _release_in_loops(self) -> None:
        """After each statement of a loop body, rebind to ``None`` every
        per-site temporary and iteration-local register of that loop
        that no later statement of the body mentions and nothing outside
        the loop mentions.

        Each such name is bound afresh by every trip before anything
        reads it, so a trip holds only the arrays it still needs.  Loop
        state (``_lv``/``_ln``/``_tr``) and loop-carried registers are
        never released here; inner loops are done first.
        """
        lines = self.lines
        heads = [i for i, text in enumerate(lines)
                 if text.endswith("while True:")]
        for head in reversed(heads):
            indent = len(lines[head]) - len("while True:") + 4
            end = head + 1
            while end < len(lines) and lines[end].startswith(" " * indent):
                end += 1
            spans = _statements(lines, head + 1, end, indent)
            trips = next(m.group(1) for m in (_TRIP_BUMP_RE.fullmatch(
                lines[s]) for s, _ in spans) if m)
            own = {self.locals_.get(name) for name in self.loop_frees[trips]}
            outside = set(_RELEASE_RE.findall(
                "\n".join(lines[:head] + lines[end:])))
            free = [{n for n in names - outside
                     if n in own or n[0] == "_"
                     and not _LOOP_STATE_RE.fullmatch(n)}
                    for names in _last_mentions(lines, spans)]
            lines = _with_releases(lines, spans, free, indent)
        self.lines = lines

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
                slab: str | None = None, pure: bool = False,
                mov: bool = False) -> None:
        """Emit ``_ExecState.assign`` for one computed value (``mov``: a
        register's own value, which a masked merge copies from directly)."""
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
            # A moved register merges straight from its source: the copy
            # is only needed when it becomes the whole array.
            direct = None
            if copy and not fresh:
                direct = expr if mov else None
                expr = f"({expr}).copy()"
                fresh = True
            self._varying_store(name, loc, expr, ctx, fresh=fresh,
                                slab=slab, direct=direct)
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
                       fresh: bool, slab: str | None = None,
                       direct: str | None = None) -> None:
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
        if direct is not None:
            self._line(f"if {loc} is None:")
            self._line(f"    {loc} = {expr}")
            self._line("else:")
            self._line(f"    np.copyto({loc}, {direct}, where={ctx.arr})")
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
                         pure=True, mov=True)
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

    def _induction(self, ins: While, ctx: _Ctx):
        """The prefix form's plan for one loop, or ``None`` (today's
        live-mask form).

        On top of :func:`_induction_loops`' IR shape: the loop starts
        under a full or lane-prefix mask; ``i`` is varying and enters
        with a lane-contiguous affine (no symbol, no guards, lane
        stride ``cbl > 0``, block stride ``cbl * block``); ``U`` and
        ``S`` are uniform and ``S`` is a compile-time constant; and no
        trip the runaway guard admits takes any lane's ``entry + t*S``
        or ``t*S`` out of ``i``'s dtype, so the modelled ``i`` never
        wraps.
        """
        shape = self.inductions.get(id(ins))
        if shape is None or ctx.kind not in ("full", "lin"):
            return None
        i, cmp, step, steps = shape
        if (self._op_uniform(i) or not self._op_uniform(cmp.b)
                or not self._op_uniform(step)):
            return None
        A = self._read(i).aff
        s = self._pure_const(self._read(step))
        if (A is None or A.sym is not None or A.guards or A.cbl <= 0
                or A.crow != A.cbl * self.bt or s is None):
            return None
        dmin, dmax = _int_bounds(i.dtype)
        reach = interpreter._MAX_LOOP_TRIPS * s
        lo, hi = min(0, reach), max(0, reach)
        if not (dmin <= lo and hi <= dmax and dmin <= A.lo + lo
                and A.hi + hi <= dmax):
            return None
        return i, cmp, step, steps, A

    def _emit_prefix_trips(self, ins: While, ctx: _Ctx, plan,
                           t: int) -> set:
        """One trip of an induction loop on the live prefix ``[0,
        _ln)``: trip ``_tr`` binds ``_sy = _tr * S``, narrows ``_ln`` to
        the lanes whose ``entry + _sy`` passes the condition, and runs
        the body in that lane prefix with ``i`` modelled as ``entry +
        _sy`` (its local keeps the entry value; nothing after the loop
        reads it).  The condition and the step are metered, not run.
        Returns the registers defined after the condition."""
        i, cmp, step, steps, A = plan
        sy = f"_sy{self._tmp()}"
        self.trip_syms.add(sy)
        self._line(f"_ln{t} = {ctx.n}")
        self._line("while True:")
        self.ind += 1
        self._line(f"if _ln{t} == 0:")
        self._line("    break")
        self._line(f"{sy} = _tr{t} * int({self._read(step).expr})")
        self._line(f"_ic += _ln{t}")
        u = self._read(cmp.b)
        off = 1 if cmp.op == "le" else 0
        base = f"(1 * {sy} + {A.d0} + {A.dfb} * _fb)"
        thr = f"-(({base} - (int({u.expr}) + {off})) // {A.cbl})"
        self._line(f"_ln{t} = min(_ln{t}, max({thr}, 0))")
        self._line(f"if _ln{t} == 0:")
        self._line("    break")
        def_after_cond = set(self.defined)
        # No no-wraparound pair for i itself: _induction proved that no
        # admitted trip takes any lane's entry + t*S out of i's dtype.
        self.vals[i.name] = _Val(
            f"np.add({self._local(i.name)}, np.{_np_name(i.dtype)}({sy}))",
            i.dtype, False,
            aff=_Aff(sy, 1, A.d0, A.dfb, A.cbl, A.crow, A.lo, A.hi))
        lctx = _Ctx("lin", f"_ln{t}", arr=f"(np.arange(_L) < _ln{t})",
                    k=f"_ln{t}")
        for body_ins in ins.body[:-steps]:
            self._emit(body_ins, lctx)
        for _ in range(steps):
            self._line(f"_ic += _ln{t}")
        if self.collecting:
            # The step still assigns i, as a second site: i's entry
            # value is never sunk into a fast path's else arm.
            self.site_count[i.name] = self.site_count.get(i.name, 0) + 1
        return def_after_cond

    def _emit_while(self, ins: While, ctx: _Ctx) -> None:
        assigned = (_assigned_names(ins.cond_body)
                    | _assigned_names(ins.body))
        plan = self._induction(ins, ctx)
        self._strip(assigned)  # loop-carried values are runtime-only
        t = self._tmp()
        trips = interpreter._MAX_LOOP_TRIPS
        trips_raise = (f"raise IRError(\"kernel '{self.k.name}': "
                       f"loop exceeded {trips} iterations "
                       f"(runaway loop?)\")")
        self._line(f"_tr{t} = 0")
        self.loop_frees[f"_tr{t}"] = {
            name for name, loop in self.loop_local.items()
            if loop is ins and name not in self.defer_regs}
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
            self._line(f"if _tr{t} > {trips}:")
            self._line(f"    {trips_raise}")
            self.ind -= 1
        elif plan is not None:
            def_after_cond = self._emit_prefix_trips(ins, ctx, plan, t)
            self._line(f"_tr{t} += 1")
            self._line(f"if _tr{t} > {trips}:")
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
            self._line(f"if _tr{t} > {trips}:")
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
            # Two symbols combine only in an induction loop's trip: the
            # sum (a pointer plus a trip's offset) becomes one symbol.
            if not self.trip_syms.intersection(
                    _SY_RE.findall(f"{A.sym} {B.sym}")):
                return None
            sign = "+" if op == "add" else "-"
            sym, sa, sb = f"({A.sc} * {A.sym} {sign} {B.sc} * {B.sym})", 1, 0
        else:
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

    def _mem_conds(self, t: int, isz: int, space, k: str, guards=()):
        """Runtime guards proving ``k`` elements from ``_b{t}`` legal."""
        conds = list(guards)
        if space == MemSpace.GLOBAL:
            conds += [f"_b{t} % {isz} == 0",
                      f"_span_ok(X, _b{t}, {k}, {isz})"]
        else:
            conds += [f"0 <= _b{t}", f"_b{t} % {isz} == 0",
                      f"_b{t} + {k} * {isz} <= {self.shared_bytes}"]
        return conds

    def _run_len(self, space, ctx: _Ctx) -> str:
        """Elements a contiguous access touches per row (global) or per
        block (shared)."""
        if ctx.kind == "full":
            return "_L" if space == MemSpace.GLOBAL else str(self.bt)
        return ctx.k

    @staticmethod
    def _uniform_addr(ins, av: _Val) -> bool:
        """The address is one ``u64`` register every lane holds."""
        return (isinstance(ins.addr, Register) and av.uniform
                and av.dtype is not None
                and av.dtype.np_dtype == dtypes.U64.np_dtype)

    def _uniform_gate(self, ins, av: _Val, t: int, isz: int) -> None:
        """Open the fast arm of a uniform-address access: bind ``_b{t}``
        to the address, guard one element, and index it.

        The ``else`` arm (the caller's generic path) is not a deferral
        splice point, so this gate changes no deferral decision.
        """
        self._line(f"_b{t} = int({av.expr})")
        conds = self._mem_conds(t, isz, ins.space, "1")
        self._line(f"if {' and '.join(conds)}:")
        letter = "j" if ins.space == MemSpace.GLOBAL else "c"
        self._line(f"    _{letter}{t} = _b{t} // {isz}")

    def _uniform_load_expr(self, t: int, space, dt, ctx: _Ctx) -> str:
        """The generic gather's value on every lane, from one element:
        active lanes read the address (in their own block's row, for
        shared), inactive lanes the parked element 0."""
        dtn, npn = dt.name, _np_name(dt)
        if space == MemSpace.GLOBAL:
            if ctx.kind == "full":
                return f"np.full(_L, _gv_{dtn}[_j{t}], dtype=np.{npn})"
            return f"np.where({ctx.arr}, _gv_{dtn}[_j{t}], _gv_{dtn}[0])"
        if ctx.kind == "full":
            return f"np.repeat(_s2_{dtn}[:, _c{t}], {self.bt})"
        return (f"np.where({ctx.arr}.reshape(_nB, {self.bt}), "
                f"_s2_{dtn}[:, _c{t}:_c{t} + 1], _sv_{dtn}[0]).reshape(-1)")

    def _emit_load(self, ins: Load, ctx: _Ctx) -> None:
        dt = ins.dst.dtype
        isz, dtn, npn = dt.itemsize, dt.name, _np_name(dt)
        av = self._read(ins.addr)
        name = ins.dst.name
        loc = self._local(name)
        fast = self._contig_info(av, isz, ins.space, ctx)
        if self._uniform_addr(ins, av):
            t = self._tmp()
            self._uniform_gate(ins, av, t, isz)
            self.ind += 1
            self._assign(ins.dst, _Val(self._uniform_load_expr(
                t, ins.space, dt, ctx), dt, False), ctx)
            self.ind -= 1
            self._line("else:")
            self.ind += 1
            self._generic_load(ins, ctx, av, dt)
            self.ind -= 1
            self.vals[name] = _Val(loc, dt, False)
            self.defined.add(name)
        elif fast is not None and name in self.varying:
            base, guards = fast
            t = self._tmp()
            self._line(f"_b{t} = {base}")
            k = self._run_len(ins.space, ctx)
            conds = self._mem_conds(t, isz, ins.space, k, guards)
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
            k = self._run_len(ins.space, ctx)
            conds = self._mem_conds(t, isz, ins.space, k, guards)
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
        eff = "None" if ctx.kind == "full" else ctx.arr
        if sv.uniform:
            self._line(f"_sf{t} = np.full(_L, {sv.expr}, dtype=np.{npn})")
            src = f"_sf{t}"
        else:
            src = sv.expr
        want = ins.dst is not None
        call = f"{eff}, {src}, '{ins.op}', {want}, _L, np.{npn})"
        # One address on every lane: the same ufunc.at over the active
        # lanes' values, indexed by a broadcast view instead of a
        # resolved lane-wide index array.  Only ops that return no old
        # value, on global memory (a shared address differs per block).
        uniform = (not want and ins.op in ("add", "min", "max")
                   and ins.space == MemSpace.GLOBAL
                   and self._uniform_addr(ins, av))
        if uniform:
            self._uniform_gate(ins, av, t, dt.itemsize)
            self._line(f"    _o{t} = _atomic(_gv_{dt.name}, "
                       f"np.broadcast_to(_j{t}, _L), {call}")
            self._line("else:")
            self.ind += 1
        addr = self._addr_expr(av, t)
        is_g = "True" if ins.space == MemSpace.GLOBAL else "False"
        svs = "None" if ins.space == MemSpace.GLOBAL else "_svs"
        self._line(f"_vw{t}, _ix{t} = _resolve(X, B, {svs}, {addr}, "
                   f"{eff}, DT['{dt.name}'], {is_g}, True)")
        self._line(f"_o{t} = _atomic(_vw{t}, _ix{t}, {call}")
        if uniform:
            self.ind -= 1
        if want:
            self._assign(ins.dst, _Val(f"_o{t}", dt, False), ctx)
        self._line(f"_ao += {ctx.n}")
