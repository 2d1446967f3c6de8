"""tracesan — static translation validation of trace-compiled programs.

:mod:`repro.isa.tracing` compiles hot kernel batches into generated
Python programs that are ``exec``'d in-process.  Its correctness story
so far is *dynamic*: differential tests compare traced output against
the interpreter.  This module closes the silent-miscompile gap with a
per-program **static** validator in the translation-validation style of
the route-level TV passes: it takes a :class:`~repro.isa.tracing.
TracedProgram`'s generated source plus its :class:`~repro.isa.module.
KernelIR` and proves — without executing either — that the program
preserves interpreter semantics.

Three phases, reported as ``TC01``-``TC06`` diagnostics:

1. **Allowlist lint (TC02).**  The generated source is parsed to an AST
   and checked against a *closed* grammar: only the runtime helpers the
   trace namespace provides (``_resolve``/``_atomic``/``_barrier``/...),
   lane-array locals, a fixed set of ``np.*``/``B.*``/``X.*``/``stats.*``
   attributes, and structured statements.  No imports, no comprehensions,
   no attribute escapes.  This is the safety gate on code we ``exec``.

2. **Effect-summary equivalence (TC01/TC04).**  The kernel IR is
   abstract-interpreted over the :mod:`repro.analysis.symbolic` affine
   lattice (the same lattice kernelsan's bounds checks use), deriving a
   per-instruction effect summary: counter metering (``_ic``/``_fl``/
   ``_bld``/``_bst``/``_ao``/``_ba``), memory reads/writes with address
   affines, mask provenance, and barrier points.  The generated program
   is matched region by region against that summary — every instruction
   must meter ``_ic`` with the active context multiplicity, every load/
   store/atomic must touch the right space and element size under the
   right mask, every fast-path base address must agree with the
   independently derived affine, a contiguous gate must carry exactly
   the no-wraparound conjuncts of every symbolic step of the address
   chain, a uniform-address gate must guard exactly the one element the
   IR's address register names, and a merge register at a masked site
   must keep its first-assignment branch while every other register is
   a plain rebind.  Releases (``a = b = None``) at the top level and in
   loop bodies are stripped first, once no later statement of the body
   is shown to read a released name; a loop may release only per-site
   temporaries and its own iteration-local registers, which the checker
   re-derives from the IR.  A *provable*
   disagreement is ``TC01`` (error).  When a summary is only a
   conservative bound (an affine the checker cannot derive, a gate
   shape it cannot classify) the verdict degrades to ``exact=False``
   and reports ``TC04`` (warning) — the same degradation contract the
   bitonic cost model uses.

3. **Deferral re-proof (TC03).**  The trace compiler *sinks* pure
   single-site register chains into fast-path ``else`` arms.  The
   checker independently re-proves the three claims that make sinking
   sound — single static site, dominance of every splice over its uses,
   and operand stability across the replay horizon — directly on the
   generated AST, and flags any sunk chain it cannot re-prove.

Verdicts suppressed by :data:`repro.data.trace_divergences.
KNOWN_TRACE_DIVERGENCES` (which ships empty) surface as ``TC06`` info;
kernels that bailed out of trace compilation are ``TC05`` info and are
*never* validated.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import zip_longest

from repro.analysis.symbolic import Affine
from repro.analysis.diagnostics import (Diagnostic, LintReport, Severity,
                                        make)
from repro.data.trace_divergences import divergence_reason
from repro.isa import dtypes, interpreter
from repro.isa.dtypes import SCALAR_TYPES
from repro.isa.instructions import (AtomicOp, Barrier, BinOp, Cmp, Cvt, If,
                                    Imm, Load, MemSpace, Mov, Register,
                                    Select, SharedAlloc, SpecialRead, Store,
                                    UnaryOp, While)
from repro.isa.tracing import _dst_of, _np_name

__all__ = [
    "TraceVerdict",
    "validate_program",
    "canonical_batch_width",
    "validate_library",
    "lint_traces",
    "traces_lint_report",
    "trace_agreement_summary",
]

def _unparse(node: ast.AST) -> str:
    return ast.unparse(node)


def _nodes(root: ast.AST) -> list:
    """Every node under ``root``, itself included: ``ast.walk``'s set,
    gathered without its generators (the checker's hot loop)."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        for name in node._fields:
            value = getattr(node, name, None)
            if type(value) is list:
                stack.extend(x for x in value if isinstance(x, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append(value)
    return out


def _func_text(func: ast.AST) -> str:
    """``ast.unparse`` of a callee, without unparsing the common
    ``name`` and ``name.attr`` shapes."""
    if type(func) is ast.Name:
        return func.id
    if type(func) is ast.Attribute and type(func.value) is ast.Name:
        return f"{func.value.id}.{func.attr}"
    return ast.unparse(func)


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------


@dataclass
class TraceVerdict:
    """Outcome of statically validating one traced program.

    Attributes:
        key: The trace-cache key the program was compiled under.
        kernel: Kernel name.
        validated: True when no error-severity diagnostic fired.
        exact: True when every effect summary was proven *equal*; False
            when any summary was only a conservative bound (``TC04``).
        diagnostics: All findings, including suppressed ``TC06`` notes.
        elapsed_ms: Wall time the validation took.
    """

    key: tuple
    kernel: str
    validated: bool
    exact: bool
    diagnostics: list[Diagnostic] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]


# ---------------------------------------------------------------------------
# Phase 1 — closed exec allowlist (TC02)
# ---------------------------------------------------------------------------

#: Names the exec namespace provides plus program-local scalars.
_FIXED_NAMES = frozenset({
    "X", "B", "args", "stats", "np", "DT",
    "_resolve", "_atomic", "_barrier", "_span_ok", "_cdiv", "_crem",
    "IRError",
    "bool", "int", "min", "max", "None", "True", "False",
    "_L", "_nB", "_fb", "_ic", "_fl", "_bld", "_bst", "_ao", "_ba",
    "_sh", "_svs",
})

#: Generated temp-local families (``_b3``, ``_k1``, ``_lv2``, ...).
_TEMP_PREFIXES = ("t", "sy", "b", "j", "c", "a", "a2", "ad", "vw", "ix",
                  "o", "sf", "k", "m", "n", "lv", "ln", "tr")
#: The per-site ones: all but a loop's live mask, live count and trips.
_SITE_TEMPS = _TEMP_PREFIXES[:-3]

#: np.<attr> names a trace program may reference.
_NP_ATTRS = frozenset({
    "add", "subtract", "multiply", "divide", "mod", "minimum", "maximum",
    "power", "left_shift", "right_shift",
    "logical_and", "logical_or", "logical_xor", "logical_not",
    "bitwise_and", "bitwise_or", "bitwise_xor", "bitwise_not",
    "negative", "abs", "sqrt", "exp", "log", "sin", "cos", "tanh",
    "floor", "ceil", "rint",
    "equal", "not_equal", "less", "less_equal", "greater", "greater_equal",
    "where", "full", "empty", "ones", "zeros", "asarray",
    "ascontiguousarray", "copyto", "repeat", "broadcast_to", "arange",
} | {_np_name(dt) for dt in SCALAR_TYPES.values()})

_B_ATTRS = frozenset({"lanes", "n_blocks", "first_block", "tid", "ctaid",
                      "block_linear"})
_X_ATTRS = frozenset({"_gview", "_shared_arena"})
_STATS_ATTRS = frozenset({"instructions", "flops", "bytes_loaded",
                          "bytes_stored", "atomic_ops", "barriers"})
#: Methods callable on arbitrary sub-expressions (ndarray surface).
_METHOD_ATTRS = frozenset({"copy", "astype", "reshape", "view", "flatten",
                           "sum"})

_ALLOWED_STMTS = (ast.Assign, ast.AugAssign, ast.If, ast.While, ast.Raise,
                  ast.Break, ast.Pass, ast.Expr)
_DTN_NAMES = frozenset(SCALAR_TYPES)


def _name_allowed(name: str) -> bool:
    if name in _FIXED_NAMES:
        return True
    if name.startswith("r") and name[1:].isdigit():
        return True
    if name.startswith("_"):
        body = name[1:]
        for prefix in _TEMP_PREFIXES:
            if body.startswith(prefix) and body[len(prefix):].isdigit():
                return True
        for view in ("gv_", "sv_", "s2_"):
            if body.startswith(view) and body[len(view):] in _DTN_NAMES:
                return True
    return False


def _check_allowlist(tree: ast.Module, kernel: str) -> list[Diagnostic]:
    """Phase 1: every node of the generated AST is on the closed list."""
    out: list[Diagnostic] = []

    def bad(node: ast.AST, what: str) -> None:
        out.append(make(
            "TC02", kernel, f"line {getattr(node, 'lineno', 0)}",
            f"generated program escapes the exec allowlist: {what}",
            hint="the trace compiler never emits this construct; treat the "
                 "program as hostile and refuse to exec it"))

    if (len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef)
            or tree.body[0].name != "_trace"):
        bad(tree, "module is not a single `def _trace(...)`")
        return out
    fn = tree.body[0]
    arg_names = [a.arg for a in fn.args.args]
    if (arg_names != ["X", "B", "args", "stats"] or fn.args.vararg
            or fn.args.kwarg or fn.args.kwonlyargs or fn.args.defaults
            or fn.decorator_list):
        bad(fn, "unexpected _trace signature")

    for node in _nodes(fn):
        if isinstance(node, ast.stmt):
            if isinstance(node, ast.FunctionDef) and node is fn:
                continue
            if not isinstance(node, _ALLOWED_STMTS):
                bad(node, f"statement {type(node).__name__}")
            elif isinstance(node, ast.Raise):
                exc = node.exc
                if not (isinstance(exc, ast.Call)
                        and isinstance(exc.func, ast.Name)
                        and exc.func.id == "IRError"
                        and all(isinstance(a, ast.Constant)
                                and isinstance(a.value, str)
                                for a in exc.args)):
                    bad(node, "raise of anything but IRError(<str>)")
        elif isinstance(node, ast.Name):
            if not _name_allowed(node.id):
                bad(node, f"name `{node.id}`")
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "np":
                if node.attr not in _NP_ATTRS:
                    bad(node, f"np.{node.attr}")
            elif isinstance(base, ast.Name) and base.id == "B":
                if node.attr not in _B_ATTRS:
                    bad(node, f"B.{node.attr}")
            elif isinstance(base, ast.Name) and base.id == "X":
                if node.attr not in _X_ATTRS:
                    bad(node, f"X.{node.attr}")
            elif isinstance(base, ast.Name) and base.id == "stats":
                if node.attr not in _STATS_ATTRS:
                    bad(node, f"stats.{node.attr}")
            elif node.attr not in _METHOD_ATTRS:
                bad(node, f"attribute .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.Lambda,
                               ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp, ast.Await, ast.Yield,
                               ast.YieldFrom, ast.NamedExpr, ast.Starred,
                               ast.JoinedStr, ast.Global, ast.Nonlocal)):
            bad(node, type(node).__name__)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool, str,
                                           type(None))):
                bad(node, f"constant {node.value!r}")
        elif isinstance(node, ast.Call):
            fnode = node.func
            ok = (isinstance(fnode, (ast.Name, ast.Attribute)))
            if not ok or node.keywords and any(
                    kw.arg not in ("dtype", "where") for kw in node.keywords):
                bad(node, "call with unexpected shape")
    return out


# ---------------------------------------------------------------------------
# Phase 2 — IR-side effect derivation
# ---------------------------------------------------------------------------
#
# The checker re-derives, *independently of the trace compiler*, the
# classification every emission decision hangs off: which registers are
# thread-varying, which need merge slots, and what affine each address
# register denotes.  The uniformity fixpoint below is the compiler's
# published contract (tracing._TraceCompiler._analyze) restated; the
# affine domain is repro.analysis.symbolic with atoms
#   "fb"      — first block index of the batch,
#   "t"       — thread linear index within a block,
#   "row"     — block row within the batch,
#   "sym:<r>" — a uniform integer register's runtime value.


class _IRInfo:
    """Uniformity / merge / dtype classification of one kernel IR."""

    def __init__(self, kernel, warp_size, grid, block):
        self.k = kernel
        self.warp = warp_size
        self.grid = grid
        self.block = block
        self.bt = block[0] * block[1] * block[2]
        self.total_blocks = grid[0] * grid[1] * grid[2]
        self.dims = {
            "ntid.x": block[0], "ntid.y": block[1], "ntid.z": block[2],
            "nctaid.x": grid[0], "nctaid.y": grid[1], "nctaid.z": grid[2],
        }
        self.shared_bytes, self.shared_stride = interpreter.shared_layout(
            kernel)
        self.counts: dict[str, int] = {}
        self.sites: dict[str, int] = {}
        self.regdt: dict[str, object] = {}
        self.varying: set[str] = set()
        self.merge: set[str] = set()
        self.global_dts: set[str] = set()
        self.shared_dts: set[str] = set()
        self._analyze()

    def _op_uniform(self, op) -> bool:
        if isinstance(op, Imm):
            return True
        return op.name not in self.varying

    def _value_uniform(self, ins) -> bool:
        if isinstance(ins, (Mov, UnaryOp, Cvt)):
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
        return False

    def _analyze(self) -> None:
        counts = self.counts

        def cwalk(body, in_loop):
            for ins in body:
                d = _dst_of(ins)
                if d is not None:
                    counts[d.name] = counts.get(d.name, 0) + (
                        2 if in_loop else 1)
                    self.sites[d.name] = self.sites.get(d.name, 0) + 1
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

        self.loop_local = self._loop_locals()
        self.inductions = self._inductions()
        self.merge = {name for name in self.varying
                      if counts.get(name, 0) >= 2 and name in nonfull
                      and name not in self.loop_local}

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

    def _loop_locals(self) -> dict[str, int]:
        """Varying non-parameter registers that are iteration-local:
        ``name -> id(While)``.  The program-order event list is walked
        once; a register qualifies when its first event defines it
        directly in one loop's ``cond_body`` or ``body``, every other
        def of it sits there too, and every event lies inside that
        loop."""
        events: list[tuple[str, bool, int | None, tuple]] = []

        def reads(ins):
            return [v.name for k, v in vars(ins).items()
                    if k != "dst" and isinstance(v, Register)]

        def walk(body, loops, home):
            for ins in body:
                if isinstance(ins, While):
                    inner = loops + (id(ins),)
                    walk(ins.cond_body, inner, id(ins))
                    events.append((ins.cond.name, False, None, inner))
                    walk(ins.body, inner, id(ins))
                    continue
                for name in reads(ins):
                    events.append((name, False, None, loops))
                if isinstance(ins, If):
                    walk(ins.then_body, loops, None)
                    walk(ins.else_body, loops, None)
                    continue
                d = _dst_of(ins)
                if d is not None:
                    events.append((d.name, True, home, loops))
        walk(self.k.body, (), None)
        self.events = events

        loop_of: dict[str, int | None] = {}
        for name, is_def, home, loops in events:
            if name not in loop_of:
                loop_of[name] = home if is_def else None
            loop = loop_of[name]
            if loop is not None and (loop not in loops
                                     or is_def and home != loop):
                loop_of[name] = None
        params = {p.name for p in self.k.params}
        return {name: loop for name, loop in loop_of.items()
                if loop is not None and name in self.varying
                and name not in params}

    def _inductions(self) -> dict[int, tuple]:
        """Loops whose IR admits the prefix form, re-derived:
        ``id(While) -> (i, cmp, S, steps)``.

        The loop sits in no other loop; its ``cond_body`` is one ``Cmp``
        ``i < U`` or ``i <= U`` (``cmp``) whose result nothing else
        mentions; its body ends in ``i = i + S`` (``steps`` is 1 for a
        ``BinOp`` into ``i``, 2 for a ``BinOp`` into a register only the
        closing ``Mov`` mentions), the loop's one def of ``i``; the loop
        assigns neither ``U`` nor ``S``; ``i``, ``U``, ``S`` and the sum
        share one integer dtype; and no event after the loop mentions
        ``i``."""
        out: dict[int, tuple] = {}
        events = self.events
        names = [e[0] for e in events]

        def loops(body, depth):
            for ins in body:
                if isinstance(ins, If):
                    yield from loops(ins.then_body, depth)
                    yield from loops(ins.else_body, depth)
                elif isinstance(ins, While):
                    if depth == 0:
                        yield ins
                    yield from loops(ins.cond_body, depth + 1)
                    yield from loops(ins.body, depth + 1)

        for w in loops(self.k.body, 0):
            cond, body = w.cond_body, w.body
            if not (len(cond) == 1 and isinstance(cond[0], Cmp)
                    and cond[0].op in ("lt", "le")
                    and cond[0].dst.name == w.cond.name
                    and isinstance(cond[0].a, Register) and body):
                continue
            cmp, i = cond[0], cond[0].a
            steps = 2 if isinstance(body[-1], Mov) else 1
            if len(body) < steps:
                continue
            add = body[-steps]
            if not (isinstance(add, BinOp) and add.op == "add"
                    and isinstance(add.a, Register) and add.a.name == i.name
                    and body[-1].dst.name == i.name
                    and (steps == 1 or body[-1].src == add.dst != i)):
                continue
            step = add.b
            inside = [k for k, e in enumerate(events) if id(w) in e[3]]
            defs = {e[0] for k in inside for e in [events[k]] if e[1]}
            if (sum(1 for k in inside if events[k][1]
                    and events[k][0] == i.name) != 1
                    or any(isinstance(op, Register) and op.name in defs
                           for op in (cmp.b, step))
                    or i.name in names[inside[-1] + 1:]
                    or names.count(cmp.dst.name) != 2
                    or steps == 2 and names.count(add.dst.name) != 2
                    or not i.dtype.is_integer
                    or any(op.dtype.np_dtype != i.dtype.np_dtype
                           for op in (cmp.b, step, add.dst))):
                continue
            out[id(w)] = (i, cmp, step, steps)
        return out


@dataclass
class _APrefix:
    """A lane-prefix claim derived from a comparison: lanes [0, thr)."""

    kind: str       # "lin" (batch-linear) | "block" (per-block prefix)
    d0: int
    dfb: int
    cbl: int
    off: int
    u: tuple        # ("reg", name) | ("const", value)


@dataclass
class _AVal:
    """Abstract value of one IR register at one program point.

    With ``aff`` set, ``sym`` names the register the affine's one
    symbol stands for (in an induction loop's trip, a pointer and the
    trip's offset may sum into one symbol), ``lo``/``hi`` bound the
    symbol-free part over every lane, and ``guards`` are the
    no-wraparound conjuncts each step of the value's chain needs:
    ``("ge", dmin, form, lo)`` spells ``dmin <= <form> + lo`` and
    ``("le", dmax, form, hi)`` spells ``<form> + hi <= dmax``, where
    ``form`` is the step's symbolic part, ``((atom, coeff), ...)``.
    """

    dtype: object = None
    uniform: bool = False
    const: int | None = None
    aff: Affine | None = None
    prefix: _APrefix | None = None
    src_reg: str | None = None   # provenance for sym minting
    sym: str | None = None
    lo: int = 0
    hi: int = 0
    guards: tuple = ()


def _int_lo_hi(dt) -> tuple[int, int]:
    bits = dt.itemsize * 8
    if dt.np_dtype.kind == "u" or dt.is_pred:
        return 0, (1 << bits) - 1
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _const_in_range(value: int, dt) -> int | None:
    if dt is None or not dt.is_integer:
        return None
    lo, hi = _int_lo_hi(dt)
    return value if lo <= value <= hi else None


def _model(v: _AVal) -> _AVal | None:
    """The value with its affine model, minting a sym atom when it is a
    uniform integer register whose runtime value we cannot fold."""
    if v.aff is not None:
        return v
    if v.const is not None:
        return _AVal(aff=Affine.of_const(v.const), lo=v.const, hi=v.const)
    if (v.uniform and v.dtype is not None and v.dtype.is_integer
            and v.src_reg is not None):
        return _AVal(aff=Affine.of_atom(f"sym:{v.src_reg}"),
                     sym=v.src_reg)
    return None


def _pure_const(v: _AVal) -> int | None:
    if v.const is None or v.aff is not None and (
            v.sym is not None or not v.aff.is_const):
        return None
    return v.const


def _sym_atoms(aff: Affine) -> list[str]:
    return [a for a in aff.atoms if a.startswith("sym:")]


def _sym_form(aff: Affine) -> tuple:
    """The symbolic part of an affine, as sorted ``(atom, coeff)``."""
    return tuple(sorted((a, aff.coeff(a)) for a in _sym_atoms(aff)))


def _bounded(out: _AVal, m: _AVal, dt) -> None:
    """Mirror of the compiler's ``_bounded``: give ``out`` the model
    ``m`` only if the value provably fits ``dt``.  A symbol-free model
    must fit statically; one with a symbol gets this step's pair of
    no-wraparound conjuncts, at most 8 in all."""
    dmin, dmax = _int_lo_hi(dt)
    guards = tuple(dict.fromkeys(m.guards))
    if m.sym is None:
        if m.lo < dmin or m.hi > dmax or guards:
            return
    else:
        form = _sym_form(m.aff)
        guards = tuple(dict.fromkeys(
            guards + (("ge", dmin, form, m.lo), ("le", dmax, form, m.hi))))
        if len(guards) > 8:
            return
    out.aff, out.sym, out.lo, out.hi, out.guards = (m.aff, m.sym, m.lo,
                                                    m.hi, guards)


def _binop_model(op: str, a: _AVal, b: _AVal, out: _AVal, dst_dt) -> None:
    """Mirror of the compiler's affine propagation: integer add/sub of
    models with at most one symbol between them (two when one carries
    an induction loop's trip offset, ``sym:@<trips>``), and mul by
    exactly one pure constant, each step bounded to ``dst_dt``."""
    if dst_dt is None or not dst_dt.is_integer:
        return
    if op == "mul":
        fa, fb = _pure_const(a), _pure_const(b)
        if (fa is None) == (fb is None):
            return
        base, f = (b, fa) if fa is not None else (a, fb)
        m = _model(base)
        if m is None:
            return
        lo, hi = sorted((m.lo * f, m.hi * f))
        _bounded(out, _AVal(aff=m.aff.scale(f), sym=m.sym, lo=lo, hi=hi,
                            guards=m.guards), dst_dt)
        return
    if op not in ("add", "sub"):
        return
    ma, mb = _model(a), _model(b)
    if ma is None or mb is None:
        return
    sym = ma.sym or mb.sym
    if ma.sym is not None and mb.sym is not None:
        if not any(atom.startswith("sym:@") for atom in
                   _sym_atoms(ma.aff) + _sym_atoms(mb.aff)):
            return
        sym = f"{ma.sym}{'+' if op == 'add' else '-'}{mb.sym}"
    if op == "add":
        aff, lo, hi = ma.aff + mb.aff, ma.lo + mb.lo, ma.hi + mb.hi
    else:
        aff, lo, hi = ma.aff - mb.aff, ma.lo - mb.hi, ma.hi - mb.lo
    _bounded(out, _AVal(aff=aff, sym=sym, lo=lo, hi=hi,
                        guards=ma.guards + mb.guards), dst_dt)


def _binop_const(op: str, a: _AVal, b: _AVal, dst_dt) -> int | None:
    if a.const is None or b.const is None:
        return None
    if op == "add":
        v = a.const + b.const
    elif op == "sub":
        v = a.const - b.const
    elif op == "mul":
        v = a.const * b.const
    else:
        return None
    return _const_in_range(v, dst_dt)


def _cmp_prefix(op: str, a: _AVal, b: _AVal, bt: int) -> _APrefix | None:
    """Mirror of the compiler's prefix derivation for fast gated Ifs."""
    if op not in ("lt", "le", "gt", "ge"):
        return None
    if (a.dtype is None or b.dtype is None
            or a.dtype.np_dtype != b.dtype.np_dtype
            or not a.dtype.is_integer):
        return None
    if not a.uniform and b.uniform:
        av, u, off = a, b, {"lt": 0, "le": 1}.get(op)
    elif not b.uniform and a.uniform:
        av, u, off = b, a, {"gt": 0, "ge": 1}.get(op)
    else:
        return None
    if off is None:
        return None
    aff = av.aff
    if aff is None or av.sym is not None or av.guards:
        return None
    cbl = aff.coeff("t")
    crow = aff.coeff("row")
    if cbl <= 0:
        return None
    if crow == cbl * bt:
        kind = "lin"
    elif crow == 0:
        kind = "block"
    else:
        return None
    if u.const is not None:
        uval = ("const", u.const)
    elif u.src_reg is not None:
        uval = ("reg", u.src_reg)
    else:
        return None
    return _APrefix(kind, aff.const, aff.coeff("fb"), cbl, off, uval)


# ---------------------------------------------------------------------------
# Phase 2 — generated-program matcher
# ---------------------------------------------------------------------------

#: Expected callee text per BinOp op (dtype-dependent entries handled in
#: code: div/rem pick the float or integer helper by result dtype,
#: and/or/xor pick logical vs bitwise by pred-ness).
_BINOP_CALLEES = {
    "add": "np.add", "sub": "np.subtract", "mul": "np.multiply",
    "min": "np.minimum", "max": "np.maximum", "pow": "np.power",
    "shl": "np.left_shift", "shr": "np.right_shift",
}
_UNARY_CALLEES = {
    "neg": "np.negative", "abs": "np.abs", "sqrt": "np.sqrt",
    "rsqrt": "np.sqrt", "exp": "np.exp", "log": "np.log", "sin": "np.sin",
    "cos": "np.cos", "tanh": "np.tanh", "floor": "np.floor",
    "ceil": "np.ceil", "round": "np.rint", "not": "np.logical_not",
    "bitnot": "np.bitwise_not",
}
_CMP_CALLEES = {
    "eq": "np.equal", "ne": "np.not_equal", "lt": "np.less",
    "le": "np.less_equal", "gt": "np.greater", "ge": "np.greater_equal",
}

_PURE_KINDS = (Mov, UnaryOp, BinOp, Cmp, Select, Cvt, SpecialRead)


class _Stop(Exception):
    """Abort matching after a fatal (error-severity) finding."""


@lru_cache(maxsize=4096)
def _norm(text: str) -> str:
    """Canonical rendering of an expression for text comparison (the
    same few texts recur in every program, so renderings are kept)."""
    try:
        return ast.unparse(ast.parse(text, mode="eval"))
    except SyntaxError:
        return text


def _is_counter_bump(stmt, name: str) -> bool:
    return (isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.op, ast.Add)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name)


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _is_release(stmt) -> bool:
    """``a = b = None``: a top-level end-of-life rebinding of locals."""
    return (isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is None
            and all(isinstance(t, ast.Name) for t in stmt.targets))


def _assign_target(stmt) -> str | None:
    if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)):
        return stmt.targets[0].id
    return None


def _assigned_local(stmt) -> str | None:
    """The register local a statement binds: ``rN = ...``, or the
    ``if rN is None:`` first-assignment form of a merge register."""
    text = (_unparse(stmt.test) if isinstance(stmt, ast.If)
            else f"{_assign_target(stmt)} is None")
    m = re.fullmatch(r"(r\d+) is None", text)
    return m and m.group(1)


def _register_targets(nodes) -> list[str]:
    """The register locals (``rN``) bound by the assignments in
    ``nodes`` (a statement list's :meth:`_Checker._subtree`)."""
    return list(dict.fromkeys(
        t for n in nodes if type(n) is ast.Assign
        for t in [_assign_target(n)]
        if t and t.startswith("r") and t[1:].isdigit()))


def _is_temp(name: str | None, prefix: str) -> bool:
    return (name is not None and name.startswith("_" + prefix)
            and name[len(prefix) + 1:].isdigit())


def _find_calls(nodes, callee: str) -> list[ast.Call]:
    """The calls of ``callee`` among ``nodes``."""
    return [n for n in nodes
            if type(n) is ast.Call and _func_text(n.func) == callee]


def _expected_value_callee(ins) -> str | None:
    """The intrinsic the payload of a value instruction must contain."""
    if isinstance(ins, BinOp):
        op = ins.op
        if op == "div":
            return "np.divide" if ins.dst.dtype.is_float else "_cdiv"
        if op == "rem":
            return "np.mod" if ins.dst.dtype.is_float else "_crem"
        if op in ("and", "or", "xor"):
            family = ("logical" if ins.dst.dtype.is_pred else "bitwise")
            return f"np.{family}_{op}"
        return _BINOP_CALLEES.get(op)
    if isinstance(ins, UnaryOp):
        return _UNARY_CALLEES.get(ins.op)
    if isinstance(ins, Cmp):
        return _CMP_CALLEES.get(ins.op)
    if isinstance(ins, Select):
        return "np.where"
    return None


def _linform(node: ast.AST, sy: dict[str, str]) -> dict | None:
    """Parse a generated base-address expression into a linear form over
    {"1", "fb", ("sym", text)} or None when it is not linear."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return None
        return {"1": node.value}
    if isinstance(node, ast.Name):
        if node.id == "_fb":
            return {"fb": 1}
        if _is_temp(node.id, "sy"):
            return {("sym", sy.get(node.id, node.id)): 1}
        return {("sym", node.id): 1}
    if isinstance(node, ast.Call):
        fn = _unparse(node.func)
        if fn == "int" and len(node.args) == 1:
            inner = node.args[0]
            if isinstance(inner, ast.Name) and _is_temp(inner.id, "sy"):
                return {("sym", sy.get(inner.id, inner.id)): 1}
            const = _linform(inner, sy)
            if const is not None and set(const) <= {"1"}:
                return const  # int(np.int64(100)): an immediate bound
            return {("sym", _norm(_unparse(inner))): 1}
        if (fn.startswith("np.") and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, int)):
            return {"1": node.args[0].value}
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _linform(node.operand, sy)
        if inner is None:
            return None
        return {k: -v for k, v in inner.items()}
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add,
                                                            ast.Sub)):
        a = _linform(node.left, sy)
        b = _linform(node.right, sy)
        if a is None or b is None:
            return None
        sign = 1 if isinstance(node.op, ast.Add) else -1
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + sign * v
        return {k: v for k, v in out.items() if v != 0}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        a = _linform(node.left, sy)
        b = _linform(node.right, sy)
        if a is None or b is None:
            return None
        for const_side, var_side in ((a, b), (b, a)):
            if set(const_side) <= {"1"}:
                c = const_side.get("1", 0)
                return {k: v * c for k, v in var_side.items() if v * c != 0}
        return None
    return None


@dataclass
class _MCtx:
    """Matching context: the active execution multiplicity and mask."""

    full: bool
    n_text: str            # normalized text the `_ic +=` bump must use
    arr: list              # one-slot cell: mask local text, None = unbound
    k: str | None = None   # prefix-gate population local, prefix arms only
    per_block: bool = False  # `k` counts threads per block, not lanes

    def bind_mask(self, text: str) -> bool:
        """Bind or check the context's mask text; False on conflict."""
        if self.full:
            return text == "None"
        if self.arr[0] is None:
            self.arr[0] = text
            return True
        return self.arr[0] == text


_VIEW_ROOTS = ("_gv_", "_sv_", "_s2_", "_vw")


def _view_store_targets(nodes) -> int:
    """Subscript stores among ``nodes`` whose root is a memory view
    (not a temp)."""
    count = 0
    for node in nodes:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for t in targets:
            root = t
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if (isinstance(t, ast.Subscript) and isinstance(root, ast.Name)
                    and root.id.startswith(_VIEW_ROOTS)):
                count += 1
    return count


class _Checker:
    """Match one generated trace program against its kernel IR."""

    def __init__(self, kernel, source: str, warp_size, grid, block):
        self.k = kernel
        self.source = source
        self.info = _IRInfo(kernel, warp_size, grid, block)
        self.env: dict[str, _AVal] = {}
        self.diags: list[Diagnostic] = []
        self.exact = True
        self.sy: dict[str, str] = {}
        self.param_local: dict[str, str] = {}
        self.local_map: dict[str, str] = {}   # local -> IR register name
        self.fast_gate_ifs: list[ast.If] = []
        self.silent: set[int] = set()   # metered-only induction steps
        self.index: dict[int, list] = {}
        self.loop_releases: dict[int, set[str]] = {}
        self.shared_cursor = 0
        self.lines = source.split("\n")

    def _subtree(self, stmts) -> list:
        """Every node under ``stmts``, each statement's list gathered
        once per program (matchers ask about the same chunks again)."""
        out = []
        for st in stmts:
            got = self.index.get(id(st))
            if got is None:
                got = self.index[id(st)] = _nodes(st)
            out += got
        return out

    def _tokens(self, node) -> list[str]:
        """The identifiers on a node's source lines: a superset of the
        names it reads, so a walk for some names can be skipped when
        none is among them."""
        text = "\n".join(self.lines[node.lineno - 1:node.end_lineno])
        return _IDENT_RE.findall(text)

    # -- reporting ---------------------------------------------------------

    def _tc01(self, path: str, msg: str, hint: str = "") -> None:
        self.diags.append(make("TC01", self.k.name, path, msg, hint))
        raise _Stop

    def _tc03(self, path: str, msg: str) -> None:
        self.diags.append(make("TC03", self.k.name, path, msg))

    def _tc04(self, path: str, msg: str) -> None:
        self.exact = False
        self.diags.append(make("TC04", self.k.name, path, msg))

    # -- abstract environment ----------------------------------------------

    def _read_op(self, op) -> _AVal:
        if isinstance(op, Imm):
            c = _const_in_range(int(op.value), op.dtype) \
                if op.dtype.is_integer else None
            if c is None:
                return _AVal(op.dtype, True)
            return _AVal(op.dtype, True, c, Affine.of_const(c), lo=c, hi=c)
        v = self.env.get(op.name)
        if v is None:
            v = _AVal(self.info.regdt.get(op.name),
                      op.name not in self.info.varying)
        return replace(v, src_reg=op.name)

    def _strip(self, names) -> None:
        for n in names:
            self.env[n] = _AVal(self.info.regdt.get(n),
                                n not in self.info.varying)

    def _assigned_in(self, body) -> set[str]:
        out: set[str] = set()
        for ins in body:
            d = _dst_of(ins)
            if d is not None:
                out.add(d.name)
            if isinstance(ins, If):
                out |= self._assigned_in(ins.then_body)
                out |= self._assigned_in(ins.else_body)
            elif isinstance(ins, While):
                out |= self._assigned_in(ins.cond_body)
                out |= self._assigned_in(ins.body)
        return out

    def _astep(self, ins) -> None:
        """Abstractly execute one value instruction (mirrors the
        compiler's const/affine/prefix propagation, including the
        fresh-cast degradation in ``_assign``)."""
        dst = _dst_of(ins)
        if dst is None:
            return
        name, dt = dst.name, dst.dtype
        out = _AVal(dt, name not in self.info.varying)
        vdt = None          # the dtype the value expression produces
        if isinstance(ins, Mov):
            s = self._read_op(ins.src)
            vdt = s.dtype
            out = replace(s, dtype=dt, uniform=out.uniform, src_reg=None)
        elif isinstance(ins, BinOp):
            a, b = self._read_op(ins.a), self._read_op(ins.b)
            if (a.dtype is not None and b.dtype is not None
                    and a.dtype.np_dtype == b.dtype.np_dtype):
                vdt = a.dtype
            if ins.op == "div" and (vdt is None or not vdt.is_float):
                vdt = None if not dt.is_float else vdt
            out.const = _binop_const(ins.op, a, b, dt)
            _binop_model(ins.op, a, b, out, dt)
        elif isinstance(ins, Cmp):
            a, b = self._read_op(ins.a), self._read_op(ins.b)
            vdt = dtypes.PRED
            out.prefix = _cmp_prefix(ins.op, a, b, self.info.bt)
        elif isinstance(ins, Cvt):
            s = self._read_op(ins.src)
            vdt = dt
            if (dt.is_integer and s.dtype is not None
                    and s.dtype.is_integer):
                if s.aff is not None:
                    _bounded(out, s, dt)
                if s.const is not None:
                    out.const = _const_in_range(s.const, dt)
        elif isinstance(ins, SpecialRead):
            w = ins.which
            vdt = dt
            if w in self.info.dims or w == "warpsize":
                out.const = self.info.dims.get(w, self.info.warp)
                out.aff = Affine.of_const(out.const)
                out.lo = out.hi = out.const
            elif (w == "tid.x" and self.info.block[1] == 1
                    and self.info.block[2] == 1):
                out.aff, out.hi = Affine.of_atom("t"), self.info.bt - 1
            elif (w == "ctaid.x" and self.info.grid[1] == 1
                    and self.info.grid[2] == 1
                    and self.info.total_blocks - 1 <= 0xFFFFFFFF):
                out.aff = Affine.make(0, {"fb": 1, "row": 1})
                out.hi = self.info.total_blocks - 1
        elif isinstance(ins, SharedAlloc):
            align = ins.dtype.itemsize
            self.shared_cursor = -(-self.shared_cursor // align) * align
            out.const = out.lo = out.hi = self.shared_cursor
            out.aff = Affine.of_const(out.const)
            self.shared_cursor += align * ins.count
            vdt = dt
        # mirror _assign's fresh-cast degradation
        fresh = vdt is None or vdt.np_dtype != dt.np_dtype
        if fresh:
            out.aff = out.prefix = out.sym = None
            out.guards = ()
            if vdt is not None:
                out.const = None
            elif out.const is not None:
                out.const = _const_in_range(out.const, dt)
        self.env[name] = out

    # -- prelude / epilogue ------------------------------------------------

    _PRELUDE_HEAD = ("_L = B.lanes", "_nB = B.n_blocks",
                     "_fb = int(B.first_block)", "_ic = 0", "_fl = 0",
                     "_bld = 0", "_bst = 0", "_ao = 0", "_ba = 0")

    def _match_prelude(self, stmts) -> int:
        for i, want in enumerate(self._PRELUDE_HEAD):
            if i >= len(stmts) or _unparse(stmts[i]) != want:
                self._tc01("prelude", f"expected `{want}` at prelude "
                           f"statement {i}")
        i = len(self._PRELUDE_HEAD)
        gv_seen: set[str] = set()
        sv_seen: set[str] = set()
        param_idx = 0
        merge_nones = 0
        while i < len(stmts) and not _is_counter_bump(stmts[i], "_ic") \
                and not isinstance(stmts[i], ast.Pass):
            s = stmts[i]
            tgt = _assign_target(s)
            i += 1
            if tgt is None:
                self._tc01("prelude", "non-assignment before first "
                           "instruction")
            elif tgt in ("_sh", "_svs") or tgt.startswith(("_gv_", "_sv_",
                                                           "_s2_")):
                if tgt.startswith("_gv_"):
                    gv_seen.add(tgt[4:])
                elif tgt.startswith("_sv_"):
                    sv_seen.add(tgt[4:])
                want = self._view_binding(tgt)
                if _unparse(s.value) != _norm(want):
                    self._tc01("prelude", f"`{tgt}` bound to "
                               f"`{_unparse(s.value)}`, expected `{want}`")
            elif tgt.startswith("r") and tgt[1:].isdigit():
                if (isinstance(s.value, ast.Constant)
                        and s.value.value is None):
                    merge_nones += 1
                else:
                    self._match_param_bind(tgt, s, param_idx)
                    param_idx += 1
            else:
                self._tc01("prelude", f"unexpected binding `{tgt}`")
        if gv_seen != self.info.global_dts:
            self._tc01("prelude", "global views bound for "
                       f"{sorted(gv_seen)}, IR touches "
                       f"{sorted(self.info.global_dts)}")
        if sv_seen != self.info.shared_dts:
            self._tc01("prelude", "shared views bound for "
                       f"{sorted(sv_seen)}, IR touches "
                       f"{sorted(self.info.shared_dts)}")
        if param_idx != len(self.k.params):
            self._tc01("prelude", f"{param_idx} parameter bindings for "
                       f"{len(self.k.params)} kernel parameters")
        pnames = {p.name for p in self.k.params}
        want_nones = len([m for m in self.info.merge if m not in pnames])
        if merge_nones != want_nones:
            self._tc01("prelude", f"{merge_nones} merge slots initialised, "
                       f"analysis requires {want_nones}")
        return i

    def _view_binding(self, tgt: str) -> str:
        """The one value the prelude may bind a memory-view local to: a
        typed view of global memory, or of the shared arena whose rows
        are the interpreter's shared row stride."""
        if tgt.startswith("_gv_"):
            return f"X._gview(DT['{tgt[4:]}'])"
        stride = self.info.shared_stride
        if stride is None:
            self._tc01("prelude", f"shared view `{tgt}` bound for a kernel "
                       "that touches no shared memory")
        if tgt == "_sh":
            return "X._shared_arena(_nB)"
        if tgt == "_svs":
            pairs = ", ".join(f"'{d}': _sv_{d}"
                              for d in sorted(self.info.shared_dts))
            return f"{{{pairs}}}"
        dtn = tgt[4:]
        if tgt.startswith("_sv_"):
            return f"_sh.reshape(-1).view(np.{_np_name(SCALAR_TYPES[dtn])})"
        return (f"_sv_{dtn}.reshape(_nB, "
                f"{stride // SCALAR_TYPES[dtn].itemsize})")

    def _match_param_bind(self, local, stmt, idx) -> None:
        if idx >= len(self.k.params):
            self._tc01("prelude", "more parameter bindings than parameters")
        p = self.k.params[idx]
        self.param_local[local] = p.name
        npn = _np_name(self.info.regdt[p.name])
        if p.name in self.info.varying:
            want = f"np.full(_L, args[{idx}], dtype=np.{npn})"
        else:
            want = f"np.full((), args[{idx}], dtype=np.{npn})[()]"
        if _unparse(stmt.value) != want:
            self._tc01("prelude", f"parameter `{p.name}` bound as "
                       f"`{_unparse(stmt.value)}`, expected `{want}`")

    _EPILOGUE = (("instructions", "_ic"), ("flops", "_fl"),
                 ("bytes_loaded", "_bld"), ("bytes_stored", "_bst"),
                 ("atomic_ops", "_ao"), ("barriers", "_ba"))

    def _match_epilogue(self, stmts) -> None:
        for s, (attr, ctr) in zip(stmts, self._EPILOGUE):
            want = f"stats.{attr} += {ctr}"
            if _unparse(s) != want:
                self._tc01("epilogue", f"expected `{want}`, found "
                           f"`{_unparse(s)}`")

    # -- region matching ---------------------------------------------------

    def _match_body(self, ir_body, stmts, ctx: _MCtx, path: str) -> None:
        if not ir_body:
            real = [s for s in stmts if not isinstance(s, ast.Pass)]
            if real:
                self._tc01(path, "code emitted for an empty IR body")
            return
        chunks: list[list] = []
        cur: list | None = None
        for s in stmts:
            if _is_counter_bump(s, "_ic"):
                cur = [s]
                chunks.append(cur)
            elif cur is None:
                self._tc01(path, "statement before the region's first "
                           "instruction metering bump")
            else:
                cur.append(s)
        if len(chunks) != len(ir_body):
            self._tc01(path, f"{len(chunks)} emitted instructions for "
                       f"{len(ir_body)} IR instructions")
        for k, (ins, chunk) in enumerate(zip(ir_body, chunks)):
            self._match_ins(ins, chunk, ctx,
                            f"{path}[{k}] {type(ins).__name__}")

    def _match_ins(self, ins, chunk, ctx: _MCtx, path: str) -> None:
        value = chunk[0].value
        got_n = (value.id if type(value) is ast.Name
                 else _norm(_unparse(value)))
        if got_n != ctx.n_text:
            self._tc01(path, f"instruction metering `_ic += {got_n}` does "
                       f"not match context multiplicity `{ctx.n_text}`")
        if id(ins) in self.silent:
            if len(chunk) > 1:
                self._tc01(path, "an induction step of a prefix loop emits "
                           "code; its value is the trip's offset")
            return
        payload = []
        fl_seen = False
        for s in chunk[1:]:
            tgt = _assign_target(s)
            if _is_temp(tgt, "sy"):
                val = s.value
                if (isinstance(val, ast.Call)
                        and _unparse(val.func) == "int"
                        and len(val.args) == 1):
                    self.sy[tgt] = _norm(_unparse(val.args[0]))
                continue
            if _is_counter_bump(s, "_fl"):
                fl_seen = True
                if _norm(_unparse(s.value)) != ctx.n_text:
                    self._tc01(path, "flop metering does not match context "
                               "multiplicity")
                continue
            payload.append(s)
        expect_fl = (isinstance(ins, (BinOp, UnaryOp))
                     and ins.dst.dtype.is_float)
        if fl_seen != expect_fl:
            self._tc01(path, "flop metering "
                       + ("missing for" if expect_fl else "charged for")
                       + " this instruction")
        if isinstance(ins, Barrier):
            self._match_barrier(payload, ctx, path)
        elif isinstance(ins, (Load, Store)):
            self._match_mem(ins, payload, ctx, path)
        elif isinstance(ins, AtomicOp):
            self._match_atomic(ins, payload, ctx, path)
        elif isinstance(ins, If):
            self._match_if(ins, payload, ctx, path)
        elif isinstance(ins, While):
            self._match_while(ins, payload, ctx, path)
        else:
            self._match_value(ins, payload, ctx, path)

    # -- leaf matchers -----------------------------------------------------

    def _match_value(self, ins, payload, ctx: _MCtx, path: str) -> None:
        callee = _expected_value_callee(ins)
        dst = _dst_of(ins)
        if not payload:
            name = dst.name if dst else "?"
            if (dst is None or not isinstance(ins, _PURE_KINDS)
                    or name not in self.info.varying):
                self._tc01(path, "instruction has no emission at its site "
                           "and is not a legal deferral candidate")
            elif self.info.sites.get(name, 0) != 1:
                self._tc03(path, f"sunk register `{name}` fails the "
                           "single-static-site claim: assigned at "
                           f"{self.info.sites.get(name, 0)} sites")
        else:
            nodes = self._subtree(payload)
            if callee is not None and not _find_calls(nodes, callee):
                self._tc01(path, f"payload never applies `{callee}`; the "
                           "generated value cannot match the IR operation")
            self._check_merge_masks(payload, ctx, path)
            if _view_store_targets(nodes):
                self._tc01(path, "value instruction writes to a memory "
                           "view")
            if dst is not None:
                # The payload's register-local assignment target *is* the
                # destination register's local: learn the local <-> IR
                # register binding so later symbol-identity proofs (base
                # addresses, prefix-gate bounds) resolve non-parameter
                # registers too.  Value payloads never contain deferral
                # splices, so every r-local target here belongs to `dst`.
                for loc in _register_targets(nodes):
                    self.local_map[loc] = dst.name
                    self._check_assign_form(dst.name, loc, payload, ctx,
                                            path)
        self._astep(ins)

    def _check_assign_form(self, reg: str, loc: str, stmts, ctx: _MCtx,
                           path: str) -> None:
        """A merge register at a masked site is bound whole only under
        ``if loc is None:`` and merged in the ``else`` arm, from the value
        the first arm binds (a masked copy reads the source directly);
        every other register is a plain rebind."""
        merge = reg in self.info.merge and not ctx.full
        test = f"{loc} is None"
        text = "\n".join(self.lines[stmts[0].lineno - 1:stmts[-1].end_lineno])
        if not merge and test not in text:
            return
        nodes = self._subtree(stmts)
        firsts = [n for n in nodes if type(n) is ast.If
                  and type(n.test) is ast.Compare
                  and type(n.test.left) is ast.Name
                  and n.test.left.id == loc and _unparse(n.test) == test]
        if not merge:
            if firsts:
                self._tc01(path, f"`{reg}` needs no merge slot, but its "
                           f"site tests `{test}`")
            return
        inside = {id(n) for f in firsts for n in self._subtree(f.body)}
        plain = any(type(n) is ast.Assign and _assign_target(n) == loc
                    and id(n) not in inside for n in nodes)
        if plain or not firsts or not all(f.orelse for f in firsts):
            self._tc01(path, f"merge register `{reg}` is rebound whole at a "
                       "masked site; the interpreter keeps its inactive "
                       "lanes")
        for f in firsts:
            whole = _unparse(f.body[-1].value) if isinstance(
                f.body[-1], ast.Assign) else None
            for call in _find_calls(self._subtree(f.orelse), "np.copyto"):
                src = _unparse(call.args[1]) if len(call.args) == 2 else ""
                if (_unparse(call.args[0]) != loc or whole not in (
                        src, _norm(f"({src}).copy()"))):
                    self._tc01(path, f"merge of `{reg}` copies `{src}` into "
                               f"`{_unparse(call.args[0])}`, its first "
                               f"assignment binds `{whole}`")

    def _check_merge_masks(self, stmts, ctx: _MCtx, path: str) -> None:
        """Every masked merge (``np.copyto(..., where=m)``) uses the
        active context mask."""
        for call in _find_calls(self._subtree(stmts), "np.copyto"):
            for kw in call.keywords:
                if kw.arg == "where" and not ctx.bind_mask(
                        _norm(_unparse(kw.value))):
                    self._tc01(path, "merge writes under a mask that "
                               "is not the active context mask")

    def _match_barrier(self, payload, ctx: _MCtx, path: str) -> None:
        if len(payload) != 1 or not _is_counter_bump(payload[0], "_ba"):
            self._tc01(path, "barrier must meter `_ba` and nothing else")
        rhs = payload[0].value
        if ctx.full:
            if _norm(_unparse(rhs)) != "_nB":
                self._tc01(path, "full-context barrier must charge one "
                           "barrier per block")
        else:
            calls = _find_calls(_nodes(rhs), "_barrier")
            if len(calls) != 1 or len(calls[0].args) != 3:
                self._tc01(path, "masked barrier must go through the "
                           "_barrier runtime check")
            if not ctx.bind_mask(_norm(_unparse(calls[0].args[2]))):
                self._tc01(path, "barrier mask is not the active context "
                           "mask")

    def _match_mem(self, ins, payload, ctx: _MCtx, path: str) -> None:
        is_load = isinstance(ins, Load)
        ctr = "_bld" if is_load else "_bst"
        dt = ins.dst.dtype if is_load else ins.src.dtype
        isz = dt.itemsize
        is_global = ins.space == MemSpace.GLOBAL
        bumps = [s for s in payload if _is_counter_bump(s, ctr)]
        if len(bumps) != 1:
            self._tc01(path, f"expected exactly one `{ctr}` byte-metering "
                       f"bump, found {len(bumps)}")
        rhs = bumps[0].value
        if not (isinstance(rhs, ast.BinOp) and isinstance(rhs.op, ast.Mult)
                and isinstance(rhs.right, ast.Constant)
                and rhs.right.value == isz):
            self._tc01(path, f"byte metering does not multiply by the "
                       f"element size {isz}")
        if _norm(_unparse(rhs.left)) != ctx.n_text:
            self._tc01(path, "byte metering does not match context "
                       "multiplicity")
        body = [s for s in payload if s is not bumps[0]]
        stores = _view_store_targets(self._subtree(body))
        want_stores = 0
        fast_assign, gate = self._fast_gate(body, path)
        if fast_assign is not None and self._addr_uniform(ins):
            if not is_load:
                self._tc01(path, "uniform-address fast path on a store; "
                           "only loads and atomics have one")
            idx = self._check_uniform_gate(ins, fast_assign, gate, isz,
                                           path)
            self._check_uniform_load(ins, idx, gate.body[1:], ctx, path)
            self._check_resolve(ins, gate.orelse, ctx, path, store=False)
        elif fast_assign is not None:
            self.fast_gate_ifs.append(gate)
            self._check_contig(ins, fast_assign, gate, ctx, path)
            self._check_base(ins, fast_assign.value, isz, ctx, path)
            self._check_resolve(ins, gate.orelse, ctx, path,
                                store=not is_load)
            want_stores = 0 if is_load else 2
        else:
            self._check_resolve(ins, body, ctx, path, store=not is_load)
            want_stores = 0 if is_load else 1
        if stores != want_stores:
            self._tc01(path, f"{stores} memory-view stores emitted, "
                       f"semantics require {want_stores}")
        d = _dst_of(ins)
        if d is not None:
            # The generic path ends by assigning the loaded register.
            loc = _assigned_local(body[-1] if gate is None
                                  else gate.orelse[-1])
            if loc is not None:
                self.local_map[loc] = d.name
                self._check_assign_form(d.name, loc, body, ctx, path)
            self.env[d.name] = _AVal(d.dtype,
                                     d.name not in self.info.varying)

    def _check_contig(self, ins, fast_assign, gate, ctx: _MCtx,
                      path: str) -> None:
        """Prove a contiguous fast path as exactly as a uniform one: its
        guard admits exactly the run the arm touches, and the arm indexes
        from the guarded base and reads (or writes) ``[idx:idx + k]`` of
        the IR's space and dtype, ``k`` the context's run length, parking
        a load's inactive lanes on element 0 and storing the IR's
        source."""
        is_load = isinstance(ins, Load)
        dt = ins.dst.dtype if is_load else ins.src.dtype
        dtn, isz, bt = dt.name, dt.itemsize, self.info.bt
        is_global = ins.space == MemSpace.GLOBAL
        # Elements covered per batch (global) or per block (shared).
        k = ("_L" if is_global else str(bt)) if ctx.full else ctx.k
        if k is None or not ctx.full and ctx.per_block == is_global:
            self._tc01(path, f"contiguous fast path on a {ins.space} access "
                       "under a mask that is no prefix of its kind")
        idx = self._check_guard(ins, _assign_target(fast_assign), gate, isz,
                                k, path, base=fast_assign.value)
        run = (f"_gv_{dtn}[{idx}:{idx} + {k}]" if is_global
               else f"_s2_{dtn}[:, {idx}:{idx} + {k}]")
        arm = gate.body[1:]
        if is_load:
            lines = self._contig_load_lines(ins, arm, gate.orelse, run, k,
                                            ctx, path)
        else:
            lines = self._contig_store_lines(ins, gate.orelse, run, k, ctx,
                                             path)
        # `lines` are spelled as ast.unparse spells them.
        got_arm = ast.unparse(ast.Module(body=arm,
                                         type_ignores=[])).splitlines()
        for got, want in zip_longest(got_arm, lines, fillvalue="(end)"):
            if got != want:
                self._tc01(path, f"contiguous fast path runs "
                           f"`{got.strip()}` where the IR's {ins.space} "
                           f"{dtn} access needs `{want.strip()}`")

    def _contig_load_lines(self, ins, arm, generic, run: str, k: str,
                           ctx: _MCtx, path: str) -> list[str]:
        """The contiguous load arm, after its index line: every lane of
        the loaded register built as the generic gather builds it."""
        dt = ins.dst.dtype
        dtn, npn, bt = dt.name, _np_name(dt), self.info.bt
        if ins.dst.name not in self.info.varying:
            self._tc01(path, "contiguous fast path loads a uniform register")
        loc = _assigned_local(generic[-1])
        if not arm or loc is None or _assigned_local(arm[-1]) != loc:
            self._tc01(path, "contiguous load arm and generic path assign "
                       "different registers")
        if ctx.full:
            return [f"{loc} = {run}" + (".copy()" if ins.space ==
                                        MemSpace.GLOBAL else ".flatten()")]
        merge = ins.dst.name in self.info.merge
        first = arm[0].body[0] if merge and isinstance(arm[0], ast.If) \
            else arm[0]
        a = _assign_target(first)
        if not _is_temp(a, "a"):
            self._tc01(path, "prefix load arm builds no lane-wide array")
        build = [f"{a} = np.empty(_L, dtype=np.{npn})"]
        if ins.space == MemSpace.GLOBAL:
            build += [f"{a}[:{k}] = {run}", f"{a}[{k}:] = _gv_{dtn}[0]"]
            update = f"{loc}[:{k}] = {run}"
        else:
            a2 = "_a2" + a[2:]
            build += [f"{a2} = {a}.reshape(_nB, {bt})",
                      f"{a2}[:, :{k}] = {run}",
                      f"{a2}[:, {k}:] = _sv_{dtn}[0]"]
            update = f"{loc}.reshape(_nB, {bt})[:, :{k}] = {run}"
        build.append(f"{loc} = {a}")
        if not merge:
            return build
        return ([f"if {loc} is None:"] + ["    " + ln for ln in build]
                + ["else:", f"    {update}"])

    def _contig_store_lines(self, ins, generic, run: str, k: str,
                            ctx: _MCtx, path: str) -> list[str]:
        """The contiguous store arm, after its index line: the IR
        source's active slab, the value the generic path stores."""
        uniform = (isinstance(ins.src, Imm)
                   or ins.src.name not in self.info.varying)
        value = generic[-1].value if isinstance(generic[-1],
                                                ast.Assign) else None
        if not (ctx.full or uniform):
            value = value.value if isinstance(value, ast.Subscript) else None
        if value is None:
            self._tc01(path, "store's generic path writes no source value")
        src = _unparse(value)
        if isinstance(ins.src, Imm):
            if src != _norm(f"np.{_np_name(ins.src.dtype)}"
                            f"({ins.src.value!r})"):
                self._tc01(path, f"store writes `{src}`, the IR stores "
                           f"the immediate {ins.src.value!r}")
        else:
            mapped = self.param_local.get(src, self.local_map.get(src))
            if mapped is not None and mapped != ins.src.name:
                self._tc01(path, f"store writes register `{mapped}`, the "
                           f"IR stores `{ins.src.name}`")
        if uniform:
            slab = src
        elif ins.space == MemSpace.GLOBAL:
            slab = src if ctx.full else f"{src}[:{k}]"
        else:
            slab = (f"np.ascontiguousarray({src})"
                    f".reshape(_nB, {self.info.bt})[:, :{k}]")
        return [f"{run} = {slab}"]

    def _fast_gate(self, stmts, path: str):
        """A fast path's ``_b`` base binding and its guarded branch, or
        ``(None, None)`` when the access has only the generic path."""
        fast_assign = next((s for s in stmts
                            if _is_temp(_assign_target(s), "b")), None)
        if fast_assign is None:
            return None, None
        gate = next((s for s in stmts if isinstance(s, ast.If)), None)
        if gate is None:
            self._tc01(path, "fast-path base bound without a guarded "
                       "branch")
        return fast_assign, gate

    def _check_resolve(self, ins, region, ctx: _MCtx, path: str,
                       store: bool) -> None:
        calls = _find_calls(self._subtree(region), "_resolve")
        if len(calls) != 1 or len(calls[0].args) != 8:
            self._tc01(path, "memory access lacks the single checked "
                       "_resolve generic path")
        call = calls[0]
        dt = ins.dst.dtype if isinstance(ins, Load) else ins.src.dtype
        want_dt = f"DT['{dt.name}']"
        if _unparse(call.args[5]) != want_dt:
            self._tc01(path, f"access resolves dtype "
                       f"`{_unparse(call.args[5])}`, IR requires "
                       f"`{want_dt}`")
        is_global = ins.space == MemSpace.GLOBAL
        a6 = call.args[6]
        if not (isinstance(a6, ast.Constant) and a6.value is is_global):
            self._tc01(path, "access resolves the wrong address space")
        a7 = call.args[7]
        if not (isinstance(a7, ast.Constant) and a7.value is store):
            self._tc01(path, "load/store polarity flag does not match the "
                       "IR operation")
        eff = call.args[4]
        eff_text = ("None" if isinstance(eff, ast.Constant)
                    and eff.value is None else _norm(_unparse(eff)))
        if ctx.full and eff_text != "None":
            self._tc01(path, "full-context access carries a spurious mask")
        if not ctx.full and not ctx.bind_mask(eff_text):
            self._tc01(path, "access mask is not the active context mask")

    def _check_base(self, ins, bexpr, isz, ctx: _MCtx, path: str) -> None:
        addr = self._read_op(ins.addr)
        my = addr.aff
        if my is None:
            self._tc04(path, "cannot derive an address affine for the "
                       "fast-path base; accepting the compiler's "
                       "contiguity claim as a conservative bound")
            return
        is_global = ins.space == MemSpace.GLOBAL
        if my.coeff("t") != isz:
            self._tc01(path, f"fast path claims lane-contiguity but the "
                       f"address lane stride is {my.coeff('t')}, not "
                       f"{isz}")
        want_row = isz * self.info.bt if is_global else 0
        if my.coeff("row") != want_row:
            self._tc01(path, f"fast path claims block stride {want_row} "
                       f"but the address block stride is "
                       f"{my.coeff('row')}")
        lf = _linform(bexpr, self.sy)
        if lf is None:
            self._tc04(path, "fast-path base expression is not linear; "
                       "degrading to a conservative bound")
            return
        syms_gen = {k: v for k, v in lf.items() if isinstance(k, tuple)}
        syms_mine = {a: my.coeff(a) for a in _sym_atoms(my)}
        if len(syms_gen) != len(syms_mine):
            self._tc04(path, "symbolic structure of the base address "
                       "differs from the derived affine; degrading to a "
                       "conservative bound")
            return
        if lf.get("1", 0) != my.const:
            self._tc01(path, f"fast-path base constant {lf.get('1', 0)} "
                       f"differs from the derived affine offset "
                       f"{my.const}")
        if lf.get("fb", 0) != my.coeff("fb"):
            self._tc01(path, f"fast-path first-block coefficient "
                       f"{lf.get('fb', 0)} differs from the derived "
                       f"{my.coeff('fb')}")
        for (_, gtext), gc in syms_gen.items():
            atom = self._sym_atom(gtext)
            if atom is None:
                self._tc04(path, "cannot bind the base address symbol to "
                           "an IR register; coefficient-only proof")
            elif atom not in syms_mine:
                self._tc01(path, f"base address scales register "
                           f"`{atom[4:]}`, IR semantics scale "
                           f"`{', '.join(a[4:] for a in syms_mine)}`")
            elif gc != syms_mine[atom]:
                self._tc01(path, f"symbolic coefficient {gc} differs from "
                           f"the derived {syms_mine[atom]}")

    def _sym_atom(self, text: str) -> str | None:
        """The affine atom a generated symbol's text stands for: an
        induction loop's trip offset (``@<trips>``), or the IR register
        of a local, ``None`` when no local binding is known."""
        if text.startswith("@"):
            return "sym:" + text
        mapped = self.param_local.get(text, self.local_map.get(text))
        return None if mapped is None else "sym:" + mapped

    def _addr_uniform(self, ins) -> bool:
        """Every lane holds the same address (the IR-side uniformity)."""
        return (isinstance(ins.addr, Register)
                and ins.addr.name not in self.info.varying)

    def _check_uniform_gate(self, ins, fast_assign, gate, isz: int,
                            path: str) -> str:
        """Prove a uniform-address gate: its base is the address
        register's one value, its guard admits exactly one legal,
        aligned element of the right size and space, and its fast arm
        indexes that element.  Returns the index temp's name."""
        b = _assign_target(fast_assign)
        val = fast_assign.value
        if not (isinstance(val, ast.Call) and _unparse(val.func) == "int"
                and len(val.args) == 1
                and isinstance(val.args[0], ast.Name)):
            self._tc01(path, "uniform fast-path base is not the value of "
                       "one address register")
        local = val.args[0].id
        mapped = self.param_local.get(local, self.local_map.get(local))
        if mapped is None:
            self._tc04(path, "cannot bind the uniform base to an IR "
                       "register; accepting the compiler's address as a "
                       "conservative bound")
        elif mapped != ins.addr.name:
            self._tc01(path, f"uniform fast path resolves register "
                       f"`{mapped}`, the IR addresses `{ins.addr.name}`")
        return self._check_guard(ins, b, gate, isz, "1", path)

    def _check_guard(self, ins, b: str, gate, isz: int, k: str, path: str,
                     base=None) -> str:
        """Prove a fast gate's guard admits exactly ``k`` aligned, legal
        elements of the access's space from base ``b``, and that its arm
        opens by indexing ``b // isz``.  A contiguous gate (``base``, its
        base expression) first carries the address chain's
        no-wraparound conjuncts.  Returns the index temp's name."""
        if ins.space == MemSpace.GLOBAL:
            want = [f"{b} % {isz} == 0", f"_span_ok(X, {b}, {k}, {isz})"]
        else:
            want = [f"0 <= {b}", f"{b} % {isz} == 0",
                    f"{b} + {k} * {isz} <= {self.info.shared_bytes}"]
        test = gate.test
        values = (test.values if isinstance(test, ast.BoolOp)
                  and isinstance(test.op, ast.And) else [test])
        head = values[:-len(want)] if base is not None else []
        if [_unparse(v) for v in values[len(head):]] != want:
            self._tc01(path, f"fast-path guard `{_unparse(test)}` does not "
                       f"{'read' if base is None else 'end'} "
                       f"`{' and '.join(want)}`"
                       "; the unchecked access could fault or alias")
        if base is not None:
            self._check_wrap_guards(ins, head, path)
        idx = ("_j" if ins.space == MemSpace.GLOBAL else "_c") + b[2:]
        if not gate.body or _unparse(gate.body[0]) != f"{idx} = {b} // {isz}":
            self._tc01(path, "fast path does not index its guarded base")
        return idx

    def _check_wrap_guards(self, ins, head: list, path: str) -> None:
        """The guard's leading conjuncts are exactly the pairs the
        derived address chain needs: ``dmin <= <form> + lo`` and
        ``<form> + hi <= dmax`` for every symbolic step, so no lane's
        address wraps in any step's dtype.  Each conjunct is read back
        into its bound, symbolic part and offset."""
        m = self._read_op(ins.addr)
        if m.aff is None:
            return  # _check_base reports the underived structure (TC04)
        got = {}
        for node in head:
            g = self._guard_of(node)
            if g == "unbound":
                return  # _check_base reports the unbound symbol (TC04)
            got[g] = node
        want = set(m.guards)
        missing = [g for g in m.guards if g not in got]
        extra = [_unparse(node) for g, node in got.items() if g not in want]
        if missing or extra:
            text = extra[0] if extra else (
                f"{missing[0][1]} <= {missing[0][2]} + {missing[0][3]}"
                if missing[0][0] == "ge" else
                f"{missing[0][2]} + {missing[0][3]} <= {missing[0][1]}")
            self._tc01(path, f"fast-path guard "
                       f"{'adds' if extra else 'omits'} "
                       f"`{text}`: each symbolic step of "
                       "the address chain needs exactly its no-wraparound "
                       "pair, or a wrapped lane address escapes the "
                       "checked run")

    def _guard_of(self, node):
        """``(op, bound, form, offset)`` of one no-wraparound conjunct
        (``bound <= lin`` or ``lin <= bound``), ``None`` for any other
        shape and ``"unbound"`` when a symbol names no known register."""
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.LtE)):
            return None
        left = _linform(node.left, self.sy)
        right = _linform(node.comparators[0], self.sy)
        if left is None or right is None:
            return None
        if set(left) <= {"1"}:
            op, bound, lin = "ge", left.get("1", 0), right
        elif set(right) <= {"1"}:
            op, bound, lin = "le", right.get("1", 0), left
        else:
            return None
        form = {}
        for key, coeff in lin.items():
            if key == "1":
                continue
            if key == "fb":
                return None
            atom = self._sym_atom(key[1])
            if atom is None:
                return "unbound"
            form[atom] = form.get(atom, 0) + coeff
        return op, bound, tuple(sorted(form.items())), lin.get("1", 0)

    def _check_uniform_load(self, ins, idx: str, arm, ctx: _MCtx,
                            path: str) -> None:
        """The fast arm builds, on every lane, what the generic gather
        gives: the element for active lanes (in each block's own row,
        for shared), the parked element 0 for inactive ones."""
        dt = ins.dst.dtype
        dtn, npn, bt = dt.name, _np_name(dt), self.info.bt
        first = arm[0] if arm else None
        if first is None or not isinstance(first, ast.Assign):
            self._tc01(path, "uniform fast path builds no loaded value")
        if ctx.full:
            mask = None
        else:
            where = _find_calls(_nodes(first.value), "np.where")
            if len(where) != 1 or not where[0].args:
                self._tc01(path, "masked uniform load does not select "
                           "active lanes")
            m = where[0].args[0]
            if (isinstance(m, ast.Call) and isinstance(m.func, ast.Attribute)
                    and m.func.attr == "reshape"):
                m = m.func.value
            mask = _norm(_unparse(m))
            if not ctx.bind_mask(mask):
                self._tc01(path, "uniform load selects under a mask that "
                           "is not the active context mask")
        if ins.space == MemSpace.GLOBAL:
            want = (f"np.full(_L, _gv_{dtn}[{idx}], dtype=np.{npn})"
                    if mask is None else
                    f"np.where({mask}, _gv_{dtn}[{idx}], _gv_{dtn}[0])")
        else:
            want = (f"np.repeat(_s2_{dtn}[:, {idx}], {bt})"
                    if mask is None else
                    f"np.where({mask}.reshape(_nB, {bt}), "
                    f"_s2_{dtn}[:, {idx}:{idx} + 1], _sv_{dtn}[0])"
                    ".reshape(-1)")
        if _norm(_unparse(first.value)) != _norm(want):
            self._tc01(path, f"uniform load builds "
                       f"`{_unparse(first.value)}`, the IR's "
                       f"{ins.space} {dtn} access needs `{want}`")
        self._check_merge_masks(arm, ctx, path)

    def _check_atomic_call(self, ins, call, ctx: _MCtx, path: str) -> None:
        if len(call.args) != 8:
            self._tc01(path, "atomic must go through exactly one _atomic "
                       "runtime call")
        oparg = call.args[4]
        if not (isinstance(oparg, ast.Constant) and oparg.value == ins.op):
            self._tc01(path, f"atomic applies `{getattr(oparg, 'value', '?')}`, "
                       f"IR requires `{ins.op}`")
        want = ins.dst is not None
        wantarg = call.args[5]
        if not (isinstance(wantarg, ast.Constant)
                and wantarg.value is want):
            self._tc01(path, "atomic old-value capture flag does not match "
                       "the IR")
        npn = _np_name(ins.src.dtype)
        if (_unparse(call.args[7]) != f"np.{npn}"
                or _unparse(call.args[6]) != "_L"):
            self._tc01(path, "atomic operates at the wrong element dtype "
                       "or lane count")
        eff = _norm(_unparse(call.args[2]))
        if (eff != "None") if ctx.full else not ctx.bind_mask(eff):
            self._tc01(path, "atomic applies under a mask that is not the "
                       "active context mask")

    def _match_atomic(self, ins, payload, ctx: _MCtx, path: str) -> None:
        bumps = [s for s in payload if _is_counter_bump(s, "_ao")]
        if len(bumps) != 1 \
                or _norm(_unparse(bumps[0].value)) != ctx.n_text:
            self._tc01(path, "atomic metering does not match context "
                       "multiplicity")
        fast_assign, gate = self._fast_gate(payload, path)
        region = payload
        if fast_assign is not None:
            if not (self._addr_uniform(ins) and ins.dst is None
                    and ins.op in ("add", "min", "max")
                    and ins.space == MemSpace.GLOBAL):
                self._tc01(path, f"uniform fast path on a {ins.space} "
                           f"`{ins.op}` atomic; only a global add, min or "
                           "max that returns no old value has one")
            idx = self._check_uniform_gate(ins, fast_assign, gate,
                                           ins.src.dtype.itemsize, path)
            region = gate.orelse
        self._check_resolve(ins, region, ctx, path, store=True)
        calls = _find_calls(self._subtree(region), "_atomic")
        if len(calls) != 1:
            self._tc01(path, "atomic must go through exactly one _atomic "
                       "runtime call")
        self._check_atomic_call(ins, calls[0], ctx, path)
        if fast_assign is not None:
            fast = _find_calls(self._subtree(gate.body), "_atomic")
            if len(fast) != 1:
                self._tc01(path, "uniform fast path must apply exactly one "
                           "_atomic runtime call")
            self._check_atomic_call(ins, fast[0], ctx, path)
            view = f"_gv_{ins.src.dtype.name}"
            if _unparse(fast[0].args[0]) != view:
                self._tc01(path, f"uniform atomic updates "
                           f"`{_unparse(fast[0].args[0])}`, the IR's "
                           f"element needs `{view}`")
            if _unparse(fast[0].args[1]) != f"np.broadcast_to({idx}, _L)":
                self._tc01(path, "uniform atomic does not apply at the "
                           "guarded element")
            if _unparse(fast[0].args[3]) != _unparse(calls[0].args[3]):
                self._tc01(path, "uniform atomic applies other values than "
                           "its generic path")
        nodes = self._subtree(payload)
        if _view_store_targets(nodes):
            self._tc01(path, "atomic chunk writes to a memory view outside "
                       "the _atomic runtime call")
        d = _dst_of(ins)
        if d is not None:
            for loc in _register_targets(nodes):
                self.local_map[loc] = d.name
                self._check_assign_form(d.name, loc, payload, ctx, path)
            self.env[d.name] = _AVal(d.dtype,
                                     d.name not in self.info.varying)

    # -- control flow ------------------------------------------------------

    def _cond_uniform(self, cond) -> bool:
        return isinstance(cond, Imm) or cond.name not in self.info.varying

    def _match_if(self, ins, payload, ctx: _MCtx, path: str) -> None:
        snap = dict(self.env)
        assigned = (self._assigned_in(ins.then_body)
                    | self._assigned_in(ins.else_body))
        if self._cond_uniform(ins.cond):
            if len(payload) != 1 or not isinstance(payload[0], ast.If):
                self._tc01(path, "uniform conditional must lower to a "
                           "single branch")
            node = payload[0]
            t = node.test
            if not (isinstance(t, ast.Call)
                    and _unparse(t.func) == "bool"):
                self._tc01(path, "uniform conditional must branch on a "
                           "scalar bool; lane-gating a uniform condition "
                           "changes semantics")
            self._match_body(ins.then_body, node.body, ctx,
                             path + ".then")
            self.env = dict(snap)
            if ins.else_body:
                self._match_body(ins.else_body, node.orelse, ctx,
                                 path + ".else")
            elif node.orelse:
                self._tc01(path, "else arm emitted for an IR conditional "
                           "without one")
        else:
            self._match_varying_if(ins, payload, ctx, path)
        self.env = dict(snap)
        self._strip(assigned)

    def _match_varying_if(self, ins, payload, ctx: _MCtx,
                          path: str) -> None:
        snap = dict(self.env)
        j = next((k for k, s in enumerate(payload)
                  if isinstance(s, ast.If)), None)
        if j is None:
            self._tc01(path, "varying conditional lowered without a "
                       "lane gate")
        pre, gate, after = payload[:j], payload[j], payload[j + 1:]
        t = gate.test
        if not (isinstance(t, ast.Compare) and len(t.ops) == 1
                and isinstance(t.ops[0], ast.Gt)
                and isinstance(t.comparators[0], ast.Constant)
                and t.comparators[0].value == 0
                and isinstance(t.left, ast.Name)):
            self._tc01(path, "varying conditional gate is not a "
                       "positive-population check")
        gname = t.left.id
        if _is_temp(gname, "k"):
            child, then_n = self._match_prefix_gate(ins, pre, gname, ctx,
                                                    path)
        elif _is_temp(gname, "n"):
            child, then_n = self._match_general_gate(ins, pre, gname, ctx,
                                                     path)
        else:
            self._tc01(path, f"unrecognised gate population `{gname}`")
        self._match_body(ins.then_body, gate.body, child, path + ".then")
        self.env = dict(snap)
        if ins.else_body:
            ej = next((k for k, s in enumerate(after)
                       if isinstance(s, ast.If)), None)
            if ej is None:
                self._tc01(path, "IR else arm has no emitted gate")
            epre, egate, tail = after[:ej], after[ej], after[ej + 1:]
            if tail:
                self._tc01(path, "statements after the else gate")
            et = egate.test
            if not (isinstance(et, ast.Compare) and len(et.ops) == 1
                    and isinstance(et.ops[0], ast.Gt)
                    and isinstance(et.comparators[0], ast.Constant)
                    and et.comparators[0].value == 0):
                self._tc01(path, "else gate is not a positive-population "
                           "check")
            en = _norm(_unparse(et.left))
            base_n = "_L" if ctx.full else ctx.n_text
            want_en = _norm(f"({base_n}) - ({then_n})")
            if en != want_en:
                self._tc01(path, f"else population `{en}` is not the "
                           f"complement `{want_en}` of the then arm")
            emask = next((_assign_target(s) for s in epre
                          if _is_temp(_assign_target(s), "m")), None)
            if emask is None:
                self._tc01(path, "else arm executes without a complement "
                           "mask")
            ectx = _MCtx(False, en, [emask])
            self._match_body(ins.else_body, egate.body, ectx,
                             path + ".else")
        elif after:
            self._tc01(path, "else arm emitted for an IR conditional "
                       "without one")

    def _match_prefix_gate(self, ins, pre, gname, ctx: _MCtx, path: str):
        kassign = next((s for s in pre if _assign_target(s) == gname),
                       None)
        if kassign is None:
            self._tc01(path, f"gate population `{gname}` never bound")
        val = kassign.value
        ok = (isinstance(val, ast.Call) and _unparse(val.func) == "min"
              and len(val.args) == 2
              and isinstance(val.args[0], ast.Call)
              and _unparse(val.args[0].func) == "max")
        if not ok:
            self._tc01(path, "prefix gate population is not "
                       "min(max(thr, 0), limit)-clamped")
        thr = val.args[0].args[0]
        lim = val.args[1]
        if isinstance(lim, ast.Name) and lim.id == "_L":
            kind, n_text = "lin", gname
        elif (isinstance(lim, ast.Constant)
                and lim.value == self.info.bt):
            kind, n_text = "block", _norm(f"{gname} * _nB")
        else:
            self._tc01(path, "prefix gate clamps to neither the lane "
                       "count nor the block size")
        cv = self._read_op(ins.cond)
        pf = cv.prefix
        if pf is None:
            self._tc04(path, "cannot derive a lane-prefix for the "
                       "condition; accepting the compiler's gate as a "
                       "conservative bound")
        else:
            if pf.kind != kind:
                self._tc01(path, f"gate batches lanes `{kind}`-wise but "
                           f"the condition's prefix is `{pf.kind}`")
            self._check_thr(thr, pf, path)
        return (_MCtx(False, n_text, [None], k=gname,
                      per_block=kind == "block"), n_text)

    def _check_thr(self, thr, pf: _APrefix, path: str,
                   trip: str | None = None) -> None:
        """Prove a prefix gate's threshold ``-((base - (U + off)) //
        cbl)``: ``base`` is the condition affine's, plus exactly the
        trip offset ``trip`` in an induction loop."""
        node = thr
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        else:
            self._tc04(path, "unrecognised prefix threshold shape")
            return
        if not (isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.FloorDiv)
                and isinstance(node.right, ast.Constant)):
            self._tc04(path, "unrecognised prefix threshold shape")
            return
        if node.right.value != pf.cbl:
            self._tc01(path, f"prefix threshold divides by "
                       f"{node.right.value}, the condition's lane stride "
                       f"is {pf.cbl}")
        diff = node.left
        if not (isinstance(diff, ast.BinOp)
                and isinstance(diff.op, ast.Sub)):
            self._tc04(path, "unrecognised prefix threshold shape")
            return
        b1 = _linform(diff.left, self.sy)
        b2 = _linform(diff.right, self.sy)
        if b1 is None or b2 is None:
            self._tc04(path, "prefix threshold is not linear")
            return
        if b1.get("1", 0) != pf.d0 or b1.get("fb", 0) != pf.dfb:
            self._tc01(path, f"prefix threshold base "
                       f"({b1.get('1', 0)}, {b1.get('fb', 0)}*fb) differs "
                       f"from the condition affine ({pf.d0}, "
                       f"{pf.dfb}*fb)")
        trips = {k[1]: v for k, v in b1.items() if isinstance(k, tuple)}
        if trips != ({trip: 1} if trip else {}):
            self._tc01(path, "prefix threshold base "
                       + (f"misses the trip offset `{trip}`" if trip
                          else "carries a symbol the condition lacks")
                       + f": {trips}")
        off = b2.get("1", 0)
        syms = {k: v for k, v in b2.items() if isinstance(k, tuple)}
        if pf.u[0] == "const":
            if syms or off != pf.u[1] + pf.off:
                self._tc01(path, "prefix threshold bound does not match "
                           "the uniform comparison operand")
        else:
            if off != pf.off or len(syms) != 1:
                self._tc01(path, "prefix threshold offset does not match "
                           "the comparison's inclusivity")
            (_, gtext), gc = next(iter(syms.items()))
            mapped = self.param_local.get(gtext,
                                          self.local_map.get(gtext))
            if gc != 1:
                self._tc01(path, "prefix threshold scales the uniform "
                           "bound")
            if mapped is not None:
                if mapped != pf.u[1]:
                    self._tc01(path, f"prefix gate bounds lanes by "
                               f"register `{mapped}`, the IR compares "
                               f"against `{pf.u[1]}`")
            else:
                self._tc04(path, "cannot bind the prefix bound symbol to "
                           "an IR register")

    def _match_general_gate(self, ins, pre, gname, ctx: _MCtx,
                            path: str):
        nassign = next((s for s in pre if _assign_target(s) == gname),
                       None)
        if nassign is None:
            self._tc01(path, f"gate population `{gname}` never bound")
        val = nassign.value
        if not (isinstance(val, ast.Call) and _unparse(val.func) == "int"
                and len(val.args) == 1
                and isinstance(val.args[0], ast.Call)
                and isinstance(val.args[0].func, ast.Attribute)
                and val.args[0].func.attr == "sum"):
            self._tc01(path, "gate population is not a mask popcount")
        mask_text = _norm(_unparse(val.args[0].func.value))
        if ctx.full:
            if _is_temp(mask_text, "m"):
                self._tc01(path, "full-context gate intersects a parent "
                           "mask that does not exist")
        else:
            massign = next((s for s in pre
                            if _assign_target(s) == mask_text), None)
            if massign is None:
                self._tc01(path, "nested gate does not intersect the "
                           "parent mask")
            mval = massign.value
            if not (isinstance(mval, ast.BinOp)
                    and isinstance(mval.op, ast.BitAnd)):
                self._tc01(path, "nested gate mask is not a parent-mask "
                           "intersection")
            if not ctx.bind_mask(_norm(_unparse(mval.left))):
                self._tc01(path, "nested gate intersects a mask that is "
                           "not the active context mask")
        return _MCtx(False, gname, [mask_text]), gname

    def _induction(self, ins, ctx: _MCtx):
        """What makes this loop's prefix form exact, re-derived from the
        IR and the abstract state at its entry, or ``None``.

        On top of :meth:`_IRInfo._inductions`: the loop starts under
        the full mask or a lane prefix; ``i`` enters as a lane-prefix
        affine (the condition would gate a ``lin`` prefix), ``U`` and
        ``S`` are uniform, ``S`` is a constant ``s``, and over every
        trip the runaway guard admits neither ``t*s`` nor any lane's
        ``entry + t*s`` leaves ``i``'s dtype.  Returns ``(i, cmp, S,
        steps, entry, prefix, s)``."""
        shape = self.info.inductions.get(id(ins))
        if shape is None or not (ctx.full or ctx.k is not None
                                 and not ctx.per_block):
            return None
        i, cmp, step, steps = shape
        iv, sv = self._read_op(i), self._read_op(step)
        pf = _cmp_prefix(cmp.op, iv, self._read_op(cmp.b), self.info.bt)
        s = _pure_const(sv) if sv.uniform else None
        if pf is None or pf.kind != "lin" or s is None:
            return None
        dmin, dmax = _int_lo_hi(i.dtype)
        reach = interpreter._MAX_LOOP_TRIPS * s
        lo, hi = min(0, reach), max(0, reach)
        if not (dmin <= lo and hi <= dmax and dmin <= iv.lo + lo
                and iv.hi + hi <= dmax):
            return None
        return i, cmp, step, steps, iv, pf, s

    def _match_while(self, ins, payload, ctx: _MCtx, path: str) -> None:
        assigned = (self._assigned_in(ins.cond_body)
                    | self._assigned_in(ins.body))
        plan = self._induction(ins, ctx)
        self._strip(assigned)
        wnodes = [s for s in payload if isinstance(s, ast.While)]
        if len(wnodes) != 1:
            self._tc01(path, "loop must lower to exactly one while")
        wnode = wnodes[0]
        if not (isinstance(wnode.test, ast.Constant)
                and wnode.test.value is True):
            self._tc01(path, "loop is not the while-True protocol")
        inner = list(wnode.body)
        guard = next((s for s in inner if isinstance(s, ast.If)
                      and isinstance(s.test, ast.Compare)
                      and isinstance(s.test.left, ast.Name)
                      and _is_temp(s.test.left.id, "tr")), None)
        if guard is None or not any(isinstance(x, ast.Raise)
                                    for x in guard.body):
            self._tc01(path, "runaway-loop guard missing; an IR loop "
                       "must bound its trip count")
        trips = interpreter._MAX_LOOP_TRIPS
        if not (isinstance(guard.test.comparators[0], ast.Constant)
                and guard.test.comparators[0].value == trips):
            self._tc01(path, f"runaway-loop guard bound differs from "
                       f"{trips}")
        inner = [s for s in inner if s is not guard
                 and not (isinstance(s, ast.AugAssign)
                          and isinstance(s.target, ast.Name)
                          and _is_temp(s.target.id, "tr"))]
        if self._cond_uniform(ins.cond):
            bi = next((k for k, s in enumerate(inner)
                       if isinstance(s, ast.If)
                       and isinstance(s.test, ast.UnaryOp)
                       and isinstance(s.test.op, ast.Not)
                       and any(isinstance(x, ast.Break)
                               for x in s.body)), None)
            if bi is None:
                self._tc01(path, "uniform loop has no scalar break on "
                           "its condition")
            self._match_body(ins.cond_body, inner[:bi], ctx,
                             path + ".cond")
            self._match_body(ins.body, inner[bi + 1:], ctx, path + ".body")
        else:
            lv = next((_assign_target(s) for s in payload
                       if _is_temp(_assign_target(s), "lv")), None)
            ln = next((_assign_target(s) for s in payload
                       if _is_temp(_assign_target(s), "ln")), None)
            if lv is None and ln is not None:
                self._match_prefix_trips(ins, plan, payload, wnode, inner,
                                         guard.test.left.id, ln, ctx, path)
            else:
                self._match_live_mask_trips(ins, inner, lv, ln, path)
        self._check_loop_releases(ins, wnode, path)
        self._strip(assigned)

    def _match_live_mask_trips(self, ins, inner, lv, ln, path: str) -> None:
        """A varying loop's general form: the live mask ``lv`` narrows by
        the condition and ``ln`` recounts it, every trip."""
        if lv is None or ln is None:
            self._tc01(path, "varying loop lacks the live-mask "
                       "protocol")
        child = _MCtx(False, ln, [lv])
        breaks = [k for k, s in enumerate(inner)
                  if isinstance(s, ast.If)
                  and any(isinstance(x, ast.Break) for x in s.body)]
        narrow = next((k for k, s in enumerate(inner)
                       if isinstance(s, ast.AugAssign)
                       and isinstance(s.op, ast.BitAnd)
                       and isinstance(s.target, ast.Name)
                       and s.target.id == lv), None)
        if len(breaks) < 2 or narrow is None:
            self._tc01(path, "varying loop does not re-narrow and "
                       "re-check its live mask")
        cond_stmts = inner[breaks[0] + 1:narrow]
        body_start = breaks[1] + 1
        recount = inner[narrow + 1:breaks[1]]
        if not any(_assign_target(s) == ln for s in recount):
            self._tc01(path, "varying loop never recounts its live "
                       "mask")
        self._match_body(ins.cond_body, cond_stmts, child,
                         path + ".cond")
        self._match_body(ins.body, inner[body_start:], child,
                         path + ".body")

    def _match_prefix_trips(self, ins, plan, payload, wnode, inner, tr: str,
                            ln: str, ctx: _MCtx, path: str) -> None:
        """An induction loop's prefix form (see
        :meth:`repro.isa.tracing._TraceCompiler._emit_prefix_trips`):

        * ``tr = 0`` and ``ln = <entry population>`` before the loop, and
          ``tr += 1`` once per trip;
        * each trip: ``if ln == 0: break``, ``_sy = tr * int(S)``, the
          condition's bare metering bump, ``ln = min(ln, max(thr, 0))``
          with ``thr`` the condition's lane-prefix threshold whose base
          adds exactly ``_sy``, ``if ln == 0: break``, then the body in
          the lane prefix ``[0, ln)`` with ``i = entry + _sy`` and the
          step's instructions metered only.
        """
        if plan is None:
            self._tc01(path, "loop runs on a live lane prefix, but its IR "
                       "has no induction register the prefix form is exact "
                       "for; the general loop keeps a live mask")
        i, cmp, step, steps, entry, pf, s = plan
        texts = [_unparse(st) for st in payload
                 if not isinstance(st, ast.While)]
        want_n = "_L" if ctx.full else ctx.n_text
        if (f"{tr} = 0" not in texts or f"{ln} = {want_n}" not in texts
                or [_unparse(st) for st in wnode.body
                    if isinstance(st, ast.AugAssign)
                    and _unparse(st.target) == tr] != [f"{tr} += 1"]):
            self._tc01(path, "prefix loop does not start its trip count at "
                       f"0 and its live count at `{want_n}`, or does not "
                       "count each trip once")
        stop = f"if {ln} == 0:\n    break"
        if (len(inner) < 5 or _unparse(inner[0]) != stop
                or _unparse(inner[4]) != stop):
            self._tc01(path, "prefix loop does not re-check its live count "
                       "around the condition")
        sy = _assign_target(inner[1])
        val = inner[1].value if _is_temp(sy, "sy") else None
        if not (isinstance(val, ast.BinOp) and isinstance(val.op, ast.Mult)
                and _unparse(val.left) == tr
                and isinstance(val.right, ast.Call)
                and _unparse(val.right.func) == "int"
                and len(val.right.args) == 1):
            self._tc01(path, f"trip offset is not bound as `{tr} * int(S)`")
        arg = val.right.args[0]
        if isinstance(arg, ast.Name):
            bound = self.param_local.get(arg.id, self.local_map.get(arg.id))
            if bound is None:
                self._tc04(path, "cannot bind the trip offset's stride to "
                           "an IR register")
            elif bound != getattr(step, "name", None):
                self._tc01(path, f"trip offset scales register `{bound}`, "
                           f"the IR steps `{i.name}` by `{step}`")
        elif _linform(arg, self.sy) != {"1": s}:
            self._tc01(path, f"trip offset scales `{_unparse(arg)}`, the IR "
                       f"steps `{i.name}` by {s}")
        trip = "@" + tr
        self.sy[sy] = trip
        if not (_is_counter_bump(inner[2], "_ic")
                and _norm(_unparse(inner[2].value)) == ln):
            self._tc01(path, "the condition is not metered over the live "
                       "count alone")
        narrow = getattr(inner[3], "value", None)
        if not (_assign_target(inner[3]) == ln
                and isinstance(narrow, ast.Call)
                and _unparse(narrow.func) == "min" and len(narrow.args) == 2
                and _unparse(narrow.args[0]) == ln
                and isinstance(narrow.args[1], ast.Call)
                and _unparse(narrow.args[1].func) == "max"
                and len(narrow.args[1].args) == 2
                and _unparse(narrow.args[1].args[1]) == "0"):
            self._tc01(path, f"live count is not narrowed as `{ln} = "
                       f"min({ln}, max(thr, 0))`")
        self._check_thr(narrow.args[1].args[0], pf, path, trip=trip)
        # The static bound in _induction makes i's own no-wraparound
        # pair always true, so the model carries none.
        self.env[i.name] = _AVal(
            i.dtype, False, aff=entry.aff + Affine.of_atom("sym:" + trip),
            sym=trip, lo=entry.lo, hi=entry.hi)
        self.silent.update(id(x) for x in ins.body[-steps:])
        child = _MCtx(False, ln, [_norm(f"np.arange(_L) < {ln}")], k=ln)
        self._match_body(ins.body, inner[5:], child, path + ".body")

    # -- Phase 3: deferral re-proof (TC03) ---------------------------------

    def _check_deferrals(self, stmts) -> None:
        scopes = [g.orelse for g in self.fast_gate_ifs]
        scope_stmts = {id(s) for block in scopes for s in block}

        defs: dict[str, list[tuple[int, bool, ast.AST]]] = {}

        def collect(stmts, in_scope):
            for s in stmts:
                here = in_scope or id(s) in scope_stmts
                tgt = _assign_target(s)
                if (tgt and tgt.startswith("r") and tgt[1:].isdigit()):
                    defs.setdefault(tgt, []).append(
                        (s.lineno, here, s.value))
                for body in ("body", "orelse"):
                    if hasattr(s, body):
                        collect(getattr(s, body), here)

        collect(stmts, False)
        deferred = {
            name for name, sites in defs.items()
            if name not in self.param_local
            and sites and all(in_scope for _, in_scope, _ in sites)
        }

        # Single static site: every replay must be the identical chain.
        for name in sorted(deferred):
            rhs = {_unparse(v) for _, _, v in defs[name]}
            if len(rhs) > 1:
                self._tc03(f"deferral {name}",
                           f"sunk register `{name}` replays "
                           f"{len(rhs)} distinct definitions; the "
                           "single-static-site claim fails")

        # Operand stability: nothing a replay reads may be redefined
        # inside the replay horizon.
        for name in sorted(deferred):
            lines = [ln for ln, _, _ in defs[name]]
            first, last = min(lines), max(lines)
            operands = {n.id for _, _, v in defs[name]
                        for n in _nodes(v)
                        if isinstance(n, ast.Name)
                        and n.id.startswith("r") and n.id[1:].isdigit()}
            for op_name in sorted(operands - {name}):
                for ln, in_scope, _ in defs.get(op_name, []):
                    if not in_scope and first < ln < last:
                        self._tc03(
                            f"deferral {name}",
                            f"operand `{op_name}` of sunk register "
                            f"`{name}` is redefined inside the replay "
                            "horizon; operand stability fails")

        # Dominance: every use of a deferred register must be reached by
        # a replay on the same path.
        def check_uses(node, defined: set[str]) -> None:
            if deferred.isdisjoint(self._tokens(node)):
                return
            for n in _nodes(node):
                if (isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)
                        and n.id in deferred
                        and n.id not in defined):
                    self._tc03(
                        f"deferral {n.id}",
                        f"use of sunk register `{n.id}` at line "
                        f"{n.lineno} is not dominated by a replay; "
                        "the sinking claim cannot be re-proved")
                    defined.add(n.id)  # report once per chain

        def dominate(stmts, defined: set[str]) -> set[str]:
            for s in stmts:
                if isinstance(s, (ast.If, ast.While)):
                    check_uses(s.test, defined)
                    d1 = dominate(s.body, set(defined))
                    d2 = dominate(getattr(s, "orelse", []), set(defined))
                    if isinstance(s, ast.If):
                        defined |= (d1 & d2)
                    continue
                check_uses(s, defined)
                tgt = _assign_target(s)
                if tgt:
                    defined.add(tgt)
            return defined

        dominate(stmts, set())

    # -- entry -------------------------------------------------------------

    def run(self, tree: ast.Module) -> tuple[bool, list[Diagnostic]]:
        """Match the whole program, parsed as ``tree`` (whose loop
        bodies lose their releases); returns (exact, diagnostics)."""
        stmts = tree.body[0].body
        try:
            i = self._match_prelude(stmts)
            stmts = stmts[:i] + self._strip_releases(stmts[i:])[0]
            if len(stmts) < i + len(self._EPILOGUE):
                self._tc01("epilogue", "program ends before the stats "
                           "epilogue")
            self._match_epilogue(stmts[-len(self._EPILOGUE):])
            self._match_body(self.k.body,
                             stmts[i:-len(self._EPILOGUE)],
                             _MCtx(True, "_L", [None]), "body")
        except _Stop:
            pass
        except RecursionError:  # pragma: no cover - pathological nesting
            self._tc04("body", "program too deeply nested to match; "
                       "conservative bound only")
        self._check_deferrals(stmts)
        return self.exact, self.diags

    def _strip_releases(self, stmts, loop=None) -> tuple[list, set[str]]:
        """Drop the ``a = b = None`` releases of one body, the top level
        or (``loop``) a loop's, recursing into nested bodies; returns
        the kept statements and every name released in them.

        A released name is never read by a later statement of its body
        (the compiler releases a local after its last mention, so it
        never rebinds one), nor after a loop that released it.  Which
        names a loop may release is proved when the loop is matched
        (:meth:`_check_loop_releases`); a release in a branch arm is
        never emitted and fails here."""
        kept = []
        released: set[str] = set()
        for s in stmts:
            if _is_release(s):
                if loop is False:
                    self._tc01(f"line {s.lineno}", "locals released inside "
                               "a branch arm")
                names = {t.id for t in s.targets}
                released |= names
                if loop is not None:
                    self.loop_releases.setdefault(id(loop), set()).update(
                        names)
                continue
            if released and not released.isdisjoint(self._tokens(s)):
                for node in _nodes(s):
                    if (isinstance(node, ast.Name) and node.id in released
                            and isinstance(node.ctx, ast.Load)):
                        self._tc01(f"line {node.lineno}",
                                   f"`{node.id}` is read after its release")
            if isinstance(s, ast.While):
                s.body, inner = self._strip_releases(s.body, s)
                released |= inner
            elif isinstance(s, ast.If):
                s.body, inner = self._strip_releases(s.body, False)
                s.orelse, other = self._strip_releases(s.orelse, False)
                released |= inner | other
            kept.append(s)
        return kept, released

    def _check_loop_releases(self, ins, wnode, path: str) -> None:
        """Every name a loop body releases is rebound by each trip before
        anything reads it: a per-site temporary, or the local of a
        register iteration-local to this loop (never its live mask,
        live count or trip count, nor a loop-carried register)."""
        for name in sorted(self.loop_releases.get(id(wnode), ())):
            if any(_is_temp(name, p) for p in _SITE_TEMPS):
                continue
            reg = self.local_map.get(name)
            if reg is None or self.info.loop_local.get(reg) != id(ins):
                self._tc01(path, f"`{name}` is released inside the loop but "
                           "is neither a per-site temporary nor an "
                           "iteration-local register of it; a later trip "
                           "reads it before rebinding it")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def validate_program(kernel, source: str, warp_size: int,
                     grid: tuple[int, int, int],
                     block: tuple[int, int, int],
                     blocks_per_batch: int, *,
                     key: tuple = ()) -> TraceVerdict:
    """Statically validate one generated trace program against its IR.

    Never executes the program or the kernel.  Phase 1 (the exec
    allowlist) runs first; phases 2/3 only run on a program that passed
    it — there is no point proving equivalence of a program we would
    refuse to exec.  Findings suppressed by the
    ``KNOWN_TRACE_DIVERGENCES`` ledger are downgraded to ``TC06`` info.
    """
    t0 = time.perf_counter()
    diags: list[Diagnostic] = []
    exact = True
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        diags.append(make("TC02", kernel.name, f"line {exc.lineno}",
                          f"generated program does not parse: {exc.msg}"))
        tree = None
    if tree is not None:
        diags.extend(_check_allowlist(tree, kernel.name))
        if not diags:
            checker = _Checker(kernel, source, warp_size, grid, block)
            try:
                exact, found = checker.run(tree)
            except _Stop:  # pragma: no cover - run() already catches
                exact, found = checker.exact, checker.diags
            diags.extend(found)
    suppressed: list[Diagnostic] = []
    for d in diags:
        reason = divergence_reason(kernel.name, d.code)
        if reason is not None and d.severity >= Severity.WARNING:
            suppressed.append(make(
                "TC06", kernel.name, d.path,
                f"[{d.code}] {d.message} — suppressed: {reason}"))
        else:
            suppressed.append(d)
    diags = suppressed
    validated = not any(d.severity >= Severity.ERROR for d in diags)
    return TraceVerdict(
        key=key, kernel=kernel.name, validated=validated,
        exact=exact and validated, diagnostics=diags,
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def canonical_batch_width(kernel, block: tuple[int, int, int]) -> int:
    """The blocks-per-batch the interpreter picks for this kernel when
    nothing caps it — the geometry ``lint --traces`` validates at."""
    return interpreter.blocks_per_batch(
        block[0] * block[1] * block[2], interpreter.shared_layout(kernel)[1])


def validate_library(kernels: dict | None = None,
                     warp_size: int = 32) -> dict[str, "TraceVerdict | str"]:
    """Trace-compile and statically validate every library kernel at its
    canonical geometry — with ZERO kernel executions.

    Returns a name-keyed map whose values are either a
    :class:`TraceVerdict` or, for kernels the trace tier refuses, the
    bailout reason string.
    """
    from repro import kernels as _kernels
    from repro.analysis.perfstat import STATIC_LAUNCHES
    from repro.isa import tracing as _tracing

    lib = kernels if kernels is not None else {
        name: spec.ir for name, spec in _kernels.KERNEL_LIBRARY.items()}
    out: dict[str, TraceVerdict | str] = {}
    for name in sorted(lib):
        ir = lib[name]
        launch = STATIC_LAUNCHES.get(name)
        if launch is None:
            grid, block = (1, 1, 1), (256, 1, 1)
        else:
            grid = tuple(launch[0]) + (1,) * (3 - len(launch[0]))
            block = tuple(launch[1]) + (1,) * (3 - len(launch[1]))
        bpb = canonical_batch_width(ir, block)
        try:
            source = _tracing._TraceCompiler(
                ir, warp_size, grid, block, bpb).compile()
        except _tracing.TraceBailout as exc:
            out[name] = exc.reason
            continue
        except Exception:  # defensive, mirrors tracing.lookup()
            out[name] = "unsupported"
            continue
        key = _tracing.trace_key(ir, warp_size, grid, block, bpb)
        out[name] = validate_program(ir, source, warp_size, grid, block,
                                     bpb, key=key)
    return out


def traces_lint_report(
        results: dict[str, "TraceVerdict | str"]) -> LintReport:
    """Fold per-kernel verdicts into the shared lint-report shape."""
    report = LintReport()
    for name in sorted(results):
        verdict = results[name]
        if isinstance(verdict, str):
            report.add(make(
                "TC05", name, "",
                f"kernel bailed out of trace compilation ({verdict}); "
                "the interpreter tier runs it and nothing needs "
                "validation"))
        else:
            report.extend(verdict.diagnostics)
    return report


def trace_agreement_summary(
        results: dict[str, "TraceVerdict | str"]) -> dict[str, int]:
    """Rollup counters for the service's ``tracesan_*`` gauges."""
    verdicts = [v for v in results.values()
                if isinstance(v, TraceVerdict)]
    diags = [d for v in verdicts for d in v.diagnostics]
    return {
        "kernels_total": len(results),
        "validated": sum(1 for v in verdicts if v.validated),
        "exact": sum(1 for v in verdicts if v.exact),
        "inexact": sum(1 for v in verdicts
                       if v.validated and not v.exact),
        "bailed_out": sum(1 for v in results.values()
                          if isinstance(v, str)),
        "errors": sum(1 for d in diags
                      if d.severity >= Severity.ERROR),
        "warnings": sum(1 for d in diags
                        if d.severity == Severity.WARNING),
        "suppressed": sum(1 for d in diags if d.code == "TC06"),
    }


def lint_traces(kernels: dict | None = None, warp_size: int = 32,
                ) -> tuple[LintReport, dict[str, int]]:
    """``gpu-compat lint --traces`` entry: sweep, fold, report, roll up."""
    results = validate_library(kernels, warp_size)
    return traces_lint_report(results), trace_agreement_summary(results)
