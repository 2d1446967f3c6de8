"""Spans around the program's layer entry points, recorded from outside.

The traced run wraps each layer's public entry point (the table in
``ENTRY_POINTS``) in a function that records one span per call: name,
start, end, parent span, thread and context id (the build or request
the call belongs to).  Functions are replaced in *every* loaded module
that imported them by name, methods on their class, and route runtime
factories on each registered route, so no file of the program changes.
Spans stay in memory and are written out when the run ends.

Each span carries two clocks: wall time, for latencies and for the part
of a build no span covers, and the thread's CPU time, for self time.
Self time of a span is its CPU time minus that of its direct children.
On CPU time two worker threads taking turns under the GIL do not both
count the same wall second, so a layer's self time is the share of the
process's work it did; what it leaves out is waiting (an ``fsync`` in a
store save is wall time of its span, not self time).  Children run on
their parent's thread, so self times summed per thread never exceed
that thread's wall time (the self-test checks this on recorded spans).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import NamedTuple

#: (span name, "module:attribute" or "module:Class.method").  The span
#: name's first dotted parts name the layer (the module it lives in).
ENTRY_POINTS = (
    ("core.probes", "repro.core.probes:run_single_probe"),
    ("translate", "repro.translate.base:SourceTranslator.translate_unit"),
    ("frontends", "repro.frontends.kernel_dsl:compile_kernel"),
    ("compilers.compile", "repro.compilers.toolchain:Toolchain.compile"),
    ("compilers.optimize", "repro.compilers.passes:optimize_module"),
    ("compilers.legalize", "repro.isa.targets:legalize"),
    ("isa.verifier", "repro.isa.verifier:verify_kernel"),
    ("analysis.sanitize", "repro.compilers.passes:sanitize_module"),
    ("analysis.sanitize", "repro.analysis.transval:validate_translation"),
    ("gpu.launch", "repro.gpu.device:Device.launch"),
    ("gpu.memcpy", "repro.gpu.device:Device.memcpy_h2d"),
    ("gpu.memcpy", "repro.gpu.device:Device.memcpy_d2h"),
    ("gpu.memcpy", "repro.gpu.device:Device.memcpy_d2d"),
    ("isa.interpreter", "repro.isa.interpreter:KernelExecutor.launch"),
    ("isa.tracing", "repro.isa.tracing:lookup"),
    ("core.classifier", "repro.core.classifier:classify_route"),
    ("workloads", "repro.workloads.babelstream:execute_stream"),
    ("perfport", "repro.perfport.stream:run_stream_via_route"),
    ("service.store.load", "repro.service.store:ResultStore.load"),
    ("service.store.save", "repro.service.store:ResultStore.save"),
    ("service.store.fingerprint",
     "repro.service.store:environment_fingerprint"),
    ("perfport.store.load", "repro.perfport.store:PerfStore.load"),
    ("perfport.store.save", "repro.perfport.store:PerfStore.save"),
    ("service.scheduler.build",
     "repro.service.scheduler:build_matrix_concurrent"),
    ("service.scheduler.perf", "repro.perfport.scheduler:run_perf_matrix"),
    ("service.server.dispatch", "repro.service.server:dispatch"),
    ("jit.from_source", "repro.jit.api:from_source"),
    ("jit.build_row", "repro.jit.row:build_row"),
    ("jit.reference", "repro.jit.reference:reference_run"),
)

#: Span name of route runtime-chain construction (``Route.chain`` and the
#: direct ``runtime_factory`` calls in the probe runner both land here).
ROUTE_CHAIN = "core.routes"


class Span(NamedTuple):
    id: int
    name: str
    start: float        # wall clock (time.perf_counter)
    end: float
    cpu_start: float    # the thread's CPU clock (time.thread_time)
    cpu_end: float
    parent: int         # 0 for a root span
    thread: int
    context: str | None  # build or request id
    tag: dict | None


def _tag_probe(args, kwargs, result):
    return {"failed": not result.passed}


def _tag_memcpy(args, kwargs, result):
    # h2d(dst, host), d2h(src, dtype, count) -> array, d2d(dst, src, nbytes)
    if result is not None:
        return {"bytes": int(result.nbytes)}
    third = args[3] if len(args) > 3 else kwargs.get("nbytes")
    if isinstance(third, int):
        return {"bytes": third}
    host = args[2] if len(args) > 2 else kwargs.get("host")
    return {"bytes": int(host.nbytes)}


_TAGGERS = {
    "core.probes": _tag_probe,
    "gpu.memcpy": _tag_memcpy,
}


class _TimedFactory:
    """A route's runtime factory behind a span; equal and hashable as it.

    Routes are frozen dataclasses whose equality and hash cover the
    factory, so the stand-in compares and hashes as the original does.
    """

    __slots__ = ("fn", "call")

    def __init__(self, fn, call):
        self.fn = fn
        self.call = call

    def __call__(self, *args, **kwargs):
        return self.call(*args, **kwargs)

    def __eq__(self, other):
        return self.fn == getattr(other, "fn", other)

    def __hash__(self):
        return hash(self.fn)


class Recorder:
    """Collects spans from wrapped entry points on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context: str | None = None
        #: Calls made while ``active`` is false pass through unrecorded.
        self.active = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, tagger=None):
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            context = self.context
            stack.append(sid)
            t0 = clock()
            c0 = cpu()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = cpu()
                t1 = clock()
                stack.pop()
                tag = None
                if tagger is not None:
                    try:
                        tag = tagger(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError):
                        tag = None
                spans.append(Span(sid, name, t0, t1, c0, c1, parent,
                                  threading.get_ident(), context, tag))

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``ENTRY_POINTS`` plus route chains."""
        for name, target in ENTRY_POINTS:
            modname, attr = target.split(":")
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((setattr, cls, meth, original))
                setattr(cls, meth, self.wrap(original, name,
                                             _TAGGERS.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, _TAGGERS.get(name))
            self._undo += rebind(original, wrapped)
        from repro.core.routes import all_routes

        for route in all_routes():
            original = route.runtime_factory
            timed = _TimedFactory(original, self.wrap(original, ROUTE_CHAIN))
            object.__setattr__(route, "runtime_factory", timed)
            self._undo.append((object.__setattr__, route, "runtime_factory",
                               original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for setter, owner, attr, original in reversed(self._undo):
            setter(owner, attr, original)
        self._undo.clear()


def rebind(original, replacement) -> list:
    """Point every module-level name bound to ``original`` -- in the
    program and in the benchmark -- at ``replacement``; returns undo
    entries for :meth:`Recorder.uninstall`."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if not (modname.startswith("repro") or
                getattr(module, "__package__", None) == __package__):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((setattr, module, key, original))
    return undo


def dump_spans(spans, path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span._asdict()) + "\n")


def load_spans(path) -> list[Span]:
    """Read spans written by :func:`dump_spans`."""
    with open(path) as f:
        return [Span(**json.loads(line)) for line in f]


# -- reducing spans ------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> CPU time minus the CPU time of its direct children."""
    own = {s.id: s.cpu_end - s.cpu_start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.cpu_end - s.cpu_start
    return own


def per_thread_busy(spans) -> dict[int, tuple[float, float]]:
    """Thread -> (summed self time, wall time from first start to last end)."""
    own = self_times(spans)
    out: dict[int, list[float]] = {}
    for s in spans:
        acc = out.setdefault(s.thread, [0.0, s.start, s.end])
        acc[0] += own[s.id]
        acc[1] = min(acc[1], s.start)
        acc[2] = max(acc[2], s.end)
    return {tid: (busy, end - start) for tid, (busy, start, end) in out.items()}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
