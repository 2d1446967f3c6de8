"""Per-layer metrics: spans and counter deltas reduced to named numbers.

Layers are named after the program's modules; ``BENCHMARK.json`` lists
the metrics.  ``*_s`` values are self time (CPU clock, see ``tracer``)
per traced workload iteration.  ``*_ms`` values of the server are
per-request medians.  Counts come from the program's public counters
read at the same boundaries as the spans.
"""

from __future__ import annotations

from perfbench import tracer

#: Span names whose time counts as a build doing work (not idle).
_BUILD_WORK = ("core.probes", "perfport", "service.store.load",
               "service.store.save", "perfport.store.load",
               "perfport.store.save")


def counters() -> dict:
    """The program's public work counters, flat."""
    from repro.compilers.toolchain import compile_cache_stats
    from repro.isa.interpreter import snapshot_interpreter_totals
    from repro.workloads.babelstream import stream_totals

    cc = compile_cache_stats().snapshot()
    it = snapshot_interpreter_totals()
    st = stream_totals()
    return {"cc_hits": cc.hits, "cc_misses": cc.misses,
            "launches": it.launches, "lanes": it.stats.threads,
            "batches": it.stats.batches, "trace_hits": it.trace.hits,
            "trace_misses": it.trace.misses,
            "trace_bailouts": it.trace.bailouts,
            "stream_runs": st["runs"], "stream_kernels": st["kernels"]}


def add_delta(acc: dict, before: dict, after: dict) -> None:
    for key in after:
        acc[key] = acc.get(key, 0) + after[key] - before[key]


def idle_seconds(spans, contexts) -> float:
    """Build wall time not covered by probe, stream or store spans, summed
    over the outermost scheduler spans of the given build contexts."""
    by_context: dict = {}
    for span in spans:
        if span.context in contexts:
            by_context.setdefault(span.context, []).append(span)
    idle = 0.0
    for members in by_context.values():
        work = [(s.start, s.end) for s in members if s.name in _BUILD_WORK]
        for s in members:
            if s.name.startswith("service.scheduler") and s.parent == 0:
                inside = [(max(a, s.start), min(b, s.end)) for a, b in work
                          if b > s.start and a < s.end]
                idle += (s.end - s.start) - tracer.union_length(inside)
    return idle


def layer_metrics(spans, counts: dict, per: float = 1.0) -> dict:
    """Every span- and counter-derived per-layer metric, divided by ``per``
    (the number of traced iterations the spans cover)."""
    own = tracer.self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    failed_probes = 0
    memcpy_bytes = 0
    for span in spans:
        name, tag = span.name, span.tag
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[span.id]
        inclusive[name] = (inclusive.get(name, 0.0)
                           + span.cpu_end - span.cpu_start)
        if tag and tag.get("failed"):
            failed_probes += 1
        if tag and "bytes" in tag:
            memcpy_bytes += tag["bytes"]

    def n(name):
        return calls.get(name, 0) / per

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names) / per

    def ratio(num, den):
        return num / den if den else 0.0

    interp_time = inclusive.get("isa.interpreter", 0.0)
    trace_lookups = (counts.get("trace_hits", 0) + counts.get("trace_misses", 0)
                     + counts.get("trace_bailouts", 0))
    cc_total = counts.get("cc_hits", 0) + counts.get("cc_misses", 0)
    return {
        "core.probes.calls": n("core.probes"),
        "core.probes.failed": failed_probes / per,
        "core.probes.self_s": s("core.probes"),
        "core.routes.chains": n(tracer.ROUTE_CHAIN),
        "core.routes.self_s": s(tracer.ROUTE_CHAIN),
        "translate.units": n("translate"),
        "translate.self_s": s("translate"),
        "frontends.kernels": n("frontends"),
        "frontends.self_s": s("frontends"),
        "compilers.compiles": n("compilers.compile"),
        "compilers.cache_misses": counts.get("cc_misses", 0) / per,
        "compilers.cache_hit_ratio": ratio(counts.get("cc_hits", 0), cc_total),
        "compilers.self_s": s("compilers.compile", "compilers.optimize",
                              "compilers.legalize"),
        "compilers.optimize_s": s("compilers.optimize"),
        "compilers.legalize_s": s("compilers.legalize"),
        "isa.verifier.calls": n("isa.verifier"),
        "isa.verifier.self_s": s("isa.verifier"),
        "analysis.sanitize_calls": n("analysis.sanitize"),
        "analysis.sanitize_s": s("analysis.sanitize"),
        "analysis.lint_s": s("analysis.lint"),
        "gpu.launches": n("gpu.launch"),
        "gpu.launch_s": s("gpu.launch"),
        "gpu.memcpy_bytes": memcpy_bytes / per,
        "isa.interpreter.launches": n("isa.interpreter"),
        "isa.interpreter.lanes": counts.get("lanes", 0) / per,
        "isa.interpreter.batches": counts.get("batches", 0) / per,
        "isa.interpreter.self_s": s("isa.interpreter"),
        "isa.interpreter.lanes_per_s": ratio(counts.get("lanes", 0),
                                             interp_time),
        "isa.tracing.lookups": n("isa.tracing"),
        "isa.tracing.compiles": counts.get("trace_misses", 0) / per,
        "isa.tracing.bailouts": counts.get("trace_bailouts", 0) / per,
        "isa.tracing.hit_ratio": ratio(counts.get("trace_hits", 0),
                                       trace_lookups),
        "isa.tracing.self_s": s("isa.tracing"),
        "core.classifier.calls": n("core.classifier"),
        "core.classifier.self_s": s("core.classifier"),
        "workloads.stream_runs": n("workloads"),
        "workloads.stream_kernels": counts.get("stream_kernels", 0) / per,
        "workloads.self_s": s("workloads"),
        "perfport.routes": n("perfport"),
        "perfport.self_s": s("perfport"),
        "service.store.loads": n("service.store.load"),
        "service.store.saves": n("service.store.save"),
        "service.store.load_s": s("service.store.load"),
        "service.store.save_s": s("service.store.save"),
        "service.store.fingerprint_s": s("service.store.fingerprint"),
        "perfport.store.loads": n("perfport.store.load"),
        "perfport.store.saves": n("perfport.store.save"),
        "perfport.store.load_s": s("perfport.store.load"),
        "perfport.store.save_s": s("perfport.store.save"),
        "jit.from_source_s": s("jit.from_source"),
        "jit.build_row_s": s("jit.build_row"),
        "jit.reference_s": s("jit.reference"),
    }


def server_values(spans, reads, submits) -> dict:
    """Per-request ``service.server`` and ``jit`` values.

    ``reads`` are (request id, client-side seconds) pairs and ``submits``
    (request id, accepted) pairs; spans carry the request id as their
    context.  ``transport_ms`` is client time minus dispatch time: the
    cost of the transport, here ``InProcessClient`` and the typed reply
    it builds around ``dispatch``.
    """
    from perfbench.common import median

    dispatch = {s.context: s for s in spans
                if s.name == "service.server.dispatch"}
    children: dict[int, set] = {}
    for s in spans:
        children.setdefault(s.parent, set()).add(s.name)

    def ms(span):
        return (span.end - span.start) * 1e3

    read_ms = [ms(dispatch[rid]) for rid, _ in reads if rid in dispatch]
    submit_ms = [ms(dispatch[rid]) for rid, _ in submits if rid in dispatch]
    transport = [secs * 1e3 - ms(dispatch[rid]) for rid, secs in reads
                 if rid in dispatch]
    return {
        "service.server.requests": len(read_ms) + len(submit_ms),
        "service.server.dispatch_read_ms": median(read_ms),
        "service.server.dispatch_submit_ms": median(submit_ms),
        "service.server.transport_ms": median(transport),
        "jit.row_cache_hits": sum(
            1 for rid, accepted in submits if accepted and rid in dispatch
            and "jit.build_row" not in children.get(dispatch[rid].id, ())),
    }
