"""Performance-portability evaluation over the compatibility matrix.

The §5 extension the paper names as future work: run the five
BabelStream kernels through **every viable route** of every Figure-1
cell — translated routes included — and reduce the simulated GB/s into
per-cell efficiencies, per-model cascades, and the Pennycook ⫫ metric
over the three-vendor platform set.

Entry points:

* :func:`run_perf_matrix` — build (or reload) everything concurrently;
* :func:`build_perf_matrix` — the sequential reference loop;
* :func:`portability_report` — cascades + ⫫ per (model, language).
"""

from repro.perfport.matrix import (
    DEFAULT_N,
    DEFAULT_REPS,
    PerfCell,
    PerfMatrix,
    PerfParams,
    RoutePerf,
    build_perf_matrix,
    viable_routes,
)
from repro.perfport.portability import (
    CascadeEntry,
    PortabilityRow,
    cascade,
    pennycook_metric,
    portability_report,
)
from repro.perfport.scheduler import (
    PerfBuildReport,
    PerfScheduler,
    run_perf_matrix,
)
from repro.perfport.store import PerfStore, perf_fingerprint
from repro.perfport.stream import run_stream_via_route

__all__ = [
    "DEFAULT_N",
    "DEFAULT_REPS",
    "CascadeEntry",
    "PerfBuildReport",
    "PerfCell",
    "PerfMatrix",
    "PerfParams",
    "PerfScheduler",
    "PerfStore",
    "PortabilityRow",
    "RoutePerf",
    "build_perf_matrix",
    "cascade",
    "pennycook_metric",
    "perf_fingerprint",
    "portability_report",
    "run_perf_matrix",
    "run_stream_via_route",
    "viable_routes",
]
