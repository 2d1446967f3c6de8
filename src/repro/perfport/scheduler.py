"""Concurrent perf-matrix build on the matrix scheduler's cell-task engine.

One task per cell (:func:`_eval_perf_cell_task`) streams the cell's
viable routes in registry order, each on a **fresh device** (the
simulated clock is device state) through its own runtime chain — the
body of the sequential :func:`repro.perfport.matrix.build_perf_matrix`
loop — so the result is bit-identical at every ``--jobs`` count on both
executors.  Executors, retries, timeouts, persistence and assembly are
:class:`repro.service.scheduler.JobEngine`'s.  Perf metrics carry a
``perf_`` prefix (``perf_cell`` jobs, ``perf_store_*``, ``perf_workers``)
so the matrix build's names stay untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.core.classifier import DEFAULT_THRESHOLDS, Thresholds
from repro.core.matrix import CompatibilityMatrix
from repro.core.routes import routes_for
from repro.perfport.matrix import (
    Cell,
    PerfMatrix,
    PerfParams,
    assemble_perf_cell,
    viable_routes,
)
from repro.perfport.store import (
    PerfStore,
    perf_cell_from_dict,
    perf_cell_to_dict,
)
from repro.perfport.stream import run_stream_via_route
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import (
    EXECUTION_THREAD,
    BuildReport,
    JobEngine,
    JobInfo,
)
from repro.service.store import ResultStore


@dataclass
class PerfBuildReport(BuildReport):
    """Outcome of one scheduled perf build: ``matrix`` is a
    :class:`PerfMatrix` and ``store`` a :class:`PerfStore`."""

    noun: ClassVar[str] = "perf cells"

    compat_report: BuildReport | None = None  # of the compat phase


def _eval_perf_cell_task(
    cell: Cell,
    route_ids: tuple[str, ...],
    params: PerfParams,
) -> tuple[dict, int]:
    """Stream one cell's viable routes; returns it serialized and the
    number of stream runs.

    ``route_ids`` arrive in registry order (the coordinator derived them
    from the compat matrix, which does not travel to a worker process);
    they resolve against the live registry in that order, so the payload
    decodes bit-identically via ``perf_cell_from_dict``.
    """
    by_id = {r.route_id: r for r in routes_for(*cell)}
    perfs = [run_stream_via_route(by_id[rid], params) for rid in route_ids]
    return perf_cell_to_dict(assemble_perf_cell(cell, perfs)), len(perfs)


@dataclass(eq=False, kw_only=True)
class PerfScheduler(JobEngine):
    """Builds the perf matrix, one task per cell."""

    prefix = "perf_"
    work_counter = "stream_runs"
    report = PerfBuildReport
    _task = staticmethod(_eval_perf_cell_task)

    compat: CompatibilityMatrix
    params: PerfParams = PerfParams()
    store: PerfStore | None = None
    timeout_s: float = 120.0

    def _task_args(self, cell: Cell) -> tuple:
        route_ids = tuple(r.route_id for r in viable_routes(self.compat, cell))
        return cell, route_ids, self.params

    def _decode(self, payload: dict):
        return perf_cell_from_dict(payload)

    def _matrix(self, cells: dict) -> PerfMatrix:
        return PerfMatrix(params=self.params, cells=cells)


def run_perf_matrix(
    jobs: int | None = 1,
    *,
    execution: str = EXECUTION_THREAD,
    store: str | None = None,
    params: PerfParams = PerfParams(),
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    metrics: MetricsRegistry | None = None,
    compat: CompatibilityMatrix | None = None,
    timeout_s: float = 120.0,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    fault_hook: Callable[[JobInfo, int], None] | None = None,
) -> PerfBuildReport:
    """One-call perf-portability evaluation.

    Builds (or reloads) the compatibility matrix first — viability of a
    route is a compat question — then times every viable route.  One
    ``store`` directory persists both: compat cells at its root, perf
    cells under ``<store>/perf/``, each behind its own fingerprint, so
    a warm rerun executes zero probes *and* zero stream kernels.
    """
    from repro.service.scheduler import build_matrix_concurrent

    metrics = metrics if metrics is not None else MetricsRegistry()
    compat_report = None
    if compat is None:
        compat_store = (ResultStore(store, thresholds=thresholds,
                                    metrics=metrics)
                        if store is not None else None)
        compat_report = build_matrix_concurrent(
            jobs, execution=execution, store=compat_store,
            thresholds=thresholds, metrics=metrics)
        compat = compat_report.matrix
    perf_store = (PerfStore(store, params=params, thresholds=thresholds,
                            metrics=metrics)
                  if store is not None else None)
    scheduler = PerfScheduler(
        jobs,
        compat=compat,
        execution=execution,
        params=params,
        store=perf_store,
        metrics=metrics,
        timeout_s=timeout_s,
        max_retries=max_retries,
        backoff_s=backoff_s,
        fault_hook=fault_hook,
    )
    report = scheduler.build()
    report.compat_report = compat_report
    return report
