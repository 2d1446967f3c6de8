"""Concurrent scheduler for the matrix build: one cell task, two executors.

The sequential :func:`repro.core.matrix.build_matrix` loops over 51
cells x their routes x their probes.  Here the body of that loop — one
whole cell, routes in registry order, probes in suite order — is an
independent task (:func:`_eval_matrix_cell_task`) on the executor that
``execution`` selects: ``"thread"`` (the default and the fault-injection
test bed; GIL-bound, so ``jobs=N`` overlaps latency but does not scale
CPU work) or ``"process"`` (a fork-context ``ProcessPoolExecutor`` that
uses N cores; workers inherit the coordinator's warm compile caches).

A task returns the serialized cell; the coordinator decodes it, saves
the serialized form to the store as is and assembles the matrix in
``all_cells()`` order.
Probes are pairwise independent (each builds a fresh runtime) and
devices are per thread (:func:`_device`), so the matrix is
**bit-identical to the sequential build at every worker count on both
executors**.

:class:`JobEngine` owns the one loop both executors run: at most
``jobs`` tasks in flight, bounded retry with exponential backoff, the
fault hook, cooperative cancellation, broken-pool recovery and the job
counters.  On the process executor a task past ``timeout_s`` is
bounded: the loop waits only until the earliest in-flight deadline,
counts one ``jobs_timeout``, kills and rebuilds the pool and retries
every task that was in flight, as it does when a worker dies
(``worker_crashes``, ``worker_restarts``).  A thread cannot be
pre-empted, so the thread executor checks the budget when a task
returns.  ``fault_hook(info, attempt)`` gets a :class:`JobInfo`.  The
thread executor calls it in the worker thread; the process executor
calls it in the worker process if it pickles (so it can ``os._exit``)
and on the coordinator otherwise, where raising :class:`WorkerCrash`
simulates a death without killing a pool.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import KW_ONLY, dataclass
from typing import Callable, ClassVar

from repro.core.classifier import DEFAULT_THRESHOLDS, Thresholds
from repro.core.matrix import (
    CompatibilityMatrix,
    assemble_cell,
    assemble_route_result,
    probes_for_route,
)
from repro.core.probes import Probe, run_single_probe
from repro.core.routes import routes_for
from repro.enums import Language, Model, Vendor, all_cells
from repro.gpu.device import Device
from repro.gpu.specs import default_spec
from repro.service.metrics import MetricsRegistry
from repro.service.store import ResultStore, cell_from_dict, cell_to_dict

Cell = tuple[Vendor, Model, Language]

#: The execution backends the engine can run jobs on.
EXECUTION_THREAD = "thread"
EXECUTION_PROCESS = "process"
EXECUTION_MODES = (EXECUTION_THREAD, EXECUTION_PROCESS)

#: What pickling an unpicklable object raises.
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means "use every core" (the CLI's ``--jobs`` default)."""
    if jobs is None:
        return os.cpu_count() or 1
    return jobs


def resolve_execution(execution: str) -> str:
    """Validate the backend knob (raises ``ValueError`` on typos)."""
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}")
    return execution


class JobTimeout(Exception):
    """A job exceeded its time budget (or a fault hook simulated that)."""


class BuildCancelled(Exception):
    """The build was cancelled before all cells completed."""


class SchedulerError(Exception):
    """A job failed permanently (retries exhausted)."""


class WorkerCrash(Exception):
    """A worker process died mid-job (or a fault hook simulated that).

    Raised internally per failed attempt and converted to a structured
    retry; it only escapes (wrapped in :class:`SchedulerError`) when the
    retry budget is exhausted.
    """


@dataclass(frozen=True)
class JobInfo:
    """One cell task as fault hooks see it; picklable, so it ships to
    worker processes.

    ``label`` is ``kind:vendor:model:language``, e.g.
    ``cell:NVIDIA:CUDA:C++`` or ``perf_cell:AMD:HIP:C++``.
    """

    label: str
    kind: str
    cell: tuple[str, str, str]


class _Devices(threading.local):
    """The current thread's devices, one per vendor, built on first use."""

    def __init__(self):
        self.by_vendor: dict[Vendor, Device] = {}


_DEVICES = _Devices()


def _device(vendor: Vendor) -> Device:
    dev = _DEVICES.by_vendor.get(vendor)
    if dev is None:
        dev = _DEVICES.by_vendor[vendor] = Device(default_spec(vendor))
    return dev


@dataclass
class BuildReport:
    """Outcome of one scheduled build."""

    noun: ClassVar[str] = "cells"

    matrix: CompatibilityMatrix
    metrics: MetricsRegistry
    jobs: int
    elapsed_s: float
    cells_from_store: int
    cells_evaluated: int
    store: ResultStore | None = None

    def summary_line(self) -> str:
        reuse = (f"{self.cells_from_store} from store, "
                 if self.store is not None else "")
        return (f"{self.matrix.n_cells} {self.noun} ({reuse}"
                f"{self.cells_evaluated} evaluated) with {self.jobs} "
                f"worker(s) in {self.elapsed_s:.2f}s")


def _entry(info: JobInfo, task: Callable, args: tuple, attempt: int,
           fault_hook) -> tuple[object, float]:
    """One attempt at one task, on a worker; returns (payload, seconds)."""
    start = time.monotonic()
    if fault_hook is not None:
        fault_hook(info, attempt)
    payload = task(*args)
    return payload, time.monotonic() - start


def _discard(pool: concurrent.futures.Executor) -> None:
    """Shut a pool down without waiting, killing any worker processes."""
    # Private: ProcessPoolExecutor gains kill_workers() only in 3.14.
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass(eq=False)
class JobEngine:
    """The cell-task build shared by the matrix and perf schedulers.

    A subclass sets ``prefix`` (prepended to the job kind ``cell`` and
    to the store, worker and build metric names), ``work_counter`` (what
    a task's work count adds to), ``report`` (the report class) and
    ``_task``, a module-level function returning ``(serialized cell,
    work count)``; it has a ``store`` field and implements
    ``_task_args(cell)``, ``_decode(payload)`` and ``_matrix(cells)``.
    """

    prefix = ""
    work_counter = "probes_executed"
    report = BuildReport

    jobs: int | None = 1
    _: KW_ONLY
    execution: str = EXECUTION_THREAD
    metrics: MetricsRegistry | None = None
    timeout_s: float = 60.0
    max_retries: int = 2
    backoff_s: float = 0.05
    fault_hook: Callable[[JobInfo, int], None] | None = None

    def __post_init__(self):
        self.jobs = resolve_jobs(self.jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.execution = resolve_execution(self.execution)
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        """Cooperatively cancel the build: no further task starts."""
        self._cancelled.set()

    def _usable_store(self):
        return self.store

    def build(self) -> BuildReport:
        """Evaluate (or load) every cell and assemble the matrix.

        Stored cells load first; the missing ones run as tasks, whose
        serialized cells are saved here, on the coordinator, as they
        arrive; the matrix is assembled in ``all_cells()`` order.  A
        build served entirely by the store starts no executor.
        """
        start = time.monotonic()
        p = self.prefix
        store = self._usable_store()
        self.metrics.gauge(p + "workers").set(self.jobs)
        cells: dict = {}
        missing: list[Cell] = []
        for cell in all_cells():
            cached = store.load(cell) if store is not None else None
            if cached is not None:
                cells[cell] = cached
                self.metrics.counter(p + "store_hits").inc()
                continue
            if store is not None:
                self.metrics.counter(p + "store_misses").inc()
            missing.append(cell)

        def done(i: int, payload: tuple[dict, int]) -> None:
            serialized, work = payload
            cells[missing[i]] = self._decode(serialized)
            self.metrics.counter(self.work_counter).inc(work)
            if store is not None:
                store.save(missing[i], serialized)
                self.metrics.counter(p + "store_writes").inc()

        self._evaluate(missing, done)
        self.metrics.counter(p + "builds").inc()
        return self.report(
            matrix=self._matrix({cell: cells[cell] for cell in all_cells()}),
            metrics=self.metrics,
            jobs=self.jobs,
            elapsed_s=time.monotonic() - start,
            cells_from_store=len(cells) - len(missing),
            cells_evaluated=len(missing),
            store=self.store,
        )

    # -- the one retry / timeout / crash loop ------------------------------

    def _make_pool(self) -> concurrent.futures.Executor:
        if self.execution == EXECUTION_THREAD:
            return concurrent.futures.ThreadPoolExecutor(
                self.jobs, thread_name_prefix=f"{self.prefix}cell-worker")
        # fork, where available, starts fast and inherits the warm
        # compile caches; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=ctx)

    def _evaluate(self, cells: list[Cell],
                  on_done: Callable[[int, object], None]) -> None:
        """Run the task of every cell in ``cells``, handing each result
        to ``on_done(index, result)`` on the coordinator.

        Raises :class:`SchedulerError` once a task exhausts its retries
        and :class:`BuildCancelled` on cancel.
        """
        if not cells:
            return
        kind = self.prefix + "cell"
        infos = [JobInfo(":".join((kind,) + values), kind, values)
                 for values in (tuple(p.value for p in c) for c in cells)]
        args = [self._task_args(cell) for cell in cells]
        process = self.execution == EXECUTION_PROCESS
        wire_hook, local_hook = self.fault_hook, None
        if process:
            try:
                pickle.dumps(args[0])
            except _PICKLE_ERRORS as exc:
                raise ValueError(
                    f"task arguments must be picklable for process "
                    f"execution: {exc}") from exc
            try:
                pickle.dumps(self.fault_hook)
            except _PICKLE_ERRORS:
                wire_hook, local_hook = None, self.fault_hook
        counter = self.metrics.counter
        attempts = [0] * len(cells)
        pending = deque(range(len(cells)))
        inflight: dict[concurrent.futures.Future, tuple[int, float]] = {}

        def retry(i: int, exc: Exception, crash_counted=False) -> None:
            if isinstance(exc, WorkerCrash) and not crash_counted:
                counter("worker_crashes").inc()
            if isinstance(exc, JobTimeout):
                counter("jobs_timeout").inc()
            if attempts[i] > self.max_retries:
                raise SchedulerError(
                    f"job {infos[i].label} failed after {attempts[i]} "
                    f"attempt(s): {type(exc).__name__}: {exc}") from exc
            counter("jobs_retried").inc()
            if self.backoff_s > 0:
                time.sleep(self.backoff_s * (2 ** (attempts[i] - 1)))
            pending.append(i)

        pool = self._make_pool()
        try:
            while pending or inflight:
                if self._cancelled.is_set():
                    raise BuildCancelled(
                        f"build cancelled with {len(pending) + len(inflight)}"
                        f" task(s) outstanding")
                while pending and len(inflight) < self.jobs:
                    i = pending.popleft()
                    attempts[i] += 1
                    try:
                        if local_hook is not None:
                            local_hook(infos[i], attempts[i] - 1)
                    except BuildCancelled:
                        raise
                    except Exception as exc:
                        retry(i, exc)
                        continue
                    future = pool.submit(_entry, infos[i], self._task,
                                         args[i], attempts[i] - 1, wire_hook)
                    inflight[future] = (i, time.monotonic() + self.timeout_s)
                wait_s = None
                if process and inflight:
                    earliest = min(d for _, d in inflight.values())
                    wait_s = max(0.0, earliest - time.monotonic())
                done, _ = concurrent.futures.wait(
                    inflight, wait_s, concurrent.futures.FIRST_COMPLETED)
                broken = False
                for future in done:
                    i, _ = inflight.pop(future)
                    try:
                        payload, elapsed = future.result()
                        if elapsed > self.timeout_s:
                            raise JobTimeout(
                                f"{infos[i].label} took {elapsed:.3f}s "
                                f"(budget {self.timeout_s}s)")
                    except BrokenProcessPool as exc:
                        # A dead worker fails every in-flight future; the
                        # crash is counted once, below.
                        broken = True
                        retry(i, WorkerCrash(
                            f"worker process died while {infos[i].label} "
                            f"was in flight: {exc}"), crash_counted=True)
                    except BuildCancelled:
                        raise
                    except Exception as exc:
                        retry(i, exc)
                    else:
                        counter(f"jobs_completed_{kind}").inc()
                        self.metrics.histogram(
                            f"job_latency_{kind}").observe(elapsed)
                        on_done(i, payload)
                now = time.monotonic()
                expired = {i for i, d in inflight.values()
                           if process and d <= now}
                if broken or expired:
                    if broken:
                        counter("worker_crashes").inc()
                    # Every worker goes; what was in flight starts over.
                    _discard(pool)
                    pool = self._make_pool()
                    counter("worker_restarts").inc()
                    casualties = [i for i, _ in inflight.values()]
                    inflight.clear()
                    for i in casualties:
                        if i in expired:
                            retry(i, JobTimeout(
                                f"{infos[i].label} ran past its "
                                f"{self.timeout_s}s budget"))
                        else:
                            retry(i, WorkerCrash(
                                f"worker pool restarted while "
                                f"{infos[i].label} was in flight"),
                                crash_counted=True)
        except BaseException:
            _discard(pool)
            raise
        pool.shutdown(wait=True)


# -- the matrix build ---------------------------------------------------------


def _eval_matrix_cell_task(
    cell: Cell,
    thresholds: Thresholds,
    probe_filter: Callable[[Probe], bool] | None,
) -> tuple[dict, int]:
    """Evaluate one full cell; returns it serialized and the probe count.

    Mirrors the per-cell loop of :func:`repro.core.matrix.build_matrix`
    exactly — routes in registry order, probes in suite order — so the
    payload decodes bit-identically via ``cell_from_dict``.
    """
    vendor, model, language = cell
    device = _device(vendor)
    probes_run = 0
    results = []
    for route in routes_for(vendor, model, language):
        probes = probes_for_route(route, probe_filter)
        outcomes = [run_single_probe(route, device, probe)
                    for probe in probes]
        probes_run += len(probes)
        results.append(assemble_route_result(route, outcomes, thresholds))
    return cell_to_dict(assemble_cell(vendor, model, language,
                                      results)), probes_run


@dataclass(eq=False, kw_only=True)
class MatrixScheduler(JobEngine):
    """Builds the compatibility matrix, one task per cell."""

    _task = staticmethod(_eval_matrix_cell_task)

    store: ResultStore | None = None
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    probe_filter: Callable[[Probe], bool] | None = None

    def _task_args(self, cell: Cell) -> tuple:
        return cell, self.thresholds, self.probe_filter

    def _decode(self, payload: dict):
        return cell_from_dict(payload, self.thresholds)

    def _matrix(self, cells: dict) -> CompatibilityMatrix:
        return CompatibilityMatrix(cells=cells, thresholds=self.thresholds)

    def _usable_store(self):
        if self.store is not None and self.probe_filter is not None:
            # A filter callable is not fingerprintable.
            self.metrics.counter("store_bypassed").inc()
            return None
        return self.store


def build_matrix_concurrent(
    jobs: int | None = 1,
    *,
    execution: str = EXECUTION_THREAD,
    store: ResultStore | str | None = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    probe_filter: Callable[[Probe], bool] | None = None,
    metrics: MetricsRegistry | None = None,
    timeout_s: float = 60.0,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    fault_hook: Callable[[JobInfo, int], None] | None = None,
) -> BuildReport:
    """One-call concurrent matrix build (see :class:`MatrixScheduler`).

    ``store`` may be a :class:`~repro.service.store.ResultStore` or a
    directory path; ``None`` disables persistence.  The result is
    bit-identical to :func:`repro.core.matrix.build_matrix` with the
    same thresholds/probe filter, at every ``jobs`` count — on either
    execution backend.
    """
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store, thresholds=thresholds, metrics=metrics)
    scheduler = MatrixScheduler(
        jobs,
        execution=execution,
        store=store,
        thresholds=thresholds,
        probe_filter=probe_filter,
        metrics=metrics,
        timeout_s=timeout_s,
        max_retries=max_retries,
        backoff_s=backoff_s,
        fault_hook=fault_hook,
    )
    return scheduler.build()
