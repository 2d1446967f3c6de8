"""Tests for the matrix evaluation service.

The load-bearing property: the concurrent scheduler is **bit-identical
to the sequential build at every worker count**, with and without the
persistent store, and under injected faults.  Everything else — the
store's content addressing, the serving layer's two transports, the
metrics registry — is tested against that same fixed ground truth.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.analysis import analyze_module
from repro.core.matrix import build_matrix
from repro.core.render import RENDERERS, matrix_lookup
from repro.enums import Language, Model, SupportCategory, Vendor, all_cells
from repro.isa.interpreter import snapshot_interpreter_totals
from repro.isa.module import ModuleIR
from repro.kernels import KERNEL_LIBRARY
from repro.service import (
    EXECUTION_MODES,
    BuildCancelled,
    InProcessClient,
    JobTimeout,
    MatrixScheduler,
    MatrixService,
    MetricsRegistry,
    ResultStore,
    SchedulerError,
    WorkerCrash,
    build_matrix_concurrent,
    cell_from_dict,
    cell_to_dict,
    environment_fingerprint,
    make_server,
)
from repro.service.metrics import Counter, Gauge, Histogram


@pytest.fixture(scope="module")
def seq_matrix():
    """The sequential ground truth every concurrency test compares to."""
    return build_matrix()


@pytest.fixture(scope="module")
def warm_store_dir(tmp_path_factory, seq_matrix):
    """A store directory populated by one cold scheduled build."""
    root = tmp_path_factory.mktemp("matrix-store")
    report = build_matrix_concurrent(4, store=str(root))
    assert report.matrix.cells == seq_matrix.cells
    assert report.cells_evaluated == 51
    return root


def _render_text(matrix) -> str:
    return RENDERERS["text"](matrix_lookup(matrix), title="t")


def _lint_json() -> str:
    module = ModuleIR(name="kernel_library")
    for fn in KERNEL_LIBRARY.values():
        module.add(fn.ir)
    return analyze_module(module).to_json()


def _transval_json() -> str:
    from repro.analysis.transval import shipped_translators, validate_all

    return validate_all(shipped_translators()).to_json()


# -- concurrent determinism ---------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 4, 16])
def test_concurrent_build_bit_identical(jobs, seq_matrix):
    report = build_matrix_concurrent(jobs)
    assert report.jobs == jobs
    assert report.cells_evaluated == 51
    # Identical CellResults (routes, suites, outcomes, categories)...
    assert report.matrix.cells == seq_matrix.cells
    # ...and the identical rendered Figure 1.
    assert _render_text(report.matrix) == _render_text(seq_matrix)


def test_diagnostics_identical_across_worker_counts():
    """Concurrent builds must not perturb the analysis layers."""
    lint_before, tv_before = _lint_json(), _transval_json()
    for jobs in (4, 16):
        build_matrix_concurrent(jobs)
        assert _lint_json() == lint_before
        assert _transval_json() == tv_before


def test_scheduler_metrics_cover_all_job_kinds(seq_matrix):
    """The build has one job kind, the cell task: 51 of them complete,
    each with a latency sample, running exactly the sequential probes."""
    metrics = MetricsRegistry()
    report = build_matrix_concurrent(4, metrics=metrics)
    assert report.matrix.cells == seq_matrix.cells
    snap = metrics.snapshot()
    assert snap["counters"]["jobs_completed_cell"] == 51
    assert snap["histograms"]["job_latency_cell"]["count"] == 51
    sequential_probes = sum(len(rr.suite.outcomes)
                            for cell in seq_matrix.cells.values()
                            for rr in cell.routes)
    assert snap["counters"]["probes_executed"] == sequential_probes
    assert snap["gauges"]["workers"] == 4


# -- the persistent result store ----------------------------------------------


def test_warm_store_rerun_executes_zero_probes(warm_store_dir, seq_matrix):
    before = snapshot_interpreter_totals().launches
    metrics = MetricsRegistry()
    report = build_matrix_concurrent(
        4, store=str(warm_store_dir), metrics=metrics)
    assert report.cells_from_store == 51
    assert report.cells_evaluated == 0
    assert metrics.counter("probes_executed").get() == 0
    assert snapshot_interpreter_totals().launches == before
    # Loaded cells reconstruct bit-identically.
    assert report.matrix.cells == seq_matrix.cells
    assert report.store.stats.as_dict()["hits"] == 51


def test_store_invalidates_when_thresholds_change(warm_store_dir):
    from repro.core.classifier import Thresholds

    strict = Thresholds(full=0.99, comprehensive=0.95,
                        indirect=0.90, usable=0.80)
    assert environment_fingerprint(strict) != environment_fingerprint()
    report = build_matrix_concurrent(
        2, store=ResultStore(warm_store_dir, thresholds=strict),
        thresholds=strict)
    # Every lookup missed: different environment, full re-derivation.
    assert report.cells_from_store == 0
    assert report.cells_evaluated == 51
    assert report.matrix.cells == build_matrix(thresholds=strict).cells


def test_store_corrupt_entry_is_a_miss_not_an_error(tmp_path, seq_matrix):
    root = tmp_path / "store"
    build_matrix_concurrent(4, store=str(root))
    store = ResultStore(root)
    victim = store.entries()[0]
    victim.write_text("{not json")
    report = build_matrix_concurrent(4, store=store)
    assert report.cells_from_store == 50
    assert report.cells_evaluated == 1
    assert store.stats.as_dict()["invalid"] == 1
    assert report.matrix.cells == seq_matrix.cells


def test_store_corrupt_entry_logs_path_and_counts_in_metrics(
        tmp_path, caplog):
    """A corrupt entry leaves an audit trail: a structured warning that
    names the entry, plus a ``store_corrupt_entries`` counter."""
    root = tmp_path / "store"
    build_matrix_concurrent(2, store=str(root))
    metrics = MetricsRegistry()
    store = ResultStore(root, metrics=metrics)
    victim = store.entries()[0]
    victim.write_text("{not json")
    cell = next(iter(all_cells()))
    # Find the cell the victim file addresses so the load really hits it.
    for candidate in all_cells():
        if store._path(candidate) == victim:
            cell = candidate
            break
    with caplog.at_level("WARNING", logger="repro.service.store"):
        assert store.load(cell) is None
    assert any(str(victim) in rec.getMessage() and
               "treated as miss" in rec.getMessage()
               for rec in caplog.records)
    assert metrics.counter("store_corrupt_entries").get() == 1
    assert metrics.snapshot()["counters"]["store_corrupt_entries"] == 1


def test_perf_store_corrupt_entry_logs_and_counts(tmp_path, caplog):
    from repro.perfport.store import PerfStore

    metrics = MetricsRegistry()
    store = PerfStore(tmp_path, metrics=metrics)
    cell = (Vendor.NVIDIA, Model.CUDA, Language.CPP)
    # The store creates cells/ on its first save, not on construction.
    store._path(cell).parent.mkdir(parents=True)
    store._path(cell).write_text("}garbage")
    with caplog.at_level("WARNING", logger="repro.perfport.store"):
        assert store.load(cell) is None
    assert any("corrupt perf-store entry treated as miss" in
               rec.getMessage() for rec in caplog.records)
    assert metrics.counter("perf_store_corrupt_entries").get() == 1


def test_store_prune_removes_unaddressed_entries(tmp_path):
    root = tmp_path / "store"
    build_matrix_concurrent(4, store=str(root))
    store = ResultStore(root)
    stale = root / "cells" / "stale.000000000000.json"
    stale.write_text("{}")
    assert store.prune() == 1
    assert not stale.exists()
    assert store.prune() == 0  # live entries survive


def test_cell_serialization_roundtrip(seq_matrix):
    for cell in (
        (Vendor.NVIDIA, Model.CUDA, Language.CPP),
        (Vendor.AMD, Model.OPENMP, Language.FORTRAN),
        (Vendor.INTEL, Model.PYTHON, Language.PYTHON),
    ):
        original = seq_matrix.cells[cell]
        rebuilt = cell_from_dict(cell_to_dict(original))
        assert rebuilt == original
        assert rebuilt.primary is original.primary
        assert rebuilt.secondary == original.secondary


# -- timeouts, retries, cancellation ------------------------------------------


def _first_probe_filter(probe):
    """Shrinks each suite to its first probe (fast fault-path builds)."""
    return probe.method in {
        "probe_kernels", "probe_queues", "probe_target", "probe_parallel",
        "probe_for_each", "probe_do_concurrent", "probe_range_for",
        "probe_exec", "probe_ufuncs",
    }


#: The fault-hook target: the task of the NVIDIA/CUDA/C++ cell (both
#: executors run one ``cell`` job per cell).
_CRASH_LABEL = "cell:NVIDIA:CUDA:C++"


def test_seeded_timeout_succeeds_on_retry(seq_matrix):
    """A cell job that times out twice still yields the correct cell."""
    reference = build_matrix(probe_filter=_first_probe_filter)
    for execution in EXECUTION_MODES:
        fails: dict[str, int] = {}

        def hook(info, attempt):
            if info.label == _CRASH_LABEL:
                n = fails.setdefault(info.label, 0)
                if n < 2:
                    fails[info.label] = n + 1
                    raise JobTimeout(
                        f"injected timeout #{n + 1} for {info.label}")

        metrics = MetricsRegistry()
        report = build_matrix_concurrent(
            4, execution=execution, probe_filter=_first_probe_filter,
            metrics=metrics, fault_hook=hook, backoff_s=0.001,
            max_retries=2)
        assert report.matrix.cells == reference.cells, execution
        assert metrics.counter("jobs_timeout").get() == 2, execution
        assert metrics.counter("jobs_retried").get() == 2, execution


def test_retries_exhausted_raises_scheduler_error():
    def hook(info, attempt):
        if info.label == _CRASH_LABEL:
            raise JobTimeout("injected permanent timeout")

    for execution in EXECUTION_MODES:
        with pytest.raises(SchedulerError, match=r"cell:NVIDIA:CUDA:C\+\+"):
            build_matrix_concurrent(
                2, execution=execution, probe_filter=_first_probe_filter,
                fault_hook=hook, backoff_s=0.0, max_retries=1)


def test_cancellation_stops_the_build():
    for execution in EXECUTION_MODES:
        box: dict[str, MatrixScheduler] = {}

        def hook(info, attempt):
            if info.label == _CRASH_LABEL:
                box["scheduler"].cancel()

        scheduler = MatrixScheduler(
            4, execution=execution, probe_filter=_first_probe_filter,
            fault_hook=hook, backoff_s=0.0)
        box["scheduler"] = scheduler
        with pytest.raises(BuildCancelled):
            scheduler.build()


# -- the serving layer --------------------------------------------------------


@pytest.fixture(scope="module")
def service(warm_store_dir):
    """A service over the warm store (startup serves without probing)."""
    svc = MatrixService(jobs=2, store=str(warm_store_dir))
    report = svc.ensure_built()
    assert report.cells_from_store == 51
    return svc


def test_inprocess_client_cell_lookup(service, seq_matrix):
    client = InProcessClient(service)
    payload = client.cell("NVIDIA", "CUDA", "c++")
    expected = seq_matrix.cells[(Vendor.NVIDIA, Model.CUDA, Language.CPP)]
    from repro.service import SCHEMA_VERSION

    assert payload.schema_version == SCHEMA_VERSION
    assert payload.data == cell_to_dict(expected)
    assert payload["primary"] == "FULL"
    assert {r["route_id"] for r in payload["routes"]} == {
        r.route.route_id for r in expected.routes}


def test_inprocess_client_table_matches_renderer(service, seq_matrix):
    client = InProcessClient(service)
    for fmt in ("text", "markdown", "yaml"):
        payload = client.table(fmt)
        assert payload["format"] == fmt
        assert payload["table"]  # non-empty
    text = client.table("text")["table"]
    assert text == RENDERERS["text"](
        matrix_lookup(seq_matrix),
        title="Figure 1 (derived empirically on the simulated system)")


def test_inprocess_client_advise_and_lint(service):
    client = InProcessClient(service)
    advice = client.advise(vendor="AMD", language="fortran")
    assert advice["recommendations"]
    assert "AMD" in advice["scope"]
    by_model = client.advise(model="SYCL", language="c++")
    assert by_model["recommendations"]
    report = client.lint_report()
    assert "diagnostics" in report and "counts" in report
    # Built once per service, with no agreement rollup of its own.
    assert service.lint_report() is service.lint_report()
    assert "agreement" not in report


def test_inprocess_client_metrics(service):
    snap = InProcessClient(service).metrics()
    assert snap["service"]["built"] is True
    assert snap["service"]["cells_from_store"] == 51
    assert snap["store"]["hits"] == 51
    assert "compile_cache" in snap and "interpreter" in snap


def test_unknown_cell_is_a_service_error(service):
    from repro.service import ServiceError

    client = InProcessClient(service)
    with pytest.raises(ServiceError):
        client.cell("NVIDIA", "CUDA", "rust")
    with pytest.raises(ServiceError):
        client.cell("IBM", "CUDA", "c++")
    # A non-Figure-1 combination (RAJA is extended-table only).
    with pytest.raises(ServiceError):
        client.cell("NVIDIA", "RAJA", "c++")


def test_http_transport_agrees_with_inprocess(service):
    from repro.service import HttpClient

    server = make_server(service)  # 127.0.0.1, ephemeral port
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http = HttpClient(host, port)
        inproc = InProcessClient(service)
        assert http.health()["status"] == "ok"
        assert http.cell("nvidia", "cuda", "c++") == \
            inproc.cell("nvidia", "cuda", "c++")
        assert http.table("markdown") == inproc.table("markdown")
        assert http.advise(vendor="Intel", language="cpp") == \
            inproc.advise(vendor="Intel", language="cpp")
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as err:
            http.cell("nvidia", "cuda", "rust")
        assert err.value.status == 404
    finally:
        server.shutdown()
        server.server_close()


def test_all_endpoints_payload_identical_across_transports(warm_store_dir):
    """Every endpoint — the original six, the three perf ones, the two
    perfstat ones, and the tracesan one — must return the identical
    versioned payload through both clients."""
    from repro.perfport import PerfParams
    from repro.service import (
        SCHEMA_VERSION,
        BadRequestError,
        HttpClient,
        MatrixClient,
        NotFoundError,
    )

    svc = MatrixService(jobs=2, store=str(warm_store_dir),
                        perf_params=PerfParams(n=1 << 12, reps=2))
    server = make_server(svc)
    host, port = server.server_address
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        inproc, http = InProcessClient(svc), HttpClient(host, port)
        assert isinstance(inproc, MatrixClient)
        assert isinstance(http, MatrixClient)
        calls = [
            ("health", ()),
            ("cell", ("NVIDIA", "CUDA", "c++")),
            ("table", ("markdown",)),
            ("advise", ("AMD", None, "fortran")),
            ("lint_report", ()),
            ("perf_matrix", ()),
            ("perf_cell", ("Intel", "SYCL", "c++")),
            ("perf_portability", ()),
            ("perf_static", ()),
            ("lint_perf", ()),
            ("lint_traces", ()),
            ("admin_stores", ()),
            ("metrics", ()),
        ]
        for name, args in calls:
            a = getattr(inproc, name)(*args)
            b = getattr(http, name)(*args)
            assert a.schema_version == SCHEMA_VERSION, name
            if name == "metrics":
                # A live snapshot: require identical shape, not counts.
                assert a.payload.keys() == b.payload.keys()
                assert a["counters"].keys() == b["counters"].keys()
            else:
                assert a.payload == b.payload, name
        # Error parity: same typed error, code, and status both ways.
        for client in (inproc, http):
            with pytest.raises(NotFoundError) as err:
                client.cell("IBM", "CUDA", "c++")
            assert err.value.status == 404
            assert err.value.code == "not_found"
            with pytest.raises(BadRequestError) as err:
                client.table("docx")
            assert err.value.status == 400
            with pytest.raises(NotFoundError):
                client.perf_cell("NVIDIA", "CUDA", "rust")
    finally:
        server.shutdown()
        server.server_close()


def test_perfstat_endpoints_payload_and_gauges(warm_store_dir):
    """``/perf/static`` serves all 51 predicted cells; ``/lint/perf``
    runs the cross-check clean and publishes the agreement gauges."""
    from repro.perfport import PerfParams

    svc = MatrixService(jobs=2, store=str(warm_store_dir),
                        perf_params=PerfParams(n=1 << 12, reps=2))
    client = InProcessClient(svc)

    static = client.perf_static()
    assert static.n_cells == 51 and len(static.cells) == 51
    for cell in static.cells:
        if cell["supported"]:
            assert {r["route_id"] for r in cell["routes"]}
            assert cell["best_route"] is not None
            assert 0.0 < cell["efficiency"] < 1.0

    lint = client.lint_perf()
    assert lint["counts"]["error"] == 0
    assert lint["counts"]["warning"] == 0
    assert lint.agreement["prediction_errors"] == 0
    assert lint.agreement["cells_agreeing"] == 40

    snap = client.metrics()
    assert snap["gauges"]["perfstat_cells_agreeing"] == 40
    assert snap["gauges"]["perfstat_prediction_errors"] == 0
    assert snap["service"]["static_perf_built"] is True


def test_tracesan_endpoint_payload_and_gauges():
    """``/lint/traces`` validates the library statically (zero kernel
    executions) and publishes the ``tracesan_*`` agreement gauges."""
    from repro.isa.interpreter import snapshot_interpreter_totals

    svc = MatrixService(jobs=2)
    client = InProcessClient(svc)

    before = snapshot_interpreter_totals().launches
    lint = client.lint_traces()
    assert snapshot_interpreter_totals().launches == before

    assert lint["counts"]["error"] == 0
    agreement = lint.agreement
    assert agreement["errors"] == 0
    assert agreement["validated"] == \
        agreement["kernels_total"] - agreement["bailed_out"]
    assert agreement["bailed_out"] >= 1  # warp_reduce_sum (shuffle)

    snap = client.metrics()
    assert snap["gauges"]["tracesan_errors"] == 0
    assert snap["gauges"]["tracesan_validated"] == agreement["validated"]
    assert snap["gauges"]["tracesan_kernels_total"] == \
        agreement["kernels_total"]

    # The sweep is cached: a second request serves the same payload.
    assert client.lint_traces().payload == lint.payload


def test_http_client_rejects_schema_skew():
    from repro.service.api import (
        SCHEMA_VERSION,
        SchemaVersionError,
        check_schema_version,
        error_from_payload,
    )

    with pytest.raises(SchemaVersionError):
        check_schema_version({"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(SchemaVersionError):
        check_schema_version({"status": "ok"})  # pre-versioning server
    # Unknown error codes degrade to the generic server error.
    exc = error_from_payload(500, {"error": {"code": "??", "message": "m"}})
    assert type(exc).__name__ == "RemoteServerError"


# -- metrics primitives -------------------------------------------------------


def test_counter_and_gauge_threaded():
    c = Counter("c")
    g = Gauge("g")

    def bump():
        for _ in range(1000):
            c.inc()
    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.get() == 8000
    g.set(3.5)
    assert g.get() == 3.5


def test_histogram_buckets_are_cumulative():
    h = Histogram("h", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["buckets"] == {"le_0.1": 1, "le_1": 2, "le_10": 3,
                               "le_inf": 4}
    assert snap["min"] == 0.05 and snap["max"] == 50.0


def test_metrics_snapshot_is_json_serializable():
    metrics = MetricsRegistry()
    metrics.counter("x").inc(3)
    metrics.histogram("y").observe(0.2)
    json.dumps(metrics.snapshot())


# -- environment fingerprint --------------------------------------------------


def test_environment_fingerprint_is_stable():
    assert environment_fingerprint() == environment_fingerprint()


def test_store_covers_every_figure1_cell(warm_store_dir):
    store = ResultStore(warm_store_dir)
    assert len(store.entries()) >= 51
    for cell in all_cells():
        loaded = store.load(cell)
        assert loaded is not None
        assert (loaded.vendor, loaded.model, loaded.language) == cell
        assert isinstance(loaded.primary, SupportCategory)


# -- the worker-process fleet -------------------------------------------------


@pytest.mark.parametrize("execution", ["thread", "process"])
@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_fleet_build_bit_identical(jobs, execution, seq_matrix):
    """{1, 2, 8} workers x {thread, process}: the same Figure 1, byte
    for byte — the invariant the process backend must preserve."""
    report = build_matrix_concurrent(jobs, execution=execution)
    assert report.matrix.cells == seq_matrix.cells
    assert report.cells_evaluated == 51
    assert _render_text(report.matrix) == _render_text(seq_matrix)


@pytest.fixture(scope="module")
def seq_perf_json(seq_matrix):
    """Sequential-reference perf matrix, serialized for byte-comparison."""
    from repro.perfport import PerfParams, PerfScheduler
    from repro.perfport.store import perf_cell_to_dict

    params = PerfParams(n=1 << 12, reps=2)
    report = PerfScheduler(1, compat=seq_matrix, params=params).build()
    return params, json.dumps(
        {":".join(p.value for p in cell): perf_cell_to_dict(c)
         for cell, c in report.matrix.cells.items()}, sort_keys=True)


@pytest.mark.parametrize("execution", ["thread", "process"])
@pytest.mark.parametrize("jobs", [2, 8])
def test_fleet_perf_build_byte_identical(jobs, execution, seq_matrix,
                                         seq_perf_json):
    from repro.perfport import PerfScheduler
    from repro.perfport.store import perf_cell_to_dict

    params, expected = seq_perf_json
    report = PerfScheduler(jobs, compat=seq_matrix, execution=execution,
                           params=params).build()
    got = json.dumps(
        {":".join(p.value for p in cell): perf_cell_to_dict(c)
         for cell, c in report.matrix.cells.items()}, sort_keys=True)
    assert got == expected


def test_process_store_is_the_mailbox(tmp_path, seq_matrix):
    """Workers return cells and the coordinator stores them; a warm
    rerun then serves everything with zero probe executions."""
    cold_metrics = MetricsRegistry()
    cold = build_matrix_concurrent(
        2, execution="process", store=str(tmp_path), metrics=cold_metrics)
    assert cold.matrix.cells == seq_matrix.cells
    assert cold.cells_evaluated == 51
    assert cold.store.stats.as_dict()["writes"] == 51

    warm_metrics = MetricsRegistry()
    warm = build_matrix_concurrent(
        2, execution="process", store=str(tmp_path), metrics=warm_metrics)
    assert warm.matrix.cells == seq_matrix.cells
    assert warm.cells_from_store == 51
    assert warm.cells_evaluated == 0
    assert warm_metrics.counter("probes_executed").get() == 0


def test_thread_and_process_builds_do_equal_work(tmp_path):
    """Cold builds of the same inputs count the same work on both
    executors, in the matrix and in the perf build."""
    from repro.perfport import PerfParams, run_perf_matrix

    names = ("probes_executed", "jobs_completed_cell", "store_writes",
             "stream_runs", "perf_store_writes")
    counts = {}
    for execution in EXECUTION_MODES:
        metrics = MetricsRegistry()
        run_perf_matrix(2, execution=execution,
                        store=str(tmp_path / execution),
                        params=PerfParams(n=1 << 12, reps=2), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        counts[execution] = {name: counters[name] for name in names}
    assert counts["thread"] == counts["process"]
    assert counts["thread"]["store_writes"] == 51
    assert counts["thread"]["perf_store_writes"] == 51


def test_process_build_waits_for_its_workers():
    before = set(multiprocessing.active_children())
    build_matrix_concurrent(2, execution="process")
    assert set(multiprocessing.active_children()) <= before


def test_process_backend_rejects_unpicklable_probe_filter():
    with pytest.raises(ValueError, match="picklable"):
        build_matrix_concurrent(
            1, execution="process", probe_filter=lambda probe: True)


def test_execution_knob_rejects_typos():
    with pytest.raises(ValueError, match="execution"):
        build_matrix_concurrent(1, execution="fibers")


def _crash_twice_hook(info, attempt):
    """Picklable worker-side hook: kill the worker process dead on the
    first two attempts at the target cell (a real crash, not an
    exception — the pool must detect the death and rebuild)."""
    if info.label == _CRASH_LABEL and attempt < 2:
        os._exit(13)


def test_worker_crash_twice_then_succeeds():
    """A worker dying mid-job twice is two structured retries: the pool
    is rebuilt each time and the final matrix is still bit-identical."""
    reference = build_matrix(probe_filter=_first_probe_filter)
    metrics = MetricsRegistry()
    report = build_matrix_concurrent(
        2, execution="process", probe_filter=_first_probe_filter,
        metrics=metrics, fault_hook=_crash_twice_hook,
        backoff_s=0.001, max_retries=2)
    assert report.matrix.cells == reference.cells
    assert metrics.counter("worker_crashes").get() == 2
    assert metrics.counter("worker_restarts").get() == 2
    assert metrics.counter("jobs_retried").get() >= 2


def test_simulated_crash_via_local_hook():
    """An unpicklable hook runs coordinator-side; raising WorkerCrash
    simulates a death (counted, retried) without killing any pool."""
    reference = build_matrix(probe_filter=_first_probe_filter)
    crashes: dict[str, int] = {}

    def hook(job, attempt):  # a closure: unpicklable by construction
        if job.label == _CRASH_LABEL and crashes.setdefault("n", 0) < 2:
            crashes["n"] += 1
            raise WorkerCrash(f"injected crash #{crashes['n']}")

    metrics = MetricsRegistry()
    report = build_matrix_concurrent(
        2, execution="process", probe_filter=_first_probe_filter,
        metrics=metrics, fault_hook=hook, backoff_s=0.0, max_retries=2)
    assert report.matrix.cells == reference.cells
    assert metrics.counter("worker_crashes").get() == 2
    assert metrics.counter("worker_restarts").get() == 0  # no pool died
    assert metrics.counter("jobs_retried").get() == 2


#: Wall-clock bound on the hung-task build below; the hung attempt
#: alone would sleep for ``_HANG_S``.
_HUNG_BUILD_DEADLINE_S = 30.0
_HANG_S = 120.0


def _hang_once_hook(info, attempt):
    """Picklable worker-side hook: the first attempt at the target cell
    hangs far past any budget (only a killed worker ends it)."""
    if info.label == _CRASH_LABEL and attempt == 0:
        time.sleep(_HANG_S)


def test_process_timeout_bounds_a_hung_task():
    """A process task past ``timeout_s`` is killed and retried: one
    timeout, no crash, and the build finishes well before the hang."""
    reference = build_matrix(probe_filter=_first_probe_filter)
    metrics = MetricsRegistry()
    start = time.monotonic()
    report = build_matrix_concurrent(
        2, execution="process", probe_filter=_first_probe_filter,
        metrics=metrics, fault_hook=_hang_once_hook, timeout_s=3.0,
        backoff_s=0.001, max_retries=2)
    assert time.monotonic() - start < _HUNG_BUILD_DEADLINE_S
    assert report.matrix.cells == reference.cells
    assert metrics.counter("jobs_timeout").get() == 1
    assert metrics.counter("worker_crashes").get() == 0


def test_process_retries_exhausted_is_a_typed_error():
    def hook(job, attempt):
        if job.label == _CRASH_LABEL:
            raise WorkerCrash("injected permanent crash")

    with pytest.raises(SchedulerError, match=r"cell:NVIDIA:CUDA"):
        build_matrix_concurrent(
            2, execution="process", probe_filter=_first_probe_filter,
            fault_hook=hook, backoff_s=0.0, max_retries=1)


# -- schema v4: the typed execution block + tolerant version check ------------


def test_v4_execution_block_on_health_and_metrics(service):
    from repro.service import SCHEMA_VERSION, ExecutionInfo

    client = InProcessClient(service)
    health = client.health()
    assert health.schema_version == SCHEMA_VERSION == 4
    info = health.execution
    assert isinstance(info, ExecutionInfo)
    assert info.backend == "thread"
    assert info.workers == 2
    assert info.store_hits == 51  # the warm store served every cell
    assert info.worker_crashes == 0
    assert info.worker_restarts == 0

    snap = client.metrics()
    m_info = snap.execution
    assert m_info.backend == info.backend
    assert m_info.workers == info.workers
    assert m_info.as_dict() == ExecutionInfo.from_dict(
        snap.payload["execution"]).as_dict()


def test_check_schema_version_tolerates_one_generation():
    import warnings

    from repro.service import COMPATIBLE_SCHEMA_VERSIONS, SCHEMA_VERSION
    from repro.service.api import SchemaVersionError, check_schema_version

    assert COMPATIBLE_SCHEMA_VERSIONS == (SCHEMA_VERSION - 1, SCHEMA_VERSION)
    # The current version passes silently.
    current = {"schema_version": SCHEMA_VERSION}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_schema_version(current) is current
    # The previous generation (v3 clients) warns but keeps working.
    stale = {"schema_version": SCHEMA_VERSION - 1}
    with pytest.deprecated_call():
        assert check_schema_version(stale) is stale
    # Two generations back is a hard failure.
    with pytest.raises(SchemaVersionError):
        check_schema_version({"schema_version": SCHEMA_VERSION - 2})


# -- the /admin operational endpoints -----------------------------------------


@pytest.fixture()
def admin_store_dir(tmp_path):
    """A private warm store holding exactly one 51-cell generation.

    Built fresh rather than copied from ``warm_store_dir``: other tests
    (threshold invalidation) deposit extra generations into the shared
    module-scoped store, and the clear tests below assert exact entry
    counts — and may not mutate a fixture other tests share anyway.
    """
    root = tmp_path / "admin-store"
    report = build_matrix_concurrent(4, store=str(root))
    assert report.cells_evaluated == 51
    return root


def test_admin_stores_view_and_clear(admin_store_dir):
    svc = MatrixService(jobs=2, store=str(admin_store_dir))
    svc.ensure_built()
    client = InProcessClient(svc)

    view = client.admin_stores()
    assert view.matrix["configured"] is True
    assert view.matrix["entries"] == 51
    assert view.matrix["fingerprint"]
    assert view.matrix["stats"]["hits"] == 51
    assert view.matrix["stats"]["invalid"] == 0
    assert view.perf["configured"] is True
    assert view.perf["entries"] == 0  # perf never built here
    assert view["read_only"] is False

    cleared = client.clear_stores()
    assert cleared.cleared is True
    assert cleared.removed == {"matrix": 51, "perf": 0}
    assert client.admin_stores().matrix["entries"] == 0
    # The in-memory matrix survives; only persistence was dropped.
    assert client.health()["built"] is True


def test_admin_endpoints_parity_across_transports(admin_store_dir):
    from repro.service import HttpClient

    svc = MatrixService(jobs=2, store=str(admin_store_dir))
    svc.ensure_built()
    server = make_server(svc)
    host, port = server.server_address
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        inproc, http = InProcessClient(svc), HttpClient(host, port)
        assert inproc.admin_stores().payload == http.admin_stores().payload
        assert inproc.health().payload == http.health().payload
        # Clearing over HTTP reports the same shape the in-process
        # client then observes.
        assert http.clear_stores().removed == {"matrix": 51, "perf": 0}
        assert inproc.admin_stores().matrix["entries"] == 0
    finally:
        server.shutdown()
        server.server_close()


def test_read_only_server_rejects_clear_on_both_transports(admin_store_dir):
    from repro.service import HttpClient, ReadOnlyError

    svc = MatrixService(jobs=2, store=str(admin_store_dir), read_only=True)
    server = make_server(svc)
    host, port = server.server_address
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        for client in (InProcessClient(svc), HttpClient(host, port)):
            with pytest.raises(ReadOnlyError) as err:
                client.clear_stores()
            assert err.value.status == 403
            assert err.value.code == "read_only"
            # Reads stay open — read-only, not closed.
            assert client.admin_stores().matrix["entries"] == 51
    finally:
        server.shutdown()
        server.server_close()


def test_admin_clear_requires_a_post_body():
    from repro.service import BadRequestError
    from repro.service.server import dispatch

    svc = MatrixService(jobs=1)
    with pytest.raises(BadRequestError, match="POST"):
        dispatch(svc, ["admin", "stores", "clear"],
                 lambda name, default=None: default, body=None)
