"""Tests for the performance-portability matrix subsystem.

The load-bearing properties, in order:

1. the scheduled perf build is **bit-identical** to the sequential
   reference loop at every worker count;
2. a warm store serves every perf cell with **zero stream-kernel
   executions**, and the reloaded matrix is bit-identical to the
   evaluated one;
3. the Pennycook ⫫ metric is the harmonic mean of the per-vendor
   achieved fractions of peak, and **any unsupported vendor forces
   ⫫ = 0** for that (model, language) row.

Perf params are kept tiny (n = 4096) — the invariants are
size-independent and the tier-1 suite has a time budget.
"""

from __future__ import annotations

import pytest

from repro import counters
from repro.core.matrix import build_matrix
from repro.enums import VENDOR_ORDER, Language, Model, Vendor, all_cells
from repro.perfport import (
    PerfParams,
    PerfScheduler,
    PerfStore,
    build_perf_matrix,
    pennycook_metric,
    perf_fingerprint,
    portability_report,
    run_perf_matrix,
    viable_routes,
)
from repro.service.metrics import MetricsRegistry
from repro.workloads.babelstream import stream_totals

PARAMS = PerfParams(n=1 << 12, reps=2)


@pytest.fixture(scope="module")
def compat():
    """The compatibility matrix perf viability is read from."""
    return build_matrix()


@pytest.fixture(scope="module")
def seq_perf(compat):
    """The sequential ground truth every concurrency test compares to."""
    return build_perf_matrix(compat, params=PARAMS)


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 4])
def test_scheduled_build_bit_identical(jobs, compat, seq_perf):
    report = PerfScheduler(jobs, compat=compat, params=PARAMS).build()
    assert report.jobs == jobs
    assert report.cells_evaluated == 51
    # Dataclass equality compares every route's best-of timings exactly.
    assert report.matrix.cells == seq_perf.cells
    assert report.matrix == seq_perf


def test_every_cell_has_exactly_its_viable_routes(compat, seq_perf):
    for cell in all_cells():
        expected = [r.route_id for r in viable_routes(compat, cell)]
        got = [r.route_id for r in seq_perf.cells[cell].routes]
        assert got == expected  # registry order, no drops, no extras


# -- the persistent store -----------------------------------------------------


def test_warm_store_rerun_executes_zero_stream_kernels(tmp_path, seq_perf):
    metrics = MetricsRegistry()
    cold = run_perf_matrix(4, store=str(tmp_path), params=PARAMS,
                           metrics=metrics)
    assert cold.cells_evaluated == 51 and cold.cells_from_store == 0
    assert cold.matrix == seq_perf

    counters.reset("stream.")
    warm_metrics = MetricsRegistry()
    warm = run_perf_matrix(4, store=str(tmp_path), params=PARAMS,
                           metrics=warm_metrics)
    totals = stream_totals()
    assert totals == {"runs": 0, "kernels": 0}
    assert warm_metrics.counter("stream_runs").get() == 0
    assert warm_metrics.counter("probes_executed").get() == 0
    assert warm.cells_from_store == 51 and warm.cells_evaluated == 0
    # Reloaded cells are bit-identical (JSON floats round-trip repr).
    assert warm.matrix == cold.matrix


def test_fingerprint_changes_invalidate_the_store(tmp_path, seq_perf):
    run_perf_matrix(1, store=str(tmp_path), params=PARAMS)
    other = PerfParams(n=PARAMS.n * 2, reps=PARAMS.reps)
    assert perf_fingerprint(other) != perf_fingerprint(PARAMS)
    store = PerfStore(tmp_path, params=other)
    assert all(store.load(cell) is None for cell in all_cells())


def test_corrupt_store_entry_is_a_miss(tmp_path, compat):
    metrics = MetricsRegistry()
    store = PerfStore(tmp_path, params=PARAMS)
    cell = (Vendor.NVIDIA, Model.CUDA, Language.CPP)
    sched = PerfScheduler(1, compat=compat, params=PARAMS, store=store,
                          metrics=metrics)
    report = sched.build()
    path = store._path(cell)
    path.write_text("{not json")
    fresh = PerfStore(tmp_path, params=PARAMS)
    assert fresh.load(cell) is None
    assert fresh.stats.as_dict()["invalid"] == 1
    # Every other cell still loads, bit-identical.
    other = (Vendor.AMD, Model.HIP, Language.CPP)
    assert fresh.load(other) == report.matrix.cells[other]


# -- the sanitizer riding along -----------------------------------------------


def test_perf_build_is_sanitizer_clean(seq_perf):
    """Perf routes compile with ``sanitize=True``; the stream kernels
    must produce zero kernelsan errors or warnings on every route."""
    for cell in seq_perf.cells.values():
        for route in cell.routes:
            assert route.lint_errors == 0, route.route_id
            assert route.lint_warnings == 0, route.route_id


def test_store_round_trips_the_lint_rollup(seq_perf):
    from repro.perfport.store import perf_cell_from_dict, perf_cell_to_dict

    cell = seq_perf.cells[(Vendor.NVIDIA, Model.CUDA, Language.CPP)]
    payload = perf_cell_to_dict(cell)
    assert all("lint_errors" in r and "lint_warnings" in r
               for r in payload["routes"])
    assert perf_cell_from_dict(payload) == cell
    # A schema-v1 payload (no lint keys) still loads, with zero rollups.
    for entry in payload["routes"]:
        del entry["lint_errors"], entry["lint_warnings"]
    legacy = perf_cell_from_dict(payload)
    assert legacy == cell  # rollups default to 0 == the clean build's


# -- the ⫫ metric -------------------------------------------------------------


def test_pennycook_metric_definition():
    assert pennycook_metric([]) == 0.0
    assert pennycook_metric([0.5, 0.5, 0.5]) == pytest.approx(0.5)
    # Harmonic mean: dominated by the worst platform.
    assert pennycook_metric([1.0, 0.25]) == pytest.approx(0.4)
    # Any unsupported platform (efficiency 0) zeroes the metric.
    assert pennycook_metric([0.9, 0.9, 0.0]) == 0.0


def test_portability_rows_cover_vendor_set_and_zero_unsupported(seq_perf):
    rows = {(r.model, r.language): r for r in portability_report(seq_perf)}
    # Every Figure-1 (model, language) column appears.
    assert set(rows) == {(m, l) for _, m, l in all_cells()}
    for row in rows.values():
        assert [e.vendor for e in row.cascade] != []
        assert {e.vendor for e in row.cascade} == set(VENDOR_ORDER)
        # Cascade is sorted best-first.
        effs = [e.efficiency for e in row.cascade]
        assert effs == sorted(effs, reverse=True)
        if row.supported_everywhere:
            assert row.metric == pytest.approx(pennycook_metric(effs))
            assert row.metric > 0.0
        else:
            assert row.metric == 0.0
    # SYCL from Fortran has no route anywhere: an all-zero cascade.
    sycl_f = rows[(Model.SYCL, Language.FORTRAN)]
    assert all(e.efficiency == 0.0 for e in sycl_f.cascade)
    assert sycl_f.metric == 0.0
    # CUDA C++ runs everywhere (natively or translated): ⫫ > 0.
    assert rows[(Model.CUDA, Language.CPP)].metric > 0.0


def test_translated_routes_are_marked_and_contribute(seq_perf):
    amd_cuda = seq_perf.cells[(Vendor.AMD, Model.CUDA, Language.CPP)]
    assert amd_cuda.supported
    translated = [r for r in amd_cuda.routes if r.translated]
    assert translated, "hipify route must be evaluated on AMD"
    assert any(r.ok and r.verified for r in translated)


def test_efficiency_requires_verification(seq_perf):
    params = seq_perf.params
    for cell in seq_perf.cells.values():
        for route in cell.routes:
            eff = route.efficiency(params, cell.peak_gbs)
            if route.ok and route.verified:
                assert 0.0 < eff < 1.0
            else:
                assert eff == 0.0
