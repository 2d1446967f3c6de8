"""Tests for perfstat: the static perf-matrix predictor + cross-check.

The load-bearing properties:

1. the static matrix covers all 51 cells with **zero kernel
   executions** (stream totals and interpreter totals unchanged);
2. its viability structure equals the measured matrix's — the same
   routes work, the same five fail, for the same reasons;
3. the differential cross-check against a measured matrix is clean:
   no PS01 prediction errors, no PS02 best-route mismatches, no PS04
   structure mismatches — one PS03 per supported cell;
4. the dynamic portability reductions (cascade, Pennycook ⫫) run on
   the static matrix unchanged and agree on the supported/unsupported
   structure.
"""

from __future__ import annotations

import pytest

from repro import counters
from repro.analysis.diagnostics import Severity
from repro.analysis.perfstat import (
    PS_TOLERANCE,
    build_static_perf_matrix,
    cross_check_perf,
    library_cost_report,
    lint_perf,
    perf_agreement_summary,
    stream_kernel_costs,
)
from repro.core.matrix import build_matrix
from repro.enums import Language, Model, Vendor, all_cells
from repro.isa.interpreter import snapshot_interpreter_totals
from repro.perfport import PerfParams, build_perf_matrix, portability_report
from repro.workloads.babelstream import stream_totals

PARAMS = PerfParams(n=1 << 12, reps=2)

#: Routes the stream adapters cannot drive, with the static reasons the
#: predictor must reproduce (the dynamic runs fail the same five).
EXPECTED_NON_VIABLE = {
    "amd-acc-cpp-acc2omp": "TranslationError",
    "intel-acc-cpp-acc2omp": "TranslationError",
    "intel-acc-f-acc2omp": "TranslationError",
    "amd-acc-f-gpufort": "TranslationError",
    "amd-py-pyhip": "lacks feature",
}


@pytest.fixture(scope="module")
def dynamic():
    """A measured perf matrix as cross-check ground truth."""
    return build_perf_matrix(build_matrix(), params=PARAMS)


@pytest.fixture(scope="module")
def static():
    return build_static_perf_matrix(PARAMS)


def test_static_build_executes_zero_kernels():
    counters.reset("stream.")
    stream_kernel_costs.cache_clear()
    before = snapshot_interpreter_totals()
    matrix = build_static_perf_matrix(PerfParams(n=1 << 13, reps=2))
    after = snapshot_interpreter_totals()
    assert matrix.n_cells == 51
    assert stream_totals() == {"runs": 0, "kernels": 0}
    assert after.launches == before.launches
    assert after.stats.instructions == before.stats.instructions


def test_covers_all_cells_with_registry_order_routes(static, dynamic):
    assert set(static.cells) == set(all_cells())
    for key in all_cells():
        got = [r.route_id for r in static.cells[key].routes]
        want = [r.route_id for r in dynamic.cells[key].routes]
        assert got == want, key


def test_non_viable_routes_match_the_dynamic_failures(static, dynamic):
    non_viable = {r.route_id: r.reason
                  for c in static.cells.values()
                  for r in c.routes if not r.viable}
    assert set(non_viable) == set(EXPECTED_NON_VIABLE)
    for route_id, fragment in EXPECTED_NON_VIABLE.items():
        assert fragment in non_viable[route_id], route_id
    dynamic_failed = {r.route_id
                      for c in dynamic.cells.values()
                      for r in c.routes if not (r.ok and r.verified)}
    assert dynamic_failed == set(non_viable)


def test_viability_structure_matches_cell_by_cell(static, dynamic):
    for key in all_cells():
        s_ok = {r.route_id for r in static.cells[key].routes if r.viable}
        d_ok = {r.route_id for r in dynamic.cells[key].routes
                if r.ok and r.verified}
        assert s_ok == d_ok, key
        assert static.cells[key].supported == dynamic.cells[key].supported


def test_cross_check_is_clean(static, dynamic):
    report = cross_check_perf(static, dynamic)
    assert report.errors == []          # no PS01: predictions within 2x
    assert report.warnings == []        # no PS02/PS04
    supported = sum(1 for c in dynamic.cells.values() if c.supported)
    summary = perf_agreement_summary(report)
    assert summary == {
        "cells_agreeing": supported,
        "prediction_errors": 0,
        "best_route_mismatches": 0,
        "structure_mismatches": 0,
        "conservative_kernels": 0,
        "suppressed_divergences": 0,
    }
    assert supported == 40


def test_best_route_predicted_on_every_supported_cell(static, dynamic):
    for key in all_cells():
        sbest = static.cells[key].best_route(static.params)
        dbest = dynamic.cells[key].best_route(dynamic.params)
        assert (sbest is None) == (dbest is None), key
        if sbest is not None:
            assert sbest.route_id == dbest.route_id, key


def test_native_route_prediction_is_machine_precise(static, dynamic):
    """On the NVIDIA CUDA C++ native route the cost model's counters
    are bit-equal to the interpreter's, so predicted == measured."""
    key = (Vendor.NVIDIA, Model.CUDA, Language.CPP)
    sroute = static.cells[key].routes[0]
    droute = dynamic.cells[key].routes[0]
    assert sroute.route_id == droute.route_id == "nv-cuda-cpp-nvcc"
    for kernel, predicted in sroute.seconds.items():
        assert predicted == pytest.approx(droute.best_seconds[kernel],
                                          rel=1e-12), kernel


def test_portability_reductions_run_unchanged_on_the_static_matrix(
        static, dynamic):
    srows = {(r.model, r.language): r for r in portability_report(static)}
    drows = {(r.model, r.language): r for r in portability_report(dynamic)}
    assert set(srows) == set(drows)
    for col, srow in srows.items():
        drow = drows[col]
        assert srow.supported_everywhere == drow.supported_everywhere, col
        assert (srow.metric > 0) == (drow.metric > 0), col
        assert [e.route_id for e in srow.cascade] == \
            [e.route_id for e in drow.cascade], col


def test_predicted_efficiency_bounds(static):
    for cell in static.cells.values():
        for route in cell.routes:
            eff = route.efficiency(static.params, cell.peak_gbs)
            if route.viable:
                assert 0.0 < eff < 1.0
            else:
                assert eff == 0.0


def test_translated_routes_carry_their_translation_hops(static):
    amd_cuda = static.cells[(Vendor.AMD, Model.CUDA, Language.CPP)]
    hipify = [r for r in amd_cuda.routes if r.translated]
    assert hipify and all(r.translation_hops for r in hipify)
    native = static.cells[(Vendor.NVIDIA, Model.CUDA, Language.CPP)]
    assert all(r.translation_hops == () for r in native.routes
               if not r.translated)


def test_library_cost_report_flags_only_the_data_dependent_kernel():
    report = library_cost_report()
    assert [d.kernel for d in report.diagnostics] == ["bitonic_step"]
    d = report.diagnostics[0]
    assert d.code == "PS05" and d.severity == Severity.INFO


def test_lint_perf_end_to_end(dynamic):
    report, agreement = lint_perf(dynamic)
    assert report.errors == []
    codes = {d.code for d in report.diagnostics}
    assert codes <= {"PS03", "PS05", "PS06"}
    assert agreement == perf_agreement_summary(report)
    assert PS_TOLERANCE == 2.0  # the documented gate the report is cut at
