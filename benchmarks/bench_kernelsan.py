"""KERNELSAN — static-analysis findings and cost over bundled workloads.

Four jobs:

1. Lint the kernels the bundled workloads actually launch
   (``workloads/babelstream.py`` -> the five BabelStream kernels,
   ``workloads/miniapps.py`` -> jacobi2d / nbody_forces / histogram)
   plus the rest of the kernel library, and write the tracked
   ``artifacts/kernelsan_report.txt``: findings, predicted instruction
   and flop counts, proof verdicts -- nothing that varies between runs.
   The suite-level guarantee is zero error-severity findings on shipped
   kernels.
2. Record lint wall-time per kernel so later PRs can track the cost of
   new analyses (the lint gate is meant for CI and toolchain pipelines;
   it has a latency budget).  Every per-kernel millisecond, with the
   slowest and the aggregate per analysis, goes to the untracked
   ``artifacts/kernelsan_timings.txt``.
3. Time the perfstat abstract cost interpreter over the same library —
   predicting a kernel's LaunchStats must stay well under 10 ms, since
   ``gpu-compat lint --perf`` walks all 27 kernels plus 51 cells.
4. Time tracesan's static translation validation of every traceable
   kernel's generated program — each proof must stay under 50 ms so the
   ``lint --traces`` CI gate stays interactive — and summarize the
   remaining lint families (routes evidence, transval) so the artifact
   covers all five in one page.
"""

from __future__ import annotations

import time

from repro.analysis import AnalysisOptions, LaunchBounds, analyze_kernel
from repro.analysis.costmodel import cost_kernel
from repro.analysis.perfstat import STATIC_LAUNCHES
from repro.analysis.tracesan import validate_library
from repro.kernels import BLOCK, KERNEL_LIBRARY

#: Kernels each bundled workload launches (see workloads/*.py).
WORKLOAD_KERNELS = {
    "babelstream": ("stream_copy", "stream_mul", "stream_add",
                    "stream_triad", "stream_dot"),
    "miniapps": ("jacobi2d", "nbody_forces", "histogram"),
}

#: Buffer extents expressible as a scalar parameter or constant.
#: Products (jacobi2d's nx*ny, nbody's 2n) are beyond the affine extent
#: language, so those buffers fall back to the conservative top.
KERNEL_EXTENTS = {
    "stream_copy": {"a": "n", "c": "n"},
    "stream_mul": {"b": "n", "c": "n"},
    "stream_add": {"a": "n", "b": "n", "c": "n"},
    "stream_triad": {"a": "n", "b": "n", "c": "n"},
    "stream_dot": {"a": "n", "b": "n", "out": 64},
    "histogram": {"data": "n", "bins": "nbins"},
    "axpy": {"x": "n", "y": "n"},
}

BOUNDS = LaunchBounds.of(block=(BLOCK, 1, 1), grid=(64, 1, 1))

REPS = 5


def _lint(name):
    options = AnalysisOptions(bounds=BOUNDS,
                              extents=KERNEL_EXTENTS.get(name))
    kernel = KERNEL_LIBRARY[name].ir
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        diags = analyze_kernel(kernel, options)
        best = min(best, time.perf_counter() - t0)
    return diags, best


def _cost(name):
    grid, block, scalars = STATIC_LAUNCHES[name]
    kernel = KERNEL_LIBRARY[name].ir
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        cost = cost_kernel(kernel, grid, block, scalars)
        best = min(best, time.perf_counter() - t0)
    return cost, best


def _timing_section(title, unit, timings):
    """Per-kernel times with the slowest and the aggregate, as lines."""
    slowest = max(timings, key=timings.get)
    return [f"== {title}", f"{'kernel':24s} {unit:>8s}",
            *(f"{name:24s} {ms:8.2f}" for name, ms in timings.items()),
            f"slowest: {slowest} ({timings[slowest]:.2f} ms)",
            f"aggregate: {sum(timings.values()):.2f} ms", ""]


def test_kernelsan_report(artifacts_dir):
    workload_names = [n for names in WORKLOAD_KERNELS.values()
                      for n in names]
    library_names = [n for n in KERNEL_LIBRARY if n not in workload_names]

    lines = [
        "kernelsan lint report",
        f"launch assumption: block={BOUNDS.block} grid={BOUNDS.grid}",
        "",
    ]
    total_errors = 0
    total_diags = 0
    lint_ms: dict[str, float] = {}

    for section, names in (("workload kernels (babelstream + miniapps)",
                            workload_names),
                           ("remaining kernel library", library_names)):
        lines.append(f"== {section}")
        lines.append(f"{'kernel':24s} findings")
        for name in names:
            diags, best = _lint(name)
            lint_ms[name] = best * 1e3
            total_errors += sum(1 for d in diags if d.is_error)
            total_diags += len(diags)
            note = "; ".join(d.code for d in diags) or "clean"
            lines.append(f"{name:24s} {note}")
            for d in diags:
                lines.append(f"    {d.render().splitlines()[0]}")
        lines.append("")

    lines += [
        f"total: {len(lint_ms)} kernels, {total_diags} finding(s), "
        f"{total_errors} error(s)",
        "",
        "== perfstat static cost model (canonical launch geometry)",
        f"{'kernel':24s} prediction",
    ]
    cost_ms: dict[str, float] = {}
    for name in workload_names + library_names:
        cost, best = _cost(name)
        cost_ms[name] = best * 1e3
        tag = "exact" if cost.exact else "conservative bound"
        lines.append(f"{name:24s} {cost.stats.instructions} instr, "
                     f"{cost.stats.flops} flops ({tag})")
    lines += [
        "",
        "== tracesan static trace validation (canonical geometry)",
        f"{'kernel':24s} verdict",
    ]
    trace_errors = 0
    validation_ms: dict[str, float] = {}
    results = validate_library()
    for name in workload_names + library_names:
        verdict = results[name]
        if isinstance(verdict, str):
            lines.append(f"{name:24s} bailout ({verdict}), "
                         f"interpreter tier")
            continue
        validation_ms[name] = verdict.elapsed_ms
        trace_errors += sum(1 for d in verdict.diagnostics if d.is_error)
        tag = "exact" if verdict.exact else (
            "conservative bound" if verdict.validated else "FAILED")
        note = "; ".join(d.code for d in verdict.diagnostics)
        lines.append(f"{name:24s} proven {tag}"
                     + (f" [{note}]" if note else ""))
    verdicts = [v for v in results.values() if not isinstance(v, str)]
    lines += [
        f"validated {sum(1 for v in verdicts if v.validated)}/"
        f"{len(results)} kernels "
        f"({sum(1 for v in results.values() if isinstance(v, str))} "
        f"bailed out), 0 kernel executions",
        "",
        "== remaining lint families (rollup)",
    ]
    from repro.analysis.routes_evidence import cross_check
    from repro.analysis.transval import shipped_translators, validate_all

    routes_report = cross_check()
    tv_report = validate_all(shipped_translators())
    lines += [
        f"routes evidence: {routes_report.summary_line()}",
        f"transval:        {tv_report.summary_line()}",
    ]
    (artifacts_dir / "kernelsan_report.txt").write_text(
        "\n".join(lines) + "\n")
    timings = [
        f"kernelsan timings (best of {REPS}; validation: one run, "
        "budget 50 ms/kernel)", "",
        *_timing_section("kernelsan lint", "lint ms", lint_ms),
        *_timing_section("perfstat cost model", "cost ms", cost_ms),
        *_timing_section("tracesan validation", "val ms", validation_ms),
    ]
    (artifacts_dir / "kernelsan_timings.txt").write_text(
        "\n".join(timings))

    # The shipped corpus must lint clean at error severity — in the
    # classic kernelsan sweep and in the trace-validation sweep alike.
    assert total_errors == 0
    assert trace_errors == 0


def test_lint_wall_time_is_tracked(artifacts_dir):
    """Per-kernel lint cost stays interactive (sub-second per kernel)."""
    worst = 0.0
    for name in ("stream_dot", "jacobi2d", "nbody_forces", "gemv"):
        _diags, best = _lint(name)
        worst = max(worst, best)
    # Generous bound: the point is catching quadratic blowups from
    # future analyses, not micro-variance.
    assert worst < 1.0


def test_perfstat_cost_stays_interactive():
    """The abstract cost interpreter predicts any library kernel's
    LaunchStats in under 10 ms — the lint --perf budget per kernel."""
    for name in KERNEL_LIBRARY:
        _cost_obj, best = _cost(name)
        assert best < 0.010, (name, best)


def test_tracesan_validation_stays_in_budget():
    """Every static trace-equivalence proof finishes under 50 ms —
    the per-kernel budget of the ``lint --traces`` CI gate.  One
    wall-clock sample is noisy, so over-budget kernels get a best-of-3
    re-proof before the test fails."""
    over = {}
    for name, v in validate_library().items():
        if isinstance(v, str) or v.elapsed_ms < 50.0:
            continue
        ir = KERNEL_LIBRARY[name].ir
        best = min(validate_library(kernels={name: ir})[name].elapsed_ms
                   for _ in range(3))
        if best >= 50.0:
            over[name] = best
    assert not over, f"kernels over the 50 ms validation budget: {over}"
