"""The ``matrix`` and ``perf`` workloads: cold builds, warm reloads, lint.

Both run in the benchmark's own process, which is fresh for every run.
An iteration repeats until ``--seconds`` have passed (at least one
always completes).  Before every cold build the program's compile and
trace caches are emptied and the build gets a fresh store directory;
warm reloads are timed only after untimed warm-up reloads.  With
``--trace 1`` iterations alternate untraced and traced (see
``common.Phases``).

A warm reload (6-20 ms) or a ``lint --all`` (about 0.6 s) is shorter
than the spells of seconds in which a shared machine runs the same code
up to 1.8 times slower, so each iteration repeats them many times over
seconds.  Cold builds and lints are reported as medians over the run.
A warm reload, repeated hundreds of times a run, is reported as the best
of the run, the estimate ``timeit`` recommends: the machine's slow
spells only ever add time, and the run's median reload followed them
(README.md gives the spreads).
"""

from __future__ import annotations

import gc
import shutil

from perfbench import checks
from perfbench.common import (Phases, Result, Run, join_children, median,
                              percentile, prepare_warm_store)

#: Warm reloads per matrix iteration, after ``WARM_UP`` untimed ones.
WARM_RELOADS = 150
WARM_UP = 3
#: Timed warm reloads and ``lint --all`` runs per perf iteration; each
#: lint is followed by an equal share of the reloads.
PERF_WARM_RELOADS = 48
LINTS = 4


def _empty_caches() -> None:
    from repro.compilers.toolchain import clear_compile_cache
    from repro.isa.tracing import clear_trace_cache

    clear_compile_cache()
    clear_trace_cache()


def run_matrix(run: Run) -> Result:
    """Cold 51-cell builds on both backends, then warm store reloads."""
    import repro.service as service
    from repro.service import (EXECUTION_PROCESS, EXECUTION_THREAD,
                               MetricsRegistry, ResultStore)

    ph = Phases(run, "matrix")

    def build(traced, context, store, execution=EXECUTION_THREAD):
        metrics = MetricsRegistry()
        # Looked up per call: a traced iteration wraps the entry point.
        report, secs = ph.timed(traced, context,
                                service.build_matrix_concurrent, run.jobs,
                                execution=execution, store=store,
                                metrics=metrics)
        if traced:
            ph.jobs_retried += metrics.counter("jobs_retried").get()
        return report, secs

    def body(i: int, traced: bool) -> None:
        thread_dir = run.work / f"matrix-{i}-thread"
        process_dir = run.work / f"matrix-{i}-process"
        _empty_caches()
        before = checks.simulated_stats()
        context = f"cold-thread-{i}"
        ph.cold_contexts.add(context)
        report, secs = build(traced, context, str(thread_dir))
        ph.add("cold", secs, traced)
        ph.outcome.check(context, checks.matrix_problems(report.matrix) +
                         checks.stats_problems(before,
                                               checks.simulated_stats(),
                                               checks.MATRIX_COLD_STATS))
        reference = report.matrix.cells

        _empty_caches()
        report, secs = build(traced, f"cold-process-{i}", str(process_dir),
                             EXECUTION_PROCESS)
        # The build returns before its workers have exited; they are not
        # the reloads' to compete with.
        join_children()
        ph.add("aux", secs, traced)
        ph.outcome.check(f"cold-process-{i}",
                         checks.matrix_problems(report.matrix))

        for k in range(WARM_UP + WARM_RELOADS):
            report, secs = build(traced, f"warm-{i}-{k}",
                                 ResultStore(thread_dir))
            if k >= WARM_UP:
                ph.add("warm", secs * 1e3, traced)
                ph.outcome.check(f"warm-{i}-{k}",
                                 checks.reload_problems(report, reference))
        shutil.rmtree(thread_dir)
        shutil.rmtree(process_dir)

    ph.iterate(body)
    return _result(ph)


def run_perf(run: Run) -> Result:
    """Cold perf builds over a warm compat store, warm reloads, lint."""
    import repro.perfport as perfport
    from repro.service import MetricsRegistry

    prepare_warm_store(run)
    ph = Phases(run, "perf")

    def build(traced, context, store):
        metrics = MetricsRegistry()
        # Looked up per call: a traced iteration wraps the entry point.
        report, secs = ph.timed(traced, context, perfport.run_perf_matrix,
                                run.jobs, store=store, metrics=metrics)
        if traced:
            ph.jobs_retried += metrics.counter("jobs_retried").get()
        return report, secs

    def body(i: int, traced: bool) -> None:
        store = run.work / f"perf-{i}"
        shutil.copytree(run.work / "warm", store)
        _empty_caches()
        before = checks.simulated_stats()
        context = f"perf-cold-{i}"
        ph.cold_contexts.add(context)
        report, secs = build(traced, context, str(store))
        ph.add("cold", secs, traced)
        ph.outcome.check(context, checks.perf_problems(report, str(store)) +
                         checks.stats_problems(before,
                                               checks.simulated_stats(),
                                               checks.PERF_COLD_STATS))
        reference = report.matrix

        def reload(k: int) -> None:
            before = checks.simulated_stats()
            report, secs = build(traced, f"perf-warm-{i}-{k}", str(store))
            if k >= WARM_UP:
                ph.add("warm", secs * 1e3, traced)
                problems = checks.stats_problems(
                    before, checks.simulated_stats(),
                    {"launches": 0, "stream_kernels": 0})
                if report.cells_from_store != checks.N_CELLS or \
                        report.matrix != reference:
                    problems.append("warm perf reload differs from the "
                                    "cold build")
                ph.outcome.check(f"perf-warm-{i}-{k}", problems)

        argv = ["lint", "--all", "--store", str(store), "--format", "json"]
        if i == 0:
            # Untimed: the lint families import their modules lazily.
            checks.run_cli(argv)
        lint = (ph.recorder.wrap(checks.run_cli, "analysis.lint")
                if traced else checks.run_cli)
        for k in range(WARM_UP):
            reload(k)
        per_lint = PERF_WARM_RELOADS // LINTS
        for n in range(LINTS):
            # A full collection costs 0.08 s in this process; the garbage
            # the reloads left is not the lint's to collect.
            gc.collect()
            (status, out), secs = ph.timed(traced, f"lint-{i}-{n}", lint,
                                           argv)
            ph.add("aux", secs, traced)
            ph.outcome.check(f"lint-{i}-{n}",
                             checks.lint_problems(status, out))
            for k in range(WARM_UP + n * per_lint,
                           WARM_UP + (n + 1) * per_lint):
                reload(k)
        shutil.rmtree(store)

    ph.iterate(body)
    return _result(ph)


def _result(ph: Phases) -> Result:
    s = ph.samples
    notes = ph.notes() + [
        f"warm samples {len(s['warm'])}; the seed is not used",
        "cold samples " + " ".join(f"{v:.4f}" for v in s["cold"]),
        "cold_aux samples " + " ".join(f"{v:.4f}" for v in s["aux"]),
        "warm ms best/p50/p90/p99 " + "/".join(
            f"{percentile(s['warm'], p):.3f}" for p in (0, 50, 90, 99))]
    if ph.run.trace:
        return Result(ph.layer_values(), ph.outcome, notes,
                      ph.recorder.spans)
    return Result({"setup_s": ph.setup_s(), "peak_rss_mb": ph.rss_mb,
                   "cold_s": median(s["cold"]),
                   "cold_aux_s": median(s["aux"]),
                   "warm_ms": min(s["warm"])},
                  ph.outcome, notes)
