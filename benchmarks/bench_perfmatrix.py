"""BENCH_perfmatrix — perf-portability matrix: cold build, warm reload.

Times the full 51-cell performance-portability evaluation (the five
BabelStream kernels through every viable route of every cell):

* ``sequential`` — the reference :func:`build_perf_matrix` loop;
* ``jobs=1`` / ``jobs=4`` — the perf scheduler, no store;
* ``cold_store`` — scheduler populating an empty perf store (also runs
  the compat build the perf matrix depends on);
* ``warm_store`` — the same store re-read, which must execute **zero
  stream kernels** (and zero compat probes);
* ``portability`` — the ⫫-report query over the built matrix.

Every configuration is checked bit-identical to the sequential loop,
the warm run's stream-kernel counter is asserted to be exactly zero,
and the portability report must contain a full three-vendor cascade for
every (model, language) with unsupported rows at ⫫ = 0.  Writes
``BENCH_perfmatrix.json``.

Stream arrays are small (n = 8192 full, 4096 quick): the simulator's
timing model is analytic, so the *invariants* are size-independent and
the benchmark measures orchestration + store cost, not array size.

Run as a script (CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_perfmatrix.py --quick

Exit code 1 if any configuration diverges, the warm run executes a
stream kernel, or the warm reload fails to beat the cold build by the
acceptance factor (5x full, 2x quick).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro import counters
from repro.core.matrix import build_matrix
from repro.enums import all_cells
from repro.perfport import (
    PerfParams,
    PerfScheduler,
    build_perf_matrix,
    portability_report,
    run_perf_matrix,
)
from repro.service import MetricsRegistry
from repro.workloads.babelstream import stream_totals

WARM_SPEEDUP_THRESHOLD = 5.0
WARM_SPEEDUP_THRESHOLD_QUICK = 2.0


def run(quick: bool = False) -> dict:
    repeats = 1 if quick else 3
    params = PerfParams(n=1 << 12 if quick else 1 << 13, reps=2)
    results: dict = {
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "params": params.as_dict(),
        "configs": {},
    }

    def timed(label: str, fn) -> object:
        best = None
        value = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        results["configs"][label] = {"seconds": round(best, 4)}
        return value

    compat = build_matrix()
    reference = timed("sequential",
                      lambda: build_perf_matrix(compat, params=params))

    for jobs in (1, 4):
        report = timed(
            f"jobs={jobs}",
            lambda j=jobs: PerfScheduler(
                j, compat=compat, params=params).build())
        results["configs"][f"jobs={jobs}"]["bit_identical"] = (
            report.matrix == reference)

    with tempfile.TemporaryDirectory(prefix="bench-perf-store-") as root:
        # Cold runs each get a FRESH directory (a repeat against a
        # populated store would silently measure the warm path).
        cold_best = None
        cold = None
        for i in range(repeats):
            store_dir = pathlib.Path(root) / f"cold-{i}"
            t0 = time.perf_counter()
            cold = run_perf_matrix(4, store=str(store_dir), params=params)
            dt = time.perf_counter() - t0
            cold_best = dt if cold_best is None else min(cold_best, dt)
        results["configs"]["cold_store"] = {
            "seconds": round(cold_best, 4),
            "bit_identical": cold.matrix == reference,
            "cells_evaluated": cold.cells_evaluated,
            "store_writes": cold.store.stats.as_dict()["writes"],
        }

        warm_root = str(pathlib.Path(root) / f"cold-{repeats - 1}")
        counters.reset("stream.")
        warm_metrics = MetricsRegistry()
        warm = timed("warm_store",
                     lambda: run_perf_matrix(4, store=warm_root,
                                             params=params,
                                             metrics=warm_metrics))
        results["configs"]["warm_store"].update(
            bit_identical=warm.matrix == reference,
            cells_from_store=warm.cells_from_store,
            # Accumulated over `repeats` warm runs; must stay 0.
            stream_kernels=stream_totals()["kernels"],
            probe_executions=int(
                warm_metrics.counter("probes_executed").get()))

    rows = timed("portability", lambda: portability_report(reference))
    results["configs"]["portability"].update(
        rows=len(rows),
        rows_expected=len({(m, l) for _, m, l in all_cells()}),
        full_cascades=sum(1 for r in rows if len(r.cascade) == 3),
        unsupported_rows_at_zero=all(
            r.metric == 0.0 for r in rows if not r.supported_everywhere),
        positive_metrics=sum(1 for r in rows if r.metric > 0.0),
    )

    cold_s = results["configs"]["cold_store"]["seconds"]
    warm_s = results["configs"]["warm_store"]["seconds"]
    results["acceptance"] = {
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
        "threshold": (WARM_SPEEDUP_THRESHOLD_QUICK if quick
                      else WARM_SPEEDUP_THRESHOLD),
    }
    return results


def verdict(results: dict) -> list[str]:
    """Failure messages; empty means the run passes its gates."""
    problems = []
    for label, row in results["configs"].items():
        if "bit_identical" in row and not row["bit_identical"]:
            problems.append(f"{label}: diverged from the sequential loop")
    warm = results["configs"]["warm_store"]
    if warm["cells_from_store"] != 51:
        problems.append(
            f"warm store reloaded {warm['cells_from_store']}/51 perf cells")
    if warm["stream_kernels"] != 0:
        problems.append(
            f"warm store run executed {warm['stream_kernels']} stream "
            f"kernels (must be 0)")
    if warm["probe_executions"] != 0:
        problems.append(
            f"warm store run executed {warm['probe_executions']} probes "
            f"(must be 0)")
    port = results["configs"]["portability"]
    if port["rows"] != port["rows_expected"]:
        problems.append(
            f"portability report has {port['rows']} rows, expected "
            f"{port['rows_expected']}")
    if port["full_cascades"] != port["rows"]:
        problems.append("some cascade is missing a vendor")
    if not port["unsupported_rows_at_zero"]:
        problems.append("an unsupported (model, language) row has ⫫ != 0")
    if port["positive_metrics"] == 0:
        problems.append("no (model, language) achieved ⫫ > 0")
    acc = results["acceptance"]
    if acc["warm_speedup"] < acc["threshold"]:
        problems.append(
            f"warm store sped up only {acc['warm_speedup']:.2f}x over cold "
            f"(< {acc['threshold']}x)")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="one repeat, smaller arrays (CI smoke)")
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("BENCH_perfmatrix.json"))
    args = ap.parse_args(argv)

    results = run(quick=args.quick)
    problems = verdict(results)
    results["pass"] = not problems

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    for label, row in results["configs"].items():
        extras = "".join(
            f" {k}={v}" for k, v in row.items() if k != "seconds")
        print(f"{label:12s} {row['seconds']:8.3f}s{extras}")
    print(f"warm speedup over cold: {results['acceptance']['warm_speedup']}x "
          f"(threshold {results['acceptance']['threshold']}x, "
          f"cpu_count={results['cpu_count']})")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if problems else 0


# Pytest entry point: quick determinism + warm-store smoke, writes the
# JSON artifact next to the other benchmark outputs.
def test_perf_matrix_determinism_and_store(artifacts_dir):
    results = run(quick=True)
    problems = verdict(results)
    results["pass"] = not problems
    (artifacts_dir / "BENCH_perfmatrix.json").write_text(
        json.dumps(results, indent=2) + "\n")
    assert not problems, problems


if __name__ == "__main__":
    sys.exit(main())
