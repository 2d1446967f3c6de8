"""The gpu-compat benchmark: one command for every workload.

    python3 perfbench/run.py --workload matrix|perf|embed --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (``failed / attempted`` is the error rate) and
``metrics`` -- the end-to-end metrics ``BENCHMARK.json`` declares with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it repeat the numbers under the names the workloads give them.
README.md documents the workloads, the metrics and the layer-to-metric
map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: What each end-to-end metric is on each workload.
NAMES = {
    "matrix": {"cold_s": "eval_cold_s", "cold_aux_s": "eval_cold_process_s",
               "warm_ms": "eval_warm_ms"},
    "perf": {"cold_s": "perf_cold_s", "cold_aux_s": "lint_s",
             "warm_ms": "perf_warm_ms"},
    "embed": {"cold_s": "submit_s", "cold_aux_s": "submit_slowest_s",
              "warm_ms": "read_ms"},
}


def declared() -> dict:
    """``BENCHMARK.json``: the metrics a result line carries, with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(run):
    from perfbench import batch, embed

    return {"matrix": batch.run_matrix, "perf": batch.run_perf,
            "embed": embed.run_embed}[run.workload](run)


def result_line(run, result) -> dict:
    """Every declared metric of the run's kind; a layer the workload never
    entered reads 0."""
    spec = declared()
    if run.trace:
        metrics = {m["name"]: {"value": float(result.values.get(m["name"], 0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(result.values[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    outcome = result.outcome
    return {"correct": outcome.failed == 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def summary(run, result) -> list[str]:
    lines = [f"workload {run.workload}, seed {run.seed}, "
             f"{run.seconds:g} s, trace {int(run.trace)}, jobs {run.jobs}"]
    lines += result.notes
    if not run.trace:
        names = NAMES[run.workload]
        lines.append("  ".join(
            f"{names.get(m['name'], m['name'])}={result.values[m['name']]:.6g}"
            for m in declared()["end_to_end"]))
    outcome = result.outcome
    lines.append(f"error_rate={outcome.error_rate:.6g} "
                 f"({outcome.failed}/{outcome.attempted})")
    lines += [f"FAILED {p}" for p in outcome.problems]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NAMES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="with --trace 1, also write the run's spans here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import Run, join_children

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    try:
        if args.self_test:
            from perfbench import selftest

            return selftest.main(work)
        run = Run(ROOT, work, args.workload, args.seed, args.seconds,
                  bool(args.trace))
        result = run_workload(run)
        join_children()
        if args.spans is not None and result.spans is not None:
            from perfbench.tracer import dump_spans

            dump_spans(result.spans, args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in summary(run, result):
        print(line)
    print(json.dumps(result_line(run, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
