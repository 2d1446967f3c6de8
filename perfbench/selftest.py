"""Self-test: ``python3 perfbench/run.py --self-test`` (about two minutes).

Shows three things, and exits 1 if any fails:

1. an injected wrong output is counted: with ``classify_route`` made to
   misrate one route, a matrix iteration reports failed operations and
   a non-zero error rate;
2. on the spans of every traced run, self times summed per thread never
   exceed that thread's wall time;
3. every workload, untraced and traced, emits exactly the metrics
   ``BENCHMARK.json`` names, each with its unit, and passes its checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from perfbench import tracer
from perfbench.common import Run

#: Seconds each workload measures in the self-test (one iteration).
SECONDS = 1


def injected_failure(root: Path, work: Path) -> list[str]:
    """A matrix iteration with one route misrated must fail its checks."""
    from repro.core import classifier
    from repro.enums import Language, Model, SupportCategory, Vendor

    from perfbench import batch

    original = classifier.classify_route

    def misrate(route, coverage, *args, **kwargs):
        if (route.vendor, route.model, route.language) == \
                (Vendor.NVIDIA, Model.CUDA, Language.CPP):
            return SupportCategory.LIMITED
        return original(route, coverage, *args, **kwargs)

    work.mkdir()
    undo = tracer.rebind(original, misrate)
    try:
        run = Run(root, work, "matrix", 0, 0, False)
        result = batch.run_matrix(run)
    finally:
        for setter, owner, attr, value in undo:
            setter(owner, attr, value)
    outcome = result.outcome
    print(f"injected misrating: error_rate={outcome.error_rate:.4g} "
          f"({outcome.failed}/{outcome.attempted})")
    if outcome.failed == 0 or outcome.error_rate <= 0:
        return ["an injected wrong output was not counted as a failure"]
    return []


def self_time_problems(spans, label: str) -> list[str]:
    problems = []
    for tid, (busy, wall) in tracer.per_thread_busy(spans).items():
        if busy > wall + 1e-6:
            problems.append(f"{label}: thread {tid} self time {busy:.6f} s "
                            f"exceeds its wall time {wall:.6f} s")
    if not spans:
        problems.append(f"{label}: no spans recorded")
    return problems


def emitted_problems(line: dict, expected: dict, label: str) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    if not line.get("correct") or line.get("failed") or \
            line.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={line.get('correct')} "
                        f"failed={line.get('failed')}/{line.get('attempted')}")
    metrics = line.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            problems.append(f"{label}: {name} emitted as {got}")
    return problems


def main(work: Path) -> int:
    from perfbench.run import declared

    root = work.parent.parent
    spec = declared()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = injected_failure(root, work / "inject")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            spans = work / f"{workload}-spans.jsonl"
            cmd = [sys.executable, str(root / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7",
                   "--seconds", str(SECONDS), "--trace", str(trace),
                   "--spans", str(spans)]
            out = subprocess.run(cmd, cwd=root, capture_output=True,
                                 text=True, timeout=600)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: "
                                f"{out.stderr[-500:]}")
                continue
            line = json.loads(out.stdout.splitlines()[-1])
            problems += emitted_problems(line, per_layer if trace else e2e,
                                         label)
            if trace:
                problems += self_time_problems(tracer.load_spans(spans),
                                               label)
            print(f"{label}: ok" if not problems else f"{label}: checked")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0
