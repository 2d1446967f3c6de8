"""Shared pieces: run context, outcome tally, statistics, set-up timing,
and the iteration loop of the in-process workloads."""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, layers, tracer

#: Fresh starts timed for ``setup_s``; the median is reported.  Half run
#: before the measured window and half after it, so one slow spell of the
#: machine does not set the median.  One more untimed start runs first so
#: byte-compilation and the page cache do not land on the first sample.
SETUP_SAMPLES = 8


@dataclass
class Run:
    """What one benchmark invocation knows about itself."""

    root: Path          # the checkout
    work: Path          # working directory inside the checkout
    workload: str
    seed: int
    seconds: float
    trace: bool
    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)

    def env(self) -> dict:
        """Environment for child processes: the program from ``src``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work)
        return env


@dataclass
class Result:
    """What a workload hands back: metric values, checks, notes, spans."""

    values: dict
    outcome: "Outcome"
    notes: list[str] = field(default_factory=list)
    spans: list | None = None


class Outcome:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, problems: list[str]) -> bool:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{label}: {p}" for p in problems[:3])
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def join_children(timeout_s: float = 30.0) -> None:
    """Wait for the worker processes the program's process pools started
    (a pool shut down without waiting leaves them exiting)."""
    for child in multiprocessing.active_children():
        child.join(timeout=timeout_s)
        if child.is_alive():
            child.terminate()
            child.join()


def time_to_ready(cmd: list[str], run: Run, timeout_s: float = 60.0) -> float:
    """Seconds from spawning ``cmd`` until it prints a line starting
    with ``ready``; the child then exits and is waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=run.root, env=run.env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith("ready"):
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{cmd!r} exited before becoming ready "
                               f"(status {proc.wait(timeout_s)})")
        proc.stdout.read()
        if proc.wait(timeout_s) != 0:
            raise RuntimeError(f"{cmd!r} failed after becoming ready")
        return elapsed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def setup_seconds(run: Run, stage: str, samples: int) -> list[float]:
    """Start-up times of fresh interpreters that import the program and
    prepare ``stage`` (see ``setup_child``)."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_child.py")),
           stage, str(run.work / "warm")]
    return [time_to_ready(cmd, run) for _ in range(samples)]


def prepare_warm_store(run: Run) -> None:
    """Build the warm compat store (``work/warm``) that the perf and embed
    workloads start from; untimed."""
    from repro.service import build_matrix_concurrent

    report = build_matrix_concurrent(run.jobs, store=str(run.work / "warm"))
    problems = checks.matrix_problems(report.matrix)
    if problems:
        raise RuntimeError(f"warm store build is wrong: {problems}")


class Phases:
    """The iteration loop of an in-process workload and what it gathers.

    Untraced iterations give the end-to-end samples, and an untraced run
    times set-up around them (``SETUP_SAMPLES``).  Peak memory is read
    after the first iteration, a fixed amount of work: how many more fit
    in the run depends on the machine's speed, and each adds what the
    program keeps cached (the notes give the peak at the end too).  With
    ``--trace 1``
    every second iteration runs with the entry points wrapped; its spans
    and counter deltas give the per-layer values, and its ``cold``
    samples against the untraced ones give the tracing overhead.
    """

    def __init__(self, run: Run, stage: str):
        self.run = run
        self.stage = stage
        self.setup: list[float] = []
        if not run.trace:
            setup_seconds(run, stage, 1)
            self.setup = setup_seconds(run, stage, SETUP_SAMPLES // 2)
        self.outcome = Outcome()
        self.samples: dict[str, list[float]] = {}
        self.traced_cold: list[float] = []
        self.recorder = tracer.Recorder() if run.trace else None
        if self.recorder is not None:
            self.recorder.active = False  # on only inside ``timed``
        self.counts: dict = {}
        self.cold_contexts: set[str] = set()
        self.jobs_retried = 0
        self.iterations = 0
        self.traced_iterations = 0
        self.rss_mb = 0.0

    def add(self, name: str, value: float, traced: bool) -> None:
        if traced and name == "cold":
            self.traced_cold.append(value)
        elif not traced:
            self.samples.setdefault(name, []).append(value)

    def timed(self, traced: bool, context: str, fn, *args, **kwargs):
        """Run ``fn``; returns (result, seconds).  A traced call records
        spans under ``context`` and the counter deltas around it."""
        if not traced:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            return result, time.perf_counter() - start
        self.recorder.context = context
        self.recorder.active = True
        before = layers.counters()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.recorder.active = False
            self.recorder.context = None
        layers.add_delta(self.counts, before, layers.counters())
        return result, elapsed

    def iterate(self, body) -> None:
        """Call ``body(index, traced)`` until the run's time is up."""
        deadline = time.perf_counter() + self.run.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline or (
                self.run.trace and not self.traced_iterations):
            traced = self.run.trace and index % 2 == 1
            # Garbage the last iteration left is not this one's to collect.
            gc.collect()
            if traced:
                self.recorder.install()
            try:
                body(index, traced)
            finally:
                if traced:
                    self.recorder.uninstall()
                    self.traced_iterations += 1
            if index == 0:
                self.rss_mb = peak_rss_mb()
            index += 1
        self.iterations = index
        if not self.run.trace:
            self.setup += setup_seconds(self.run, self.stage,
                                        SETUP_SAMPLES - len(self.setup))

    def setup_s(self) -> float:
        return median(self.setup)

    def notes(self) -> list[str]:
        return [f"iterations {self.iterations} ({self.traced_iterations} "
                f"traced); peak RSS {self.rss_mb:.1f} MB after the first, "
                f"{peak_rss_mb():.1f} MB at the end"]

    def layer_values(self) -> dict:
        spans = self.recorder.spans
        per = max(1, self.traced_iterations)
        values = layers.layer_metrics(spans, self.counts, per)
        values["service.scheduler.jobs_retried"] = self.jobs_retried / per
        values["service.scheduler.idle_s"] = (
            layers.idle_seconds(spans, self.cold_contexts) / per)
        values["bench.error_rate"] = self.outcome.error_rate
        values["bench.trace_overhead_s"] = (
            median(self.traced_cold) - median(self.samples["cold"]))
        return values
