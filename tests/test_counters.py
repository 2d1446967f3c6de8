"""The one table of process-wide work counters (``repro.counters``), and
the work counts that worker processes carry back to it."""

import sys
import threading

from repro import counters, memo
from repro.compilers.toolchain import clear_compile_cache, compile_cache_stats
from repro.isa.interpreter import snapshot_interpreter_totals
from repro.isa.tracing import clear_trace_cache
from repro.perfport import PerfParams, run_perf_matrix
from repro.service.scheduler import build_matrix_concurrent
from repro.workloads.babelstream import stream_totals


def test_since_and_merge_carry_a_delta_between_tables():
    counters.add("test.counters.a", 2)
    before = counters.snapshot()
    counters.add("test.counters.a")
    counters.add("test.counters.b", 5)
    delta = counters.since(before)
    assert {k: v for k, v in delta.items() if k.startswith("test.")} == {
        "test.counters.a": 1, "test.counters.b": 5}
    counters.merge(delta)
    now = counters.snapshot()
    assert (now["test.counters.a"], now["test.counters.b"]) == (4, 10)
    assert now["test.counters.never"] == 0
    counters.reset("test.counters.")
    assert not [k for k in counters.snapshot() if k.startswith("test.")]


def test_racing_threads_lose_no_count():
    counters.reset("test.race.")
    n_threads, rounds = 8, 2000

    def work():
        for _ in range(rounds):
            counters.add("test.race.add")
            counters.merge({"test.race.merge": 2})

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    now = counters.snapshot()
    assert (now["test.race.add"], now["test.race.merge"]) == (
        n_threads * rounds, 2 * n_threads * rounds)
    counters.reset("test.race.")


def test_a_memo_name_counted_only_by_workers_is_reported():
    """A coordinator may hold no memo of a name its workers looked up
    (a process build compiles only in workers): the merged counts still
    show, with this process's size and bound, 0."""
    name = "test:worker-only"
    counters.merge({f"memo.{name}.misses": 3, f"memo.{name}.hits": 1})
    try:
        assert memo.snapshot()[name] == {"size": 0, "bound": 0, "hits": 1,
                                         "misses": 3, "evictions": 0}
        assert (memo.totals(name).hits, memo.totals(name).misses) == (1, 3)
    finally:
        counters.reset(f"memo.{name}.")


def _work() -> dict:
    """The deterministic work counted so far, through the public readers."""
    it = snapshot_interpreter_totals()
    return {"launches": it.launches, **vars(it.stats),
            "traced_launches": it.trace.traced_launches,
            "traced_batches": it.trace.traced_batches, **stream_totals()}


def _counted(build) -> tuple[dict, int]:
    """The work and compile misses ``build()`` adds, from cold caches."""
    clear_compile_cache()
    clear_trace_cache()
    before = _work()
    build()
    after = _work()
    return ({k: after[k] - before[k] for k in after},
            compile_cache_stats().misses)


def test_both_executors_count_the_same_matrix_work():
    thread, _ = _counted(lambda: build_matrix_concurrent(2))
    process, misses = _counted(
        lambda: build_matrix_concurrent(2, execution="process"))
    assert process == thread
    assert (thread["launches"], thread["batches"]) == (1064, 1064)
    # Compile misses are per worker process: summed, not equal.
    assert misses > 0


def test_both_executors_count_the_same_stream_kernels():
    compat = build_matrix_concurrent(1).matrix
    params = PerfParams(n=1 << 12, reps=2)
    thread, _ = _counted(
        lambda: run_perf_matrix(2, params=params, compat=compat))
    process, _ = _counted(lambda: run_perf_matrix(
        2, execution="process", params=params, compat=compat))
    assert process == thread
    assert (thread["runs"], thread["kernels"]) == (84, 840)
