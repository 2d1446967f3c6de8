"""Metrics registry for the matrix evaluation service.

Thread-safe counters, gauges, and latency histograms, collected by the
scheduler, the result store, and the serving layer, and exposed at the
server's ``/metrics`` endpoint and via ``gpu-compat eval --stats``.

A snapshot also folds in the process-wide work counters of
:mod:`repro.counters` (compile and stage memo lookups, every memo's
size, bound, hits, misses and evictions, interpreter launches and trace
outcomes), worker processes' work included, so one document describes
the whole pipeline: queue behaviour, job retries, store reuse, compile
reuse, cache growth, and executed work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import memo


#: Default latency buckets, in seconds.  Jobs here range from ~100 us
#: (classify) to a few hundred ms (a heavy probe suite on a cold cache).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class Counter:
    """Monotonic event counter."""

    name: str
    value: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def get(self) -> int:
        with self._lock:
            return self.value


@dataclass
class Gauge:
    """Last-written value (e.g. configured worker count)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def get(self) -> float:
        with self._lock:
            return self.value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``observe`` is O(#buckets); snapshots report cumulative bucket
    counts (Prometheus style) so percentile estimates are possible
    downstream without storing samples.
    """

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            slot = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = i
                    break
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    def snapshot(self) -> dict:
        with self._lock:
            cumulative: list[int] = []
            running = 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return {
                "count": self._count,
                "sum": round(self._sum, 9),
                "min": self._min,
                "max": self._max,
                "mean": round(self._sum / self._count, 9) if self._count else None,
                "buckets": {
                    **{f"le_{b:g}": n
                       for b, n in zip(self.buckets, cumulative)},
                    "le_inf": cumulative[-1],
                },
            }


class MetricsRegistry:
    """Named counters/gauges/histograms with one-call JSON snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration (get-or-create, safe from any thread) ---------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, buckets)
            return self._histograms[name]

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict:
        """All service metrics plus the process-wide pipeline counters."""
        from repro.isa.interpreter import snapshot_interpreter_totals

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        caches = memo.snapshot()
        cc, stages = (memo.MemoStats(**caches.get(name, {}))
                      for name in ("compile", "stages"))
        it = snapshot_interpreter_totals()
        return {
            "counters": {n: c.get() for n, c in sorted(counters.items())},
            "gauges": {n: g.get() for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(histograms.items())},
            "compile_cache": {
                "hits": cc.hits,
                "misses": cc.misses,
                "hit_rate": round(cc.hit_rate, 6),
                "stage_hits": stages.hits,
                "stage_misses": stages.misses,
            },
            "interpreter": {
                "launches": it.launches,
                "batches": it.stats.batches,
                "threads": it.stats.threads,
                "instructions": it.stats.instructions,
                "bytes_moved": it.stats.bytes_moved,
            },
            "trace": {
                "hits": it.trace.hits,
                "misses": it.trace.misses,
                "bailouts": it.trace.bailouts,
                "traced_launches": it.trace.traced_launches,
                "traced_batches": it.trace.traced_batches,
                "bailout_reasons": dict(sorted(it.trace.reasons.items())),
            },
            "caches": caches,
        }
