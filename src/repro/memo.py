"""One bounded, single-flight memo behind every content-keyed cache.

A :class:`Memo` maps a content key to an entry (never ``None``) built on
first use.  Misses are single-flighted per key: one caller builds, the
rest wait and count as hits; a build may look up other keys, never its
own, and one that raises stores nothing.  Past the bound on summed entry
size (1 each, or ``size(entry)``) the oldest entries are evicted but the
newest stays; ``bound=None`` (a fixed key set) evicts nothing.  Counters
are kept per memo and per memo name.  A forked child renews every lock
and in-flight table: one held at the fork would stay held.  Imports
nothing from ``repro``.
"""

from __future__ import annotations

import os
import threading
import weakref


class MemoStats:
    """Summed entry size, bound (None: unbounded), hits, misses, evictions."""

    def __init__(self, size=0, bound=0, hits=0, misses=0, evictions=0):
        self.size, self.bound = size, bound
        self.hits, self.misses, self.evictions = hits, misses, evictions

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def snapshot(self) -> "MemoStats":
        """Consistent point-in-time copy (safe under concurrent lookups)."""
        with _LOCK:
            return MemoStats(**vars(self))


#: Guards every counter.  Re-entrant, because a dead memo's finalizer
#: may run in a garbage collection inside a section that holds it.
_LOCK = threading.RLock()
_TOTALS: dict[str, MemoStats] = {}
_LIVE: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def totals(name: str) -> MemoStats:
    """The counters summed over the live memos called ``name``."""
    with _LOCK:
        return _TOTALS.get(name) or _TOTALS.setdefault(name, MemoStats())


def snapshot() -> dict[str, dict]:
    """``{name: {size, bound, hits, misses, evictions}}``, by name."""
    with _LOCK:
        return {name: dict(vars(s)) for name, s in sorted(_TOTALS.items())}


def clear(name: str) -> None:
    """Empty every memo called ``name`` and zero its counts (a cold start)."""
    with _LOCK:
        memos = [m for m in _LIVE if m.name == name]
        named = _TOTALS.setdefault(name, MemoStats())
        named.hits = named.misses = named.evictions = 0
    for memo in memos:
        with memo._guard, _LOCK:
            memo.entries.clear()
            stats = memo.stats
            memo._totals.size -= stats.size
            stats.size = stats.hits = stats.misses = stats.evictions = 0


def _retire(named: MemoStats, stats: MemoStats) -> None:
    with _LOCK:
        named.size -= stats.size
        if stats.bound is not None:
            named.bound -= stats.bound


class Memo:
    """Content key -> entry, built once per key (see the module doc)."""

    def __init__(self, name: str, bound: int | None, size=None):
        self.name, self.bound = name, bound
        self._size = size or (lambda entry: 1)
        self.entries: dict = {}
        self.stats = MemoStats(bound=bound)
        self._guard, self._inflight = threading.Lock(), {}
        with _LOCK:
            self._totals = named = totals(name)
            named.bound = None if bound is None else named.bound + bound
            _LIVE.add(self)
        weakref.finalize(self, _retire, self._totals, self.stats)

    def get(self, key, build):
        """The entry for ``key``, from ``build()`` on a miss."""
        entry = self.entries.get(key)
        if entry is None:
            with self._guard:
                flight = self._inflight.setdefault(key, threading.Lock())
            with flight:
                entry = self.entries.get(key)
                if entry is None:
                    self._count("misses")
                    try:
                        return self._store(key, build())
                    finally:
                        with self._guard:
                            self._inflight.pop(key, None)
        self._count("hits")
        return entry

    def peek(self, key):
        """The entry for ``key`` or None, never building or counting."""
        return self.entries.get(key)

    def _count(self, field: str) -> None:
        with _LOCK:
            for stats in (self.stats, self._totals):
                setattr(stats, field, getattr(stats, field) + 1)

    def _store(self, key, entry):
        grown, evicted = self._size(entry), 0
        with self._guard:
            kept = self.entries.setdefault(key, entry)
            if kept is not entry:  # a rebuild raced one after an eviction
                return kept
            while (self.bound is not None and len(self.entries) > 1
                   and self.stats.size + grown > self.bound):
                grown -= self._size(self.entries.pop(next(iter(self.entries))))
                evicted += 1
            with _LOCK:
                for stats in (self.stats, self._totals):
                    stats.size += grown
                    stats.evictions += evicted
        return entry


def _after_fork_in_child() -> None:
    global _LOCK
    _LOCK = threading.RLock()
    for memo in list(_LIVE):
        memo._guard, memo._inflight = threading.Lock(), {}


os.register_at_fork(after_in_child=_after_fork_in_child)
