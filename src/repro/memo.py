"""One bounded, single-flight memo behind every content-keyed cache.

A :class:`Memo` maps a content key to an entry (never ``None``) built on
first use.  Misses are single-flighted per key: one caller builds, the
rest wait and count as hits; a build may look up other keys, never its
own, and one that raises stores nothing.  Past the bound on summed entry
size (1 each, or ``size(entry)``) the oldest entries are evicted but the
newest stays; ``bound=None`` (a fixed key set) evicts nothing.  Counters
are kept per memo and, as ``memo.<name>.hits|misses|evictions`` in
:mod:`repro.counters` (whose lock guards them all), per memo name; a
name's summed size and bound describe this process's live memos only.
A forked child renews every guard and in-flight table: one held at the
fork would stay held.
"""

from __future__ import annotations

import os
import threading
import weakref

from repro import counters


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
        with counters.LOCK:
            return MemoStats(**vars(self))


#: Per memo name: the summed size and bound of the live memos so called.
_SIZES: dict[str, MemoStats] = {}
_FIELDS = ("hits", "misses", "evictions")
_LIVE: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def totals(name: str) -> MemoStats:
    """The counters of the memos called ``name``: size and bound of the
    live ones; hits, misses and evictions from :mod:`repro.counters`."""
    return MemoStats(**snapshot().get(name, {}))


def snapshot() -> dict[str, dict]:
    """``{name: {size, bound, hits, misses, evictions}}`` for every name
    with a memo here or counted lookups (a worker's, merged), by name."""
    with counters.LOCK:
        counts = counters.snapshot()
        names = set(_SIZES) | {key[5:].rpartition(".")[0] for key in counts
                               if key.startswith("memo.")}
        sized = {name: _SIZES.get(name) or MemoStats() for name in names}
        return {name: {"size": s.size, "bound": s.bound,
                       **{f: counts[f"memo.{name}.{f}"] for f in _FIELDS}}
                for name, s in sorted(sized.items())}


def clear(name: str) -> None:
    """Empty every memo called ``name`` and zero its counts (a cold start)."""
    with counters.LOCK:
        memos = [m for m in _LIVE if m.name == name]
        counters.reset(f"memo.{name}.")
    for memo in memos:
        with memo._guard, counters.LOCK:
            memo.entries.clear()
            stats = memo.stats
            memo._named.size -= stats.size
            stats.size = stats.hits = stats.misses = stats.evictions = 0


def _retire(named: MemoStats, stats: MemoStats) -> None:
    with counters.LOCK:
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
        self._keys = {field: f"memo.{name}.{field}" for field in _FIELDS}
        with counters.LOCK:
            self._named = named = _SIZES.setdefault(name, MemoStats())
            named.bound = None if bound is None else named.bound + bound
            _LIVE.add(self)
        weakref.finalize(self, _retire, self._named, self.stats)

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

    def _count(self, field: str, n: int = 1) -> None:
        with counters.LOCK:
            setattr(self.stats, field, getattr(self.stats, field) + n)
            counters.add(self._keys[field], n)

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
            with counters.LOCK:
                self.stats.size += grown
                self._named.size += grown
                self._count("evictions", evicted)
        return entry


def _after_fork_in_child() -> None:
    for memo in list(_LIVE):
        memo._guard, memo._inflight = threading.Lock(), {}


os.register_at_fork(after_in_child=_after_fork_in_child)
