"""One table of process-wide work counters: named integers, such as
``memo.<name>.hits|misses|evictions`` (:mod:`repro.memo`),
``interpreter.launches`` and ``interpreter.<LaunchStats field>``,
``trace.hits|misses|bailouts``, ``trace.reason.<reason>``,
``trace.launches|batches`` (run fused) and ``stream.runs|kernels``.

One re-entrant lock guards the table and memo's counters both:
re-entrant, because a dead memo's finalizer may run in a garbage
collection inside a section that holds it.  A forked child renews it,
since a lock another thread held at the fork would stay held.  A task
on a worker process reports ``since(before)``, and its coordinator
``merge``\\ s that delta, so the coordinator counts its workers' work.
Imports nothing from ``repro``.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict

LOCK = threading.RLock()
_COUNTS: defaultdict = defaultdict(int)


def add(name: str, n: int = 1) -> None:
    with LOCK:
        _COUNTS[name] += n


def merge(counts: dict) -> None:
    """Add every count in ``counts`` (a delta from :func:`since`)."""
    with LOCK:
        for name, n in counts.items():
            _COUNTS[name] += n


def snapshot() -> defaultdict:
    """A point-in-time copy; a name never counted reads 0."""
    with LOCK:
        return _COUNTS.copy()


def since(before: defaultdict) -> dict:
    """The counts that grew after ``before`` was taken, by how much."""
    return {name: n - before[name] for name, n in snapshot().items()
            if n > before[name]}


def reset(prefix: str = "") -> None:
    """Zero every count whose name starts with ``prefix``."""
    with LOCK:
        for name in [n for n in _COUNTS if n.startswith(prefix)]:
            del _COUNTS[name]


def _after_fork_in_child() -> None:
    global LOCK
    LOCK = threading.RLock()


os.register_at_fork(after_in_child=_after_fork_in_child)
