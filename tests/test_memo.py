"""The one memo type behind every content-keyed cache (``repro.memo``)."""

import gc
import sys
import threading
import time

import pytest

from repro import memo
from repro.memo import Memo


@pytest.fixture()
def name(request):
    """A memo name of the test's own, so its counters start at zero."""
    return f"test:{request.node.name}"


def _counts(stats):
    return (stats.size, stats.bound, stats.hits, stats.misses,
            stats.evictions)


def test_fifo_eviction_order_and_counters(name):
    m = Memo(name, 3)
    for key in "abcd":
        assert m.get(key, key.upper) == key.upper()
    assert list(m.entries) == ["b", "c", "d"]
    assert m.get("b", lambda: "rebuilt") == "B"
    # A hit does not refresh an entry: "b" is still the oldest.
    assert m.get("a", lambda: "A again") == "A again"
    assert list(m.entries) == ["c", "d", "a"]
    assert _counts(m.stats.snapshot()) == (3, 3, 1, 5, 2)
    assert _counts(memo.totals(name)) == _counts(m.stats)
    assert memo.snapshot()[name] == {"size": 3, "bound": 3, "hits": 1,
                                     "misses": 5, "evictions": 2}
    assert m.stats.total == 6 and m.stats.hit_rate == pytest.approx(1 / 6)


def test_sized_entries_evict_the_oldest_and_keep_the_newest(name):
    m = Memo(name, 10, size=len)
    for key in "abc":
        m.get(key, lambda: "x" * 4)
    assert list(m.entries) == ["b", "c"]
    assert m.stats.size == 8
    # Alone past the bound, the newest entry still stays.
    m.get("big", lambda: "x" * 25)
    assert list(m.entries) == ["big"]
    assert (m.stats.size, m.stats.evictions) == (25, 3)


def test_an_unbounded_memo_never_evicts(name):
    m = Memo(name, None)
    for key in range(1000):
        m.get(key, object)
    assert _counts(m.stats) == (1000, None, 0, 1000, 0)
    assert memo.snapshot()[name]["bound"] is None
    del m
    gc.collect()
    assert _counts(memo.totals(name)) == (0, None, 0, 1000, 0)


def test_a_raising_build_stores_nothing_and_raises_again(name):
    m = Memo(name, 4)
    calls = []

    def build():
        calls.append("build")
        raise ValueError("refused")

    for _ in range(2):
        with pytest.raises(ValueError, match="refused"):
            m.get("k", build)
    assert calls == ["build", "build"]
    assert m.entries == {} and m._inflight == {}
    assert _counts(m.stats) == (0, 4, 0, 2, 0)
    assert m.get("k", lambda: 7) == 7


def test_racing_threads_build_one_key_once(name):
    m = Memo(name, 4)
    n = 8
    entered, release = threading.Event(), threading.Event()
    calls = []

    def build():
        calls.append("build")
        entered.set()
        assert release.wait(timeout=10), "test never released the leader"
        return object()

    got = [None] * n

    def worker(i):
        got[i] = m.get("k", build)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        assert entered.wait(timeout=10)
        time.sleep(0.05)  # let the followers reach the flight lock
        release.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == ["build"]
    assert all(g is got[0] for g in got)
    assert (m.stats.hits, m.stats.misses) == (n - 1, 1)


def test_totals_sum_live_memos_and_clear_zeroes_them(name):
    a, b = Memo(name, 4), Memo(name, 4)
    a.get(1, lambda: "a")
    b.get(1, lambda: "b")
    b.get(1, lambda: "unused")
    assert _counts(memo.totals(name).snapshot()) == (2, 8, 1, 2, 0)
    del b
    gc.collect()
    # A dead memo's entries and bound leave the sums; its lookups stay.
    assert _counts(memo.totals(name).snapshot()) == (1, 4, 1, 2, 0)
    memo.clear(name)
    assert a.entries == {}
    assert _counts(a.stats) == (0, 4, 0, 0, 0)
    assert _counts(memo.totals(name).snapshot()) == (0, 4, 0, 0, 0)
