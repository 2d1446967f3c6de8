"""Fault injection for the two content-addressed stores.

``ResultStore`` (compat cells) and ``PerfStore`` (perf cells) are one
``ContentStore`` with different fingerprints and decoders, so every test
here runs against both: a corrupt or wrong-shape entry is a counted miss
that the next build re-derives, a crash mid-write leaves nothing a
lookup loads, concurrent writers of one entry leave a whole file, and a
warm build or a read-only service leaves the store tree untouched.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time
from types import SimpleNamespace

import pytest

from repro.enums import Language, Model, Vendor
from repro.perfport import PerfParams, PerfScheduler, PerfStore, run_perf_matrix
from repro.service import (
    InProcessClient,
    MatrixScheduler,
    MatrixService,
    MetricsRegistry,
    ResultStore,
    build_matrix_concurrent,
)

PARAMS = PerfParams(n=1 << 12, reps=2)
CELL = (Vendor.NVIDIA, Model.CUDA, Language.CPP)
KINDS = ("compat", "perf")
#: The warning text and counter each store reports a corrupt entry under.
WARNINGS = {"compat": "corrupt store entry treated as miss",
            "perf": "corrupt perf-store entry treated as miss"}
COUNTERS = {"compat": "store_corrupt_entries",
            "perf": "perf_store_corrupt_entries"}


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """One store directory holding 51 compat and 51 perf cells."""
    root = tmp_path_factory.mktemp("warm-store")
    report = run_perf_matrix(2, store=str(root), params=PARAMS)
    assert report.cells_evaluated == 51
    assert report.compat_report.cells_evaluated == 51
    return SimpleNamespace(root=root, compat=report.compat_report.matrix,
                           perf=report.matrix)


@pytest.fixture()
def root(tmp_path, warm):
    """A private copy of the warm store that a test may damage."""
    return shutil.copytree(warm.root, tmp_path / "store")


def _store(kind, root, metrics=None):
    if kind == "compat":
        return ResultStore(root, metrics=metrics)
    return PerfStore(root, params=PARAMS, metrics=metrics)


def _build(kind, store, warm):
    if kind == "compat":
        return MatrixScheduler(2, store=store).build()
    return PerfScheduler(2, compat=warm.compat, params=PARAMS,
                         store=store).build()


def _reference(kind, warm):
    return warm.compat if kind == "compat" else warm.perf


def _route_fields_wrong_type(text: str) -> str:
    # The compat decoder iterates ``outcomes``; the perf decoder calls
    # ``best_seconds.items()``.
    payload = json.loads(text)
    payload["routes"][0].update(outcomes=7, best_seconds=7)
    return json.dumps(payload)


CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "list": lambda text: "[]",
    "null": lambda text: "null",
    "routes-int": lambda text: json.dumps({**json.loads(text), "routes": 7}),
    "route-fields-wrong-type": _route_fields_wrong_type,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind", KINDS)
def test_bad_entry_is_a_counted_miss_and_rederived(kind, corruption, root,
                                                   warm, caplog):
    metrics = MetricsRegistry()
    store = _store(kind, root, metrics)
    path = store._path(CELL)
    original = path.read_text()
    path.write_text(CORRUPTIONS[corruption](original))
    with caplog.at_level("WARNING"):
        report = _build(kind, store, warm)
    assert report.cells_from_store == 50
    assert report.cells_evaluated == 1
    assert store.stats.as_dict()["invalid"] == 1
    assert metrics.counter(COUNTERS[kind]).get() == 1
    assert any(WARNINGS[kind] in rec.getMessage() and
               str(path) in rec.getMessage() for rec in caplog.records)
    assert report.matrix == _reference(kind, warm)
    # The re-derived cell is saved again, byte for byte as before.
    assert path.read_text() == original


def _crash_mid_save(kind, root, payload):
    # Die after the temp file is written, before it replaces the entry.
    os.replace = lambda src, dst: os._exit(3)
    _store(kind, root).save(CELL, payload)


@pytest.mark.parametrize("kind", KINDS)
def test_crash_mid_write_leaves_no_loadable_entry(kind, root, warm):
    store = _store(kind, root)
    path = store._path(CELL)
    original = path.read_text()
    payload = json.loads(original)
    payload["routes"] = []
    proc = multiprocessing.get_context("fork").Process(
        target=_crash_mid_save, args=(kind, root, payload))
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode == 3
    leftovers = list((store.root / "cells").glob("*.tmp"))
    assert len(leftovers) == 1
    assert json.loads(leftovers[0].read_text()) == payload
    assert len(store.entries()) == 51
    assert leftovers[0] not in store.entries()
    assert path.read_text() == original
    report = _build(kind, store, warm)
    assert report.cells_from_store == 51
    assert store.stats.as_dict()["invalid"] == 0
    assert report.matrix == _reference(kind, warm)


@pytest.mark.parametrize("kind", KINDS)
def test_prune_and_clear_sweep_orphaned_temp_files(kind, root):
    """A temp file left by a save killed before ``os.replace`` goes once
    it is old; a fresh one, maybe a save still in flight, stays."""
    store = _store(kind, root)
    cells = store.root / "cells"

    def temp_file(name, age_s):
        path = cells / name
        path.write_text("{}")
        then = time.time() - age_s
        os.utime(path, (then, then))
        return path

    fresh = temp_file("tmp-fresh.tmp", 0)
    temp_file("tmp-orphan.tmp", 3600)
    assert store.prune() == 0
    assert sorted(cells.glob("*.tmp")) == [fresh]
    temp_file("tmp-orphan-2.tmp", 3600)
    cleared = MatrixService(jobs=2, store=str(root)).clear_stores()
    assert cleared["removed"] == {"matrix": 51, "perf": 51}
    assert store.entries() == []
    assert sorted(cells.glob("*.tmp")) == [fresh]


def _save_repeatedly(kind, root, payload, barrier, times):
    store = _store(kind, root)
    barrier.wait(timeout=30)
    for _ in range(times):
        store.save(CELL, payload)


@pytest.mark.parametrize("kind", KINDS)
def test_two_processes_saving_one_cell(kind, root, warm):
    store = _store(kind, root)
    path = store._path(CELL)
    payload = json.loads(path.read_text())
    path.unlink()
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_save_repeatedly,
                         args=(kind, root, payload, barrier, 40))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert json.loads(path.read_text()) == payload
    assert not list((store.root / "cells").glob("*.tmp"))
    assert store.load(CELL) == _reference(kind, warm).cells[CELL]


def _tree(root):
    """Every path under ``root`` with its size and mtime."""
    return {str(p.relative_to(root)): (p.stat().st_size,
                                       p.stat().st_mtime_ns)
            for p in root.rglob("*")}


@pytest.mark.parametrize("layout", ["compat+perf", "compat only"])
def test_lookups_never_write(layout, root):
    """Warm builds and a read-only service's reads leave the store tree
    as it was: no rewritten file, no new file or directory.  (Root
    ignores a read-only ``chmod``, so the test compares trees.)"""
    if layout == "compat only":
        shutil.rmtree(root / "perf")
    before = _tree(root)
    assert build_matrix_concurrent(2, store=str(root)).cells_evaluated == 0
    if layout == "compat+perf":
        report = run_perf_matrix(2, store=str(root), params=PARAMS)
        assert report.cells_evaluated == 0
    client = InProcessClient(
        MatrixService(jobs=2, store=str(root), read_only=True))
    client.health()
    client.metrics()
    assert client.admin_stores().matrix["entries"] == 51
    assert _tree(root) == before


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_root_that_is_not_a_directory_is_refused(kind, below, tmp_path):
    """A store over a regular file (or a path beneath one) raises at
    construction, before any lookup or build, and leaves the file be."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a store\n")
    path = blocker / "sub" if below else blocker
    with pytest.raises(NotADirectoryError,
                       match="store path is not a directory"):
        _store(kind, path)
    with pytest.raises(NotADirectoryError):
        MatrixService(jobs=1, store=str(path))
    assert blocker.read_text() == "not a store\n"
