"""Persistent, content-addressed store for derived matrix cells.

The sequential reproduction recomputes all 51 cells — 483 probes, ~500
compiles — on every invocation and throws the results away at exit.
This module gives cell results a durable home so a restart re-derives
only what changed.

Keying (content addressing)
---------------------------

A stored cell is valid only for the exact inputs that produced it.  The
key of a cell is ``sha256(environment_fingerprint | vendor | model |
language)`` where the *environment fingerprint* hashes everything a
cell's evaluation can observe:

* the **toolchain snapshot** — every registered toolchain's name,
  version, maturity, opt level, and full capability rows (targets,
  features, flags), in the spirit of the paper's "snapshot of a living
  overview": a new compiler release is a new environment;
* the **route registry** — route ids, provenance (provider, mechanism,
  maturity), via-chains, and probe-suite bindings;
* the **probe suites** — every probe label and method, per suite;
* the **kernel library** — each kernel's
  :meth:`~repro.isa.module.KernelIR.content_parts`, the bytes the
  compile cache hashes too, so editing a kernel invalidates exactly the
  cells whose probes execute it (conservatively: all, since suites
  share the library);
* the **classifier thresholds** in force.

Change any of these and every lookup misses (the filename embeds the
key), so a warm restart falls back to re-deriving; leave them alone and
a warm restart serves all 51 cells with **zero probe executions**.

:class:`ContentStore` is the one store: :class:`ResultStore` here and
:class:`repro.perfport.store.PerfStore` bind only a directory, a
fingerprint, a decoder and a label.  Lookups never write.  Writes are
atomic (temp file + ``os.replace`` in the same directory) and safe
under concurrent writers; payloads are plain JSON for inspectability
and CI artifact upload.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.classifier import DEFAULT_THRESHOLDS, Thresholds, classify_route
from repro.core.matrix import CellResult, RouteResult
from repro.core.probes import PROBE_SUITES, Probe, ProbeOutcome, SuiteResult
from repro.core.routes import Route, all_routes, routes_for
from repro.enums import Language, Model, Vendor, all_cells

#: Bump when the on-disk layout or serialization schema changes.
STORE_SCHEMA = 1

Cell = tuple[Vendor, Model, Language]


def environment_fingerprint(thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Hash of every input a cell evaluation can observe (see module doc)."""
    from repro.compilers.registry import all_toolchains
    from repro.kernels import KERNEL_LIBRARY

    h = hashlib.sha256()
    h.update(f"schema={STORE_SCHEMA}".encode())
    h.update(repr(thresholds).encode())
    for r in all_routes():
        h.update(
            f"|route:{r.route_id};{r.vendor.value};{r.model.value};"
            f"{r.language.value};{r.provider.value};{r.mechanism.value};"
            f"{r.maturity.value};{r.via};{r.probe_suite};"
            f"{r.description_id}".encode()
        )
    for suite in sorted(PROBE_SUITES):
        for p in PROBE_SUITES[suite]:
            h.update(f"|probe:{suite};{p.label};{p.method}".encode())
    for tc in all_toolchains():
        h.update(
            f"|tc:{tc.name};{tc.version};{tc.provider.value};"
            f"{tc.maturity.value};opt{tc.opt_level}".encode()
        )
        for cap in sorted(
            tc.capabilities, key=lambda c: (c.model.value, c.language.value)
        ):
            h.update(
                f"|cap:{cap.model.value};{cap.language.value};"
                f"{','.join(sorted(t.value for t in cap.targets))};"
                f"{','.join(sorted(cap.features))};{cap.since};"
                f"{cap.flag}".encode()
            )
    for name in sorted(KERNEL_LIBRARY):
        for part in KERNEL_LIBRARY[name].ir.content_parts():
            h.update(part.encode())
    return h.hexdigest()


def cell_key(env_fingerprint: str, cell: Cell) -> str:
    """Content-addressed key of one cell under one environment."""
    vendor, model, language = cell
    h = hashlib.sha256()
    h.update(env_fingerprint.encode())
    h.update(f"|{vendor.value}|{model.value}|{language.value}".encode())
    return h.hexdigest()


# -- serialization ------------------------------------------------------------


def cell_to_dict(cell: CellResult) -> dict:
    """Plain-JSON form of a cell (stable; the server reuses it)."""
    return {
        "vendor": cell.vendor.value,
        "model": cell.model.value,
        "language": cell.language.value,
        "primary": cell.primary.name,
        "secondary": cell.secondary.name if cell.secondary else None,
        "routes": [
            {
                "route_id": rr.route.route_id,
                "category": rr.category.name,
                "coverage": rr.coverage,
                "suite": rr.suite.suite,
                "outcomes": [
                    {
                        "label": o.probe.label,
                        "method": o.probe.method,
                        "passed": o.passed,
                        "error": o.error,
                    }
                    for o in rr.suite.outcomes
                ],
            }
            for rr in cell.routes
        ],
    }


class StoreIntegrityError(Exception):
    """A stored payload does not match the live registries."""


def cell_from_dict(payload: dict,
                   thresholds: Thresholds = DEFAULT_THRESHOLDS) -> CellResult:
    """Reconstruct a :class:`CellResult` bit-identical to the original.

    Routes resolve to the *live registry instances* by id and categories
    are re-derived through the §3 classifier, so a reconstructed cell
    compares equal (dataclass equality) to a freshly evaluated one.  A
    payload whose route ids or categories no longer match the registry
    raises :class:`StoreIntegrityError` — the environment fingerprint
    should have prevented the lookup, so a mismatch means a corrupt or
    hand-edited entry.
    """
    vendor = Vendor(payload["vendor"])
    model = Model(payload["model"])
    language = Language(payload["language"])
    by_id: dict[str, Route] = {
        r.route_id: r for r in routes_for(vendor, model, language)
    }
    results: list[RouteResult] = []
    for entry in payload["routes"]:
        route = by_id.get(entry["route_id"])
        if route is None:
            raise StoreIntegrityError(
                f"stored route '{entry['route_id']}' is not registered for "
                f"{vendor.value}/{model.value}/{language.value}"
            )
        suite = SuiteResult(
            suite=entry["suite"],
            outcomes=[
                ProbeOutcome(
                    probe=Probe(o["label"], o["method"]),
                    passed=o["passed"],
                    error=o["error"],
                )
                for o in entry["outcomes"]
            ],
        )
        category = classify_route(route, suite.coverage, thresholds)
        if category.name != entry["category"]:
            raise StoreIntegrityError(
                f"stored category {entry['category']} for "
                f"'{entry['route_id']}' disagrees with the classifier "
                f"({category.name}); entry is stale or corrupt"
            )
        results.append(RouteResult(route=route, suite=suite, category=category))
    return CellResult(vendor=vendor, model=model, language=language,
                      routes=results)


# -- the store ---------------------------------------------------------------


@dataclass
class StoreStats:
    """Lookup/write counters for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupt/unreadable entries treated as misses
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def _inc(self, attr: str) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + 1)

    def as_dict(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "writes": self.writes, "invalid": self.invalid}


def _atomic_write(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` whole: a fsynced temp file in the
    same directory, then ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ContentStore:
    """A content-addressed directory of serialized cells.

    Layout: ``<root>/cells/<v>_<m>_<l>.<key12>.json``.  The 12-hex prefix
    of :func:`cell_key` is the address, so a lookup under a changed
    fingerprint simply misses; :meth:`prune` removes stale entries.
    Lookups never write: ``cells/`` appears with the first save.

    A store binds ``root``, ``label`` (naming it in the corrupt-entry
    warning and the ``<label>_corrupt_entries`` counter),
    ``_compute_fingerprint()`` and ``_decode(payload)``, which raises on
    a payload it cannot rebuild a cell from.
    """

    label = "store"

    def __init__(self, root: Path, thresholds: Thresholds, metrics) -> None:
        self.root = root
        self.thresholds = thresholds
        self.stats = StoreStats()
        #: Optional :class:`~repro.service.metrics.MetricsRegistry`;
        #: corrupt entries are counted there when present.
        self.metrics = metrics
        self._fingerprint: str | None = None
        self._lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        """The hash every key embeds (computed once per store instance)."""
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = self._compute_fingerprint()
            return self._fingerprint

    def _path(self, cell: Cell) -> Path:
        vendor, model, language = cell
        key = cell_key(self.fingerprint, cell)
        slug = f"{vendor.value}_{model.value}_{language.value}".lower()
        slug = slug.replace("++", "pp").replace("/", "-").replace(" ", "-")
        return self.root / "cells" / f"{slug}.{key[:12]}.json"

    # -- lookup / persist --------------------------------------------------

    def load(self, cell: Cell):
        """The stored cell under the current fingerprint, or None.

        An entry the JSON parser or :meth:`_decode` rejects, valid JSON
        of the wrong shape included, is a counted miss, never an error.
        """
        path = self._path(cell)
        try:
            result = self._decode(json.loads(path.read_text()))
        except FileNotFoundError:
            self.stats._inc("misses")
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                StoreIntegrityError) as exc:
            self.stats._inc("invalid")
            logging.getLogger(type(self).__module__).warning(
                "corrupt %s entry treated as miss: path=%s error=%s: %s",
                self.label, path, type(exc).__name__, exc)
            if self.metrics is not None:
                name = self.label.replace("-", "_")
                self.metrics.counter(f"{name}_corrupt_entries").inc()
            return None
        self.stats._inc("hits")
        return result

    def save(self, cell: Cell, payload: dict) -> Path:
        """Persist one serialized cell under the current fingerprint."""
        path = self._path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(payload, indent=1) + "\n")
        self.stats._inc("writes")
        return path

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[Path]:
        return sorted((self.root / "cells").glob("*.json"))

    def prune(self) -> int:
        """Delete entries not addressed by the current fingerprint."""
        live = {self._path(c) for c in all_cells()}
        removed = 0
        for path in self.entries():
            if path not in live:
                path.unlink()
                removed += 1
        return removed


class ResultStore(ContentStore):
    """The compatibility cells' store at ``<root>/``, keyed by
    :func:`environment_fingerprint` (see module docstring)."""

    def __init__(self, root: str | os.PathLike,
                 thresholds: Thresholds = DEFAULT_THRESHOLDS,
                 metrics=None):
        super().__init__(Path(root), thresholds, metrics)

    def _compute_fingerprint(self) -> str:
        return environment_fingerprint(self.thresholds)

    def _decode(self, payload) -> CellResult:
        return cell_from_dict(payload, self.thresholds)

    # Bound in the class body: perfbench's tracer wraps them via __dict__.
    load = ContentStore.load
    save = ContentStore.save
