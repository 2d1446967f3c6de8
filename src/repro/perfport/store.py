"""Content-addressed persistent store for perf-matrix cells.

:class:`PerfStore` is a :class:`repro.service.store.ContentStore` (atomic
writes, filename-embedded key, corrupt entry = miss, lookups never
write) under a ``perf/`` subdirectory, so one ``--store DIR`` serves
both the compatibility cells and the perf cells.

The perf key extends the environment fingerprint with everything a
*simulated timing* can additionally observe:

* the perf-model constants (:func:`repro.gpu.perfmodel.perf_constants`)
  — stream efficiency and the atomic traffic penalty;
* the three default device specs (datasheet bandwidth, clocks, CU
  counts ... the full spec repr);
* the workload parameters (n, reps, dtype width);
* the perf-store schema version.

Change any of these and every lookup misses; leave them alone and a
warm rerun reloads all cells with **zero stream-kernel executions**
(JSON float serialization round-trips ``repr`` exactly, so a reloaded
cell is bit-identical to the evaluated one).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.core.classifier import DEFAULT_THRESHOLDS, Thresholds
from repro.core.routes import routes_for
from repro.enums import VENDOR_ORDER, Language, Model, Vendor
from repro.gpu.perfmodel import perf_constants
from repro.gpu.specs import default_spec
from repro.perfport.matrix import PerfCell, PerfParams, RoutePerf
from repro.service.store import (
    ContentStore,
    StoreIntegrityError,
    environment_fingerprint,
)
from repro.workloads.babelstream import STREAM_KERNELS

#: Bump when the perf on-disk layout or serialization schema changes.
#: v2: route entries carry the kernelsan rollup (lint_errors,
#: lint_warnings) now that perf builds compile with sanitize=True.
PERF_SCHEMA = 2


def perf_fingerprint(params: PerfParams,
                     thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Hash of every input a stored perf cell depends on."""
    h = hashlib.sha256()
    h.update(f"perf-schema={PERF_SCHEMA}".encode())
    h.update(environment_fingerprint(thresholds).encode())
    for name, value in sorted(perf_constants().items()):
        h.update(f"|const:{name}={value!r}".encode())
    for vendor in VENDOR_ORDER:
        h.update(f"|spec:{default_spec(vendor)!r}".encode())
    h.update(f"|params:{sorted(params.as_dict().items())!r}".encode())
    return h.hexdigest()


# -- serialization ------------------------------------------------------------


def perf_cell_to_dict(cell: PerfCell) -> dict:
    """Plain-JSON form of one perf cell (stable; the server reuses it)."""
    return {
        "vendor": cell.vendor.value,
        "model": cell.model.value,
        "language": cell.language.value,
        "device": cell.device,
        "peak_gbs": cell.peak_gbs,
        "routes": [
            {
                "route_id": r.route_id,
                "via": r.via,
                "translated": r.translated,
                "ok": r.ok,
                "error": r.error,
                "verified": r.verified,
                "kernels_executed": r.kernels_executed,
                "best_seconds": {k: r.best_seconds[k]
                                 for k in STREAM_KERNELS
                                 if k in r.best_seconds},
                "lint_errors": r.lint_errors,
                "lint_warnings": r.lint_warnings,
            }
            for r in cell.routes
        ],
    }


def perf_cell_from_dict(payload: dict) -> PerfCell:
    """Reconstruct a :class:`PerfCell` bit-identical to the original."""
    vendor = Vendor(payload["vendor"])
    model = Model(payload["model"])
    language = Language(payload["language"])
    known = {r.route_id for r in routes_for(vendor, model, language)}
    routes: list[RoutePerf] = []
    for entry in payload["routes"]:
        if entry["route_id"] not in known:
            raise StoreIntegrityError(
                f"stored route '{entry['route_id']}' is not registered for "
                f"{vendor.value}/{model.value}/{language.value}")
        routes.append(RoutePerf(
            route_id=entry["route_id"],
            via=entry["via"],
            translated=entry["translated"],
            ok=entry["ok"],
            error=entry["error"],
            verified=entry["verified"],
            kernels_executed=entry["kernels_executed"],
            best_seconds={k: float(v)
                          for k, v in entry["best_seconds"].items()},
            lint_errors=int(entry.get("lint_errors", 0)),
            lint_warnings=int(entry.get("lint_warnings", 0)),
        ))
    return PerfCell(vendor=vendor, model=model, language=language,
                    device=payload["device"],
                    peak_gbs=float(payload["peak_gbs"]), routes=routes)


# -- the store ---------------------------------------------------------------


class PerfStore(ContentStore):
    """The perf cells' store at ``<root>/perf/``, keyed by
    :func:`perf_fingerprint` of the workload parameters."""

    label = "perf-store"

    def __init__(self, root: str | os.PathLike,
                 params: PerfParams = PerfParams(),
                 thresholds: Thresholds = DEFAULT_THRESHOLDS,
                 metrics=None):
        super().__init__(Path(root) / "perf", thresholds, metrics)
        self.params = params

    def _compute_fingerprint(self) -> str:
        return perf_fingerprint(self.params, self.thresholds)

    def _decode(self, payload) -> PerfCell:
        return perf_cell_from_dict(payload)

    # Bound in the class body: perfbench's tracer wraps them via __dict__.
    load = ContentStore.load
    save = ContentStore.save
