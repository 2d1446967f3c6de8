"""Queryable serving layer for the evaluated matrices.

Two transports, **one** client surface: every endpoint method is
defined once on ``_BaseClient`` in terms of an abstract ``_request``;
:class:`InProcessClient` routes requests through the same
:func:`dispatch` function the HTTP handler uses (payload parity between
transports holds *by construction*), and :class:`HttpClient` sends them
over a loopback JSON API served by :func:`make_server`.  Both implement
the :class:`repro.service.api.MatrixClient` protocol and return the
typed responses from :mod:`repro.service.api`.

Endpoints (all GET, all JSON, all stamped with ``schema_version``;
errors use the ``{"error": {"code", "message"}}`` envelope):

====================================  =======================================
path                                  payload
====================================  =======================================
``/healthz``                          liveness + cell count
``/cell/<vendor>/<model>/<lang>``     one compat cell: ratings, routes,
                                      probe outcomes
``/table?format=F``                   rendered Figure 1 (text, markdown,
                                      html, tex, yaml)
``/advise?vendor=V&language=L``       route recommendations (also
                                      ``model=M&language=L``; neither:
                                      portable models per language)
``/lint/routes``                      static route-evidence cross-check
``/metrics``                          scheduler/store/compile-cache/
                                      interpreter/stream counters
``/perf/matrix``                      per-cell efficiencies over the full
                                      perf-portability matrix
``/perf/cell/<vendor>/<model>/<l>``   one perf cell: per-route GB/s,
                                      efficiencies, best route
``/perf/portability``                 cascades + Pennycook ⫫ per
                                      (model, language)
``/perf/static``                      perfstat's *predicted* perf matrix
                                      (zero kernel executions)
``/lint/perf``                        static-vs-measured perf cross-check
                                      + cost-model notes + agreement rollup
``/lint/traces``                      tracesan static trace-validation
                                      sweep + agreement rollup (zero
                                      kernel executions)
``/admin/stores``                     operational store view: entry
                                      counts, hit/miss/corrupt counters,
                                      environment fingerprints
``/admin/stores/clear`` (POST)        delete every persisted cell (403
                                      ``read_only`` when the server was
                                      started with ``serve --read-only``)
====================================  =======================================

Schema v4: ``/healthz`` and ``/metrics`` additionally carry a typed
``execution`` block (:class:`repro.service.api.ExecutionInfo`) naming
the scheduler backend (``thread`` or ``process``), the worker count,
and the fleet counters (store hits, probes run, worker crashes and
pool restarts).

Both matrices build lazily on first use through the concurrent
schedulers, against an optional persistent store — a warm store serves
all compat cells with zero probe executions and all perf cells with
zero stream-kernel executions.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.enums import Language, Model, SupportCategory, Vendor, all_cells
from repro.service.api import (
    AdminStoresResponse,
    AdviseResponse,
    BadRequestError,
    CellResponse,
    ExecutionInfo,
    HealthResponse,
    KernelRejectedError,
    KernelSubmitResponse,
    LintReportResponse,
    MetricsResponse,
    NotFoundError,
    PayloadTooLargeError,
    PerfCellResponse,
    PerfLintResponse,
    PerfMatrixResponse,
    PortabilityResponse,
    ReadOnlyError,
    RemoteServerError,
    StaticPerfResponse,
    StoresClearResponse,
    TableResponse,
    TraceLintResponse,
    check_schema_version,
    error_envelope,
    error_from_payload,
    versioned,
)
from repro.service.api import ServiceError as _ServiceError
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import (
    EXECUTION_THREAD,
    BuildReport,
    build_matrix_concurrent,
    resolve_execution,
    resolve_jobs,
)
from repro.service.store import ResultStore, cell_to_dict

__all__ = [
    "HttpClient",
    "InProcessClient",
    "MatrixService",
    "dispatch",
    "make_server",
]


def _parse_vendor(text: str) -> Vendor:
    for v in Vendor:
        if v.value.lower() == text.lower():
            return v
    raise NotFoundError(f"unknown vendor '{text}'")


def _parse_model(text: str) -> Model:
    for m in Model:
        if m.value.lower() == text.lower():
            return m
    raise NotFoundError(f"unknown model '{text}'")


_LANGUAGE_ALIASES = {
    "c++": Language.CPP, "cpp": Language.CPP, "cxx": Language.CPP,
    "fortran": Language.FORTRAN, "f": Language.FORTRAN,
    "python": Language.PYTHON, "py": Language.PYTHON,
}


def _parse_language(text: str) -> Language:
    try:
        return _LANGUAGE_ALIASES[text.lower()]
    except KeyError:
        raise NotFoundError(f"unknown language '{text}'") from None


class MatrixService:
    """The in-process core: owns the matrices, stores, and metrics.

    Thread-safe: both lazy builds are single-flighted behind a lock and
    every query method reads the immutable built structures.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 4,
        execution: str = EXECUTION_THREAD,
        read_only: bool = False,
        store: ResultStore | str | None = None,
        metrics: MetricsRegistry | None = None,
        perf_params: "PerfParams | None" = None,
    ):
        from repro.perfport import PerfParams, PerfStore

        self.jobs = resolve_jobs(jobs)
        self.execution = resolve_execution(execution)
        self.read_only = read_only
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
            store = ResultStore(store, metrics=self.metrics)
        self.store = store
        self.perf_params = (perf_params if perf_params is not None
                            else PerfParams())
        #: One perf store for the service's lifetime, over the same root.
        self.perf_store = (
            PerfStore(store.root, params=self.perf_params,
                      thresholds=store.thresholds, metrics=self.metrics)
            if store is not None else None)
        self._report: BuildReport | None = None
        self._perf_report = None
        self._static_perf = None
        self._lints: dict[str, dict] = {}
        self._build_lock = threading.Lock()
        self._kernel_rows: dict[str, dict] = {}
        self._kernel_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def ensure_built(self) -> BuildReport:
        """Build (or load) the compat matrix once; later calls are free."""
        with self._build_lock:
            if self._report is None:
                self._report = build_matrix_concurrent(
                    self.jobs, execution=self.execution, store=self.store,
                    metrics=self.metrics)
            return self._report

    def ensure_perf_built(self):
        """Build (or load) the perf matrix once; later calls are free."""
        from repro.perfport.scheduler import PerfScheduler

        compat = self.ensure_built().matrix
        with self._build_lock:
            if self._perf_report is None:
                self._perf_report = PerfScheduler(
                    self.jobs, compat=compat, execution=self.execution,
                    params=self.perf_params, store=self.perf_store,
                    metrics=self.metrics,
                ).build()
            return self._perf_report

    def ensure_static_perf_built(self):
        """Predict the perf matrix statically once; later calls are free.

        Unlike the dynamic builds this needs neither the compatibility
        matrix nor a store: perfstat works from the route registry and
        the cost interpreter alone, so a cold service can serve
        ``/perf/static`` without executing a single kernel.
        """
        from repro.analysis.perfstat import build_static_perf_matrix

        with self._build_lock:
            if self._static_perf is None:
                self._static_perf = build_static_perf_matrix(
                    self.perf_params)
            return self._static_perf

    @property
    def matrix(self):
        return self.ensure_built().matrix

    @property
    def perf(self):
        return self.ensure_perf_built().matrix

    # -- compat queries ----------------------------------------------------

    def execution_info(self) -> ExecutionInfo:
        """The typed fleet block stamped onto ``/healthz`` and ``/metrics``."""
        def count(name: str) -> int:
            return self.metrics.counter(name).get()

        return ExecutionInfo(
            backend=self.execution,
            workers=self.jobs,
            store_hits=count("store_hits") + count("perf_store_hits"),
            probes_run=count("probes_executed"),
            worker_crashes=count("worker_crashes"),
            worker_restarts=count("worker_restarts"),
        )

    def health(self) -> dict:
        built = self._report is not None
        return {
            "status": "ok",
            "built": built,
            "cells": self._report.matrix.n_cells if built else 0,
            "read_only": self.read_only,
            "execution": self.execution_info().as_dict(),
        }

    def cell(self, vendor: str, model: str, language: str) -> dict:
        v = _parse_vendor(vendor)
        m = _parse_model(model)
        l = _parse_language(language)
        try:
            result = self.matrix.cell(v, m, l)
        except KeyError:
            raise NotFoundError(
                f"no cell {v.value}/{m.value}/{l.value} in the matrix "
                f"(not a Figure 1 combination)") from None
        return cell_to_dict(result)

    def table(self, fmt: str = "text") -> dict:
        from repro.core.render import RENDERERS, matrix_lookup

        if fmt not in RENDERERS:
            raise BadRequestError(
                f"unknown format '{fmt}' (available: "
                f"{', '.join(sorted(RENDERERS))})")
        lookup = matrix_lookup(self.matrix)
        renderer = RENDERERS[fmt]
        title = "Figure 1 (derived empirically on the simulated system)"
        if fmt in ("text", "markdown", "html", "tex"):
            rendered = renderer(lookup, title=title)  # type: ignore[call-arg]
        else:
            rendered = renderer(lookup)
        return {"format": fmt, "table": rendered}

    def advise(self, vendor: str | None = None, model: str | None = None,
               language: str = "c++") -> dict:
        from repro.core.advisor import Advisor

        lang = _parse_language(language)
        advisor = Advisor(self.matrix, minimum=SupportCategory.LIMITED)
        if model is not None:
            m = _parse_model(model)
            recs = advisor.platforms_for_model(m, lang)
            scope = f"platforms for {m.value} / {lang.value}"
        elif vendor is not None:
            v = _parse_vendor(vendor)
            recs = advisor.models_for_platform(v, lang)
            scope = f"models usable on {v.value} from {lang.value}"
        else:
            models = advisor.portable_models(lang, SupportCategory.LIMITED)
            return {
                "scope": f"portable models from {lang.value}",
                "recommendations": [m.value for m in models],
            }
        return {"scope": scope, "recommendations": [str(r) for r in recs]}

    def _lint(self, family: str, build) -> dict:
        """One lint family's reply, built once: ``build()`` returns
        ``(report, summary)``; a summary becomes ``<family>_*`` gauges and
        the reply's ``agreement``.  Build what ``build`` reads first:
        ``_build_lock`` is not re-entrant."""
        with self._build_lock:
            if family not in self._lints:
                report, summary = build()
                payload = json.loads(report.to_json())
                if summary is not None:
                    for name, value in summary.items():
                        self.metrics.gauge(f"{family}_{name}").set(value)
                    payload["agreement"] = summary
                self._lints[family] = payload
            return self._lints[family]

    def lint_report(self) -> dict:
        from repro.analysis.routes_evidence import cross_check

        return self._lint("routes", lambda: (cross_check(), None))

    def snapshot_metrics(self) -> dict:
        from repro.workloads.babelstream import stream_totals

        snap = self.metrics.snapshot()
        if self.store is not None:
            snap["store"] = self.store.stats.as_dict()
            if self._perf_report is not None:
                snap["perf_store"] = self.perf_store.stats.as_dict()
        snap["stream"] = stream_totals()
        snap["execution"] = self.execution_info().as_dict()
        snap["service"] = {
            "jobs": self.jobs,
            "execution": self.execution,
            "read_only": self.read_only,
            "built": self._report is not None,
            "perf_built": self._perf_report is not None,
            "static_perf_built": self._static_perf is not None,
            "cells_from_store": (
                self._report.cells_from_store if self._report else 0),
            "cells_evaluated": (
                self._report.cells_evaluated if self._report else 0),
        }
        return snap

    # -- operational endpoints (/admin/*) ----------------------------------

    @staticmethod
    def _store_view(store) -> dict:
        if store is None:
            return {"configured": False, "entries": 0}
        return {
            "configured": True,
            "root": str(store.root),
            "entries": len(store.entries()),
            "fingerprint": store.fingerprint,
            "stats": store.stats.as_dict(),
        }

    def admin_stores(self) -> dict:
        """``GET /admin/stores``: the operational view of both stores."""
        return {
            "read_only": self.read_only,
            "matrix": self._store_view(self.store),
            "perf": self._store_view(self.perf_store),
        }

    def clear_stores(self) -> dict:
        """``POST /admin/stores/clear``: drop every persisted cell.

        In-memory matrices stay built (the store is persistence, not
        cache of record); the next cold process re-evaluates.  Typed
        403 when the server was started ``serve --read-only``.
        """
        if self.read_only:
            raise ReadOnlyError(
                "store mutation rejected: server is running read-only "
                "(started with --read-only)")
        removed = {"matrix": 0, "perf": 0}
        for name, store in (("matrix", self.store),
                            ("perf", self.perf_store)):
            if store is None:
                continue
            for path in store.entries():
                path.unlink(missing_ok=True)
                removed[name] += 1
        self.metrics.counter("admin_store_clears").inc()
        return {"cleared": True, "removed": removed}

    # -- perf queries ------------------------------------------------------

    def _perf_route_payload(self, route, peak_gbs: float) -> dict:
        from repro.workloads.babelstream import STREAM_KERNELS

        params = self.perf_params
        timed = [k for k in STREAM_KERNELS if k in route.best_seconds]
        return {
            "route_id": route.route_id,
            "via": route.via,
            "translated": route.translated,
            "ok": route.ok,
            "error": route.error,
            "verified": route.verified,
            "efficiency": route.efficiency(params, peak_gbs),
            "bandwidth_gbs": {k: route.bandwidth_gbs(k, params)
                              for k in timed},
            "best_seconds": {k: route.best_seconds[k] for k in timed},
        }

    def perf_matrix(self) -> dict:
        perf = self.perf
        cells = []
        for key in all_cells():
            cell = perf.cells[key]
            best = cell.best_route(perf.params)
            cells.append({
                "vendor": cell.vendor.value,
                "model": cell.model.value,
                "language": cell.language.value,
                "supported": cell.supported,
                "efficiency": cell.efficiency(perf.params),
                "best_route": best.route_id if best else None,
            })
        return {"params": perf.params.as_dict(), "n_cells": len(cells),
                "cells": cells}

    def perf_cell(self, vendor: str, model: str, language: str) -> dict:
        v = _parse_vendor(vendor)
        m = _parse_model(model)
        l = _parse_language(language)
        perf = self.perf
        try:
            cell = perf.cells[(v, m, l)]
        except KeyError:
            raise NotFoundError(
                f"no perf cell {v.value}/{m.value}/{l.value} "
                f"(not a Figure 1 combination)") from None
        best = cell.best_route(perf.params)
        return {
            "vendor": cell.vendor.value,
            "model": cell.model.value,
            "language": cell.language.value,
            "device": cell.device,
            "peak_gbs": cell.peak_gbs,
            "params": perf.params.as_dict(),
            "supported": cell.supported,
            "efficiency": cell.efficiency(perf.params),
            "best_route": best.route_id if best else None,
            "routes": [self._perf_route_payload(r, cell.peak_gbs)
                       for r in cell.routes],
        }

    def perf_portability(self) -> dict:
        from repro.perfport.portability import portability_report

        perf = self.perf
        rows = []
        for row in portability_report(perf):
            rows.append({
                "model": row.model.value,
                "language": row.language.value,
                "metric": row.metric,
                "supported_everywhere": row.supported_everywhere,
                "cascade": [
                    {"vendor": e.vendor.value,
                     "efficiency": e.efficiency,
                     "route_id": e.route_id}
                    for e in row.cascade
                ],
            })
        return {"params": perf.params.as_dict(), "rows": rows}

    # -- static perf (perfstat) --------------------------------------------

    def _static_route_payload(self, route, peak_gbs: float,
                              params) -> dict:
        return {
            "route_id": route.route_id,
            "via": route.via,
            "translated": route.translated,
            "viable": route.viable,
            "reason": route.reason,
            "translation_hops": list(route.translation_hops),
            "efficiency": route.efficiency(params, peak_gbs),
            "predicted_seconds": dict(route.seconds),
            "bound": dict(route.bound),
            "exact": route.exact,
        }

    def perf_static(self) -> dict:
        static = self.ensure_static_perf_built()
        cells = []
        for key in all_cells():
            cell = static.cells[key]
            best = cell.best_route(static.params)
            cells.append({
                "vendor": cell.vendor.value,
                "model": cell.model.value,
                "language": cell.language.value,
                "device": cell.device,
                "peak_gbs": cell.peak_gbs,
                "supported": cell.supported,
                "efficiency": cell.efficiency(static.params),
                "best_route": best.route_id if best else None,
                "routes": [
                    self._static_route_payload(r, cell.peak_gbs,
                                               static.params)
                    for r in cell.routes
                ],
            })
        return {"params": static.params.as_dict(), "n_cells": len(cells),
                "cells": cells}

    def lint_perf_report(self) -> dict:
        """Cost-model notes + the static-vs-measured cross-check.

        Builds both matrices (dynamic measured, static predicted),
        diffs them, and publishes the agreement rollup as gauges in the
        metrics registry — ``/metrics`` then answers "how well is the
        cost model tracking the interpreter" without re-running the
        cross-check.
        """
        from repro.analysis.perfstat import (
            cross_check_perf,
            library_cost_report,
            perf_agreement_summary,
        )

        dynamic = self.perf
        static = self.ensure_static_perf_built()

        def build():
            report = library_cost_report()
            report.extend(cross_check_perf(static, dynamic).diagnostics)
            return report, perf_agreement_summary(report)

        return self._lint("perfstat", build)

    def lint_traces_report(self) -> dict:
        """tracesan's static trace-validation sweep over the library.

        Purely static — trace-compiles every library kernel at its
        canonical geometry and re-proves the generated program
        equivalent to the IR without executing either.  The agreement
        rollup lands in the metrics registry as ``tracesan_*`` gauges,
        so ``/metrics`` answers "is the trace tier still faithful"
        without re-running the sweep.
        """
        from repro.analysis.tracesan import (
            trace_agreement_summary,
            traces_lint_report,
            validate_library,
        )

        def build():
            results = validate_library()
            return (traces_lint_report(results),
                    trace_agreement_summary(results))

        return self._lint("tracesan", build)


    # -- kernel submission (the bring-your-own-kernel endpoint) ------------

    def count_rejection(self, code: str) -> None:
        """Roll a rejected/corrupt submission into the jit counters."""
        self.metrics.counter("jit_rejections_total").inc()
        self.metrics.counter(f"jit_rejections_total_{code}").inc()

    def submit_kernel(self, body: dict) -> dict:
        """``POST /kernel/submit``: compile, lint, rate a user kernel.

        The body is ``{"source": <python text>, "name"?: str,
        "signature"?: str}``.  The source is vetted and compiled by
        :func:`repro.jit.from_source` (size caps, static validation,
        inert exec); success returns the kernel's personal
        compatibility row.  Rows are cached by content fingerprint, so
        resubmitting the same kernel — e.g. once per transport — serves
        the identical payload object without re-running the routes.
        """
        from repro.errors import JitTypeError, ReproError
        from repro.jit import MAX_SOURCE_BYTES, build_row, from_source

        self.metrics.counter("jit_submissions_total").inc()
        if not isinstance(body, dict) or not isinstance(
                body.get("source"), str):
            self.count_rejection(BadRequestError.code)
            raise BadRequestError(
                "kernel submission requires a JSON body with a string "
                "'source' field")
        source = body["source"]
        name = body.get("name")
        signature = body.get("signature")
        for key, value in (("name", name), ("signature", signature)):
            if value is not None and not isinstance(value, str):
                self.count_rejection(BadRequestError.code)
                raise BadRequestError(f"'{key}' must be a string")
        if len(source.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
            self.count_rejection(PayloadTooLargeError.code)
            raise PayloadTooLargeError(
                f"kernel source exceeds the {MAX_SOURCE_BYTES}-byte limit")
        try:
            jk = from_source(source, name=name, signature=signature)
            fp = jk.fingerprint()
            with self._kernel_lock:
                cached = self._kernel_rows.get(fp)
            if cached is not None:
                return cached
            payload = build_row(jk).to_dict()
        except JitTypeError as exc:
            self.count_rejection(KernelRejectedError.code)
            raise KernelRejectedError(str(exc)) from exc
        except ReproError as exc:
            # compiles rejected further down the pipeline (toolchain,
            # verifier, simulated device) are still the user's kernel
            self.count_rejection(KernelRejectedError.code)
            raise KernelRejectedError(
                f"{type(exc).__name__}: {exc}") from exc
        with self._kernel_lock:
            self._kernel_rows.setdefault(fp, payload)
            return self._kernel_rows[fp]


# -- shared request routing ---------------------------------------------------


def dispatch(service: MatrixService, parts: list[str],
             q: Callable[[str, str | None], str | None],
             body: dict | None = None) -> dict:
    """Route one request to the service and stamp the schema version.

    The *single* routing table: the HTTP handler and the in-process
    client both call this, so the two transports cannot drift.  ``body``
    is the decoded JSON request body for the POST endpoints (``None``
    for body-less requests).
    """
    if parts == ["kernel", "submit"]:
        payload = service.submit_kernel(body if body is not None else {})
    elif parts == ["healthz"]:
        payload = service.health()
    elif len(parts) == 4 and parts[0] == "cell":
        payload = service.cell(*parts[1:])
    elif parts == ["table"]:
        payload = service.table(q("format", "text"))
    elif parts == ["advise"]:
        payload = service.advise(
            vendor=q("vendor", None), model=q("model", None),
            language=q("language", "c++"))
    elif parts == ["lint", "routes"]:
        payload = service.lint_report()
    elif parts == ["lint", "perf"]:
        payload = service.lint_perf_report()
    elif parts == ["lint", "traces"]:
        payload = service.lint_traces_report()
    elif parts == ["metrics"]:
        payload = service.snapshot_metrics()
    elif parts == ["perf", "matrix"]:
        payload = service.perf_matrix()
    elif len(parts) == 5 and parts[:2] == ["perf", "cell"]:
        payload = service.perf_cell(*parts[2:])
    elif parts == ["perf", "portability"]:
        payload = service.perf_portability()
    elif parts == ["perf", "static"]:
        payload = service.perf_static()
    elif parts == ["admin", "stores"]:
        payload = service.admin_stores()
    elif parts == ["admin", "stores", "clear"]:
        if body is None:
            raise BadRequestError(
                "/admin/stores/clear is POST-only (send an empty JSON "
                "body)")
        payload = service.clear_stores()
    else:
        raise NotFoundError(f"no such endpoint: /{'/'.join(parts)}")
    return versioned(payload)


# -- the one client surface ---------------------------------------------------


class _BaseClient:
    """Every endpoint method, defined once in terms of ``_request``.

    Subclasses provide only the transport: ``_request`` takes the path
    segments and query parameters and returns the versioned payload.
    """

    def _request(self, parts: list[str],
                 params: dict[str, str] | None = None,
                 body: dict | None = None) -> dict:
        raise NotImplementedError

    def health(self) -> HealthResponse:
        return HealthResponse(self._request(["healthz"]))

    def cell(self, vendor: str, model: str, language: str) -> CellResponse:
        return CellResponse(self._request(["cell", vendor, model, language]))

    def table(self, fmt: str = "text") -> TableResponse:
        return TableResponse(self._request(["table"], {"format": fmt}))

    def advise(self, vendor: str | None = None, model: str | None = None,
               language: str = "c++") -> AdviseResponse:
        params = {"language": language}
        if vendor is not None:
            params["vendor"] = vendor
        if model is not None:
            params["model"] = model
        return AdviseResponse(self._request(["advise"], params))

    def lint_report(self) -> LintReportResponse:
        return LintReportResponse(self._request(["lint", "routes"]))

    def metrics(self) -> MetricsResponse:
        return MetricsResponse(self._request(["metrics"]))

    def perf_matrix(self) -> PerfMatrixResponse:
        return PerfMatrixResponse(self._request(["perf", "matrix"]))

    def perf_cell(self, vendor: str, model: str,
                  language: str) -> PerfCellResponse:
        return PerfCellResponse(
            self._request(["perf", "cell", vendor, model, language]))

    def perf_portability(self) -> PortabilityResponse:
        return PortabilityResponse(self._request(["perf", "portability"]))

    def perf_static(self) -> StaticPerfResponse:
        return StaticPerfResponse(self._request(["perf", "static"]))

    def lint_perf(self) -> PerfLintResponse:
        return PerfLintResponse(self._request(["lint", "perf"]))

    def lint_traces(self) -> TraceLintResponse:
        return TraceLintResponse(self._request(["lint", "traces"]))

    def admin_stores(self) -> AdminStoresResponse:
        return AdminStoresResponse(self._request(["admin", "stores"]))

    def clear_stores(self) -> StoresClearResponse:
        return StoresClearResponse(
            self._request(["admin", "stores", "clear"], body={}))

    def submit_kernel(self, source: str, name: str | None = None,
                      signature: str | None = None) -> KernelSubmitResponse:
        body: dict = {"source": source}
        if name is not None:
            body["name"] = name
        if signature is not None:
            body["signature"] = signature
        return KernelSubmitResponse(
            self._request(["kernel", "submit"], body=body))


class InProcessClient(_BaseClient):
    """The client surface over a :class:`MatrixService`, no sockets."""

    def __init__(self, service: MatrixService):
        self.service = service

    def _request(self, parts: list[str],
                 params: dict[str, str] | None = None,
                 body: dict | None = None) -> dict:
        params = params or {}

        def q(name: str, default: str | None = None) -> str | None:
            return params.get(name, default)

        return dispatch(self.service, list(parts), q, body=body)


class HttpClient(_BaseClient):
    """The client surface over the loopback JSON API.

    Raises the same typed :class:`ServiceError` subclasses the service
    raises in-process (reconstructed from the error envelope) and
    rejects replies from a different ``schema_version``.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def _request(self, parts: list[str],
                 params: dict[str, str] | None = None,
                 body: dict | None = None) -> dict:
        import http.client

        path = "/" + "/".join(urllib.parse.quote(p, safe="") for p in parts)
        if params:
            path += "?" + urllib.parse.urlencode(params)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            if body is not None:
                conn.request(
                    "POST", path, body=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"})
            else:
                conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read().decode()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                raise RemoteServerError(
                    f"undecodable reply (HTTP {response.status}): "
                    f"{raw[:200]!r}", status=response.status) from None
            if response.status >= 400:
                raise error_from_payload(response.status, payload)
            return check_schema_version(payload)
        finally:
            conn.close()


# -- the HTTP server ----------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes GETs to the bound :class:`MatrixService` via dispatch()."""

    service: MatrixService  # set by make_server on the subclass

    # Silence the default stderr access log (the service has /metrics).
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, indent=1).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, body: dict | None) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        parts = [urllib.parse.unquote(p)
                 for p in parsed.path.strip("/").split("/") if p]
        query = urllib.parse.parse_qs(parsed.query)

        def q(name: str, default: str | None = None) -> str | None:
            values = query.get(name)
            return values[0] if values else default

        try:
            self._send(200, dispatch(self.service, parts, q, body=body))
        except _ServiceError as exc:
            self._send(exc.status, error_envelope(exc))
        except Exception as exc:  # pragma: no cover - defensive
            err = RemoteServerError(f"{type(exc).__name__}: {exc}")
            self._send(err.status, error_envelope(err))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle(body=None)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            body = json.loads(raw.decode("utf-8", errors="replace")) \
                if raw else {}
        except json.JSONDecodeError:
            # a corrupt body never reaches the service, so count it here
            # (only for the submission endpoint — it owns the counters)
            if self.path.strip("/").startswith("kernel/"):
                self.service.metrics.counter("jit_submissions_total").inc()
                self.service.count_rejection(BadRequestError.code)
            err = BadRequestError("request body is not valid JSON")
            self._send(err.status, error_envelope(err))
            return
        self._handle(body=body)


def make_server(service: MatrixService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind a loopback JSON server for ``service`` (port 0 = ephemeral).

    The caller drives it: ``server.serve_forever()`` inline, or in a
    daemon thread for embedding; ``server.server_address`` holds the
    bound (host, port).
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)
