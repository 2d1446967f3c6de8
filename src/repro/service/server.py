"""Queryable serving layer for the evaluated matrices.

Two transports, **one** client surface: every endpoint method is
defined once on ``_BaseClient`` in terms of an abstract ``_request``;
:class:`InProcessClient` routes requests through the same
:func:`dispatch` function the HTTP handler uses (payload parity between
transports holds *by construction*), and :class:`HttpClient` sends them
over a loopback JSON API served by :func:`make_server`.  Both implement
the :class:`repro.service.api.MatrixClient` protocol and return the
typed responses from :mod:`repro.service.api`.

Endpoints (GET unless marked POST; all JSON, all stamped with
``schema_version``; errors use the ``{"error": {"code", "message"}}``
envelope).  :data:`ENDPOINTS` lists the same paths for ``serve``:

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
``/lint?family=F``                    one lint family's report: ``routes``
                                      (static route evidence vs. the
                                      paper), ``perf`` (static-vs-measured
                                      perf cross-check + cost-model notes)
                                      or ``traces`` (tracesan sweep, zero
                                      kernel executions); ``perf`` and
                                      ``traces`` add an agreement rollup
``/lint/routes``, ``/lint/perf``,     ``/lint?family=routes|perf|traces``
``/lint/traces``                      under their old paths, for one release
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
``/admin/stores``                     operational store view: entry
                                      counts, hit/miss/corrupt counters,
                                      environment fingerprints
``/admin/stores/clear`` (POST)        delete every persisted cell (403
                                      ``read_only`` when the server was
                                      started with ``serve --read-only``)
``/kernel/submit`` (POST)             compile, lint and rate a user kernel
                                      (413 ``payload_too_large`` above
                                      the source or body size cap)
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
import urllib.parse
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro import memo
from repro.enums import (
    SupportCategory,
    all_cells,
    parse_language,
    parse_model,
    parse_vendor,
    require_cell,
)
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
    PerfMatrixResponse,
    PortabilityResponse,
    ReadOnlyError,
    RemoteServerError,
    StaticPerfResponse,
    StoresClearResponse,
    TableResponse,
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


def _parse(parse, *args):
    """A Figure-1 axis parsed, or a combination checked, by
    :mod:`repro.enums`; unknown names and combinations 404."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise NotFoundError(str(exc)) from None


def _cell(vendor: str, model: str, language: str) -> tuple:
    """The Figure-1 cell the three names give (404 if there is none)."""
    cell = (_parse(parse_vendor, vendor), _parse(parse_model, model),
            _parse(parse_language, language))
    _parse(require_cell, *cell)
    return cell


#: Deprecated names that have already warned in this process.
_WARNED: set[str] = set()


def _lint_alias(family: str, name: str):
    """A one-release alias of ``lint(family)`` that warns once per process."""
    def alias(self):
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(f"{name}() is deprecated; use lint({family!r})",
                          DeprecationWarning, stacklevel=2)
        return self.lint(family)

    alias.__name__ = name.rpartition(".")[2]
    alias.__doc__ = f"Deprecated: ``lint({family!r})``, for one release."
    return alias


class MatrixService:
    """The in-process core: owns the matrices, stores, and metrics.

    Thread-safe: the lazy builds and lint replies are single-flighted
    per key in one memo, and every query method reads the immutable
    built structures.
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
        #: The compat, perf and static builds and the three lint
        #: replies, each built once: a fixed key set, never evicted.
        self._builds = memo.Memo("builds", None)
        #: Submitted kernels' rows (~5 KB each) by content fingerprint,
        #: bounded at 2.5x the ~400 kernels a perfbench `embed` run sends.
        self._kernel_rows = memo.Memo("kernel_rows", 1024)

    # -- lifecycle ---------------------------------------------------------

    def ensure_built(self) -> BuildReport:
        """Build (or load) the compat matrix once; later calls are free."""
        return self._builds.get("compat", lambda: build_matrix_concurrent(
            self.jobs, execution=self.execution, store=self.store,
            metrics=self.metrics))

    def ensure_perf_built(self):
        """Build (or load) the perf matrix once; later calls are free."""
        from repro.perfport.scheduler import PerfScheduler

        return self._builds.get("perf", lambda: PerfScheduler(
            self.jobs, compat=self.ensure_built().matrix,
            execution=self.execution, params=self.perf_params,
            store=self.perf_store, metrics=self.metrics,
        ).build())

    def ensure_static_perf_built(self):
        """Predict the perf matrix statically once; later calls are free.

        Unlike the dynamic builds this needs neither the compatibility
        matrix nor a store: perfstat works from the route registry and
        the cost interpreter alone, so a cold service can serve
        ``/perf/static`` without executing a single kernel.
        """
        from repro.analysis.perfstat import build_static_perf_matrix

        return self._builds.get(
            "static", lambda: build_static_perf_matrix(self.perf_params))

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
        report = self._builds.peek("compat")
        return {
            "status": "ok",
            "built": report is not None,
            "cells": report.matrix.n_cells if report else 0,
            "read_only": self.read_only,
            "execution": self.execution_info().as_dict(),
        }

    def cell(self, vendor: str, model: str, language: str) -> dict:
        return cell_to_dict(self.matrix.cell(*_cell(vendor, model, language)))

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

        lang = _parse(parse_language, language)
        if model is not None:
            m = _parse(parse_model, model)
            _parse(require_cell, m, lang)
        elif vendor is not None:
            v = _parse(parse_vendor, vendor)
        # Names first: a lazy service builds no matrix to answer a 404.
        advisor = Advisor(self.matrix, minimum=SupportCategory.LIMITED)
        if model is not None:
            recs = advisor.platforms_for_model(m, lang)
            scope = f"platforms for {m.value} / {lang.value}"
        elif vendor is not None:
            recs = advisor.models_for_platform(v, lang)
            scope = f"models usable on {v.value} from {lang.value}"
        else:
            models = advisor.portable_models(lang, SupportCategory.LIMITED)
            return {
                "scope": f"portable models from {lang.value}",
                "recommendations": [m.value for m in models],
            }
        return {"scope": scope, "recommendations": [str(r) for r in recs]}

    def lint(self, family: str | None) -> dict:
        """``/lint?family=routes|perf|traces``: one lint family's report,
        built once per service.

        ``perf`` cross-checks the static perf prediction against the
        measured matrix; ``traces`` re-proves every trace-compiled
        library kernel without executing it.  Their agreement rollups
        also land in the metrics registry as ``perfstat_*`` and
        ``tracesan_*`` gauges, so ``/metrics`` answers "is the cost model
        (or the trace tier) still faithful" without re-running the lint.
        """
        from repro.analysis.families import FAMILIES, SERVED

        if family not in SERVED:
            raise BadRequestError(f"/lint needs family={'|'.join(SERVED)} "
                                  f"(got {family!r})")
        spec = FAMILIES[SERVED[family]]

        def reply():
            inputs = ((self.perf, self.ensure_static_perf_built())
                      if spec.name == "perfstat" else ())
            report, agreement = spec.build(*inputs)
            payload = json.loads(report.to_json())
            if agreement is not None:
                for name, value in agreement.items():
                    self.metrics.gauge(f"{spec.name}_{name}").set(value)
                payload["agreement"] = agreement
            return payload

        return self._builds.get(("lint", spec.name), reply)

    lint_report = _lint_alias("routes", "MatrixService.lint_report")
    lint_perf_report = _lint_alias("perf", "MatrixService.lint_perf_report")
    lint_traces_report = _lint_alias("traces",
                                     "MatrixService.lint_traces_report")

    def snapshot_metrics(self) -> dict:
        from repro.workloads.babelstream import stream_totals

        report = self._builds.peek("compat")
        perf_built = self._builds.peek("perf") is not None
        snap = self.metrics.snapshot()
        if self.store is not None:
            snap["store"] = self.store.stats.as_dict()
            if perf_built:
                snap["perf_store"] = self.perf_store.stats.as_dict()
        snap["stream"] = stream_totals()
        snap["execution"] = self.execution_info().as_dict()
        snap["service"] = {
            "jobs": self.jobs,
            "execution": self.execution,
            "read_only": self.read_only,
            "built": report is not None,
            "perf_built": perf_built,
            "static_perf_built": self._builds.peek("static") is not None,
            "cells_from_store": report.cells_from_store if report else 0,
            "cells_evaluated": report.cells_evaluated if report else 0,
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
            if store is not None:
                removed[name] = store.clear()
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
        key = _cell(vendor, model, language)
        perf = self.perf
        cell = perf.cells[key]
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
        return {"params": perf.params.as_dict(),
                "rows": [row.to_dict() for row in portability_report(perf)]}

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
        compatibility row.  The newest 1,024 rows are kept by content
        fingerprint, so resubmitting a kept kernel — e.g. once per
        transport — serves its payload without re-running the routes; an
        evicted kernel's row is rebuilt equal to its first reply.
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
            return self._kernel_rows.get(
                jk.fingerprint(), lambda: build_row(jk).to_dict())
        except JitTypeError as exc:
            self.count_rejection(KernelRejectedError.code)
            raise KernelRejectedError(str(exc)) from exc
        except ReproError as exc:
            # compiles rejected further down the pipeline (toolchain,
            # verifier, simulated device) are still the user's kernel
            self.count_rejection(KernelRejectedError.code)
            raise KernelRejectedError(
                f"{type(exc).__name__}: {exc}") from exc


# -- shared request routing ---------------------------------------------------

#: Every path :func:`dispatch` serves, as the ``serve`` banner lists them
#: (``V/M/L``: a vendor, model and language; ``F``: a lint family).
ENDPOINTS = (
    "/healthz", "/cell/V/M/L", "/table", "/advise", "/lint?family=F",
    "/lint/routes", "/lint/perf", "/lint/traces", "/metrics", "/perf/matrix",
    "/perf/cell/V/M/L", "/perf/portability", "/perf/static", "/admin/stores",
    "/admin/stores/clear", "/kernel/submit",
)


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
    elif parts == ["lint"]:
        payload = service.lint(q("family", None))
    elif parts in (["lint", "routes"], ["lint", "perf"], ["lint", "traces"]):
        payload = service.lint(parts[1])  # one-release aliases of /lint
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

    def lint(self, family: str) -> LintReportResponse:
        return LintReportResponse(self._request(["lint"], {"family": family}))

    lint_report = _lint_alias("routes", "MatrixClient.lint_report")
    lint_perf = _lint_alias("perf", "MatrixClient.lint_perf")
    lint_traces = _lint_alias("traces", "MatrixClient.lint_traces")

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
    #: Seconds a socket read may stall before the connection is dropped,
    #: so a body that never arrives does not hold a handler thread.
    timeout = 30.0

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

    def _reject(self, err: _ServiceError) -> None:
        """Refuse a body that never reaches the service, counting it
        when it was a kernel submission (that endpoint owns the
        counters)."""
        if self.path.strip("/").startswith("kernel/"):
            self.service.metrics.counter("jit_submissions_total").inc()
            self.service.count_rejection(err.code)
        self._send(err.status, error_envelope(err))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        from repro.jit import MAX_SOURCE_BYTES

        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        # JSON escapes a source byte into at most six, so this cap fits any
        # source at its own; a larger body is answered unread, and no
        # handler thread waits on bytes that may never come.
        limit = 8 * MAX_SOURCE_BYTES
        if length > limit:
            self.close_connection = True
            self._reject(PayloadTooLargeError(
                f"request body exceeds the {limit}-byte limit"))
            return
        raw = self.rfile.read(length) if length > 0 else b""
        if len(raw) < length:  # the client left mid-body: nobody to answer
            self.close_connection = True
            return
        try:
            body = json.loads(raw.decode("utf-8", errors="replace")) \
                if raw else {}
        except json.JSONDecodeError:
            self._reject(BadRequestError("request body is not valid JSON"))
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
