"""The service wire-format contract: versioning, errors, responses.

One place defines what travels between a :class:`MatrixService` and its
clients, whatever the transport:

* **Schema versioning** — every JSON payload (success *and* error)
  carries a top-level ``schema_version``; clients check it and raise
  :class:`SchemaVersionError` on mismatch rather than misparse.
* **Error envelope** — failures are ``{"schema_version": N, "error":
  {"code": ..., "message": ...}}``.  The ``code`` round-trips the typed
  exception: an :class:`HttpClient` re-raises the same
  :class:`ServiceError` subclass the service raised in-process.
* **Typed responses** — each endpoint returns a small dataclass wrapping
  the raw payload with named accessors.  The wrapper also supports
  ``resp["key"]`` / ``"key" in resp`` / ``resp.get(...)`` so payloads
  stay grep-able, and ``.data`` strips the version field for
  transport-parity comparisons.
* **The client protocol** — :class:`MatrixClient` is the one interface
  both ``InProcessClient`` and ``HttpClient`` implement (they share the
  method bodies too, via ``server._BaseClient``; only ``_request``
  differs).

Versioning policy (also in DESIGN.md): additive payload changes (new
keys) do not bump ``SCHEMA_VERSION``; renames, removals, and semantic
changes do.  Clients reject any version other than their own — the
service and its clients ship from one tree, so a skew is a deployment
error worth failing loudly on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

#: Version 1 was the unversioned PR-4 wire format (no ``schema_version``
#: field, string errors).  Version 2 added the version field, the error
#: envelope, and the ``/perf/*`` endpoints.  Version 3 added the first
#: POST endpoint (``/kernel/submit``) and its two error codes
#: (``kernel_rejected``, ``payload_too_large``) — a semantic change
#: (clients must be able to send bodies), hence a bump.  Version 4 is
#: the operational-API redesign: ``/healthz`` and ``/metrics`` carry a
#: typed ``execution`` block (:class:`ExecutionInfo`), the ``/admin/*``
#: endpoints exist, and a new error code (``read_only``) can come back
#: from mutating endpoints — a semantic change, hence a bump.
SCHEMA_VERSION = 4

#: One previous generation is *readable* with a deprecation warning (a
#: v4 client pointed at a still-running v3 server keeps working while
#: the fleet rolls); anything older or newer is rejected.
COMPATIBLE_SCHEMA_VERSIONS = (SCHEMA_VERSION - 1, SCHEMA_VERSION)


@dataclass(frozen=True)
class ExecutionInfo:
    """The typed execution block carried by ``/healthz`` and ``/metrics``.

    Describes how the serving process evaluates matrices: which
    scheduler backend, how many workers, and the fleet's operational
    counters (store reuse, probe work, crash/restart totals).
    """

    backend: str          # "thread" | "process"
    workers: int          # configured job count
    store_hits: int       # compat + perf store hits, this process
    probes_run: int       # probe executions, this process
    worker_crashes: int   # dead worker processes (real or injected)
    worker_restarts: int  # process-pool rebuilds (crash or timeout)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "store_hits": self.store_hits,
            "probes_run": self.probes_run,
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionInfo":
        return cls(**{k: payload[k] for k in (
            "backend", "workers", "store_hits", "probes_run",
            "worker_crashes", "worker_restarts")})


# -- typed errors -------------------------------------------------------------


class ServiceError(Exception):
    """Base class of every service-API failure.

    ``status`` is the HTTP status the error maps to; ``code`` is the
    stable machine-readable identifier carried in the error envelope.
    """

    code = "error"

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class BadRequestError(ServiceError):
    """Malformed query (unknown format, bad parameter combination)."""

    code = "bad_request"

    def __init__(self, message: str, status: int = 400):
        super().__init__(message, status)


class NotFoundError(ServiceError):
    """Unknown endpoint, vendor, model, language, or cell."""

    code = "not_found"

    def __init__(self, message: str, status: int = 404):
        super().__init__(message, status)


class RemoteServerError(ServiceError):
    """The server failed internally (HTTP 5xx or undecodable reply)."""

    code = "server_error"

    def __init__(self, message: str, status: int = 500):
        super().__init__(message, status)


class SchemaVersionError(ServiceError):
    """The reply's ``schema_version`` does not match this client."""

    code = "schema_version"

    def __init__(self, message: str, status: int = 200):
        super().__init__(message, status)


class KernelRejectedError(ServiceError):
    """A submitted kernel failed jit compilation or validation.

    The message is the :class:`~repro.errors.JitTypeError` text, which
    carries the source location of the offending construct.
    """

    code = "kernel_rejected"

    def __init__(self, message: str, status: int = 422):
        super().__init__(message, status)


class PayloadTooLargeError(ServiceError):
    """A submitted kernel exceeds the server-side source size limit."""

    code = "payload_too_large"

    def __init__(self, message: str, status: int = 413):
        super().__init__(message, status)


class ReadOnlyError(ServiceError):
    """A mutating endpoint was called on a read-only server.

    Raised by the ``/admin/*`` mutators when the server was started
    with ``serve --read-only``; maps to HTTP 403.
    """

    code = "read_only"

    def __init__(self, message: str, status: int = 403):
        super().__init__(message, status)


_ERROR_TYPES: dict[str, type[ServiceError]] = {
    cls.code: cls
    for cls in (BadRequestError, NotFoundError, RemoteServerError,
                SchemaVersionError, KernelRejectedError,
                PayloadTooLargeError, ReadOnlyError)
}


def versioned(payload: dict) -> dict:
    """Stamp a success payload with the current schema version."""
    return {"schema_version": SCHEMA_VERSION, **payload}


def error_envelope(exc: ServiceError) -> dict:
    """The one error wire shape (versioned like every payload)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": exc.code, "message": str(exc)},
    }


def error_from_payload(status: int, payload: object) -> ServiceError:
    """Reconstruct the typed error a failed HTTP reply carries."""
    if isinstance(payload, dict):
        err = payload.get("error")
        if isinstance(err, dict):
            cls = _ERROR_TYPES.get(err.get("code"), RemoteServerError)
            exc = cls(err.get("message", f"HTTP {status}"))
            exc.status = status
            return exc
    return RemoteServerError(f"HTTP {status}", status=status)


def check_schema_version(payload: dict) -> dict:
    """Reject payloads from an incompatible schema generation.

    The current version passes silently; the immediately previous one
    passes with a :class:`DeprecationWarning` (v4 is additive over v3's
    key set, so a v3 payload still parses — warn rather than hard-fail
    while a mixed-version fleet rolls); anything else raises.
    """
    got = payload.get("schema_version")
    if got == SCHEMA_VERSION:
        return payload
    if got in COMPATIBLE_SCHEMA_VERSIONS:
        warnings.warn(
            f"server speaks deprecated schema_version={got}; this client "
            f"prefers {SCHEMA_VERSION} — upgrade the server",
            DeprecationWarning, stacklevel=2)
        return payload
    raise SchemaVersionError(
        f"server speaks schema_version={got!r}, this client requires "
        f"one of {COMPATIBLE_SCHEMA_VERSIONS}")


# -- typed responses ----------------------------------------------------------


@dataclass
class ApiResponse:
    """A versioned payload with dict-style *and* named access."""

    payload: dict

    @property
    def schema_version(self) -> int:
        return self.payload["schema_version"]

    @property
    def data(self) -> dict:
        """The payload minus the version stamp (for parity checks)."""
        return {k: v for k, v in self.payload.items()
                if k != "schema_version"}

    def __getitem__(self, key: str):
        return self.payload[key]

    def get(self, key: str, default=None):
        return self.payload.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self.payload

    def __iter__(self) -> Iterator[str]:
        return iter(self.payload)


class HealthResponse(ApiResponse):
    @property
    def status(self) -> str:
        return self.payload["status"]

    @property
    def built(self) -> bool:
        return self.payload["built"]

    @property
    def cells(self) -> int:
        return self.payload["cells"]

    @property
    def execution(self) -> ExecutionInfo:
        """The typed v4 execution block (backend, workers, fleet stats)."""
        return ExecutionInfo.from_dict(self.payload["execution"])


class CellResponse(ApiResponse):
    @property
    def primary(self) -> str:
        return self.payload["primary"]

    @property
    def secondary(self) -> str | None:
        return self.payload["secondary"]

    @property
    def routes(self) -> list[dict]:
        return self.payload["routes"]


class TableResponse(ApiResponse):
    @property
    def format(self) -> str:
        return self.payload["format"]

    @property
    def table(self) -> str:
        return self.payload["table"]


class AdviseResponse(ApiResponse):
    @property
    def scope(self) -> str:
        return self.payload["scope"]

    @property
    def recommendations(self) -> list[str]:
        return self.payload["recommendations"]


class LintReportResponse(ApiResponse):
    """``/lint?family=F``: one lint family's report."""

    @property
    def diagnostics(self) -> list[dict]:
        return self.payload["diagnostics"]

    @property
    def counts(self) -> dict:
        return self.payload["counts"]

    @property
    def agreement(self) -> dict | None:
        """The ``perf`` or ``traces`` agreement rollup (``None`` for
        ``routes``)."""
        return self.payload.get("agreement")


class MetricsResponse(ApiResponse):
    @property
    def counters(self) -> dict:
        return self.payload["counters"]

    @property
    def gauges(self) -> dict:
        return self.payload["gauges"]

    @property
    def histograms(self) -> dict:
        return self.payload["histograms"]

    @property
    def execution(self) -> ExecutionInfo:
        """The typed v4 execution block (backend, workers, fleet stats)."""
        return ExecutionInfo.from_dict(self.payload["execution"])


class AdminStoresResponse(ApiResponse):
    """``GET /admin/stores``: entry counts, corruption, fingerprints."""

    @property
    def matrix(self) -> dict:
        return self.payload["matrix"]

    @property
    def perf(self) -> dict:
        return self.payload["perf"]


class StoresClearResponse(ApiResponse):
    """``POST /admin/stores/clear``: what was deleted."""

    @property
    def cleared(self) -> bool:
        return self.payload["cleared"]

    @property
    def removed(self) -> dict:
        return self.payload["removed"]


class PerfMatrixResponse(ApiResponse):
    @property
    def params(self) -> dict:
        return self.payload["params"]

    @property
    def cells(self) -> list[dict]:
        return self.payload["cells"]

    @property
    def n_cells(self) -> int:
        return self.payload["n_cells"]


class PerfCellResponse(ApiResponse):
    @property
    def supported(self) -> bool:
        return self.payload["supported"]

    @property
    def efficiency(self) -> float:
        return self.payload["efficiency"]

    @property
    def best_route(self) -> str | None:
        return self.payload["best_route"]

    @property
    def routes(self) -> list[dict]:
        return self.payload["routes"]


class PortabilityResponse(ApiResponse):
    @property
    def params(self) -> dict:
        return self.payload["params"]

    @property
    def rows(self) -> list[dict]:
        return self.payload["rows"]


class StaticPerfResponse(ApiResponse):
    """The statically *predicted* perf matrix (``/perf/static``)."""

    @property
    def params(self) -> dict:
        return self.payload["params"]

    @property
    def cells(self) -> list[dict]:
        return self.payload["cells"]

    @property
    def n_cells(self) -> int:
        return self.payload["n_cells"]


class KernelSubmitResponse(ApiResponse):
    """``POST /kernel/submit``: the submitted kernel's personal row."""

    @property
    def kernel(self) -> str:
        return self.payload["kernel"]

    @property
    def signature(self) -> str:
        return self.payload["signature"]

    @property
    def fingerprint(self) -> str:
        return self.payload["fingerprint"]

    @property
    def lint(self) -> dict:
        return self.payload["lint"]

    @property
    def vendors(self) -> list[dict]:
        return self.payload["vendors"]


# -- the client protocol ------------------------------------------------------


@runtime_checkable
class MatrixClient(Protocol):
    """The one client interface, implemented by both transports."""

    def health(self) -> HealthResponse: ...

    def cell(self, vendor: str, model: str,
             language: str) -> CellResponse: ...

    def table(self, fmt: str = "text") -> TableResponse: ...

    def advise(self, vendor: str | None = None, model: str | None = None,
               language: str = "c++") -> AdviseResponse: ...

    def lint(self, family: str) -> LintReportResponse: ...

    def metrics(self) -> MetricsResponse: ...

    def perf_matrix(self) -> PerfMatrixResponse: ...

    def perf_cell(self, vendor: str, model: str,
                  language: str) -> PerfCellResponse: ...

    def perf_portability(self) -> PortabilityResponse: ...

    def perf_static(self) -> StaticPerfResponse: ...

    # Deprecated aliases of ``lint(family)``, kept for one release.
    def lint_report(self) -> LintReportResponse: ...

    def lint_perf(self) -> LintReportResponse: ...

    def lint_traces(self) -> LintReportResponse: ...

    def submit_kernel(self, source: str, name: str | None = None,
                      signature: str | None = None,
                      ) -> KernelSubmitResponse: ...

    def admin_stores(self) -> AdminStoresResponse: ...

    def clear_stores(self) -> StoresClearResponse: ...
