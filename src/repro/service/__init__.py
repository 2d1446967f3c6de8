"""Matrix evaluation service.

Turns the one-shot 51-cell matrix build into a system: a concurrent
scheduler running one task per cell on a thread or process pool
(:mod:`.scheduler`), a persistent content-addressed result store
(:mod:`.store`), a queryable serving layer with in-process and
loopback-HTTP clients behind one versioned wire contract
(:mod:`.server`, :mod:`.api`), and a metrics registry tying the
pipeline's counters together (:mod:`.metrics`).

The one invariant everything here is built around: **the scheduled
build is bit-identical to the sequential build at every worker
count** — concurrency and persistence change how fast answers arrive,
never the answers.
"""

from repro.service.api import (
    COMPATIBLE_SCHEMA_VERSIONS,
    SCHEMA_VERSION,
    AdminStoresResponse,
    AdviseResponse,
    ApiResponse,
    BadRequestError,
    CellResponse,
    ExecutionInfo,
    HealthResponse,
    KernelRejectedError,
    KernelSubmitResponse,
    LintReportResponse,
    MatrixClient,
    MetricsResponse,
    NotFoundError,
    PayloadTooLargeError,
    PerfCellResponse,
    PerfMatrixResponse,
    PortabilityResponse,
    ReadOnlyError,
    RemoteServerError,
    SchemaVersionError,
    ServiceError,
    StoresClearResponse,
    TableResponse,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.scheduler import (
    EXECUTION_MODES,
    EXECUTION_PROCESS,
    EXECUTION_THREAD,
    BuildCancelled,
    BuildReport,
    JobEngine,
    JobInfo,
    JobTimeout,
    MatrixScheduler,
    SchedulerError,
    WorkerCrash,
    build_matrix_concurrent,
    resolve_execution,
    resolve_jobs,
)
from repro.service.server import (
    HttpClient,
    InProcessClient,
    MatrixService,
    dispatch,
    make_server,
)
from repro.service.store import (
    ResultStore,
    StoreIntegrityError,
    StoreStats,
    cell_from_dict,
    cell_to_dict,
    environment_fingerprint,
)

__all__ = [
    "COMPATIBLE_SCHEMA_VERSIONS",
    "EXECUTION_MODES",
    "EXECUTION_PROCESS",
    "EXECUTION_THREAD",
    "SCHEMA_VERSION",
    "AdminStoresResponse",
    "AdviseResponse",
    "ApiResponse",
    "BadRequestError",
    "BuildCancelled",
    "BuildReport",
    "CellResponse",
    "Counter",
    "ExecutionInfo",
    "Gauge",
    "HealthResponse",
    "Histogram",
    "HttpClient",
    "InProcessClient",
    "JobEngine",
    "JobInfo",
    "JobTimeout",
    "KernelRejectedError",
    "KernelSubmitResponse",
    "LintReportResponse",
    "MatrixClient",
    "MatrixScheduler",
    "MatrixService",
    "MetricsRegistry",
    "MetricsResponse",
    "NotFoundError",
    "PayloadTooLargeError",
    "PerfCellResponse",
    "PerfMatrixResponse",
    "PortabilityResponse",
    "ReadOnlyError",
    "RemoteServerError",
    "ResultStore",
    "SchedulerError",
    "SchemaVersionError",
    "ServiceError",
    "StoreIntegrityError",
    "StoresClearResponse",
    "StoreStats",
    "TableResponse",
    "WorkerCrash",
    "build_matrix_concurrent",
    "cell_from_dict",
    "cell_to_dict",
    "dispatch",
    "environment_fingerprint",
    "make_server",
    "resolve_execution",
    "resolve_jobs",
]
