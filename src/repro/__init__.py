"""repro — executable reproduction of Herten's GPU programming-model
vs. vendor compatibility overview (SC-W 2023).

The curated public facade.  ``__all__`` below is the supported surface;
everything else in the package is internal and may move without notice.
Heavyweight names load lazily (PEP 562), so ``import repro`` stays
cheap.

* Enums — :class:`Vendor`, :class:`Model`, :class:`Language`,
  :class:`SupportCategory`, … (the paper's Figure-1 axes and ratings).
* Compatibility matrix — :func:`build_matrix` (sequential reference),
  :func:`build_matrix_concurrent` (scheduled, store-backed),
  :func:`compare` (agreement vs. the published ratings).
* Workloads — :func:`run_babelstream` / :class:`StreamResult` (the five
  McIntosh-Smith stream kernels on a simulated device).
* Performance portability — :func:`run_perf_matrix`,
  :func:`build_perf_matrix`, :class:`PerfParams`,
  :func:`portability_report`, :func:`pennycook_metric`.
* Service — :class:`MatrixService`, :class:`InProcessClient`,
  :class:`HttpClient`, :class:`MatrixClient`, :func:`make_server`,
  :class:`ResultStore`, :class:`MetricsRegistry`,
  :class:`ServiceError`, :data:`SCHEMA_VERSION`.

Deprecation policy: a moved or renamed public name keeps working for
one release behind a shim that emits a single :class:`DeprecationWarning`;
then the shim is deleted.  ``repro.service.server.ServiceError`` went
that way: it moved to ``repro.service.api`` in the versioned-API
redesign, and the old path is gone (import it from ``repro.service``).
"""

import importlib

from repro._version import __version__
from repro.enums import (
    ISA,
    Language,
    Maturity,
    Mechanism,
    Model,
    Provider,
    SupportCategory,
    Vendor,
)

#: Lazily-resolved public names -> defining module.
_LAZY = {
    # core: the compatibility matrix and its evaluation
    "CompatibilityMatrix": "repro.core.matrix",
    "build_matrix": "repro.core.matrix",
    "compare": "repro.core.report",
    "all_routes": "repro.core.routes",
    "routes_for": "repro.core.routes",
    # workloads
    "StreamResult": "repro.workloads.babelstream",
    "run_babelstream": "repro.workloads.babelstream",
    # performance portability
    "PerfMatrix": "repro.perfport",
    "PerfParams": "repro.perfport",
    "build_perf_matrix": "repro.perfport",
    "pennycook_metric": "repro.perfport",
    "portability_report": "repro.perfport",
    "run_perf_matrix": "repro.perfport",
    # service
    "SCHEMA_VERSION": "repro.service",
    "HttpClient": "repro.service",
    "InProcessClient": "repro.service",
    "MatrixClient": "repro.service",
    "MatrixService": "repro.service",
    "MetricsRegistry": "repro.service",
    "ResultStore": "repro.service",
    "ServiceError": "repro.service",
    "build_matrix_concurrent": "repro.service",
    "make_server": "repro.service",
}

__all__ = sorted((
    "ISA",
    "Language",
    "Maturity",
    "Mechanism",
    "Model",
    "Provider",
    "SupportCategory",
    "Vendor",
    "__version__",
    *_LAZY,
))


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(target), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
