"""kernelsan — static analysis over the shared kernel IR.

Because every programming model in the compatibility matrix lowers
through one :class:`~repro.isa.module.ModuleIR`, a sanitizer at this
layer covers all of them at once: races, barrier divergence, memory
bounds, shared-memory hygiene and portability hazards are diagnosed the
same way regardless of which frontend produced the kernel — the same
argument the paper makes for hanging compatibility tooling off a common
mid-level IR.

Entry points:

* :func:`analyze_kernel` / :func:`analyze_module` — run the passes;
* :class:`AnalysisOptions` — launch bounds, buffer extents, pass subset;
* :mod:`repro.analysis.crosscheck` — differential execution harness
  that validates static verdicts against interpreter schedules;
* :mod:`repro.analysis.transval` — translation validation (``TV01``–
  ``TV06``) for the source-to-source routes;
* :mod:`repro.analysis.routes_evidence` — static route-evidence
  derivation of Figure 1 and the paper cross-check (``RE01``–``RE03``);
* :mod:`repro.analysis.tracesan` — static translation validation of
  trace-compiled programs (``TC01``–``TC06``), proving each generated
  program equivalent to its kernel IR without executing either;
* :mod:`repro.analysis.families` — the five lint families, each defined
  once (report builder, SARIF tool name, exit rule);
* ``Toolchain.compile(..., sanitize=True)``, the ``gpu-compat lint``
  CLI and the service's ``/lint?family=`` are the integrated front doors.
"""

from repro.analysis.dataflow import LaunchBounds, analyze_dataflow
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    LintReport,
    Severity,
)
from repro.analysis.sanitizer import (
    PASSES,
    AnalysisOptions,
    analyze_kernel,
    analyze_module,
)
from repro.analysis.transval import (
    kernel_signature,
    validate_all,
    validate_translation,
    validate_translator,
)

__all__ = [
    "AnalysisOptions",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "LaunchBounds",
    "LintReport",
    "PASSES",
    "Severity",
    "analyze_dataflow",
    "analyze_kernel",
    "analyze_module",
    "kernel_signature",
    "validate_all",
    "validate_translation",
    "validate_translator",
]
