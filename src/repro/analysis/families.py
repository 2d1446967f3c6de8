"""The five lint families, each defined once: ``gpu-compat lint`` (every
flag), ``gpu-compat transval`` and the service's ``/lint?family=`` build
a family's report, name its SARIF tool and judge its exit status here."""

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class LintFamily:
    """``build(*inputs)`` returns ``(LintReport, agreement rollup or None)``."""

    name: str  # the `lint --all` label, service memo key and gauge prefix
    tool: str  # the SARIF driver name
    error_exit: int  # status of an error finding; 2 also exits 1 on warnings
    build: Callable

    def exit_status(self, report) -> int:
        if report.errors:
            return self.error_exit
        return 1 if self.error_exit == 2 and report.warnings else 0


def _kernelsan(module, options):
    from repro.analysis.sanitizer import analyze_module
    return analyze_module(module, options), None


def _routes():
    from repro.analysis.routes_evidence import cross_check
    return cross_check(), None


def _transval(translators):
    from repro.analysis.transval import validate_all
    return validate_all(translators), None


def _perfstat(measured, predicted):
    from repro.analysis.perfstat import lint_perf
    return lint_perf(measured, predicted)


def _tracesan():
    from repro.analysis.tracesan import lint_traces
    return lint_traces()


#: Every family, in the order `lint --all` runs them.
FAMILIES = {f.name: f for f in (
    LintFamily("kernelsan", "kernelsan", 1, _kernelsan),
    LintFamily("routes", "routes-evidence", 2, _routes),
    LintFamily("transval", "transval", 1, _transval),
    LintFamily("perfstat", "perfstat", 2, _perfstat),
    LintFamily("tracesan", "tracesan", 2, _tracesan),
)}

#: `/lint?family=` value (also its `gpu-compat lint --<value>` flag) -> name.
SERVED = {"routes": "routes", "perf": "perfstat", "traces": "tracesan"}
