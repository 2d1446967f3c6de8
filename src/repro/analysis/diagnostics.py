"""Structured diagnostics emitted by the kernelsan static analyses.

Every analysis pass reports findings as :class:`Diagnostic` objects
rather than exceptions, so one lint run surfaces *all* problems of a
kernel at once — the model is a compiler driver printing every warning,
not a verifier bailing at the first violation.

Each diagnostic carries a stable *code* (``RACE01``, ``DIV02``, ...)
keyed into :data:`DIAGNOSTIC_CODES`; severities follow the usual
compiler convention:

* ``ERROR`` — the kernel provably misbehaves on some legal schedule or
  input within the declared launch bounds (lint gates fail the build);
* ``WARNING`` — the analysis cannot prove the kernel safe (may-alias,
  may-overflow) or the construct is portability-hazardous;
* ``INFO`` — advisory only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


#: Stable code -> (default severity, one-line description).
DIAGNOSTIC_CODES: dict[str, tuple[Severity, str]] = {
    "RACE01": (Severity.ERROR,
               "definite shared-memory data race within one barrier interval"),
    "RACE02": (Severity.WARNING,
               "possible shared-memory data race (may-alias, unproven)"),
    "DIV01": (Severity.ERROR,
              "barrier under a thread-divergent conditional"),
    "DIV02": (Severity.ERROR,
              "barrier inside a loop with a thread-divergent trip count"),
    "OOB01": (Severity.ERROR,
              "global memory access provably outside the parameter buffer"),
    "OOB02": (Severity.WARNING,
              "global memory access may exceed the parameter buffer"),
    "OOB03": (Severity.ERROR,
              "shared memory access outside the static allocation"),
    "UNINIT01": (Severity.WARNING,
                 "shared memory read before any store to the allocation"),
    "DEAD01": (Severity.WARNING,
               "shared memory store never observed by a load"),
    "PORT01": (Severity.WARNING,
               "shuffle distance assumes a fixed execution width"),
    "PORT02": (Severity.INFO,
               "CAS retry loop relies on vendor forward-progress guarantees"),
    "PORT03": (Severity.WARNING,
               "static shared memory exceeds the smallest device capacity"),
    # -- transval: translation validation (source-to-source routes) ----------
    "TV01": (Severity.ERROR,
             "feature tag neither mapped nor explicitly rejected by the "
             "translator"),
    "TV02": (Severity.ERROR,
             "translator emits a feature tag outside the target model's "
             "vocabulary"),
    "TV03": (Severity.ERROR,
             "kernel IR not structurally equivalent across the translation"),
    "TV04": (Severity.WARNING,
             "source-model identifiers survive translation of the witness "
             "corpus"),
    "TV05": (Severity.WARNING,
             "rewrite rule can never fire (dead or shadowed pattern)"),
    "TV06": (Severity.WARNING,
             "constructs dropped to TODO comments without a structured "
             "warning"),
    # -- route evidence: derived support vs. recorded Figure-1 rating --------
    "RE01": (Severity.ERROR,
             "statically derived support category contradicts the recorded "
             "paper rating"),
    "RE02": (Severity.WARNING,
             "statically derived secondary rating disagrees with the "
             "recorded dual rating"),
    "RE03": (Severity.INFO,
             "derived-vs-paper divergence suppressed by a documented entry"),
    # -- perfstat: static cost-model predictions vs. measured perf matrix ----
    "PS01": (Severity.ERROR,
             "predicted-viable route measured two times or more off the "
             "static cost-model prediction"),
    "PS02": (Severity.WARNING,
             "statically predicted best route differs from the measured "
             "best route"),
    "PS03": (Severity.INFO,
             "static prediction within tolerance of the measured result"),
    "PS04": (Severity.WARNING,
             "static route-viability structure disagrees with the measured "
             "perf matrix"),
    "PS05": (Severity.INFO,
             "cost model degraded to a conservative approximation for this "
             "kernel"),
    "PS06": (Severity.INFO,
             "static-vs-dynamic perf divergence suppressed by a documented "
             "ledger entry"),
    # -- tracesan: translation validation of trace-compiled programs ---------
    "TC01": (Severity.ERROR,
             "generated trace program's effect summary diverges from the "
             "kernel IR's interpreter semantics"),
    "TC02": (Severity.ERROR,
             "generated trace program escapes the closed exec allowlist"),
    "TC03": (Severity.ERROR,
             "deferred (sunk) register chain cannot be re-proved "
             "(single-site, dominance, or operand stability fails)"),
    "TC04": (Severity.WARNING,
             "trace equivalence proven only as a conservative bound "
             "(exact=False degradation)"),
    "TC05": (Severity.INFO,
             "kernel bailed out of trace compilation; nothing to validate"),
    "TC06": (Severity.INFO,
             "trace divergence suppressed by a documented ledger entry"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a kernelsan pass.

    Attributes:
        code: Stable identifier from :data:`DIAGNOSTIC_CODES`.
        severity: Finding severity (defaults from the code table).
        kernel: Name of the kernel the finding is in.
        path: Human-readable instruction path, e.g.
            ``"body[3].then[0] Store(shared)"``.
        message: The finding itself.
        hint: Suggested fix, empty when there is none.
    """

    code: str
    severity: Severity
    kernel: str
    path: str
    message: str
    hint: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity >= Severity.ERROR

    def render(self) -> str:
        """Compiler-style one/two-line rendering."""
        line = f"{self.kernel}: {self.severity.label}: [{self.code}] {self.message}"
        if self.path:
            line += f"\n    at {self.path}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        """Machine-readable form; the schema CI and transval share."""
        return {
            "code": self.code,
            "severity": self.severity.label,
            "kernel": self.kernel,
            "path": self.path,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def make(code: str, kernel: str, path: str, message: str, hint: str = "",
         severity: Severity | None = None) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the code table."""
    default, _desc = DIAGNOSTIC_CODES[code]
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else default,
        kernel=kernel,
        path=path,
        message=message,
        hint=hint,
    )


@dataclass
class LintReport:
    """Diagnostics for one module/kernel corpus, with rollups."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, more: list[Diagnostic]) -> None:
        self.diagnostics.extend(more)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def by_kernel(self) -> dict[str, list[Diagnostic]]:
        out: dict[str, list[Diagnostic]] = {}
        for d in self.diagnostics:
            out.setdefault(d.kernel, []).append(d)
        return out

    def summary_line(self) -> str:
        return (f"{self.count(Severity.ERROR)} error(s), "
                f"{self.count(Severity.WARNING)} warning(s), "
                f"{self.count(Severity.INFO)} note(s)")

    def render(self) -> str:
        """The findings as text: kernels in first-seen order, each kernel's
        worst first (the caller adds a summary line)."""
        lines: list[str] = []
        for kernel, diags in self.by_kernel().items():
            for d in sorted(diags, key=lambda d: -int(d.severity)):
                lines.append(d.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready dump: diagnostics plus severity rollups."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": {
                "error": self.count(Severity.ERROR),
                "warning": self.count(Severity.WARNING),
                "info": self.count(Severity.INFO),
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


# -- SARIF ------------------------------------------------------------------

#: SARIF 2.1.0 level per severity (SARIF has no "error > warning > note"
#: numeric order, only these fixed labels).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def to_sarif(report: LintReport, tool_name: str = "kernelsan") -> dict:
    """One SARIF 2.1.0 run for a lint report.

    The single shared serializer behind every ``gpu-compat lint
    --format sarif`` path (kernelsan, ``--routes``, ``--perf``): rules
    come from :data:`DIAGNOSTIC_CODES` (only codes that actually fired,
    keeping the document small), results carry the kernel/cell as a
    logical location because the simulated kernels have no source files
    to point at.
    """
    fired = sorted({d.code for d in report.diagnostics})
    rules = [
        {
            "id": code,
            "shortDescription": {"text": DIAGNOSTIC_CODES[code][1]},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS[DIAGNOSTIC_CODES[code][0]],
            },
        }
        for code in fired
    ]
    rule_index = {code: i for i, code in enumerate(fired)}
    results = []
    for d in report.diagnostics:
        message = d.message if not d.hint else f"{d.message} (hint: {d.hint})"
        results.append({
            "ruleId": d.code,
            "ruleIndex": rule_index[d.code],
            "level": _SARIF_LEVELS[d.severity],
            "message": {"text": message},
            "locations": [{
                "logicalLocations": [{
                    "name": d.kernel,
                    "fullyQualifiedName": (f"{d.kernel}::{d.path}"
                                           if d.path else d.kernel),
                    "kind": "function",
                }],
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def to_sarif_json(report: LintReport, tool_name: str = "kernelsan",
                  indent: int | None = 2) -> str:
    import json

    return json.dumps(to_sarif(report, tool_name), indent=indent)
