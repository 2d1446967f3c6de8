"""Efficiency cascades and the Pennycook performance-portability metric.

The reductions of the perf matrix that the paper's §5 (and Reguly's
SYCL study) frame as the interesting outputs:

* **cascade** — for one (model, language), the per-vendor efficiencies
  sorted from best to worst.  The *shape* of the cascade is the
  portability story: a flat cascade is a portable model, a cliff is a
  single-vendor one.
* **⫫ (Pennycook et al.)** — the harmonic mean of the efficiencies over
  the platform set H, **defined as 0 when any platform is unsupported**:

      ⫫(a, H) = |H| / Σ_{i∈H} 1/e_i   if e_i > 0 for all i, else 0

  Here H is always the three-vendor flagship set, e_i the cell's
  achieved-fraction-of-peak via its best viable route.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enums import MODEL_LANGUAGES, MODEL_ORDER, VENDOR_ORDER, Language, Model, Vendor
from repro.perfport.matrix import PerfMatrix


@dataclass(frozen=True)
class CascadeEntry:
    vendor: Vendor
    efficiency: float
    route_id: str | None  # best route, None when unsupported


@dataclass(frozen=True)
class PortabilityRow:
    """One (model, language) row of the portability report."""

    model: Model
    language: Language
    cascade: tuple[CascadeEntry, ...]  # best-to-worst vendor efficiencies
    metric: float  # ⫫ over the three-vendor platform set

    @property
    def supported_everywhere(self) -> bool:
        return all(e.efficiency > 0 for e in self.cascade)

    def to_dict(self) -> dict:
        """The JSON row of ``/perf/portability`` and ``perf --format json``."""
        return {
            "model": self.model.value,
            "language": self.language.value,
            "metric": self.metric,
            "supported_everywhere": self.supported_everywhere,
            "cascade": [{"vendor": e.vendor.value,
                         "efficiency": e.efficiency,
                         "route_id": e.route_id} for e in self.cascade],
        }


def pennycook_metric(efficiencies: list[float]) -> float:
    """⫫ over one platform set: harmonic mean, 0 if any platform is 0."""
    if not efficiencies or any(e <= 0 for e in efficiencies):
        return 0.0
    return len(efficiencies) / sum(1.0 / e for e in efficiencies)


def cascade(matrix: PerfMatrix, model: Model,
            language: Language) -> tuple[CascadeEntry, ...]:
    """Per-vendor efficiencies for one (model, language), best first.

    Ties break on the fixed ``VENDOR_ORDER`` so the output is
    deterministic.
    """
    entries = []
    for vendor in VENDOR_ORDER:
        cell = matrix.cells[(vendor, model, language)]
        best = cell.best_route(matrix.params)
        entries.append(CascadeEntry(
            vendor=vendor,
            efficiency=cell.efficiency(matrix.params),
            route_id=best.route_id if best else None,
        ))
    entries.sort(key=lambda e: -e.efficiency)
    return tuple(entries)


def portability_report(matrix: PerfMatrix) -> list[PortabilityRow]:
    """⫫ + cascade for every (model, language) of the Figure-1 grid."""
    rows: list[PortabilityRow] = []
    for model in MODEL_ORDER:
        for language in MODEL_LANGUAGES[model]:
            casc = cascade(matrix, model, language)
            rows.append(PortabilityRow(
                model=model, language=language, cascade=casc,
                metric=pennycook_metric([e.efficiency for e in casc]),
            ))
    return rows
