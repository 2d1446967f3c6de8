"""perfstat: predict the perf-portability matrix without running kernels.

:mod:`repro.perfport` measures the 51-cell matrix *dynamically*: every
viable route streams the five BabelStream kernels through its full
runtime chain and the roofline model times each metered launch.  This
module produces the same matrix **statically** — zero kernel
executions, zero compiles — by composing three proofs that already
exist in the analysis layer:

1. **Route viability** comes from the route-evidence derivation
   (:func:`repro.analysis.routes_evidence.derive_matrix`) plus a replay
   of each chain's translator against the feature tags the stream
   adapters place on their translation units
   (:data:`STREAM_SOURCE_TAGS`) and each Python package's feature set —
   the exact gates that make dynamic routes fail, evaluated on tag
   tables instead of executions.
2. **Launch cost** comes from the abstract cost interpreter
   (:mod:`repro.analysis.costmodel`), whose counters are bit-equal to
   the dynamic interpreter's :class:`LaunchStats` for every stream
   kernel.
3. **Time** comes from the same :class:`~repro.gpu.perfmodel.PerfModel`
   roofline (via :func:`~repro.gpu.perfmodel.perf_constants` and the
   device specs) the dynamic path uses, plus the chain's dispatch
   overhead and the adapter's host<->device transfers in the timed dot
   window.

The result (:class:`StaticPerfMatrix`) mirrors
:class:`~repro.perfport.matrix.PerfMatrix` closely enough that the
dynamic cascade/Pennycook reductions run on it unchanged.  A
differential cross-checker (:func:`cross_check_perf`) then closes the
loop: static vs. dynamic, cell by cell and route by route, emitting
``PS01``-``PS06`` diagnostics with a documented-divergence ledger
(:data:`repro.data.perf_divergences.KNOWN_PERF_DIVERGENCES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.analysis.costmodel import KernelCost, cost_kernel
from repro.analysis.diagnostics import LintReport, make
from repro.analysis.routes_evidence import derive_matrix
from repro.core.classifier import DEFAULT_THRESHOLDS, Thresholds
from repro.core.routes import Route, all_routes, routes_for
from repro.data.perf_divergences import divergence_reason
from repro.enums import (
    Language,
    Model,
    SupportCategory,
    Vendor,
    all_cells,
)
from repro.errors import TranslationError
from repro.frontends.source import TranslationUnit
from repro.gpu.perfmodel import PerfModel
from repro.gpu.specs import default_spec
from repro.kernels import BLOCK, KERNEL_LIBRARY
from repro.perfport.matrix import PerfMatrix, PerfParams
from repro.workloads.babelstream import (
    STREAM_KERNELS,
    STREAM_MOVED_ARRAYS,
    SUITE_ADAPTERS,
)

Cell = tuple[Vendor, Model, Language]

#: Measured-vs-predicted ratio beyond which a PS01 fires (the ISSUE's
#: "measured >= 2x off" policy; within it, the cell gets a PS03 note).
PS_TOLERANCE = 2.0

_HW_STREAM = frozenset({"barrier", "atomics", "shared_memory"})

#: Feature tags the stream adapters place on their translation units,
#: per probe suite — the union over the five kernels, so one replay of a
#: chain's translator against this set reproduces exactly the failures
#: a dynamic run would hit on *any* stream kernel.  Hardware tags ride
#: along for documentation; translators pass them through.
STREAM_SOURCE_TAGS: dict[str, frozenset[str]] = {
    "cuda_cpp": frozenset({"cuda:kernels", "cuda:memcpy"}) | _HW_STREAM,
    "cuda_fortran": frozenset({"cuf:kernels", "cuda:memcpy"}) | _HW_STREAM,
    "hip_cpp": frozenset({"hip:kernels", "hip:memcpy"}) | _HW_STREAM,
    "hip_fortran": frozenset({"hip:kernels", "hip:memcpy"}) | _HW_STREAM,
    "openacc": frozenset({
        "acc:parallel", "acc:loop", "acc:copyin_copyout", "acc:reduction",
        "acc:gang_worker_vector"}) | _HW_STREAM,
    "openmp": frozenset({
        "omp:target", "omp:teams", "omp:distribute", "omp:parallel_for",
        "omp:map", "omp:reduction"}) | _HW_STREAM,
    "stdpar_cpp": frozenset({"stdpar:transform",
                             "stdpar:transform_reduce"}) | _HW_STREAM,
    "stdpar_fortran": frozenset({"dc:do_concurrent",
                                 "dc:reduce"}) | _HW_STREAM,
}

#: ``py:*`` features the Python stream adapter needs from a package.
PYTHON_STREAM_FEATURES = frozenset(
    {"py:numpy_interop", "py:custom_kernels", "py:reduction"})

#: Host<->device transfers inside the timed dot window, per suite: the
#: runtime/Kokkos/Alpaka adapters zero the accumulator on device and
#: copy the scalar back (2 copies); the Python adapter's ``pkg.dot``
#: only copies the result out (1).
DOT_WINDOW_TRANSFERS = {suite: 1 if suite == "python" else 2
                        for suite in SUITE_ADAPTERS}

#: Canonical launch geometry + scalar arguments for every library
#: kernel — the shapes ``gpu-compat lint --perf`` and the perfstat
#: benchmark cost kernels at.  Pointer parameters never need values.
STATIC_LAUNCHES: dict[str, tuple[tuple[int, ...], tuple[int, ...],
                                 dict[str, float]]] = {
    "stream_copy": ((64,), (BLOCK,), {"n": 16384}),
    "stream_mul": ((64,), (BLOCK,), {"n": 16384, "scalar": 0.4}),
    "stream_add": ((64,), (BLOCK,), {"n": 16384}),
    "stream_triad": ((64,), (BLOCK,), {"n": 16384, "scalar": 0.4}),
    "stream_dot": ((64,), (BLOCK,), {"n": 16384}),
    "axpy": ((64,), (BLOCK,), {"n": 16384, "alpha": 1.5}),
    "gemv": ((64,), (BLOCK,), {"m": 16384, "n": 64, "alpha": 1.0,
                               "beta": 0.5}),
    "fill": ((64,), (BLOCK,), {"n": 16384, "value": 3.0}),
    "scale_inplace": ((64,), (BLOCK,), {"n": 16384, "alpha": 2.0}),
    "ew_add": ((64,), (BLOCK,), {"n": 16384}),
    "ew_sub": ((64,), (BLOCK,), {"n": 16384}),
    "ew_mul": ((64,), (BLOCK,), {"n": 16384}),
    "ew_div": ((64,), (BLOCK,), {"n": 16384}),
    "ew_scalar_add": ((64,), (BLOCK,), {"n": 16384, "s": 1.0}),
    "ew_scalar_mul": ((64,), (BLOCK,), {"n": 16384, "s": 2.0}),
    "ew_sqrt": ((64,), (BLOCK,), {"n": 16384}),
    "ew_exp": ((64,), (BLOCK,), {"n": 16384}),
    "ew_maximum": ((64,), (BLOCK,), {"n": 16384}),
    "reduce_sum": ((64,), (BLOCK,), {"n": 16384}),
    "reduce_max": ((64,), (BLOCK,), {"n": 16384}),
    "warp_reduce_sum": ((64,), (BLOCK,), {"n": 16384}),
    "histogram": ((64,), (BLOCK,), {"n": 16384, "nbins": 64}),
    "bitonic_step": ((64,), (BLOCK,), {"n": 16384, "j": 1, "k": 2}),
    "scan_step": ((64,), (BLOCK,), {"n": 16384, "offset": 1}),
    "flops_burner": ((64,), (BLOCK,), {"n": 16384, "iters": 16}),
    "jacobi2d": ((8, 8), (16, 16), {"nx": 128, "ny": 128}),
    # O(n^2) interaction loop: kept small so costing it honors the
    # lint --perf latency budget (<10 ms/kernel).
    "nbody_forces": ((1,), (128,), {"n": 128, "softening": 0.01}),
}

#: Scalar dot result copied back in the timed window.
_DOT_RESULT_BYTES = 8


@lru_cache(maxsize=8)
def stream_kernel_costs(n: int) -> dict[str, KernelCost]:
    """Static cost of each stream kernel at the adapter geometry.

    Every adapter launches ``block=256`` with ``grid=ceil(n/256)``
    (dot's grid-stride launch capped at 256 blocks).  The stream
    kernels read no ``laneid``/``warpsize``, so one cost per kernel
    serves every vendor.
    """
    grid = -(-n // BLOCK)
    costs: dict[str, KernelCost] = {}
    for kernel in STREAM_KERNELS:
        g = min(256, grid) if kernel == "dot" else grid
        scalars: dict[str, float] = {"n": n}
        if kernel in ("mul", "triad"):
            scalars["scalar"] = 0.4
        costs[kernel] = cost_kernel(
            KERNEL_LIBRARY[f"stream_{kernel}"].ir, (g,), (BLOCK,), scalars)
    return costs


# ---------------------------------------------------------------------------
# Static per-route prediction
# ---------------------------------------------------------------------------


@dataclass
class StaticRoutePerf:
    """Predicted five-kernel stream performance of one route.

    The static twin of :class:`~repro.perfport.matrix.RoutePerf`:
    ``viable`` plays the role of ``ok and verified``, ``seconds`` the
    role of ``best_seconds`` — predicted steady-state time per kernel,
    dispatch overhead and dot-window transfers included.
    """

    route_id: str
    via: str
    translated: bool
    viable: bool
    reason: str | None = None  # why the route is statically non-viable
    translation_hops: tuple[str, ...] = ()
    dispatch_overhead_s: float = 0.0
    seconds: dict[str, float] = field(default_factory=dict)
    bound: dict[str, str] = field(default_factory=dict)
    exact: bool = True
    notes: tuple[str, ...] = ()

    def bandwidth_gbs(self, kernel: str, params: PerfParams) -> float:
        moved = STREAM_MOVED_ARRAYS[kernel] * params.n * params.dtype_bytes
        secs = self.seconds[kernel]
        return moved / secs / 1e9 if secs > 0 else 0.0

    def efficiency(self, params: PerfParams, peak_gbs: float) -> float:
        """Predicted harmonic-mean fraction of peak; 0 when non-viable."""
        if not self.viable:
            return 0.0
        fractions = [
            self.bandwidth_gbs(k, params) / peak_gbs for k in STREAM_KERNELS
        ]
        if any(f <= 0 for f in fractions):
            return 0.0
        return len(fractions) / sum(1.0 / f for f in fractions)

    @property
    def ok(self) -> bool:
        """Duck-type compatibility with ``RoutePerf`` consumers."""
        return self.viable

    @property
    def verified(self) -> bool:
        return self.viable


@dataclass
class StaticPerfCell:
    """Predicted perf of one (vendor, model, language) cell."""

    vendor: Vendor
    model: Model
    language: Language
    device: str
    peak_gbs: float
    routes: list[StaticRoutePerf] = field(default_factory=list)

    @property
    def supported(self) -> bool:
        return any(r.viable for r in self.routes)

    def best_route(self, params: PerfParams) -> StaticRoutePerf | None:
        """Highest predicted efficiency (ties: registry order)."""
        best: StaticRoutePerf | None = None
        best_eff = 0.0
        for r in self.routes:
            eff = r.efficiency(params, self.peak_gbs)
            if eff > best_eff:
                best, best_eff = r, eff
        return best

    def efficiency(self, params: PerfParams) -> float:
        best = self.best_route(params)
        return best.efficiency(params, self.peak_gbs) if best else 0.0


@dataclass
class StaticPerfMatrix:
    """Predicted perf matrix over all Figure-1 cells.

    Duck-type compatible with :class:`~repro.perfport.matrix.PerfMatrix`
    where it matters: the cascade and Pennycook reductions in
    :mod:`repro.perfport.portability` run on it unchanged.
    """

    params: PerfParams
    cells: dict[Cell, StaticPerfCell]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell(self, vendor: Vendor, model: Model,
             language: Language) -> StaticPerfCell:
        return self.cells[(vendor, model, language)]

    def efficiency(self, vendor: Vendor, model: Model,
                   language: Language) -> float:
        return self.cells[(vendor, model, language)].efficiency(self.params)


def _translator_chain(rt) -> tuple:
    """(base runtime, translator) of a constructed chain."""
    base = getattr(rt, "_rt", rt)
    return base, getattr(base, "translator", None)


def _replay_translator(route: Route, translator, base) -> str | None:
    """Replay the chain's translator over the stream adapter's tags.

    Runs the *real* ``translate_unit`` tag logic on a synthetic unit
    carrying :data:`STREAM_SOURCE_TAGS` — no kernels attached, nothing
    compiled — so an untranslatable construct fails here exactly as it
    fails a dynamic stream run.  Returns the failure reason, or ``None``
    when the route translates cleanly.
    """
    tags = STREAM_SOURCE_TAGS.get(route.probe_suite)
    if tags is None:
        return None
    tu = TranslationUnit(
        name=f"perfstat_{route.route_id}",
        model=base.MODEL,
        language=base.language,
        features=set(tags),
    )
    try:
        translator.translate_unit(tu)
    except TranslationError as exc:
        return f"TranslationError: {exc}"
    return None


def predict_route(route: Route, params: PerfParams,
                  evidence_category: SupportCategory) -> StaticRoutePerf:
    """Predict one route's stream performance with zero executions.

    Constructing the chain (:meth:`Route.chain`) wires up toolchain,
    translator, and dispatch overheads without compiling anything —
    the same inspection trick the route-evidence analyzer uses.
    """
    from repro.gpu.device import Device
    from repro.models.pymodels import PyPackage

    perf = StaticRoutePerf(
        route_id=route.route_id, via=route.via,
        translated=route.is_translation, viable=False,
    )
    if route.probe_suite not in SUITE_ADAPTERS:
        perf.reason = f"no stream adapter for suite '{route.probe_suite}'"
        return perf
    if evidence_category is SupportCategory.NONE:
        perf.reason = "route-evidence derivation: no provable support"
        return perf
    device = Device(default_spec(route.vendor))
    rt = route.chain(device)
    base, translator = _translator_chain(rt)
    if translator is not None:
        perf.translation_hops = (translator.NAME,)
        reason = _replay_translator(route, translator, base)
        if reason is not None:
            perf.reason = reason
            return perf
    if isinstance(rt, PyPackage):
        missing = sorted(PYTHON_STREAM_FEATURES - set(rt.features))
        if missing:
            perf.reason = (f"package {rt.name} lacks feature(s) "
                           f"{', '.join(missing)}")
            return perf
    perf.viable = True
    perf.dispatch_overhead_s = float(
        getattr(base, "dispatch_overhead_s", 0.0))
    model = PerfModel(default_spec(route.vendor))
    transfers = DOT_WINDOW_TRANSFERS[route.probe_suite]
    costs = stream_kernel_costs(params.n)
    for kernel, cost in costs.items():
        timing = model.time_launch(cost.stats)
        seconds = perf.dispatch_overhead_s + timing.seconds
        if kernel == "dot":
            seconds += transfers * model.time_transfer(_DOT_RESULT_BYTES)
        perf.seconds[kernel] = seconds
        perf.bound[kernel] = timing.bound
        if not cost.exact:
            perf.exact = False
            perf.notes = perf.notes + tuple(
                f"{kernel}: {n}" for n in cost.notes)
    return perf


def build_static_perf_matrix(
        params: PerfParams = PerfParams(),
        thresholds: Thresholds = DEFAULT_THRESHOLDS) -> StaticPerfMatrix:
    """Predict all 51 cells statically — zero kernel executions.

    Routes enter a cell in registry order when the route-evidence
    derivation rates them above "no support", mirroring
    :func:`repro.perfport.matrix.viable_routes` against the measured
    compatibility matrix (the two agree cell-for-cell; the RE cross-
    check gates that).
    """
    derived = derive_matrix(thresholds=thresholds)
    categories = {
        (ev.route.route_id): ev.category
        for cell in derived.values() for ev in cell.evidence
    }
    cells: dict[Cell, StaticPerfCell] = {}
    for cell in all_cells():
        vendor, model, language = cell
        spec = default_spec(vendor)
        routes = [
            predict_route(route, params, categories[route.route_id])
            for route in routes_for(vendor, model, language)
            if categories[route.route_id] is not SupportCategory.NONE
        ]
        cells[cell] = StaticPerfCell(
            vendor=vendor, model=model, language=language,
            device=spec.name, peak_gbs=spec.bandwidth_gbs, routes=routes,
        )
    return StaticPerfMatrix(params=params, cells=cells)


# ---------------------------------------------------------------------------
# Library-kernel cost lint (the per-kernel half of ``lint --perf``)
# ---------------------------------------------------------------------------


def library_kernel_costs() -> dict[str, KernelCost]:
    """Static cost of every library kernel at its canonical launch."""
    costs: dict[str, KernelCost] = {}
    for name in KERNEL_LIBRARY:
        grid, block, scalars = STATIC_LAUNCHES[name]
        costs[name] = cost_kernel(KERNEL_LIBRARY[name].ir, grid, block,
                                  scalars)
    return costs


def library_cost_report(costs: dict[str, KernelCost] | None = None,
                        ) -> LintReport:
    """PS05 notes for every kernel whose cost model is conservative."""
    report = LintReport()
    for name, cost in sorted((costs or library_kernel_costs()).items()):
        if cost.exact:
            continue
        report.add(make(
            "PS05", name, "",
            f"static cost is a conservative bound, not exact: "
            f"{'; '.join(cost.notes)}",
        ))
    return report


# ---------------------------------------------------------------------------
# Differential cross-check: static predictions vs. measured matrix
# ---------------------------------------------------------------------------


def _route_total(seconds: dict[str, float]) -> float:
    return sum(seconds[k] for k in STREAM_KERNELS)


def cross_check_perf(static: StaticPerfMatrix,
                     dynamic: PerfMatrix) -> LintReport:
    """Compare the static matrix against the measured one.

    Per cell:

    * ``PS04`` warning when the sets of working routes disagree (static
      viability vs. dynamic ``ok and verified``) — the structural
      check that also pins the static and dynamic Pennycook ⫫ to the
      same supported/unsupported shape;
    * ``PS01`` error per route whose measured five-kernel time is
      ``>= PS_TOLERANCE``x off the prediction (either direction);
    * ``PS02`` warning when the predicted best route is not the
      measured best route;
    * ``PS03`` info when a supported cell agrees within tolerance on
      both counts;
    * ``PS06`` info instead of PS01/PS02/PS04 when the divergence is
      documented in ``KNOWN_PERF_DIVERGENCES``.
    """
    report = LintReport()
    for key in sorted(static.cells, key=lambda k: tuple(x.value for x in k)):
        vendor, model, language = key
        scell = static.cells[key]
        dcell = dynamic.cells.get(key)
        where = f"{vendor.value}/{model.value}/{language.value}"
        if dcell is None:
            report.add(make("PS04", where, "",
                            "cell missing from the measured perf matrix"))
            continue
        static_ok = {r.route_id for r in scell.routes if r.viable}
        dynamic_ok = {r.route_id for r in dcell.routes
                      if r.ok and r.verified}
        cell_clean = True
        if static_ok != dynamic_ok:
            cell_clean = False
            detail = (f"statically viable {sorted(static_ok)} vs measured "
                      f"working {sorted(dynamic_ok)}")
            suppression = divergence_reason(vendor, model, language)
            if suppression is not None:
                report.add(make("PS06", where, "",
                                f"documented divergence: {detail} — "
                                f"{suppression}"))
            else:
                report.add(make(
                    "PS04", where, "", detail,
                    hint="align STREAM_SOURCE_TAGS / the viability gates "
                         "with the stream adapters, or document the "
                         "divergence in KNOWN_PERF_DIVERGENCES"))
        dyn_by_id = {r.route_id: r for r in dcell.routes}
        for sroute in scell.routes:
            droute = dyn_by_id.get(sroute.route_id)
            if (not sroute.viable or droute is None
                    or not (droute.ok and droute.verified)):
                continue
            predicted = _route_total(sroute.seconds)
            measured = _route_total(droute.best_seconds)
            ratio = (max(predicted, measured) / min(predicted, measured)
                     if min(predicted, measured) > 0 else float("inf"))
            if ratio >= PS_TOLERANCE:
                cell_clean = False
                detail = (f"route {sroute.route_id}: predicted "
                          f"{predicted * 1e6:.3f} us vs measured "
                          f"{measured * 1e6:.3f} us ({ratio:.2f}x off)")
                suppression = divergence_reason(vendor, model, language,
                                                sroute.route_id)
                if suppression is not None:
                    report.add(make("PS06", where, sroute.route_id,
                                    f"documented divergence: {detail} — "
                                    f"{suppression}"))
                else:
                    report.add(make(
                        "PS01", where, sroute.route_id, detail,
                        hint="the cost model and the interpreter metering "
                             "have drifted apart; reconcile them or ledger "
                             "the divergence"))
        sbest = scell.best_route(static.params)
        dbest = dcell.best_route(dynamic.params)
        sbest_id = sbest.route_id if sbest else None
        dbest_id = dbest.route_id if dbest else None
        if sbest_id != dbest_id:
            cell_clean = False
            detail = (f"predicted best route {sbest_id!r} vs measured "
                      f"{dbest_id!r}")
            suppression = divergence_reason(vendor, model, language)
            if suppression is not None:
                report.add(make("PS06", where, "",
                                f"documented divergence: {detail} — "
                                f"{suppression}"))
            else:
                report.add(make("PS02", where, "", detail))
        if cell_clean and static_ok:
            report.add(make(
                "PS03", where, "",
                f"{len(static_ok)} route(s) predicted within "
                f"{PS_TOLERANCE:g}x, best route {sbest_id!r} confirmed"))
    return report


def perf_agreement_summary(report: LintReport) -> dict[str, int]:
    """Counter rollup of a cross-check report (metrics-registry food)."""
    by_code: dict[str, int] = {}
    for d in report.diagnostics:
        by_code[d.code] = by_code.get(d.code, 0) + 1
    return {
        "cells_agreeing": by_code.get("PS03", 0),
        "prediction_errors": by_code.get("PS01", 0),
        "best_route_mismatches": by_code.get("PS02", 0),
        "structure_mismatches": by_code.get("PS04", 0),
        "conservative_kernels": by_code.get("PS05", 0),
        "suppressed_divergences": by_code.get("PS06", 0),
    }


def lint_perf(dynamic: PerfMatrix, static: StaticPerfMatrix | None = None,
              ) -> tuple[LintReport, dict[str, int]]:
    """The full ``lint --perf`` report (library costs + the cross-check
    of ``static``, predicted at ``dynamic.params`` unless given) and its
    agreement rollup."""
    if static is None:
        static = build_static_perf_matrix(dynamic.params)
    report = library_cost_report()
    report.extend(cross_check_perf(static, dynamic).diagnostics)
    return report, perf_agreement_summary(report)
