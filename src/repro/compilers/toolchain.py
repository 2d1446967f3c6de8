"""Toolchain base class and compile pipeline.

A :class:`Toolchain` models one compiler product from §4 (nvcc, NVHPC,
hipcc, AOMP, DPC++, ifx, GCC, Clang/Flang, Cray CE, Open SYCL,
chipStar): a set of *capabilities* — which (model, language) pairs it
accepts, which ISAs it emits for each, and which model features it
implements — plus the shared compile pipeline (feature check →
optimization passes → ISA legalization).

A compile attempt can fail in exactly the ways real ones do:

* :class:`~repro.errors.UnsupportedRouteError` — the toolchain does not
  speak that model/language at all (``ifx`` given HIP);
* :class:`~repro.errors.UnsupportedTargetError` — it speaks the model
  but cannot emit the ISA (``nvcc`` asked for AMDGCN);
* :class:`~repro.errors.UnsupportedFeatureError` — the specific feature
  is not implemented (NVHPC's OpenMP given a 5.0 metadirective).

The compatibility probes rely on this error taxonomy to distinguish
"no route" from "partial coverage".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.enums import ISA, Language, Maturity, Model, Provider
from repro.errors import (
    UnsupportedFeatureError,
    UnsupportedRouteError,
    UnsupportedTargetError,
)
from repro.compilers.features import HW_FEATURES
from repro.compilers.passes import optimize_module
from repro.frontends.source import TranslationUnit
from repro.isa.module import ModuleIR, TargetModule
from repro.isa.targets import legalize
from repro import memo

#: One capability row: a (model, language) pair this toolchain compiles.
@dataclass(frozen=True)
class Capability:
    """What a toolchain implements for one (model, language) pair."""

    model: Model
    language: Language
    targets: frozenset[ISA]
    features: frozenset[str]
    since: str = ""  # human note, e.g. "GCC 5.0", "oneAPI 2022.1"
    flag: str = ""  # the enabling compiler option from the paper


@dataclass
class CompileResult:
    """Outcome of a successful compilation.

    ``diagnostics`` holds kernelsan findings when the compile was run
    with ``sanitize=True`` (a ``LintReport``); ``None`` means the
    sanitizer stage was not requested — not that the module is clean.
    """

    binary: TargetModule
    toolchain: str
    target: ISA
    options: tuple[str, ...]
    pass_report: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    diagnostics: object | None = None

    def disassemble(self) -> str:
        from repro.isa.assembly import disassemble

        return disassemble(self.binary)


#: The stage memo under every toolchain's compile cache: the optimized
#: module per (kernel content, opt level), its kernelsan report per
#: sanitize configuration, and its lowered binary per ISA.  Shared by
#: all toolchains, because none of the three passes reads which
#: toolchain, model, language or unit asked.
_STAGES = memo.Memo("stages", 256)


def compile_cache_stats() -> memo.MemoStats:
    """Process-wide compile-cache counters (all toolchains)."""
    return memo.totals("compile")


def stage_memo_stats() -> memo.MemoStats:
    """Process-wide stage-memo counters: one hit or miss per optimize,
    sanitize or legalize lookup made by a compile-cache miss."""
    return memo.totals("stages")


def clear_compile_cache() -> None:
    """Drop every cached compile result and stage, and zero the counters."""
    memo.clear("compile")
    memo.clear("stages")


class Toolchain:
    """One simulated compiler product."""

    def __init__(
        self,
        name: str,
        provider: Provider,
        version: str,
        capabilities: list[Capability],
        maturity: Maturity = Maturity.PRODUCTION,
        description: str = "",
        opt_level: int = 2,
    ):
        self.name = name
        self.provider = provider
        self.version = version
        self.maturity = maturity
        self.description = description
        self.opt_level = opt_level
        self._caps: dict[tuple[Model, Language], Capability] = {
            (c.model, c.language): c for c in capabilities
        }
        #: Compile results by unit content, target and configuration;
        #: N concurrent compiles of the same unit do one build.
        self._compile_cache = memo.Memo("compile", 256)
        self.cache_stats = self._compile_cache.stats

    # -- capability queries ---------------------------------------------------

    @property
    def capabilities(self) -> list[Capability]:
        return list(self._caps.values())

    def capability(self, model: Model, language: Language) -> Capability | None:
        return self._caps.get((model, language))

    def accepts(self, model: Model, language: Language) -> bool:
        return (model, language) in self._caps

    def targets_for(self, model: Model, language: Language) -> frozenset[ISA]:
        cap = self._caps.get((model, language))
        return cap.targets if cap else frozenset()

    def supports_feature(self, model: Model, language: Language, tag: str) -> bool:
        cap = self._caps.get((model, language))
        if cap is None:
            return False
        return tag in HW_FEATURES or tag in cap.features

    # -- the compile pipeline ---------------------------------------------------

    def compile(
        self,
        tu: TranslationUnit,
        target: ISA,
        options: tuple[str, ...] = (),
        sanitize: bool = False,
        sanitize_options=None,
    ) -> CompileResult:
        """Compile a translation unit to a device binary for ``target``.

        With ``sanitize=True`` the kernelsan static analyses run over
        the *optimized* module (the form that actually ships) and the
        resulting ``LintReport`` is attached to the result; findings
        never abort the compile — policy belongs to the caller.
        ``sanitize_options`` takes a
        :class:`repro.analysis.AnalysisOptions` to pin launch bounds or
        buffer extents.

        Units produced by a source-to-source translator carry a
        :class:`~repro.translate.base.TranslationOrigin`; in sanitize
        mode these are additionally checked by the translation validator
        (:func:`repro.analysis.transval.validate_translation`) and any
        ``TV``-code findings land in the same ``LintReport``.

        Successful compiles are memoized in a content-keyed cache: the
        key covers the unit's content fingerprint (model, language,
        features, kernel IR — but not the unit name), the target ISA,
        the options, the opt level, the sanitize configuration, and the
        unit's translation origin (translator name + source
        fingerprint), so a translated unit never shares a cache slot
        with a content-identical unit written directly in the target
        model — their diagnostics differ.  A hit returns the previously
        built :class:`CompileResult` (its binary may therefore carry a
        different unit name — launches go by kernel name, never unit
        name).  The capability gates run on every call, so the error
        taxonomy is unaffected by caching.

        The cache is a :class:`repro.memo.Memo` of 256 results: misses
        on the same key are single-flighted (one thread builds, the rest
        wait and then hit), and the oldest results are evicted past the
        bound.  Below it, a process-wide stage memo keyed on kernel
        content alone runs optimize, sanitize and legalize once per
        distinct kernel (see :meth:`_compile_uncached`).
        """
        cap = self._caps.get((tu.model, tu.language))
        if cap is None:
            raise UnsupportedRouteError(
                f"{self.name} {self.version} does not compile "
                f"{tu.model.value} {tu.language.value}"
            )
        if target not in cap.targets:
            raise UnsupportedTargetError(
                f"{self.name} cannot emit {target.value} for "
                f"{tu.model.value} {tu.language.value} "
                f"(targets: {sorted(t.value for t in cap.targets)})"
            )
        for tag in sorted(tu.all_features()):
            if tag not in HW_FEATURES and tag not in cap.features:
                raise UnsupportedFeatureError(tag, toolchain=self.name)

        origin_token = (
            tu.origin.cache_token() if tu.origin is not None else None
        )
        fingerprint, content = tu.digests()
        key = (fingerprint, origin_token, target, tuple(options),
               self.opt_level, sanitize, repr(sanitize_options))
        return self._compile_cache.get(
            key,
            lambda: self._compile_uncached(tu, content, target, options,
                                           sanitize, sanitize_options))

    def _compile_uncached(
        self,
        tu: TranslationUnit,
        content: str,
        target: ISA,
        options: tuple[str, ...],
        sanitize: bool,
        sanitize_options,
    ) -> CompileResult:
        """The pipeline behind a compile-cache miss.

        Optimize, sanitize and legalize run once per kernel ``content``
        through the stage memo, and their outputs are shared by
        reference: compiled IR is never mutated once built.  What
        belongs to this unit is built fresh on every miss -- the binary
        (named after the unit, produced by this toolchain), the pass
        report, and a ``LintReport`` holding this unit's own transval
        findings.
        """
        level = self.opt_level

        def optimize():
            module = ModuleIR(name=tu.name)
            for k in tu.kernels:
                module.add(k.ir)
            return optimize_module(module, level=level)

        optimized, report = _STAGES.get(("optimize", content, level),
                                        optimize)
        diagnostics = None
        warnings: list[str] = []
        if sanitize:
            from repro.compilers.passes import sanitize_module

            kernelsan = _STAGES.get(
                ("sanitize", content, level, repr(sanitize_options)),
                lambda: sanitize_module(optimized, sanitize_options))
            diagnostics = replace(
                kernelsan, diagnostics=list(kernelsan.diagnostics))
            from repro.translate.base import TranslationOrigin

            # Only translated units have a source unit to validate
            # against; other provenance (e.g. the jit frontend's
            # JitOrigin) participates in cache keying but has no
            # translation to check.
            if isinstance(tu.origin, TranslationOrigin):
                from repro.analysis.transval import validate_translation

                diagnostics.extend(validate_translation(tu))
            warnings.extend(
                d.render() for d in diagnostics.diagnostics if not d.is_error
            )
        lowered = _STAGES.get(("legalize", content, level, target),
                              lambda: legalize(optimized, target))
        binary = replace(
            lowered,
            module=ModuleIR(name=tu.name, kernels=dict(lowered.module.kernels)),
            producer=f"{self.name}-{self.version}",
        )
        return CompileResult(
            binary=binary,
            toolchain=self.name,
            target=target,
            options=tuple(options),
            pass_report=dict(report),
            warnings=warnings,
            diagnostics=diagnostics,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = sorted(f"{m.value}/{l.value}" for m, l in self._caps)
        return f"<Toolchain {self.name} {self.version} ({self.provider.value}): {pairs}>"
