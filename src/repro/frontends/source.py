"""Translation units: the object toolchains compile.

A :class:`TranslationUnit` bundles compiled DSL kernels with the
metadata that drives the compatibility machinery: which *programming
model* the code is written against and which *source language* it
represents.  A simulated toolchain accepts or rejects a translation
unit based on exactly this pair plus the kernels' feature tags —
mirroring how ``nvcc`` compiles CUDA C++ but not CUDA Fortran, and
``ifx`` compiles OpenMP Fortran but not HIP anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.enums import Language, Model
from repro.errors import FrontendError
from repro.frontends.kernel_dsl import KernelFn


@dataclass
class TranslationUnit:
    """Source-level unit of compilation.

    Attributes:
        name: Module name carried through to the device binary.
        model: The programming model the source is written in.
        language: The host language the source represents.  The embedded
            DSL is Python either way; the tag models what a real source
            file would be and is what language-restricted toolchains and
            models check (e.g. SYCL rejects ``Language.FORTRAN``).
        kernels: The device kernels of this unit.
        features: Host-level feature tags beyond what kernels carry
            (e.g. ``"openmp:metadirective"``, ``"async_streams"``),
            consumed by the toolchain capability check.
        origin: Translation provenance
            (:class:`repro.translate.base.TranslationOrigin`) stamped by
            :meth:`SourceTranslator.translate_unit`; ``None`` for units
            authored directly in this model.  Deliberately excluded from
            :meth:`fingerprint` — provenance never changes code
            generation — but ``Toolchain.compile(sanitize=True)`` keys
            its cache on it and runs translation validation (transval)
            over units that carry one.
    """

    name: str
    model: Model
    language: Language
    kernels: list[KernelFn] = field(default_factory=list)
    features: set[str] = field(default_factory=set)
    origin: object | None = None

    def add(self, kernel: KernelFn) -> KernelFn:
        if any(k.name == kernel.name for k in self.kernels):
            raise FrontendError(
                f"translation unit '{self.name}' already has kernel '{kernel.name}'"
            )
        self.kernels.append(kernel)
        return kernel

    def require(self, *features: str) -> "TranslationUnit":
        """Tag host-level feature requirements (chainable)."""
        self.features.update(features)
        return self

    def all_features(self) -> frozenset[str]:
        """Union of host-level and per-kernel feature tags."""
        tags = set(self.features)
        for k in self.kernels:
            tags |= k.ir.features
        return frozenset(tags)

    def fingerprint(self) -> str:
        """Content hash of everything that affects the compiled binary.

        The unit *name* is deliberately excluded: runtimes mint a fresh
        per-instance name for each unit (``cuda_tu3``...) while compiling
        byte-identical source, and the name never changes code
        generation.  Instruction/operand dataclasses all have
        content-based reprs, so ``repr`` of a kernel body is a stable
        structural fingerprint.
        """
        return self.digests()[0]

    def digests(self) -> tuple[str, str]:
        """``(fingerprint, kernel content)``, from each kernel's cached
        :meth:`~repro.isa.module.KernelIR.content`.

        The first is :meth:`fingerprint`.  The second covers only the
        kernels -- each one's name, params, body and feature tags -- and
        leaves out model, language and unit features, which no optimize,
        sanitize or lowering pass reads; toolchains key their shared
        stage memo on it.
        """
        unit = hashlib.sha256(f"{self.model.value}|{self.language.value}".encode())
        for tag in sorted(self.features):
            unit.update(f"|{tag}".encode())
        content = hashlib.sha256()
        for k in self.kernels:
            data = k.ir.content()
            unit.update(data)
            content.update(data)
        return unit.hexdigest(), content.hexdigest()

    def kernel(self, name: str) -> KernelFn:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel '{name}' in translation unit '{self.name}'")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TU {self.name} model={self.model.value} lang={self.language.value} "
            f"kernels={[k.name for k in self.kernels]}>"
        )
