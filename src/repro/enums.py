"""Shared vocabulary of the ecosystem: vendors, models, languages, ISAs.

These enums are the coordinate axes of the paper's Figure 1 and of every
registry in the package.  They are deliberately small, hashable value
types; richer metadata (device specs, route descriptions, ...) lives in
the modules that own it.
"""

from __future__ import annotations

import enum


class Vendor(enum.Enum):
    """The three vendors of dedicated HPC GPUs covered by the paper."""

    AMD = "AMD"
    INTEL = "Intel"
    NVIDIA = "NVIDIA"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Row order used by Figure 1 (alphabetical, as in the paper).
VENDOR_ORDER = (Vendor.AMD, Vendor.INTEL, Vendor.NVIDIA)


class Language(enum.Enum):
    """Programming languages considered by the paper.

    C is folded into C++ ("for the sake of brevity, this paper considers
    C++", §3).  Python is treated as its own single column per vendor.
    """

    CPP = "C++"
    FORTRAN = "Fortran"
    PYTHON = "Python"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Model(enum.Enum):
    """The programming models selected by the paper (§3).

    ``RAJA`` and ``OPENCL`` are this reproduction's *extension* models:
    §5 names them as the most notable exclusions ("RAJA ... similar in
    spirit to, albeit not as popular as Kokkos"; "OpenCL ... never
    gained much traction in the HPC-GPU space, mostly due to the
    lukewarm support by NVIDIA").  They are not part of Figure 1's
    column set (:data:`MODEL_ORDER`); the extended table in
    :mod:`repro.core.extended` covers them separately.
    """

    CUDA = "CUDA"
    HIP = "HIP"
    SYCL = "SYCL"
    OPENACC = "OpenACC"
    OPENMP = "OpenMP"
    STANDARD = "Standard"
    KOKKOS = "Kokkos"
    ALPAKA = "Alpaka"
    PYTHON = "Python"  # the per-vendor "etc · Python" column
    RAJA = "RAJA"  # extension (excluded by the paper, §5)
    OPENCL = "OpenCL"  # extension (excluded by the paper, §5)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Spellings the parsers accept beyond a member's value.
_ALIASES = {"cpp": Language.CPP, "cxx": Language.CPP,
            "f": Language.FORTRAN, "py": Language.PYTHON}


def _parse(axis: type[enum.Enum], text: str):
    """The ``axis`` member ``text`` names by value (any case) or alias;
    ``ValueError("unknown <axis> '<text>'")`` when it names none."""
    key = text.lower()
    found = _ALIASES.get(key) or next(
        (m for m in axis if m.value.lower() == key), None)
    if not isinstance(found, axis):
        raise ValueError(f"unknown {axis.__name__.lower()} '{text}'")
    return found


def parse_vendor(text: str) -> Vendor:
    """The vendor ``text`` names; ``ValueError`` if it names none."""
    return _parse(Vendor, text)


def parse_model(text: str) -> Model:
    """The model ``text`` names; ``ValueError`` if it names none."""
    return _parse(Model, text)


def parse_language(text: str) -> Language:
    """The language ``text`` names; ``ValueError`` if it names none."""
    return _parse(Language, text)


#: Column order used by Figure 1.
MODEL_ORDER = (
    Model.CUDA,
    Model.HIP,
    Model.SYCL,
    Model.OPENACC,
    Model.OPENMP,
    Model.STANDARD,
    Model.KOKKOS,
    Model.ALPAKA,
    Model.PYTHON,
)

#: The extension columns (not part of Figure 1; see core.extended).
EXTENDED_MODEL_ORDER = (Model.RAJA, Model.OPENCL)

#: Languages applicable per model column: the eight C++/Fortran columns
#: plus the single Python column.
MODEL_LANGUAGES: dict[Model, tuple[Language, ...]] = {
    m: (Language.CPP, Language.FORTRAN) for m in MODEL_ORDER if m is not Model.PYTHON
}
MODEL_LANGUAGES[Model.PYTHON] = (Language.PYTHON,)
#: RAJA and OpenCL are C++-only (no Fortran layer exists for either).
MODEL_LANGUAGES[Model.RAJA] = (Language.CPP,)
MODEL_LANGUAGES[Model.OPENCL] = (Language.CPP,)


def require_cell(*axes: enum.Enum) -> None:
    """``ValueError`` unless Figure 1 has a cell for ``axes``: a vendor,
    model and language, or a model and language (on every vendor)."""
    *_, model, language = axes
    if model not in MODEL_ORDER or language not in MODEL_LANGUAGES[model]:
        names = "/".join(axis.value for axis in axes)
        raise ValueError(f"Figure 1 has no cell for {names}")


class ISA(enum.Enum):
    """Virtual instruction-set architectures of the simulated devices."""

    PTX = "ptx"  # NVIDIA
    AMDGCN = "amdgcn"  # AMD
    SPIRV = "spirv"  # Intel

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The native ISA of each vendor's devices.
VENDOR_ISA: dict[Vendor, ISA] = {
    Vendor.NVIDIA: ISA.PTX,
    Vendor.AMD: ISA.AMDGCN,
    Vendor.INTEL: ISA.SPIRV,
}

ISA_VENDOR: dict[ISA, Vendor] = {isa: v for v, isa in VENDOR_ISA.items()}


class Provider(enum.Enum):
    """Who provides a support route (drives the §3 category split)."""

    NVIDIA = "NVIDIA"
    AMD = "AMD"
    INTEL = "Intel"
    HPE = "HPE"  # Cray Programming Environment
    COMMUNITY = "community"  # GCC, LLVM, Open SYCL, Kokkos, Alpaka, ...

    def is_device_vendor(self, vendor: Vendor) -> bool:
        """True when this provider *is* the vendor of the device."""
        return self.value == vendor.value


PROVIDER_OF_VENDOR: dict[Vendor, Provider] = {
    Vendor.NVIDIA: Provider.NVIDIA,
    Vendor.AMD: Provider.AMD,
    Vendor.INTEL: Provider.INTEL,
}


class Maturity(enum.Enum):
    """Lifecycle state of a route's implementation (from the §4 prose)."""

    PRODUCTION = "production"
    EXPERIMENTAL = "experimental"
    RESEARCH = "research"
    UNMAINTAINED = "unmaintained"

    @property
    def is_dependable(self) -> bool:
        """Routes below this bar can at best yield *limited support*."""
        return self is Maturity.PRODUCTION


class Mechanism(enum.Enum):
    """How a route realizes support for a model on a platform."""

    NATIVE = "native"  # the device vendor's own direct implementation
    MAPPING = "mapping"  # runtime/compile-time mapping onto a native model
    TRANSLATION = "translation"  # source-to-source conversion tool
    LAYERED = "layered"  # higher-level library over a native backend
    BINDINGS = "bindings"  # pre-made FFI interfaces (e.g. hipfort)


class SupportCategory(enum.Enum):
    """The six rating categories of §3, ordered from best to worst.

    The ``symbol`` is a plain-text rendering of the paper's glyphs so the
    table renderers can reproduce Figure 1's look in a terminal.
    """

    FULL = ("full support", "●", 5)
    INDIRECT = ("indirect good support", "◉", 4)
    SOME = ("some support", "◐", 3)
    NONVENDOR = ("non-vendor good support", "○", 2)
    LIMITED = ("limited support", "◌", 1)
    NONE = ("no support", "✗", 0)

    def __init__(self, label: str, symbol: str, rank: int):
        self.label = label
        self.symbol = symbol
        self.rank = rank

    @property
    def is_usable(self) -> bool:
        """Whether a scientist could base an application on this support."""
        return self.rank >= SupportCategory.NONVENDOR.rank

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


#: Order in which categories are listed in §3 (best first).
CATEGORY_ORDER = (
    SupportCategory.FULL,
    SupportCategory.INDIRECT,
    SupportCategory.SOME,
    SupportCategory.NONVENDOR,
    SupportCategory.LIMITED,
    SupportCategory.NONE,
)


def all_cells() -> list[tuple[Vendor, Model, Language]]:
    """Enumerate the 51 (vendor, model, language) combinations of Figure 1."""
    cells: list[tuple[Vendor, Model, Language]] = []
    for vendor in VENDOR_ORDER:
        for model in MODEL_ORDER:
            for language in MODEL_LANGUAGES[model]:
                cells.append((vendor, model, language))
    return cells
