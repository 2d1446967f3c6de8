"""Kernels, modules, and ISA-targeted binaries."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field

from repro.enums import ISA
from repro.isa.instructions import (
    AtomicOp,
    Instruction,
    Load,
    Param,
    SharedAlloc,
    Store,
    walk,
)
from repro.isa.instructions import MemSpace


def clone_ir(obj):
    """Structural clone of an IR tree (kernel, body, module).

    The optimization and legalization pipelines each clone every kernel
    before mutating it; with ~500 compiles per matrix build the generic
    ``copy.deepcopy`` recursion was ~a third of the cold build.  A
    pickle round-trip builds the identical object graph in C (~2.5x
    faster); ``deepcopy`` stays as the fallback for exotic payloads.
    """
    try:
        return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return copy.deepcopy(obj)


@dataclass
class KernelIR:
    """A single device kernel in the abstract IR.

    Attributes:
        name: Kernel symbol name (must be unique within a module).
        params: Ordered kernel parameters.
        body: Top-level instruction list (structured control flow nests).
        features: Free-form feature tags attached by the producing
            frontend (e.g. ``"reduction"``, ``"shuffle"``); toolchains use
            these to reject kernels they cannot lower.
    """

    name: str
    params: list[Param] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)
    features: frozenset[str] = frozenset()

    @property
    def shared_bytes(self) -> int:
        """Total statically-allocated shared memory, in bytes."""
        total = 0
        for instr in self.body:
            if isinstance(instr, SharedAlloc):
                total += instr.dtype.itemsize * instr.count
        return total

    def uses_shared(self) -> bool:
        """Whether any instruction touches the shared address space."""
        for instr in walk(self.body):
            if isinstance(instr, SharedAlloc):
                return True
            if (isinstance(instr, (Load, Store, AtomicOp))
                    and instr.space == MemSpace.SHARED):
                return True
        return False

    def instruction_count(self) -> int:
        """Total instructions, including nested bodies."""
        return sum(1 for _ in walk(self.body))

    def content(self) -> bytes:
        """What a content hash of this kernel covers, as one bytes object.

        ``#name(params)``, the body's repr, then ``+tag`` per sorted
        feature, encoded.  Instruction and operand dataclasses have
        content-based reprs, so the body's repr is a stable structural
        fingerprint.  The compile cache, the trace cache and the store
        fingerprints all hash these bytes, so a kernel edit reaches
        every one.  Computed on first call and kept on the kernel, since
        shared IR is never mutated; copies start without it.
        """
        try:
            return self._content
        except AttributeError:
            pass
        params = ",".join(
            f"{p.name}:{'*' if p.is_pointer else ''}{p.dtype.name}"
            for p in self.params
        )
        tags = "".join(f"+{tag}" for tag in sorted(self.features))
        self._content = f"#{self.name}({params}){self.body!r}{tags}".encode()
        return self._content

    def __getstate__(self) -> dict:
        """Pickle, ``copy`` and ``clone_ir`` state, minus cached content:
        a copy is what gets rewritten."""
        state = self.__dict__.copy()
        state.pop("_content", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sig = ", ".join(
            f"{p.name}:{'*' if p.is_pointer else ''}{p.dtype.name}" for p in self.params
        )
        return f"<kernel {self.name}({sig}) {self.instruction_count()} instrs>"


@dataclass
class ModuleIR:
    """A collection of kernels in the abstract (target-independent) IR."""

    name: str
    kernels: dict[str, KernelIR] = field(default_factory=dict)

    def add(self, kernel: KernelIR) -> KernelIR:
        if kernel.name in self.kernels:
            raise ValueError(f"duplicate kernel '{kernel.name}' in module '{self.name}'")
        self.kernels[kernel.name] = kernel
        return kernel

    def __getitem__(self, name: str) -> KernelIR:
        return self.kernels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.kernels

    def __iter__(self):
        return iter(self.kernels.values())


@dataclass
class TargetModule:
    """A module legalized for one concrete ISA ("device binary").

    Produced by :func:`repro.isa.targets.legalize`; the only artifact a
    simulated device will load.  ``warp_size`` is baked in at legalization
    time (PTX: 32, AMDGCN: 64, SPIR-V: configurable sub-group, default 16),
    matching how real binaries encode their execution width.
    """

    module: ModuleIR
    isa: ISA
    warp_size: int
    producer: str = "unknown"  # toolchain identifier, for provenance

    @property
    def name(self) -> str:
        return self.module.name

    def kernel(self, name: str):
        return self.module.kernels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.module.kernels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<binary {self.module.name} isa={self.isa.value} "
            f"warp={self.warp_size} kernels={sorted(self.module.kernels)} "
            f"by {self.producer}>"
        )
