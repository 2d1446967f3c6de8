"""The simulated GPU device.

A :class:`Device` owns memory, streams, and a perf model, and — the part
the compatibility matrix hinges on — **only loads binaries in its native
ISA**.  Handing a PTX module to a simulated MI250X raises
:class:`~repro.errors.InvalidBinaryError`, exactly the gate that makes
"model X is (un)supported on vendor Y" an executable fact rather than a
table entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidBinaryError, LaunchError
from repro.gpu.memory import Allocation, DeviceMemory
from repro.gpu.perfmodel import LaunchTiming, PerfModel
from repro.gpu.specs import DeviceSpec
from repro.gpu.stream import Event, Stream
from repro.isa.interpreter import KernelExecutor, LaunchStats
from repro.isa.module import TargetModule

#: Host RAM reserved per simulated device by default.  The simulated
#: capacity (spec.memory_bytes) is what allocation limits advertise; the
#: backing arena is what we can actually address.
DEFAULT_BACKING_BYTES = 96 * 1024 * 1024


@dataclass
class DeviceCounters:
    """Cumulative activity counters (exposed for tests and reports)."""

    launches: int = 0
    h2d_copies: int = 0
    d2h_copies: int = 0
    d2d_copies: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    modules_loaded: int = 0
    stats: LaunchStats = field(default_factory=LaunchStats)


class Device:
    """One simulated GPU."""

    def __init__(self, spec: DeviceSpec, backing_bytes: int = DEFAULT_BACKING_BYTES,
                 device_id: int = 0, bandwidth_only_model: bool = False):
        self.spec = spec
        self.device_id = device_id
        self.memory = DeviceMemory(backing_bytes, simulated_bytes=spec.memory_bytes)
        self.perf = PerfModel(spec, bandwidth_only=bandwidth_only_model)
        self.default_stream = Stream(self, default=True)
        self.streams: list[Stream] = [self.default_stream]
        self.counters = DeviceCounters()
        self.tracer = None  # optional repro.gpu.trace.Tracer
        self.now_s: float = 0.0  # simulated host-visible time
        self._modules: dict[str, TargetModule] = {}
        self._executors: dict[tuple[int, str], KernelExecutor] = {}

    # -- identity ---------------------------------------------------------------

    @property
    def vendor(self):
        return self.spec.vendor

    @property
    def isa(self):
        return self.spec.isa

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Device {self.spec.name} ({self.spec.vendor.value}, {self.isa.value})>"

    # -- memory -------------------------------------------------------------

    def alloc(self, nbytes: int) -> Allocation:
        if nbytes > self.spec.memory_bytes:
            raise LaunchError(
                f"allocation of {nbytes} B exceeds simulated capacity "
                f"{self.spec.memory_bytes} B of {self.spec.name}"
            )
        return self.memory.alloc(nbytes)

    def alloc_like(self, host: np.ndarray) -> Allocation:
        return self.alloc(host.nbytes)

    def free(self, allocation: Allocation | int) -> None:
        self.memory.free(allocation)

    def memcpy_h2d(self, dst: Allocation | int, host: np.ndarray,
                   stream: Stream | None = None) -> None:
        self.memory.upload(dst, host)
        s = stream or self.default_stream
        s.push(self.perf.time_transfer(host.nbytes),
               label=f"H2D {host.nbytes}B", category="memcpy")
        self.counters.h2d_copies += 1
        self.counters.bytes_h2d += host.nbytes

    def memcpy_d2h(self, src: Allocation | int, dtype: np.dtype, count: int,
                   stream: Stream | None = None) -> np.ndarray:
        dtype = np.dtype(dtype)
        out = self.memory.download(src, dtype, count)
        s = stream or self.default_stream
        s.push(self.perf.time_transfer(out.nbytes),
               label=f"D2H {out.nbytes}B", category="memcpy")
        self.counters.d2h_copies += 1
        self.counters.bytes_d2h += out.nbytes
        return out

    def memcpy_d2d(self, dst: Allocation | int, src: Allocation | int,
                   nbytes: int, stream: Stream | None = None) -> None:
        self.memory.copy_within(dst, src, nbytes)
        s = stream or self.default_stream
        s.push(nbytes / (self.spec.bandwidth_gbs * 1e9 / 2),  # read+write
               label=f"D2D {nbytes}B", category="memcpy")
        self.counters.d2d_copies += 1

    # -- modules and launches -----------------------------------------------

    def load_module(self, binary: TargetModule) -> TargetModule:
        """Load a compiled module; refuses foreign ISAs."""
        if binary.isa != self.isa:
            raise InvalidBinaryError(
                f"{self.spec.name} ({self.isa.value}) cannot load a "
                f"{binary.isa.value} binary (produced by {binary.producer})"
            )
        self._modules[binary.name] = binary
        self.counters.modules_loaded += 1
        return binary

    def create_stream(self) -> Stream:
        s = Stream(self)
        self.streams.append(s)
        return s

    def create_event(self) -> Event:
        return Event(self)

    def launch(self, binary: TargetModule, kernel_name: str,
               grid, block, args, stream: Stream | None = None) -> LaunchTiming:
        """Execute a kernel and advance the stream's simulated timeline.

        ``args`` may contain :class:`Allocation` objects (converted to
        byte addresses) and Python scalars.
        """
        if binary.name not in self._modules:
            self.load_module(binary)
        if kernel_name not in binary:
            raise LaunchError(f"module '{binary.name}' has no kernel '{kernel_name}'")

        key = (id(binary), kernel_name)
        executor = self._executors.get(key)
        if executor is None:
            executor = KernelExecutor(
                binary.kernel(kernel_name),
                warp_size=binary.warp_size,
                global_memory=self.memory.buffer,
                validator=self.memory.validate,
                shared_limit=self.spec.shared_per_block,
                max_block_threads=self.spec.max_threads_per_block,
            )
            self._executors[key] = executor

        resolved = [int(a) if isinstance(a, Allocation) else a for a in args]
        stats = executor.launch(grid, block, resolved)
        timing = self.perf.time_launch(stats)
        s = stream or self.default_stream
        s.push(timing.seconds, label=kernel_name, category="kernel")
        self.counters.launches += 1
        self.counters.stats.merge(stats)
        return timing

    # -- synchronization ---------------------------------------------------

    def advance_host(self, t: float) -> None:
        self.now_s = max(self.now_s, t)

    def synchronize(self) -> float:
        """Drain every stream (cudaDeviceSynchronize analog)."""
        for s in self.streams:
            if not s.destroyed:
                self.advance_host(s.tail_s)
        return self.now_s
