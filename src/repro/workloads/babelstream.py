"""BabelStream across all programming models and vendors.

The paper's §5 points to BabelStream [53] as "closest to a performance
overview ... although only for a STREAM-like algorithm" and names
performance evaluation as the natural future extension.  This module
realizes it on the simulated ecosystem: the five BabelStream kernels
(Copy, Mul, Add, Triad, Dot) run through each programming model's own
API on each vendor's device, and the simulated roofline timing yields
GB/s figures whose *shape* (per-vendor bandwidth ordering, model
overheads) is the result of interest.

Methodology mirrors the original benchmark: arrays initialized to the
canonical values (a=0.1, b=0.2, c=0.0), kernels run ``reps`` times,
the best (minimum) time per kernel is reported, and results are
verified against the analytically known final values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import counters
from repro import kernels as KL
from repro.enums import Vendor
from repro.errors import ApiError
from repro.gpu.device import Device
from repro.kernels import BLOCK

#: Canonical BabelStream initial values and scalar.
INIT_A, INIT_B, INIT_C = 0.1, 0.2, 0.0
SCALAR = 0.4

#: The five kernels, in canonical benchmark order.
STREAM_KERNELS = ("copy", "mul", "add", "triad", "dot")

#: Arrays touched per element by each kernel (the GB/s denominator).
STREAM_MOVED_ARRAYS = {"copy": 2, "mul": 2, "add": 3, "triad": 3, "dot": 2}


@dataclass
class StreamResult:
    """Best-of-reps bandwidths for one (model, vendor) combination."""

    model: str
    vendor: Vendor
    device: str
    via: str
    n: int
    dtype_bytes: int = 8
    best_seconds: dict[str, float] = field(default_factory=dict)
    verified: bool = False
    kernels_executed: int = 0

    def bandwidth_gbs(self, kernel: str) -> float:
        moved = STREAM_MOVED_ARRAYS[kernel] * self.n * self.dtype_bytes
        return moved / self.best_seconds[kernel] / 1e9

    def row(self) -> str:
        cells = "  ".join(
            f"{k}:{self.bandwidth_gbs(k):8.1f}" for k in
            ("copy", "mul", "add", "triad", "dot")
        )
        flag = "ok" if self.verified else "FAILED-VERIFY"
        return (f"{self.model:10s} {self.vendor.value:7s} "
                f"{cells}  GB/s  [{flag}] via {self.via}")


class _Adapter:
    """Per-model driver: allocate arrays and run the five kernels.

    ``runtime_factory`` (optional) injects a pre-wired runtime chain —
    this is how the performance-portability layer drives the kernels
    through an arbitrary *route* (translator + toolchain and all)
    instead of the adapter's default toolchain choice.
    """

    via = "?"

    def __init__(self, device: Device, n: int,
                 runtime_factory: Callable[[], object] | None = None):
        self.device = device
        self.n = n
        self.runtime_factory = runtime_factory

    def setup(self) -> None:
        raise NotImplementedError

    def copy(self) -> None:
        raise NotImplementedError

    def mul(self) -> None:
        raise NotImplementedError

    def add(self) -> None:
        raise NotImplementedError

    def triad(self) -> None:
        raise NotImplementedError

    def dot(self) -> float:
        raise NotImplementedError

    def read_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class _RuntimeAdapter(_Adapter):
    """Shared implementation for runtimes with launch_n-style dispatch."""

    def _make_runtime(self):
        raise NotImplementedError

    def _launch(self, kern, args, grid=None):
        raise NotImplementedError

    def setup(self) -> None:
        self.rt = (self.runtime_factory() if self.runtime_factory is not None
                   else self._make_runtime())
        n = self.n
        self.a = self.rt.to_device(np.full(n, INIT_A))
        self.b = self.rt.to_device(np.full(n, INIT_B))
        self.c = self.rt.to_device(np.full(n, INIT_C))
        self.sum = self.rt.alloc(np.float64, 1)

    def copy(self) -> None:
        self._launch(KL.stream_copy, [self.n, self.a, self.c])

    def mul(self) -> None:
        self._launch(KL.stream_mul, [self.n, SCALAR, self.b, self.c])

    def add(self) -> None:
        self._launch(KL.stream_add, [self.n, self.a, self.b, self.c])

    def triad(self) -> None:
        self._launch(KL.stream_triad, [self.n, SCALAR, self.a, self.b, self.c])

    def dot(self) -> float:
        self.sum.copy_from_host(np.zeros(1))
        grid = min(256, (self.n + BLOCK - 1) // BLOCK)
        self._launch(KL.stream_dot, [self.n, self.a, self.b, self.sum],
                     grid=grid)
        return float(self.sum.copy_to_host()[0])

    def read_arrays(self):
        return (self.a.copy_to_host(), self.b.copy_to_host(),
                self.c.copy_to_host())

    def teardown(self) -> None:
        for arr in (self.a, self.b, self.c, self.sum):
            arr.free()


class _CudaAdapter(_RuntimeAdapter):
    via = "CUDA (nvcc)"
    toolchain = "nvcc"

    def _make_runtime(self):
        from repro.models.cuda import Cuda

        return Cuda(self.device, self.toolchain)

    def _launch(self, kern, args, grid=None):
        if grid is None:
            self.rt.launch_1d(kern, self.n, args)
        else:
            self.rt.launch_kernel(kern, (grid,), (BLOCK,), args)


class _CudaHipifyAdapter(_CudaAdapter):
    via = "CUDA -> HIPIFY -> hipcc"
    toolchain = "hipcc"

    def _make_runtime(self):
        from repro.models.cuda import Cuda
        from repro.translate import Hipify

        rt = Cuda(self.device, "hipcc")
        rt.translator = Hipify()
        return rt


class _HipAdapter(_RuntimeAdapter):
    via = "HIP (hipcc)"

    def _make_runtime(self):
        from repro.models.hip import Hip

        return Hip(self.device, "hipcc")

    def _launch(self, kern, args, grid=None):
        if grid is None:
            self.rt.launch_1d(kern, self.n, args)
        else:
            self.rt.launch_kernel(kern, (grid,), (BLOCK,), args)


class _SyclAdapter(_RuntimeAdapter):
    via = "SYCL (dpcpp)"

    def _make_runtime(self):
        from repro.models.sycl import SyclQueue

        return SyclQueue(self.device, "dpcpp")

    def _launch(self, kern, args, grid=None):
        from repro.models.sycl import NdRange, Range

        if grid is None:
            self.rt.parallel_for(Range(self.n), kern, args)
        else:
            self.rt.parallel_for(NdRange(grid * BLOCK, BLOCK), kern, args)


class _OpenMPAdapter(_RuntimeAdapter):
    _TOOLCHAINS = {Vendor.NVIDIA: "nvhpc", Vendor.AMD: "aomp",
                   Vendor.INTEL: "dpcpp"}

    @property
    def via(self):  # type: ignore[override]
        return f"OpenMP ({self._TOOLCHAINS[self.device.vendor]})"

    def _make_runtime(self):
        from repro.models.openmp import OpenMP

        return OpenMP(self.device, self._TOOLCHAINS[self.device.vendor])

    def _launch(self, kern, args, grid=None):
        if grid is None:
            self.rt.target_loop(self.n, kern, args)
        else:
            binary = self.rt.compile(
                [kern], ["omp:target", "omp:teams", "omp:distribute",
                         "omp:parallel_for", "omp:map", "omp:reduction"],
            )
            self.rt.launch(binary, kern.name, (grid,), (BLOCK,), args)


class _OpenACCAdapter(_RuntimeAdapter):
    _TOOLCHAINS = {Vendor.NVIDIA: "nvhpc", Vendor.AMD: "clacc"}

    @property
    def via(self):  # type: ignore[override]
        return f"OpenACC ({self._TOOLCHAINS[self.device.vendor]})"

    def _make_runtime(self):
        from repro.models.openacc import OpenACC

        return OpenACC(self.device, self._TOOLCHAINS[self.device.vendor])

    def _launch(self, kern, args, grid=None):
        if grid is None:
            self.rt.parallel_loop(self.n, kern, args)
        else:
            self.rt.parallel_loop(self.n, kern, args,
                                  reduction="+: sum", gang=grid, vector=BLOCK)


class _StdParAdapter(_RuntimeAdapter):
    _TOOLCHAINS = {Vendor.NVIDIA: "nvhpc", Vendor.AMD: "roc-stdpar",
                   Vendor.INTEL: "onedpl"}

    @property
    def via(self):  # type: ignore[override]
        return f"stdpar ({self._TOOLCHAINS[self.device.vendor]})"

    def _make_runtime(self):
        from repro.models.stdpar import StdPar

        return StdPar(self.device, self._TOOLCHAINS[self.device.vendor])

    def _launch(self, kern, args, grid=None):
        features = ["stdpar:transform"] if grid is None else ["stdpar:transform_reduce"]
        self.rt.launch_n(kern, self.n, args, features=features, grid=grid)


class _KokkosAdapter(_Adapter):
    via = "Kokkos"

    def setup(self) -> None:
        from repro.models.kokkos import Kokkos, deep_copy

        self.kk = (self.runtime_factory() if self.runtime_factory is not None
                   else Kokkos(self.device))
        self._deep_copy = deep_copy
        n = self.n
        self.a = self.kk.view("a", n)
        self.b = self.kk.view("b", n)
        self.c = self.kk.view("c", n)
        self.sum = self.kk.view("sum", 1)
        deep_copy(self.a, np.full(n, INIT_A))
        deep_copy(self.b, np.full(n, INIT_B))
        deep_copy(self.c, np.full(n, INIT_C))

    def _pf(self, kern, args, grid=None):
        from repro.models.kokkos import RangePolicy

        if grid is None:
            self.kk.parallel_for("stream", RangePolicy(self.n), kern, args)
        else:
            self.kk._launch_1d(kern, self.n, self.kk._args(args), grid=grid)

    def copy(self):
        self._pf(KL.stream_copy, [self.n, self.a, self.c])

    def mul(self):
        self._pf(KL.stream_mul, [self.n, SCALAR, self.b, self.c])

    def add(self):
        self._pf(KL.stream_add, [self.n, self.a, self.b, self.c])

    def triad(self):
        self._pf(KL.stream_triad, [self.n, SCALAR, self.a, self.b, self.c])

    def dot(self) -> float:
        self._deep_copy(self.sum, np.zeros(1))
        grid = min(256, (self.n + BLOCK - 1) // BLOCK)
        self._pf(KL.stream_dot, [self.n, self.a, self.b, self.sum], grid=grid)
        out = np.zeros(1)
        self._deep_copy(out, self.sum)
        return float(out[0])

    def read_arrays(self):
        out = []
        for view in (self.a, self.b, self.c):
            host = view.create_mirror_view()
            self._deep_copy(host, view)
            out.append(host)
        return tuple(out)

    def teardown(self):
        for view in (self.a, self.b, self.c, self.sum):
            view.free()


class _AlpakaAdapter(_Adapter):
    via = "Alpaka"

    def setup(self) -> None:
        from repro.models.alpaka import Alpaka

        self.acc = (self.runtime_factory() if self.runtime_factory is not None
                    else Alpaka(self.device))
        n = self.n
        self.a = self.acc.alloc_buf(n)
        self.b = self.acc.alloc_buf(n)
        self.c = self.acc.alloc_buf(n)
        self.sum = self.acc.alloc_buf(1)
        self.acc.memcpy_to(self.a, np.full(n, INIT_A))
        self.acc.memcpy_to(self.b, np.full(n, INIT_B))
        self.acc.memcpy_to(self.c, np.full(n, INIT_C))

    def _exec(self, kern, args, grid=None):
        from repro.models.alpaka import WorkDiv

        if grid is None:
            self.acc.exec_elements(self.n, kern, args)
        else:
            self.acc.exec(WorkDiv(grid, BLOCK), kern, args)

    def copy(self):
        self._exec(KL.stream_copy, [self.n, self.a, self.c])

    def mul(self):
        self._exec(KL.stream_mul, [self.n, SCALAR, self.b, self.c])

    def add(self):
        self._exec(KL.stream_add, [self.n, self.a, self.b, self.c])

    def triad(self):
        self._exec(KL.stream_triad, [self.n, SCALAR, self.a, self.b, self.c])

    def dot(self) -> float:
        self.acc.memcpy_to(self.sum, np.zeros(1))
        grid = min(256, (self.n + BLOCK - 1) // BLOCK)
        self._exec(KL.stream_dot, [self.n, self.a, self.b, self.sum], grid=grid)
        return float(self.acc.memcpy_from(self.sum)[0])

    def read_arrays(self):
        return (self.acc.memcpy_from(self.a), self.acc.memcpy_from(self.b),
                self.acc.memcpy_from(self.c))

    def teardown(self):
        for buf in (self.a, self.b, self.c, self.sum):
            buf.free()


class _DoConcurrentAdapter(_RuntimeAdapter):
    """Fortran ``do concurrent`` (description 12/27/41)."""

    _TOOLCHAINS = {Vendor.NVIDIA: "nvhpc", Vendor.INTEL: "ifx"}

    @property
    def via(self):  # type: ignore[override]
        tc = self._TOOLCHAINS.get(self.device.vendor, "?")
        return f"do concurrent ({tc})"

    def _make_runtime(self):
        from repro.models.stdpar import DoConcurrent

        return DoConcurrent(self.device, self._TOOLCHAINS[self.device.vendor])

    def _launch(self, kern, args, grid=None):
        if grid is None:
            self.rt.do_concurrent(self.n, kern, args)
        else:
            self.rt.do_concurrent(self.n, kern, args, reduce="+:sum")


class _PythonAdapter(_Adapter):
    _PACKAGES = {Vendor.NVIDIA: "cupy", Vendor.AMD: "cupy-rocm",
                 Vendor.INTEL: "dpnp"}

    @property
    def via(self):  # type: ignore[override]
        return f"Python ({self._PACKAGES[self.device.vendor]})"

    def setup(self) -> None:
        from repro.models.pymodels import make_package

        self.pkg = (self.runtime_factory()
                    if self.runtime_factory is not None else
                    make_package(self._PACKAGES[self.device.vendor],
                                 self.device))
        n = self.n
        self.a = self.pkg.asarray(np.full(n, INIT_A))
        self.b = self.pkg.asarray(np.full(n, INIT_B))
        self.c = self.pkg.asarray(np.full(n, INIT_C))
        self._copy_k = self.pkg.raw_kernel(KL.stream_copy)
        self._mul_k = self.pkg.raw_kernel(KL.stream_mul)
        self._add_k = self.pkg.raw_kernel(KL.stream_add)
        self._triad_k = self.pkg.raw_kernel(KL.stream_triad)

    def copy(self):
        self._copy_k(self.n, [self.n, self.a, self.c])

    def mul(self):
        self._mul_k(self.n, [self.n, SCALAR, self.b, self.c])

    def add(self):
        self._add_k(self.n, [self.n, self.a, self.b, self.c])

    def triad(self):
        self._triad_k(self.n, [self.n, SCALAR, self.a, self.b, self.c])

    def dot(self) -> float:
        return self.pkg.dot(self.a, self.b)

    def read_arrays(self):
        return (self.a.get(), self.b.get(), self.c.get())

    def teardown(self):
        for arr in (self.a, self.b, self.c):
            arr.free()


#: model name -> (adapter class, vendors it runs on)
BABELSTREAM_MODELS: dict[str, tuple[type, tuple[Vendor, ...]]] = {
    "CUDA": (_CudaAdapter, (Vendor.NVIDIA,)),
    "CUDA-hipified": (_CudaHipifyAdapter, (Vendor.AMD,)),
    "HIP": (_HipAdapter, (Vendor.AMD, Vendor.NVIDIA)),
    "SYCL": (_SyclAdapter, (Vendor.INTEL, Vendor.NVIDIA, Vendor.AMD)),
    "OpenMP": (_OpenMPAdapter, (Vendor.NVIDIA, Vendor.AMD, Vendor.INTEL)),
    "OpenACC": (_OpenACCAdapter, (Vendor.NVIDIA, Vendor.AMD)),
    "stdpar": (_StdParAdapter, (Vendor.NVIDIA, Vendor.AMD, Vendor.INTEL)),
    "Kokkos": (_KokkosAdapter, (Vendor.NVIDIA, Vendor.AMD, Vendor.INTEL)),
    "Alpaka": (_AlpakaAdapter, (Vendor.NVIDIA, Vendor.AMD, Vendor.INTEL)),
    "Python": (_PythonAdapter, (Vendor.NVIDIA, Vendor.AMD, Vendor.INTEL)),
}


#: probe suite (as named by the route registry) -> adapter that can drive
#: a runtime of that family through the five stream kernels.  The perf
#: layer pairs this with ``runtime_factory=route.chain`` so any route —
#: translated, layered or native — runs the same benchmark.
SUITE_ADAPTERS: dict[str, type[_Adapter]] = {
    "cuda_cpp": _CudaAdapter,
    "cuda_fortran": _CudaAdapter,
    "hip_cpp": _HipAdapter,
    "hip_fortran": _HipAdapter,
    "sycl_cpp": _SyclAdapter,
    "openmp": _OpenMPAdapter,
    "openacc": _OpenACCAdapter,
    "stdpar_cpp": _StdParAdapter,
    "stdpar_fortran": _DoConcurrentAdapter,
    "kokkos": _KokkosAdapter,
    "alpaka": _AlpakaAdapter,
    "python": _PythonAdapter,
}


def available_models(vendor: Vendor) -> list[str]:
    """BabelStream implementations available for a vendor."""
    return [name for name, (_cls, vendors) in BABELSTREAM_MODELS.items()
            if vendor in vendors]


def _verify(n: int, reps: int, arrays, dot_value: float) -> bool:
    """Replay the kernel sequence on one element per array and compare:
    the arrays start constant and all kernels but dot are elementwise, so
    one element has every element's expected bits; dot is ``n * a * b``."""
    a, b, c = INIT_A, INIT_B, INIT_C
    expected_dot = 0.0
    for _ in range(reps):
        c = a                # copy
        b = SCALAR * c       # mul
        c = a + b            # add
        a = b + SCALAR * c   # triad
        expected_dot = n * (a * b)
    got_a, got_b, got_c = arrays
    return bool(
        np.allclose(got_a, a) and np.allclose(got_b, b)
        and np.allclose(got_c, c) and np.isclose(dot_value, expected_dot)
    )


def stream_totals() -> dict[str, int]:
    """BabelStream ``runs`` and ``kernels`` executed, process-wide (the
    ``stream.*`` counts of :mod:`repro.counters`)."""
    counts = counters.snapshot()
    return {"runs": counts["stream.runs"], "kernels": counts["stream.kernels"]}


def execute_stream(adapter: _Adapter, reps: int, model: str,
                   via: str | None = None) -> StreamResult:
    """Best-of-``reps`` timed run of the five kernels through ``adapter``.

    The shared core behind :func:`run_babelstream` (per-model entry
    point) and the perf-portability layer (per-route entry point, with
    an injected runtime chain).  Each adapter-level kernel dispatch
    bumps ``kernels_executed`` — the counter the warm-store tests
    assert is zero on a rerun.
    """
    device = adapter.device
    n = adapter.n
    adapter.setup()
    result = StreamResult(
        model=model, vendor=device.vendor, device=device.spec.name,
        via=via if via is not None else adapter.via, n=n,
    )

    def timed(fn) -> float:
        t0 = device.synchronize()
        fn()
        result.kernels_executed += 1
        return device.synchronize() - t0

    dot_value = 0.0
    for kernel in STREAM_KERNELS:
        result.best_seconds[kernel] = float("inf")
    for _ in range(reps):
        result.best_seconds["copy"] = min(result.best_seconds["copy"],
                                          timed(adapter.copy))
        result.best_seconds["mul"] = min(result.best_seconds["mul"],
                                         timed(adapter.mul))
        result.best_seconds["add"] = min(result.best_seconds["add"],
                                         timed(adapter.add))
        result.best_seconds["triad"] = min(result.best_seconds["triad"],
                                           timed(adapter.triad))
        t0 = device.synchronize()
        dot_value = adapter.dot()
        result.kernels_executed += 1
        result.best_seconds["dot"] = min(result.best_seconds["dot"],
                                         device.synchronize() - t0)
    result.verified = _verify(n, reps, adapter.read_arrays(), dot_value)
    adapter.teardown()
    counters.merge({"stream.runs": 1,
                    "stream.kernels": result.kernels_executed})
    return result


def run_babelstream(device: Device, model: str, n: int = 1 << 20,
                    reps: int = 3) -> StreamResult:
    """Run one model's BabelStream on one device."""
    try:
        adapter_cls, vendors = BABELSTREAM_MODELS[model]
    except KeyError:
        raise ApiError(f"unknown BabelStream model '{model}'") from None
    if device.vendor not in vendors:
        raise ApiError(
            f"BabelStream {model} is not available on {device.vendor.value}"
        )
    return execute_stream(adapter_cls(device, n), reps, model=model)
