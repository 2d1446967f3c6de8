"""Workloads: BabelStream harness and mini-applications."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro
from repro.enums import Vendor
from repro.errors import ApiError
from repro.models.cuda import Cuda
from repro.models.hip import Hip
from repro.models.openacc import OpenACC
from repro.models.sycl import SyclQueue
from repro.workloads import available_models, run_babelstream
from repro.workloads.babelstream import BABELSTREAM_MODELS, _verify
from repro.workloads.miniapps import (
    CUDA_MINIAPP_SOURCES,
    OPENACC_MINIAPP_SOURCES,
    jacobi_solve,
    nbody_step,
    run_histogram,
)


def test_available_models_per_vendor():
    assert "CUDA" in available_models(Vendor.NVIDIA)
    assert "CUDA" not in available_models(Vendor.AMD)
    assert "CUDA-hipified" in available_models(Vendor.AMD)
    assert "HIP" in available_models(Vendor.NVIDIA)
    assert "OpenACC" not in available_models(Vendor.INTEL)
    assert set(available_models(Vendor.INTEL)) >= {
        "SYCL", "OpenMP", "stdpar", "Kokkos", "Alpaka", "Python"}


def test_unknown_model_or_vendor_rejected(nvidia, intel):
    with pytest.raises(ApiError, match="unknown BabelStream model"):
        run_babelstream(nvidia, "RAJA")
    with pytest.raises(ApiError, match="not available"):
        run_babelstream(intel, "OpenACC")


def test_stream_result_verified_and_positive(nvidia):
    result = run_babelstream(nvidia, "CUDA", n=1 << 16, reps=2)
    assert result.verified
    for kernel in ("copy", "mul", "add", "triad", "dot"):
        assert result.best_seconds[kernel] > 0
        assert result.bandwidth_gbs(kernel) > 0
    assert "CUDA" in result.row()
    assert result.device == "H100-SXM5"


def test_stream_bandwidth_formula(nvidia):
    result = run_babelstream(nvidia, "CUDA", n=1 << 16, reps=1)
    copy_bytes = 2 * (1 << 16) * 8
    expected = copy_bytes / result.best_seconds["copy"] / 1e9
    assert result.bandwidth_gbs("copy") == pytest.approx(expected)


def test_host_verification_logic():
    n, reps = 64, 2
    a = np.full(n, 0.1)
    b = np.full(n, 0.2)
    c = np.full(n, 0.0)
    dot = 0.0
    for _ in range(reps):
        c[:] = a
        b[:] = 0.4 * c
        c[:] = a + b
        a[:] = b + 0.4 * c
        dot = float(a @ b)
    assert _verify(n, reps, (a, b, c), dot)
    assert not _verify(n, reps, (a + 1e-3, b, c), dot)
    assert not _verify(n, reps, (a, b, c), dot + 1.0)


def _full_replay(n, reps):
    """The host reference as n-element arrays and a BLAS dot."""
    a = np.full(n, 0.1)
    b = np.full(n, 0.2)
    c = np.full(n, 0.0)
    dot = 0.0
    for _ in range(reps):
        c[:] = a
        b[:] = 0.4 * c
        c[:] = a + b
        a[:] = b + 0.4 * c
        dot = float(a @ b)
    return a, b, c, dot


@pytest.mark.parametrize("reps", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 64, 10_001, 1 << 16])
def test_verify_verdicts_match_a_full_replay(n, reps):
    """The one-element replay passes and fails exactly what comparing
    against the full n-element replay does."""
    a, b, c, dot = _full_replay(n, reps)
    off_c = c.copy()
    off_c[n // 2] += 1e-3
    cases = [((a, b, c), dot, True), ((a, b, off_c), dot, False),
             ((a, b, c), dot + 1.0, False)]
    if reps:
        cases.append(((a, b, c), dot * (1 + 2e-5), False))
    for arrays, got_dot, want in cases:
        full = (all(map(np.allclose, arrays, (a, b, c)))
                and np.isclose(got_dot, dot))
        assert _verify(n, reps, arrays, got_dot) is want
        assert bool(full) is want


def test_verify_costs_reps_not_n():
    """At n = 2^40 (8 TiB per array) one-element arrays holding the
    replayed values verify, and nothing n-sized is allocated."""
    n, reps = 1 << 40, 3
    a, b, c, dot = _full_replay(1, reps)
    tracemalloc.start()
    try:
        ok = _verify(n, reps, (a, b, c), n * dot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 1 << 16, peak


_OTHER_THREADS_CPU = """
import resource, time
from repro.enums import Vendor
from repro.gpu.runtime import get_device
from repro.workloads import run_babelstream

def other_threads():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime - time.thread_time()

device = get_device(Vendor.NVIDIA)
run_babelstream(device, "CUDA", n=1 << 16, reps=3)
time.sleep(0.1)
before = other_threads()
assert run_babelstream(device, "CUDA", n=1 << 16, reps=3).verified
time.sleep(0.1)
print(other_threads() - before)
"""


def test_stream_run_burns_no_cpu_on_other_threads():
    """Verification calls no BLAS: above 10,000 elements a BLAS dot wakes
    a helper thread that then spins, under the caller's own work."""
    src = pathlib.Path(repro.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _OTHER_THREADS_CPU], capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 0.02


def test_bigger_n_scales_toward_peak(nvidia):
    small = run_babelstream(nvidia, "CUDA", n=1 << 14, reps=1)
    big = run_babelstream(nvidia, "CUDA", n=1 << 21, reps=1)
    assert big.bandwidth_gbs("triad") > small.bandwidth_gbs("triad")


def test_all_model_adapters_registered():
    assert len(BABELSTREAM_MODELS) == 10
    for name, (_cls, vendors) in BABELSTREAM_MODELS.items():
        assert vendors, name


# -- miniapps -----------------------------------------------------------------


def test_jacobi_converges_toward_boundary(nvidia):
    grid = jacobi_solve(Cuda(nvidia), 32, 32, iterations=500)
    # Hot top row diffuses downward: rows monotone decreasing from top.
    assert grid[0, 16] == 100.0
    assert grid[1, 16] > grid[5, 16] > grid[20, 16] >= 0.0


def test_jacobi_same_result_across_models(nvidia, amd, intel):
    results = [
        jacobi_solve(Cuda(nvidia), 24, 24, 50),
        jacobi_solve(Hip(amd), 24, 24, 50),
        jacobi_solve(SyclQueue(intel), 24, 24, 50),
        jacobi_solve(OpenACC(nvidia, "nvhpc"), 24, 24, 50),
    ]
    for other in results[1:]:
        np.testing.assert_allclose(results[0], other)


def test_nbody_symmetry(intel):
    """Two bodies attract each other with equal and opposite force."""
    acc = nbody_step(SyclQueue(intel), n=128)
    assert acc.shape == (128, 2)
    total = acc.sum(axis=0)
    np.testing.assert_allclose(total, [0.0, 0.0], atol=1e-9)


def test_histogram_self_checks(amd):
    bins = run_histogram(Hip(amd), n=20_000, nbins=32)
    assert bins.sum() == 20_000
    assert bins.shape == (32,)


def test_miniapp_sources_are_real_cuda():
    for name, source in CUDA_MINIAPP_SOURCES.items():
        low = source.lower()
        assert "cuda" in low or "cublas" in low, name
    assert "__global__" in CUDA_MINIAPP_SOURCES["saxpy"]
    for name, source in OPENACC_MINIAPP_SOURCES.items():
        assert "acc" in source, name
