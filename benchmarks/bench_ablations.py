"""ABLATIONS — sensitivity of the headline results to design choices.

DESIGN.md commits to four ablations:

1. **Classifier thresholds** — how the 51-cell agreement degrades as
   each coverage cut-point moves (shows the published ratings pin down
   a narrow, but non-empty, region of threshold space).
2. **Probe-suite size** — agreement when advanced probes are removed
   (demonstrates the matrix is genuinely probe-derived: with only the
   basic probes, partial implementations become indistinguishable from
   complete ones and agreement drops).
3. **Interpreter vectorization** — lane-vectorized SIMT execution vs. a
   per-thread reference; correctness equivalence plus the speedup that
   motivates the design (the guides' "vectorize the hot loop").
4. **Perf-model fidelity** — full roofline vs. bandwidth-only timing:
   compute-bound kernels (N-body) separate the models, streaming
   kernels don't.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classifier import Thresholds
from repro.core.matrix import build_matrix
from repro.core.report import compare
from repro.enums import Vendor


def test_threshold_sensitivity(artifacts_dir):
    """Agreement as a function of classifier cut-points."""
    variants = {
        "paper defaults": Thresholds(),
        "lax full (0.55)": Thresholds(full=0.55),
        "strict indirect (0.90)": Thresholds(indirect=0.90),
        "lax indirect (0.40)": Thresholds(indirect=0.40),
        "lax comprehensive (0.60)": Thresholds(comprehensive=0.60),
        "strict usable (0.65)": Thresholds(usable=0.65),
    }
    lines = []
    agreements = {}
    for label, thresholds in variants.items():
        report = compare(build_matrix(thresholds=thresholds))
        agreements[label] = report.agreement
        lines.append(f"{label:30s} agreement {report.agreement:.1%} "
                     f"({report.n_primary_matches}/51)")
    (artifacts_dir / "ablation_thresholds.txt").write_text("\n".join(lines) + "\n")
    assert agreements["paper defaults"] == 1.0
    # Moving most cut-points far enough breaks cells: the ratings carry
    # real information about where coverage boundaries lie.
    assert agreements["lax full (0.55)"] < 1.0        # NVHPC OpenMP -> FULL
    assert agreements["strict indirect (0.90)"] < 1.0  # HIPIFY -> SOME
    assert agreements["lax indirect (0.40)"] < 1.0    # hipfort -> INDIRECT
    assert agreements["strict usable (0.65)"] < 1.0   # AOMP -> LIMITED
    # The 'comprehensive' cut-point is the least sensitive: every
    # non-vendor route that wins a cell measures full coverage, so
    # loosening the bar to 0.60 flips only AMD·Python (PyOpenCL's 4/6
    # bindings coverage would then count as comprehensive).
    assert agreements["lax comprehensive (0.60)"] >= 49 / 51


def test_probe_suite_sensitivity(artifacts_dir):
    """Remove the advanced probes: partial coverage becomes invisible."""
    basic_methods = {
        "probe_kernels", "probe_target", "probe_queues", "probe_parallel",
        "probe_for_each", "probe_do_concurrent", "probe_range_for",
        "probe_exec", "probe_ufuncs",
    }

    full = compare(build_matrix())
    reduced = compare(
        build_matrix(probe_filter=lambda p: p.method in basic_methods)
    )
    lines = [
        f"full probe suites:    agreement {full.agreement:.1%}",
        f"basic-only probes:    agreement {reduced.agreement:.1%}",
        "cells that change with basic-only probes:",
    ]
    for comparison in reduced.mismatches:
        lines.append(f"  {comparison.vendor.value} · {comparison.model.value}"
                     f" · {comparison.language.value}: derived "
                     f"{comparison.derived_primary.label}, paper "
                     f"{comparison.expected.primary.label}")
    (artifacts_dir / "ablation_probes.txt").write_text("\n".join(lines) + "\n")
    assert full.agreement == 1.0
    # With only smoke probes, e.g. NVHPC OpenMP looks complete (FULL
    # instead of SOME): agreement must drop.
    assert reduced.agreement < full.agreement


def _run_reference_scalar(kernel, warp_size, mem, grid, block, args):
    """Scalar (one block per batch) execution for the vectorization
    ablation."""
    from repro.isa.interpreter import KernelExecutor

    ex = KernelExecutor(kernel, warp_size, mem, max_blocks_per_batch=1)
    return ex.launch(grid, block, args)


def test_vectorized_interpreter_equivalence():
    """Lane-vectorized and block-at-a-time execution agree bit-for-bit."""
    from repro import kernels as KL
    from repro.enums import ISA
    from repro.isa import KernelExecutor, ModuleIR, legalize

    n = 10_000
    mod = ModuleIR("ablate")
    mod.add(KL.stream_triad.ir)
    binary = legalize(mod, ISA.PTX, "ablation")
    rng = np.random.default_rng(3)
    b_h, c_h = rng.random(n), rng.random(n)

    results = []
    for width in (1, None):
        mem = np.zeros(1 << 19, dtype=np.uint8)
        mem[: n * 8] = np.zeros(n).view(np.uint8)
        mem[n * 8: 2 * n * 8] = b_h.view(np.uint8)
        mem[2 * n * 8: 3 * n * 8] = c_h.view(np.uint8)
        ex = KernelExecutor(binary.kernel("stream_triad"), binary.warp_size,
                            mem, max_blocks_per_batch=width)
        ex.launch(((n + 255) // 256,), (256,), [n, 0.4, 0, n * 8, 2 * n * 8])
        results.append(mem[: n * 8].view(np.float64).copy())
    assert np.array_equal(results[0], results[1])
    assert np.allclose(results[1], b_h + 0.4 * c_h)


def test_vectorization_speedup_benchmark(benchmark):
    """The wide-batch interpreter beats block-at-a-time execution."""
    import time

    from repro import kernels as KL
    from repro.enums import ISA
    from repro.isa import KernelExecutor, ModuleIR, legalize

    n = 1 << 16
    mod = ModuleIR("ablate2")
    mod.add(KL.stream_triad.ir)
    binary = legalize(mod, ISA.PTX, "ablation")
    mem = np.zeros(1 << 21, dtype=np.uint8)
    args = [n, 0.4, 0, n * 8, 2 * n * 8]
    grid, block = ((n + 255) // 256,), (256,)

    def run_vectorized():
        ex = KernelExecutor(binary.kernel("stream_triad"), 32, mem)
        return ex.launch(grid, block, args)

    stats = benchmark(run_vectorized)
    assert stats.threads == n

    # One timed reference pass with per-block batches (256 lanes each).
    t0 = time.perf_counter()
    ex = KernelExecutor(binary.kernel("stream_triad"), 32, mem,
                        max_blocks_per_batch=1)
    ex.launch(grid, block, args)
    t_scalar = time.perf_counter() - t0
    t_vector = benchmark.stats.stats.mean
    assert t_scalar > 2 * t_vector, (
        f"vectorization speedup only {t_scalar / t_vector:.1f}x"
    )


@pytest.mark.parametrize("bandwidth_only", (False, True),
                         ids=("roofline", "bandwidth-only"))
def test_perfmodel_fidelity(bandwidth_only, artifacts_dir):
    """Compute-bound kernels need the roofline; streaming doesn't."""
    from repro import kernels as KL
    from repro.gpu import Device, default_spec
    from repro.models.cuda import Cuda

    device = Device(default_spec(Vendor.NVIDIA),
                    bandwidth_only_model=bandwidth_only)
    rt = Cuda(device)
    n = 1 << 16
    x = rt.to_device(np.ones(n))
    burner = rt.launch_1d(KL.flops_burner, n, [n, 400, x])
    a = rt.to_device(np.ones(1 << 20))
    b = rt.to_device(np.ones(1 << 20))
    triad = rt.launch_1d(KL.stream_triad, 1 << 20,
                         [1 << 20, 0.4, a, b, a])
    with open(artifacts_dir / f"ablation_perfmodel_"
              f"{'bw' if bandwidth_only else 'roofline'}.txt", "w") as fh:
        fh.write(f"burner: {burner.seconds*1e6:.1f} us bound={burner.bound}\n")
        fh.write(f"triad:  {triad.seconds*1e6:.1f} us bound={triad.bound}\n")
    if bandwidth_only:
        # Heavy arithmetic is invisible to a pure-bandwidth model: the
        # burner moves 1/48th of triad's bytes and looks faster.
        assert burner.seconds < triad.seconds
    else:
        # The roofline sees the compute wall.
        assert burner.bound in ("compute", "issue")
        assert burner.seconds > triad.seconds
        assert triad.bound == "memory"
