"""A forked child does not inherit locks that other threads hold.

The process executor forks from a coordinator that may be running other
threads, such as ``serve``'s HTTP threads compiling a submitted kernel.
A lock another thread holds at the fork stays held in the child
forever, so the child renews every memo lock and the work-counter
lock.  Each test holds one lock on a parent thread across the start of
a forked child that needs it; the child must finish its compile or
launch within 10 s.
"""

import multiprocessing
import os
import threading

from repro import kernels as KL
from repro.compilers import get_toolchain
from repro.compilers.toolchain import clear_compile_cache
from repro.enums import ISA, Language, Model, Vendor
from repro.frontends import TranslationUnit


def _compile(toolchain="nvcc", model=Model.CUDA, target=ISA.PTX):
    tu = TranslationUnit("t", model, Language.CPP)
    tu.add(KL.axpy)
    get_toolchain(toolchain).compile(tu, target)


def _stream():
    from repro.gpu import System
    from repro.workloads import run_babelstream

    device = System.default().device(Vendor.NVIDIA)
    assert run_babelstream(device, "CUDA", n=1 << 10, reps=1).verified


def _child_exitcode(target):
    """``target``'s exit code in a forked child, or None when the child
    is still running after 10 s (it is killed)."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(timeout=10)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        return None
    return child.exitcode


def _exitcode_while_held(lock, target):
    """Fork ``target``'s child while a parent thread holds ``lock``."""
    held, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            held.set()
            release.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(timeout=10)
        return _child_exitcode(target)
    finally:
        release.set()
        holder.join(timeout=10)


def test_child_builds_a_stage_a_parent_thread_is_building(monkeypatch):
    """The parent's hipcc compile holds the in-flight lock of the
    kernel's optimize stage; the child's nvcc compile needs that stage."""
    import repro.compilers.toolchain as tc_mod

    clear_compile_cache()
    parent, real = os.getpid(), tc_mod.optimize_module
    entered, release = threading.Event(), threading.Event()

    def optimize(module, level):
        if os.getpid() == parent:
            entered.set()
            release.wait(timeout=30)
        return real(module, level=level)

    monkeypatch.setattr(tc_mod, "optimize_module", optimize)
    leader = threading.Thread(target=_compile,
                              args=("hipcc", Model.HIP, ISA.AMDGCN))
    leader.start()
    try:
        assert entered.wait(timeout=10)
        status = _child_exitcode(_compile)
    finally:
        release.set()
        leader.join(timeout=10)
    assert not leader.is_alive()
    assert status == 0


def test_child_misses_the_stage_memo_while_its_guard_is_held():
    import repro.compilers.toolchain as tc_mod

    clear_compile_cache()
    assert _exitcode_while_held(tc_mod._STAGES._guard, _compile) == 0


def _launch():
    import numpy as np

    from repro.gpu import Device
    from repro.gpu.specs import default_spec
    from repro.isa import ModuleIR, legalize

    mod = ModuleIR("m")
    mod.add(KL.axpy.ir)
    binary = legalize(mod, ISA.PTX, "test")
    device = Device(default_spec(Vendor.NVIDIA), backing_bytes=1 << 16)
    n = 256
    x, y = device.alloc(n * 8), device.alloc(n * 8)
    device.memcpy_h2d(x, np.ones(n))
    device.memcpy_h2d(y, np.zeros(n))
    device.launch(binary, "axpy", (1,), (256,), [n, 2.0, x, y])
    assert (device.memcpy_d2h(y, np.float64, n) == 2.0).all()


def test_child_launches_while_the_interpreter_totals_are_held():
    """The interpreter's launch totals live in :mod:`repro.counters`,
    under its one lock."""
    from repro import counters

    assert _exitcode_while_held(counters.LOCK, _launch) == 0


def test_child_runs_a_stream_while_its_totals_are_held():
    """The stream totals live in :mod:`repro.counters` too, under the
    same lock."""
    from repro import counters

    assert _exitcode_while_held(counters.LOCK, _stream) == 0
