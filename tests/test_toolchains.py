"""Toolchains: capability tables match §4, gates fire correctly."""

import pytest

from repro.compilers import all_toolchains, get_toolchain
from repro.compilers.features import describe
from repro.compilers.registry import toolchains_for
from repro.enums import ISA, Language, Maturity, Model, Provider
from repro.errors import (
    UnsupportedFeatureError,
    UnsupportedRouteError,
    UnsupportedTargetError,
)
from repro.frontends import TranslationUnit
from repro import kernels as KL

CPP, F = Language.CPP, Language.FORTRAN


def _tu(model, language, features=(), kernelfn=KL.axpy):
    tu = TranslationUnit("t", model, language)
    tu.add(kernelfn)
    tu.require(*features)
    return tu


def test_registry_is_shared_instances():
    assert get_toolchain("nvcc") is get_toolchain("nvcc")
    assert len(all_toolchains()) == 24  # 20 Figure-1 toolchains + 3 OpenCL drivers + flang-cuda


def test_unknown_toolchain():
    with pytest.raises(KeyError, match="unknown toolchain"):
        get_toolchain("icc")


# -- §4 capability spot checks ---------------------------------------------


def test_nvcc_capabilities():
    nvcc = get_toolchain("nvcc")
    assert nvcc.provider is Provider.NVIDIA
    assert nvcc.accepts(Model.CUDA, CPP)
    assert not nvcc.accepts(Model.CUDA, F)  # CUDA Fortran is NVHPC's
    assert nvcc.targets_for(Model.CUDA, CPP) == {ISA.PTX}
    assert nvcc.supports_feature(Model.CUDA, CPP, "cuda:graphs")


def test_nvhpc_covers_five_models():
    nvhpc = get_toolchain("nvhpc")
    models = {(c.model, c.language) for c in nvhpc.capabilities}
    assert (Model.CUDA, F) in models
    assert (Model.OPENACC, CPP) in models and (Model.OPENACC, F) in models
    assert (Model.OPENMP, CPP) in models and (Model.OPENMP, F) in models
    assert (Model.STANDARD, CPP) in models and (Model.STANDARD, F) in models
    # "only a subset of the entire OpenMP 5.0 standard":
    assert not nvhpc.supports_feature(Model.OPENMP, CPP, "omp:metadirective")
    assert nvhpc.supports_feature(Model.OPENMP, CPP, "omp:reduction")


def test_hipcc_targets_both_platforms():
    hipcc = get_toolchain("hipcc")
    assert hipcc.targets_for(Model.HIP, CPP) == {ISA.AMDGCN, ISA.PTX}
    cap = hipcc.capability(Model.HIP, CPP)
    assert "HIP_PLATFORM" in cap.flag


def test_hipfort_gaps():
    hipfort = get_toolchain("hipfort")
    assert hipfort.accepts(Model.HIP, F)
    assert hipfort.supports_feature(Model.HIP, F, "hip:kernels")
    assert not hipfort.supports_feature(Model.HIP, F, "hip:events")
    assert not hipfort.supports_feature(Model.HIP, F, "hip:graphs")


def test_intel_openmp_is_comprehensive():
    for name, lang in (("dpcpp", CPP), ("ifx", F)):
        tc = get_toolchain(name)
        for tag in ("omp:metadirective", "omp:usm", "omp:assume",
                    "omp:masked", "omp:loop"):
            assert tc.supports_feature(Model.OPENMP, lang, tag), (name, tag)


def test_gcc_openacc_is_26():
    gcc = get_toolchain("gcc")
    assert gcc.supports_feature(Model.OPENACC, CPP, "acc:parallel")
    assert not gcc.supports_feature(Model.OPENACC, CPP, "acc:async")
    assert not gcc.supports_feature(Model.OPENACC, CPP, "acc:serial")


def test_onedpl_namespace_gap():
    onedpl = get_toolchain("onedpl")
    assert onedpl.supports_feature(Model.STANDARD, CPP, "stdpar:reduce")
    assert not onedpl.supports_feature(Model.STANDARD, CPP,
                                       "stdpar:std_namespace")


def test_maturity_annotations():
    assert get_toolchain("chipstar").maturity is Maturity.RESEARCH
    assert get_toolchain("roc-stdpar").maturity is Maturity.EXPERIMENTAL
    assert get_toolchain("flacc").maturity is Maturity.EXPERIMENTAL
    assert get_toolchain("zluda").maturity is Maturity.UNMAINTAINED
    assert get_toolchain("computecpp").maturity is Maturity.UNMAINTAINED


def test_cray_provider_is_hpe():
    cray = get_toolchain("cray-ce")
    assert cray.provider is Provider.HPE
    assert cray.accepts(Model.OPENACC, F)
    assert not cray.accepts(Model.OPENACC, CPP)


# -- gates -------------------------------------------------------------------


def test_route_gate():
    with pytest.raises(UnsupportedRouteError, match="does not compile"):
        get_toolchain("ifx").compile(_tu(Model.HIP, CPP), ISA.SPIRV)


def test_target_gate():
    with pytest.raises(UnsupportedTargetError, match="cannot emit"):
        get_toolchain("nvcc").compile(_tu(Model.CUDA, CPP), ISA.SPIRV)


def test_feature_gate_names_the_feature():
    tu = _tu(Model.OPENMP, CPP, features=["omp:target", "omp:metadirective"])
    with pytest.raises(UnsupportedFeatureError) as err:
        get_toolchain("nvhpc").compile(tu, ISA.PTX)
    assert err.value.feature == "omp:metadirective"
    assert err.value.toolchain == "nvhpc"


def test_hw_features_always_pass():
    tu = _tu(Model.OPENMP, CPP,
             features=["omp:target", "omp:map"], kernelfn=KL.reduce_sum)
    # reduce_sum carries barrier/atomics/shared hardware tags.
    result = get_toolchain("gcc").compile(tu, ISA.AMDGCN)
    assert result.binary.isa is ISA.AMDGCN


def test_compile_result_contents():
    result = get_toolchain("nvcc").compile(_tu(Model.CUDA, CPP), ISA.PTX)
    assert result.toolchain == "nvcc"
    assert result.target is ISA.PTX
    assert "folds" in result.pass_report
    assert ".visible .entry axpy" in result.disassemble()
    assert result.binary.producer.startswith("nvcc-")


# -- compile cache ----------------------------------------------------------


def test_repeated_identical_compiles_hit_the_cache():
    from repro.compilers.toolchain import clear_compile_cache, compile_cache_stats

    clear_compile_cache()
    nvcc = get_toolchain("nvcc")
    first = nvcc.compile(_tu(Model.CUDA, CPP), ISA.PTX)
    assert nvcc.cache_stats.misses == 1
    assert nvcc.cache_stats.hits == 0
    # A fresh TU object with identical content — and even a different
    # unit name, since runtimes mint per-instance names — is a hit.
    tu2 = TranslationUnit("другое", Model.CUDA, CPP)
    tu2.add(KL.axpy)
    second = nvcc.compile(tu2, ISA.PTX)
    assert second is first
    assert nvcc.cache_stats.hits == 1
    assert compile_cache_stats().hits >= 1


def test_compile_cache_key_separates_configurations():
    from repro.compilers.toolchain import clear_compile_cache

    clear_compile_cache()
    hipcc = get_toolchain("hipcc")
    a = hipcc.compile(_tu(Model.HIP, CPP), ISA.AMDGCN)
    b = hipcc.compile(_tu(Model.HIP, CPP), ISA.PTX)  # different target
    c = hipcc.compile(_tu(Model.HIP, CPP, kernelfn=KL.fill), ISA.AMDGCN)
    d = hipcc.compile(_tu(Model.HIP, CPP), ISA.AMDGCN, sanitize=True)
    assert len({id(a), id(b), id(c), id(d)}) == 4
    assert hipcc.cache_stats.misses == 4
    assert hipcc.cache_stats.hits == 0
    # Gates still fire on every call, cached or not.
    with pytest.raises(UnsupportedTargetError):
        hipcc.compile(_tu(Model.HIP, CPP), ISA.SPIRV)


def test_cache_hit_with_sanitize_still_attaches_diagnostics():
    from repro.compilers.toolchain import clear_compile_cache

    clear_compile_cache()
    nvcc = get_toolchain("nvcc")
    first = nvcc.compile(_tu(Model.CUDA, CPP), ISA.PTX, sanitize=True)
    assert first.diagnostics is not None
    second = nvcc.compile(_tu(Model.CUDA, CPP), ISA.PTX, sanitize=True)
    assert second is first
    assert nvcc.cache_stats.hits == 1
    # The hit carries the full LintReport, not a stripped result.
    assert second.diagnostics is first.diagnostics
    assert hasattr(second.diagnostics, "diagnostics")


def test_cache_separates_translated_from_native_units():
    """A hipified unit and a hand-written HIP unit share a fingerprint
    but must not share a cache slot: their TV diagnostics differ."""
    from repro.compilers.toolchain import clear_compile_cache
    from repro.translate.hipify import Hipify

    clear_compile_cache()
    hipcc = get_toolchain("hipcc")
    translated = Hipify().translate_unit(_tu(Model.CUDA, CPP))
    native = _tu(Model.HIP, CPP)
    assert translated.fingerprint() == native.fingerprint()
    a = hipcc.compile(translated, ISA.AMDGCN, sanitize=True)
    b = hipcc.compile(native, ISA.AMDGCN, sanitize=True)
    assert a is not b
    assert hipcc.cache_stats.misses == 2
    assert hipcc.cache_stats.hits == 0
    # A second compile of an identically translated unit is a hit —
    # and still carries the translation-validated report.
    c = hipcc.compile(Hipify().translate_unit(_tu(Model.CUDA, CPP)),
                      ISA.AMDGCN, sanitize=True)
    assert c is a
    assert hipcc.cache_stats.hits == 1
    assert c.diagnostics is not None


def test_toolchains_for_lookup():
    names = {t.name for t in toolchains_for(Model.SYCL, CPP, ISA.PTX)}
    assert names == {"dpcpp", "opensycl", "computecpp"}
    names = {t.name for t in toolchains_for(Model.STANDARD, F, ISA.SPIRV)}
    assert names == {"ifx"}
    assert toolchains_for(Model.HIP, F, ISA.SPIRV) == []


def test_feature_descriptions_exist_for_all_capability_tags():
    for tc in all_toolchains():
        for cap in tc.capabilities:
            for tag in cap.features:
                assert describe(tag) != tag or ":" not in tag, (
                    f"{tc.name} uses undocumented feature tag '{tag}'"
                )


def test_compile_cache_single_flight_under_contention(monkeypatch):
    """N workers racing on one TU do ONE compile: 1 miss + N-1 hits.

    The patched optimizer blocks the leader inside the compile until the
    other workers have piled up on the per-key flight lock, so without
    single-flighting every worker would miss and compile redundantly.
    """
    import threading
    import time

    import repro.compilers.toolchain as tc_mod
    from repro.compilers.toolchain import clear_compile_cache

    clear_compile_cache()
    real_optimize = tc_mod.optimize_module
    entered = threading.Event()
    release = threading.Event()
    calls: list[str] = []

    def blocking_optimize(module, level):
        calls.append(module.name)
        entered.set()
        assert release.wait(timeout=10), "test never released the leader"
        return real_optimize(module, level=level)

    monkeypatch.setattr(tc_mod, "optimize_module", blocking_optimize)
    nvcc = get_toolchain("nvcc")
    tu = _tu(Model.CUDA, CPP)
    n = 6
    results: list[object] = [None] * n

    def worker(i):
        results[i] = nvcc.compile(tu, ISA.PTX)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    assert entered.wait(timeout=10)
    time.sleep(0.05)  # let the followers reach the flight lock
    release.set()
    for t in threads:
        t.join(timeout=10)
    assert len(calls) == 1
    stats = nvcc.cache_stats.snapshot()
    assert stats.misses == 1
    assert stats.hits == n - 1
    assert all(r is results[0] for r in results)


def test_compile_distinct_units_do_not_serialize_counters():
    """Different TUs take different flight locks: two misses, no hits."""
    import threading

    from repro.compilers.toolchain import clear_compile_cache

    clear_compile_cache()
    nvcc = get_toolchain("nvcc")
    units = [_tu(Model.CUDA, CPP, kernelfn=KL.axpy),
             _tu(Model.CUDA, CPP, kernelfn=KL.reduce_sum)]
    threads = [threading.Thread(target=nvcc.compile, args=(u, ISA.PTX))
               for u in units]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    stats = nvcc.cache_stats.snapshot()
    assert stats.misses == 2
    assert stats.hits == 0


# -- the kernel-content stage memo under the compile cache -------------------


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


#: One kernel compiled by six toolchains through four models to all
#: three ISAs: eight distinct compile keys, one kernel content.
_ROUTES = (
    ("nvcc", Model.CUDA, ISA.PTX),
    ("hipcc", Model.HIP, ISA.AMDGCN),
    ("hipcc", Model.HIP, ISA.PTX),
    ("dpcpp", Model.SYCL, ISA.SPIRV),
    ("dpcpp", Model.SYCL, ISA.PTX),
    ("opensycl", Model.SYCL, ISA.AMDGCN),
    ("clang", Model.OPENMP, ISA.PTX),
    ("aomp", Model.OPENMP, ISA.AMDGCN),
)


def test_stages_run_once_per_kernel_content(monkeypatch):
    import repro.compilers.toolchain as tc_mod
    from repro.compilers.toolchain import (clear_compile_cache,
                                           compile_cache_stats,
                                           stage_memo_stats)

    clear_compile_cache()
    optimized = _count_calls(monkeypatch, tc_mod, "optimize_module")
    lowered = _count_calls(monkeypatch, tc_mod, "legalize")
    results = []
    for i, (name, model, isa) in enumerate(_ROUTES):
        tu = TranslationUnit(f"unit{i}", model, CPP)
        tu.add(KL.axpy)
        tc = get_toolchain(name)
        result = tc.compile(tu, isa)
        results.append(result)
        # What belongs to the unit and toolchain is the unit's own.
        assert result.binary.name == f"unit{i}"
        assert result.binary.producer == f"{tc.name}-{tc.version}"
        assert result.toolchain == name
        assert result.target is isa
    assert len(optimized) == 1
    assert len(lowered) == len({isa for _, _, isa in _ROUTES}) == 3
    assert compile_cache_stats().misses == len(_ROUTES)
    assert stage_memo_stats().snapshot().misses == 1 + 3
    by_isa = {}
    for result in results:
        by_isa.setdefault(result.target, []).append(result)
    for same_isa in by_isa.values():
        first = same_isa[0]
        for other in same_isa[1:]:
            # Header line names unit and producer; the code is identical
            # and shared by reference.
            assert (other.disassemble().split("\n", 1)[1]
                    == first.disassemble().split("\n", 1)[1])
            assert other.binary.kernel("axpy") is first.binary.kernel("axpy")
            assert other.binary.module is not first.binary.module
            assert other.pass_report == first.pass_report
            assert other.pass_report is not first.pass_report


def test_kernel_content_digest_leaves_out_unit_metadata():
    """The stage key's digest follows the kernels alone: model, language,
    unit features and unit name change only the fingerprint."""
    library = [getattr(KL, n) for n in ("axpy", "fill", "reduce_sum")]
    units = [_tu(Model.CUDA, CPP, kernelfn=k) for k in library]
    multi = TranslationUnit("m", Model.OPENMP, Language.FORTRAN)
    for k in library:
        multi.add(k)
    units.append(multi)
    assert len({tu.digests()[1] for tu in units}) == len(units)
    other = _tu(Model.HIP, F, features=("x",))
    other.name = "renamed"
    base = _tu(Model.CUDA, CPP)
    assert other.digests()[1] == base.digests()[1]
    assert other.digests()[0] != base.digests()[0]


def test_clear_compile_cache_empties_the_stage_memo(monkeypatch):
    import repro.compilers.toolchain as tc_mod
    from repro.compilers.toolchain import clear_compile_cache, stage_memo_stats

    clear_compile_cache()
    optimized = _count_calls(monkeypatch, tc_mod, "optimize_module")
    get_toolchain("nvcc").compile(_tu(Model.CUDA, CPP), ISA.PTX)
    assert len(optimized) == 1
    clear_compile_cache()
    assert stage_memo_stats().snapshot().total == 0
    # A different toolchain, so only the stage memo could have served it.
    get_toolchain("hipcc").compile(_tu(Model.HIP, CPP), ISA.PTX)
    assert len(optimized) == 2


def test_translated_and_native_units_differ_only_by_tv_findings(monkeypatch):
    from repro.compilers import passes
    from repro.compilers.toolchain import clear_compile_cache
    from repro.translate.hipify import Hipify

    clear_compile_cache()
    sanitized = _count_calls(monkeypatch, passes, "sanitize_module")
    hipcc = get_toolchain("hipcc")
    out = Hipify().translate_unit(_tu(Model.CUDA, CPP, kernelfn=KL.reduce_sum))
    out.features.add("hip:graphs")  # derives from no source tag: TV02
    translated = hipcc.compile(out, ISA.AMDGCN, sanitize=True)
    native = hipcc.compile(_tu(Model.HIP, CPP, kernelfn=KL.reduce_sum),
                           ISA.AMDGCN, sanitize=True)
    other = hipcc.compile(_tu(Model.HIP, CPP, kernelfn=KL.reduce_sum),
                          ISA.PTX, sanitize=True)
    assert len(sanitized) == 1
    ours = list(translated.diagnostics.diagnostics)
    theirs = list(native.diagnostics.diagnostics)
    tv = ours[len(theirs):]
    assert theirs and ours[:len(theirs)] == theirs
    assert tv and all(d.code.startswith("TV") for d in tv)
    assert other.diagnostics.diagnostics == theirs
    # Each result owns its report: appending to one changes no other.
    native.diagnostics.extend(tv)
    assert native.diagnostics.diagnostics == ours
    assert translated.diagnostics.diagnostics == ours
    assert other.diagnostics.diagnostics == theirs
    translated.diagnostics.extend(tv)
    assert native.diagnostics.diagnostics == ours


def test_legalization_error_is_raised_on_every_attempt(monkeypatch):
    import repro.compilers.toolchain as tc_mod
    from repro.compilers.toolchain import clear_compile_cache
    from repro.errors import LegalizationError
    from repro.frontends.kernel_dsl import KernelFn
    from repro.isa import IRBuilder, dtypes

    clear_compile_cache()
    lowered = _count_calls(monkeypatch, tc_mod, "legalize")
    b = IRBuilder("big_tile")
    b.shared_alloc(dtypes.F64, 12 * 1024)  # 96 KB: over AMDGCN's 64 KB LDS
    tu = TranslationUnit("t", Model.HIP, CPP)
    tu.add(KernelFn("big_tile", b.build(), (), (), None))
    hipcc = get_toolchain("hipcc")
    for attempt in (1, 2, 3):
        with pytest.raises(LegalizationError, match="shared"):
            hipcc.compile(tu, ISA.AMDGCN)
        assert len(lowered) == attempt
    assert hipcc.cache_stats.snapshot().misses == 3
    # The same kernel still lowers where it fits.
    assert "big_tile" in hipcc.compile(tu, ISA.PTX).binary


def test_stage_memo_single_flight_across_toolchains(monkeypatch):
    """Eight distinct compile keys racing on one kernel content do one
    optimize: followers wait on the stage key's flight, then hit."""
    import sys
    import threading
    import time

    import repro.compilers.toolchain as tc_mod
    from repro.compilers.toolchain import clear_compile_cache, stage_memo_stats

    clear_compile_cache()
    real_optimize = tc_mod.optimize_module
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def blocking_optimize(module, level):
        calls.append(module.name)
        entered.set()
        assert release.wait(timeout=10), "test never released the leader"
        return real_optimize(module, level=level)

    monkeypatch.setattr(tc_mod, "optimize_module", blocking_optimize)
    lowered = _count_calls(monkeypatch, tc_mod, "legalize")
    results = [None] * len(_ROUTES)

    def worker(i):
        name, model, isa = _ROUTES[i]
        tu = TranslationUnit(f"unit{i}", model, CPP)
        tu.add(KL.axpy)
        results[i] = get_toolchain(name).compile(tu, isa)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(_ROUTES))]
        for t in threads:
            t.start()
        assert entered.wait(timeout=10)
        time.sleep(0.05)  # let the followers reach the stage flight lock
        release.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(lowered) == 3
    assert stage_memo_stats().snapshot().misses == 4
    kernels = {r.target: r.binary.kernel("axpy") for r in results}
    assert all(r.binary.kernel("axpy") is kernels[r.target] for r in results)
    assert [r.binary.name for r in results] == [
        f"unit{i}" for i in range(len(_ROUTES))]


# -- compiled IR is immutable once its content was read ----------------------


def _kernels_in_compile_memos():
    """Every ``KernelIR`` the ``compile`` and ``stages`` memos hold."""
    from repro import memo
    from repro.compilers.toolchain import CompileResult
    from repro.isa.module import ModuleIR, TargetModule

    found = {}

    def visit(entry):
        if isinstance(entry, CompileResult):
            visit(entry.binary)
        elif isinstance(entry, TargetModule):
            visit(entry.module)
        elif isinstance(entry, ModuleIR):
            found.update((id(k), k) for k in entry)
        elif isinstance(entry, tuple):  # optimize: (module, pass report)
            for item in entry:
                visit(item)

    for m in list(memo._LIVE):
        if m.name in ("compile", "stages"):
            for entry in list(m.entries.values()):
                visit(entry)
    return list(found.values())


def _fresh_content(kernel):
    """``kernel.content()`` recomputed on a copy, whatever it cached."""
    from repro.isa.module import clone_ir

    dup = clone_ir(kernel)
    vars(dup).pop("_content", None)
    return dup.content()


def test_no_kernel_changes_after_its_content_was_read():
    """Builds on both executors, a perf build and a trace-validation
    sweep leave every kernel that cached its content holding exactly the
    bytes a fresh copy computes."""
    from repro.analysis import tracesan
    from repro.compilers.toolchain import clear_compile_cache
    from repro.isa.tracing import clear_trace_cache
    from repro.perfport import PerfParams, run_perf_matrix
    from repro.service import build_matrix_concurrent

    clear_compile_cache()
    clear_trace_cache()
    build_matrix_concurrent(2)
    build_matrix_concurrent(2, execution="process")
    run_perf_matrix(2, params=PerfParams(n=4096, reps=2))
    tracesan.validate_library()
    library = [fn.ir for fn in KL.KERNEL_LIBRARY.values()]
    compiled = _kernels_in_compile_memos()
    hashed = [k for k in library + compiled if "_content" in vars(k)]
    assert len(hashed) > len(library)  # legalized kernels were hashed
    for k in hashed:
        assert k.content() == _fresh_content(k), k.name


def test_threads_racing_on_a_first_read_agree():
    """Threads reading one kernel's content for the first time at once
    each build equal bytes, and the kernel keeps them."""
    import sys
    import threading

    from repro.isa.module import clone_ir

    expected = _fresh_content(KL.reduce_sum.ir)
    n = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            kernel = clone_ir(KL.reduce_sum.ir)
            start = threading.Barrier(n)
            got = [None] * n

            def worker(i):
                start.wait(timeout=10)
                got[i] = kernel.content()

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert got == [expected] * n
            assert kernel.content() == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("copier", [
    "clone_ir", "copy.copy", "copy.deepcopy", "pickle"])
def test_copies_of_a_hashed_kernel_start_without_its_content(copier):
    import copy
    import pickle

    from repro.isa import tracing
    from repro.isa.module import clone_ir

    copy_of = {
        "clone_ir": clone_ir, "copy.copy": copy.copy,
        "copy.deepcopy": copy.deepcopy,
        "pickle": lambda k: pickle.loads(pickle.dumps(k)),
    }[copier]
    original = clone_ir(KL.stream_dot.ir)
    content = original.content()
    fingerprint = tracing.kernel_fingerprint(original)
    dup = copy_of(original)
    assert "_content" not in vars(dup)
    assert dup.content() == content
    dup = copy_of(original)
    dup.body = dup.body[:-1]  # a new list: copy.copy shares the old one
    assert dup.content() != content
    assert tracing.kernel_fingerprint(dup) != fingerprint
    assert original.content() == content == _fresh_content(original)
    assert tracing.kernel_fingerprint(original) == fingerprint


def test_optimize_and_legalize_leave_a_hashed_kernel_unchanged():
    """The two rewriting passes rewrite clones, never their input."""
    from repro.compilers.passes import optimize_kernel
    from repro.errors import LegalizationError
    from repro.isa.module import ModuleIR, clone_ir
    from repro.isa.targets import legalize

    for fn in KL.KERNEL_LIBRARY.values():
        kernel = clone_ir(fn.ir)
        content = kernel.content()
        optimize_kernel(kernel, level=2)
        for isa in ISA:
            try:
                legalize(ModuleIR(name="m", kernels={kernel.name: kernel}),
                         isa)
            except LegalizationError:
                pass
        assert _fresh_content(kernel) == content, fn.name
