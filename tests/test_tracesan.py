"""tracesan: static translation validation of trace-compiled programs.

Three layers of assurance:

* the **library sweep** — every traceable bundled kernel is statically
  proven equivalent to its IR at its canonical geometry, with zero
  kernel executions and an empty divergence ledger;
* **seeded miscompiles** — deterministic mutations of a generated
  program (wrong value op, corrupted byte metering, corrupted deferral
  splice, allowlist escape) each fire the designated TC code;
* the **shared fuzz corpus** (``trace_fuzz.py``) — the same kernels the
  dynamic differential suite runs bit-exactly must validate statically,
  and the bailing cases must be reported as nothing-to-validate, never
  validated.
"""

import re
from collections import Counter

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.tracesan import (
    TraceVerdict,
    canonical_batch_width,
    lint_traces,
    trace_agreement_summary,
    traces_lint_report,
    validate_library,
    validate_program,
)
from repro.data.trace_divergences import KNOWN_TRACE_DIVERGENCES
from repro.isa.interpreter import snapshot_interpreter_totals
from repro.isa import tracing
from repro.isa.tracing import TraceBailout, _TraceCompiler, clear_trace_cache
from repro.kernels import KERNEL_LIBRARY

from tests.trace_fuzz import BAILING_CASES, FUZZ_CORPUS, TRACEABLE_CASES


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _compile(ir, grid, block):
    bpb = canonical_batch_width(ir, block)
    src = _TraceCompiler(ir, 32, grid, block, bpb).compile()
    return src, bpb


GRID, BLOCK3 = (64, 1, 1), (256, 1, 1)


def _triad_source():
    ir = KERNEL_LIBRARY["stream_triad"].ir
    src, bpb = _compile(ir, GRID, BLOCK3)
    return ir, src, bpb


def _dot_source():
    """stream_dot with its grid-stride loop in the general live-mask
    form (the induction rule switched off), the form the release, merge
    and gate tests below read; the prefix form has its own tests."""
    ir = KERNEL_LIBRARY["stream_dot"].ir
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracing, "_induction_loops", lambda body: {})
        src, bpb = _compile(ir, GRID, BLOCK3)
    return ir, src, bpb


def _codes(ir, src, bpb):
    v = validate_program(ir, src, 32, GRID, BLOCK3, bpb)
    return v, {d.code for d in v.diagnostics}


# -- library sweep ------------------------------------------------------------


class TestLibrarySweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        clear_trace_cache()
        before = snapshot_interpreter_totals().launches
        results = validate_library()
        after = snapshot_interpreter_totals().launches
        return results, after - before

    def test_covers_whole_library(self, sweep):
        results, _ = sweep
        assert set(results) == set(KERNEL_LIBRARY)

    def test_zero_kernel_executions(self, sweep):
        _, launches = sweep
        assert launches == 0

    def test_every_traceable_kernel_validates(self, sweep):
        results, _ = sweep
        verdicts = {n: v for n, v in results.items()
                    if isinstance(v, TraceVerdict)}
        assert verdicts, "no kernel trace-compiled at all"
        bad = {n: [d.code for d in v.diagnostics]
               for n, v in verdicts.items() if not v.validated}
        assert not bad, f"kernels failing static validation: {bad}"

    def test_no_tc01_errors(self, sweep):
        results, _ = sweep
        report = traces_lint_report(results)
        assert [d for d in report.diagnostics if d.code == "TC01"] == []
        assert report.errors == []

    def test_bailouts_are_info_not_verdicts(self, sweep):
        results, _ = sweep
        bailed = {n: v for n, v in results.items() if isinstance(v, str)}
        # The library's one known-untraceable kernel.
        assert "warp_reduce_sum" in bailed
        report = traces_lint_report(results)
        for d in report.diagnostics:
            if d.kernel in bailed:
                assert d.code == "TC05"
                assert d.severity == Severity.INFO

    def test_agreement_summary_is_consistent(self, sweep):
        results, _ = sweep
        s = trace_agreement_summary(results)
        assert s["kernels_total"] == len(KERNEL_LIBRARY)
        assert s["validated"] + s["bailed_out"] + s["errors"] >= \
            s["kernels_total"] - s["inexact"]
        assert s["errors"] == 0
        assert s["validated"] == s["kernels_total"] - s["bailed_out"]

    def test_validation_stays_in_time_budget(self, sweep):
        results, _ = sweep
        slow = [n for n, v in results.items()
                if isinstance(v, TraceVerdict) and v.elapsed_ms >= 50.0]
        # A single wall-clock sample is noisy on a loaded box: give any
        # over-budget kernel a best-of-3 re-proof before failing.
        still = {}
        for name in slow:
            ir = KERNEL_LIBRARY[name].ir
            best = min(validate_library(kernels={name: ir})[name].elapsed_ms
                       for _ in range(3))
            if best >= 50.0:
                still[name] = best
        assert not still, f"kernels over the 50 ms budget: {still}"


def test_divergence_ledger_ships_empty():
    """The ledger exists for documented gaps; today there are none."""
    assert not KNOWN_TRACE_DIVERGENCES


def test_lint_traces_report_shape():
    report, agreement = lint_traces()
    assert report.errors == []
    codes = {d.code for d in report.diagnostics}
    assert codes <= {"TC04", "TC05", "TC06"}
    assert agreement["errors"] == 0 and agreement["kernels_total"] == 27


# -- seeded miscompiles -------------------------------------------------------


class TestSeededMiscompiles:
    def test_clean_program_validates(self):
        ir, src, bpb = _triad_source()
        v, codes = _codes(ir, src, bpb)
        assert v.validated and v.exact and not codes

    def test_wrong_value_op_fires_tc01(self):
        """Consistently swapping multiply for add is a provable divergence."""
        ir, src, bpb = _triad_source()
        assert "np.multiply" in src
        v, codes = _codes(ir, src.replace("np.multiply", "np.add"), bpb)
        assert not v.validated
        assert "TC01" in codes

    def test_corrupt_byte_metering_fires_tc01(self):
        ir, src, bpb = _triad_source()
        mutated = re.sub(r"(_bld \+= [^\n]*) \* 8", r"\1 * 4", src, count=1)
        assert mutated != src
        v, codes = _codes(ir, mutated, bpb)
        assert not v.validated
        assert "TC01" in codes

    def test_corrupt_deferral_splice_fires_tc03(self):
        """One splice drifting from its siblings breaks the re-proof."""
        ir, src, bpb = _triad_source()
        lines = src.split("\n")
        dup = next(l for l, c in Counter(
            l for l in lines if re.match(r"^\s+r\d+ = ", l)).items()
            if c >= 2)
        second = [i for i, l in enumerate(lines) if l == dup][1]
        lines[second] = lines[second] + " + 0.0"
        v, codes = _codes(ir, "\n".join(lines), bpb)
        assert not v.validated
        assert "TC03" in codes

    def test_allowlist_escape_fires_tc02(self):
        ir, src, bpb = _triad_source()
        mutated = src.replace(
            "def _trace(X, B, args, stats):",
            "def _trace(X, B, args, stats):\n    import os", 1)
        v, codes = _codes(ir, mutated, bpb)
        assert not v.validated
        assert "TC02" in codes

    def test_syntax_error_fires_tc02(self):
        ir, src, bpb = _triad_source()
        v, codes = _codes(ir, src + "\n    )", bpb)
        assert not v.validated
        assert codes == {"TC02"}

    def test_dropped_counter_bump_fires_tc01(self):
        """Removing one `_ic` metering line breaks the chunk structure."""
        ir, src, bpb = _triad_source()
        lines = src.split("\n")
        idx = next(i for i, l in enumerate(lines)
                   if re.match(r"^\s+_ic \+= ", l))
        del lines[idx]
        v, codes = _codes(ir, "\n".join(lines), bpb)
        assert not v.validated
        assert "TC01" in codes

    def test_clean_dot_program_validates(self):
        """stream_dot carries releases and both uniform-address gates."""
        ir, src, bpb = _dot_source()
        assert "np.broadcast_to(" in src and " + 1 * 8 <= " in src
        assert re.search(r"\n    _ix\d+ = .* = None\n", src)
        v, codes = _codes(ir, src, bpb)
        assert v.validated and v.exact and not codes

    def test_release_above_a_read_fires_tc01(self):
        """A release moved above the statement that last reads one of
        its names leaves that statement reading a dead local."""
        ir, src, bpb = _dot_source()
        lines = src.split("\n")
        body = lines.index("    _ic += _L")
        rel = next(i for i in range(body, len(lines))
                   if re.fullmatch(r"    (\w+ = )+None", lines[i]))
        prev = next(j for j in range(rel - 1, 0, -1)
                    if re.match(r"    \S", lines[j])
                    and not lines[j].startswith("    else:"))
        lines.insert(prev, lines.pop(rel))
        v, codes = _codes(ir, "\n".join(lines), bpb)
        assert not v.validated
        assert "TC01" in codes
        assert any("read after its release" in d.message
                   for d in v.diagnostics)

    @pytest.mark.parametrize("pattern,repl", [
        # element size: the atomic's gate checks a 4-byte span
        (r"(_span_ok\(X, _b\d+, 1, )8\)", r"\g<1>4)"),
        # element size: the shared load's gate checks 4-byte alignment
        (r"(0 <= (_b\d+) and \2) % 8 == 0( and \2 \+ 1 \*)",
         r"\1 % 4 == 0\3"),
        # space: the shared load guarded as if it were global
        (r"0 <= (_b\d+) and \1 % 8 == 0 and \1 \+ 1 \* 8 <= \d+",
         r"\1 % 8 == 0 and _span_ok(X, \1, 1, 8)"),
        # space: the global atomic applied to the shared arena
        (r"_atomic\(_gv_f64, np\.broadcast_to", "_atomic(_sv_f64, "
                                                 "np.broadcast_to"),
        # op: the fast arm applies max where the IR adds
        (r"(np\.broadcast_to\(_j\d+, _L\), [^']*)'add'", r"\1'max'"),
    ], ids=["atomic-size", "load-size", "load-space", "atomic-space",
            "atomic-op"])
    def test_wrong_uniform_gate_fires_tc01(self, pattern, repl):
        ir, src, bpb = _dot_source()
        mutated, count = re.subn(pattern, repl, src)
        assert count == 1
        v, codes = _codes(ir, mutated, bpb)
        assert not v.validated
        assert "TC01" in codes

    @pytest.mark.parametrize("name,pattern,repl", [
        # stream_triad's lane-prefix global loads and store
        ("stream_triad", r"_gv_f64\[(_j\d+):\1 \+ (_k\d+)\]",
         r"_gv_f64[\1 + 1:\1 + 1 + \2]"),
        ("stream_triad", r"_gv_f64\[(_j\d+):\1 \+ (_k\d+)\]",
         r"_gv_f64[\1:\1 + \2 - 1]"),
        ("stream_triad", r"_gv_f64\[(_j\d+):\1 \+ (_k\d+)\]",
         r"_gv_i64[\1:\1 + \2]"),
        ("stream_triad", r"(_a\d+\[_k\d+:\] = _gv_f64)\[0\]", r"\1[1]"),
        ("stream_triad", r"(_span_ok\(X, _b\d+, _k\d+)", r"\1 - 1"),
        ("stream_triad", r"(\] = r\d+)\[:(_k\d+)\]", r"\1[1:\2 + 1]"),
        ("stream_triad", r"(_gv_f64\[[^]]+\] = )r24\[", r"\1r23["),
        # reduce_sum's per-block shared stores and loads
        ("reduce_sum", r"\.reshape\(_nB, 256\)\[:, :256\]",
         ".reshape(_nB, 256)[:, :255]"),
        ("reduce_sum", r"_s2_f64\[:, (_c\d+):\1 \+ (_k\d+)\]",
         r"_s2_f64[:, \1 + 1:\1 + 1 + \2]"),
        ("reduce_sum", r"(_a2\d+\[:, _k\d+:\] = _sv_f64)\[0\]", r"\1[1]"),
        ("reduce_sum", r"_s2_f64\[:, (_c\d+):\1 \+ (_k\d+)\]",
         r"_gv_f64[\1:\1 + \2]"),
        ("reduce_sum", r"(_s2_f64 = _sv_f64\.reshape\(_nB), 256\)",
         r"\1, 128)"),
    ], ids=["off-by-one", "short-run", "wrong-dtype", "parked-element",
            "short-guard", "store-slab", "store-source",
            "shared-store-slab", "shared-off-by-one", "shared-parked",
            "shared-as-global", "row-stride"])
    def test_wrong_contiguous_arm_fires_tc01(self, name, pattern, repl):
        """The contiguous fast arm is checked as exactly as the uniform
        one: guard, index, run, view, parked lanes and stored slab."""
        ir = KERNEL_LIBRARY[name].ir
        src, bpb = _compile(ir, GRID, BLOCK3)
        mutated, count = re.subn(pattern, repl, src, count=1)
        assert count == 1
        v, codes = _codes(ir, mutated, bpb)
        assert not v.validated
        assert "TC01" in codes


# -- grid-stride loops: in-loop releases and merge forms ----------------------


def _dot_loop():
    """stream_dot's program lines and the span of its grid-stride
    loop's body (the first ``while True:``)."""
    ir, src, bpb = _dot_source()
    lines = src.split("\n")
    head = lines.index("    while True:")
    end = next(i for i in range(head + 1, len(lines))
               if not lines[i].startswith("        "))
    return ir, bpb, lines, head, end


def _loop_insert(lines, end, text, before_trips=True):
    """Insert a loop-body statement before the trip bump, or last."""
    at = (next(i for i in range(end - 1, 0, -1)
               if re.fullmatch(r"        _tr\d+ \+= 1", lines[i]))
          if before_trips else end)
    return lines[:at] + ["        " + text] + lines[at:]


def _acc_and_i(lines, head, end):
    """The locals of stream_dot's loop-carried ``acc`` and ``i``: the
    registers the loop merges straight from a source register."""
    return [re.search(r"np\.copyto\((r\d+), ", lines[i]).group(1)
            for i in range(head, end) if "np.copyto(" in lines[i]]


class TestLoopReleases:
    def test_clean_loop_releases_validate(self):
        """The grid-stride loop releases its iteration-local registers
        and per-site temporaries inside the body and merges acc and i
        straight from their sources."""
        ir, bpb, lines, head, end = _dot_loop()
        body = lines[head + 1:end]
        assert any(re.fullmatch(r"        (\w+ = )+None", l) for l in body)
        assert not any(re.match(r"        _t\d+ = ", l) for l in body)
        assert len(_acc_and_i(lines, head, end)) == 2
        v, codes = _codes(ir, "\n".join(lines), bpb)
        assert v.validated and v.exact and not codes

    def test_release_above_a_later_read_fires_tc01(self):
        ir, bpb, lines, head, end = _dot_loop()
        rel = next(i for i in range(head, end)
                   if re.fullmatch(r"        (\w+ = )+None", lines[i]))
        lines.insert(rel - 1, lines.pop(rel))
        v, codes = _codes(ir, "\n".join(lines), bpb)
        assert "TC01" in codes and not v.validated
        assert any("read after its release" in d.message
                   for d in v.diagnostics)

    @pytest.mark.parametrize("which", [0, 1], ids=["acc", "i"])
    def test_loop_carried_release_fires_tc01(self, which):
        """Releasing acc or i at the end of the body leaves the next
        trip reading a dead local."""
        ir, bpb, lines, head, end = _dot_loop()
        loc = _acc_and_i(lines, head, end)[which]
        mutated = _loop_insert(lines, end, f"{loc} = None")
        v, codes = _codes(ir, "\n".join(mutated), bpb)
        assert "TC01" in codes and not v.validated
        if which == 1:  # nothing after the loop reads i: the rule fires
            assert any("iteration-local" in d.message
                       for d in v.diagnostics)

    @pytest.mark.parametrize("state", ["_lv", "_tr"])
    def test_loop_state_release_fires_tc01(self, state):
        ir, bpb, lines, head, end = _dot_loop()
        name = re.search(rf"\b{state}\d+\b",
                         "\n".join(lines[head - 3:head])).group()
        mutated = _loop_insert(lines, end, f"{name} = None",
                               before_trips=state == "_lv")
        v, codes = _codes(ir, "\n".join(mutated), bpb)
        assert "TC01" in codes and not v.validated
        assert any("iteration-local" in d.message for d in v.diagnostics)

    def test_merge_register_as_plain_local_fires_tc01(self):
        """acc rebound whole at the loop's masked site loses the lanes
        that already left the loop."""
        ir, bpb, lines, head, end = _dot_loop()
        src = "\n".join(lines)
        mutated, count = re.subn(
            r"( +)if (r\d+) is None:\n\1    \2 = (\(r\d+\)\.copy\(\))\n"
            r"\1else:\n\1    np\.copyto\(\2, r\d+, where=_lv\d+\)",
            r"\1\2 = \3", src, count=1)
        assert count == 1
        v, codes = _codes(ir, mutated, bpb)
        assert "TC01" in codes and not v.validated
        assert any("rebound whole" in d.message for d in v.diagnostics)

    def test_merge_from_another_source_fires_tc01(self):
        """The masked merge of acc must copy the register its first
        assignment copies; merging acc into itself drops the update."""
        ir, bpb, lines, head, end = _dot_loop()
        src = "\n".join(lines)
        mutated, count = re.subn(
            r"(np\.copyto\((r\d+), )r\d+(, where=_lv)", r"\1\2\3", src,
            count=1)
        assert count == 1
        v, codes = _codes(ir, mutated, bpb)
        assert "TC01" in codes and not v.validated
        assert any("its first assignment binds" in d.message
                   for d in v.diagnostics)


# -- grid-stride loops on a live lane prefix ----------------------------------


def _prefix_source(name):
    ir = KERNEL_LIBRARY[name].ir
    src, bpb = _compile(ir, GRID, BLOCK3)
    return ir, src, bpb


def _tc01_only(ir, src, bpb):
    v, codes = _codes(ir, src, bpb)
    assert not v.validated
    assert codes == {"TC01"}, [d.render() for d in v.diagnostics]
    return v


class TestPrefixTrips:
    @pytest.mark.parametrize("name", ["stream_dot", "reduce_sum",
                                      "reduce_max"])
    def test_grid_stride_loop_runs_on_a_lane_prefix(self, name):
        """The library's grid-stride loops bind ``_sy = _tr * int(S)``,
        narrow ``_ln`` with ``min`` and keep no live-mask array; their
        loads take the contiguous gate, and the proof is exact."""
        ir, src, bpb = _prefix_source(name)
        assert re.search(r"_sy\d+ = _tr\d+ \* int\(r\d+\)", src)
        assert re.search(r"(_ln\d+) = min\(\1, max\(", src)
        assert "_lv" not in src
        assert "_span_ok(X, _b" in src and ", _ln" in src
        v, codes = _codes(ir, src, bpb)
        assert v.validated and v.exact and not codes

    def test_threshold_without_the_trip_offset_fires_tc01(self):
        ir, src, bpb = _prefix_source("stream_dot")
        mutated, count = re.subn(r"max\(-\(\(\(1 \* _sy\d+ \+ ",
                                 "max(-(((", src)
        assert count == 1
        _tc01_only(ir, mutated, bpb)

    def test_live_count_not_narrowed_by_min_fires_tc01(self):
        """``_ln = max(thr, 0)`` would revive lanes an earlier trip
        retired when the stride is negative."""
        ir, src, bpb = _prefix_source("reduce_sum")
        mutated, count = re.subn(r"(_ln\d+) = min\(\1, (max\(.*, 0\))\)$",
                                 r"\1 = \2", src, flags=re.M)
        assert count == 1
        _tc01_only(ir, mutated, bpb)

    def test_stride_symbol_from_the_wrong_register_fires_tc01(self):
        ir, src, bpb = _prefix_source("stream_dot")
        mutated, count = re.subn(r"(_sy\d+ = _tr\d+ \* int\()r\d+\)",
                                 r"\1r0)", src)
        assert count == 1
        v = _tc01_only(ir, mutated, bpb)
        assert any("trip offset scales register `n`" in d.message
                   for d in v.diagnostics)

    @pytest.mark.parametrize("k", range(6))
    def test_load_gate_without_a_wraparound_conjunct_fires_tc01(self, k):
        """Each of the first load gate's 6 no-wraparound conjuncts (the
        modelled i's u64 cast, its byte offset, and the pointer plus the
        offset, each a pair) is needed."""
        ir, src, bpb = _prefix_source("stream_dot")
        gate = next(line for line in src.split("\n")
                    if "_span_ok(X, _b" in line and ", _ln" in line)
        conjuncts = re.findall(r"\((?:[^()]|\([^()]*\))*<=(?:[^()]|\([^()]*\))*\) and ",
                               gate)
        assert len(conjuncts) == 6
        mutated = src.replace(gate, gate.replace(conjuncts[k], "", 1), 1)
        _tc01_only(ir, mutated, bpb)

    def test_prefix_form_on_a_loop_reading_i_afterwards_fires_tc01(self):
        """Forced through a compiler that skips the after-the-loop rule,
        the prefix form leaves ``i`` at its entry value for the read
        after the loop; tracesan refuses the loop."""
        from repro.isa.instructions import While
        from tests.trace_fuzz import induction_kernel

        ir = induction_kernel("read_after")
        grid = (4, 1, 1)
        bpb = canonical_batch_width(ir, BLOCK3)
        clean = _TraceCompiler(ir, 32, grid, BLOCK3, bpb).compile()
        assert "_lv" in clean
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracing, "_induction_loops", lambda body: {
                id(w): tracing._induction_shape(w) for w in body
                if isinstance(w, While)})
            forced = _TraceCompiler(ir, 32, grid, BLOCK3, bpb).compile()
        assert "_lv" not in forced and "min(_ln" in forced
        v = validate_program(ir, forced, 32, grid, BLOCK3, bpb)
        assert not v.validated
        assert {d.code for d in v.diagnostics} == {"TC01"}
        assert any("no induction register" in d.message
                   for d in v.diagnostics)


# -- no-wraparound guards of contiguous fast paths ----------------------------


def test_triad_gate_without_its_wraparound_pair_fires_tc01():
    """stream_triad at grid 256 x block 256: the first load's gate
    without its base's no-wraparound pair no longer validates."""
    ir = KERNEL_LIBRARY["stream_triad"].ir
    grid = (256, 1, 1)
    bpb = canonical_batch_width(ir, BLOCK3)
    src = _TraceCompiler(ir, 32, grid, BLOCK3, bpb).compile()
    pair = ("(0 <= 1 * _sy2 + 0) and "
            "(1 * _sy2 + 524280 <= 18446744073709551615) and ")
    assert src.count(pair) == 1
    clean = validate_program(ir, src, 32, grid, BLOCK3, bpb)
    assert clean.validated and clean.exact
    v = validate_program(ir, src.replace(pair, ""), 32, grid, BLOCK3, bpb)
    assert not v.validated
    assert {d.code for d in v.diagnostics} == {"TC01"}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_dot_tree_load_gate_needs_every_pair(k):
    """stream_dot's tree-loop shared load ``tile[tid + s]`` is guarded
    for its i64 sum, its u64 cast and its u64 byte offset: dropping any
    one pair fires TC01."""
    ir, src, bpb = _dot_source()
    pair = r"\(-?\d+ <= \d+ \* _sy\d+ \+ -?\d+\) and \(\d+ \* _sy\d+ \+ \d+ <= \d+\) and "
    gate = next(l for l in src.split("\n")
                if len(re.findall(pair, l)) == 3)
    pairs = re.findall(pair, gate)
    mutated = src.replace(gate, gate.replace(pairs[k], "", 1))
    v, codes = _codes(ir, mutated, bpb)
    assert not v.validated
    assert codes == {"TC01"}


def test_block_prefix_against_an_immediate_validates():
    """``if tid < 100`` gates a per-block prefix whose bound the program
    spells ``int(np.int64(100))``: a constant, not an unbound symbol."""
    from repro.isa import IRBuilder, dtypes

    b = IRBuilder("first_hundred")
    b.param("n", dtypes.I64)
    out = b.param("out", dtypes.F64, pointer=True)
    t = b.global_id()
    tid = b.cvt(b.special("tid.x"), dtypes.I64)
    with b.if_(b.lt(tid, 100)):
        b.store_elem(out, t, 1.0, dtypes.F64)
    ir = b.build()
    src, bpb = _compile(ir, GRID, BLOCK3)
    assert "int(np.int64(100))" in src
    v, codes = _codes(ir, src, bpb)
    assert v.validated and v.exact and not codes


# -- shared fuzz corpus, static half -----------------------------------------


@pytest.mark.parametrize("case", TRACEABLE_CASES, ids=lambda c: c.name)
def test_fuzz_case_validates_statically(case):
    grid = (case.grid[0], 1, 1)
    block = (case.block[0], 1, 1)
    src, bpb = _compile(case.ir, grid, block)
    v = validate_program(case.ir, src, 32, grid, block, bpb)
    assert v.validated, [d.render() for d in v.diagnostics]
    assert not [d for d in v.diagnostics if d.severity >= Severity.ERROR]


@pytest.mark.parametrize("case", BAILING_CASES, ids=lambda c: c.name)
def test_fuzz_bailout_reported_never_validated(case):
    grid = (case.grid[0], 1, 1)
    block = (case.block[0], 1, 1)
    with pytest.raises(TraceBailout) as exc:
        _compile(case.ir, grid, block)
    assert exc.value.reason == case.bailout_reason
    report = traces_lint_report({case.name: exc.value.reason})
    assert [d.code for d in report.diagnostics] == ["TC05"]
    assert report.errors == []


def test_fuzz_corpus_shape():
    """The corpus the two suites share keeps its contract."""
    assert len(FUZZ_CORPUS) == 24
    assert len(BAILING_CASES) == 3
    reasons = {c.bailout_reason for c in BAILING_CASES}
    assert reasons == {"shuffle", "exit", "atomic_cas"}
