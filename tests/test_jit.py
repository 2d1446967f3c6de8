"""The ``@kernel`` JIT frontend, end to end.

Four claims, each load-bearing for the bring-your-own-kernel story:

1. **Differential correctness** — every corpus kernel executes
   bit-identically to its pure-Python reference on all three simulated
   devices, and under both interpreter tiers (batched and traced).
2. **Typed rejection** — every unsupported construct raises a
   :class:`JitTypeError` naming the construct and its source line.
3. **Caching** — jit units hit the content-keyed compile cache on
   recompile, and never collide with natively authored units.
4. **Service parity** — ``POST /kernel/submit`` returns byte-identical
   JSON on both transports, with typed errors and ``jit_*`` counters.
"""

from __future__ import annotations

import importlib.util
import json
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.enums import ISA, Vendor
from repro.errors import JitTypeError
from repro.frontends.kernel_dsl import ArrayAnn, f64, i64
from repro.gpu.device import Device
from repro.gpu.specs import default_spec
from repro.isa import KernelExecutor
from repro.isa.tracing import clear_trace_cache
from repro.jit import (
    MAX_SOURCE_BYTES,
    JitKernel,
    autojit,
    from_source,
    kernel,
    normalize_signature,
    reference_run,
    signature_text,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

_ISA_VENDOR = {
    ISA.PTX: Vendor.NVIDIA,
    ISA.AMDGCN: Vendor.AMD,
    ISA.SPIRV: Vendor.INTEL,
}


def _load_corpus():
    spec = importlib.util.spec_from_file_location(
        "jit_corpus_for_tests", EXAMPLES / "jit_kernels.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


corpus = pytest.fixture(scope="module")(_load_corpus)


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _launch_args(jk, n, rng):
    """(host args, indices of array args) for one corpus kernel."""
    if jk.name == "saxpy":
        return [n, 2.5, rng.random(n), rng.random(n)], (2, 3)
    return [n, rng.random(n), np.zeros(n)], (1, 2)


GEOM = lambda n: (((n + 255) // 256,), (256,))  # noqa: E731


# -- differential: devices vs. the pure-Python reference ----------------------


@pytest.mark.parametrize("isa", list(_ISA_VENDOR))
@pytest.mark.parametrize("name", ["saxpy", "stencil3", "branchy",
                                  "block_sum"])
@pytest.mark.parametrize("n", [1, 257, 2048])
def test_corpus_bit_identical_on_all_devices(corpus, name, isa, n):
    jk = getattr(corpus, name)
    rng = np.random.default_rng(hash((name, n)) % (1 << 32))
    args, arr_idx = _launch_args(jk, n, rng)
    grid, block = GEOM(n)
    ref = reference_run(jk, grid, block, args)

    device = Device(default_spec(_ISA_VENDOR[isa]))
    result = jk.compile(isa)
    dev_args = list(args)
    allocs = {}
    for i in arr_idx:
        buf = device.alloc(args[i].nbytes)
        device.memcpy_h2d(buf, args[i])
        allocs[i] = buf
        dev_args[i] = buf
    device.launch(result.binary, jk.name, grid, block, tuple(dev_args))
    for i in arr_idx:
        got = device.memcpy_d2h(allocs[i], np.float64, ref[i].size)
        np.testing.assert_array_equal(got, ref[i])


@pytest.mark.parametrize("name", ["saxpy", "stencil3", "branchy",
                                  "block_sum"])
def test_corpus_traced_tier_bit_identical(corpus, name):
    """Trace-compiled execution matches batched execution and reference."""
    jk = getattr(corpus, name)
    n = 2048
    rng = np.random.default_rng(99)
    args, arr_idx = _launch_args(jk, n, rng)
    grid, block = GEOM(n)
    ref = reference_run(jk, grid, block, args)

    # lay the arrays out in a flat memory image, back to back
    image = np.zeros(sum(args[i].nbytes for i in arr_idx), dtype=np.uint8)
    flat_args, offset = [], 0
    for i, a in enumerate(args):
        if i in arr_idx:
            image[offset:offset + a.nbytes] = a.view(np.uint8)
            flat_args.append(offset)
            offset += a.nbytes
        else:
            flat_args.append(a)

    outcomes = {}
    for trace in (False, True):
        mem = image.copy()
        ex = KernelExecutor(jk.ir, 32, mem, trace_mode=trace)
        ex.launch(grid, block, flat_args)
        outcomes[trace] = mem
    np.testing.assert_array_equal(outcomes[False], outcomes[True])

    offset = 0
    for i in arr_idx:
        nbytes = args[i].nbytes
        got = outcomes[True][offset:offset + nbytes].view(np.float64)
        np.testing.assert_array_equal(got, ref[i])
        offset += nbytes


# -- signatures ---------------------------------------------------------------


def test_signature_spellings_agree():
    expect = (i64, f64, ArrayAnn(f64.dtype))
    for spelling in ("void(i64, f64, f64[:])", "i64, f64, f64[:]",
                     ("i64", "f64", "f64[:]"), (i64, f64, f64[:])):
        got = normalize_signature(spelling)
        assert [type(g) for g in got] == [type(e) for e in expect]
        assert signature_text(got) == "void(i64, f64, f64[:])"


def test_void_return_rule():
    with pytest.raises(JitTypeError, match="must be void, got 'f64'"):
        kernel("f64(i64, f64[:])")
    # and 'void' spelled out is accepted
    assert signature_text(normalize_signature("void(i64)")) == "void(i64)"


@pytest.mark.parametrize("bad", ["void(q8)", "void(f64[:,:])", 42,
                                 ("f64", object())])
def test_malformed_signatures_rejected(bad):
    with pytest.raises(JitTypeError):
        normalize_signature(bad)


def test_signature_annotation_disagreement_names_param():
    with pytest.raises(JitTypeError, match="parameter 'x' is annotated"):
        @kernel("void(i64, i64[:])")
        def k(n, x: "f64[:]"):
            x[0] = 1.0
        k.kernelfn  # noqa: B018 - autouse compile trigger


def test_signature_arity_mismatch():
    with pytest.raises(JitTypeError, match="2 parameter type"):
        @kernel("void(i64, f64[:])")
        def k(n):
            n = n + 1
        k.kernelfn  # noqa: B018


def test_autojit_requires_annotations():
    @autojit
    def k(n, x):
        x[0] = 1.0

    with pytest.raises(JitTypeError, match="needs a type annotation"):
        k.kernelfn  # noqa: B018


# -- typed rejections with source locations -----------------------------------


def test_rejected_corpus_kernels(corpus):
    with pytest.raises(JitTypeError, match="must be void"):
        corpus.rejected_value_return()
    with pytest.raises(JitTypeError, match="cannot return values") as ei:
        corpus.rejected_return_statement()
    assert ei.value.source_path.endswith("jit_kernels.py")
    assert ei.value.source_line is not None


@pytest.mark.parametrize("construct,line,source", [
    ("Import", 3, "def k(n: i64, x: f64[:]):\n    i = gid(0)\n"
                  "    import os\n    x[i] = 1.0\n"),
    ("Try", 3, "def k(n: i64, x: f64[:]):\n    i = gid(0)\n    try:\n"
               "        x[i] = 1.0\n    except ValueError:\n        pass\n"),
    ("Lambda", 2, "def k(n: i64, x: f64[:]):\n    f = lambda v: v\n"),
    ("With", 2, "def k(n: i64, x: f64[:]):\n    with x:\n        pass\n"),
    ("Raise", 2, "def k(n: i64, x: f64[:]):\n    raise ValueError()\n"),
    ("nested function", 2, "def k(n: i64, x: f64[:]):\n"
                           "    def inner():\n        pass\n"),
])
def test_submitted_rejections_name_construct_and_line(construct, line,
                                                      source):
    with pytest.raises(JitTypeError, match=construct) as ei:
        from_source(source)
    assert ei.value.source_line == line
    assert f":{line}:" in str(ei.value)


def test_dsl_rejections_carry_source_location():
    """Constructs the DSL compiler itself rejects point at user lines."""
    src = ("def k(n: i64, x: f64[:]):\n"
           "    i = gid(0)\n"
           "    x[i] = unknown_helper(i)\n")
    with pytest.raises(JitTypeError, match="unknown intrinsic") as ei:
        from_source(src).kernelfn  # noqa: B018
    assert ei.value.source_line == 3
    assert ":3:" in str(ei.value)


def test_decorated_function_locations_are_absolute():
    @kernel
    def bad(n: "i64", x: "f64[:]"):
        i = gid(0)  # noqa: F821 - DSL name
        x[i] = missing_fn(i)  # noqa: F821 - deliberate

    with pytest.raises(JitTypeError) as ei:
        bad.kernelfn  # noqa: B018
    assert ei.value.source_path.endswith("test_jit.py")
    # the absolute line of the offending statement in THIS file
    assert str(ei.value.source_line) in str(ei.value)
    assert ei.value.source_line > 200  # absolute, not function-relative


@pytest.mark.parametrize("source,match", [
    ("x = 1\ny = 2\n", "exactly one kernel"),
    ("import os\ndef k(n: i64):\n    pass\n", "module level"),
    ("def k(n: i64, x: f64[:], *extra):\n    pass\n", "star"),
    ("def k(n: i64 = 3):\n    pass\n", "defaults"),
    ("@staticmethod\ndef k(n: i64):\n    pass\n", "decorators"),
    ("def k(n: __import__('os')):\n    pass\n", "annotations"),
])
def test_submitted_module_validation(source, match):
    with pytest.raises(JitTypeError, match=match):
        from_source(source)


def test_source_size_limit():
    big = ("def k(n: i64, x: f64[:]):\n    i = gid(0)\n"
           + "    # pad\n" * (MAX_SOURCE_BYTES // 8))
    with pytest.raises(JitTypeError, match="exceeds"):
        from_source(big)


def test_from_source_exec_is_inert():
    """Module-level constants fold; nothing else executes."""
    jk = from_source(
        "SCALE = 3.0\n\n"
        "def k(n: i64, x: f64[:]):\n"
        "    i = gid(0)\n"
        "    if i < n:\n"
        "        x[i] = x[i] * SCALE\n")
    out = reference_run(jk, (1,), (4,), [4, np.ones(4)])
    np.testing.assert_array_equal(out[1], 3.0 * np.ones(4))


# -- inspection ---------------------------------------------------------------


def test_inspect_types_and_asm(corpus):
    dump = corpus.saxpy.inspect_types()
    assert "param n: i64 (scalar)" in dump
    assert "param x: f64 (pointer)" in dump
    asm = corpus.saxpy.inspect_asm()
    assert set(asm) == set(_ISA_VENDOR)
    assert all(corpus.saxpy.name in text for text in asm.values())
    one = corpus.saxpy.inspect_asm(ISA.PTX)
    assert one == asm[ISA.PTX]


def test_kernelsan_clean(corpus):
    for jk in corpus.CORPUS:
        report = jk.lint()
        assert not report.errors, (jk.name, [d.render()
                                             for d in report.errors])


# -- the compile cache --------------------------------------------------------


def test_recompile_is_cache_hit():
    from repro.compilers.registry import get_toolchain

    @kernel("void(i64, f64[:])")
    def cache_probe(n, x):
        i = gid(0)
        if i < n:
            x[i] = x[i] + 1.0

    tc = get_toolchain("nvcc")
    h0, m0 = tc.cache_stats.hits, tc.cache_stats.misses
    first = cache_probe.compile(ISA.PTX)
    second = cache_probe.compile(ISA.PTX)
    assert tc.cache_stats.misses == m0 + 1
    assert tc.cache_stats.hits == h0 + 1
    assert first is second


def test_jit_origin_keeps_cache_slots_apart():
    """A jit unit and a native unit with identical content don't share."""
    from repro.compilers.registry import get_toolchain
    from repro.enums import Language, Model
    from repro.frontends.source import TranslationUnit

    @kernel("void(i64, f64[:])")
    def slotted(n, x):
        i = gid(0)
        if i < n:
            x[i] = x[i] * 2.0

    tu_jit = slotted.translation_unit(Model.CUDA, language=Language.CPP)
    tu_native = TranslationUnit(
        name="jit_slotted", model=Model.CUDA, language=Language.CPP)
    tu_native.add(slotted.kernelfn)
    assert tu_jit.fingerprint() == tu_native.fingerprint()

    tc = get_toolchain("nvcc")
    m0 = tc.cache_stats.misses
    tc.compile(tu_jit, ISA.PTX)
    tc.compile(tu_native, ISA.PTX)  # same content, no origin -> own slot
    assert tc.cache_stats.misses == m0 + 2


def test_sanitize_accepts_jit_origin(corpus):
    """Sanitize mode must not try translation validation on jit units."""
    result = corpus.saxpy.compile(ISA.PTX, sanitize=True)
    assert result.diagnostics is not None


def test_fingerprint_is_content_keyed(corpus):
    @kernel("void(i64, f64, f64[:], f64[:])")
    def saxpy(n, a, x, y):
        i = gid(0)
        if i < n:
            y[i] = a * x[i] + y[i]

    assert saxpy.fingerprint() == corpus.saxpy.fingerprint()
    assert saxpy.fingerprint() != corpus.stencil3.fingerprint()


# -- the compatibility row ----------------------------------------------------


@pytest.fixture(scope="module")
def saxpy_row(corpus):
    return corpus.saxpy.compatibility_row(n=512)


def test_row_covers_all_vendors(saxpy_row):
    assert [v.vendor for v in saxpy_row.vendors] == [
        Vendor.AMD, Vendor.INTEL, Vendor.NVIDIA]
    for vrow in saxpy_row.vendors:
        assert vrow.cells, vrow.vendor
        assert all(c.ok for c in vrow.cells), [
            (c.route_id, c.error) for c in vrow.cells if not c.ok]
        assert vrow.primary.name != "NONE"


def test_row_ratings_follow_the_classifier(saxpy_row):
    by_vendor = {v.vendor: v.primary.name.lower()
                 for v in saxpy_row.vendors}
    # NVIDIA and Intel ship first-party Python routes; AMD's Python
    # column is community packages only, capping below full support.
    assert by_vendor[Vendor.NVIDIA] == "full"
    assert by_vendor[Vendor.INTEL] == "full"
    assert by_vendor[Vendor.AMD] in ("nonvendor", "some", "limited")


def test_row_serialization_is_deterministic(saxpy_row):
    d1 = saxpy_row.to_dict()
    d2 = saxpy_row.to_dict()
    assert json.dumps(d1, sort_keys=False) == json.dumps(d2,
                                                         sort_keys=False)
    assert d1["kernel"] == "saxpy"
    assert d1["lint"]["errors"] == 0
    assert saxpy_row.render().startswith("saxpy ")


def test_row_rejects_non_f64_arrays():
    @kernel("void(i64, i64[:])")
    def intkern(n, x):
        i = gid(0)
        if i < n:
            x[i] = x[i] + 1

    with pytest.raises(JitTypeError, match="f64"):
        intkern.compatibility_row(n=64)


# -- the service endpoint -----------------------------------------------------

SUBMIT_SRC = (
    "def scale(n: i64, a: f64, x: f64[:]):\n"
    "    i = gid(0)\n"
    "    if i < n:\n"
    "        x[i] = x[i] * a\n"
)


@pytest.fixture(scope="module")
def service():
    from repro.service import MatrixService

    return MatrixService(jobs=2)


@pytest.fixture(scope="module")
def http_client(service):
    from repro.service import HttpClient, make_server

    server = make_server(service)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield HttpClient(host, port)
    server.shutdown()


def test_submit_parity_across_transports(service, http_client):
    from repro.service import InProcessClient

    inproc = InProcessClient(service)
    a = inproc.submit_kernel(SUBMIT_SRC)
    b = http_client.submit_kernel(SUBMIT_SRC)
    assert json.dumps(a.payload, sort_keys=True) == json.dumps(
        b.payload, sort_keys=True)
    assert a.kernel == "scale"
    assert a.signature == "void(i64, f64, f64[:])"
    assert len(a.fingerprint) == 64
    assert [v["vendor"] for v in a.vendors] == ["AMD", "Intel", "NVIDIA"]
    assert a.lint["errors"] == 0
    assert a.schema_version == b.schema_version


#: The same kernel twice: a ``for ... in range`` loop and its ``while``
#: spelling (the DSL lowers both to the same IR).
RANGE_SRC = (
    "def taps(n: i64, x: f64[:], out: f64[:]):\n"
    "    i = gid(0)\n"
    "    if i < n:\n"
    "        s = 0.0\n"
    "        for j in range(3):\n"
    "            s = s + x[i] * f64(j)\n"
    "        out[i] = s\n"
)
WHILE_SRC = (
    "def taps(n: i64, x: f64[:], out: f64[:]):\n"
    "    i = gid(0)\n"
    "    if i < n:\n"
    "        s = 0.0\n"
    "        j = 0\n"
    "        while j < 3:\n"
    "            s = s + x[i] * f64(j)\n"
    "            j = j + 1\n"
    "        out[i] = s\n"
)


def test_submitted_range_loop_rates_like_while_loop(http_client):
    """Submitted source runs with empty builtins; the reference executor
    must still bind ``range``.  Each submission goes to a service that
    has not seen the kernel, so none is served from the row cache."""
    from repro.service import InProcessClient, MatrixService

    by_while = InProcessClient(MatrixService(jobs=2)).submit_kernel(WHILE_SRC)
    by_range = InProcessClient(MatrixService(jobs=2)).submit_kernel(RANGE_SRC)
    by_http = http_client.submit_kernel(RANGE_SRC)
    assert by_range.fingerprint == by_while.fingerprint
    for row in (by_range, by_http):
        assert row.vendors == by_while.vendors
        assert all(cell["status"] == "ok"
                   for vendor in row.vendors for cell in vendor["routes"])


def test_submit_row_is_cached_by_fingerprint(service):
    from repro.service import InProcessClient

    inproc = InProcessClient(service)
    first = inproc.submit_kernel(SUBMIT_SRC)
    before = service.metrics.counter("jit_submissions_total").value
    again = inproc.submit_kernel(SUBMIT_SRC)
    assert again.payload == first.payload
    assert service.metrics.counter(
        "jit_submissions_total").value == before + 1


def test_evicted_row_is_rebuilt_equal_to_the_first_reply():
    from repro.memo import Memo
    from repro.service import InProcessClient, MatrixService

    service = MatrixService(jobs=2)
    rows = service._kernel_rows = Memo("test:kernel_rows", 2)
    client = InProcessClient(service)
    sources = [SUBMIT_SRC.replace("x[i] * a", f"x[i] * a + {c}.0")
               for c in range(3)]
    replies = [client.submit_kernel(source).payload for source in sources]
    assert rows.stats.evictions == 1
    assert len({r["fingerprint"] for r in replies}) == 3
    again = client.submit_kernel(sources[0]).payload
    assert rows.stats.misses == 4
    assert again == replies[0]


def test_submit_rejection_is_typed_on_both_transports(service, http_client):
    from repro.service import InProcessClient, KernelRejectedError

    bad = "def k(n: i64):\n    import os\n"
    with pytest.raises(KernelRejectedError, match="Import") as e_in:
        InProcessClient(service).submit_kernel(bad)
    with pytest.raises(KernelRejectedError, match="Import") as e_http:
        http_client.submit_kernel(bad)
    assert str(e_in.value) == str(e_http.value)
    assert e_http.value.status == 422


def test_submit_limits_and_bad_requests(service, http_client):
    from repro.service import (BadRequestError, InProcessClient,
                               PayloadTooLargeError)

    inproc = InProcessClient(service)
    with pytest.raises(BadRequestError):
        inproc.service.submit_kernel({})
    with pytest.raises(BadRequestError):
        inproc.service.submit_kernel({"source": 42})
    big = "# x\n" * (MAX_SOURCE_BYTES // 4 + 1)
    with pytest.raises(PayloadTooLargeError):
        http_client.submit_kernel(big)


def test_oversized_body_is_refused_before_it_is_read(service, http_client):
    """A body above the cap gets its 413 unread.  This request declares
    1 MiB and sends a few bytes, so a server that waited for the rest
    would not answer within the client's timeout."""
    import http.client

    counter = service.metrics.counter("jit_rejections_total_payload_too_large")
    before = counter.value
    conn = http.client.HTTPConnection(http_client.host, http_client.port,
                                      timeout=5)
    try:
        conn.request("POST", "/kernel/submit", body=b'{"source": "',
                     headers={"Content-Type": "application/json",
                              "Content-Length": str(1 << 20)})
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 413
    assert payload["error"]["code"] == "payload_too_large"
    assert counter.value == before + 1
    # A submission under the cap is still served.
    assert http_client.submit_kernel(SUBMIT_SRC).kernel == "scale"


def test_handler_reads_time_out():
    from repro.service.server import _Handler

    assert isinstance(_Handler.timeout, float) and 0 < _Handler.timeout < 600


def _stalled_submit(http_client) -> socket.socket:
    """A connection that declares a 100,000-byte body and sends 12."""
    sock = socket.create_connection((http_client.host, http_client.port),
                                    timeout=10)
    sock.sendall(b"POST /kernel/submit HTTP/1.1\r\nHost: localhost\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: 100000\r\n\r\n" + b'{"source": "')
    return sock


def test_a_stalled_body_loses_its_connection(monkeypatch, http_client):
    """The server drops a body that stops arriving, rather than holding
    a handler thread until the client leaves."""
    from repro.service.server import _Handler

    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with _stalled_submit(http_client) as sock:
        start = time.monotonic()
        assert sock.recv(1024) == b""
        assert time.monotonic() - start < 5
    assert http_client.submit_kernel(SUBMIT_SRC).kernel == "scale"


def test_a_short_body_gets_no_reply(http_client):
    """A client that leaves mid-body is not answered (a reply to a
    closed socket only raises a broken pipe on the server)."""
    with _stalled_submit(http_client) as sock:
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1024) == b""
    assert http_client.submit_kernel(SUBMIT_SRC).kernel == "scale"


def test_submit_metrics_by_error_code(service):
    from repro.service import InProcessClient, KernelRejectedError

    inproc = InProcessClient(service)
    before = service.metrics.counter(
        "jit_rejections_total_kernel_rejected").value
    total_before = service.metrics.counter("jit_rejections_total").value
    with pytest.raises(KernelRejectedError):
        inproc.submit_kernel("def k(n: i64):\n    yield n\n")
    assert service.metrics.counter(
        "jit_rejections_total_kernel_rejected").value == before + 1
    assert service.metrics.counter(
        "jit_rejections_total").value == total_before + 1
    snap = service.snapshot_metrics()
    assert "jit_submissions_total" in snap["counters"]
    assert "jit_rejections_total" in snap["counters"]


def test_submit_endpoint_without_body_is_bad_request(service):
    from repro.service import BadRequestError
    from repro.service.server import dispatch

    with pytest.raises(BadRequestError):
        dispatch(service, ["kernel", "submit"], lambda k, d=None: d)


# -- the CLI ------------------------------------------------------------------


def _corpus_path(name=None):
    spec = str(EXAMPLES / "jit_kernels.py")
    return spec if name is None else f"{spec}:{name}"


def test_cli_jit_compile(capsys):
    from repro.cli import main

    assert main(["jit", "compile", _corpus_path("saxpy")]) == 0
    out = capsys.readouterr().out
    assert "saxpy void(i64, f64, f64[:], f64[:])" in out
    for isa in ("ptx", "amdgcn", "spirv"):
        assert isa in out


def test_cli_jit_inspect_json(capsys):
    from repro.cli import main

    assert main(["jit", "inspect", _corpus_path("saxpy"),
                 "--target", "ptx", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel"] == "saxpy"
    assert set(payload["asm"]) == {"ptx"}


def test_cli_jit_row_json(capsys):
    from repro.cli import main

    assert main(["jit", "row", _corpus_path("saxpy"),
                 "--n", "256", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["vendor"] for v in payload["vendors"]] == [
        "AMD", "Intel", "NVIDIA"]


def test_cli_jit_usage_errors(capsys):
    from repro.cli import main

    assert main(["jit", "compile", _corpus_path("nope")]) == 2
    assert main(["jit", "compile", _corpus_path()]) == 2  # ambiguous
    err = capsys.readouterr().err
    assert "nope" in err


def test_cli_lint_covers_jit_modules(capsys):
    from repro.cli import main

    assert main(["lint", "--module", _corpus_path()]) == 0
    assert "linted 4 kernel(s)" in capsys.readouterr().out
