"""Output checks and the values they are pinned to.

Every timed operation is checked; a check that finds a problem counts
the operation as failed, which is what ``failed`` / ``attempted`` (the
error rate) in the result line report.  The pins were taken from the
program as it stood when the benchmark was written; a change that moves
one changes the program's output, which the ROADMAP requires to stay
byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

#: sha256 of Figure 1 rendered as text (title "Figure 1").
FIGURE1_TEXT_SHA256 = (
    "9c2dbec7332f8569f6660f50777f906cc0636c6cc8fa5b667238d7fb404820af")
#: sha256 of ``gpu-compat perf --format json`` at the default PerfParams.
PERF_JSON_SHA256 = (
    "373f4a78fc942f64a5c069722d24a85f67b891d0c1bdb00d1a047062dd194fab")
#: sha256 of ``gpu-compat lint --all --format json`` on the warm store.
LINT_ALL_SHA256 = (
    "14ff6a16e52f571a1cdbfc105188ae4c9a424dee835e55fb6397f3bedcb8c66e")

#: Simulated work of one cold 51-cell build on the thread backend.
MATRIX_COLD_STATS = {"launches": 1064, "lanes": 2527752,
                     "bytes_moved": 61315592, "stream_kernels": 0}
#: Simulated work of one cold perf build at the default PerfParams.
PERF_COLD_STATS = {"launches": 1280, "lanes": 83886080,
                   "bytes_moved": 2139111424, "stream_kernels": 1260}

N_CELLS = 51


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``gpu-compat ARGV`` in-process; returns (status, stdout)."""
    from repro import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def simulated_stats() -> dict:
    """The program's process-wide work counters, as pinned above."""
    from repro.isa.interpreter import snapshot_interpreter_totals
    from repro.workloads.babelstream import stream_totals

    totals = snapshot_interpreter_totals()
    return {"launches": totals.launches, "lanes": totals.stats.threads,
            "bytes_moved": totals.stats.bytes_moved,
            "stream_kernels": stream_totals()["kernels"]}


def stats_problems(before: dict, after: dict, pinned: dict) -> list[str]:
    delta = {k: after[k] - before[k] for k in pinned}
    return [f"simulated {k} = {delta[k]}, pinned {v}"
            for k, v in pinned.items() if delta[k] != v]


def matrix_problems(matrix) -> list[str]:
    """Derived Figure 1 agrees with the paper and renders as pinned."""
    from repro.core.render import RENDERERS, matrix_lookup
    from repro.core.report import compare

    problems = []
    report = compare(matrix)
    if report.n_cells != N_CELLS or report.n_primary_matches != N_CELLS:
        problems.append(f"Figure 1 agrees with the published ratings on "
                        f"{report.n_primary_matches}/{report.n_cells} cells")
    text = RENDERERS["text"](matrix_lookup(matrix), title="Figure 1")
    if sha256(text) != FIGURE1_TEXT_SHA256:
        problems.append("rendered Figure 1 differs from the pinned digest")
    return problems


def reload_problems(report, reference_cells) -> list[str]:
    """A warm reload served every cell from the store, unchanged."""
    problems = []
    if report.cells_from_store != N_CELLS:
        problems.append(f"{report.cells_from_store}/{N_CELLS} cells "
                        f"from the store")
    if report.cells_evaluated:
        problems.append(f"{report.cells_evaluated} cells re-evaluated")
    if report.matrix.cells != reference_cells:
        problems.append("reloaded cells differ from the cold build")
    return problems


def perf_problems(report, store: str) -> list[str]:
    """Every ok route verified; the perf JSON renders as pinned."""
    problems = []
    unverified = [r.route_id for c in report.matrix.cells.values()
                  for r in c.routes if r.ok and not r.verified]
    if unverified:
        problems.append(f"ok routes failing BabelStream verification: "
                        f"{unverified[:5]}")
    if report.matrix.n_cells != N_CELLS:
        problems.append(f"{report.matrix.n_cells} perf cells")
    status, out = run_cli(["perf", "--store", store, "--format", "json"])
    if status != 0 or sha256(out) != PERF_JSON_SHA256:
        problems.append(f"perf JSON (status {status}) differs from the "
                        f"pinned digest")
    return problems


def lint_problems(status: int, out: str) -> list[str]:
    if status != 0 or sha256(out) != LINT_ALL_SHA256:
        return [f"lint --all (status {status}) differs from the pinned "
                f"digest"]
    return []


# -- embed ---------------------------------------------------------------------

#: sha256 of each read endpoint's in-process replies on the warm store,
#: every request of the endpoint in catalogue order (see ``read_digest``).
READ_SHA256 = {
    "admin_stores":
        "279f499ac269f5f5449c4883c8db08b82cca2276dc41ce0d651731e4dde0971e",
    "advise":
        "7c572f61bbd3800f2bde110908b0982b81f4263a51be078606284cc5391f02ac",
    "cell":
        "4a22d4b83ac3d4ad0628d9ff2cc9f30452db7e4e027c2e48883ed18e977b6ecc",
    "healthz":
        "58f1558ffd09ba31f48de37710f4df909e2e858a57a8564a05936e40fa72a4ac",
    "lint_routes":
        "110987f4e980ca01608091fbad2d9f0bce8a77753fffac4190ddc5af049bed63",
    "lint_traces":
        "c3e0c71884ddc93bfa68ea6aba65bb264f6375c7e62b72e17bc203d75b6c4cc3",
    "metrics":
        "3bb95b096422a025afd80a525e174fc9f05eee66ff83bfc0bb2a40795e630d7f",
    "table":
        "5a21e15e9d82d90dba1f8a08bbe941c5faa521d6f80ffe7c7cf6c299e81ffbb2",
}
#: sha256 of each template's reference row without the fields that name
#: the variant (see ``row_digest``).
REFERENCE_ROW_SHA256 = {
    "saxpy":
        "654ef9c2850ce10a3ccd3a536d14030f4f804660a8a28e00add6e56611d22c27",
    "stencil3":
        "a7482dbc1a3d7715255e19ee1c7f60b4f92f42a6c2ba27fbe1e25ac1dbe1b07f",
    "branchy":
        "a7482dbc1a3d7715255e19ee1c7f60b4f92f42a6c2ba27fbe1e25ac1dbe1b07f",
}

#: Blocks of the ``/metrics`` reply that must equal the in-process
#: reference; the other blocks are counters that move while it serves.
_STABLE_METRICS_BLOCKS = ("schema_version", "store", "execution", "service",
                          "stream")
#: Row fields that name the submitted variant rather than rate it.
_VARIANT_FIELDS = ("kernel", "fingerprint")


def plain(payload: dict) -> dict:
    """``payload`` as it reads after a trip through JSON."""
    return json.loads(json.dumps(payload))


def comparable(kind: str, payload: dict) -> dict:
    """The part of a read reply that must equal the in-process reply."""
    payload = plain(payload)
    if kind == "metrics":
        return {k: payload.get(k) for k in _STABLE_METRICS_BLOCKS}
    return payload


def _rating(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in _VARIANT_FIELDS}


def read_digest(payloads: list, warm: str) -> str:
    """Digest of read replies, with the warm store's directory (which
    ``/admin/stores`` names) replaced by a placeholder."""
    return sha256(json.dumps(payloads, sort_keys=True).replace(warm, "<warm>"))


def row_digest(row: dict) -> str:
    return sha256(json.dumps(_rating(row), sort_keys=True))


def read_pin_problems(expected: dict, warm: str) -> dict[str, list[str]]:
    """Endpoint kind -> its problems against ``READ_SHA256``, given the
    reference replies keyed by (kind, index)."""
    by_kind: dict[str, list] = {}
    for (kind, _index), payload in sorted(expected.items()):
        by_kind.setdefault(kind, []).append(payload)
    return {kind: [] if read_digest(payloads, warm) == READ_SHA256.get(kind)
            else [f"{kind} replies differ from the pinned digest"]
            for kind, payloads in by_kind.items()}


def row_pin_problems(references: dict) -> dict[str, list[str]]:
    """Template -> its reference row's problems against
    ``REFERENCE_ROW_SHA256``."""
    return {t: [] if row_digest(row) == REFERENCE_ROW_SHA256.get(t)
            else [f"{t} reference row differs from the pinned digest"]
            for t, row in references.items()}


def submit_problems(sub, status: int, payload: dict, references: dict,
                    first: dict) -> list[str]:
    """A known-bad kernel gets the typed 422; an accepted one a row named
    after it that rates it as its template's reference row does, and a
    resubmit the very row its first submission got.  ``first`` maps
    sources to the first row seen and is filled here."""
    if sub.kind == "bad":
        code = payload.get("error", {}).get("code")
        if status != 422 or code != "kernel_rejected":
            return [f"known-bad kernel got HTTP {status} ({code})"]
        return []
    if status != 200:
        return [f"HTTP {status}: {payload.get('error')}"]
    problems = []
    if payload.get("kernel") != sub.name:
        problems.append(f"row names kernel {payload.get('kernel')!r}")
    if _rating(payload) != _rating(references[sub.template]):
        problems.append(f"row differs from the {sub.template} reference row")
    if first.setdefault(sub.source, payload) != payload:
        problems.append("resubmitted row differs from the first reply")
    return problems


def reference_rows(client) -> dict:
    """Template -> the row an in-process service builds for its reference
    source (see ``kernels.reference_source``)."""
    from perfbench.kernels import TEMPLATES, reference_source

    return {t: plain(client.submit_kernel(reference_source(t)).payload)
            for t in TEMPLATES}
