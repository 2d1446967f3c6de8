"""The ``embed`` workload: the service embedded in-process, closed loop.

A program that embeds the service holds a ``MatrixService`` and calls it
through ``InProcessClient``, the program's in-process transport, which
routes every request through the same ``dispatch`` the HTTP server uses.
One thread issues a seeded stream of requests back to back:
``READS_PER_SUBMISSION`` reads, then one kernel submission from
``kernels.Submissions``.

The traffic is assumed; nothing in the repository records real use:

* each read picks one of the eight read endpoints of ``read_catalogue``
  with equal chance, then one of that endpoint's requests with equal
  chance (one of the 51 cells, a table format, a vendor and language);
* ``READS_PER_SUBMISSION`` is the ratio of a server taking 100 reads/s
  to one connection submitting kernels back to back with 0.2 s think
  time (about 45 ms per submission, so about four a second).

It measures what ``gpu-compat serve`` does per request minus the HTTP
transport and the GIL shared with concurrent requests: dispatch, the JIT
frontend, the compiler and the reference executor.  An iteration is one
block of ``kernels.BLOCK`` submissions; with ``--trace 1`` iterations
alternate untraced and traced.

Every read request and every template's new submissions recur many
times in a run, so each gets its median over the run, and the mix is
put together from those medians by its shares: ``warm_ms`` is the cost
of an average read (``mix_cost``), ``cold_s`` that of an average new
(cache-missing) submission, and ``cold_aux_s`` the slowest template's.
A percentile of the whole mix would instead fall where one endpoint's or
template's latencies meet the next one's, and jump between them with
the seed and with the machine's slow spells.  The row cache shows in
``jit.row_cache_hits``, and every resubmit and rejection is checked.
"""

from __future__ import annotations

import random

from perfbench import checks, layers
from perfbench.common import (Phases, Result, Run, median, percentile,
                              prepare_warm_store)
from perfbench.kernels import BLOCK, Submissions

READS_PER_SUBMISSION = 24
#: Workers the embedded service is configured with.  It builds nothing
#: (every cell comes from the warm store) and its replies name this
#: number, which the pinned read digests cover, so it is fixed rather
#: than the machine's CPU count.
SERVICE_JOBS = 2


def read_catalogue() -> dict[str, list]:
    """Endpoint kind -> [(request path, in-process call)]."""
    from repro.enums import VENDOR_ORDER, Language, all_cells

    languages = [lang.value for lang in Language]
    return {
        "healthz": [("/healthz", lambda c: c.health())],
        "cell": [(f"/cell/{v.value}/{m.value}/{l.value}",
                  lambda c, v=v, m=m, l=l: c.cell(v.value, m.value, l.value))
                 for v, m, l in all_cells()],
        "table": [(f"/table?format={f}", lambda c, f=f: c.table(f))
                  for f in ("text", "markdown", "html", "tex", "yaml")],
        "advise": [(f"/advise?vendor={v.value}&language={l}",
                    lambda c, v=v, l=l: c.advise(vendor=v.value, language=l))
                   for v in VENDOR_ORDER for l in languages]
                  + [(f"/advise?language={l}",
                      lambda c, l=l: c.advise(language=l))
                     for l in languages],
        "metrics": [("/metrics", lambda c: c.metrics())],
        "admin_stores": [("/admin/stores", lambda c: c.admin_stores())],
        "lint_routes": [("/lint/routes", lambda c: c.lint_report())],
        "lint_traces": [("/lint/traces", lambda c: c.lint_traces())],
    }


def run_embed(run: Run) -> Result:
    from repro.service import InProcessClient, MatrixService, ServiceError

    prepare_warm_store(run)
    warm = str(run.work / "warm")
    ph = Phases(run, "embed")
    service = MatrixService(jobs=SERVICE_JOBS, store=warm)
    service.ensure_built()
    client = InProcessClient(service)
    reference_service = MatrixService(jobs=SERVICE_JOBS, store=warm)
    reference_service.ensure_built()
    reference = InProcessClient(reference_service)
    catalogue = read_catalogue()
    kinds = sorted(catalogue)
    expected = {(kind, i): checks.comparable(kind, call(reference).payload)
                for kind in kinds
                for i, (_path, call) in enumerate(catalogue[kind])}
    read_pins = checks.read_pin_problems(expected, warm)
    references = checks.reference_rows(reference)
    row_pins = checks.row_pin_problems(references)
    rng = random.Random(f"embed-reads-{run.seed}")
    submissions = Submissions(run.seed)
    first: dict = {}
    reads: list[tuple[str, float]] = []
    submits: list[tuple[str, bool]] = []
    # Untraced times of each read request and of each template's new
    # submissions; see ``mix_cost``.
    times: dict = {}

    def keep(key, value: float, traced: bool) -> None:
        if not traced:
            times.setdefault(key, []).append(value)

    def submit(sub):
        try:
            return 200, client.submit_kernel(
                sub.source, signature=sub.signature).payload
        except ServiceError as exc:
            return exc.status, {"error": {"code": exc.code}}

    # Untimed warm-up: every read once, one submission per template.
    for entries in catalogue.values():
        for _path, call in entries:
            call(client)
    warm_up = Submissions(-1 - run.seed)
    for _ in range(6):
        submit(warm_up.next())

    def body(i: int, traced: bool) -> None:
        for k in range(BLOCK):
            for r in range(READS_PER_SUBMISSION):
                kind = rng.choice(kinds)
                index = rng.randrange(len(catalogue[kind]))
                path, call = catalogue[kind][index]
                rid = f"{i}r{k}.{r}"
                reply, secs = ph.timed(traced, rid, call, client)
                ph.add("warm", secs * 1e3, traced)
                keep(("read", kind, index), secs * 1e3, traced)
                if traced:
                    reads.append((rid, secs))
                got = checks.comparable(kind, reply.payload)
                ph.outcome.check(rid, read_pins[kind] + (
                    [] if got == expected[(kind, index)] else
                    [f"{path} reply differs from the in-process reference"]))
            sub = submissions.next()
            rid = f"{i}s{k}"
            (status, payload), secs = ph.timed(traced, rid, submit, sub)
            if sub.kind == "new":
                ph.add("cold", secs, traced)
                keep(("submit", sub.template), secs, traced)
            if traced:
                submits.append((rid, sub.kind != "bad"))
            ph.outcome.check(rid, row_pins.get(sub.template, []) +
                             checks.submit_problems(
                                 sub, status, checks.plain(payload),
                                 references, first))

    ph.iterate(body)
    s = ph.samples
    notes = ph.notes() + [
        f"reads {len(s['warm'])}, new submissions {len(s['cold'])}",
        "new submission ms p50/p90 " + "/".join(
            f"{percentile(s['cold'], p) * 1e3:.2f}" for p in (50, 90)),
        "read ms p50/p90/p95/p99 " + "/".join(
            f"{percentile(s['warm'], p):.4f}" for p in (50, 90, 95, 99))]
    if run.trace:
        values = ph.layer_values()
        per = max(1, ph.traced_iterations)
        server = layers.server_values(ph.recorder.spans, reads, submits)
        for name in ("service.server.requests", "jit.row_cache_hits"):
            server[name] /= per
        values.update(server)
        return Result(values, ph.outcome, notes, ph.recorder.spans)
    submit = [median(v) for k, v in times.items() if k[0] == "submit"]
    return Result({"setup_s": ph.setup_s(), "peak_rss_mb": ph.rss_mb,
                   "cold_s": sum(submit) / len(submit),
                   "cold_aux_s": max(submit),
                   "warm_ms": mix_cost(times, kinds)},
                  ph.outcome, notes)


def mix_cost(times: dict, kinds) -> float:
    """Cost of an average read of the mix: each read request's median
    time, averaged over the requests of an endpoint, then over the
    endpoints (each equally likely)."""
    per_kind = []
    for kind in kinds:
        medians = [median(v) for k, v in times.items()
                   if k[:2] == ("read", kind)]
        per_kind.append(sum(medians) / len(medians))
    return sum(per_kind) / len(per_kind)
