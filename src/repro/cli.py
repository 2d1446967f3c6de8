"""``gpu-compat`` command-line interface.

Subcommands:

* ``table [--format text|markdown|html|tex|yaml] [--source paper|derived]``
  — render Figure 1.
* ``report`` — derive the matrix empirically and print the agreement
  report against the reconstructed published ratings.
* ``describe VENDOR MODEL LANGUAGE`` — print a cell's §4 description,
  routes, and measured coverage.
* ``advise --vendor V --language L`` / ``--model M --language L`` —
  route recommendations.
* ``routes`` — list the full route registry.
* ``lint [--module MOD] [--kernel NAME] [--block X,Y,Z] [--grid X,Y,Z]
  [--extent PARAM=COUNT] [--pass NAME] [--format text|json|sarif]`` —
  run the kernelsan static analyses over the bundled kernel library
  (default) or over the ``@kernel`` functions of an importable module.
* ``lint --routes [--format text|json|sarif]`` — statically derive the
  51-cell matrix from the route registry (toolchain capabilities +
  translator maps, no probe execution) and cross-check it against the
  reconstructed paper ratings (``RE01``–``RE03``).
* ``lint --perf [--jobs N] [--store DIR] [--n N] [--reps R]
  [--format text|json|sarif]`` — predict the perf matrix statically
  (perfstat's cost model, zero kernel executions), measure it
  dynamically, and cross-check the two (``PS01``–``PS06``).  A warm
  ``--store`` keeps the measured half execution-free too.
* ``lint --traces [--format text|json|sarif]`` — tracesan: statically
  re-prove every trace-compiled library kernel equivalent to its IR at
  its canonical geometry (``TC01``–``TC06``) — abstract interpretation
  only, zero kernel executions.
* ``lint --all [--format text|json|sarif]`` — all five lint families
  (kernelsan, routes, transval, perfstat, tracesan) in one run; merged
  report, worst per-family exit code.
* ``transval [--format text|json|sarif]`` — audit every shipped
  source-to-source translator (``TV01``–``TV06``).
* ``eval [--jobs N] [--execution thread|process] [--store DIR]
  [--metrics-json PATH]`` — build the matrix through the concurrent
  scheduler against a persistent result store (warm store: zero probe
  executions).  ``--execution process`` shards cells across a worker-
  process fleet (GIL-free); output is byte-identical on both backends
  at every ``--jobs`` count.
* ``perf [--jobs N] [--execution thread|process] [--store DIR] [--n N]
  [--reps R] [--format text|json|csv]`` — run the five BabelStream
  kernels through every viable route of every cell and report per-cell
  efficiencies, per-model cascades, and the Pennycook
  performance-portability metric.  Deterministic: the ``json``/``csv``
  output is byte-identical at every ``--jobs`` count on both execution
  backends.  A warm ``--store`` executes zero stream kernels.
  ``--static`` reports perfstat's *predicted* matrix instead — same
  formats, same reductions, zero kernel executions, cold or warm.
* ``serve [--host H] [--port P] [--jobs N] [--execution thread|process]
  [--store DIR] [--lazy] [--read-only]`` — serve the derived matrix
  over the loopback JSON API (``/healthz``, ``/cell``, ``/table``,
  ``/advise``, ``/lint?family=routes|perf|traces`` and its one-release
  aliases ``/lint/routes``, ``/lint/perf``, ``/lint/traces``,
  ``/metrics``, ``/perf/matrix``, ``/perf/cell``, ``/perf/portability``,
  ``/perf/static``, ``/admin/stores``, ``/admin/stores/clear``,
  ``/kernel/submit``; ``repro.service.server.ENDPOINTS`` lists them).
  ``--read-only`` turns the mutating ``/admin`` endpoints into typed
  403 ``read_only`` errors.

``--jobs`` for ``eval``/``perf``/``serve`` defaults to
``os.cpu_count()`` and shares one validator (must be >= 1; exit 2
otherwise); ``--execution`` selects the scheduler backend (``thread``
keeps the GIL-bound pool, ``process`` runs the worker fleet).

``--format json`` prints the ``LintReport`` as JSON (diagnostic code,
severity, kernel, path, message, hint, plus severity rollups) and
nothing else, for CI artifact upload and tooling; ``--format sarif``
prints the same findings as one SARIF 2.1.0 run (the shared serializer
in :mod:`repro.analysis.diagnostics`) for code-scanning upload.

The global ``--stats`` flag appends a summary of compile-cache
hit/miss counters and interpreter launch/batch totals (worker processes'
included) after any subcommand — the observability hooks for the
block-batched execution path and the content-keyed compile cache.

Exit codes (stable; scripts and CI rely on them):

====  =====================================================================
code  meaning
====  =====================================================================
0     success; for ``lint``/``transval``: no error-severity diagnostics
      (warnings OK); for ``lint --routes``: derived matrix matches the
      paper (documented RE03 divergences OK); for ``lint --perf``:
      predictions within tolerance, best routes confirmed; for ``lint
      --traces``: every traceable kernel proven exactly equivalent
1     findings: ``lint``/``transval`` found error-severity diagnostics,
      ``lint --routes`` found dual-rating warnings (RE02), ``lint
      --perf`` found best-route or structure mismatches (PS02/PS04),
      ``lint --traces`` proved only conservative bounds (TC04), or
      ``report`` disagreed with the published matrix.  ``lint --all``
      propagates the worst per-family code.  **Extension:** ``eval``/
      ``perf``/``serve`` exit 1 on a scheduler failure (a job exhausted
      its retry budget — :class:`~repro.service.SchedulerError`), and
      ``serve`` when it cannot listen on its host and port
2     usage error (argparse: unknown flag, missing operand, bad value;
      ``describe``/``advise`` of a combination Figure 1 has no cell for;
      ``conformance`` of a model with no V&V suite);
      **extension:** ``lint --routes`` also exits 2 on an RE01
      contradiction, ``lint --perf`` on a PS01 prediction error, and
      ``lint --traces`` on any TC01/TC02/TC03 — the tool's own
      components (registry vs. paper matrix, cost model vs.
      interpreter, trace compiler vs. IR semantics) disagree, which CI
      must distinguish from ordinary findings
3     input rejected: the kernel source or IR failed verification
      (:class:`~repro.errors.VerificationError`,
      :class:`~repro.errors.FrontendError`,
      :class:`~repro.errors.CompileError`) — the lint never ran
====  =====================================================================
"""

from __future__ import annotations

import argparse
import sys

from repro import enums
from repro.enums import Language, Model, SupportCategory
from repro.errors import CompileError, FrontendError, VerificationError


def _axis(parse):
    """An argparse type over a :mod:`repro.enums` parser, also applied to
    its checks after parsing (a ``ValueError`` exits 2)."""
    def convert(*args):
        try:
            return parse(*args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_vendor = _axis(enums.parse_vendor)
_model = _axis(enums.parse_model)
_language = _axis(enums.parse_language)


def cmd_table(args) -> int:
    from repro.core.render import RENDERERS, matrix_lookup, paper_lookup

    if args.source == "derived":
        from repro.core.matrix import build_matrix

        lookup = matrix_lookup(build_matrix())
        title = "Figure 1 (derived empirically on the simulated system)"
    else:
        lookup = paper_lookup()
        title = "Figure 1 (reconstructed published ratings)"
    renderer = RENDERERS[args.format]
    if args.format in ("text", "markdown", "html", "tex"):
        print(renderer(lookup, title=title))  # type: ignore[call-arg]
    else:
        print(renderer(lookup))
    return 0


def cmd_report(args) -> int:
    from repro.core.matrix import build_matrix
    from repro.core.report import compare

    matrix = build_matrix()
    report = compare(matrix)
    print("\n".join(report.summary_lines()))
    return 0 if report.agreement == 1.0 else 1


def cmd_describe(args) -> int:
    from repro.core.descriptions import describe_cell
    from repro.core.routes import routes_for
    from repro.data.paper_matrix import expected

    _axis(enums.require_cell)(args.vendor, args.model, args.language)
    desc = describe_cell(args.vendor, args.model, args.language)
    cell = expected(args.vendor, args.model, args.language)
    print(f"[{desc.number}] {desc.title}")
    print(f"rating: {cell.primary.symbol} {cell.primary.label}"
          + (f" (+ {cell.secondary.label})" if cell.secondary else ""))
    print()
    print(desc.text)
    routes = routes_for(args.vendor, args.model, args.language)
    if routes:
        print("\nroutes:")
        for r in routes:
            print(f"  - {r.label}: {r.via} "
                  f"({r.provider.value}, {r.mechanism.value}, {r.maturity.value})")
    else:
        print("\nroutes: none (no support)")
    if desc.references:
        print("\nreferences:", ", ".join(f"[{n}]" for n in desc.references))
    return 0


def cmd_advise(args) -> int:
    from repro.core.advisor import Advisor

    advisor = Advisor(minimum=SupportCategory.LIMITED)
    if args.model is not None:
        _axis(enums.require_cell)(args.model, args.language)
        print(f"platforms for {args.model.value} / {args.language.value}:")
        for rec in advisor.platforms_for_model(args.model, args.language):
            print(f"  {rec}")
    elif args.vendor is not None:
        print(f"models usable on {args.vendor.value} from {args.language.value}:")
        for rec in advisor.models_for_platform(args.vendor, args.language):
            print(f"  {rec}")
    else:
        print("portable models (usable on all three vendors):")
        for lang in (Language.CPP, Language.FORTRAN):
            models = advisor.portable_models(lang, SupportCategory.LIMITED)
            print(f"  {lang.value}: {', '.join(m.value for m in models)}")
    return 0


def cmd_routes(args) -> int:
    from repro.core.routes import all_routes

    routes = all_routes()
    print(f"{len(routes)} registered routes:")
    for r in routes:
        print(f"  {r.route_id:28s} {r.via}")
    return 0


def cmd_conformance(args) -> int:
    from repro.core.validation import (
        SUITES,
        compiler_table,
        render_compiler_table,
    )

    if args.model not in SUITES:
        raise argparse.ArgumentTypeError(
            f"no V&V suite for {args.model.value}; suites exist for "
            + " and ".join(model.value for model in SUITES))
    reports = compiler_table(args.model, args.language)
    print(f"{args.model.value} {args.language.value} conformance "
          f"(V&V-suite style):\n")
    print(render_compiler_table(reports))
    return 0


def _dim3(text: str) -> tuple[int, int, int]:
    parts = [p for p in text.split(",") if p]
    if not 1 <= len(parts) <= 3:
        raise argparse.ArgumentTypeError(f"bad geometry '{text}' (use X[,Y[,Z]])")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad geometry '{text}'") from None
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("geometry dimensions must be >= 1")
    return tuple(dims + [1] * (3 - len(dims)))  # type: ignore[return-value]


def _extent(text: str) -> tuple[str, object]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"bad extent '{text}' (use PARAM=COUNT or PARAM=SCALAR_PARAM)")
    return name, (int(value) if value.lstrip("-").isdigit() else value)


def _load_user_module(name_or_path: str):
    """Import a module by dotted name, or load a ``.py`` file by path."""
    import importlib

    if name_or_path.endswith(".py"):
        import importlib.util
        import os

        modname = os.path.splitext(os.path.basename(name_or_path))[0]
        spec = importlib.util.spec_from_file_location(modname, name_or_path)
        if spec is None or spec.loader is None:
            raise argparse.ArgumentTypeError(
                f"cannot load '{name_or_path}'")
        mod = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(mod)
        except (OSError, SyntaxError) as exc:
            raise argparse.ArgumentTypeError(
                f"cannot load '{name_or_path}': {exc}") from exc
        return mod
    try:
        return importlib.import_module(name_or_path)
    except ImportError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot import module '{name_or_path}': {exc}") from exc


def _lint_corpus(args):
    """Collect the KernelIR objects to lint: library or a user module."""
    from repro.frontends.kernel_dsl import KernelFn
    from repro.jit.api import JitKernel

    if args.module:
        mod = _load_user_module(args.module)
        fns = [v for v in vars(mod).values() if isinstance(v, KernelFn)]
        # jit-decorated kernels lint through their compiled KernelFn,
        # so `gpu-compat lint --module` covers @kernel corpora too
        fns += [v.kernelfn for v in vars(mod).values()
                if isinstance(v, JitKernel)]
        if not fns:
            raise argparse.ArgumentTypeError(
                f"module '{args.module}' defines no @kernel functions")
    else:
        from repro.kernels import KERNEL_LIBRARY

        fns = list(KERNEL_LIBRARY.values())
    if args.kernel:
        by_name = {f.ir.name: f for f in fns}
        missing = [n for n in args.kernel if n not in by_name]
        if missing:
            raise argparse.ArgumentTypeError(
                f"unknown kernel(s): {', '.join(missing)}")
        fns = [by_name[n] for n in args.kernel]
    return fns


#: Each family's last text line, from its summary line, its agreement
#: rollup and the counts `_lint_inputs` returns.
_FOOTERS = {
    "kernelsan": "linted {kernels} kernel(s): {summary}",
    "routes": ("cross-checked 51 cells against the reconstructed paper "
               "matrix: {summary}"),
    "transval": ("validated {translators} translator instance(s) "
                 "[{names}]: {summary}"),
    "perfstat": ("cross-checked 51 cells against the measured perf "
                 "matrix: {summary} ({cells_agreeing} supported cell(s) "
                 "agreeing)"),
    "tracesan": ("statically validated {validated}/{kernels_total} "
                 "trace-compiled kernel(s) ({exact} exact, {bailed_out} "
                 "bailed out, 0 kernel executions): {summary}"),
}


def _lint_inputs(name: str, args) -> tuple[tuple, dict]:
    """A family's builder inputs, and the counts its footer names.

    kernelsan lints the corpus and geometry the flags pick; perfstat
    cross-checks the two perf matrices of a service over ``--store``.
    """
    if name == "kernelsan":
        from repro.analysis import AnalysisOptions, LaunchBounds
        from repro.analysis.sanitizer import PASSES
        from repro.isa.module import ModuleIR

        fns = _lint_corpus(args)
        module = ModuleIR(name=args.module or "kernel_library")
        for fn in fns:
            module.add(fn.ir)
        passes = tuple(args.passes) if args.passes else tuple(PASSES)
        unknown = [p for p in passes if p not in PASSES]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown pass(es): {', '.join(unknown)} "
                f"(available: {', '.join(PASSES)})")
        options = AnalysisOptions(
            bounds=LaunchBounds.of(block=args.block, grid=args.grid),
            extents=dict(args.extent) if args.extent else None,
            passes=passes,
        )
        return (module, options), {"kernels": len(fns)}
    if name == "transval":
        from repro.analysis.transval import shipped_translators

        translators = shipped_translators()
        names = ", ".join(
            f"{t.NAME}({t.SOURCE_MODEL.value})" for t in translators)
        return (translators,), {"translators": len(translators),
                                "names": names}
    if name == "perfstat":
        from repro.perfport import DEFAULT_N, DEFAULT_REPS, PerfParams
        from repro.service import MatrixService

        params = PerfParams(
            n=args.n if args.n is not None else DEFAULT_N,
            reps=args.reps if args.reps is not None else DEFAULT_REPS)
        service = MatrixService(jobs=args.jobs, store=args.store,
                                perf_params=params)
        return (service.perf, service.ensure_static_perf_built()), {}
    return (), {}


def _run_lint(args, names: list[str]) -> int:
    """Build, print and judge lint families: the one printer and exit
    rule behind every ``lint`` flag and ``transval``.

    One family prints under its own SARIF tool name and text footer.
    Several (``lint --all``) print one merged ``gpu-compat-lint`` run,
    each family's findings under its ``[name]`` label, and exit with the
    worst family status.
    """
    from repro.analysis.diagnostics import LintReport, to_sarif_json
    from repro.analysis.families import FAMILIES

    runs = {}
    for name in names:
        inputs, counts = _lint_inputs(name, args)
        report, agreement = FAMILIES[name].build(*inputs)
        runs[name] = report, {**counts, **(agreement or {})}
    merged = LintReport([d for report, _ in runs.values()
                         for d in report.diagnostics])
    if args.format == "sarif":
        tool = (FAMILIES[names[0]].tool if len(names) == 1
                else "gpu-compat-lint")
        print(to_sarif_json(merged, tool_name=tool))
    elif args.format == "json":
        print(merged.to_json())
    elif len(names) == 1:
        name = names[0]
        report, facts = runs[name]
        # kernelsan groups its findings by kernel, worst first
        lines = ([report.render()] if name == "kernelsan" and report.diagnostics
                 else [d.render() for d in report.diagnostics])
        lines.append(_FOOTERS[name].format(summary=report.summary_line(),
                                           **facts))
        print("\n".join(lines))
    else:
        for name, (report, _facts) in runs.items():
            for d in report.diagnostics:
                print(d.render())
            print(f"[{name}] {report.summary_line()}")
        print(f"lint --all: {len(runs)} families over "
              f"{runs['kernelsan'][1]['kernels']} kernel(s): "
              f"{merged.summary_line()}")
    return max(FAMILIES[name].exit_status(report)
               for name, (report, _facts) in runs.items())


def cmd_lint(args) -> int:
    from repro.analysis.families import FAMILIES, SERVED

    picked = [flag for flag in ("routes", "perf", "traces", "all")
              if getattr(args, flag)]
    if len(picked) > 1:
        raise argparse.ArgumentTypeError(
            f"{' and '.join('--' + flag for flag in picked)} are mutually "
            f"exclusive")
    if args.all:
        return _run_lint(args, list(FAMILIES))
    return _run_lint(args, [SERVED[picked[0]]] if picked else ["kernelsan"])


def cmd_transval(args) -> int:
    return _run_lint(args, ["transval"])


def _resolve_jit_kernel(spec: str):
    """``module_or_path[:func]`` -> one JitKernel from a user module."""
    from repro.jit.api import JitKernel

    target, _, func = spec.partition("::")
    if not func and ":" in spec and not spec.endswith(".py"):
        target, _, func = spec.rpartition(":")
    mod = _load_user_module(target)
    jks = {n: v for n, v in vars(mod).items() if isinstance(v, JitKernel)}
    if not jks:
        raise argparse.ArgumentTypeError(
            f"'{target}' defines no @kernel functions")
    if func:
        if func not in jks:
            raise argparse.ArgumentTypeError(
                f"'{target}' has no @kernel '{func}' "
                f"(found: {', '.join(sorted(jks))})")
        return jks[func]
    if len(jks) > 1:
        raise argparse.ArgumentTypeError(
            f"'{target}' defines {len(jks)} @kernel functions; pick one "
            f"with '{target}:<name>' ({', '.join(sorted(jks))})")
    return next(iter(jks.values()))


def _jit_targets(arg: str):
    from repro.jit.api import TARGET_TOOLCHAINS

    if arg == "all":
        return list(TARGET_TOOLCHAINS)
    for isa in TARGET_TOOLCHAINS:
        if isa.value == arg:
            return [isa]
    raise argparse.ArgumentTypeError(
        f"unknown target '{arg}' (ptx, amdgcn, spirv, or all)")


def cmd_jit(args) -> int:
    """``gpu-compat jit``: compile/inspect/rate a user's @kernel."""
    import json

    jk = _resolve_jit_kernel(args.spec)

    if args.action == "row":
        row = jk.compatibility_row(n=args.n)
        if args.format == "json":
            print(json.dumps(row.to_dict(), indent=1))
        else:
            print(row.render())
        return 1 if row.lint_errors else 0

    targets = _jit_targets(args.target)
    if args.action == "compile":
        results = {}
        for isa in targets:
            res = jk.compile(isa)
            results[isa.value] = {
                "toolchain": res.toolchain,
                "asm_lines": len(res.disassemble().splitlines()),
            }
        if args.format == "json":
            print(json.dumps({
                "kernel": jk.name,
                "signature": jk.signature,
                "fingerprint": jk.fingerprint(),
                "targets": results,
            }, indent=1))
        else:
            print(f"{jk.name} {jk.signature}")
            for isa, info in results.items():
                print(f"  {isa:<8} ok  via {info['toolchain']} "
                      f"({info['asm_lines']} asm lines)")
        return 0

    # inspect: the typing dump plus per-target disassembly
    if args.format == "json":
        print(json.dumps({
            "kernel": jk.name,
            "signature": jk.signature,
            "fingerprint": jk.fingerprint(),
            "types": jk.inspect_types(),
            "asm": {isa.value: jk.inspect_asm(isa) for isa in targets},
        }, indent=1))
    else:
        print(jk.inspect_types())
        for isa in targets:
            print(f"\n--- {isa.value} ---")
            print(jk.inspect_asm(isa))
    return 0


def cmd_eval(args) -> int:
    """Build the matrix through the concurrent scheduler + result store."""
    import json

    from repro.service import build_matrix_concurrent

    report = build_matrix_concurrent(
        args.jobs, execution=args.execution, store=args.store)
    print(f"evaluated {report.summary_line()} "
          f"[{args.execution} backend]")
    if report.store is not None:
        st = report.store.stats.as_dict()
        print(f"store: {st['hits']} hits, {st['misses']} misses, "
              f"{st['writes']} writes ({report.store.root})")
    probes = report.metrics.counter("probes_executed").get()
    print(f"probe executions this run: {probes}")
    if args.metrics_json:
        snapshot = report.metrics.snapshot()
        if report.store is not None:
            snapshot["store"] = report.store.stats.as_dict()
        snapshot["build"] = {
            "jobs": report.jobs,
            "execution": args.execution,
            "elapsed_s": round(report.elapsed_s, 4),
            "cells_from_store": report.cells_from_store,
            "cells_evaluated": report.cells_evaluated,
        }
        with open(args.metrics_json, "w") as f:
            json.dump(snapshot, f, indent=1)
        print(f"metrics written to {args.metrics_json}")
    return 0


def _print_perf(args, resp, rows: list[dict], lead: list[str],
                note: str) -> int:
    """One perf matrix, measured or predicted, in ``--format``: ``resp``
    holds its cells and ``rows`` its portability rows; a text report
    opens with the ``lead`` lines and closes with ``note``."""
    import json

    from repro.enums import VENDOR_ORDER

    if args.format == "json":
        print(json.dumps({
            "schema_version": resp.schema_version,
            "params": resp["params"],
            "cells": resp["cells"],
            "portability": rows,
        }, indent=1))
        return 0
    if args.format == "csv":
        print("vendor,model,language,supported,efficiency,best_route")
        for c in resp["cells"]:
            print(f"{c['vendor']},{c['model']},{c['language']},"
                  f"{int(c['supported'])},{c['efficiency']!r},"
                  f"{c['best_route'] or ''}")
        return 0
    print("\n".join(lead))
    vendors = [v.value for v in VENDOR_ORDER]
    print()
    header = "  ".join(f"{v:>8}" for v in vendors)
    print(f"{'model':<14} {'lang':<8} {'PP':>8}  {header}")
    for row in rows:
        by_vendor = {e["vendor"]: e["efficiency"] for e in row["cascade"]}
        cells = "  ".join(f"{by_vendor.get(v, 0.0):>8.4f}" for v in vendors)
        print(f"{row['model']:<14} {row['language']:<8} "
              f"{row['metric']:>8.4f}  {cells}")
    print(note)
    return 0


def cmd_perf(args) -> int:
    """Performance-portability matrix over every viable route; with
    ``--static``, perfstat's predicted matrix (zero kernel executions)."""
    from repro.data.perfref import PERF_REFERENCES, reference_fraction
    from repro.enums import VENDOR_ORDER
    from repro.perfport import DEFAULT_N, DEFAULT_REPS, PerfParams
    from repro.perfport.portability import portability_report
    from repro.service import InProcessClient, MatrixService
    from repro.workloads.babelstream import stream_totals

    params = PerfParams(
        n=args.n if args.n is not None else DEFAULT_N,
        reps=args.reps if args.reps is not None else DEFAULT_REPS)
    service = MatrixService(jobs=args.jobs, execution=args.execution,
                            store=args.store, perf_params=params)
    client = InProcessClient(service)
    if args.static:
        resp = client.perf_static()
        static = service.ensure_static_perf_built()
        rows = [row.to_dict() for row in portability_report(static)]
        return _print_perf(args, resp, rows, [
            f"predicted {static.n_cells} cells statically; stream kernel "
            f"executions this run: {stream_totals()['kernels']}"],
            "\nPP = Pennycook performance-portability metric, computed "
            "here on perfstat's static cost-model predictions (no kernel "
            "ran)")
    resp = client.perf_matrix()
    rows = client.perf_portability().rows
    anchors = ", ".join(
        f"{v.value} {reference_fraction(v):.2f} ({PERF_REFERENCES[v].device})"
        for v in VENDOR_ORDER)
    return _print_perf(args, resp, rows, [
        f"evaluated {service.ensure_perf_built().summary_line()}",
        f"stream kernel executions this run: {stream_totals()['kernels']}"],
        "\nPP = Pennycook performance-portability metric (harmonic mean of "
        "achieved fraction of peak over the vendor set; 0 if any vendor is "
        "unsupported)\npublished BabelStream triad fractions of peak for "
        f"scale: {anchors}")


def cmd_serve(args) -> int:
    """Serve the matrix over the loopback JSON API until interrupted."""
    from repro.service import MatrixService, make_server
    from repro.service.server import ENDPOINTS

    service = MatrixService(jobs=args.jobs, execution=args.execution,
                            read_only=args.read_only, store=args.store)
    if not args.lazy:
        report = service.ensure_built()
        print(f"built {report.summary_line()} [{args.execution} backend]")
    try:
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:
        print(f"gpu-compat serve: cannot listen on {args.host}:{args.port}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    host, port = server.server_address
    mode = " [read-only]" if args.read_only else ""
    print(f"serving the compatibility matrix on http://{host}:{port}{mode} "
          f"(endpoints: {' '.join(ENDPOINTS)}; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_changelog(args) -> int:
    from repro.core.evolution import changelog
    from repro.data.snapshots import SNAPSHOT_2022, SNAPSHOT_2023

    print(changelog(SNAPSHOT_2022, SNAPSHOT_2023))
    return 0


def _print_stats() -> None:
    """Compile-cache and interpreter counters accumulated this process."""
    from repro.compilers.toolchain import compile_cache_stats, stage_memo_stats
    from repro.isa.interpreter import snapshot_interpreter_totals

    cc, stages = compile_cache_stats(), stage_memo_stats()
    rate = f" ({cc.hit_rate:.0%} hit rate)" if cc.total else ""
    print(f"[stats] compile cache: {cc.hits} hits, {cc.misses} misses{rate}; "
          f"stages: {stages.hits} hits, {stages.misses} misses")
    it = snapshot_interpreter_totals()
    st = it.stats
    print(f"[stats] interpreter: {it.launches} launches, "
          f"{st.batches} batches, {st.threads} threads, "
          f"{st.instructions} instructions, {st.bytes_moved} bytes moved")
    tr = it.trace
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(tr.reasons.items()))
    detail = f" [{reasons}]" if reasons else ""
    print(f"[stats] trace: {tr.hits} hits, {tr.misses} misses, "
          f"{tr.bailouts} bailouts{detail}; "
          f"{tr.traced_launches} of {it.launches} launches fused "
          f"({tr.traced_batches} batches)")


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be >= 1 (exit 2 otherwise)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _store_dir(value: str) -> str:
    """Argparse type for --store: a directory, or a path to create one."""
    from repro.service.store import check_store_root

    try:
        check_store_root(value)
    except NotADirectoryError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _add_fleet_args(parser: "argparse.ArgumentParser") -> None:
    """The uniform --jobs/--execution pair for eval, perf, and serve."""
    import os

    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help=f"scheduler workers (default: os.cpu_count() = "
             f"{os.cpu_count() or 1}; results are identical at every "
             f"count)")
    parser.add_argument(
        "--execution", choices=("thread", "process"), default="thread",
        help="scheduler backend: 'thread' (GIL-bound pool, the default) "
             "or 'process' (worker-process fleet; byte-identical output)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpu-compat",
        description="GPU programming model vs. vendor compatibility overview "
                    "(Herten, SC-W 2023) — executable reproduction",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print compile-cache and interpreter batching counters "
             "after the subcommand")
    parser.add_argument(
        "--trace-mode", choices=("on", "off"), default=None,
        help="force the interpreter's trace compiler on or off for this "
             "run (default: on)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="render Figure 1")
    p_table.add_argument("--format", choices=("text", "markdown", "html",
                                              "tex", "yaml"), default="text")
    p_table.add_argument("--source", choices=("paper", "derived"),
                         default="paper")
    p_table.set_defaults(func=cmd_table)

    p_report = sub.add_parser("report", help="derived-vs-paper agreement")
    p_report.set_defaults(func=cmd_report)

    p_desc = sub.add_parser("describe", help="one cell's description")
    p_desc.add_argument("vendor", type=_vendor)
    p_desc.add_argument("model", type=_model)
    p_desc.add_argument("language", type=_language)
    p_desc.set_defaults(func=cmd_describe)

    p_adv = sub.add_parser("advise", help="route recommendations")
    p_adv.add_argument("--vendor", type=_vendor, default=None)
    p_adv.add_argument("--model", type=_model, default=None)
    p_adv.add_argument("--language", type=_language, default=Language.CPP)
    p_adv.set_defaults(func=cmd_advise)

    p_routes = sub.add_parser("routes", help="list the route registry")
    p_routes.set_defaults(func=cmd_routes)

    p_conf = sub.add_parser("conformance",
                            help="V&V-style compiler conformance table")
    p_conf.add_argument("--model", type=_model, default=Model.OPENMP)
    p_conf.add_argument("--language", type=_language, default=Language.CPP)
    p_conf.set_defaults(func=cmd_conformance)

    p_log = sub.add_parser("changelog",
                           help="2022 workshop -> 2023 paper changes")
    p_log.set_defaults(func=cmd_changelog)

    p_eval = sub.add_parser(
        "eval", help="build the matrix concurrently with a result store")
    _add_fleet_args(p_eval)
    p_eval.add_argument("--store", type=_store_dir, default=None,
                        metavar="DIR",
                        help="persistent result-store directory; a warm "
                             "store re-derives only changed cells")
    p_eval.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="dump the full metrics snapshot as JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_perf = sub.add_parser(
        "perf", help="performance-portability matrix (BabelStream through "
                     "every viable route)")
    _add_fleet_args(p_perf)
    p_perf.add_argument("--store", type=_store_dir, default=None,
                        metavar="DIR",
                        help="persistent store directory (shared with "
                             "'eval'; a warm store executes zero stream "
                             "kernels)")
    p_perf.add_argument("--n", type=_positive_int, default=None, metavar="ELEMS",
                        help="stream array elements (default 65536)")
    p_perf.add_argument("--reps", type=_positive_int, default=None, metavar="R",
                        help="best-of repetitions per kernel (default 3)")
    p_perf.add_argument("--format", choices=("text", "json", "csv"),
                        default="text",
                        help="output format (default text)")
    p_perf.add_argument("--static", action="store_true",
                        help="report perfstat's statically predicted "
                             "matrix instead of measuring (zero kernel "
                             "executions)")
    p_perf.set_defaults(func=cmd_perf)

    p_serve = sub.add_parser(
        "serve", help="serve the matrix over a loopback JSON API")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback)")
    p_serve.add_argument("--port", type=int, default=8951,
                         help="port (default 8951; 0 = ephemeral)")
    _add_fleet_args(p_serve)
    p_serve.add_argument("--store", type=_store_dir, default=None,
                         metavar="DIR",
                         help="persistent result-store directory")
    p_serve.add_argument("--lazy", action="store_true",
                         help="defer the matrix build to the first request")
    p_serve.add_argument("--read-only", action="store_true",
                         help="reject mutating /admin endpoints with a "
                              "typed 403 'read_only' error")
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="kernelsan static analyses over kernel IR")
    p_lint.add_argument("--module", default=None,
                        help="importable module whose @kernel functions to "
                             "lint (default: the bundled kernel library)")
    p_lint.add_argument("--kernel", action="append", default=None,
                        metavar="NAME", help="restrict to named kernel(s)")
    p_lint.add_argument("--block", type=_dim3, default=(256, 1, 1),
                        metavar="X,Y,Z", help="assumed block (default 256)")
    p_lint.add_argument("--grid", type=_dim3, default=(64, 1, 1),
                        metavar="X,Y,Z", help="assumed grid (default 64)")
    p_lint.add_argument("--extent", type=_extent, action="append",
                        default=None, metavar="PARAM=COUNT",
                        help="buffer element count for a pointer param "
                             "(count or the name of a scalar param); "
                             "enables the global OOB check")
    p_lint.add_argument("--pass", dest="passes", action="append",
                        default=None, metavar="NAME",
                        help="run only the named analysis pass(es)")
    p_lint.add_argument("--routes", action="store_true",
                        help="statically derive all 51 matrix cells from "
                             "the route registry and cross-check them "
                             "against the paper ratings (RE01-RE03)")
    p_lint.add_argument("--traces", action="store_true",
                        help="statically validate every trace-compiled "
                             "library kernel against its IR (tracesan; "
                             "zero kernel executions)")
    p_lint.add_argument("--all", action="store_true",
                        help="run all five lint families (kernelsan, "
                             "--routes, transval, --perf, --traces) and "
                             "exit with the worst code")
    p_lint.add_argument("--perf", action="store_true",
                        help="cross-check perfstat's static cost-model "
                             "predictions against the measured perf "
                             "matrix (PS01-PS06)")
    p_lint.add_argument("--n", type=_positive_int, default=None, metavar="ELEMS",
                        help="with --perf: stream vector length for the "
                             "measured matrix (default: the perf default)")
    p_lint.add_argument("--reps", type=_positive_int, default=None, metavar="R",
                        help="with --perf: timing repetitions per kernel")
    p_lint.add_argument("--jobs", type=_positive_int, default=4, metavar="N",
                        help="worker threads for the measured half of "
                             "--perf (default 4)")
    p_lint.add_argument("--store", type=_store_dir, default=None,
                        metavar="DIR",
                        help="persistent store for the measured half of "
                             "--perf (shared with 'eval'/'perf')")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="diagnostic output format (default text)")
    p_lint.set_defaults(func=cmd_lint)

    p_tv = sub.add_parser(
        "transval",
        help="validate the source-to-source translators (TV01-TV06)")
    p_tv.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="diagnostic output format (default text)")
    p_tv.set_defaults(func=cmd_transval)

    p_jit = sub.add_parser(
        "jit",
        help="compile/inspect/rate a @kernel-decorated Python function")
    p_jit.add_argument("action", choices=("compile", "inspect", "row"),
                       help="compile: lower to target ISA(s); inspect: "
                            "typing dump + disassembly; row: run across "
                            "every Python-package route per vendor and "
                            "classify (a personal Figure-1 row)")
    p_jit.add_argument("spec", metavar="MODULE[:FUNC]",
                       help="dotted module name or .py path defining the "
                            "@kernel function (':FUNC' picks one when the "
                            "module defines several)")
    p_jit.add_argument("--target", choices=("ptx", "amdgcn", "spirv", "all"),
                       default="all",
                       help="target ISA for compile/inspect (default all)")
    p_jit.add_argument("--n", type=_positive_int, default=2048,
                       metavar="ELEMS",
                       help="with row: array length for the verification "
                            "launches (default 2048)")
    p_jit.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
    p_jit.set_defaults(func=cmd_jit)

    from repro.service.scheduler import SchedulerError

    args = parser.parse_args(argv)
    if args.trace_mode is not None:
        from repro.isa.tracing import set_default_trace_mode

        set_default_trace_mode(args.trace_mode == "on")
    try:
        code = args.func(args)
        if args.stats:
            _print_stats()
        return code
    except SchedulerError as exc:
        # A build job exhausted its retry budget (worker crashes, injected
        # faults, timeouts): the matrix was not produced.  Runtime
        # failure, not usage — exit 1.
        print(f"gpu-compat {args.command}: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, FrontendError, CompileError) as exc:
        # Rejected input (bad kernel source or malformed IR): the
        # requested analysis never ran.  Distinct from exit 1, which
        # means "ran and found problems".
        print(f"gpu-compat {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except argparse.ArgumentTypeError as exc:
        # Late usage errors (e.g. unknown kernel name discovered after
        # parsing); argparse itself exits 2 for syntactic ones.
        print(f"gpu-compat {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
