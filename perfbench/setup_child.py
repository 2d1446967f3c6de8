"""Start-up probe for ``setup_s``: import the program, prepare, say ready.

    python3 perfbench/setup_child.py matrix|perf|embed WARM_STORE

``matrix`` imports everything the matrix workload calls (the library
kernels' DSL compile runs at import).  ``perf`` also imports the perf and
lint layers and loads the compat matrix from the warm store, which is
what a perf or lint command does before its own work; ``embed`` imports
the JIT and builds a ``MatrixService`` over the warm store.
"""

import os
import sys


def main() -> int:
    stage, warm = sys.argv[1], sys.argv[2]
    import repro.core.render  # noqa: F401
    import repro.core.report  # noqa: F401
    from repro.service import build_matrix_concurrent

    if stage == "perf":
        import repro.analysis  # noqa: F401
        import repro.cli  # noqa: F401
        import repro.perfport  # noqa: F401

        report = build_matrix_concurrent(os.cpu_count(), store=warm)
    elif stage == "embed":
        import repro.jit  # noqa: F401
        from repro.service import MatrixService

        report = MatrixService(jobs=os.cpu_count(), store=warm).ensure_built()
    if stage != "matrix" and report.cells_from_store != 51:
        print(f"warm store served {report.cells_from_store}/51 cells",
              file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
