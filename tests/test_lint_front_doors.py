"""Every lint front door of ``gpu-compat``, end to end.

One table drives ``lint`` (kernelsan), ``lint --routes``, ``lint
--traces``, ``lint --perf``, ``lint --all`` and ``transval`` in text,
json and sarif.  Each must exit 0 on the bundled library, name its SARIF
driver, count its findings as pinned here and close its text report
with its own footer.  ``--perf`` and ``--all`` share one temporary
store, so the measured perf matrix is built once.
"""

from __future__ import annotations

import json

import pytest

from repro import cli

PERF_ARGS = ["--n", "8192", "--reps", "2"]

#: door -> (argv, SARIF driver, (errors, warnings, notes), text footer)
DOORS = {
    "kernelsan": (
        ["lint"], "kernelsan", (0, 0, 0),
        "linted 27 kernel(s): 0 error(s), 0 warning(s), 0 note(s)"),
    "routes": (
        ["lint", "--routes"], "routes-evidence", (0, 0, 0),
        "cross-checked 51 cells against the reconstructed paper matrix: "
        "0 error(s), 0 warning(s), 0 note(s)"),
    "traces": (
        ["lint", "--traces"], "tracesan", (0, 0, 1),
        "statically validated 26/27 trace-compiled kernel(s) (26 exact, "
        "1 bailed out, 0 kernel executions): 0 error(s), 0 warning(s), "
        "1 note(s)"),
    "perf": (
        ["lint", "--perf", *PERF_ARGS], "perfstat", (0, 0, 41),
        "cross-checked 51 cells against the measured perf matrix: "
        "0 error(s), 0 warning(s), 41 note(s) (40 supported cell(s) "
        "agreeing)"),
    "all": (
        ["lint", "--all", *PERF_ARGS], "gpu-compat-lint", (0, 0, 42),
        "lint --all: 5 families over 27 kernel(s): 0 error(s), "
        "0 warning(s), 42 note(s)"),
    "transval": (
        ["transval"], "transval", (0, 0, 0),
        "validated 5 translator instance(s) [hipify(CUDA), "
        "syclomatic(CUDA), gpufort(CUDA), gpufort(OpenACC), "
        "acc2omp(OpenACC)]: 0 error(s), 0 warning(s), 0 note(s)"),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("lint-store"))


def _run(door: str, fmt: str, store: str, capsys) -> tuple[int, str]:
    argv = DOORS[door][0] + ["--format", fmt]
    if door in ("perf", "all"):
        argv += ["--store", store]
    status = cli.main(argv)
    return status, capsys.readouterr().out


@pytest.mark.parametrize("door", list(DOORS))
def test_front_door_formats(door, store, capsys):
    _argv, driver, (errors, warnings, notes), footer = DOORS[door]

    status, out = _run(door, "sarif", store, capsys)
    assert status == 0
    (run,) = json.loads(out)["runs"]
    assert run["tool"]["driver"]["name"] == driver
    assert len(run["results"]) == errors + warnings + notes

    status, out = _run(door, "json", store, capsys)
    assert status == 0
    assert json.loads(out)["counts"] == {
        "error": errors, "warning": warnings, "info": notes}

    status, out = _run(door, "text", store, capsys)
    assert status == 0
    assert out.splitlines()[-1] == footer
    # The footer is the one line that states the summary.
    assert out.count(f"{errors} error(s), {warnings} warning(s), "
                     f"{notes} note(s)") == 1


def test_all_labels_every_family_in_order(store, capsys):
    _status, out = _run("all", "text", store, capsys)
    labels = [line.split("]")[0][1:] for line in out.splitlines()
              if line.startswith("[")]
    assert labels == ["kernelsan", "routes", "transval", "perfstat",
                      "tracesan"]


@pytest.mark.parametrize("flags", [["--routes", "--traces"],
                                   ["--all", "--perf"]])
def test_family_flags_are_mutually_exclusive(flags, capsys):
    assert cli.main(["lint", *flags]) == 2
    err = capsys.readouterr().err
    assert err.strip().endswith("are mutually exclusive")
    assert " and ".join(sorted(flags, key=["--routes", "--perf", "--traces",
                                           "--all"].index)) in err
