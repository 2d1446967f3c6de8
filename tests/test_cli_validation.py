"""CLI argument-validation tests.

Nonsensical numeric arguments (``--jobs 0``, negative ``--n``, textual
``--reps``) must be rejected at parse time with exit code 2 and a clear
message — never forwarded into the scheduler or the workload layer.
Refusals after parsing (a model with no conformance suite, a port
already taken) print one line, never a traceback.
"""

import socket

import pytest

from repro import cli
from repro.core.validation import SUITES
from repro.enums import Model


@pytest.mark.parametrize("argv", [
    ["eval", "--jobs", "0"],
    ["eval", "--jobs", "-3"],
    ["perf", "--jobs", "0"],
    ["perf", "--jobs", "-1"],
    ["perf", "--n", "0"],
    ["perf", "--n", "-5"],
    ["perf", "--reps", "0"],
    ["perf", "--reps", "x"],
    ["serve", "--jobs", "0"],
    ["lint", "--perf", "--jobs", "-2"],
    ["lint", "--perf", "--n", "nope"],
    ["lint", "--perf", "--reps", "-1"],
])
def test_nonsensical_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "must be >= 1" in err or "expected a positive integer" in err


def test_error_message_names_the_bad_value(capsys):
    with pytest.raises(SystemExit):
        cli.main(["perf", "--jobs", "0"])
    assert "must be >= 1, got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["perf", "--reps", "fast"])
    assert "expected a positive integer, got 'fast'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "perf", "serve"])
def test_unknown_execution_backend_exits_2(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--execution", "fibers"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_execution_backends_parse(capsys):
    """Both backends parse on every fleet subcommand (no run needed:
    a bad --port value aborts serve after parsing succeeds)."""
    for backend in ("thread", "process"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--execution", backend, "--port", "nope"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


def test_trace_mode_flag_rejects_unknown_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--trace-mode", "sometimes", "report"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_trace_mode_flag_accepted(capsys):
    """--trace-mode parses and the run completes (cheap subcommand)."""
    from repro.isa.tracing import default_trace_mode, set_default_trace_mode

    try:
        assert cli.main(["--trace-mode", "off", "routes"]) == 0
        assert default_trace_mode() is False
        assert cli.main(["--trace-mode", "on", "routes"]) == 0
        assert default_trace_mode() is True
    finally:
        set_default_trace_mode(None)
    capsys.readouterr()


@pytest.mark.parametrize("model", [m.value for m in Model
                                   if m not in SUITES])
@pytest.mark.parametrize("language", ["c++", "fortran"])
def test_conformance_refuses_a_model_without_a_suite(model, language,
                                                     capsys):
    assert cli.main(["conformance", "--model", model,
                     "--language", language]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"gpu-compat conformance: no V&V suite for {model}; "
                   "suites exist for OpenMP and OpenACC\n")


def test_serve_on_a_taken_port_prints_one_line(capsys):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert cli.main(["serve", "--lazy", "--port", str(port)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(
        f"gpu-compat serve: cannot listen on 127.0.0.1:{port}: "), lines


@pytest.mark.parametrize("argv", [
    ["eval", "--jobs", "1"],
    ["perf", "--jobs", "1", "--n", "1024", "--reps", "1"],
    ["lint", "--perf", "--jobs", "1", "--n", "1024", "--reps", "1"],
    ["serve", "--lazy", "--port", "{port}"],
])
def test_store_that_is_not_a_directory_exits_2(argv, tmp_path, capsys):
    """Refused at parse time, before any build.  A port is held so that
    a serve that got past parsing fails at once instead of serving."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a store\n")
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        argv = [a.format(port=held.getsockname()[1]) for a in argv]
        for path in (blocker, blocker / "sub"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv + ["--store", str(path)])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1].endswith(
                f"argument --store: store path is not a directory: {path}")
    assert blocker.read_text() == "not a store\n"
