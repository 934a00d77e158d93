"""The process entry: ``python -m markovgeom`` and the ``markovgeom`` script.

``__main__.run`` ends the process with ``os._exit`` once ``cli.main`` has
returned, flushing only logging; these tests check that no stream or file is
lost on the way (``cli`` flushes each write to stdout where it makes it), that
a closed stdout is an exit 2, and that a closed stderr loses its messages but
keeps the exit code, both in-process and through the entry.
"""

import gc
import io
import os
import re
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import markovgeom
from markovgeom.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, main, write_matrix_csv

SRC = Path(markovgeom.__file__).parents[1]
ROOT = SRC.parent


def _child_env(unbuffered=False):
    """The test process's environment with markovgeom importable, logging at
    its default level and stdio buffered as on a plain pipe unless asked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MG_LOG_LEVEL", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture()
def inputs(tmp_path):
    rng = np.random.default_rng(140)
    paths = {name: tmp_path / f"{name}.csv" for name in ("cloud", "weights", "mu")}
    write_matrix_csv(paths["cloud"], rng.standard_normal((30, 3)))
    write_matrix_csv(paths["weights"], np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
    mu = rng.uniform(0.5, 1.5, 30)
    write_matrix_csv(paths["mu"], (mu / mu.sum()).reshape(1, -1))
    (tmp_path / "bad.csv").write_text("1,2\n3,x\n")
    return tmp_path, paths


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


def test_process_entry_writes_what_main_writes(inputs, capsys, monkeypatch):
    tmp_path, paths = inputs
    cloud = str(paths["cloud"])
    monkeypatch.setenv("COLUMNS", "80")  # one help width for the children and for main
    forms = {
        "help": ["--help"],
        "dmap_help": ["dmap", "-h"],
        "dmap": ["dmap", "--input", cloud],
        "attention_json": ["attention", "--input", cloud, "--format", "json"],
        "magnetic": ["magnetic", "--input", cloud, "--weights", str(paths["weights"])],
        "bridge_rbf": ["bridge", "--input", cloud, "--kernel", "rbf",
                       "--mu-plus", "stationary", "--mu-minus", str(paths["mu"])],
        "verify": ["verify", "--input", cloud],
        "bad_input": ["dmap", "--input", str(tmp_path / "bad.csv")],
        "stall": ["attention", "--input", cloud, "--bistochastic", "--max-iter", "1"],
    }
    children = {}
    for name, argv in forms.items():
        argv.extend(["--out-dir", str(tmp_path / name / "out")])
        (tmp_path / name).mkdir()
        with open(tmp_path / name / "stdout", "wb") as out, \
                open(tmp_path / name / "stderr", "wb") as err:
            children[name] = subprocess.Popen([sys.executable, "-m", "markovgeom", *argv],
                                              env=_child_env(), stdout=out, stderr=err)
    codes = {name: child.wait(timeout=120) for name, child in children.items()}

    monkeypatch.delenv("MG_LOG_LEVEL", raising=False)
    for name, argv in forms.items():
        out_dir = tmp_path / name / "out"
        written = _files(out_dir)
        for path in written:
            (out_dir / path).unlink()
        code = main(argv)
        captured = capsys.readouterr()
        assert codes[name] == code, name
        assert (tmp_path / name / "stdout").read_text() == captured.out, name
        assert (tmp_path / name / "stderr").read_text() == captured.err, name
        assert written == _files(out_dir), name
    assert [codes[name] for name in ("help", "dmap", "verify", "bad_input", "stall")] == [
        0, 0, 0, 2, 3]
    assert (tmp_path / "dmap_help" / "stdout").read_text().startswith("usage: markovgeom dmap")
    assert set(_files(tmp_path / "magnetic" / "out")) == {
        "magnetic_report.json", "magnetic_magnitude.csv", "magnetic_phase.csv",
        "magnetic_current.csv"}


def test_importing_the_entry_runs_no_command():
    code = "import gc, markovgeom.__main__; print(gc.isenabled())"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), timeout=120,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")


def _closed_pipe():
    """A pipe whose read end is already closed: a write to it fails with EPIPE."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return write_fd


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_through_the_entry(inputs, unbuffered):
    tmp_path, paths = inputs
    out_dir = tmp_path / "out"
    write_fd = _closed_pipe()
    try:
        run = subprocess.run([sys.executable, "-m", "markovgeom", "dmap", "--input",
                              str(paths["cloud"]), "--out-dir", str(out_dir)],
                             env=_child_env(unbuffered), stdout=write_fd, stderr=subprocess.PIPE,
                             text=True, timeout=120)
    finally:
        os.close(write_fd)
    assert run.returncode == EXIT_USAGE
    assert run.stderr == "error: [Errno 32] Broken pipe\n"
    assert set(_files(out_dir)) == {"dmap.csv", "dmap_report.json"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_in_process(inputs, capsys, monkeypatch, unbuffered):
    tmp_path, paths = inputs
    out_dir = tmp_path / "out"
    raw = io.FileIO(_closed_pipe(), "w")
    stdout = io.TextIOWrapper(raw if unbuffered else io.BufferedWriter(raw),
                              write_through=unbuffered)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["dmap", "--input", str(paths["cloud"]), "--out-dir", str(out_dir)])
    finally:
        monkeypatch.undo()
        with suppress(BrokenPipeError):  # a failed flush leaves the summary buffered
            stdout.close()
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert set(_files(out_dir)) == {"dmap.csv", "dmap_report.json"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_for_help_exits_2_through_the_entry(unbuffered):
    # buffered, the parser's flush fails; unbuffered, its write
    write_fd = _closed_pipe()
    try:
        run = subprocess.run([sys.executable, "-m", "markovgeom", "--help"],
                             env=_child_env(unbuffered), stdout=write_fd,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_fd)
    assert (run.returncode, run.stderr) == (EXIT_USAGE, "error: [Errno 32] Broken pipe\n")


def test_closed_stdout_for_help_exits_2_in_process(capsys, monkeypatch):
    # unbuffered, so the parser's own write of the help text fails
    stdout = io.TextIOWrapper(io.FileIO(_closed_pipe(), "w"), write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["--help"])
    finally:
        monkeypatch.undo()
        stdout.close()
    assert (code, capsys.readouterr().err) == (EXIT_USAGE, "error: [Errno 32] Broken pipe\n")


def _closed_stderr_form(form, tmp_path, paths):
    cloud = str(paths["cloud"])
    return {
        "bad_input": ["dmap", "--input", str(tmp_path / "bad.csv")],
        "usage": ["dmap", "--input", cloud, "--bogus"],
        "stall": ["attention", "--input", cloud, "--bistochastic", "--max-iter", "1"],
        "bridge": ["bridge", "--input", cloud, "--kernel", "rbf",
                   "--mu-plus", "stationary", "--mu-minus", str(paths["mu"])],
    }[form]


@pytest.mark.parametrize("form, code", [("bad_input", EXIT_USAGE), ("usage", EXIT_USAGE),
                                        ("stall", EXIT_NO_CONVERGENCE), ("bridge", EXIT_OK)])
def test_closed_stderr_keeps_the_code_through_the_entry(inputs, form, code):
    # each run logs at debug; stdout and the files must be those of a run with stderr open
    tmp_path, paths = inputs
    argv = _closed_stderr_form(form, tmp_path, paths)
    write_fd = _closed_pipe()
    modes = {  # mode: (command prefix, stderr, unbuffered)
        "open": ([], subprocess.DEVNULL, False),
        "pipe_buffered": ([], write_fd, False),
        "pipe_unbuffered": ([], write_fd, True),
        "fd_closed": (["sh", "-c", 'exec "$@" 2>&-', "sh"], None, False),
    }
    children = {}
    try:
        for mode, (prefix, stderr, unbuffered) in modes.items():
            (tmp_path / mode).mkdir()
            env = dict(_child_env(unbuffered), MG_LOG_LEVEL="debug")
            command = [*prefix, sys.executable, "-m", "markovgeom", *argv,
                       "--out-dir", str(tmp_path / mode / "out")]
            with open(tmp_path / mode / "stdout", "wb") as out:
                children[mode] = subprocess.Popen(command, env=env, stdout=out, stderr=stderr)
    finally:
        os.close(write_fd)
    codes = {mode: child.wait(timeout=120) for mode, child in children.items()}
    assert codes == dict.fromkeys(modes, code)
    for mode in modes:
        assert (tmp_path / mode / "stdout").read_bytes() == \
            (tmp_path / "open" / "stdout").read_bytes(), mode
        assert _files(tmp_path / mode / "out") == _files(tmp_path / "open" / "out"), mode
    if form == "bridge":
        assert len(_files(tmp_path / "open" / "out")) == 7


@pytest.mark.parametrize("stderr_kind", ["buffered", "unbuffered", "none"])
def test_closed_stderr_keeps_the_code_in_process(inputs, capsys, monkeypatch, stderr_kind):
    # "none" is sys.stderr where fd 2 was closed at start: no line goes to stdout instead
    tmp_path, paths = inputs
    stderr = None
    if stderr_kind != "none":
        raw = io.FileIO(_closed_pipe(), "w")
        unbuffered = stderr_kind == "unbuffered"
        stderr = io.TextIOWrapper(raw if unbuffered else io.BufferedWriter(raw),
                                  line_buffering=not unbuffered, write_through=unbuffered)
    monkeypatch.setattr(sys, "stderr", stderr)
    try:
        codes = [main([*_closed_stderr_form(form, tmp_path, paths),
                       "--out-dir", str(tmp_path / "out")])
                 for form in ("bad_input", "usage", "stall")]
    finally:
        monkeypatch.undo()
        if stderr is not None:
            with suppress(BrokenPipeError):  # a failed flush leaves the line buffered
                stderr.close()
    assert codes == [EXIT_USAGE, EXIT_USAGE, EXIT_NO_CONVERGENCE]
    assert capsys.readouterr().out == ""
    assert _files(tmp_path / "out") == {}


def test_main_leaves_the_collector_on(inputs, capsys):
    _, paths = inputs
    assert main(["dmap", "--input", str(paths["cloud"]), "--out-dir",
                 str(paths["cloud"].parent / "out")]) == 0
    assert gc.isenabled()


def test_script_target_is_the_process_entry():
    # read as text: tomllib is 3.11+, and requires-python is 3.10
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    assert scripts.group(1).strip() == 'markovgeom = "markovgeom.__main__:run"'
