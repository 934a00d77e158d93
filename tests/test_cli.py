"""CSV ingest, emit, command dispatch, exit codes, and determinism."""

import functools
import io
import json
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import markovgeom
from markovgeom import cli
from markovgeom.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    load_cloud,
    load_marginal,
    load_matrix,
    main,
    write_matrix_csv,
    write_report_json,
)


@pytest.fixture()
def cloud_csv(tmp_path):
    rng = np.random.default_rng(130)
    points = rng.standard_normal((8, 2))
    path = tmp_path / "cloud.csv"
    write_matrix_csv(path, points)
    return path, points


@pytest.fixture()
def marginal_csv(tmp_path):
    rng = np.random.default_rng(131)
    mu = rng.uniform(0.5, 1.5, 8)
    mu /= mu.sum()
    path = tmp_path / "mu.csv"
    write_matrix_csv(path, mu.reshape(1, -1))
    return path, mu


class TestLoadMatrix:
    def test_parses_cloud(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0\n3,4\n")
        cloud = load_cloud(path)
        np.testing.assert_array_equal(cloud.points, [[0.0, 0.0], [3.0, 4.0]])

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_matrix(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,2\n3,nan\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_matrix(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_matrix(path)

    def test_skip_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n")
        out = load_matrix(path, skip_header=True)
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    @pytest.mark.parametrize("text, message", [
        # a non-finite value in row 1 is reported before junk in row 2
        ("1,inf\nx,2\n", "row 1, column 2: non-finite value"),
        # within a row the first bad column wins, junk or inf
        ("1,x,inf\n", "row 1, column 2: not a number: 'x'"),
        ("1,-inf,x\n", "row 1, column 2: non-finite value"),
        ("nan,2\n", "row 1, column 1: non-finite value"),
        # a bad cell is reported before a wrong column count
        ("1,2\n3,x,5\n", "row 2, column 2: not a number: 'x'"),
        ("1,2\n3,4,5\n", "row 2: expected 2 columns, got 3"),
        # blank lines are not counted; padding is stripped from the message
        ("1,2\n\n  \n3, y \n", "row 2, column 2: not a number: 'y'"),
        ("1,2\n3,\n", "row 2, column 2: not a number: ''"),
    ])
    def test_error_precedence_and_message(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load_matrix(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_padding_blank_lines_and_header(self, tmp_path):
        path = tmp_path / "pad.csv"
        path.write_text("a, b\n\n 1.5 ,2\n   \n-3e-2,\t4 \n\n")
        np.testing.assert_array_equal(load_matrix(path, skip_header=True), [[1.5, 2.0], [-0.03, 4.0]])
        with pytest.raises(ValueError, match="row 1, column 1: not a number: 'a'"):
            load_matrix(path)

    def test_overflowing_row_sum_of_finite_cells_is_accepted(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e308,1e308\n-1e308,-1e308\n")
        np.testing.assert_array_equal(load_matrix(path), [[1e308, 1e308], [-1e308, -1e308]])

    # every ingest decision, as (text, the matrix it reads as or the message
    # it raises after "<path>: "); a cell is what Python's float reads, and
    # must be finite
    INGEST = {
        "underscores": ("1_000,2\n", [[1000.0, 2.0]]),
        "non-ASCII digits": ("١٢,3\n", [[12.0, 3.0]]),
        "NBSP and tab padding": ("\xa01\t,\t2\xa0\n", [[1.0, 2.0]]),
        "explicit signs": ("+1,-0\n", [[1.0, -0.0]]),
        "subnormals": ("1e-320,5e-324\n", [[1e-320, 5e-324]]),
        "bare points": (".5,5.\n", [[0.5, 5.0]]),
        "overflowing row sum": ("1e308,1e308\n-1e308,-1e308\n",
                                [[1e308, 1e308], [-1e308, -1e308]]),
        "CRLF": ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        "form feed breaks a line": ("1,2\x0c3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        "blank lines": ("\n1,2\n \t\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
        "overflow to inf": ("1e400,1\n", "row 1, column 1: non-finite value"),
        "infinity": ("1,infinity\n", "row 1, column 2: non-finite value"),
        "hex": ("0x10,1\n", "row 1, column 1: not a number: '0x10'"),
        "Fortran exponent": ("1d3,2\n", "row 1, column 1: not a number: '1d3'"),
        "trailing comma": ("1,2,\n", "row 1, column 3: not a number: ''"),
        "leading BOM": ("\ufeff1,2\n", [[1.0, 2.0]]),
        "BOM after the first line": ("1,2\n\ufeff3,4\n",
                                     "row 2, column 1: not a number: '\\ufeff3'"),
        "no data": ("", "empty file"),
        "blank only": ("\n \n", "empty file"),
        "short row": ("1,2\n3\n", "row 2: expected 2 columns, got 1"),
        "long row": ("1,2\n3,4,5\n", "row 2: expected 2 columns, got 3"),
        "ragged before junk": ("1,2\n3\n4,x\n", "row 2: expected 2 columns, got 1"),
        "counted against row 1": ("1,2,3\n4,5\nx\n", "row 2: expected 3 columns, got 2"),
        "non-finite before junk": ("1,inf\nx,2\n", "row 1, column 2: non-finite value"),
        "junk before inf": ("1,x,inf\n", "row 1, column 2: not a number: 'x'"),
        "-inf before junk": ("1,-inf,x\n", "row 1, column 2: non-finite value"),
        "nan": ("nan,2\n", "row 1, column 1: non-finite value"),
        "bad cell before count": ("1,2\n3,x,5\n", "row 2, column 2: not a number: 'x'"),
        "blank lines uncounted": ("1,2\n\n  \n3, y \n", "row 2, column 2: not a number: 'y'"),
        "empty cell": ("1,2\n3,\n", "row 2, column 2: not a number: ''"),
        "nan in a later row": ("1,2\n3,4\n5,NaN\n", "row 3, column 2: non-finite value"),
        "one cell": ("7\n", [[7.0]]),
        # str.splitlines breaks these lines, where numpy's reader would read
        # each break as a blank inside a cell
        "form feed before a cell": ("1,2,\x0c3,4\n", "row 1, column 3: not a number: ''"),
        "form feed after a cell": ("1,2\x0c,3,4\n", "row 2, column 1: not a number: ''"),
        "vertical tab after a cell": ("1\x0b,2\n", "row 2, column 1: not a number: ''"),
        "NEL before a cell": ("1,2,\x853,4\n", "row 1, column 3: not a number: ''"),
        "line separator before a cell": ("1,2,\u20283,4\n", "row 1, column 3: not a number: ''"),
        "lone CR line ends": ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    }

    # the cells only float reads; numpy's reader rejects them, so the walk
    # reads these files, as it does every file that raises past "empty file"
    WALKED = {"underscores", "non-ASCII digits"}

    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark, and a
    # skip_header file with its header line right after it
    BOM, HEADER = "\ufeff", "x,y\n"

    @pytest.mark.parametrize("skip_header", [False, True])
    @pytest.mark.parametrize("case", list(INGEST))
    def test_ingest_decision(self, tmp_path, monkeypatch, case, skip_header):
        text, expected = self.INGEST[case]
        path = tmp_path / "in.csv"
        if skip_header:
            text = self.BOM + self.HEADER + text.removeprefix(self.BOM)
        path.write_text(text)
        walked = _count_walks(monkeypatch)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as excinfo:
                load_matrix(path, skip_header=skip_header)
            assert str(excinfo.value) == f"{path}: {expected}"
            assert bool(walked) == (expected != "empty file")
            return
        out = load_matrix(path, skip_header=skip_header)
        assert bool(walked) == (case in self.WALKED)
        want = np.array(expected, dtype=float)
        # bytes, so that -0.0 and subnormals count
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("header", ["x\x0cy\n", "x\ry\n", "x\x1ey\n", "x\x85y\n"])
    def test_skipped_header_line_breaks_where_splitlines_does(self, tmp_path, header):
        # --skip-header drops the first line of str.splitlines, so the rest
        # of this header is a data row
        path = tmp_path / "h.csv"
        path.write_text(header + "1,2\n")
        with pytest.raises(ValueError) as excinfo:
            load_matrix(path, skip_header=True)
        assert str(excinfo.value) == f"{path}: row 1, column 1: not a number: 'y'"

    @pytest.mark.parametrize("skip_header", [False, True])
    @pytest.mark.parametrize("name", ["extremes", "300x300"])
    def test_emitted_matrix_reads_back_through_numpy(self, tmp_path, monkeypatch, name, skip_header):
        matrix = (np.atleast_2d(_EXTREME_ROW) if name == "extremes"
                  else np.random.default_rng(137).standard_normal((300, 300)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        if skip_header:
            path.write_bytes((self.BOM + self.HEADER).encode() + path.read_bytes())
        walked = _count_walks(monkeypatch)
        out = load_matrix(path, skip_header=skip_header)
        assert not walked
        assert out.shape == matrix.shape and out.tobytes() == matrix.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("data", [b"1,2\n3,4\n", b"1_000,2\n3,4\n", b"1,2\n3,x\n"],
                             ids=["numpy", "walked", "bad cell"])
    def test_pipe_is_read_once(self, tmp_path, data):
        # a second open of the pipe would read it empty, and the walk reads
        # the file again
        path = tmp_path / "same.csv"
        path.write_bytes(data)
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        try:
            assert _ingest(f"/dev/fd/{read_end}") == _ingest(path)
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("data", [b"1,2\n\xff,3\n", b"x,2\n\xff,3\n", b"1,2\n" * 9000 + b"\xff\n"],
                             ids=["second row", "after a bad cell", "past the first read"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, data):
        # the decoding error wins over any bad row, wherever the bytes are
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code = main(["dmap", "--input", str(path), "--beta", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: invalid start byte\n"

    # the characters str.splitlines breaks lines on, the BOM, padding, cells
    # numpy's reader rejects, non-finite and junk cells, NUL, quotes and the
    # usual comment marks
    HOSTILE = [*"0123456789+-.eE, \t\r\n", "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028",
               "\u3000", "\xa0", "\ufeff", "_", "١", "inf", "nan", "1e400", "x", "\x00", '"',
               "#", ";"]

    @given(text=st.one_of(
        st.lists(st.sampled_from(HOSTILE), max_size=30).map("".join),
        # a numeric grid with a few hostile tokens put in
        st.tuples(
            st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                              min_size=2, max_size=2), min_size=1, max_size=4)
            .map(lambda rows: "".join(",".join(row) + "\n" for row in rows)),
            st.lists(st.tuples(st.integers(0, 200), st.sampled_from(HOSTILE)), max_size=2),
        ).map(lambda grid: _put_in(*grid)),
    ), prefix=st.sampled_from(["", "\ufeff", "\ufeffx,y\n", "größe\r\n"]), skip_header=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ingest_matches_oracle(self, tmp_path_factory, text, prefix, skip_header):
        path = tmp_path_factory.mktemp("oracle") / "in.csv"
        with open(path, "w", encoding="utf-8", newline="") as file:
            file.write(prefix + text)
        assert _ingest(path, skip_header) == _oracle(prefix + text, skip_header)


def _put_in(text, tokens):
    """text with each (index, token) inserted in turn."""
    for index, token in tokens:
        text = text[:index] + token + text[index:]
    return text


def _count_walks(monkeypatch) -> list:
    """The row numbers cli._parse_cells is called with from now on."""
    calls = []
    parse = cli._parse_cells
    monkeypatch.setattr(cli, "_parse_cells", lambda path, row_no, cells: calls.append(row_no)
                        or parse(path, row_no, cells))
    return calls


def _ingest(path, skip_header=False):
    """load_matrix's matrix bytes and shape, or its message after the path."""
    try:
        out = load_matrix(path, skip_header=skip_header)
    except ValueError as exc:
        return str(exc).removeprefix(f"{path}: ")
    return out.dtype.str, out.shape, out.tobytes()


def _oracle(text, skip_header):
    """What _ingest gives for a file holding text, by the README's rules."""
    lines = text.removeprefix("\ufeff").splitlines()[int(skip_header):]
    rows = [line.split(",") for line in lines if line.strip()]
    if not rows:
        return "empty file"
    values = []
    for row_no, cells in enumerate(rows, start=1):
        for col_no, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                return f"row {row_no}, column {col_no}: not a number: {cell.strip()!r}"
            if not np.isfinite(value):
                return f"row {row_no}, column {col_no}: non-finite value"
            values.append(value)
        if len(cells) != len(rows[0]):
            return f"row {row_no}: expected {len(rows[0])} columns, got {len(cells)}"
    out = np.array(values).reshape(len(rows), -1)
    return out.dtype.str, out.shape, out.tobytes()


class TestLoadMarginal:
    def test_valid_vector(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.5\n")
        np.testing.assert_allclose(load_marginal(path, 2), [0.5, 0.5])

    def test_column_vector_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.25\n0.75\n")
        np.testing.assert_allclose(load_marginal(path, 2), [0.25, 0.75])

    def test_slightly_off_sum_renormalized(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5000001,0.5\n")
        out = load_marginal(path, 2)
        assert abs(out.sum() - 1.0) < 1e-15

    def test_badly_off_sum_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.7,0.6\n")
        with pytest.raises(ValueError, match="sums to"):
            load_marginal(path, 2)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.5\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_marginal(path, 3)


# one row across the float64 range: huge and tiny magnitudes, signed zero,
# subnormals, the largest finite value and a Dirichlet draw
_EXTREME_ROW = np.concatenate([
    [1e300, -1e-300, -0.0, 5e-324, -3e-310, np.finfo(float).max, 1.0 / 3.0],
    np.random.default_rng(133).dirichlet(np.ones(5)),
])


class TestEmit:
    @pytest.mark.parametrize("matrix, expected", [
        (np.eye(2), "1,0\n0,1\n"),
        (_EXTREME_ROW, ",".join(format(v, ".17g") for v in _EXTREME_ROW) + "\n"),
    ], ids=["eye", "extremes"])
    def test_identity_matrix_bytes(self, tmp_path, matrix, expected):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        assert path.read_text() == expected

    def test_written_matrix_reingests_exactly(self, tmp_path):
        rng = np.random.default_rng(132)
        matrix = rng.standard_normal((5, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        np.testing.assert_array_equal(load_matrix(path), matrix)

    def test_magnitude_phase_pair_reassembles(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        weights = np.array([[0.3, 0.8], [-0.4, 0.1]])
        wpath = tmp_path / "w.csv"
        write_matrix_csv(wpath, weights)
        out = tmp_path / "mag"
        code = main([
            "magnetic", "--input", str(cloud_path), "--weights", str(wpath),
            "--beta", "1", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        magnitude = load_matrix(out / "magnetic_magnitude.csv")
        phase = load_matrix(out / "magnetic_phase.csv")
        assembled = magnitude * np.exp(1j * phase)
        np.testing.assert_allclose(np.abs(assembled), magnitude, rtol=0, atol=1e-15)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(cli, "_emit_workers", lambda matrix, min_cells=None: workers)


def _savetxt_bytes(matrix):
    buffer = io.BytesIO()
    np.savetxt(buffer, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")
    return buffer.getvalue()


# above the parallel threshold: a row count that 2 and 3 do not divide, one
# row, one column, and the extreme row repeated
_LARGE = {
    "439x300": np.random.default_rng(134).dirichlet(np.ones(300), size=439),
    "1-row": np.random.default_rng(135).standard_normal((1, 140_000)),
    "1-column": np.random.default_rng(136).standard_normal((140_000, 1)),
    "extremes": np.tile(_EXTREME_ROW, (560, 20)),
}


_SMALL = np.array([[-0.0, 5e-324], [1e-300, np.finfo(float).max]])
_LARGE_REPORT = {"command": "x", "results": {"values": [1.0, -0.0, 1e300]}}


def _large_matrices(name):
    # a vector is written as one row
    return {"big": _LARGE[name], "small": _SMALL, "vector": _SMALL[1],
            "empty": np.zeros((0, 3)), "no_columns": np.zeros((2, 0))}


def _dumps_report(report, matrices):
    """The ``json.dumps`` text of a report with its matrices inlined as lists."""
    inlined = {name: np.atleast_2d(values).tolist() for name, values in matrices.items()}
    return json.dumps({**report, "matrices": inlined}, indent=2) + "\n"


@functools.cache
def _large_reference(name, fmt):
    """The np.savetxt bytes or the json.dumps text of ``_LARGE[name]``, built
    once and shared by every worker count."""
    if fmt == "csv":
        return _savetxt_bytes(_LARGE[name])
    return _dumps_report(_LARGE_REPORT, _large_matrices(name))


class TestParallelEmit:
    def test_large_matrices_are_above_the_threshold(self):
        # enough cells for two processes: each of these forks on two CPUs
        for matrix in _LARGE.values():
            assert matrix.size >= 2 * cli._PARALLEL_MIN_CELLS

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_LARGE))
    def test_csv_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, name, workers):
        _force_workers(monkeypatch, workers)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, _LARGE[name])
        assert path.read_bytes() == _large_reference(name, "csv")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_LARGE))
    def test_json_equals_json_dumps(self, tmp_path, monkeypatch, name, workers):
        _force_workers(monkeypatch, workers)
        path = tmp_path / "r.json"
        write_report_json(path, _LARGE_REPORT, _large_matrices(name))
        assert path.read_text() == _large_reference(name, "json")

    def test_json_of_non_finite_matrix_equals_json_dumps(self, tmp_path):
        # json.dumps writes NaN and Infinity, where the kernel would write nan
        matrices = {"m": np.array([[np.nan, np.inf], [-np.inf, 1.0]]), "finite": _SMALL}
        path = tmp_path / "r.json"
        write_report_json(path, {"command": "x"}, matrices)
        assert path.read_text() == _dumps_report({"command": "x"}, matrices)

    @pytest.mark.parametrize("report", [{}, {"command": "x"}])
    def test_json_without_matrices_is_json_dumps(self, tmp_path, report):
        for matrices in (None, {}):
            write_report_json(tmp_path / "r.json", report, matrices)
            assert (tmp_path / "r.json").read_text() == json.dumps(report, indent=2) + "\n"
        write_report_json(tmp_path / "r.json", report, {"m": _SMALL})
        assert (tmp_path / "r.json").read_text() == _dumps_report(report, {"m": _SMALL})

    @pytest.mark.parametrize("cpus, shape, fmt, workers", [
        (2, (600, 600), "csv", 2), (2, (600, 600), "json", 2), (2, (1000, 2), "csv", 1),
        (64, (600, 600), "csv", 5), (64, (600, 600), "json", 10), (64, (2000, 2000), "csv", 61),
        (3, (8, 8), "csv", 1), (3, (1, 140_000), "csv", 2), (3, (140_000, 1), "csv", 2),
        (3, (300, 300), "csv", 1), (3, (40, 4000), "csv", 2), (3, (600, 600), "csv", 3),
        (3, (200, 300), "json", 1), (3, (300, 300), "json", 2),
    ])
    def test_worker_count_follows_cpus_and_cells(self, monkeypatch, cpus, shape, fmt, workers):
        # one process per CPU while each gets the cells that repay its fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        min_cells = cli._PARALLEL_MIN_CELLS if fmt == "csv" else cli._PARALLEL_MIN_JSON_CELLS
        assert cli._emit_workers(np.zeros(shape), min_cells) == workers

    def test_json_forks_from_fewer_cells_than_csv(self, tmp_path, monkeypatch):
        # 300 x 300 lies between the two thresholds: JSON forks, CSV does not
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real, used = cli._write_rows, []

        def record(fh, matrix, indent, workers):
            used.append(workers)
            return real(fh, matrix, indent, workers)

        monkeypatch.setattr(cli, "_write_rows", record)
        matrix = np.full((300, 300), 0.25)
        write_matrix_csv(tmp_path / "m.csv", matrix)
        write_report_json(tmp_path / "r.json", {}, {"m": matrix})
        assert used == [1, 2]

    @pytest.mark.parametrize("fmt, output", [("csv", "dmap.csv"), ("json", "dmap_report.json")])
    def test_failing_worker_exits_2_without_output(self, tmp_path, monkeypatch, capsys, fmt, output):
        cloud = tmp_path / "cloud.csv"
        write_matrix_csv(cloud, np.random.default_rng(137).standard_normal((300, 2)))
        real = cli._format_rows

        def fail_in_workers(matrix, lo, hi, indent):
            if lo > 0:
                raise RuntimeError("injected formatter failure")
            return real(matrix, lo, hi, indent)

        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(cli, "_format_rows", fail_in_workers)
        out = tmp_path / "out"
        code = main(["dmap", "--input", str(cloud), "--beta", "1", "--format", fmt,
                     "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert "formatting workers failed" in capsys.readouterr().err
        assert not (out / output).exists()


    def test_caller_failure_reaps_workers_blocked_on_their_pipes(self, tmp_path):
        # each worker's chunk (about 0.6 MB) overflows its pipe while the
        # caller fails on its own chunk; run in a child so a hang times out
        path = tmp_path / "m.csv"
        code = textwrap.dedent(f"""
            import os
            import numpy as np
            from markovgeom import cli
            real = cli._format_rows
            def fail_in_caller(matrix, lo, hi, indent):
                if lo == 0:
                    raise RuntimeError("injected")
                return real(matrix, lo, hi, indent)
            cli._format_rows = fail_in_caller
            cli._emit_workers = lambda matrix: 3
            try:
                cli.write_matrix_csv({str(path)!r}, np.full((301, 300), 1.0 / 3.0))
            except RuntimeError:
                print("raised")
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no children left")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                             capture_output=True, text=True)
        assert out.stdout.split("\n")[:2] == ["raised", "no children left"]
        assert not path.exists()


def _g17_reference(block):
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in block).encode()


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    both = np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def _ties_at_18th_digit():
    """Odd i / 2**j with exactly 18 significant digits: the last one is a 5,
    so rounding to 17 digits is an exact tie."""
    ties = [i / 2.0 ** j for i in range(1, 1024, 2) for j in range(1, 64)
            if len(str(i * 5 ** j)) == 18]
    return np.array(ties)


_G17_CASES = {
    "random-bits": np.random.default_rng(140).integers(
        0, 2**64, 100_000, dtype=np.uint64).view(np.float64).reshape(100, 1000),
    "powers-of-ten": _with_neighbours(10.0 ** np.arange(-13, 18)).reshape(2, -1),
    "range-edges": _with_neighbours([cli._G17_MIN, cli._G17_MAX]).reshape(3, 4),
    "ties": _ties_at_18th_digit().reshape(1, -1),
    "specials": np.array([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                           -2.2250738585072014e-308, np.inf, -np.inf, np.nan]]),
    "extremes": np.atleast_2d(_EXTREME_ROW),
}


def _g17_text(values):
    """``values`` through the exact ``%.17g`` kernel, as CSV emit writes them."""
    return b"".join(cli._format_rows(values, 0, values.size, None))


class TestExactCsvKernel:
    """The ``%.17g`` kernel of CSV emit against ``format(v, ".17g")``, cell by cell."""

    @pytest.mark.parametrize("name", list(_G17_CASES))
    def test_same_bytes_as_format(self, name):
        values = _G17_CASES[name]
        assert _g17_text(values) == _g17_reference(values)

    def test_tie_case_holds_hundreds_of_ties(self):
        assert _G17_CASES["ties"].size > 300

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (1, 70_000)],
                             ids=["0x3", "3x0", "1x1", "1x70000"])
    def test_shapes(self, shape):
        values = np.random.default_rng(141).standard_normal(shape)
        assert _g17_text(values) == _g17_reference(values)

    def test_operator_matrices_take_no_fallback(self, tmp_path, monkeypatch):
        # the N=600 dmap, magnetic phase and attention currents of one seeded
        # cloud: every cell, the zero diagonals included, is converted exactly
        rng = np.random.default_rng(3)
        cloud = markovgeom.DataCloud(rng.standard_normal((600, 8)))
        a = rng.standard_normal((8, 8))
        weights = markovgeom.InteractionWeights(np.eye(8) + 0.5 * (a - a.T))
        d2 = markovgeom.squared_distance(markovgeom.bidivergence(markovgeom.gram(cloud)))
        beta = cli._resolve_beta("auto", d2)
        biv = markovgeom.bidivergence(markovgeom.generalized_gram(cloud, weights))
        forward = markovgeom.attention_forward(biv, beta)
        pi = markovgeom.stationary_distribution(forward, tol=1e-10)
        matrices = {
            "dmap": markovgeom.dmap(d2, beta).values,
            "magnetic_phase": markovgeom.magnetic_operator(
                markovgeom.dmap(markovgeom.squared_distance(biv), beta),
                markovgeom.edge_phases(cloud, weights, beta)).phases,
            "currents": markovgeom.classify_regime(forward, pi, pi).currents,
        }
        left = []
        monkeypatch.setattr(cli, "_g17_fallback", lambda slots, values, cells: left.append(cells))
        _force_workers(monkeypatch, 1)
        for name, matrix in matrices.items():
            write_matrix_csv(tmp_path / f"{name}.csv", matrix)
            assert left == [], name


def _repr_text(values):
    """``values`` through the exact repr kernel, one CSV-like line per row."""
    matrix = np.atleast_2d(values)
    return cli._cell_text(matrix, 0, matrix.size, True, b",", b"\n", b"\n")


def _repr_reference(values):
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in np.atleast_2d(values)).encode()


def _ulp_steps(values, k):
    """Each of the positive ``values`` and its k neighbours on either side."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-k, k + 1)
    return bits.ravel().view(np.float64)


_REPR_CASES = {
    "random-bits": np.random.default_rng(143).integers(
        0, 2**64, 100_000, dtype=np.uint64).view(np.float64).reshape(100, 1000),
    # the double nearest each power of ten, parsed from its decimal
    "powers-of-ten": _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "notation-switches": _with_neighbours(_ulp_steps([1e-4, 1e16], 3)),
    "integral": np.array([1.0, 100.0, 10.0, 1e14, 123456789012345.0, 999999999999999.0,
                          2.0**49, 7.0, 1e15, 1e16, 1e22, 1e23]),
    "short": np.array([0.1, 0.5, 0.3, 0.30000000000000004, 0.2, 0.7, 2.5, 1e-3, 1e-10,
                       123.456, 1e-5, 1.5e-5, 0.0001, 0.00012]),
    "powers-of-two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "specials": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
    "range-edges": np.concatenate([sign * _ulp_steps(
        [cli._G17_MIN, cli._G17_MAX, 2.2250738585072014e-308, np.finfo(float).max], 1)
        for sign in (1, -1)]),
    "ties": _ties_at_18th_digit(),
}


class TestExactReprKernel:
    """The shortest-digit kernel of JSON emit against ``repr(float(v))``."""

    @pytest.mark.parametrize("name", list(_REPR_CASES))
    def test_same_bytes_as_repr(self, name):
        values = _REPR_CASES[name]
        assert _repr_text(values) == _repr_reference(values)

    def test_attention_matrix_takes_no_fallback(self, tmp_path, monkeypatch):
        # the N=600 forward attention of a seeded cloud at the auto beta,
        # as ``attention --format json`` writes it
        cloud = markovgeom.DataCloud(np.random.default_rng(3).standard_normal((600, 8)))
        biv = markovgeom.bidivergence(markovgeom.gram(cloud))
        beta = cli._resolve_beta("auto", markovgeom.squared_distance(biv))
        matrix = markovgeom.attention_forward(biv, beta).values
        left = []
        monkeypatch.setattr(cli, "_g17_fallback",
                            lambda slots, values, cells, fmt=b"%.17g": left.append(cells))
        _force_workers(monkeypatch, 1)
        write_report_json(tmp_path / "r.json", {"command": "attention"}, {"attention": matrix})
        assert left == []
        assert (tmp_path / "r.json").read_text() == _dumps_report(
            {"command": "attention"}, {"attention": matrix})


class TestDmapCommand:
    def test_writes_row_stochastic_operator(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "o"
        op_path = tmp_path / "op.csv"
        code = main([
            "dmap", "--input", str(cloud_path), "--beta", "1",
            "--out", str(op_path), "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        operator = load_matrix(op_path)
        np.testing.assert_allclose(operator.sum(axis=1), 1.0, atol=1e-12)
        report = json.loads((out / "dmap_report.json").read_text())
        # no tolerance field: the operator is held to no tol of its own
        assert list(report["results"]) == ["size", "row_sum_residual"]
        assert report["results"]["row_sum_residual"] <= 1e-12
        assert report["config"]["beta"] == 1.0

    def test_auto_beta_resolution(self, tmp_path, cloud_csv):
        cloud_path, points = cloud_csv
        out = tmp_path / "auto"
        code = main(["dmap", "--input", str(cloud_path), "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "dmap_report.json").read_text())
        diff = points[:, None, :] - points[None, :, :]
        d2 = (diff ** 2).sum(-1)
        expected = 1.0 / np.median(d2[~np.eye(8, dtype=bool)])
        assert abs(report["config"]["beta"] - expected) < 1e-12

    def test_rerun_is_byte_identical(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "det"
        args = ["dmap", "--input", str(cloud_path), "--beta", "1", "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_json_format_inlines_matrices(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "j"
        code = main([
            "dmap", "--input", str(cloud_path), "--beta", "1",
            "--out-dir", str(out), "--format", "json",
        ])
        assert code == EXIT_OK
        assert not (out / "dmap.csv").exists()
        report = json.loads((out / "dmap_report.json").read_text())
        operator = np.array(report["matrices"]["dmap"])
        np.testing.assert_allclose(operator.sum(axis=1), 1.0, atol=1e-12)


class TestBridgeCommand:
    def test_distinct_marginals_classified_ne(self, tmp_path, cloud_csv, marginal_csv):
        cloud_path, _ = cloud_csv
        mu_path, mu = marginal_csv
        out = tmp_path / "b"
        code = main([
            "bridge", "--input", str(cloud_path), "--beta", "1", "--kernel", "rbf",
            "--mu-plus", str(mu_path), "--mu-minus", "stationary",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["results"]["regime"] == "NE"
        assert report["results"]["marginal_residual"] <= 1e-10
        coupling = load_matrix(out / "coupling.csv")
        np.testing.assert_allclose(coupling.sum(axis=1), mu, atol=1e-9)

    def test_stationary_rbf_bridge_is_equilibrium(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "eq"
        code = main([
            "bridge", "--input", str(cloud_path), "--beta", "1",
            "--mu-plus", "stationary", "--mu-minus", "stationary",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["results"]["regime"] == "EQ"

    def test_attention_kernel_stationary_bridge_is_ness(self, tmp_path):
        # asymmetric weights make forward attention non-reversible
        rng = np.random.default_rng(133)
        cloud_path = tmp_path / "cloud.csv"
        write_matrix_csv(cloud_path, rng.standard_normal((6, 3)))
        weights_path = tmp_path / "w.csv"
        write_matrix_csv(weights_path, rng.standard_normal((3, 3)))
        out = tmp_path / "ness"
        code = main([
            "bridge", "--input", str(cloud_path), "--weights", str(weights_path),
            "--beta", "1", "--kernel", "attention",
            "--mu-plus", "stationary", "--mu-minus", "stationary",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["results"]["regime"] == "NESS"
        assert report["results"]["max_current"] > report["results"]["current_threshold"]


    def test_loose_tol_bridge_keeps_its_steady_state(self, tmp_path):
        # over-relaxed sweeps leave the columns inexact, so mu_plus P misses
        # mu_plus by about half the 1e-4 solver tolerance; the plain-Gram
        # attention kernel is diag(a) S with S symmetric, so the uniform pair
        # is EQ, and its currents of the solver's error are not circulation
        n = 40
        cloud_path = tmp_path / "cloud.csv"
        write_matrix_csv(cloud_path, np.random.default_rng(0).standard_normal((n, 3)))
        mu_path = tmp_path / "uniform.csv"
        write_matrix_csv(mu_path, np.full((1, n), 1.0 / n))
        out = tmp_path / "loose"
        code = main([
            "bridge", "--input", str(cloud_path), "--beta", "4", "--kernel", "attention",
            "--tol", "1e-4", "--mu-plus", str(mu_path), "--mu-minus", str(mu_path),
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        results = json.loads((out / "bridge_report.json").read_text())["results"]
        assert 1e-10 < results["stationarity_residual"] <= 2e-4
        assert results["regime"] == "EQ"

    @staticmethod
    def _uniform_bridge(tmp_path, *args):
        """Run ``bridge`` on the 40-point default_rng(0) cloud with uniform
        marginals and the weights default_rng(5); return its results."""
        n = 40
        files = {name: tmp_path / f"{name}.csv" for name in ("cloud", "w", "mu")}
        write_matrix_csv(files["cloud"], np.random.default_rng(0).standard_normal((n, 3)))
        write_matrix_csv(files["w"], np.random.default_rng(5).standard_normal((3, 3)))
        write_matrix_csv(files["mu"], np.full((1, n), 1.0 / n))
        out = tmp_path / "out"
        code = main([
            "bridge", "--input", str(files["cloud"]), "--weights", str(files["w"]),
            "--mu-plus", str(files["mu"]), "--mu-minus", str(files["mu"]),
            "--out-dir", str(out), *args,
        ])
        assert code == EXIT_OK
        return json.loads((out / "bridge_report.json").read_text())["results"]

    def test_symmetric_kernel_bridge_is_equilibrium_at_its_residual(self, tmp_path):
        # the rbf kernel is symmetric, so the uniform pair is EQ; its currents
        # (3.4e-11) are solver error at marginal residual 7.1e-11
        results = self._uniform_bridge(tmp_path, "--kernel", "rbf")
        assert 1e-11 < results["max_current"] < results["marginal_residual"]
        assert results["regime"] == "EQ"

    def test_loose_tol_weighted_attention_bridge_circulates(self, tmp_path):
        # asymmetric weights make the attention pair circulate, with currents
        # far above the solver's 1e-4
        results = self._uniform_bridge(tmp_path, "--kernel", "attention", "--beta", "4",
                                       "--tol", "1e-4")
        assert results["max_current"] > 10.0 * results["current_threshold"]
        assert results["regime"] == "NESS"

    @staticmethod
    def _two_cluster_files(tmp_path):
        # the stationary measure of forward attention has entries near 1e-30
        # on one cluster, which the direct solve rounds to about -8.5e-17
        points = np.vstack([np.random.default_rng(8).standard_normal((10, 2)),
                            np.random.default_rng(9).standard_normal((10, 2)) + 12.0])
        cloud_path, weights_path = tmp_path / "cloud.csv", tmp_path / "w.csv"
        write_matrix_csv(cloud_path, points)
        write_matrix_csv(weights_path, np.random.default_rng(1).standard_normal((2, 2)))
        return ["--input", str(cloud_path), "--weights", str(weights_path), "--kernel",
                "attention", "--mu-plus", "stationary", "--mu-minus", "stationary"]

    def test_stationary_marginal_rounding_below_zero_is_classified(self, tmp_path):
        out = tmp_path / "c"
        assert main(["classify", *self._two_cluster_files(tmp_path), "--out-dir", str(out)]) \
            == EXIT_OK
        results = json.loads((out / "classify_report.json").read_text())["results"]
        assert results["regime"] in ("EQ", "NESS")

    def test_stationary_marginal_with_zeros_cannot_bridge(self, tmp_path, capsys):
        code = main(["bridge", *self._two_cluster_files(tmp_path),
                     "--out-dir", str(tmp_path / "b")])
        assert code == EXIT_USAGE
        assert "stationary marginal has entries that are zero at beta=1.84916" \
            in capsys.readouterr().err


class TestOtherCommands:
    def test_kernel_command(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "k"
        code = main(["kernel", "--input", str(cloud_path), "--beta", "1",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        kernel = load_matrix(out / "kernel.csv")
        np.testing.assert_array_equal(np.diag(kernel), np.ones(8))
        report = json.loads((out / "kernel_report.json").read_text())
        assert report["results"]["min_entry"] == kernel.min()

    def test_attention_bistochastic_command(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "ab"
        code = main([
            "attention", "--input", str(cloud_path), "--beta", "0.5",
            "--bistochastic", "--out-dir", str(out), "--tol", "1e-11",
        ])
        assert code == EXIT_OK
        operator = load_matrix(out / "attention.csv")
        np.testing.assert_allclose(operator.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(operator.sum(axis=1), 1.0, atol=1e-10)

    def test_attention_bistochastic_at_loose_tol(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "loose"
        code = main([
            "attention", "--input", str(cloud_path), "--bistochastic",
            "--tol", "1e-4", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "attention_report.json").read_text())
        assert 1e-6 < report["results"]["row_sum_residual"] <= 1e-4
        assert report["results"]["column_sum_residual"] <= 1e-4

    def test_attention_bistochastic_with_unrepresentable_potentials(self, tmp_path):
        # a rotation W at beta 2000: the flat answer's potential e^1000 is no float
        write_matrix_csv(tmp_path / "cloud.csv", np.eye(2))
        write_matrix_csv(tmp_path / "w.csv", np.array([[0.0, 1.0], [-1.0, 0.0]]))
        code = main(["attention", "--input", str(tmp_path / "cloud.csv"), "--bistochastic",
                     "--weights", str(tmp_path / "w.csv"), "--beta", "2000",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "attention.csv").read_text() == "0.5,0.5\n0.5,0.5\n"

    def test_attention_forward_command(self, tmp_path, cloud_csv):
        cloud_path, points = cloud_csv
        out = tmp_path / "afw"
        code = main(["attention", "--input", str(cloud_path), "--beta", "1",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        biv = markovgeom.bidivergence(markovgeom.gram(markovgeom.DataCloud(points)))
        write_matrix_csv(tmp_path / "expected.csv", markovgeom.attention_forward(biv, 1.0).values)
        assert (out / "attention.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        report = json.loads((out / "attention_report.json").read_text())
        assert report["results"]["variant"] == "fwd"

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("flags", [(), ("--format", "json"), ("--bistochastic",)],
                             ids=["csv", "json", "bistochastic"])
    def test_backward_direction_writes_the_forward_map_transposed(self, tmp_path, cloud_csv,
                                                                  flags, weighted):
        # bwd = fwd^T: the column softmax, and the one bistochastic scaling of
        # exp(-beta * bwd), are the forward maps transposed, bit for bit
        cloud_path, _ = cloud_csv
        weights = ()
        if weighted:
            write_matrix_csv(tmp_path / "w.csv", np.array([[0.3, 0.8], [-0.4, 0.1]]))
            weights = ("--weights", str(tmp_path / "w.csv"))
        maps, reports = {}, {}
        for direction in ("fwd", "bwd"):
            out = tmp_path / direction
            code = main(["attention", "--input", str(cloud_path), *weights, "--beta", "1",
                         *flags, "--direction", direction, "--out-dir", str(out)])
            assert code == EXIT_OK
            reports[direction] = json.loads((out / "attention_report.json").read_text())
            maps[direction] = (np.array(reports[direction]["matrices"]["attention"])
                               if "json" in flags else load_matrix(out / "attention.csv"))
        assert maps["bwd"].tobytes() == np.ascontiguousarray(maps["fwd"].T).tobytes()
        results = reports["bwd"]["results"]
        if "--bistochastic" in flags:
            assert (results["variant"], results["kind"]) == ("bistochastic-bwd", "bi")
        else:
            assert (results["variant"], results["kind"]) == ("bwd", "column")
            assert results["column_sum_residual"] <= 1e-12

    def test_classify_command(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "c"
        code = main([
            "classify", "--input", str(cloud_path), "--beta", "1",
            "--mu-plus", "stationary", "--mu-minus", "stationary",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "classify_report.json").read_text())
        assert report["results"]["regime"] == "EQ"
        j = load_matrix(out / "currents.csv")
        np.testing.assert_allclose(j, -j.T, atol=1e-15)

    def test_embed_command(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "e"
        code = main([
            "embed", "--input", str(cloud_path), "--beta", "1",
            "--t", "1", "--k", "2", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        coords = load_matrix(out / "embedding.csv")
        assert coords.shape == (8, 2)
        report = json.loads((out / "embed_report.json").read_text())
        assert len(report["results"]["eigenvalues"]) == 3
        assert report["results"]["eigenvalues"][0] == pytest.approx(1.0, abs=1e-10)


class TestVerifyCommand:
    def test_fixture_cloud_passes_everything(self, tmp_path, cloud_csv, capsys):
        cloud_path, _ = cloud_csv
        out = tmp_path / "v"
        code = main([
            "verify", "--input", str(cloud_path), "--beta", "1", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "all identities hold (13/13 criteria)" in printed
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert [c["id"] for c in report["checks"]] == [f"C{i}" for i in range(1, 14)]
        for check in report["checks"]:
            assert check["passed"] is True
            for part in check["parts"]:
                assert "residual" in part and "tolerance" in part
        assert "info" not in report["checks"][10]

    @pytest.mark.parametrize("points, beta", [
        ([[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0]], "auto"),
        (np.random.default_rng(12).standard_normal((12, 3)), "1e-9"),
        (np.random.default_rng(12).standard_normal((12, 3)), "1e-10"),
        ([[0.0, 0.0], [1.0, 0.5]], "auto"),
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], "auto"),
        (np.random.default_rng(155).standard_normal((6, 2)) + np.repeat([[0.0], [4.0]], 3, 0), "4"),
    ], ids=["near-duplicate", "beta-1e-9", "beta-1e-10", "two-points", "two-distinct-of-three",
            "two-clusters-beta-4"])
    def test_ness_parts_run_on_the_seeded_chain(self, tmp_path, points, beta):
        # no input chain need circulate: one on two states is reversible, and
        # attention currents shrink with beta and with the spread of the
        # points; nor need its stationary measure be certified to 1e-12, which
        # that of two clusters 4 apart at beta=4 is not.  C11's NESS parts
        # read the same seeded chain on every input
        cloud_path = tmp_path / "cloud.csv"
        write_matrix_csv(cloud_path, np.array(points))
        out = tmp_path / "v"
        code = main(["verify", "--input", str(cloud_path), "--beta", beta, "--out-dir", str(out)])
        assert code == EXIT_OK
        c11 = json.loads((out / "verify_report.json").read_text())["checks"][10]
        assert "info" not in c11
        assert [part["residual"] for part in c11["parts"][2:]] == [0.0, 0.07121868236597338]

    def test_near_flat_sink_marginal_is_still_perturbed(self, tmp_path):
        # at beta=1e-6 attention is nearly uniform, and so is the sink
        # marginal of C11: it spreads by far less than the 1e-3 moved
        cloud_path = tmp_path / "cloud.csv"
        write_matrix_csv(cloud_path, np.random.default_rng(12).standard_normal((12, 3)))
        code = main(["verify", "--input", str(cloud_path), "--beta", "1e-6",
                     "--out-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_large_cloud_sink_marginal_is_still_perturbed(self):
        # at N=950 every sink-marginal entry is near 1e-3, so moving 1e-3 off
        # the largest made it the smallest, and it got the mass back
        from markovgeom.verify import check_attention_bridge

        cloud = markovgeom.DataCloud(np.random.default_rng(950).standard_normal((950, 3)))
        d2 = markovgeom.squared_distance(markovgeom.bidivergence(markovgeom.gram(cloud)))
        result = check_attention_bridge(cloud, cli._resolve_beta("auto", d2))
        assert [part["passed"] for part in result.parts] == [True] * 4
        assert result.parts[1]["label"].startswith("a 0.000")

    def test_convergence_error_names_the_check(self, tmp_path, cloud_csv, capsys, monkeypatch):
        # a bridge given one sweep cannot meet C10's 1e-12, so the suite stops
        # there; the command's own run of the suite is the one whose error is read
        from markovgeom import verify

        real_run, real_solve, raised = verify.run_identity_checks, verify.solve_bridge, []

        def record(cloud, beta):
            try:
                return real_run(cloud, beta)
            except cli.ConvergenceError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(verify, "run_identity_checks", record)
        monkeypatch.setattr(verify, "solve_bridge",
                            lambda *args, **kwargs: real_solve(*args, **{**kwargs, "max_iter": 1}))
        cloud_path, _ = cloud_csv
        code = main(["verify", "--input", str(cloud_path), "--beta", "1",
                     "--out-dir", str(tmp_path / "v")])
        [error] = raised
        cause = error.__cause__
        assert str(error) == f"check_doob_transform: {cause}"
        assert (error.residual, error.iterations) == (cause.residual, 1)
        assert code == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == f"error: {error} at beta=1: reduce --beta\n"

    def test_rerun_is_byte_identical(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "v2"
        args = ["verify", "--input", str(cloud_path), "--beta", "1", "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        first = (out / "verify_report.json").read_bytes()
        assert main(args) == EXIT_OK
        assert (out / "verify_report.json").read_bytes() == first


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path):
        code = main(["dmap", "--input", str(tmp_path / "nope.csv"), "--beta", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_bad_beta_is_usage_error(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        code = main(["dmap", "--input", str(cloud_path), "--beta", "-2",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_unknown_direction_is_usage_error(self, tmp_path, cloud_csv, capsys):
        cloud_path, _ = cloud_csv
        code = main(["attention", "--input", str(cloud_path), "--beta", "1",
                     "--direction", "sideways", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "--direction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_command_is_usage_error(self, capsys):
        code = main(["frobnicate"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_magnetic_without_weights_is_usage_error(self, tmp_path, cloud_csv, capsys):
        cloud_path, _ = cloud_csv
        code = main(["magnetic", "--input", str(cloud_path), "--beta", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "--weights" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, cloud_csv, marginal_csv, capsys):
        cloud_path, _ = cloud_csv
        mu_path, _ = marginal_csv
        code = main([
            "bridge", "--input", str(cloud_path), "--beta", "1",
            "--mu-plus", str(mu_path), "--mu-minus", "stationary",
            "--out-dir", str(tmp_path), "--tol", "1e-14", "--max-iter", "1",
        ])
        assert code == EXIT_NO_CONVERGENCE
        # bridge takes --max-iter, so the message offers it after beta
        err = capsys.readouterr().err
        assert err.startswith("error: scaling stalled at residual ")
        assert err.endswith(" after 1 iterations at beta=1: reduce --beta or raise --max-iter\n")

    @pytest.mark.parametrize("command, target", [
        (["classify", "--kernel", "attention", "--mu-plus", "stationary",
          "--mu-minus", "stationary"], "markovgeom.bridges.stationary_distribution"),
        (["verify"], "markovgeom.verify.run_identity_checks"),
    ])
    def test_nonconvergence_without_budget_names_beta_only(self, tmp_path, cloud_csv, capsys,
                                                           monkeypatch, command, target):
        # neither command takes --max-iter, so the message must not offer it
        def stall(*args, **kwargs):
            raise cli.ConvergenceError("stalled", 0.5, 7)

        monkeypatch.setattr(target, stall)
        cloud_path, _ = cloud_csv
        argv = [*command, "--input", str(cloud_path), "--beta", "0.25",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == "error: stalled at beta=0.25: reduce --beta\n"
        with pytest.raises(cli.ConvergenceError) as excinfo:
            cli._run(cli.build_parser().parse_args(argv))
        assert (excinfo.value.residual, excinfo.value.iterations) == (0.5, 7)

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_diffusion_time_is_usage_error(self, tmp_path, cloud_csv, capsys, t):
        cloud_path, _ = cloud_csv
        out = tmp_path / "out"
        code = main(["embed", "--input", str(cloud_path), "--beta", "1", "--t", t,
                     "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert "diffusion time must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_beta_undefined_for_coincident_points(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("1,1\n1,1\n1,1\n")
        code = main(["dmap", "--input", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "beta" in capsys.readouterr().err


class TestUnderflowingKernel:
    """At beta=200 on a 50-point cloud exp(-beta d2) underflows to zero.  The
    diffusion operator and its stationary measure are still defined there, so
    the commands that need only them run; those that need the kernel itself
    exit 2."""

    BETA = 200.0

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(140)
        files = {"cloud": tmp_path / "cloud.csv", "weights": tmp_path / "w.csv"}
        write_matrix_csv(files["cloud"], rng.standard_normal((50, 2)))
        # positive definite symmetric part, so d2 >= 0 and only underflow can occur
        write_matrix_csv(files["weights"], np.array([[1.0, 0.5], [-0.5, 1.0]]))
        return files

    def _library(self, files, weighted):
        cloud = load_cloud(files["cloud"])
        weights = cli.load_weights(files["weights"]) if weighted else None
        gram = (markovgeom.generalized_gram(cloud, weights) if weighted
                else markovgeom.gram(cloud))
        d2 = markovgeom.squared_distance(markovgeom.bidivergence(gram))
        with pytest.raises(ValueError, match="kernel underflowed to zero"):
            markovgeom.rbf_kernel(d2, self.BETA)
        operator, pi = markovgeom.operators._diffusion(d2, self.BETA)
        return cloud, weights, operator, pi

    def _expected(self, command, files):
        if command == "magnetic":
            cloud, weights, operator, pi = self._library(files, weighted=True)
            phased = markovgeom.magnetic_operator(
                operator, markovgeom.edge_phases(cloud, weights, self.BETA))
            return {"magnetic_magnitude": phased.magnitudes.values,
                    "magnetic_phase": phased.phases,
                    "magnetic_current": markovgeom.magnetic_flux(pi, phased)[1]}
        _, _, operator, pi = self._library(files, weighted=False)
        if command == "embed":
            dec = markovgeom.decompose(markovgeom.conjugate_symmetrize(operator, pi), pi)
            return {"embedding": markovgeom.diffusion_embedding(dec, t=1.0, k=2).coordinates}
        return {"currents": markovgeom.classify_regime(operator, pi, pi).currents}

    @pytest.mark.parametrize("command, argv", [
        ("embed", ["--k", "2"]),
        ("magnetic", ["--weights", "{weights}"]),
        ("classify", ["--kernel", "rbf", "--mu-plus", "stationary", "--mu-minus", "stationary"]),
    ])
    def test_diffusion_commands_run(self, tmp_path, files, capsys, command, argv):
        out = tmp_path / "out"
        code = main([command, "--input", str(files["cloud"]), "--beta", str(self.BETA),
                     *[a.format(**files) for a in argv], "--out-dir", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        for name, matrix in self._expected(command, files).items():
            write_matrix_csv(tmp_path / f"{name}.csv", matrix)
            assert (out / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["kernel"],
        ["bridge", "--kernel", "rbf", "--mu-plus", "stationary", "--mu-minus", "stationary"],
    ])
    def test_kernel_commands_exit_2(self, tmp_path, files, capsys, argv):
        code = main([*argv, "--input", str(files["cloud"]), "--beta", str(self.BETA),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "kernel underflowed to zero" in capsys.readouterr().err


class TestUnderflowingMeasure:
    """Indefinite weights give negative squared distances; at a large beta an
    entry of the diffusion operator's stationary measure underflows to zero.
    The commands that conjugate by its square root exit 2 and say so; classify
    allows a zero marginal entry and runs."""

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(5)
        files = {"cloud": tmp_path / "cloud.csv", "weights": tmp_path / "w.csv"}
        write_matrix_csv(files["cloud"], rng.standard_normal((30, 3)))
        write_matrix_csv(files["weights"],
                         np.diag([1.0, -1.0, 0.5]) + 0.3 * rng.standard_normal((3, 3)))
        return files

    @pytest.mark.parametrize("beta", ["100", "1000"])
    @pytest.mark.parametrize("command", ["embed", "magnetic"])
    def test_reversible_commands_exit_2_naming_beta(self, tmp_path, files, capsys, command,
                                                    beta):
        code = main([command, "--input", str(files["cloud"]), "--weights", str(files["weights"]),
                     "--beta", beta, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"stationary measure underflowed to zero: beta={beta} times" in err
        assert "reduce beta" in err

    @pytest.mark.parametrize("beta", ["100", "1000"])
    def test_classify_runs(self, tmp_path, files, capsys, beta):
        code = main(["classify", "--kernel", "rbf", "--mu-plus", "stationary",
                     "--mu-minus", "stationary", "--input", str(files["cloud"]),
                     "--weights", str(files["weights"]), "--beta", beta,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        capsys.readouterr()


class TestUnderflowingAttention:
    """At beta=1e3 on 12 unit-norm points, entries of forward attention and of
    its kernel exp(-beta fwd) underflow to zero.  The library raises its own
    messages; the CLI exits 2 naming beta and the fix."""

    BETA = 1e3

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        mu = rng.uniform(0.5, 1.5, 12)
        files = {"cloud": tmp_path / "cloud.csv", "mu": tmp_path / "mu.csv"}
        write_matrix_csv(files["cloud"], points)
        write_matrix_csv(files["mu"], (mu / mu.sum()).reshape(1, -1))
        biv = markovgeom.bidivergence(markovgeom.gram(load_cloud(files["cloud"])))
        with pytest.raises(ValueError, match="operator must be strictly positive"):
            markovgeom.stationary_distribution(markovgeom.attention_forward(biv, self.BETA))
        with pytest.raises(ValueError, match="attention kernel underflowed to zero: beta=1000"):
            markovgeom.attention_bridge(biv, self.BETA, np.full(12, 1 / 12), np.full(12, 1 / 12))
        return files

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--mu-plus", "stationary", "--mu-minus", "stationary"],
         "attention underflowed to zero: beta=1000 times the spread"),
        (["bridge", "--mu-plus", "stationary", "--mu-minus", "stationary"],
         "attention underflowed to zero: beta=1000 times the spread"),
        (["bridge", "--mu-plus", "{mu}", "--mu-minus", "{mu}"],
         "attention kernel underflowed to zero: beta=1000 times the largest"),
    ], ids=["classify-stationary", "bridge-stationary", "bridge-csv"])
    def test_attention_commands_exit_2_naming_beta(self, tmp_path, files, capsys, argv,
                                                   message):
        code = main([*[a.format(**files) for a in argv], "--kernel", "attention",
                     "--input", str(files["cloud"]), "--beta", str(self.BETA),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "reduce beta" in err

    def test_bridge_reports_the_library_message(self, tmp_path, files, capsys):
        # attention_bridge names beta itself, so the CLI's line is its message
        biv = markovgeom.bidivergence(markovgeom.gram(load_cloud(files["cloud"])))
        mu = np.full(12, 1 / 12)
        with pytest.raises(ValueError) as raised:
            markovgeom.attention_bridge(biv, self.BETA, mu, mu)
        largest = float(biv.fwd.max())
        assert str(raised.value) == (
            f"attention kernel underflowed to zero: beta=1000 times the largest forward "
            f"divergence {largest:g} exceeds the exponential range; reduce beta")
        code = main(["bridge", "--kernel", "attention", "--mu-plus", str(files["mu"]),
                     "--mu-minus", str(files["mu"]), "--input", str(files["cloud"]),
                     "--beta", str(self.BETA), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {raised.value}\n"


# commands whose solvers take --tol, and whether they take --max-iter
_SOLVER_COMMANDS = {
    "bridge-rbf": (["bridge", "--mu-plus", "stationary", "--mu-minus", "stationary"], True),
    "bridge-attention": (["bridge", "--kernel", "attention", "--mu-plus", "stationary",
                          "--mu-minus", "stationary"], True),
    "classify-attention": (["classify", "--kernel", "attention", "--mu-plus", "stationary",
                            "--mu-minus", "stationary"], False),
    "attention-bistochastic": (["attention", "--bistochastic"], True),
}
_BAD_SOLVER_ARGS = {
    "tol-0": (["--tol", "0"], "tol must be finite and positive"),
    "tol-neg": (["--tol", "-1"], "tol must be finite and positive"),
    "tol-nan": (["--tol", "nan"], "tol must be finite and positive"),
    "tol-inf": (["--tol", "inf"], "tol must be finite and positive"),
    "max-iter-0": (["--max-iter", "0"], "max_iter must be at least 1"),
    "max-iter-neg": (["--max-iter", "-3"], "max_iter must be at least 1"),
    # both bad: the tol is reported, as the library checks it first
    "both": (["--tol", "-5", "--max-iter", "0"], "tol must be finite and positive, got -5.0"),
}
# paths that take --tol (and --max-iter where the flag says so) but run no
# solver with them: the values are checked all the same, before any input is read
_NO_SOLVER_PATHS = {
    "attention-forward": (["attention"], True),
    "attention-json": (["attention", "--format", "json"], True),
    "classify-rbf": (["classify", "--mu-plus", "stationary", "--mu-minus", "stationary"], False),
}


class TestArgumentChecks:
    # the flag values that no command reads are gone from the parser
    @pytest.mark.parametrize("command, flag", [
        *[(command, flag) for command in ("dmap", "kernel", "magnetic", "embed", "verify")
          for flag in ("--tol=1e-3", "--max-iter=5")],
        ("classify", "--max-iter=5"),
        ("verify", "--format=json"),
    ])
    def test_unread_flags_are_rejected(self, tmp_path, cloud_csv, capsys, command, flag):
        cloud_path, _ = cloud_csv
        required = {"magnetic": ["--weights", str(cloud_path)],
                    "classify": ["--mu-plus", "stationary", "--mu-minus", "stationary"]}
        code = main([command, "--input", str(cloud_path), *required.get(command, []), flag,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["dmap", "kernel", "attention", "embed"])
    def test_out_with_json_format_is_usage_error(self, tmp_path, cloud_csv, capsys, command):
        cloud_path, _ = cloud_csv
        out = tmp_path / "out"
        code = main([command, "--input", str(cloud_path), "--beta", "1", "--format", "json",
                     "--out", str(tmp_path / "op.csv"), "--out-dir", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--out" in err and "--format json" in err
        assert not out.exists() and not (tmp_path / "op.csv").exists()

    @pytest.mark.parametrize("command", ["dmap", "kernel"])
    @pytest.mark.parametrize("beta", ["inf", "nan", "0", "-1"])
    def test_beta_must_be_finite_and_positive(self, tmp_path, cloud_csv, capsys, command, beta):
        cloud_path, _ = cloud_csv
        code = main([command, "--input", str(cloud_path), "--beta", beta,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "beta must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, solver_args, message", [
        pytest.param(argv, solver_args, message, id=f"{name}-{case}")
        for name, (argv, takes_max_iter) in _SOLVER_COMMANDS.items()
        for case, (solver_args, message) in _BAD_SOLVER_ARGS.items()
        if takes_max_iter or "--max-iter" not in solver_args
    ])
    def test_solver_arguments_are_usage_errors(self, tmp_path, cloud_csv, capsys, argv,
                                               solver_args, message):
        cloud_path, _ = cloud_csv
        code = main([*argv, "--input", str(cloud_path), "--beta", "1", *solver_args,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, solver_args, message", [
        pytest.param(argv, solver_args, message, id=f"{name}-{case}")
        for name, (argv, takes_max_iter) in _NO_SOLVER_PATHS.items()
        for case, (solver_args, message) in _BAD_SOLVER_ARGS.items()
        if takes_max_iter or "--max-iter" not in solver_args
    ])
    def test_solver_arguments_are_checked_where_no_solver_runs(
            self, tmp_path, cloud_csv, capsys, argv, solver_args, message):
        cloud_path, _ = cloud_csv
        out = tmp_path / "out"
        code = main([*argv, "--input", str(cloud_path), "--beta", "1", *solver_args,
                     "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


def _contract_files(tmp_path):
    rng = np.random.default_rng(138)
    files = {"cloud": tmp_path / "cloud.csv", "weights": tmp_path / "w.csv",
             "mu": tmp_path / "mu.csv"}
    write_matrix_csv(files["cloud"], rng.standard_normal((8, 3)))
    write_matrix_csv(files["weights"], rng.standard_normal((3, 3)))
    mu = rng.uniform(0.5, 1.5, 8)
    write_matrix_csv(files["mu"], (mu / mu.sum()).reshape(1, -1))
    return files


# each command's arguments (file keys in braces) and the matrices it writes
_CONTRACT = {
    "dmap": ([], ["dmap"]),
    "kernel": ([], ["kernel"]),
    "attention": (["--bistochastic", "--weights", "{weights}"], ["attention"]),
    "bridge": (["--kernel", "attention", "--weights", "{weights}", "--mu-plus", "{mu}",
                "--mu-minus", "stationary"],
               ["coupling", "forward", "u_plus", "u_minus", "mu_plus", "mu_minus"]),
    "classify": (["--kernel", "attention", "--weights", "{weights}", "--mu-plus", "stationary",
                  "--mu-minus", "stationary"], ["currents"]),
    "magnetic": (["--weights", "{weights}"],
                 ["magnetic_magnitude", "magnetic_phase", "magnetic_current"]),
    "embed": (["--k", "2"], ["embedding"]),
    "verify": ([], []),
}


class TestOutputContract:
    @pytest.mark.parametrize("command, fmt", [
        (command, fmt) for command, (_, matrices) in _CONTRACT.items()
        for fmt in (("csv", "json") if matrices else (None,))
    ])
    def test_rerun_is_byte_identical(self, tmp_path, capsys, command, fmt):
        args, matrices = _CONTRACT[command]
        files = {key: str(path) for key, path in _contract_files(tmp_path).items()}
        argv = [command, "--input", files["cloud"], "--beta", "1",
                *(a.format(**files) for a in args), *(["--format", fmt] if fmt else [])]
        outputs, stdout = [], []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            stdout.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert stdout[0] == stdout[1]
        report_name = f"{command}_report.json"
        csvs = {f"{name}.csv" for name in matrices} if fmt == "csv" else set()
        assert set(outputs[0]) == {report_name} | csvs
        # the layout of every report is json.dumps's own, matrices included
        text = outputs[0][report_name].decode("ascii")
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        report = json.loads(text)
        if command == "verify":
            assert list(report) == ["command", "config", "checks", "all_passed"]
        else:
            assert list(report) == ["command", "config", "results",
                                    *(["matrices"] if fmt == "json" else [])]
            assert next(iter(report["results"])) == "size"
        assert report["command"] == command
        if fmt == "json":
            assert list(report["matrices"]) == matrices


class TestSolverLogging:
    def test_debug_level_logs_solvers_and_leaves_outputs_unchanged(self, tmp_path, cloud_csv,
                                                                   marginal_csv):
        cloud_path, _ = cloud_csv
        mu_path, _ = marginal_csv
        outputs, stderr = {}, {}
        for level in ("warn", "debug"):
            out = tmp_path / level
            argv = ["bridge", "--input", str(cloud_path), "--beta", "1", "--kernel", "attention",
                    "--mu-plus", "stationary", "--mu-minus", str(mu_path), "--out-dir", str(out)]
            env = dict(os.environ, MG_LOG_LEVEL=level,
                       PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
            run = subprocess.run([sys.executable, "-m", "markovgeom", *argv], env=env,
                                 check=True, capture_output=True, text=True, timeout=120)
            outputs[level] = {p.name: p.read_bytes() for p in out.iterdir()}
            stderr[level] = run.stderr.splitlines()
        assert outputs["debug"] == outputs["warn"]
        assert stderr["warn"] == []
        names = [line.split(":")[0] for line in stderr["debug"]]
        assert names == ["DEBUG markovgeom.bridges", "DEBUG markovgeom.normalize"]

    def test_unknown_level_falls_back_to_warn(self, monkeypatch):
        monkeypatch.setenv("MG_LOG_LEVEL", "verbose")
        level = cli.log.level
        try:
            cli._configure_logging()
            assert cli.log.level == logging.WARNING
        finally:
            cli.log.setLevel(level)

    @pytest.mark.parametrize("command, output", [("classify", "currents.csv"),
                                                 ("bridge", "coupling.csv")])
    def test_equal_stationary_marginals_are_solved_once(self, tmp_path, command, output):
        rng = np.random.default_rng(133)
        points, w = rng.standard_normal((6, 3)), rng.standard_normal((3, 3))
        cloud_path, weights_path = tmp_path / "cloud.csv", tmp_path / "w.csv"
        write_matrix_csv(cloud_path, points)
        write_matrix_csv(weights_path, w)
        out = tmp_path / "out"
        argv = [command, "--input", str(cloud_path), "--weights", str(weights_path),
                "--beta", "1", "--kernel", "attention", "--mu-plus", "stationary",
                "--mu-minus", "stationary", "--out-dir", str(out)]
        env = dict(os.environ, MG_LOG_LEVEL="debug",
                   PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "markovgeom", *argv], env=env,
                             check=True, capture_output=True, text=True, timeout=120)
        records = [line for line in run.stderr.splitlines() if "stationary measure" in line]
        assert len(records) == 1
        # the output equals the library result with both marginals solved separately
        biv = markovgeom.bidivergence(markovgeom.generalized_gram(
            load_cloud(cloud_path), cli.load_weights(weights_path)))
        a_plus = markovgeom.attention_forward(biv, 1.0)
        mu_plus = markovgeom.stationary_distribution(a_plus, tol=1e-10)
        mu_minus = markovgeom.stationary_distribution(a_plus, tol=1e-10)
        if command == "classify":
            expected = markovgeom.classify_regime(a_plus, mu_plus, mu_minus).currents
        else:
            expected = markovgeom.attention_bridge(biv, 1.0, mu_plus, mu_minus).coupling
        write_matrix_csv(tmp_path / "expected.csv", expected)
        assert (out / output).read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("counted, argv, times", [
        # once for the bidivergence and once for the edge phases: the geometry
        # holds the D x D weights, not the N x N Gram matrix, while magnetic runs
        pytest.param("generalized_gram", ["magnetic"], 2, id="generalized_gram-argv0"),
        pytest.param("rbf_kernel", ["bridge", "--kernel", "rbf", "--mu-plus", "stationary",
                                    "--mu-minus", "stationary"], 1, id="rbf_kernel-argv1"),
        # the diffusion operator brings its stationary measure: one pass over
        # d2 and beta, and no Gaussian kernel
        *[pytest.param(counted, argv, times, id=f"{counted}-{argv[0]}") for argv in (
            ["magnetic"], ["embed"],
            ["classify", "--kernel", "rbf", "--mu-plus", "stationary", "--mu-minus", "stationary"],
        ) for counted, times in (("_gaussian_logits", 1), ("rbf_kernel", 0))],
    ])
    def test_each_intermediate_is_built_once(self, tmp_path, monkeypatch, counted, argv, times):
        rng = np.random.default_rng(134)
        cloud_path, weights_path = tmp_path / "cloud.csv", tmp_path / "w.csv"
        write_matrix_csv(cloud_path, rng.standard_normal((6, 3)))
        write_matrix_csv(weights_path, rng.standard_normal((3, 3)))
        # a private helper is found in the module that defines it
        original = getattr(markovgeom, counted, None) or getattr(markovgeom.operators, counted)
        calls = []

        def counting(*args, **kwargs):
            calls.append(counted)
            return original(*args, **kwargs)

        # patch the name wherever the package binds it, so calls from inside
        # the library (edge_phases, for one) are counted too; the package
        # loads its modules on first use, so every one is loaded here first,
        # or one loaded by the command would bind the counting double for good
        modules = [getattr(markovgeom, name) for name in (
            "geometry", "normalize", "operators", "bridges", "spectral", "verify")]
        for module in [*modules, cli]:
            if getattr(module, counted, None) is original:
                monkeypatch.setattr(module, counted, counting)
        code = main([*argv, "--input", str(cloud_path), "--weights", str(weights_path),
                     "--beta", "1", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert calls == [counted] * times


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        code = "import sys, markovgeom.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_loads_neither_numpy_random_nor_scipy(self):
        # numpy before 2.0 imports numpy.random itself; the CLI must add
        # neither it nor scipy to what a bare ``import numpy`` loads
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        code = ("import sys, numpy; before = set(sys.modules); import markovgeom.cli; "
                "print(sorted({'numpy.random', 'scipy'} & (set(sys.modules) - before)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    def test_commands_load_only_what_they_run(self, tmp_path):
        # after a bare ``import numpy`` (which loads numpy.ma itself on numpy
        # 1.x), dmap, kernel and inline-JSON attention load none of verify,
        # bridges and spectral, and no command loads numpy.ma
        rng = np.random.default_rng(144)
        cloud, weights = tmp_path / "cloud.csv", tmp_path / "w.csv"
        write_matrix_csv(cloud, rng.standard_normal((12, 3)))
        write_matrix_csv(weights, rng.standard_normal((3, 3)))
        stationary = ["--mu-plus", "stationary", "--mu-minus", "stationary"]
        runs = [["dmap"], ["kernel"], ["attention", "--format", "json"],
                ["bridge", *stationary], ["classify", *stationary],
                ["magnetic", "--weights", str(weights)], ["embed"], ["verify"]]
        runs = [[*argv, "--input", str(cloud), "--out-dir", str(tmp_path / argv[0])]
                for argv in runs]
        code = textwrap.dedent(f"""
            import json, sys, numpy
            before = set(sys.modules)
            from markovgeom import cli
            loaded = []
            for argv in {runs!r}:
                code = cli.main(argv)
                added = set(sys.modules) - before
                loaded.append([argv[0], code, sorted(
                    m for m in added if m.split(".")[:2] == ["numpy", "ma"]
                    or m in ("markovgeom.verify", "markovgeom.bridges", "markovgeom.spectral"))])
            print(json.dumps(loaded))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        loaded = json.loads(out.stdout.splitlines()[-1])
        assert loaded[:3] == [["dmap", 0, []], ["kernel", 0, []], ["attention", 0, []]]
        assert [(name, code) for name, code, _ in loaded] == [
            (argv[0], 0) for argv in runs]
        assert not [m for m in loaded[-1][2] if m.startswith("numpy")]

    def test_submodules_resolve_from_a_fresh_interpreter(self):
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        code = ("import markovgeom; "
                "print(markovgeom.verify.run_identity_checks is markovgeom.run_identity_checks, "
                "'spectral' in dir(markovgeom), 'decompose' in dir(markovgeom))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.split() == ["True", "True", "True"]


class TestLazyPackage:
    """The package resolves its public names on first use, from the modules
    that define them, and caches none of them."""

    def test_public_names_are_pinned(self):
        # a name joins or leaves the public surface only with this list
        assert markovgeom.__all__ == [
            "Bidivergence", "BridgeSolution", "CheckResult", "ComplexOperator",
            "ConvergenceError", "DataCloud", "Embedding", "GramMatrix", "InteractionWeights",
            "KernelMatrix", "RegimeReport", "ScalingPotentials", "SpectralDecomposition",
            "StochasticOperator", "attention_bistochastic", "attention_bridge",
            "attention_forward", "attention_gauge", "bidivergence",
            "classify_regime", "conjugate_hermitize", "conjugate_symmetrize", "currents",
            "decompose", "diffusion_embedding", "directional_kernels", "dmap", "dmap_as_bridge",
            "dmap_bistochastic", "doob_transform", "edge_phases", "generalized_gram", "gram",
            "magnetic_flux", "magnetic_operator", "poe_combine", "poe_factorization",
            "rbf_kernel", "run_identity_checks", "sb_factorization_check", "schrodinger_solve",
            "sinkhorn", "softmax_cols", "softmax_rows", "solve_bridge", "squared_distance",
            "stationary_distribution",
        ]

    def test_each_public_name_is_its_home_module_object(self):
        for name in markovgeom.__all__:
            value = getattr(markovgeom, name)
            home = value.__module__
            assert home.startswith("markovgeom."), name
            assert getattr(sys.modules[home], name) is value, name

    def test_star_import(self):
        namespace = {}
        exec("from markovgeom import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(markovgeom.__all__)
        assert namespace["dmap"] is markovgeom.operators.dmap

    def test_lookup_follows_a_rebound_name(self, monkeypatch):
        # a tracer rebinds names in the defining module; the package must not
        # keep handing out what it found first
        original = markovgeom.operators.dmap
        monkeypatch.setattr(markovgeom.operators, "dmap", "rebound")
        assert markovgeom.dmap == "rebound"
        monkeypatch.undo()
        assert markovgeom.dmap is original
        assert "dmap" not in vars(markovgeom)

    def test_submodule_resolves_through_the_package(self, monkeypatch):
        # once imported, a submodule is an attribute of the package; without
        # it the lookup falls to the package's __getattr__
        import markovgeom.bridges
        monkeypatch.delattr(markovgeom, "bridges")
        assert markovgeom.bridges is sys.modules["markovgeom.bridges"]

    def test_dir_lists_public_names_and_submodules(self):
        names = dir(markovgeom)
        assert names == sorted(names)
        assert set(markovgeom.__all__) <= set(names)
        assert {"bridges", "geometry", "normalize", "operators", "spectral", "verify",
                "__version__"} <= set(names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            markovgeom.no_such_name  # noqa: B018


class TestAutoBeta:
    """``--beta auto`` takes the median off-diagonal squared distance from the
    strict upper triangle of the symmetric d2: bitwise ``np.median`` of all
    off-diagonal entries, the same beta from half the data."""

    @staticmethod
    def _check(points):
        d2 = markovgeom.squared_distance(markovgeom.bidivergence(markovgeom.gram(
            markovgeom.DataCloud(points))))
        median = np.float64(np.median(d2[~np.eye(d2.shape[0], dtype=bool)]))
        assert np.float64(cli._auto_median(d2)).tobytes() == median.tobytes()
        if median > 0.0:
            assert cli._resolve_beta("auto", d2) == 1.0 / float(median)
        return d2, median

    def test_every_size_from_2_to_301(self):
        # the upper triangle holds an odd number of entries for some sizes and
        # an even number for others
        for n in range(2, 302):
            self._check(np.random.default_rng(n).standard_normal((n, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50])
    def test_many_draws(self, n):
        for seed in range(100):
            self._check(np.random.default_rng((n, seed)).exponential(size=(n, 1)))

    @pytest.mark.parametrize("n", [3, 20, 101])
    def test_duplicated_points(self, n):
        rng = np.random.default_rng(145)
        points = rng.standard_normal((max(2, n // 3), 2))[rng.integers(0, max(2, n // 3), n)]
        self._check(points)

    def test_median_zero_is_rejected(self):
        points = np.zeros((5, 2))
        points[0] = 1.0
        d2, median = self._check(points)
        assert median == 0.0
        with pytest.raises(ValueError, match="median off-diagonal"):
            cli._resolve_beta("auto", d2)

    def test_negative_median_is_named(self):
        # indefinite weights give negative squared distances, here a median
        # of -1.11
        points = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0], [2.0, -1.0]])
        weights = markovgeom.InteractionWeights(np.random.default_rng(1).standard_normal((2, 2)))
        d2 = markovgeom.squared_distance(markovgeom.bidivergence(markovgeom.generalized_gram(
            markovgeom.DataCloud(points), weights)))
        with pytest.raises(ValueError, match=r"squared distance is not positive \(got -1\.11"):
            cli._resolve_beta("auto", d2)
