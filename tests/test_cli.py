"""CSV ingest, emit, command dispatch, exit codes, and determinism."""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

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
        report = json.loads((out / "magnetic_report.json").read_text())
        assert report["results"]["magnitude_residual"] == 0.0


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(cli, "_emit_workers", lambda matrix: workers)


def _savetxt_bytes(matrix):
    buffer = io.BytesIO()
    np.savetxt(buffer, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")
    return buffer.getvalue()


# above the parallel threshold: a row count that 2 and 3 do not divide, one
# row, one column, and the extreme row repeated
_LARGE = {
    "301x300": np.random.default_rng(134).dirichlet(np.ones(300), size=301),
    "1-row": np.random.default_rng(135).standard_normal((1, 70_000)),
    "1-column": np.random.default_rng(136).standard_normal((70_000, 1)),
    "extremes": np.tile(_EXTREME_ROW, (280, 20)),
}


class TestParallelEmit:
    def test_large_matrices_are_above_the_threshold(self):
        for matrix in _LARGE.values():
            assert matrix.size >= cli._PARALLEL_MIN_CELLS

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_LARGE))
    def test_csv_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, name, workers):
        _force_workers(monkeypatch, workers)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, _LARGE[name])
        assert path.read_bytes() == _savetxt_bytes(_LARGE[name])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_LARGE))
    def test_json_equals_json_dumps(self, tmp_path, monkeypatch, name, workers):
        _force_workers(monkeypatch, workers)
        matrix = _LARGE[name]
        small = np.array([[-0.0, 5e-324], [1e-300, np.finfo(float).max]])

        def report(value, other):
            return {"command": "x", "results": {"values": [1.0, -0.0, 1e300]},
                    "matrices": {"big": value, "nested": [{"in_list": other}],
                                 "empty": np.zeros((0, 3)),
                                 "no_columns": np.zeros((2, 0))}}

        path = tmp_path / "r.json"
        write_report_json(path, report(matrix, small))
        expected = report(matrix.tolist(), small.tolist())
        expected["matrices"]["empty"] = []
        expected["matrices"]["no_columns"] = [[], []]
        assert path.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_json_of_non_finite_matrix_equals_json_dumps(self, tmp_path):
        matrix = np.array([[np.nan, np.inf], [-np.inf, 1.0]])
        path = tmp_path / "r.json"
        write_report_json(path, {"m": matrix})
        assert path.read_text() == json.dumps({"m": matrix.tolist()}, indent=2) + "\n"

    def test_worker_count_follows_cpus_and_rows(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._emit_workers(np.zeros((8, 8))) == 1
        assert cli._emit_workers(np.zeros((1, 70_000))) == 1
        assert cli._emit_workers(np.zeros((40, 2000))) == 2
        assert cli._emit_workers(np.zeros((600, 600))) == 3

    @pytest.mark.parametrize("fmt, output", [("csv", "dmap.csv"), ("json", "dmap_report.json")])
    def test_failing_worker_exits_2_without_output(self, tmp_path, monkeypatch, capsys, fmt, output):
        cloud = tmp_path / "cloud.csv"
        write_matrix_csv(cloud, np.random.default_rng(137).standard_normal((300, 2)))
        real = cli._format_rows

        def fail_in_workers(matrix, lo, hi, row_fmt, sep):
            if lo > 0:
                raise RuntimeError("injected formatter failure")
            return real(matrix, lo, hi, row_fmt, sep)

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
            def fail_in_caller(matrix, lo, hi, row_fmt, sep):
                if lo == 0:
                    raise RuntimeError("injected")
                return real(matrix, lo, hi, row_fmt, sep)
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
        assert report["results"]["symmetry_residual"] <= report["results"]["symmetry_tolerance"]

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

    def test_attention_backward_command(self, tmp_path, cloud_csv):
        cloud_path, _ = cloud_csv
        out = tmp_path / "abw"
        code = main([
            "attention", "--input", str(cloud_path), "--beta", "1",
            "--direction", "bwd", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        operator = load_matrix(out / "attention.csv")
        np.testing.assert_allclose(operator.sum(axis=0), 1.0, atol=1e-12)

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

    def test_nonconvergence_exit_code(self, tmp_path, cloud_csv, marginal_csv):
        cloud_path, _ = cloud_csv
        mu_path, _ = marginal_csv
        code = main([
            "bridge", "--input", str(cloud_path), "--beta", "1",
            "--mu-plus", str(mu_path), "--mu-minus", "stationary",
            "--out-dir", str(tmp_path), "--tol", "1e-14", "--max-iter", "1",
        ])
        assert code == EXIT_NO_CONVERGENCE

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_auto_beta_undefined_for_coincident_points(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("1,1\n1,1\n1,1\n")
        code = main(["dmap", "--input", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "beta" in capsys.readouterr().err


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
    "max-iter-0": (["--max-iter", "0"], "max_iter must be at least 1"),
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
        if takes_max_iter or solver_args[0] == "--tol"
    ])
    def test_solver_arguments_are_usage_errors(self, tmp_path, cloud_csv, capsys, argv,
                                               solver_args, message):
        cloud_path, _ = cloud_csv
        code = main([*argv, "--input", str(cloud_path), "--beta", "1", *solver_args,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err


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
        report = json.loads(outputs[0][report_name])
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

    @pytest.mark.parametrize("counted, argv", [
        ("generalized_gram", ["magnetic"]),
        ("rbf_kernel", ["bridge", "--kernel", "rbf", "--mu-plus", "stationary",
                        "--mu-minus", "stationary"]),
    ])
    def test_each_intermediate_is_built_once(self, tmp_path, monkeypatch, counted, argv):
        rng = np.random.default_rng(134)
        cloud_path, weights_path = tmp_path / "cloud.csv", tmp_path / "w.csv"
        write_matrix_csv(cloud_path, rng.standard_normal((6, 3)))
        write_matrix_csv(weights_path, rng.standard_normal((3, 3)))
        original, calls = getattr(markovgeom, counted), []

        def counting(*args, **kwargs):
            calls.append(counted)
            return original(*args, **kwargs)

        # patch the name wherever the package binds it, so calls from inside
        # the library (edge_phases, for one) are counted too
        for module in vars(markovgeom).values():
            if getattr(module, counted, None) is original:
                monkeypatch.setattr(module, counted, counting)
        code = main([*argv, "--input", str(cloud_path), "--weights", str(weights_path),
                     "--beta", "1", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert calls == [counted]


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        code = "import sys, markovgeom.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
