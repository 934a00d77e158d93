"""CSV ingest, emit, command dispatch, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovgeom
from markovgeom.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    load_cloud,
    load_marginal,
    load_matrix,
    main,
    write_matrix_csv,
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


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(markovgeom.__file__).parents[1]))
        code = "import sys, markovgeom.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
