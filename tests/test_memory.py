"""Peak memory of the n^2 constructors, in units of one n x n float64 matrix.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts its result and every n^2 temporary it makes.  Each bound is the peak
reached at N=300 plus a small margin; one more n^2 temporary on any of these
paths adds about one unit and fails its bound.  The stationary measure's two
certificates keep O(n) vectors and strips beside the operator; its LU rung
copies the operator into the bordered system and factorizes it once.  CSV
ingest holds neither the file (2.5 units of text) nor its cells as strings,
also when whitespace-only lines and a non-ASCII header surround the numbers.
A CLI command holds the geometry it loaded (the bidivergence and the squared
distances, two units) beside its own n^2 arrays, but not the Gram matrix;
``embed`` lets go of the diffusion operator before its eigendecomposition.
"""

import logging
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from markovgeom.bridges import classify_regime, solve_bridge, stationary_distribution
from markovgeom.cli import load_matrix, main, write_matrix_csv
from markovgeom.geometry import DataCloud, bidivergence, gram, squared_distance
from markovgeom.normalize import ConvergenceError, StochasticOperator, sinkhorn, softmax_rows
from markovgeom.operators import attention_forward, dmap, dmap_bistochastic, rbf_kernel

N = 300
_BIV = bidivergence(gram(DataCloud(np.random.default_rng(0).standard_normal((N, 3)))))
_D2 = squared_distance(_BIV)
_BETA = 1.0 / float(np.median(_D2[~np.eye(N, dtype=bool)]))
_Z = -_BETA * _BIV.fwd
_KERNEL = np.exp(-_BETA * _D2)
_MU_PLUS, _MU_MINUS = np.random.default_rng(1).dirichlet(np.full(N, 50.0), size=2)

# one chain per rung of stationary_distribution, with the word its debug record
# names: a well-mixed attention chain, a sharp diffusion operator (reversible),
# and a random chain whose two halves are weakly coupled (neither)
_BLOCKS = np.random.default_rng(2).uniform(0.5, 1.5, (N, N))
_BLOCKS[:N // 2, N // 2:] *= 1e-3
CHAINS = {
    "Doeblin": attention_forward(_BIV, 0.5 * _BETA),
    "reversibility": dmap(_D2, 8.0 * _BETA),
    "direct": StochasticOperator(_BLOCKS / _BLOCKS.sum(axis=1, keepdims=True), "row"),
}
_PI = stationary_distribution(CHAINS["Doeblin"])

# an N x N matrix as the CLI writes it
_CSV_DIR = tempfile.TemporaryDirectory()
_CSV = Path(_CSV_DIR.name) / "matrix.csv"
write_matrix_csv(_CSV, np.random.default_rng(3).standard_normal((N, N)))
# the same rows under a non-ASCII header, with a line of spaces after each
_PADDED_CSV = Path(_CSV_DIR.name) / "padded.csv"
_PADDED_CSV.write_text("größe,wert\n" + _CSV.read_text().replace("\n", "\n  \n"), encoding="utf-8")
# an N x 3 cloud and 3 x 3 weights for the CLI commands
_CLOUD, _WEIGHTS = Path(_CSV_DIR.name) / "cloud.csv", Path(_CSV_DIR.name) / "weights.csv"
write_matrix_csv(_CLOUD, np.random.default_rng(4).standard_normal((N, 3)))
write_matrix_csv(_WEIGHTS, np.random.default_rng(5).standard_normal((3, 3)))


def _cli(*argv):
    return lambda: main([*argv, "--input", str(_CLOUD), "--out-dir", _CSV_DIR.name])


def teardown_module():
    _CSV_DIR.cleanup()

# (call, bound in units of N^2 doubles); the peak each reached: 1.09, 1.11,
# 2.10, 1.10, 1.10, 1.04, 1.30, 0.03, 0.11, 1.12, 2.09 (classify_regime
# holds two n^2 arrays at a time: the flux and the currents, then the currents
# and |J|), 1.16 and 1.14 (load_matrix, plain and padded: the matrix as
# numpy's reader grows it), 5.22 (embed; 7.21 while the command held the Gram
# matrix and the diffusion operator through the eigendecomposition) and 12.72
# (magnetic, whose complex operators take two units each; 13.72 with the Gram
# matrix held)
PEAKS = {
    "squared_distance": (lambda: squared_distance(_BIV), 1.2),
    "sinkhorn": (lambda: sinkhorn(_Z), 1.2),
    "solve_bridge": (lambda: solve_bridge(_KERNEL, _MU_PLUS, _MU_MINUS), 2.2),
    "softmax_rows": (lambda: softmax_rows(_Z), 1.2),
    "dmap": (lambda: dmap(_D2, _BETA), 1.2),
    "rbf_kernel": (lambda: rbf_kernel(_D2, _BETA), 1.1),
    "dmap_bistochastic": (lambda: dmap_bistochastic(_D2, _BETA), 1.4),
    "stationary_doeblin": (lambda: stationary_distribution(CHAINS["Doeblin"]), 0.1),
    "stationary_reversible": (lambda: stationary_distribution(CHAINS["reversibility"]), 0.2),
    "stationary_lu": (lambda: stationary_distribution(CHAINS["direct"]), 1.2),
    "classify_regime": (lambda: classify_regime(CHAINS["Doeblin"], _PI, _PI), 2.2),
    "load_matrix": (lambda: load_matrix(_CSV), 1.3),
    "load_matrix_padded": (lambda: load_matrix(_PADDED_CSV, skip_header=True), 1.3),
    "cli_embed": (_cli("embed"), 5.4),
    "cli_magnetic": (_cli("magnetic", "--weights", str(_WEIGHTS)), 12.9),
}


def peak_units(call) -> float:
    call()  # first-call setup stays out of the measurement
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak / (8.0 * N * N)


@pytest.mark.parametrize("name", list(PEAKS))
def test_peak_traced_memory(name):
    call, bound = PEAKS[name]
    assert peak_units(call) <= bound


def test_each_stationary_chain_takes_its_rung(caplog):
    with caplog.at_level(logging.DEBUG, logger="markovgeom.bridges"):
        for chain in CHAINS.values():
            stationary_distribution(chain)
    assert [r.getMessage().split()[2] for r in caplog.records] == list(CHAINS)


def test_lu_rung_factorizes_once(monkeypatch, caplog):
    # one O(n^3) solve per call, whether the LU answers (the weakly coupled
    # chain) or misses (two states at a tol below rounding); a miss raises at
    # the bound of that one solve
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    two_state = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
    with caplog.at_level(logging.DEBUG, logger="markovgeom.bridges"):
        stationary_distribution(CHAINS["direct"])
        assert len(solves) == 1
        with pytest.raises(ConvergenceError) as excinfo:
            stationary_distribution(two_state, tol=1e-30)
    assert len(solves) == 2
    answered, missed = (r.getMessage() for r in caplog.records)
    assert re.fullmatch(r"stationary measure: direct solve \(inverse norm \d\.\de[+-]\d\d\), "
                        r"error bound \S+", answered)
    norm = re.search(r"\(inverse norm (\S+)\)", str(excinfo.value))[1]
    assert missed == (f"stationary measure: direct solve (inverse norm {norm}), "
                      f"error bound {excinfo.value.residual:.3e}")
