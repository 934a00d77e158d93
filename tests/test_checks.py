"""Construction checks that read finiteness and sign off a few reductions.

The constructors no longer scan every entry with ``isfinite``: a minimum and
a maximum (which a NaN reaches), or the sums an operator is tagged with, tell
them whether anything is wrong, and a full scan runs only to pick the message.
Each planted bad cell must still raise the message of an entrywise scan, and
an input with several faults must still report the one checked first.
"""

import numpy as np
import pytest

from markovgeom import cli
from markovgeom.bridges import (
    attention_gauge,
    classify_regime,
    currents,
    doob_transform,
    magnetic_flux,
    solve_bridge,
    stationary_distribution,
)
from markovgeom.geometry import (
    Bidivergence,
    DataCloud,
    GramMatrix,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import (
    ScalingPotentials,
    StochasticOperator,
    poe_combine,
    schrodinger_solve,
    sinkhorn,
    softmax_cols,
    softmax_rows,
)
from markovgeom.operators import (
    ComplexOperator,
    KernelMatrix,
    attention_forward,
    dmap,
    dmap_bistochastic,
    rbf_kernel,
)
from markovgeom.spectral import conjugate_symmetrize, decompose

N = 5
_POINTS = np.random.default_rng(150).standard_normal((N, 3))
_GRAM = gram(DataCloud(_POINTS)).values
_FWD = bidivergence(GramMatrix(_GRAM)).fwd
_D2 = squared_distance(Bidivergence(_FWD))
_KERNEL = np.exp(-0.25 * _D2)  # well inside what the scalers converge on
_LOGITS = np.random.default_rng(151).standard_normal((N, N))
_UNIFORM = np.full((N, N), 1.0 / N)
_MU = np.full(N, 1.0 / N)

NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


def _cells(shape):
    rows, cols = shape
    return {"first": (0, 0), "middle": (rows // 2, cols // 2), "last": (rows - 1, cols - 1)}


def planted(matrix, cell, value):
    out = np.array(matrix, dtype=float)
    out[cell] = value
    return out


# each input a folded check validates: (clean matrix, constructor, message
# of a non-finite entry)
FINITE_CHECKS = {
    **{f"operator-{kind}": (_UNIFORM, lambda m, kind=kind: StochasticOperator(m, kind),
                            "operator contains non-finite entries")
       for kind in ("row", "column", "bi")},
    "KernelMatrix": (_KERNEL, KernelMatrix,
                     "kernel must be strictly positive and finite"),
    "schrodinger_solve": (_KERNEL, lambda m: schrodinger_solve(m, _MU, _MU),
                          "kernel must be strictly positive and finite"),
    "solve_bridge": (_KERNEL, lambda m: solve_bridge(m, _MU, _MU),
                     "kernel must be strictly positive and finite"),
    "softmax_rows": (_LOGITS, softmax_rows,
                     "logits must be finite (masking with -inf is unsupported)"),
    "softmax_cols": (_LOGITS, softmax_cols,
                     "logits must be finite (masking with -inf is unsupported)"),
    "sinkhorn": (_LOGITS, sinkhorn, "logits must be finite (masking with -inf is unsupported)"),
    "rbf_kernel": (_D2, lambda m: rbf_kernel(m, 1.0),
                   "squared-distance matrix contains non-finite entries"),
    "dmap": (_D2, lambda m: dmap(m, 1.0), "squared-distance matrix contains non-finite entries"),
    "dmap_bistochastic": (_D2, lambda m: dmap_bistochastic(m, 1.0),
                          "squared-distance matrix contains non-finite entries"),
    "GramMatrix": (_GRAM, GramMatrix, "gram values contains non-finite entries"),
    "Bidivergence": (_FWD, Bidivergence, "forward divergence contains non-finite entries"),
    "DataCloud": (_POINTS, DataCloud, "points contains non-finite entries"),
    "InteractionWeights": (np.eye(3), InteractionWeights,
                           "weight matrix contains non-finite entries"),
    "from_factors query": (np.eye(3), lambda m: InteractionWeights.from_factors(m, np.eye(3)),
                           "query factor contains non-finite entries"),
    "from_factors key": (np.eye(3), lambda m: InteractionWeights.from_factors(np.eye(3), m),
                         "key factor contains non-finite entries"),
    "ComplexOperator phases": (np.zeros((N, N)), lambda m: ComplexOperator(
        StochasticOperator(_UNIFORM, "row"), m), "phase field contains non-finite entries"),
    # the planted cells lie on the diagonal, where a NaN or inf leaves the
    # Hermiticity gap NaN rather than large
    "decompose": (_KERNEL, lambda m: decompose(m, _MU),
                  "conjugated matrix contains non-finite entries"),
}


@pytest.mark.parametrize("value", list(NON_FINITE))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("check", list(FINITE_CHECKS))
def test_non_finite_cell_is_rejected(check, where, value):
    clean, build, message = FINITE_CHECKS[check]
    build(clean)  # the clean input passes
    bad = planted(clean, _cells(clean.shape)[where], NON_FINITE[value])
    with pytest.raises(ValueError) as excinfo:
        build(bad)
    assert str(excinfo.value) == message


# each matrix input the shape gate serves: (clean matrix, constructor, the
# name its messages use, whether it must be square)
SHAPE_CHECKS = {
    "DataCloud": (_POINTS, DataCloud, "points", False),
    "InteractionWeights": (np.eye(3), InteractionWeights, "weight matrix", True),
    "from_factors query": (np.eye(3), lambda m: InteractionWeights.from_factors(m, np.eye(3)),
                           "query factor", False),
    "from_factors key": (np.eye(3), lambda m: InteractionWeights.from_factors(np.eye(3), m),
                         "key factor", False),
    "GramMatrix": (_GRAM, GramMatrix, "gram values", True),
    "Bidivergence": (_FWD, Bidivergence, "forward divergence", True),
    "KernelMatrix": (_KERNEL, KernelMatrix, "kernel", True),
    "schrodinger_solve": (_KERNEL, lambda m: schrodinger_solve(m, _MU, _MU), "kernel", True),
    "solve_bridge": (_KERNEL, lambda m: solve_bridge(m, _MU, _MU), "kernel", True),
    "rbf_kernel": (_D2, lambda m: rbf_kernel(m, 1.0), "squared-distance matrix", True),
    "dmap": (_D2, lambda m: dmap(m, 1.0), "squared-distance matrix", True),
    "dmap_bistochastic": (_D2, lambda m: dmap_bistochastic(m, 1.0),
                          "squared-distance matrix", True),
    "ComplexOperator phases": (np.zeros((N, N)), lambda m: ComplexOperator(
        StochasticOperator(_UNIFORM, "row"), m), "phase field", False),
}

# positive entries, so that only the shape is wrong
BAD_SHAPES = {"1-D": np.ones(3), "3-D": np.ones((2, 2, 2)), "2x3": np.ones((2, 3))}


@pytest.mark.parametrize("check, case", [
    (check, case) for check, (*_, square) in SHAPE_CHECKS.items()
    for case in BAD_SHAPES if square or case != "2x3"])
def test_bad_matrix_shape_is_rejected(check, case):
    clean, build, name, square = SHAPE_CHECKS[check]
    build(clean)  # the clean input passes
    bad = BAD_SHAPES[case]
    with pytest.raises(ValueError) as excinfo:
        build(bad)
    shape = "square" if square else "2-D"
    assert str(excinfo.value) == f"{name} must be a {shape} matrix, got shape {bad.shape}"


def _row_operator(m):
    return StochasticOperator(m / m.sum(axis=1, keepdims=True), "row")


# inputs that must also be positive or nonnegative: (clean matrix,
# constructor, message of a bad sign, the bad values; a negative entry of an
# operator is already refused by StochasticOperator, so the strictly positive
# checks on operators see zeros)
SIGN_CHECKS = {
    **{f"operator-{kind}": (_UNIFORM, lambda m, kind=kind: StochasticOperator(m, kind),
                            "operator entries must be nonnegative", (-0.1,))
       for kind in ("row", "column", "bi")},
    "KernelMatrix": (_KERNEL, KernelMatrix,
                     "kernel must be strictly positive and finite", (-0.1, 0.0)),
    "schrodinger_solve": (_KERNEL, lambda m: schrodinger_solve(m, _MU, _MU),
                          "kernel must be strictly positive and finite", (-0.1, 0.0)),
    "stationary_distribution": (_UNIFORM, lambda m: stationary_distribution(_row_operator(m)),
                                "operator must be strictly positive for a unique fixed point",
                                (0.0,)),
    "attention_gauge": (_UNIFORM, lambda m: attention_gauge(_MU, _row_operator(m)),
                        "operator and stationary vector must be strictly positive", (0.0,)),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("check", list(SIGN_CHECKS))
def test_bad_sign_cell_is_rejected(check, where):
    clean, build, message, bad_values = SIGN_CHECKS[check]
    build(clean)  # the clean input passes
    cell = _cells(clean.shape)[where]
    for value in bad_values:
        with pytest.raises(ValueError) as excinfo:
            build(planted(clean, cell, value))
        assert str(excinfo.value) == message


_WIDE = StochasticOperator(np.full((2, 3), 1.0 / 3.0), "row")
_HALF = np.full(2, 0.5)

# the functions that read an operator as a chain on its states, each on the
# 2 x 3 row operator
SQUARE_CHECKS = {
    "stationary_distribution": lambda: stationary_distribution(_WIDE),
    "classify_regime": lambda: classify_regime(_WIDE, _HALF, _HALF),
    "currents": lambda: currents(_WIDE, _HALF),
    "attention_gauge": lambda: attention_gauge(_HALF, _WIDE),
    "conjugate_symmetrize": lambda: conjugate_symmetrize(_WIDE, _HALF),
    "ComplexOperator": lambda: ComplexOperator(_WIDE, np.zeros((2, 3))),
}


@pytest.mark.parametrize("check", list(SQUARE_CHECKS))
def test_non_square_operator_is_rejected(check):
    with pytest.raises(ValueError) as excinfo:
        SQUARE_CHECKS[check]()
    assert str(excinfo.value) == f"{check} expects a square operator, got shape (2, 3)"


# column attention on a 6-point weighted cloud: a square operator whose rows
# do not sum to 1, which classify_regime once read as a NESS chain
_WEIGHTED_BIV = bidivergence(generalized_gram(
    DataCloud(np.random.default_rng(160).standard_normal((6, 3))),
    InteractionWeights(np.random.default_rng(161).standard_normal((3, 3)))))
_COLUMN = softmax_cols(-1.0 * _WEIGHTED_BIV.bwd)
_UNIFORM6 = np.full(6, 1.0 / 6.0)

CHAIN_CHECKS = {
    "stationary_distribution": lambda: stationary_distribution(_COLUMN),
    "classify_regime": lambda: classify_regime(_COLUMN, _UNIFORM6, _UNIFORM6),
    "currents": lambda: currents(_COLUMN, _UNIFORM6),
    "attention_gauge": lambda: attention_gauge(_UNIFORM6, _COLUMN),
    "conjugate_symmetrize": lambda: conjugate_symmetrize(_COLUMN, _UNIFORM6),
    "ComplexOperator": lambda: ComplexOperator(_COLUMN, np.zeros((6, 6))),
    "doob_transform": lambda: doob_transform(_COLUMN, _UNIFORM6),
}


@pytest.mark.parametrize("check", list(CHAIN_CHECKS))
def test_column_operator_is_rejected(check):
    assert _COLUMN.kind == "column"
    assert float(np.abs(_COLUMN.values.sum(axis=1) - 1.0).max()) > 0.1
    with pytest.raises(ValueError) as excinfo:
        CHAIN_CHECKS[check]()
    assert str(excinfo.value) == f"{check} expects a row-stochastic operator"


def test_doob_transform_accepts_a_rectangular_operator():
    transformed = doob_transform(_WIDE, np.array([1.0, 2.0, 1.0]))
    np.testing.assert_allclose(transformed.values, np.tile([0.25, 0.5, 0.25], (2, 1)))


_CHAIN = StochasticOperator(_UNIFORM, "row")
_PHASED = ComplexOperator(_CHAIN, np.zeros((N, N)))

# each argument that is a vector over the N states: (call with that vector in
# place of the clean _MU, the name its messages use, whether it must be
# strictly positive rather than nonnegative)
VECTOR_CHECKS = {
    "schrodinger_solve mu_plus": (lambda v: schrodinger_solve(_KERNEL, v, _MU), "mu_plus", True),
    "schrodinger_solve mu_minus": (lambda v: schrodinger_solve(_KERNEL, _MU, v), "mu_minus", True),
    "solve_bridge mu_plus": (lambda v: solve_bridge(_KERNEL, v, _MU), "mu_plus", True),
    "solve_bridge mu_minus": (lambda v: solve_bridge(_KERNEL, _MU, v), "mu_minus", True),
    "ScalingPotentials u": (lambda v: ScalingPotentials(v, _MU, 0, 0.0), "potential u", True),
    "ScalingPotentials v": (lambda v: ScalingPotentials(_MU, v, 0, 0.0), "potential v", True),
    "currents": (lambda v: currents(_CHAIN, v), "rho", False),
    "classify_regime mu_plus": (lambda v: classify_regime(_CHAIN, v, _MU), "mu_plus", False),
    "classify_regime mu_minus": (lambda v: classify_regime(_CHAIN, _MU, v), "mu_minus", False),
    "magnetic_flux": (lambda v: magnetic_flux(v, _PHASED), "pi", False),
    "attention_gauge": (lambda v: attention_gauge(v, _CHAIN), "pi_plus", False),
    "doob_transform": (lambda v: doob_transform(_CHAIN, v), "h", True),
    "conjugate_symmetrize": (lambda v: conjugate_symmetrize(_CHAIN, v), "pi", True),
    "decompose": (lambda v: decompose(_KERNEL, v), "pi", True),
}

# a potential has no state count to meet, so any length passes
_OWN_LENGTH = {"ScalingPotentials u", "ScalingPotentials v"}

# attention_gauge takes a nonnegative vector but refuses a zero flux
_ZERO_REFUSED = {"attention_gauge": "operator and stationary vector must be strictly positive"}

BAD_VECTORS = {
    "wrong length": np.full(N + 1, 1.0 / (N + 1)),
    "2-D": _MU[:, None],
    **{value: planted(_MU, 2, NON_FINITE[value]) for value in NON_FINITE},
    "negative": planted(_MU, 2, -0.1),
    "zero": planted(_MU, 2, 0.0),
}


def _vector_message(check, case):
    """The message the bad vector of ``case`` must raise, or None if accepted."""
    _, name, positive = VECTOR_CHECKS[check]
    if case == "wrong length" and check in _OWN_LENGTH:
        return None
    if case in ("wrong length", "2-D"):
        return f"{name} must be a length-{N} vector, got shape {BAD_VECTORS[case].shape}"
    if case == "zero" and not positive:
        return _ZERO_REFUSED.get(check)
    return f"{name} must be {'strictly positive' if positive else 'nonnegative'} and finite"


@pytest.mark.parametrize("case", list(BAD_VECTORS))
@pytest.mark.parametrize("check", list(VECTOR_CHECKS))
def test_bad_state_vector_is_rejected(check, case):
    build = VECTOR_CHECKS[check][0]
    build(_MU)  # the clean input passes
    message = _vector_message(check, case)
    if message is None:
        build(BAD_VECTORS[case])
        return
    with pytest.raises(ValueError) as excinfo:
        build(BAD_VECTORS[case])
    assert str(excinfo.value) == message


def test_empty_state_vectors_keep_their_decisions():
    empty = np.empty(0)
    potentials = ScalingPotentials(empty, empty, 0, 0.0)
    assert potentials.u.shape == potentials.v.shape == (0,)
    # an empty marginal passes the vector gate and fails only its sum
    with pytest.raises(ValueError) as excinfo:
        schrodinger_solve(np.empty((0, 0)), empty, empty)
    assert str(excinfo.value) == "mu_plus must sum to 1 (got 0.0)"


_SQUARE_D2 = "squared-distance matrix must be a square matrix, got shape {}"
_LOGITS_EMPTY = "logits must be non-empty"
_OPERATOR_EMPTY = "operator must be non-empty"

# each constructor that refuses an empty matrix: (call, its message for a
# 0x0 matrix, its message for a 0x3 or 3x0 one, where {} is the shape)
EMPTY_CHECKS = {
    "rbf_kernel": (lambda m: rbf_kernel(m, 1.0),
                   "squared-distance matrix must be non-empty", _SQUARE_D2),
    "dmap": (lambda m: dmap(m, 1.0), "squared-distance matrix must be non-empty", _SQUARE_D2),
    "dmap_bistochastic": (lambda m: dmap_bistochastic(m, 1.0),
                          "squared-distance matrix must be non-empty", _SQUARE_D2),
    # a bidivergence may be empty; its row softmax may not
    "attention_forward": (lambda m: attention_forward(Bidivergence(m), 1.0), _LOGITS_EMPTY,
                          "forward divergence must be a square matrix, got shape {}"),
    "softmax_rows": (softmax_rows, _LOGITS_EMPTY, _LOGITS_EMPTY),
    "softmax_cols": (softmax_cols, _LOGITS_EMPTY, _LOGITS_EMPTY),
    "sinkhorn": (sinkhorn, _LOGITS_EMPTY, _LOGITS_EMPTY),
    **{f"operator-{kind}": (lambda m, kind=kind: StochasticOperator(m, kind),
                            _OPERATOR_EMPTY, _OPERATOR_EMPTY)
       for kind in ("row", "column", "bi")},
}


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
@pytest.mark.parametrize("check", list(EMPTY_CHECKS))
def test_empty_matrix_is_rejected(check, shape):
    build, square, non_square = EMPTY_CHECKS[check]
    with pytest.raises(ValueError) as excinfo:
        build(np.empty(shape))
    assert str(excinfo.value) == (square if shape == (0, 0) else non_square.format(shape))


def _load_marginal_text(directory, text, n):
    path = directory / "marginal.csv"
    path.write_text(text)
    return cli.load_marginal(path, n)


_BI = StochasticOperator(_UNIFORM, "bi")

# every other input gate, each with its one message: (call given a scratch
# directory, the exact message, where {path} is the file the call wrote)
MESSAGE_CHECKS = {
    "DataCloud without features": (lambda tmp: DataCloud(np.empty((3, 0))),
                                   "a data cloud needs at least 1 feature"),
    "softmax_rows 1-D logits": (lambda tmp: softmax_rows(np.ones(3)),
                                "logits must be 2-D, got shape (3,)"),
    "sinkhorn 3-D logits": (lambda tmp: sinkhorn(np.ones((2, 2, 2))),
                            "logits must be 2-D, got shape (2, 2, 2)"),
    "StochasticOperator 1-D": (lambda tmp: StochasticOperator(np.ones(3), "row"),
                               "operator must be 2-D, got shape (3,)"),
    "StochasticOperator 3-D": (lambda tmp: StochasticOperator(np.ones((2, 2, 2)), "bi"),
                               "operator must be 2-D, got shape (2, 2, 2)"),
    "ScalingPotentials negative iterations": (
        lambda tmp: ScalingPotentials(_MU, _MU, -1, 0.0),
        "iterations and residual must be nonnegative"),
    "ScalingPotentials negative residual": (
        lambda tmp: ScalingPotentials(_MU, _MU, 0, -1e-3),
        "iterations and residual must be nonnegative"),
    "poe_combine of bi operators": (lambda tmp: poe_combine(_BI, _BI),
                                    "product of experts is defined for row or column operators"),
    "ComplexOperator phase shape": (
        lambda tmp: ComplexOperator(StochasticOperator(_UNIFORM, "row"), np.zeros((3, 3))),
        f"phase shape (3, 3) does not match operator shape ({N}, {N})"),
    "decompose non-square": (lambda tmp: decompose(np.ones((2, 3)), np.full(2, 0.5)),
                             "expected a square matrix, got shape (2, 3)"),
    "write_matrix_csv 3-D": (lambda tmp: cli.write_matrix_csv(tmp / "m.csv", np.ones((2, 2, 2))),
                             "expected a 1-D or 2-D matrix, got shape (2, 2, 2)"),
    "load_marginal 2x2": (lambda tmp: _load_marginal_text(tmp, "0.5,0.5\n0.5,0.5\n", 4),
                          "{path}: expected a single row or column vector"),
    "load_marginal zero entry": (lambda tmp: _load_marginal_text(tmp, "0.5,0.5,0\n", 3),
                                 "{path}: marginal entries must be strictly positive"),
    "--beta abc": (lambda tmp: cli._resolve_beta("abc", _D2),
                   "beta must be a positive number or 'auto', got 'abc'"),
}


@pytest.mark.parametrize("check", list(MESSAGE_CHECKS))
def test_gate_raises_its_message(check, tmp_path):
    build, message = MESSAGE_CHECKS[check]
    with pytest.raises(ValueError) as excinfo:
        build(tmp_path)
    assert str(excinfo.value) == message.format(path=tmp_path / "marginal.csv")


class TestOrderOfChecks:
    """With several faults, the message is that of the check run first."""

    @pytest.mark.parametrize("kind", ["row", "column", "bi"])
    def test_non_finite_before_negative(self, kind):
        # the +inf is seen only through a sum: the minimum is the finite -0.1
        bad = planted(planted(_UNIFORM, (0, 0), -0.1), (N - 1, N - 1), np.inf)
        with pytest.raises(ValueError, match="operator contains non-finite entries"):
            StochasticOperator(bad, kind)

    @pytest.mark.parametrize("kind", ["row", "column", "bi"])
    def test_negative_before_sums(self, kind):
        with pytest.raises(ValueError, match="operator entries must be nonnegative"):
            StochasticOperator(planted(_UNIFORM, (1, 1), -0.1), kind)

    def test_rows_before_columns(self):
        with pytest.raises(ValueError, match="^row sums deviate"):
            StochasticOperator(2.0 * _UNIFORM, "bi")

    @pytest.mark.parametrize("kind, axis", [("row", "row"), ("column", "column"), ("bi", "row")])
    def test_overflowing_sums_of_finite_entries(self, kind, axis):
        # every entry is finite, so the scan clears them and the sum check speaks
        with pytest.raises(ValueError, match=f"^{axis} sums deviate from 1 by inf"):
            StochasticOperator(np.full((2, 2), 1e308), kind)

    def test_logits_finite_before_square(self):
        with pytest.raises(ValueError, match="logits must be finite"):
            sinkhorn(planted(np.zeros((2, 3)), (1, 2), np.nan))

    def test_squared_distances_finite_before_symmetry(self):
        bad = planted(planted(_D2, (0, 1), 7.0), (3, 2), -np.inf)
        with pytest.raises(ValueError,
                           match="squared-distance matrix contains non-finite entries"):
            rbf_kernel(bad, 1.0)

    def test_schrodinger_square_before_kernel_before_marginals(self):
        with pytest.raises(ValueError, match="kernel must be a square matrix"):
            schrodinger_solve(np.full((2, 3), np.nan), _MU, _MU)
        with pytest.raises(ValueError, match="kernel must be strictly positive and finite"):
            schrodinger_solve(planted(_KERNEL, (2, 2), np.nan), np.zeros(N), _MU)

    def test_cloud_finite_before_size(self):
        with pytest.raises(ValueError, match="points contains non-finite entries"):
            DataCloud(np.array([[np.nan, 1.0]]))

    def test_bidivergence_finite_before_diagonal(self):
        with pytest.raises(ValueError, match="forward divergence contains non-finite entries"):
            Bidivergence(planted(_FWD, (2, 2), np.nan))
