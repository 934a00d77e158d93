"""Softmax, product of experts, and the stabilized matrix scalers."""

import logging

import numpy as np
import pytest
import scipy.special

from markovgeom.bridges import attention_bridge, solve_bridge, stationary_distribution
from markovgeom.geometry import DataCloud, bidivergence, gram, squared_distance
from markovgeom.normalize import (
    ConvergenceError,
    ScalingPotentials,
    StochasticOperator,
    poe_combine,
    schrodinger_solve,
    sinkhorn,
    softmax_cols,
    softmax_rows,
)
from markovgeom.operators import attention_bistochastic, dmap_bistochastic


def sinkhorn_oracle(kernel, iterations=50_000):
    """Plain-domain alternating normalization, run to numerical fixed point."""
    z = kernel.copy()
    for _ in range(iterations):
        z = z / z.sum(axis=0, keepdims=True)
        z = z / z.sum(axis=1, keepdims=True)
        if max(np.abs(z.sum(0) - 1).max(), np.abs(z.sum(1) - 1).max()) < 1e-14:
            break
    return z


def schrodinger_oracle(kernel, mu_plus, mu_minus, iterations=50_000):
    """Plain-domain fixed-point updates for the marginal-scaling potentials."""
    u = np.ones(kernel.shape[0])
    v = np.ones(kernel.shape[0])
    for _ in range(iterations):
        u = mu_plus / (kernel @ v)
        v = mu_minus / (kernel.T @ u)
    return u[:, None] * kernel * v[None, :]


def marginal_violation(matrix, rows, cols):
    """Sup-norm violation of prescribed row and column sums, from the matrix."""
    return max(float(np.abs(matrix.sum(axis=1) - rows).max()),
               float(np.abs(matrix.sum(axis=0) - cols).max()))


def cloud_geometry(n, d, seed, offset=0.0):
    """Gaussian cloud; ``offset`` moves its second half along axis 0 into a
    separate cluster, which makes the scaling sweeps contract slowly."""
    points = np.random.default_rng(seed).standard_normal((n, d))
    points[n // 2:, 0] += offset
    biv = bidivergence(gram(DataCloud(points)))
    return biv, squared_distance(biv)


# sweeps of plain alternating scaling on the 120-point two-cluster cloud
# (seed 0, offset 3) at beta 0.5, 1 and 1.5: sinkhorn, then schrodinger_solve
# between _TWO_CLUSTER_MARGINALS
_PLAIN_SWEEPS = {0.5: (53, 71), 1.0: (114, 160), 1.5: (187, 256)}
_TWO_CLUSTER_MARGINALS = np.random.default_rng(1).dirichlet(np.full(120, 50.0), size=2)


def two_cluster_scalings(beta):
    biv, d2 = cloud_geometry(120, 3, 0, offset=3.0)
    operator, potentials = sinkhorn(-beta * biv.fwd)
    kernel = np.exp(-beta * d2)
    bridge = schrodinger_solve(kernel, *_TWO_CLUSTER_MARGINALS)
    coupling = bridge.u[:, None] * kernel * bridge.v[None, :]
    return operator, potentials, coupling, bridge


_Z = np.random.default_rng(43).standard_normal((6, 6))
_MU_PLUS, _MU_MINUS = np.random.default_rng(47).dirichlet(np.ones(6), size=2)
_D2 = cloud_geometry(6, 3, 48)[1]


def _bridge_coupling(**kw):
    kernel = np.exp(_Z)
    potentials = schrodinger_solve(kernel, _MU_PLUS, _MU_MINUS, **kw)
    return potentials.u[:, None] * kernel * potentials.v[None, :], _MU_PLUS, _MU_MINUS


# each scaler on a fixed input, returning (matrix, row sums, column sums) as
# the caller sees them
SCALERS = {
    "sinkhorn": lambda **kw: (sinkhorn(_Z, **kw)[0].values, 1.0, 1.0),
    "schrodinger_solve": _bridge_coupling,
    "dmap_bistochastic": lambda **kw: (dmap_bistochastic(_D2, 1.0, **kw).values, 1.0, 1.0),
}


class TestStochasticOperator:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StochasticOperator(np.array([[1.5, -0.5], [0.5, 0.5]]), "row")

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="row sums"):
            StochasticOperator(np.full((2, 2), 0.4), "row")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            StochasticOperator(np.full((2, 2), 0.5), "diagonal")

    def test_bi_checks_both_axes(self):
        StochasticOperator(np.full((3, 3), 1.0 / 3.0), "bi")
        with pytest.raises(ValueError):
            StochasticOperator(np.array([[1.0, 0.0], [1.0, 0.0]]), "bi")


class TestSoftmaxRows:
    def test_uniform_logits(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.values, [[0.5, 0.5]])
        assert out.kind == "row"

    def test_analytic_exponentials(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.values, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((6, 5))
        shift = rng.standard_normal(6)
        np.testing.assert_allclose(
            softmax_rows(z + shift[:, None]).values,
            softmax_rows(z).values,
            rtol=0,
            atol=1e-15,
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(32)
        out = softmax_rows(rng.standard_normal((7, 7)))
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(33)
        z = rng.standard_normal((5, 8))
        np.testing.assert_allclose(
            softmax_rows(z).values, scipy.special.softmax(z, axis=1), atol=1e-15
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            softmax_rows(np.array([[0.0, -np.inf]]))


class TestSoftmaxCols:
    def test_uniform(self):
        out = softmax_cols(np.zeros((2, 2)))
        np.testing.assert_array_equal(out.values, np.full((2, 2), 0.5))
        assert out.kind == "column"

    def test_transpose_duality(self):
        rng = np.random.default_rng(34)
        z = rng.standard_normal((6, 6))
        np.testing.assert_allclose(
            softmax_cols(z).values, softmax_rows(z.T).values.T, rtol=0, atol=1e-15
        )

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(35)
        z = rng.standard_normal((4, 5))
        shift = rng.standard_normal(5)
        np.testing.assert_allclose(
            softmax_cols(z + shift[None, :]).values,
            softmax_cols(z).values,
            rtol=0,
            atol=1e-15,
        )


class TestPoeCombine:
    def test_uniform_expert_is_neutral(self):
        rng = np.random.default_rng(36)
        a = softmax_rows(rng.standard_normal((4, 4)))
        uniform = StochasticOperator(np.full((4, 4), 0.25), "row")
        np.testing.assert_allclose(poe_combine(a, uniform).values, a.values, atol=1e-15)

    def test_idempotent_on_uniform(self):
        u = StochasticOperator(np.array([[0.5, 0.5]]), "row")
        np.testing.assert_array_equal(poe_combine(u, u).values, [[0.5, 0.5]])

    def test_equals_softmax_of_summed_logits(self):
        rng = np.random.default_rng(37)
        z = rng.standard_normal((3, 3))
        s = rng.standard_normal((3, 3))
        combined = poe_combine(softmax_rows(z), softmax_rows(s))
        np.testing.assert_allclose(
            combined.values, softmax_rows(z + s).values, rtol=0, atol=1e-12
        )
        col_combined = poe_combine(softmax_cols(z), softmax_cols(s))
        np.testing.assert_allclose(
            col_combined.values, softmax_cols(z + s).values, rtol=0, atol=1e-12
        )

    def test_kind_mismatch_rejected(self):
        a = softmax_rows(np.zeros((2, 2)))
        b = softmax_cols(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="kind"):
            poe_combine(a, b)

    def test_shape_mismatch_rejected(self):
        a = softmax_rows(np.zeros((2, 2)))
        b = softmax_rows(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            poe_combine(a, b)


class TestSinkhorn:
    def test_flat_kernel_scales_to_uniform(self):
        operator, potentials = sinkhorn(np.zeros((2, 2)))
        np.testing.assert_allclose(operator.values, np.full((2, 2), 0.5), atol=1e-12)
        assert operator.kind == "bi"
        assert potentials.residual <= 1e-10

    def test_analytic_two_by_two(self):
        kernel = np.array([[2.0, 1.0], [1.0, 2.0]])
        operator, _ = sinkhorn(np.log(kernel), tol=1e-13)
        np.testing.assert_allclose(operator.values, kernel / 3.0, atol=1e-10)

    def test_matches_plain_domain_oracle(self):
        rng = np.random.default_rng(38)
        z = rng.standard_normal((6, 6))
        operator, _ = sinkhorn(z, tol=1e-13)
        np.testing.assert_allclose(operator.values, sinkhorn_oracle(np.exp(z)), atol=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(39)
        z = rng.standard_normal((5, 5))
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        plain, _ = sinkhorn(z, tol=1e-12)
        gauged, _ = sinkhorn(z + u[:, None] + v[None, :], tol=1e-12)
        np.testing.assert_allclose(plain.values, gauged.values, rtol=0, atol=1e-10)

    def test_closure_under_multiplication(self):
        rng = np.random.default_rng(40)
        a, _ = sinkhorn(rng.standard_normal((6, 6)), tol=1e-13)
        b, _ = sinkhorn(rng.standard_normal((6, 6)), tol=1e-13)
        product = a.values @ b.values
        np.testing.assert_allclose(product.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(product.sum(axis=1), 1.0, atol=1e-12)

    def test_potentials_reconstruct_matrix(self):
        rng = np.random.default_rng(41)
        z = rng.standard_normal((5, 5))
        operator, potentials = sinkhorn(z, tol=1e-12)
        rebuilt = potentials.u[:, None] * np.exp(z) * potentials.v[None, :]
        np.testing.assert_allclose(rebuilt, operator.values, rtol=0, atol=1e-10)

    def test_row_potential_has_unit_geometric_mean(self):
        rng = np.random.default_rng(42)
        _, potentials = sinkhorn(rng.standard_normal((6, 6)), tol=1e-12)
        assert abs(np.log(potentials.u).mean()) < 1e-12

    @pytest.mark.parametrize("scaler", list(SCALERS))
    def test_nonconvergence_raises_with_residual(self, scaler):
        solve = SCALERS[scaler]
        with pytest.raises(ConvergenceError) as excinfo:
            solve(tol=1e-30, max_iter=16)
        err = excinfo.value
        assert err.iterations == 16
        assert err.residual > 0.0
        assert f"residual {err.residual:.3e} > tol 1.000e-30" in str(err)
        # the residual is on the caller's scale: the same sweeps under a tol
        # just above it return an object whose own marginal violation it is
        matrix, rows, cols = solve(tol=err.residual * (1.0 + 1e-3), max_iter=16)
        assert marginal_violation(matrix, rows, cols) == pytest.approx(err.residual, rel=1e-3)

    def test_rejects_rectangular_input(self):
        with pytest.raises(ValueError, match="square"):
            sinkhorn(np.zeros((2, 3)))


# the bistochastic scalers at a tol far above the default construction bound
# of StochasticOperator (1e-6); each input stops with a residual above 1e-6
LOOSE_SCALERS = {
    "sinkhorn": lambda tol: sinkhorn(_Z, tol=tol)[0],
    "attention_bistochastic": lambda tol: attention_bistochastic(
        cloud_geometry(6, 3, 61)[0], 1.0, tol=tol),
    "dmap_bistochastic": lambda tol: dmap_bistochastic(cloud_geometry(6, 3, 61)[1], 1.0, tol=tol),
}


class TestLooseTolerance:
    @pytest.mark.parametrize("scaler", list(LOOSE_SCALERS))
    def test_loose_tol_returns_an_operator_within_tol(self, scaler):
        operator = LOOSE_SCALERS[scaler](1e-3)
        violation = marginal_violation(operator.values, 1.0, 1.0)
        assert 1e-6 < violation <= 1e-3


# every public scaler on a fixed input, with the keyword arguments passed through
SOLVERS = {
    "sinkhorn": lambda **kw: sinkhorn(_Z, **kw),
    "schrodinger_solve": lambda **kw: schrodinger_solve(np.exp(_Z), _MU_PLUS, _MU_MINUS, **kw),
    "dmap_bistochastic": lambda **kw: dmap_bistochastic(_D2, 1.0, **kw),
    "attention_bistochastic": lambda **kw: attention_bistochastic(
        cloud_geometry(6, 3, 48)[0], 1.0, **kw),
    "solve_bridge": lambda **kw: solve_bridge(np.exp(-_D2), _MU_PLUS, _MU_MINUS, **kw),
    "attention_bridge": lambda **kw: attention_bridge(
        cloud_geometry(6, 3, 48)[0], 1.0, _MU_PLUS, _MU_MINUS, **kw),
}

_BAD_TOLS = [0.0, -1.0, np.nan, np.inf]


class TestSolverArguments:
    @pytest.mark.parametrize("tol", _BAD_TOLS)
    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_tol_must_be_finite_and_positive(self, solver, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            SOLVERS[solver](tol=tol)

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_max_iter_must_be_at_least_one(self, solver):
        with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
            SOLVERS[solver](max_iter=0)

    @pytest.mark.parametrize("tol", _BAD_TOLS)
    def test_stationary_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            stationary_distribution(softmax_rows(_Z), tol=tol)


class TestSchrodingerSolve:
    def test_flat_kernel_uniform_marginals(self):
        uniform = np.full(2, 0.5)
        potentials = schrodinger_solve(np.ones((2, 2)), uniform, uniform)
        coupling = potentials.u[:, None] * np.ones((2, 2)) * potentials.v[None, :]
        np.testing.assert_allclose(coupling, np.full((2, 2), 0.25), atol=1e-12)

    def test_flat_kernel_product_coupling(self):
        mu_plus = np.array([0.75, 0.25])
        mu_minus = np.array([0.5, 0.5])
        potentials = schrodinger_solve(np.ones((2, 2)), mu_plus, mu_minus)
        coupling = potentials.u[:, None] * np.ones((2, 2)) * potentials.v[None, :]
        np.testing.assert_allclose(
            coupling, [[0.375, 0.375], [0.125, 0.125]], atol=1e-12
        )

    def test_marginal_constraints_hold(self):
        rng = np.random.default_rng(44)
        pts = rng.standard_normal((3, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        kernel = np.exp(-d2)
        mu_plus = rng.uniform(0.5, 1.5, 3)
        mu_plus /= mu_plus.sum()
        mu_minus = rng.uniform(0.5, 1.5, 3)
        mu_minus /= mu_minus.sum()
        potentials = schrodinger_solve(kernel, mu_plus, mu_minus, tol=1e-11)
        coupling = potentials.u[:, None] * kernel * potentials.v[None, :]
        np.testing.assert_allclose(coupling.sum(axis=1), mu_plus, atol=1e-10)
        np.testing.assert_allclose(coupling.sum(axis=0), mu_minus, atol=1e-10)
        np.testing.assert_allclose(
            coupling, schrodinger_oracle(kernel, mu_plus, mu_minus, 2000), atol=1e-10
        )

    def test_agrees_with_sinkhorn_up_to_scale(self):
        rng = np.random.default_rng(45)
        z = rng.standard_normal((5, 5))
        operator, _ = sinkhorn(z, tol=1e-12)
        uniform = np.full(5, 0.2)
        potentials = schrodinger_solve(np.exp(z), uniform, uniform, tol=1e-13)
        coupling = potentials.u[:, None] * np.exp(z) * potentials.v[None, :]
        np.testing.assert_allclose(5.0 * coupling, operator.values, rtol=0, atol=1e-10)

    def test_rejects_zero_marginal(self):
        kernel = np.ones((2, 2))
        with pytest.raises(ValueError, match="positive"):
            schrodinger_solve(kernel, np.array([1.0, 0.0]), np.full(2, 0.5))

    def test_rejects_unnormalized_marginal(self):
        kernel = np.ones((2, 2))
        with pytest.raises(ValueError, match="sum to 1"):
            schrodinger_solve(kernel, np.array([0.7, 0.6]), np.full(2, 0.5))

    def test_rejects_nonpositive_kernel(self):
        with pytest.raises(ValueError, match="positive"):
            schrodinger_solve(np.array([[1.0, 0.0], [1.0, 1.0]]),
                              np.full(2, 0.5), np.full(2, 0.5))

    def test_potential_gauge_leaves_coupling_invariant(self):
        # rescaling u by c and v by 1/c is a symmetry of the coupling, so
        # only the coupling is comparable, never raw potentials
        rng = np.random.default_rng(46)
        z = rng.standard_normal((4, 4))
        kernel = np.exp(z)
        mu = np.full(4, 0.25)
        potentials = schrodinger_solve(kernel, mu, mu, tol=1e-12)
        c = 3.7
        scaled = ScalingPotentials(potentials.u * c, potentials.v / c,
                                   potentials.iterations, potentials.residual)
        original = potentials.u[:, None] * kernel * potentials.v[None, :]
        rescaled = scaled.u[:, None] * kernel * scaled.v[None, :]
        np.testing.assert_allclose(original, rescaled, rtol=1e-14)


class TestScalingCore:
    """Properties shared by every scaler built on the stabilized core."""

    def test_reported_residual_is_that_of_the_returned_object(self):
        n = 8
        bound = 4 * n * np.finfo(float).eps
        for seed in range(5):
            rng = np.random.default_rng(60 + seed)
            z = rng.standard_normal((n, n))
            operator, potentials = sinkhorn(z)
            assert abs(potentials.residual - marginal_violation(operator.values, 1.0, 1.0)) <= bound
            mu_plus, mu_minus = rng.dirichlet(np.ones(n), size=2)
            kernel = np.exp(z)
            potentials = schrodinger_solve(kernel, mu_plus, mu_minus)
            coupling = potentials.u[:, None] * kernel * potentials.v[None, :]
            assert abs(potentials.residual - marginal_violation(coupling, mu_plus, mu_minus)) <= bound

    def test_reported_residual_holds_with_over_relaxation(self, caplog):
        n = 120
        bound = 4 * n * np.finfo(float).eps
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            operator, potentials, coupling, bridge = two_cluster_scalings(1.0)
        omegas = [float(r.getMessage().split("omega ")[1].split(",")[0]) for r in caplog.records]
        assert len(omegas) == 2 and min(omegas) > 1.0
        assert abs(potentials.residual - marginal_violation(operator.values, 1.0, 1.0)) <= bound
        assert abs(bridge.residual - marginal_violation(coupling, *_TWO_CLUSTER_MARGINALS)) <= bound

    @pytest.mark.parametrize("beta", sorted(_PLAIN_SWEEPS))
    def test_over_relaxation_halves_the_sweeps(self, beta):
        operator, potentials, coupling, bridge = two_cluster_scalings(beta)
        plain_sinkhorn, plain_bridge = _PLAIN_SWEEPS[beta]
        assert potentials.iterations <= plain_sinkhorn // 2
        assert bridge.iterations <= plain_bridge // 2
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10
        assert marginal_violation(coupling, *_TWO_CLUSTER_MARGINALS) <= 1e-10

    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            _, potentials = sinkhorn(_Z)
            with pytest.raises(ConvergenceError):
                sinkhorn(_Z, tol=1e-30, max_iter=16)
        converged, stalled = [r.getMessage() for r in caplog.records]
        assert converged.startswith(f"scaling converged: {potentials.iterations} sweeps, 1 absorptions")
        assert f"residual {potentials.residual:.3e}" in converged
        assert stalled.startswith("scaling stalled: 16 sweeps")

    @pytest.mark.parametrize("n, d, seed, beta, attention_converges", [
        (60, 2, 0, 10.0, True),    # logits span about 200 nats
        (30, 3, 7, 50.0, False),   # about 960 nats: exp(logits) underflows
    ])
    def test_extreme_score_ranges(self, n, d, seed, beta, attention_converges):
        biv, d2 = cloud_geometry(n, d, seed)
        assert 190.0 <= beta * d2.max() <= 970.0
        if attention_converges:
            operator, _ = sinkhorn(-beta * biv.fwd)
            assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10
        else:
            with pytest.raises(ConvergenceError) as excinfo:
                sinkhorn(-beta * biv.fwd)
            assert np.isfinite(excinfo.value.residual)
        # the damped symmetric update is not slowed by the nearly decomposable
        # kernel, so the bistochastic diffusion operator converges on both
        bistochastic = dmap_bistochastic(d2, beta).values
        assert np.all(np.isfinite(bistochastic))
        assert marginal_violation(bistochastic, 1.0, 1.0) <= 1e-10
