"""Softmax, product of experts, and the stabilized matrix scalers."""

import logging
import math
import re

import numpy as np
import pytest
import scipy.special

from markovgeom.bridges import attention_bridge, solve_bridge, stationary_distribution
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
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
# squared distances of default_rng(150).standard_normal((5, 3)): two clusters
_STALL_D2 = cloud_geometry(5, 3, 150)[1]


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

    @pytest.mark.parametrize("kind, axes", [("row", ("row",)), ("column", ("column",)),
                                            ("bi", ("row", "column"))])
    def test_residuals_are_the_measured_sums(self, kind, axes):
        values = np.full((3, 3), 1.0 / 3.0)
        values[0, 0] += 1e-9
        op = StochasticOperator(values, kind)
        assert tuple(op.residuals) == axes
        for axis in axes:
            sums = values.sum(axis=1 if axis == "row" else 0)
            assert op.residuals[axis] == float(np.abs(sums - 1.0).max())
        with pytest.raises(TypeError):
            op.residuals["row"] = 0.0  # read-only
        with pytest.raises(TypeError):
            StochasticOperator(values, kind, residuals={})  # not an init field


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

    @pytest.mark.parametrize("gap", [744.0, 800.0])
    def test_product_mass_below_normal_range_rejected(self, gap):
        # at 744 nats, e^-744 and e^-744.5 keep one or two significant bits,
        # and the product would read 1/3 where softmax(z + s) has 0.378; at
        # 800 both underflow to 0
        z = np.array([[0.0, -gap], [0.0, 0.0]])
        s = np.array([[-gap - 0.5, 0.0], [0.0, 0.0]])
        message = r"disjoint support .*: the product's mass \S+ is below the normal float range"
        with pytest.raises(ValueError, match=message):
            poe_combine(softmax_rows(z), softmax_rows(s))

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

    @pytest.mark.xfail(raises=(RuntimeWarning, ValueError), strict=True,
                       reason="the potential e^800 is not representable; "
                              "passes once potentials are returned as logs")
    def test_column_800_nats_below_the_rest_scales(self):
        # the scaling converges with one absorbed column, and the operator is
        # representable; exp of the reported potential overflows
        z = np.random.default_rng(70).standard_normal((8, 8))
        z[:, 0] -= 800
        operator, _ = sinkhorn(z)
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10

    # an equilibrium input (symmetric logits) on which the alternating core
    # stalls after 10 000 sweeps, sinkhorn at 1.1e-6 and schrodinger_solve at
    # 2.2e-7; the symmetric core of dmap_bistochastic converges on it
    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="the alternating core stalls; passes once equilibrium "
                              "scalings take the symmetric core")
    def test_equilibrium_stall_scales(self):
        operator, _ = sinkhorn(-_STALL_D2)
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="the alternating core stalls; passes once equilibrium "
                              "scalings take the symmetric core")
    def test_equilibrium_stall_bridge_scales(self):
        kernel = np.exp(-_STALL_D2)
        uniform = np.full(5, 0.2)
        potentials = schrodinger_solve(kernel, uniform, uniform)
        coupling = potentials.u[:, None] * kernel * potentials.v[None, :]
        assert marginal_violation(coupling, uniform, uniform) <= 1e-10

    def test_equilibrium_stall_input_scales_through_the_symmetric_core(self):
        operator = dmap_bistochastic(_STALL_D2, 1.0)
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10


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


def _contract_case(scaler, seed, tol):
    """(matrix, row sums, column sums) of one scaler on the seed's draw: a
    Gaussian cloud of 2 to 47 points in 3-D at beta = 1 / median d^2, and for
    sinkhorn standard normal logits of the same size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 48))
    biv, d2 = cloud_geometry(n, 3, seed)
    beta = 1.0 / float(np.median(d2[~np.eye(n, dtype=bool)]))
    if scaler == "sinkhorn":
        return sinkhorn(rng.standard_normal((n, n)), tol=tol)[0].values, 1.0, 1.0
    if scaler == "attention_bistochastic":
        return attention_bistochastic(biv, beta, tol=tol).values, 1.0, 1.0
    if scaler == "dmap_bistochastic":
        return dmap_bistochastic(d2, beta, tol=tol).values, 1.0, 1.0
    mu_plus, mu_minus = rng.dirichlet(np.full(n, 5.0), size=2)
    bridge = solve_bridge(np.exp(-beta * d2), mu_plus, mu_minus, tol=tol)
    return bridge.coupling, mu_plus, mu_minus


class TestTolContract:
    @pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-15, 3e-16])
    @pytest.mark.parametrize("scaler", ["sinkhorn", "attention_bistochastic",
                                        "dmap_bistochastic", "solve_bridge"])
    def test_returned_marginals_meet_tol_or_raise(self, scaler, tol):
        # the marginals are summed again from the returned matrix, not read
        # from a residual the solver reports; a tol below the rounding of
        # those sums can only end in ConvergenceError, never in ValueError
        for seed in range(40):
            try:
                matrix, rows, cols = _contract_case(scaler, seed, tol)
            except ConvergenceError as exc:
                assert exc.residual > tol
                continue
            assert marginal_violation(matrix, rows, cols) <= tol, seed

    def test_operator_missing_tol_by_rounding_raises(self):
        # the core's residual is 6.7e-16, the operator's column sums miss by 1.1e-15
        z = np.random.default_rng(0).standard_normal((200, 200))
        with pytest.raises(ConvergenceError, match=r"^bistochastic operator misses tol: "
                           r"residual \S+ > tol 1\.000e-15 after \d+ iterations$") as excinfo:
            sinkhorn(z, tol=1e-15)
        assert excinfo.value.residual > 1e-15
        operator, _ = sinkhorn(z, tol=1e-10)
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10

    def test_bridge_coupling_is_held_to_tol(self, monkeypatch):
        # potentials that the core reports as converged but whose coupling
        # misses tol raise ConvergenceError, measured on the coupling itself
        from markovgeom import bridges

        real_solve = bridges.schrodinger_solve

        def off_by_a_thousandth(*args, **kwargs):
            potentials = real_solve(*args, **kwargs)
            return ScalingPotentials(potentials.u * 1.001, potentials.v,
                                     potentials.iterations, potentials.residual)

        monkeypatch.setattr(bridges, "schrodinger_solve", off_by_a_thousandth)
        with pytest.raises(ConvergenceError, match=r"^bridge coupling misses tol: residual "
                           r"\S+ > tol 1\.000e-10 after \d+ iterations$") as excinfo:
            solve_bridge(np.exp(-_D2), _MU_PLUS, _MU_MINUS)
        assert 1e-4 < excinfo.value.residual < 1e-3

    def test_symmetric_log_domain_sweep(self, caplog):
        # negative squared distances (indefinite weights) push the damped
        # symmetric update out of range, so it absorbs in the log domain; it
        # then meets a loose tol with a bitwise symmetric operator, and ends
        # at the default tol in ConvergenceError with a finite residual
        x = np.random.default_rng(0).standard_normal((6, 2))
        d2 = squared_distance(bidivergence(generalized_gram(
            DataCloud(x), InteractionWeights(np.diag([1.0, -1.0])))))
        assert d2.min() < 0.0
        with caplog.at_level(logging.DEBUG, logger="markovgeom.normalize"):
            operator = dmap_bistochastic(d2, 100.0, tol=1e-3)
            with pytest.raises(ConvergenceError) as excinfo:
                dmap_bistochastic(d2, 100.0)
        converged, stalled = [r.getMessage() for r in caplog.records]
        assert re.match(r"scaling converged: \d+ sweeps, 1 absorptions", converged)
        assert stalled.startswith("scaling stalled: 10000 sweeps, 1 absorptions")
        np.testing.assert_array_equal(operator.values, operator.values.T)
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-3
        assert 1e-10 < excinfo.value.residual < 1e-3


def exact_marginal_gap(matrix, rows, cols):
    """Largest gap of a row or column sum from its target, each sum taken over
    the entries and minus the target with one rounding (math.fsum)."""
    rows = np.broadcast_to(rows, matrix.shape[:1]).tolist()
    cols = np.broadcast_to(cols, matrix.shape[1:]).tolist()
    return max(abs(math.fsum(line.tolist() + [-target]))
               for lines, targets in ((matrix, rows), (matrix.T, cols))
               for line, target in zip(lines, targets))


def _exact_case(scaler, seed, tol, n=None):
    """(matrix, row sums, column sums) of one scaler on the seed's draw of 2 to
    299 points, or of n points (then not drawn): standard normal logits at a
    random scale for sinkhorn, a Gaussian cloud in 3-D at a random beta for
    the others."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 300))
    if scaler == "sinkhorn":
        z = rng.standard_normal((n, n)) * rng.uniform(0.1, 3)
        return sinkhorn(z, tol=tol)[0].values, 1.0, 1.0
    biv = bidivergence(gram(DataCloud(rng.standard_normal((n, 3)))))
    d2 = squared_distance(biv)
    beta = rng.uniform(0.1, 3) / float(np.median(d2[~np.eye(n, dtype=bool)]))
    if scaler == "attention_bistochastic":
        return attention_bistochastic(biv, beta, tol=tol).values, 1.0, 1.0
    if scaler == "dmap_bistochastic":
        return dmap_bistochastic(d2, beta, tol=tol).values, 1.0, 1.0
    mu_plus, mu_minus = rng.dirichlet(np.full(n, 5.0), size=2)
    bridge = solve_bridge(np.exp(-beta * d2), mu_plus, mu_minus, tol=tol)
    return bridge.coupling, mu_plus, mu_minus


def weighted_draw(seed):
    """(points, weights, permutation, beta) of the seed's weighted cloud: 5 to
    199 points in 1 to 9 dimensions scaled by 0.3-3, weights I plus an
    antisymmetric part (``interaction_weights`` of ``perfbench/workloads.py``)
    and beta 0.1, 1 or 3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    d = int(rng.integers(1, 10))
    points = rng.standard_normal((n, d)) * rng.uniform(0.3, 3)
    a = rng.standard_normal((d, d))
    weights = np.eye(d) + 0.5 * (a - a.T)
    perm = rng.permutation(n)
    return points, weights, perm, float(rng.choice([0.1, 1.0, 3.0]))


_EXACT_DRAWS = [
    *(pytest.param(scaler, seed, id=f"{scaler}-{seed}")
      for scaler in ("sinkhorn", "attention_bistochastic", "dmap_bistochastic", "solve_bridge")
      for seed in range(12)),
    # n = 12 and n = 20: the float marginals meet tol 3e-16 and 1e-15, and
    # one exact sum misses it by 3.1e-16 and 1.09e-15, so the sweeps go on
    pytest.param("sinkhorn", 23, id="sinkhorn-23"),
    pytest.param("attention_bistochastic", 34, id="attention_bistochastic-34"),
]


class TestExactMarginals:
    """Every returned scaling against its exact marginals (ROADMAP item 6)."""

    TOLS = (3e-16, 1e-15, 3e-15, 1e-14, 1e-12)

    @pytest.mark.parametrize("scaler, seed", _EXACT_DRAWS)
    def test_exact_marginals_meet_tol_or_raise(self, scaler, seed):
        accepted = 0
        for tol in self.TOLS:
            try:
                matrix, rows, cols = _exact_case(scaler, seed, tol)
            except ConvergenceError as exc:
                assert exc.residual > tol
                continue
            accepted += 1
            assert exact_marginal_gap(matrix, rows, cols) <= tol, tol
        assert accepted >= 2

    # cumulative sweeps at the end of each round of the sweep-on, per seed and
    # row order: a round after the first resumes the solve on its operator
    ROUNDS = {(7, False): [2258, 2259], (7, True): [2258],
              (13, False): [3501, 3502], (13, True): [3502],
              (249, False): [3966, 3967], (249, True): [3966, 3967]}

    # the core met tol 1e-12 here, and the built operator's sums missed it by
    # rounding: seeds 7 and 13 (n = 189, 179) raised in their own row order,
    # seed 249 (n = 142) permuted, and its own order missed by exact sums
    @pytest.mark.parametrize("permuted", [False, True], ids=["original", "permuted"])
    @pytest.mark.parametrize("seed", [7, 13, 249])
    def test_rounding_miss_sweeps_on(self, seed, permuted, caplog):
        points, weights, perm, beta = weighted_draw(seed)
        biv = bidivergence(generalized_gram(DataCloud(points[perm] if permuted else points),
                                            InteractionWeights(weights)))
        with caplog.at_level(logging.DEBUG, logger="markovgeom.normalize"):
            operator = attention_bistochastic(biv, beta, tol=1e-12, max_iter=4000)
        assert exact_marginal_gap(operator.values, 1.0, 1.0) <= 1e-12
        rounds = [int(re.match(r"scaling converged: (\d+) sweeps", r.getMessage())[1])
                  for r in caplog.records]
        assert rounds == self.ROUNDS[seed, permuted]

    # with no safe range every sweep absorbs, so the round that resumes on the
    # built operator absorbs too: from log K and the potentials carried over
    @pytest.mark.parametrize("scaler, seed, n", [("sinkhorn", 6, 22), ("dmap_bistochastic", 3, 33)])
    def test_resumed_round_absorbs(self, scaler, seed, n, monkeypatch, caplog):
        from markovgeom import normalize

        monkeypatch.setattr(normalize, "_LOG_SAFE_RANGE", 0.0)
        tol = 1e-15
        with caplog.at_level(logging.DEBUG, logger="markovgeom.normalize"):
            try:
                matrix, rows, cols = _exact_case(scaler, seed, tol, n=n)
            except ConvergenceError as exc:
                assert exc.residual > tol
            else:
                assert exact_marginal_gap(matrix, rows, cols) <= tol
        first, resumed = [r.getMessage() for r in caplog.records]
        assert re.match(r"scaling converged: \d+ sweeps, [1-9]\d* absorptions", first)
        assert re.match(r"scaling converged: \d+ sweeps, 1 absorptions", resumed)
        if scaler == "sinkhorn":
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((n, n)) * rng.uniform(0.1, 3)
            operator, potentials = sinkhorn(z, tol=tol)
            logits = z + np.log(potentials.u)[:, None] + np.log(potentials.v)
            kappa = max(1.0, float(np.abs(logits).max()))
            np.testing.assert_allclose(np.exp(logits), operator.values,
                                       rtol=64 * np.finfo(float).eps * kappa, atol=0)


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
        # a well-scaled kernel is swept in the linear domain throughout
        assert converged.startswith(f"scaling converged: {potentials.iterations} sweeps, 0 absorptions")
        assert f"residual {potentials.residual:.3e}" in converged
        assert stalled.startswith("scaling stalled: 16 sweeps")

    @pytest.mark.parametrize("scaler", list(SCALERS))
    def test_well_scaled_kernel_is_never_absorbed(self, scaler, caplog):
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            SCALERS[scaler]()
        [converged] = [r.getMessage() for r in caplog.records]
        assert " 0 absorptions" in converged

    def test_underflowing_column_absorbs_and_converges(self, caplog):
        # exp(z - row max) of a column 600 nats below the rest is about 1e-262,
        # so its scaling factor leaves e^115 in the first sweep
        z = np.random.default_rng(70).standard_normal((8, 8))
        shifted = z.copy()
        shifted[:, 0] -= 600.0
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            operator, _ = sinkhorn(shifted)
        [converged] = [r.getMessage() for r in caplog.records]
        assert " 1 absorptions" in converged
        assert marginal_violation(operator.values, 1.0, 1.0) <= 1e-10
        # a column shift is a gauge: the operator is that of the unshifted logits
        np.testing.assert_allclose(operator.values, sinkhorn_oracle(np.exp(z)), rtol=0, atol=1e-10)

    def test_tiny_kernel_column_absorbs_and_converges(self, caplog):
        rng = np.random.default_rng(71)
        kernel = np.exp(rng.standard_normal((8, 8)))
        tiny = kernel.copy()
        tiny[:, 2] *= 1e-300
        mu_plus, mu_minus = rng.dirichlet(np.ones(8), size=2)
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            potentials = schrodinger_solve(tiny, mu_plus, mu_minus)
        [converged] = [r.getMessage() for r in caplog.records]
        assert " 1 absorptions" in converged
        coupling = potentials.u[:, None] * tiny * potentials.v[None, :]
        assert marginal_violation(coupling, mu_plus, mu_minus) <= 1e-10
        np.testing.assert_allclose(
            coupling, schrodinger_oracle(kernel, mu_plus, mu_minus, 2000), rtol=0, atol=1e-10)

    # sinkhorn and schrodinger_solve sweeps on the two-cluster cloud: sweeping
    # in the linear domain from the first sweep on must not change them
    @pytest.mark.parametrize("beta, sweeps", [(0.5, (24, 32)), (1.0, (40, 54)), (1.5, (40, 88))])
    def test_two_cluster_sweep_counts(self, beta, sweeps):
        _, potentials, _, bridge = two_cluster_scalings(beta)
        assert (potentials.iterations, bridge.iterations) == sweeps

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
