"""Bridge solver, Doob transforms, currents, regimes, and the factorizations."""

import logging

import numpy as np
import pytest

from markovgeom.bridges import (
    attention_bridge,
    attention_gauge,
    classify_regime,
    currents,
    dmap_as_bridge,
    doob_transform,
    magnetic_flux,
    poe_factorization,
    sb_factorization_check,
    solve_bridge,
    stationary_distribution,
)
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import ConvergenceError, StochasticOperator, softmax_rows
from markovgeom.operators import (
    attention_forward,
    dmap,
    dmap_bistochastic,
    magnetic_operator,
    rbf_kernel,
)


def random_geometry(seed, n=6, d=3):
    rng = np.random.default_rng(seed)
    cloud = DataCloud(rng.standard_normal((n, d)))
    biv = bidivergence(gram(cloud))
    return cloud, biv, squared_distance(biv)


def random_marginal(rng, n):
    mu = rng.uniform(0.5, 1.5, n)
    return mu / mu.sum()


def two_cluster_geometry(n, seed=0, d=3, offset=3.0, weighted=False):
    """Two Gaussian clusters whose centres sit ``offset`` apart along axis 0:
    a nearly decomposable chain at beta of order one."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    points[n // 2:, 0] += offset
    cloud = DataCloud(points)
    if weighted:
        a = rng.standard_normal((d, d))
        biv = bidivergence(generalized_gram(cloud, InteractionWeights(np.eye(d) + 0.5 * (a - a.T))))
    else:
        biv = bidivergence(gram(cloud))
    return biv, squared_distance(biv)


def outlier_chain(seed):
    """A 1-D Gaussian cloud with one to three points pushed 3 to 7 away: a
    nearly decomposable chain whose diagonal entries at the outliers round
    towards 1.  Odd seeds give forward attention over a weighted second
    feature, even seeds the diffusion operator; beta is drawn relative to the
    median off-diagonal squared distance."""
    rng = np.random.default_rng(seed)
    n = rng.integers(60, 260)
    points = rng.standard_normal((n, 1))
    k = rng.integers(1, 4)
    points[:k, 0] += rng.uniform(3, 7) * rng.choice([-1, 1], k)
    if seed % 2:
        points = np.hstack([points, 0.3 * rng.standard_normal((n, 1))])
        a = rng.standard_normal((2, 2))
        weights = InteractionWeights(np.eye(2) + 0.5 * (a - a.T))
        biv = bidivergence(generalized_gram(DataCloud(points), weights))
    else:
        biv = bidivergence(gram(DataCloud(points)))
    d2 = squared_distance(biv)
    beta = rng.uniform(0.5, 4) / np.median(d2[~np.eye(n, dtype=bool)])
    return attention_forward(biv, beta) if seed % 2 else dmap(d2, beta)


def gth_stationary(p):
    """Left fixed point by Grassmann-Taksar-Heyman elimination (1985): no
    subtractions, so accurate to rounding on any irreducible chain.  O(n^3)
    in numpy rank-one updates; an oracle for small n only."""
    a = np.array(p, dtype=float)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


class TestSolveBridge:
    def test_flat_kernel_uniform_marginals(self):
        uniform = np.full(3, 1.0 / 3.0)
        bridge = solve_bridge(np.ones((3, 3)), uniform, uniform)
        np.testing.assert_allclose(bridge.coupling, 1.0 / 9.0, atol=1e-12)

    def test_flat_kernel_product_coupling(self):
        rng = np.random.default_rng(71)
        mu_plus = random_marginal(rng, 4)
        mu_minus = random_marginal(rng, 4)
        bridge = solve_bridge(np.ones((4, 4)), mu_plus, mu_minus, tol=1e-12)
        np.testing.assert_allclose(
            bridge.coupling, np.outer(mu_plus, mu_minus), rtol=0, atol=1e-12
        )

    def test_marginals_and_propagation(self):
        rng = np.random.default_rng(72)
        _, _, d2 = random_geometry(72, n=4)
        kernel = rbf_kernel(d2, 1.0).values
        mu_plus = random_marginal(rng, 4)
        mu_minus = random_marginal(rng, 4)
        bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=1e-11)
        np.testing.assert_allclose(bridge.coupling.sum(axis=1), mu_plus, atol=1e-10)
        np.testing.assert_allclose(bridge.coupling.sum(axis=0), mu_minus, atol=1e-10)
        np.testing.assert_allclose(mu_plus @ bridge.forward.values, mu_minus, atol=1e-10)

    def test_coupling_reconstructs_from_potentials(self):
        rng = np.random.default_rng(73)
        _, _, d2 = random_geometry(73, n=5)
        kernel = rbf_kernel(d2, 0.8).values
        bridge = solve_bridge(kernel, random_marginal(rng, 5), random_marginal(rng, 5))
        rebuilt = bridge.potentials.u[:, None] * kernel * bridge.potentials.v[None, :]
        np.testing.assert_allclose(rebuilt, bridge.coupling, rtol=0, atol=1e-10)

    def test_forward_is_row_stochastic(self):
        rng = np.random.default_rng(74)
        _, _, d2 = random_geometry(74, n=5)
        kernel = rbf_kernel(d2, 1.0).values
        bridge = solve_bridge(kernel, random_marginal(rng, 5), random_marginal(rng, 5),
                              tol=1e-12)
        assert bridge.forward.kind == "row"
        np.testing.assert_allclose(bridge.forward.values.sum(axis=1), 1.0, atol=1e-10)

    def test_invalid_marginals_rejected(self):
        with pytest.raises(ValueError):
            solve_bridge(np.ones((2, 2)), np.array([2.0, 1.0]), np.full(2, 0.5))

    def test_coupling_minimizes_relative_entropy(self):
        # optimality oracle: the objective sum(c * (log(c / k) - 1)) cannot
        # decrease along any marginal-preserving perturbation direction
        rng = np.random.default_rng(105)
        _, _, d2 = random_geometry(105, n=4)
        kernel = rbf_kernel(d2, 1.0).values
        mu_plus = random_marginal(rng, 4)
        mu_minus = random_marginal(rng, 4)
        bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=1e-13)

        def objective(coupling):
            return float((coupling * (np.log(coupling / kernel) - 1.0)).sum())

        base = objective(bridge.coupling)
        eps = 1e-5
        for _ in range(25):
            i, j, k, l = rng.integers(0, 4, size=4)
            if i == j or k == l:
                continue
            direction = np.zeros((4, 4))
            direction[np.ix_([i, j], [k, l])] = [[1.0, -1.0], [-1.0, 1.0]]
            candidate = bridge.coupling + eps * direction
            if np.any(candidate <= 0.0):
                continue
            np.testing.assert_allclose(candidate.sum(axis=1),
                                       bridge.coupling.sum(axis=1), atol=1e-18)
            assert objective(candidate) >= base - 1e-12


class TestDmapAsBridge:
    def test_two_point_symmetry(self):
        bridge = dmap_as_bridge(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=1.0)
        np.testing.assert_array_equal(bridge.coupling, bridge.coupling.T)
        np.testing.assert_allclose(bridge.coupling.sum(axis=1), bridge.mu_plus, atol=1e-15)
        np.testing.assert_allclose(bridge.coupling.sum(axis=0), bridge.mu_plus, atol=1e-15)

    def test_closed_form_matches_iterative_solver(self):
        _, _, d2 = random_geometry(75)
        closed = dmap_as_bridge(d2, beta=1.0)
        assert closed.potentials.iterations == 0
        kernel = rbf_kernel(d2, 1.0).values
        iterated = solve_bridge(kernel, closed.mu_plus, closed.mu_minus, tol=1e-12)
        np.testing.assert_allclose(closed.coupling, iterated.coupling, rtol=0, atol=1e-10)

    def test_sink_potential_is_unit(self):
        _, _, d2 = random_geometry(76)
        bridge = dmap_as_bridge(d2, beta=1.3)
        np.testing.assert_array_equal(bridge.potentials.v, np.ones(d2.shape[0]))

    def test_forward_operator_is_dmap(self):
        _, _, d2 = random_geometry(77)
        bridge = dmap_as_bridge(d2, beta=0.9)
        np.testing.assert_allclose(
            bridge.forward.values, dmap(d2, 0.9).values, rtol=0, atol=1e-12
        )


class TestDoobTransform:
    def test_unit_function_is_identity_exactly(self):
        _, _, d2 = random_geometry(78)
        p = dmap(d2, 1.0)
        out = doob_transform(p, np.ones(d2.shape[0]))
        np.testing.assert_array_equal(out.values, p.values)

    def test_constant_scale_invariance(self):
        _, _, d2 = random_geometry(79)
        p = dmap(d2, 1.0)
        out = doob_transform(p, np.full(d2.shape[0], 7.3))
        np.testing.assert_array_equal(out.values, p.values)

    def test_bridge_sink_potential_recovers_forward_operator(self):
        rng = np.random.default_rng(80)
        _, _, d2 = random_geometry(80, n=5)
        kernel = rbf_kernel(d2, 1.0).values
        bridge = solve_bridge(kernel, random_marginal(rng, 5), random_marginal(rng, 5),
                              tol=1e-12)
        transformed = doob_transform(dmap(d2, 1.0), bridge.potentials.v)
        np.testing.assert_allclose(
            transformed.values, bridge.forward.values, rtol=0, atol=1e-10
        )

    def test_rejects_nonpositive_h(self):
        _, _, d2 = random_geometry(81)
        p = dmap(d2, 1.0)
        with pytest.raises(ValueError, match="positive"):
            doob_transform(p, np.zeros(d2.shape[0]))


class TestStationaryDistribution:
    def test_bistochastic_gives_uniform(self):
        p = StochasticOperator(np.full((4, 4), 0.25), "bi")
        np.testing.assert_allclose(stationary_distribution(p), 0.25, atol=1e-12)

    def test_dmap_fixed_point_is_normalized_row_sums(self):
        # moderate beta keeps the chain well mixed and the bordered system well
        # conditioned
        _, _, d2 = random_geometry(82)
        kernel = rbf_kernel(d2, 0.3).values
        pi_expected = kernel.sum(axis=1) / kernel.sum()
        pi = stationary_distribution(dmap(d2, 0.3), tol=1e-13)
        np.testing.assert_allclose(pi, pi_expected, rtol=0, atol=1e-10)

    def test_two_state_chain_solved_by_hand(self):
        p = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        pi = stationary_distribution(p, tol=1e-14)
        np.testing.assert_allclose(pi, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    def test_tolerance_below_rounding_raises_from_the_direct_solve(self):
        p = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        with pytest.raises(ConvergenceError, match="direct solve"):
            stationary_distribution(p, tol=1e-30)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    def test_two_cluster_dmap_meets_tol(self, beta):
        # the step-size stop rule missed tol here by 7.7x, 20x and 40x
        _, d2 = two_cluster_geometry(120)
        kernel = rbf_kernel(d2, beta).values
        degrees = kernel.sum(axis=1) / kernel.sum()
        pi = stationary_distribution(dmap(d2, beta))
        assert np.abs(pi - degrees).max() <= 1e-12

    def test_400_point_two_cluster_dmap_meets_tol(self):
        _, d2 = two_cluster_geometry(400)
        kernel = rbf_kernel(d2, 1.0).values
        degrees = kernel.sum(axis=1) / kernel.sum()
        pi = stationary_distribution(dmap(d2, 1.0))
        assert np.abs(pi - degrees).max() <= 1e-12

    @pytest.mark.parametrize("seed, n, beta", [(269, 22, 1.0), (333, 40, 2.0), (22, 16, 1.2)])
    def test_slow_mode_behind_a_fast_one_at_loose_tol(self, seed, n, beta):
        # 1-D clouds whose early steps shrink at the rate of a faster mode;
        # a bound read off those steps certified errors up to 1.6 tol
        points = np.random.default_rng(seed).standard_normal((n, 1))
        d2 = squared_distance(bidivergence(gram(DataCloud(points))))
        kernel = rbf_kernel(d2, beta).values
        degrees = kernel.sum(axis=1) / kernel.sum()
        pi = stationary_distribution(dmap(d2, beta), tol=1e-4)
        assert np.abs(pi - degrees).max() <= 1e-4

    @pytest.mark.parametrize("seed, beta, offset", [
        (0, 1.0, 3.0), (1, 0.3, 3.0), (2, 0.3, 0.0), (3, 0.1, 0.0), (4, 0.05, 0.0)])
    def test_forward_attention_against_gth(self, seed, beta, offset):
        # non-reversible chains, split clouds and single clusters: within tol
        # of the GTH point
        biv, _ = two_cluster_geometry(120, seed=seed, offset=offset, weighted=True)
        a_plus = attention_forward(biv, beta)
        for tol in (1e-12, 1e-10):
            pi = stationary_distribution(a_plus, tol=tol)
            assert np.abs(pi - gth_stationary(a_plus.values)).max() <= tol

    def test_one_debug_record_names_the_path(self, caplog):
        fast, _ = two_cluster_geometry(120, seed=3, offset=0.0, weighted=True)
        _, slow = two_cluster_geometry(120)
        two_state = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            stationary_distribution(attention_forward(fast, 0.1))
            stationary_distribution(dmap(slow, 1.0))
            with pytest.raises(ConvergenceError):
                stationary_distribution(two_state, tol=1e-30)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 3
        for message, refined in zip(messages, ("False", "False", "True")):
            assert message.startswith(f"stationary measure: direct solve, refined {refined}, "
                                      "error bound ")

    @pytest.mark.parametrize("seed", [7, 299, 216, 228, 86])
    def test_outlier_chain_meets_tol_or_raises(self, seed):
        # power iteration certified errors of 0.58 and 0.57 at tol 1e-6 on the
        # attention chains (odd seeds); a direct solve with P_ii - 1 on the
        # diagonal certified 0.165, 2.5e-3 and 5.2e-4 on the dmap chains at a
        # bound of about 1e-14
        p = outlier_chain(seed)
        oracle = gth_stationary(p.values)
        for tol in (1e-4, 1e-6, 1e-10, 1e-12):
            try:
                pi = stationary_distribution(p, tol=tol)
            except ConvergenceError:
                continue
            assert np.abs(pi - oracle).max() <= tol

    def test_nearly_decomposable_chain_raises(self):
        # two blocks coupled at 1e-9: no residual in double precision pins the
        # fixed point to 1e-12, so the solver raises instead of guessing
        rng = np.random.default_rng(5)
        p = rng.uniform(0.5, 1.5, (8, 8))
        p[:4, 4:] *= 1e-9
        p[4:, :4] *= 3e-9
        p /= p.sum(axis=1, keepdims=True)
        with pytest.raises(ConvergenceError, match="direct solve"):
            stationary_distribution(StochasticOperator(p, "row"))

    def test_rejects_operators_with_zero_entries(self):
        p = StochasticOperator(np.array([[1.0, 0.0], [0.5, 0.5]]), "row")
        with pytest.raises(ValueError, match="positive"):
            stationary_distribution(p)


class TestCurrents:
    def test_dmap_at_stationarity_has_no_currents(self):
        _, _, d2 = random_geometry(83)
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        j = currents(dmap(d2, 1.0), pi)
        np.testing.assert_allclose(j, 0.0, atol=1e-12)

    def test_cycle_flow(self):
        cycle = StochasticOperator(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), "row"
        )
        j = currents(cycle, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(np.abs(j[j != 0.0]), 1.0 / 3.0, atol=1e-15)

    def test_two_state_chain_is_reversible(self):
        p = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        pi = np.array([5.0 / 6.0, 1.0 / 6.0])
        np.testing.assert_allclose(currents(p, pi), 0.0, atol=1e-15)

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(84)
        _, _, d2 = random_geometry(84)
        j = currents(dmap(d2, 1.0), random_marginal(rng, d2.shape[0]))
        np.testing.assert_array_equal(j, -j.T)


class TestClassifyRegime:
    def test_dmap_pair_is_equilibrium(self):
        _, _, d2 = random_geometry(85)
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        report = classify_regime(dmap(d2, 1.0), pi, pi)
        assert report.regime == "EQ"
        assert report.max_current <= report.current_threshold
        np.testing.assert_array_equal(report.stationary, pi)

    def test_asymmetric_attention_is_ness(self):
        rng = np.random.default_rng(86)
        cloud = DataCloud(rng.standard_normal((6, 3)))
        weights = InteractionWeights(rng.standard_normal((3, 3)))
        a_plus = attention_forward(bidivergence(generalized_gram(cloud, weights)), 1.0)
        pi_plus = stationary_distribution(a_plus, tol=1e-14)
        report = classify_regime(a_plus, pi_plus, pi_plus)
        assert report.regime == "NESS"
        assert report.max_current > report.current_threshold

    def test_distinct_marginals_are_nonstationary(self):
        rng = np.random.default_rng(87)
        _, _, d2 = random_geometry(87)
        n = d2.shape[0]
        report = classify_regime(
            dmap(d2, 1.0), random_marginal(rng, n), random_marginal(rng, n)
        )
        assert report.regime == "NE"
        assert report.stationary is None
        assert report.marginal_gap > 0.0

    def test_classification_is_total(self):
        rng = np.random.default_rng(88)
        _, _, d2 = random_geometry(88)
        n = d2.shape[0]
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        cases = [
            (pi, pi),
            (random_marginal(rng, n), random_marginal(rng, n)),
            (np.full(n, 1.0 / n), np.full(n, 1.0 / n)),
        ]
        for mu_plus, mu_minus in cases:
            report = classify_regime(dmap(d2, 1.0), mu_plus, mu_minus)
            assert report.regime in ("EQ", "NESS", "NE")


class TestSbFactorizationCheck:
    def test_two_point_cloud(self):
        biv = bidivergence(gram(DataCloud(np.array([[0.0], [1.0]]))))
        assert sb_factorization_check(biv, 1.0) <= 1e-12

    def test_random_clouds_across_betas(self):
        rng = np.random.default_rng(89)
        cloud = DataCloud(rng.standard_normal((8, 3)))
        biv = bidivergence(gram(cloud))
        for beta in (0.1, 1.0, 10.0):
            assert sb_factorization_check(biv, beta) <= 1e-10

    def test_degenerate_uniform_case(self):
        biv = bidivergence(gram(DataCloud(np.ones((2, 2)))))
        assert sb_factorization_check(biv, 1.0) == 0.0


class TestPoeFactorization:
    def test_uniform_case(self):
        biv = bidivergence(gram(DataCloud(np.ones((3, 2)))))
        out = poe_factorization(biv, 1.0)
        np.testing.assert_allclose(out.values, 1.0 / 3.0, atol=1e-15)

    def test_equals_dmap(self):
        _, biv, d2 = random_geometry(90)
        for beta in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(
                poe_factorization(biv, beta).values,
                dmap(d2, beta).values,
                rtol=0,
                atol=1e-12,
            )

    def test_normalizer_matches_expert_mass(self):
        _, biv, _ = random_geometry(91)
        beta = 1.2
        fwd = softmax_rows(-beta * biv.fwd).values
        bwd = softmax_rows(-beta * biv.bwd).values
        mass = 1.0 / (fwd * bwd).sum(axis=1)
        np.testing.assert_allclose(
            poe_factorization(biv, beta).values,
            mass[:, None] * fwd * bwd,
            rtol=0,
            atol=1e-12,
        )


class TestOperatorEquivalences:
    def test_uniform_marginal_bridge_matches_bistochastic_scaling(self):
        # the bridge over the distance kernel with flat endpoint marginals is
        # the bistochastic diffusion operator, up to the row normalization
        _, _, d2 = random_geometry(103, n=5)
        kernel = rbf_kernel(d2, 1.0).values
        uniform = np.full(5, 0.2)
        bridge = solve_bridge(kernel, uniform, uniform, tol=1e-11)
        bistochastic = dmap_bistochastic(d2, 1.0, tol=1e-11)
        np.testing.assert_allclose(
            bridge.forward.values, bistochastic.values, rtol=0, atol=1e-8
        )

    def test_equivalence_chain_is_pairwise_tight(self):
        # one operator, four constructions
        _, biv, d2 = random_geometry(104)
        beta = 1.1
        paths = [
            dmap(d2, beta).values,
            poe_factorization(biv, beta).values,
            dmap_as_bridge(d2, beta).forward.values,
        ]
        for first in paths:
            for second in paths:
                np.testing.assert_allclose(first, second, rtol=0, atol=1e-10)
        assert sb_factorization_check(biv, beta) <= 1e-10


class TestAttentionBridge:
    @staticmethod
    def asymmetric_setup(seed, n=6, d=3):
        rng = np.random.default_rng(seed)
        cloud = DataCloud(rng.standard_normal((n, d)))
        weights = InteractionWeights(rng.standard_normal((d, d)))
        biv = bidivergence(generalized_gram(cloud, weights))
        return rng, biv

    def test_matched_marginals_reproduce_attention(self):
        rng, biv = self.asymmetric_setup(92)
        a_plus = attention_forward(biv, 1.0)
        mu_plus = random_marginal(rng, biv.n)
        mu_minus = mu_plus @ a_plus.values
        bridge = attention_bridge(biv, 1.0, mu_plus, mu_minus, tol=1e-12)
        np.testing.assert_allclose(
            bridge.forward.values, a_plus.values, rtol=0, atol=1e-10
        )

    def test_stationary_marginals_give_ness_attention(self):
        _, biv = self.asymmetric_setup(93)
        a_plus = attention_forward(biv, 1.0)
        pi_plus = stationary_distribution(a_plus, tol=1e-14)
        bridge = attention_bridge(biv, 1.0, pi_plus, pi_plus, tol=1e-12)
        np.testing.assert_allclose(
            bridge.forward.values, a_plus.values, rtol=0, atol=1e-10
        )
        report = classify_regime(bridge.forward, pi_plus, pi_plus)
        assert report.regime == "NESS"

    def test_forward_is_column_biased_attention(self):
        rng, biv = self.asymmetric_setup(94)
        mu_plus = random_marginal(rng, biv.n)
        mu_minus = random_marginal(rng, biv.n)
        bridge = attention_bridge(biv, 1.0, mu_plus, mu_minus, tol=1e-12)
        psi = np.log(bridge.potentials.v)
        biased = softmax_rows(-1.0 * biv.fwd + psi[None, :])
        np.testing.assert_allclose(
            bridge.forward.values, biased.values, rtol=0, atol=1e-10
        )

    def test_forward_is_doob_transform_of_attention(self):
        rng, biv = self.asymmetric_setup(95)
        mu_plus = random_marginal(rng, biv.n)
        mu_minus = random_marginal(rng, biv.n)
        bridge = attention_bridge(biv, 1.0, mu_plus, mu_minus, tol=1e-12)
        transformed = doob_transform(attention_forward(biv, 1.0), bridge.potentials.v)
        np.testing.assert_allclose(
            bridge.forward.values, transformed.values, rtol=0, atol=1e-10
        )

    def test_perturbed_sink_marginal_breaks_equality(self):
        rng, biv = self.asymmetric_setup(96)
        a_plus = attention_forward(biv, 1.0)
        mu_plus = random_marginal(rng, biv.n)
        mu_minus = mu_plus @ a_plus.values
        perturbed = mu_minus.copy()
        perturbed[int(np.argmax(perturbed))] -= 1e-3
        perturbed[int(np.argmin(perturbed))] += 1e-3
        bridge = attention_bridge(biv, 1.0, mu_plus, perturbed, tol=1e-12)
        assert np.abs(bridge.forward.values - a_plus.values).max() > 1e-5


class TestMagneticFlux:
    @staticmethod
    def phased_setup(seed, scale=0.5):
        rng = np.random.default_rng(seed)
        cloud = DataCloud(rng.standard_normal((5, 3)))
        biv = bidivergence(gram(cloud))
        d2 = squared_distance(biv)
        p = dmap(d2, 1.0)
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        raw = scale * rng.standard_normal((5, 5))
        theta = raw - raw.T
        return pi, magnetic_operator(p, theta), theta

    def test_zero_phases_mean_zero_current(self):
        pi, op, _ = self.phased_setup(97)
        quiet = magnetic_operator(op.magnitudes, np.zeros((5, 5)))
        _, current = magnetic_flux(pi, quiet)
        np.testing.assert_array_equal(current, np.zeros((5, 5)))

    def test_real_part_is_cosine_weighted_flux(self):
        pi, op, theta = self.phased_setup(98)
        flux, _ = magnetic_flux(pi, op)
        classical = pi[:, None] * op.magnitudes.values
        np.testing.assert_allclose(flux.real, classical * np.cos(theta), atol=1e-15)

    def test_current_antisymmetric_under_detailed_balance(self):
        pi, op, theta = self.phased_setup(99)
        _, current = magnetic_flux(pi, op)
        # elementwise oracle: with pi_i P_ij = pi_j P_ji and odd phases the
        # reversed edge carries the negated current
        oracle = -(pi[:, None] * op.magnitudes.values * np.sin(theta)).T
        np.testing.assert_allclose(current, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(current + current.T, 0.0, atol=1e-12)


class TestAttentionGauge:
    def test_detailed_balance_gives_zero_field(self):
        _, _, d2 = random_geometry(100)
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        theta = attention_gauge(pi, dmap(d2, 1.0))
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_cycle_biased_attention_has_circulation(self):
        rng = np.random.default_rng(101)
        cloud = DataCloud(rng.standard_normal((5, 3)))
        weights = InteractionWeights(rng.standard_normal((3, 3)))
        a_plus = attention_forward(bidivergence(generalized_gram(cloud, weights)), 1.0)
        pi_plus = stationary_distribution(a_plus, tol=1e-14)
        theta = attention_gauge(pi_plus, a_plus)
        flux = pi_plus[:, None] * a_plus.values
        oracle = np.log(flux / flux.T)
        np.testing.assert_allclose(theta, oracle, rtol=0, atol=1e-12)
        assert np.abs(theta).max() > 1e-3

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(102)
        _, _, d2 = random_geometry(102)
        theta = attention_gauge(random_marginal(rng, d2.shape[0]), dmap(d2, 1.0))
        np.testing.assert_array_equal(theta, -theta.T)
