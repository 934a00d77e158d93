"""Bridge solver, Doob transforms, currents, regimes, and the factorizations."""

import logging
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markovgeom import bridges, verify
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
from markovgeom.normalize import (
    ConvergenceError,
    StochasticOperator,
    softmax_rows,
)
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


def exact_stationary(values):
    """Fixed point of the exact chain (P off the diagonal, the GTH diagonal)
    by GTH elimination in rational arithmetic, as Fractions: every float
    entry converts exactly and no operation rounds.  For n <= 10 only."""
    a = [[Fraction(v) for v in row] for row in np.asarray(values).tolist()]
    n = len(a)
    for k in range(n - 1, 0, -1):
        mass = sum(a[k][:k])
        for i in range(k):
            a[i][k] /= mass
            for j in range(k):
                if j != i:
                    a[i][j] += a[i][k] * a[k][j]
    pi = [Fraction(1)]
    for k in range(1, n):
        pi.append(sum(pi[i] * a[i][k] for i in range(k)))
    total = sum(pi)
    return [x / total for x in pi]


def exact_error(pi, exact):
    """max |pi_i - exact_i| without rounding."""
    return max(abs(Fraction(float(x)) - e) for x, e in zip(pi, exact))


def wide_chain(seed):
    """A chain on 2 to 10 states whose entries span up to about 250 orders of
    magnitude: row-normalized exp(spread * normal), with symmetric logits (a
    reversible chain) for half the seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    logits = (0.3, 3.0, 30.0, 100.0)[seed % 4] * rng.standard_normal((n, n))
    if seed % 8 >= 4:
        logits = (logits + logits.T) / 2.0
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


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

    def test_rounding_miss_of_the_built_coupling_is_swept_past(self, core_rounds):
        # seed 264 of tests/verify_sweep.py at beta auto, with the sink and
        # source marginals of verify's C10: the scaling stops at a residual
        # of 9.9987e-13, and the coupling built from its potentials read
        # 1.001e-12, so verify exited 3 at C10 on a correct library.  Formed
        # on the kernel the core measured, the coupling reads 9.9988e-13:
        # one round of the core
        rng = np.random.default_rng(264)
        n, d = rng.integers(3, 120), rng.integers(1, 9)
        points = rng.standard_normal((n, d)) * rng.uniform(0.3, 3)
        k = rng.integers(1, 4)
        points[:k] += 20 * rng.standard_normal((k, d))
        d2 = squared_distance(bidivergence(gram(DataCloud(points))))
        beta = 1.0 / float(np.median(d2[~np.eye(n, dtype=bool)]))
        marginals = np.random.default_rng(verify._SEED + 10)
        mu_plus = random_marginal(marginals, n)
        mu_minus = random_marginal(marginals, n)
        kernel = rbf_kernel(d2, beta).values
        bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=1e-12, max_iter=100_000)
        assert len(core_rounds) == 1
        assert np.abs(bridge.coupling.sum(axis=1) - mu_plus).max() <= 1e-12
        assert np.abs(bridge.coupling.sum(axis=0) - mu_minus).max() <= 1e-12

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
        np.testing.assert_array_equal(bridge.forward.values, dmap(d2, 0.9).values)

    def test_defined_where_the_kernel_underflows(self):
        # exp(-200 d2) underflows to zero for the farthest pairs, so the
        # kernel cannot be formed; the diffusion operator and its measure can
        _, _, d2 = random_geometry(79, n=50)
        with pytest.raises(ValueError, match="kernel underflowed"):
            rbf_kernel(d2, 200.0)
        bridge = dmap_as_bridge(d2, beta=200.0)
        operator = dmap(d2, 200.0).values
        np.testing.assert_array_equal(bridge.forward.values, operator)
        np.testing.assert_array_equal(bridge.coupling, bridge.mu_plus[:, None] * operator)
        np.testing.assert_array_equal(bridge.potentials.u, bridge.mu_plus * np.diag(operator))
        assert bridge.potentials.residual <= 1e-15


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

    def test_verify_exact_part_fails_when_a_constant_h_renormalizes(self, monkeypatch):
        # a constant h that renormalizes the rows by their rounded sums, in
        # the operator's own array, still returns that array: only an
        # operator built apart from it shows the change
        real = verify.doob_transform

        def renormalizing(p_plus, h):
            if np.all(h == h[0]):
                p_plus.values[...] /= p_plus.values.sum(axis=1, keepdims=True)
                return p_plus
            return real(p_plus, h)

        cloud = DataCloud(np.random.default_rng(82).standard_normal((8, 3)))
        assert verify.check_doob_transform(cloud, 1.0).passed
        monkeypatch.setattr(verify, "doob_transform", renormalizing)
        result = verify.check_doob_transform(cloud, 1.0)
        failed = [part["label"] for part in result.parts if not part["passed"]]
        assert failed == ["unit reweighting is the identity transform (exact)"]

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

    def test_rounding_below_zero_is_clipped(self):
        # two far clusters under indefinite weights: the exact measure has
        # entries near 1e-30, which the solve returns as about -8.5e-17
        points = np.vstack([np.random.default_rng(8).standard_normal((10, 2)),
                            np.random.default_rng(9).standard_normal((10, 2)) + 12.0])
        weights = InteractionWeights(np.random.default_rng(1).standard_normal((2, 2)))
        biv = bidivergence(generalized_gram(DataCloud(points), weights))
        d2 = squared_distance(biv)
        beta = 1.0 / float(np.median(d2[~np.eye(20, dtype=bool)]))
        p = attention_forward(biv, beta)
        pi = stationary_distribution(p, tol=1e-10)
        assert pi.min() == 0.0
        assert float(np.abs(pi @ p.values - pi).max()) <= 1e-10
        report = classify_regime(p, pi, pi)
        assert report.regime in ("EQ", "NESS")

    @pytest.mark.parametrize("n", [16, 17, 33])
    def test_operator_is_left_unchanged(self, n, caplog):
        # the detailed-balance scan reads mirror strips of 16 columns; with
        # n = 17 or 33 the last one is a single row and already contiguous
        _, _, d2 = random_geometry(88, n=n)
        p = dmap(d2, 3.0)
        before = p.values.copy()
        with caplog.at_level(logging.DEBUG, logger="markovgeom.bridges"):
            stationary_distribution(p)
        assert caplog.records[-1].getMessage().startswith(
            "stationary measure: reversibility certificate")
        np.testing.assert_array_equal(p.values, before)

    def test_two_state_chain_solved_by_hand(self):
        p = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        pi = stationary_distribution(p, tol=1e-14)
        np.testing.assert_allclose(pi, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    @staticmethod
    def _cycle(t0, t1, t2):
        """A three-state cycle with halves on and next to the diagonal and a
        small entry in each column, so Doeblin's alpha is their sum."""
        return np.array([[0.5, 0.5, t0], [t1, 0.5, 0.5], [0.5, t2, 0.5]])

    @pytest.mark.parametrize("exit_taken", ["alpha <= 0", "reachable <= 0", "ratio floor",
                                            "one state"])
    def test_early_exits_fall_through_to_a_certified_rung(self, exit_taken, caplog):
        # each chain leaves a cheap rung at one of its early exits; the rung
        # that answers must still be within tol of the GTH point
        if exit_taken == "alpha <= 0":
            # rows 1e-7 above 1 outweigh column minima summing to 3e-9
            values = self._cycle(1e-9, 1e-9, 1e-9) + 1e-7 * np.eye(3)
            tol = 1e-6
            assert values.min(axis=0).sum() < (values.sum(axis=1) - 1.0).sum()
        elif exit_taken == "reachable <= 0":
            # rows 1e-7 short of 1: that defect alone exceeds 2 alpha tol
            values = np.random.default_rng(3).uniform(0.5, 1.5, (5, 5))
            values /= values.sum(axis=1, keepdims=True)
            values *= 1.0 - 1e-7
            tol = 1e-8
            assert 2.0 * values.min(axis=0).sum() * tol < 1e-7
        elif exit_taken == "ratio floor":
            # P_02 / P_20 = 2e-310, far below 2^-1000; column minima of about
            # 2e-12 send the Doeblin rung away before its first step
            values = self._cycle(1e-310, 1e-12, 1e-12)
            tol = 1e-6
            assert values[0, 2] / values[2, 0] < 2.0 ** -1000
        else:
            # the Doeblin rounding terms alone exceed 3e-16, and no flow
            # ratio exists to check; the LU bound, eps, meets it
            values = np.ones((1, 1))
            tol = 3e-16
        p = StochasticOperator(values, "row")
        assert bridges._doeblin(values, values.min(axis=0), tol) is None
        assert bridges._reversible(values, tol) is None
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            pi = stationary_distribution(p, tol=tol)
        [record] = [r.getMessage() for r in caplog.records]
        assert record.startswith("stationary measure: direct solve")
        assert np.abs(pi - gth_stationary(values)).max() <= tol

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
        # a well-mixed attention chain, a two-cluster diffusion operator (EQ), a
        # two-cluster attention chain (NESS) and a tol below rounding
        fast, _ = two_cluster_geometry(120, seed=3, offset=0.0, weighted=True)
        _, slow = two_cluster_geometry(120)
        split, _ = two_cluster_geometry(120, seed=0, offset=3.0, weighted=True)
        two_state = StochasticOperator(np.array([[0.9, 0.1], [0.5, 0.5]]), "row")
        with caplog.at_level(logging.DEBUG, logger="markovgeom"):
            stationary_distribution(attention_forward(fast, 0.02))
            stationary_distribution(dmap(slow, 1.0))
            stationary_distribution(attention_forward(split, 1.0))
            with pytest.raises(ConvergenceError):
                stationary_distribution(two_state, tol=1e-30)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 4
        lu = r"direct solve \(inverse norm \d\.\de[+-]\d\d\)"
        for message, rung in zip(messages, (
                r"Doeblin certificate after \d+ power steps",
                "reversibility certificate",
                lu,
                lu)):
            assert re.fullmatch(f"stationary measure: {rung}, error bound (\\S+)", message)
        bounds = [float(message.rsplit(" ", 1)[1]) for message in messages]
        assert max(bounds[:3]) <= 1e-12 and bounds[3] > 1e-30

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

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), reversible=st.booleans(),
           spread=st.floats(0.0, 10.0), tol=st.sampled_from([1e-4, 1e-8, 1e-12]))
    def test_random_positive_chain_meets_tol_or_raises(self, seed, n, reversible, spread, tol):
        # log-normal weights, symmetric for an EQ chain (D^-1 W is reversible
        # for the row sums of a symmetric W) and unconstrained for a NESS one;
        # a wide spread makes the chain nearly decomposable
        logits = spread * np.random.default_rng(seed).standard_normal((n, n))
        if reversible:
            logits = (logits + logits.T) / 2.0
        weights = np.exp(logits)
        p = StochasticOperator(weights / weights.sum(axis=1, keepdims=True), "row")
        try:
            pi = stationary_distribution(p, tol=tol)
        except ConvergenceError:
            return
        assert np.abs(pi - gth_stationary(p.values)).max() <= tol

    def test_nearly_decomposable_chain_raises(self, caplog):
        # two blocks coupled at 1e-9: no residual in double precision pins the
        # fixed point to 1e-12, so the solver raises instead of guessing.  The
        # one raise of the ladder leads with the LU's debug name, and the
        # record carries the same inverse-norm estimate and bound
        rng = np.random.default_rng(5)
        p = rng.uniform(0.5, 1.5, (8, 8))
        p[:4, 4:] *= 1e-9
        p[4:, :4] *= 3e-9
        p /= p.sum(axis=1, keepdims=True)
        with caplog.at_level(logging.DEBUG, logger="markovgeom"), \
                pytest.raises(ConvergenceError) as excinfo:
            stationary_distribution(StochasticOperator(p, "row"), tol=1e-12)
        bound = f"{excinfo.value.residual:.3e}"
        match = re.fullmatch(
            r"stationary distribution misses tol after a direct solve "
            r"\(inverse norm (\d\.\de[+-]\d\d)\): error bound (\S+) > tol 1\.000e-12 "
            r"after 1 iterations", str(excinfo.value))
        assert match and match[2] == bound and excinfo.value.iterations == 1
        [record] = [r.getMessage() for r in caplog.records]
        assert record == (f"stationary measure: direct solve (inverse norm {match[1]}), "
                          f"error bound {bound}")

    def test_rejects_operators_with_zero_entries(self):
        p = StochasticOperator(np.array([[1.0, 0.0], [0.5, 0.5]]), "row")
        with pytest.raises(ValueError, match="positive"):
            stationary_distribution(p)


class TestExactOracle:
    """Every rung of the stationary ladder against the exact fixed point."""

    TOLS = (1e-2, 1e-6, 1e-10, 1e-14)

    @pytest.fixture(scope="class")
    def chains(self):
        return [(values, exact_stationary(values)) for values in map(wide_chain, range(160))]

    def test_rigorous_bounds_cover_the_exact_error(self, chains):
        # each Doeblin or reversibility candidate, whether or not its bound
        # meets tol, is within its bound of the exact point: no slack allowed
        proposed = {"Doeblin": 0, "reversibility": 0}
        for values, exact in chains:
            for tol in self.TOLS:
                for rung, found in (
                        ("Doeblin", bridges._doeblin(values, values.min(axis=0), tol)),
                        ("reversibility", bridges._reversible(values, tol))):
                    if found is not None:
                        proposed[rung] += 1
                        assert exact_error(found.pi, exact) <= Fraction(found.bound)
        assert min(proposed.values()) >= 100, proposed

    def test_accepted_lu_answers_are_within_tol(self, chains):
        # the LU bound is an estimate (sign probes), so only its acceptance
        # is held to the exact point; its one solve does not depend on tol
        accepted = 0
        for values, exact in chains:
            found = bridges._direct(values)
            for tol in self.TOLS:
                if found.bound <= tol:
                    accepted += 1
                    assert exact_error(found.pi, exact) <= tol
        assert accepted >= 300

    @pytest.mark.parametrize("tol", [1e17, 1e100, 1e300])
    @pytest.mark.parametrize("a, b", [(0.3, 0.6), (1e-12, 0.5), (0.999, 1e-200)])
    def test_reversibility_rung_where_the_tree_bound_saturates(self, a, b, tol):
        # at n = 2 and tol >= 1e17, d = tanh(log1p(allowed) / 2) rounds to 1,
        # so the strip test admits every ratio up to its largest limit
        values = np.array([[1.0 - a, a], [b, 1.0 - b]])
        assert np.tanh(np.log1p(tol / 2.0) / 2.0) == 1.0
        with np.errstate(all="raise"):
            found = bridges._reversible(values, tol)
        assert np.isfinite(found.bound)
        assert exact_error(found.pi, exact_stationary(values)) <= Fraction(found.bound)

    def test_largest_accepted_ratio_keeps_delta_below_one(self):
        # three states at tol 1e300 (d rounds to 1): bisect P_12 over the
        # floats to the last chain whose ratio r_12 = 1 + worst passes the
        # strip test, so worst sits within a few ulps of the limit
        # 0.9999999989999991, where delta is largest
        def chain(p12):
            values = np.full((3, 3), 0.3) + 0.1 * np.eye(3)
            values[1, 2] = p12
            return values

        lo, hi = np.array([0.45, 0.75]).view(np.int64)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bridges._reversible(chain(np.int64(mid).view(float)), 1e300) is None:
                hi = mid
            else:
                lo = mid
        values = chain(np.int64(lo).view(float))
        pi = values[0] / values[:, 0]
        pi /= pi.sum()
        worst = float(values[1, 2] / values[2, 1] * pi[1] / pi[2]) - 1.0
        assert 0.9999999989999991 - 4e-16 <= worst <= 0.9999999989999991
        with np.errstate(all="raise"):
            found = bridges._reversible(values, 1e300)
        assert np.isfinite(found.bound) and found.bound <= 1e300
        assert exact_error(found.pi, exact_stationary(values)) <= Fraction(found.bound)
        assert bridges._reversible(chain(np.int64(hi).view(float)), 1e300) is None


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
    @pytest.mark.parametrize("seed", [7, 299, 216, 228, 86])
    def test_max_current_is_the_largest_absolute_current_on_outlier_chains(self, seed):
        p = outlier_chain(seed)
        pi = gth_stationary(p.values)
        report = classify_regime(p, pi, pi)
        assert report.max_current == float(np.abs(report.currents).max())

    def test_max_current_is_the_largest_absolute_current_in_verify(self, monkeypatch):
        reports = []

        def record(*args, **kwargs):
            reports.append(classify_regime(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(verify, "classify_regime", record)
        cloud = DataCloud(np.random.default_rng(171).standard_normal((12, 2)))
        assert verify.check_dmap_equilibrium(cloud, 1.0).passed
        assert verify.check_attention_bridge(cloud, 1.0).passed
        assert len(reports) == 2
        for report in reports:
            assert report.max_current == float(np.abs(report.currents).max())

    def test_dmap_pair_is_equilibrium(self):
        _, _, d2 = random_geometry(85)
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        report = classify_regime(dmap(d2, 1.0), pi, pi)
        assert report.regime == "EQ"
        assert report.max_current <= report.current_threshold

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
        assert report.marginal_gap > 0.0

    def test_equal_marginals_the_operator_moves_are_nonstationary(self):
        # uniform is not the diffusion operator's stationary measure: equal
        # marginals alone do not make a steady state
        _, _, d2 = random_geometry(89)
        n = d2.shape[0]
        uniform = np.full(n, 1.0 / n)
        report = classify_regime(dmap(d2, 1.0), uniform, uniform)
        assert report.marginal_gap == 0.0
        assert report.stationarity_residual > 1e-3
        assert report.regime == "NE"

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
    def test_invalid_tol_is_rejected(self, tol):
        _, _, d2 = random_geometry(85)
        pi = np.full(d2.shape[0], 1.0 / d2.shape[0])
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            classify_regime(dmap(d2, 1.0), pi, pi, tol=tol)

    def test_currents_within_tol_are_solver_error(self):
        # a symmetric kernel's bridge between equal marginals is EQ in exact
        # arithmetic; solved to 1e-4, its currents are of that order
        _, _, d2 = random_geometry(90, n=40)
        uniform = np.full(40, 1.0 / 40)
        bridge = solve_bridge(rbf_kernel(d2, 1.0).values, uniform, uniform, tol=1e-4)
        report = classify_regime(bridge.forward, uniform, uniform, tol=2e-4)
        assert report.max_current > 1e-9 * float(bridge.coupling.max())
        assert report.current_threshold == 2e-4
        assert report.regime == "EQ"

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
        mu_plus = random_marginal(rng, biv.fwd.shape[0])
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
        mu_plus = random_marginal(rng, biv.fwd.shape[0])
        mu_minus = random_marginal(rng, biv.fwd.shape[0])
        bridge = attention_bridge(biv, 1.0, mu_plus, mu_minus, tol=1e-12)
        psi = np.log(bridge.potentials.v)
        biased = softmax_rows(-1.0 * biv.fwd + psi[None, :])
        np.testing.assert_allclose(
            bridge.forward.values, biased.values, rtol=0, atol=1e-10
        )

    def test_forward_is_doob_transform_of_attention(self):
        rng, biv = self.asymmetric_setup(95)
        mu_plus = random_marginal(rng, biv.fwd.shape[0])
        mu_minus = random_marginal(rng, biv.fwd.shape[0])
        bridge = attention_bridge(biv, 1.0, mu_plus, mu_minus, tol=1e-12)
        transformed = doob_transform(attention_forward(biv, 1.0), bridge.potentials.v)
        np.testing.assert_allclose(
            bridge.forward.values, transformed.values, rtol=0, atol=1e-10
        )

    def test_perturbed_sink_marginal_breaks_equality(self):
        rng, biv = self.asymmetric_setup(96)
        a_plus = attention_forward(biv, 1.0)
        mu_plus = random_marginal(rng, biv.fwd.shape[0])
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
