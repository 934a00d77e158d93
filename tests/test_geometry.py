"""Gram matrices, divergence pairs, distances, and phase fields."""

import numpy as np
import pytest

import markovgeom
from markovgeom.geometry import (
    Bidivergence,
    DataCloud,
    GramMatrix,
    InteractionWeights,
    bidivergence,
    edge_phases,
    generalized_gram,
    gram,
    hermitian_partition,
    squared_distance,
)
from markovgeom.verify import check_attention_equivalence, check_magnetic_operators


def gram_oracle(points):
    """Brute-force inner products, elementwise triple loop."""
    n, d = points.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for x in range(d):
                out[i, j] += points[i, x] * points[j, x]
    return out


def weighted_gram_oracle(points, w):
    """Brute-force contraction R W R^T."""
    n, d = points.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for x in range(d):
                for y in range(d):
                    out[i, j] += points[i, x] * w[x, y] * points[j, y]
    return out


def pairwise_sqdist_oracle(points):
    """Direct squared-norm loop over sample pairs."""
    n = points.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = points[i] - points[j]
            out[i, j] = float(diff @ diff)
    return out


class TestDataCloud:
    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="2 samples"):
            DataCloud(np.array([[1.0, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataCloud(np.array([[1.0], [np.nan]]))

    def test_shape_properties(self):
        cloud = DataCloud(np.zeros((5, 3)))
        assert cloud.n_samples == 5
        assert cloud.n_features == 3


class TestGram:
    def test_orthonormal_rows(self):
        g = gram(DataCloud(np.eye(2)))
        np.testing.assert_array_equal(g.values, np.eye(2))

    def test_scalar_products(self):
        g = gram(DataCloud(np.array([[1.0], [2.0]])))
        np.testing.assert_array_equal(g.values, [[1.0, 2.0], [2.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((4, 3))
        g = gram(DataCloud(pts))
        np.testing.assert_allclose(g.values, gram_oracle(pts), rtol=0, atol=1e-14)


class TestGeneralizedGram:
    def test_identity_weight_reduces_to_plain(self):
        rng = np.random.default_rng(12)
        cloud = DataCloud(rng.standard_normal((5, 3)))
        weighted = generalized_gram(cloud, InteractionWeights(np.eye(3)))
        np.testing.assert_allclose(weighted.values, gram(cloud).values, atol=1e-14)

    def test_identity_data_passes_weights_through(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        out = generalized_gram(DataCloud(np.eye(2)), InteractionWeights(w))
        np.testing.assert_array_equal(out.values, w)

    def test_matches_contraction_oracle(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 3))
        out = generalized_gram(DataCloud(pts), InteractionWeights(w))
        np.testing.assert_allclose(out.values, weighted_gram_oracle(pts, w),
                                   rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        cloud = DataCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension"):
            generalized_gram(cloud, InteractionWeights(np.eye(3)))


class TestInteractionWeights:
    def test_from_factors_materializes_product(self):
        rng = np.random.default_rng(14)
        wq = rng.standard_normal((4, 2))
        wk = rng.standard_normal((4, 2))
        weights = InteractionWeights.from_factors(wq, wk)
        np.testing.assert_allclose(weights.matrix, wq @ wk.T, atol=1e-15)
        assert weights.query_factor is wq or np.array_equal(weights.query_factor, wq)

    def test_factored_gram_associates_like_attention_scores(self):
        # the query-key association (R W_Q)(R W_K)^T keeps the divergence path
        # within 1e-12 of the raw softmax on this wide cloud; R (W_Q W_K^T) R^T
        # gave 1.03e-12 here
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((200, 128))
        wq = rng.standard_normal((128, 127))
        wk = rng.standard_normal((128, 127))
        cloud = DataCloud(pts)
        weights = InteractionWeights.from_factors(wq, wk)
        np.testing.assert_array_equal(
            generalized_gram(cloud, weights).values, (pts @ wq) @ (pts @ wk).T
        )
        check = check_attention_equivalence(cloud, 1.0)
        assert check.passed, check.parts

    def test_factor_shape_mismatch(self):
        with pytest.raises(ValueError, match="factor"):
            InteractionWeights.from_factors(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_rejects_rectangular_matrix(self):
        with pytest.raises(ValueError, match="square"):
            InteractionWeights(np.zeros((2, 3)))


class TestHermitianPartition:
    def test_symmetric_weight_kills_antisymmetric_part(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((4, 4))
        part = hermitian_partition(InteractionWeights(m + m.T))
        np.testing.assert_array_equal(part.antisymmetric, np.zeros((4, 4)))

    def test_pure_antisymmetry(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        part = hermitian_partition(InteractionWeights(w))
        np.testing.assert_array_equal(part.symmetric, np.zeros((2, 2)))
        np.testing.assert_array_equal(part.antisymmetric, w)

    def test_parts_reconstruct_weight(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((5, 5))
        part = hermitian_partition(InteractionWeights(w))
        np.testing.assert_allclose(part.symmetric + part.antisymmetric, w,
                                   rtol=0, atol=1e-15)

    def test_combined_matrix_is_hermitian(self):
        rng = np.random.default_rng(17)
        part = hermitian_partition(InteractionWeights(rng.standard_normal((4, 4))))
        v = part.matrix
        np.testing.assert_array_equal(v, v.conj().T)


class TestBidivergence:
    def test_plain_gram_example(self):
        biv = bidivergence(gram(DataCloud(np.array([[1.0], [2.0]]))))
        np.testing.assert_array_equal(biv.fwd, [[0.0, -1.0], [2.0, 0.0]])
        np.testing.assert_array_equal(biv.bwd, [[0.0, 2.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(biv.fwd + biv.bwd, [[0.0, 1.0], [1.0, 0.0]])

    def test_signed_entries_from_asymmetric_gram(self):
        biv = bidivergence(GramMatrix(np.array([[0.0, 1.0], [2.0, 0.0]])))
        np.testing.assert_array_equal(biv.fwd, [[0.0, -1.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(biv.bwd, [[0.0, -2.0], [-1.0, 0.0]])
        total = biv.fwd + biv.bwd
        np.testing.assert_array_equal(total, total.T)

    def test_self_zero_is_exact(self):
        rng = np.random.default_rng(18)
        biv = bidivergence(GramMatrix(rng.standard_normal((6, 6))))
        assert np.all(np.diag(biv.fwd) == 0.0)
        assert np.all(np.diag(biv.bwd) == 0.0)

    def test_parts_are_mutual_transposes(self):
        # holds for plain and generalized geometry: bwd is a view of fwd
        rng = np.random.default_rng(19)
        cloud = DataCloud(rng.standard_normal((7, 4)))
        plain = bidivergence(gram(cloud))
        np.testing.assert_array_equal(plain.fwd, plain.bwd.T)
        weighted = bidivergence(
            generalized_gram(cloud, InteractionWeights(rng.standard_normal((4, 4))))
        )
        np.testing.assert_array_equal(weighted.fwd, weighted.bwd.T)
        assert np.shares_memory(weighted.bwd, weighted.fwd)

    def test_backward_part_is_derived(self):
        biv = Bidivergence(np.array([[0.0, 3.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(biv.bwd, [[0.0, -1.0], [3.0, 0.0]])
        with pytest.raises(AttributeError):
            biv.bwd = np.zeros((2, 2))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Bidivergence(np.ones((2, 2)))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            Bidivergence(np.zeros((2, 3)))


class TestSquaredDistance:
    def test_coincident_points(self):
        biv = bidivergence(gram(DataCloud(np.array([[1.0, 1.0], [1.0, 1.0]]))))
        np.testing.assert_array_equal(squared_distance(biv), np.zeros((2, 2)))

    def test_three_four_five_triangle(self):
        biv = bidivergence(gram(DataCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))))
        d2 = squared_distance(biv)
        assert d2[0, 1] == 25.0
        assert d2[1, 0] == 25.0

    def test_matches_pairwise_norm_oracle(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((6, 4))
        d2 = squared_distance(bidivergence(gram(DataCloud(pts))))
        np.testing.assert_allclose(d2, pairwise_sqdist_oracle(pts), rtol=0, atol=1e-12)
        assert np.all(d2 >= 0.0)

    def test_symmetric_for_generalized_gram(self):
        rng = np.random.default_rng(21)
        cloud = DataCloud(rng.standard_normal((5, 3)))
        weights = InteractionWeights(rng.standard_normal((3, 3)))
        d2 = squared_distance(bidivergence(generalized_gram(cloud, weights)))
        np.testing.assert_array_equal(d2, d2.T)

    def test_only_symmetric_weight_part_contributes(self):
        rng = np.random.default_rng(22)
        cloud = DataCloud(rng.standard_normal((6, 4)))
        w = rng.standard_normal((4, 4))
        full = squared_distance(bidivergence(generalized_gram(cloud, InteractionWeights(w))))
        sym = squared_distance(
            bidivergence(generalized_gram(cloud, InteractionWeights((w + w.T) / 2.0)))
        )
        np.testing.assert_allclose(full, sym, rtol=0, atol=1e-12)


class TestEdgePhases:
    def test_symmetric_weight_gives_zero(self):
        rng = np.random.default_rng(23)
        cloud = DataCloud(rng.standard_normal((5, 3)))
        m = rng.standard_normal((3, 3))
        theta = edge_phases(cloud, InteractionWeights(m + m.T), beta=2.0)
        np.testing.assert_allclose(theta, 0.0, atol=1e-13)

    def test_identity_data_passes_antisymmetry_through(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        theta = edge_phases(DataCloud(np.eye(2)), InteractionWeights(w), beta=1.0)
        np.testing.assert_array_equal(theta, w)

    def test_antisymmetric_by_construction(self):
        rng = np.random.default_rng(24)
        cloud = DataCloud(rng.standard_normal((6, 3)))
        weights = InteractionWeights(rng.standard_normal((3, 3)))
        theta = edge_phases(cloud, weights, beta=0.7)
        np.testing.assert_allclose(theta + theta.T, 0.0, atol=1e-15)

    def test_scales_linearly_with_beta(self):
        rng = np.random.default_rng(25)
        cloud = DataCloud(rng.standard_normal((4, 2)))
        weights = InteractionWeights(rng.standard_normal((2, 2)))
        one = edge_phases(cloud, weights, beta=1.0)
        three = edge_phases(cloud, weights, beta=3.0)
        np.testing.assert_allclose(three, 3.0 * one, rtol=1e-15)

    def test_rejects_nonpositive_beta(self):
        cloud = DataCloud(np.eye(2))
        with pytest.raises(ValueError, match="beta"):
            edge_phases(cloud, InteractionWeights(np.eye(2)), beta=0.0)

    def test_matches_partition_route(self):
        # pushing the antisymmetric weight part through the data directly
        # gives the same edge field
        rng = np.random.default_rng(26)
        cloud = DataCloud(rng.standard_normal((6, 4)))
        weights = InteractionWeights(rng.standard_normal((4, 4)))
        part = hermitian_partition(weights)
        expected = 1.7 * cloud.points @ part.antisymmetric @ cloud.points.T
        np.testing.assert_allclose(
            edge_phases(cloud, weights, beta=1.7), expected, rtol=0, atol=1e-12
        )


def test_magnetic_check_builds_the_weighted_gram_once(monkeypatch):
    original, calls = generalized_gram, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # patch every module that binds the name, edge_phases' own module included
    for module in vars(markovgeom).values():
        if getattr(module, "generalized_gram", None) is original:
            monkeypatch.setattr(module, "generalized_gram", counting)
    cloud = DataCloud(np.random.default_rng(27).standard_normal((8, 3)))
    assert check_magnetic_operators(cloud, 1.0).passed
    assert len(calls) == 1


class TestGramMatrixType:
    def test_rejects_rectangular_values(self):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            GramMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
