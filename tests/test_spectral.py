"""Conjugation transforms, eigendecomposition, and diffusion coordinates."""

import numpy as np
import pytest

from markovgeom.bridges import stationary_distribution
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import StochasticOperator
from markovgeom.operators import (
    attention_forward,
    dmap,
    magnetic_operator,
    rbf_kernel,
)
from markovgeom.spectral import (
    _LEAD_COMPONENT_FLOOR,
    _fix_leading_phase,
    conjugate_hermitize,
    conjugate_symmetrize,
    decompose,
    diffusion_embedding,
)


def dmap_with_measure(seed, n=6, d=3, beta=1.0):
    rng = np.random.default_rng(seed)
    cloud = DataCloud(rng.standard_normal((n, d)))
    d2 = squared_distance(bidivergence(gram(cloud)))
    kernel = rbf_kernel(d2, beta).values
    pi = kernel.sum(axis=1) / kernel.sum()
    return dmap(d2, beta), pi, d2


def _fix_leading_phase_loop(vectors):
    """Reference: one column at a time, the first entry above the floor is
    rotated to the positive real axis."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        significant = np.flatnonzero(np.abs(col) > _LEAD_COMPONENT_FLOOR)
        if significant.size == 0:
            continue
        lead = col[significant[0]]
        out[:, c] = col * (np.conj(lead) / np.abs(lead))
    return out


class TestConjugateSymmetrize:
    def test_symmetric_bistochastic_is_unchanged(self):
        p = StochasticOperator(np.full((4, 4), 0.25), "bi")
        out = conjugate_symmetrize(p, np.full(4, 0.25))
        np.testing.assert_allclose(out, p.values, atol=1e-15)

    def test_output_is_symmetric(self):
        operator, pi, _ = dmap_with_measure(110)
        out = conjugate_symmetrize(operator, pi)
        assert np.abs(out - out.T).max() <= 1e-10

    def test_spectrum_preserved_against_general_solver(self):
        operator, pi, _ = dmap_with_measure(111)
        out = conjugate_symmetrize(operator, pi)
        ours = np.sort(np.linalg.eigvalsh(out))
        oracle = np.sort(np.linalg.eigvals(operator.values).real)
        np.testing.assert_allclose(ours, oracle, rtol=0, atol=1e-8)

    def test_rejects_nonreversible_operator(self):
        rng = np.random.default_rng(112)
        cloud = DataCloud(rng.standard_normal((6, 3)))
        weights = InteractionWeights(rng.standard_normal((3, 3)))
        a_plus = attention_forward(bidivergence(generalized_gram(cloud, weights)), 1.0)
        pi_plus = stationary_distribution(a_plus, tol=1e-10)
        with pytest.raises(ValueError, match="detailed balance"):
            conjugate_symmetrize(a_plus, pi_plus)


class TestConjugateHermitize:
    @staticmethod
    def phased_setup(seed, n=5):
        rng = np.random.default_rng(seed)
        operator, pi, _ = dmap_with_measure(seed, n=n)
        raw = rng.standard_normal((n, n))
        return pi, magnetic_operator(operator, raw - raw.T)

    def test_zero_phases_reduce_to_symmetrization(self):
        operator, pi, _ = dmap_with_measure(113)
        quiet = magnetic_operator(operator, np.zeros(operator.shape))
        out = conjugate_hermitize(quiet, pi)
        np.testing.assert_allclose(out, conjugate_symmetrize(operator, pi), atol=1e-15)

    def test_two_node_hermiticity(self):
        operator = dmap(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        phi = 0.83
        op = magnetic_operator(operator, np.array([[0.0, phi], [-phi, 0.0]]))
        out = conjugate_hermitize(op, np.full(2, 0.5))
        np.testing.assert_allclose(out[0, 1], np.conj(out[1, 0]), atol=1e-15)

    def test_hermitian_with_real_spectrum(self):
        pi, op = self.phased_setup(114)
        out = conjugate_hermitize(op, pi)
        assert np.abs(out - out.conj().T).max() <= 1e-10
        eigenvalues = np.linalg.eig(out)[0]
        assert np.abs(eigenvalues.imag).max() <= 1e-10


class TestDecompose:
    def test_uniform_operator_is_rank_one(self):
        n = 5
        p = StochasticOperator(np.full((n, n), 1.0 / n), "bi")
        pi = np.full(n, 1.0 / n)
        dec = decompose(conjugate_symmetrize(p, pi), pi)
        np.testing.assert_allclose(dec.eigenvalues[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(dec.eigenvalues[1:], 0.0, atol=1e-12)

    def test_two_point_second_eigenvalue_analytic(self):
        operator, pi, _ = dmap_with_measure(115)
        d2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        kernel = rbf_kernel(d2, 1.0).values
        two_pi = kernel.sum(axis=1) / kernel.sum()
        dec = decompose(conjugate_symmetrize(dmap(d2, 1.0), two_pi), two_pi)
        q = np.exp(-1.0)
        assert abs(dec.eigenvalues[1] - (1.0 - q) / (1.0 + q)) <= 1e-12

    def test_top_pair_is_trivial(self):
        operator, pi, _ = dmap_with_measure(116)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        assert abs(dec.eigenvalues[0] - 1.0) <= 1e-10
        top = dec.right_vectors[:, 0]
        assert np.abs(top - top[0]).max() <= 1e-8

    def test_biorthogonality_and_reconstruction(self):
        operator, pi, _ = dmap_with_measure(117)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        n = pi.shape[0]
        np.testing.assert_allclose(
            dec.left_vectors.T @ dec.right_vectors, np.eye(n), atol=1e-8
        )
        rebuilt = dec.right_vectors @ np.diag(dec.eigenvalues) @ dec.left_vectors.T
        assert np.abs(rebuilt - operator.values).max() <= 1e-8

    def test_eigenvalues_within_unit_interval(self):
        for seed in (118, 119, 120):
            operator, pi, _ = dmap_with_measure(seed)
            dec = decompose(conjugate_symmetrize(operator, pi), pi)
            assert dec.eigenvalues.max() <= 1.0 + 1e-10
            assert dec.eigenvalues.min() >= -1.0 - 1e-10

    def test_repeated_decomposition_is_bitwise_identical(self):
        operator, pi, _ = dmap_with_measure(121)
        sym = conjugate_symmetrize(operator, pi)
        first = decompose(sym, pi)
        second = decompose(sym, pi)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.right_vectors, second.right_vectors)
        np.testing.assert_array_equal(first.left_vectors, second.left_vectors)

    def test_leading_component_sign_convention(self):
        operator, pi, _ = dmap_with_measure(122)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        for c in range(dec.right_vectors.shape[1]):
            column = dec.right_vectors[:, c] * np.sqrt(pi)
            lead = column[np.flatnonzero(np.abs(column) > 1e-12)[0]]
            assert lead > 0.0

    @pytest.mark.parametrize("n", [2, 7, 50, 300])
    @pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
    def test_matches_sorted_loop_reference_bitwise(self, n, hermitian):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        if hermitian:
            a = a + 1j * rng.standard_normal((n, n))
        mat = (a + a.conj().T) / 2
        pi = rng.uniform(0.5, 1.5, n)
        pi /= pi.sum()
        self._assert_matches_reference(mat, pi)

    def test_degenerate_diagonal_matches_reference_bitwise(self):
        self._assert_matches_reference(np.diag([1.0, 0.5, 0.5, 0.5, 0.2]), np.full(5, 0.2))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leading_phase_skips_entries_below_floor(self, dtype):
        rng = np.random.default_rng(124)
        vectors = rng.standard_normal((6, 5)).astype(dtype)
        if dtype is complex:
            vectors += 1j * rng.standard_normal((6, 5))
        vectors[:3, 1] = [1e-13, -5e-13, 0.0]  # leading entries below the floor
        vectors[:, 2] = -1e-14                  # no significant entry at all
        vectors[:, 4] = 0.0
        vectors[0, 3] = -0.7
        expected = _fix_leading_phase_loop(vectors)
        fixed = vectors.copy()
        _fix_leading_phase(fixed)
        np.testing.assert_array_equal(fixed, expected)
        np.testing.assert_array_equal(fixed[:, [2, 4]], vectors[:, [2, 4]])

    @staticmethod
    def _assert_matches_reference(mat, pi):
        eigenvalues, vectors = np.linalg.eigh(mat)
        order = np.argsort(eigenvalues, kind="stable")[::-1]
        vectors = _fix_leading_phase_loop(vectors[:, order])
        root = np.sqrt(pi)
        dec = decompose(mat, pi)
        np.testing.assert_array_equal(dec.eigenvalues, eigenvalues[order])
        np.testing.assert_array_equal(dec.right_vectors, vectors / root[:, None])
        np.testing.assert_array_equal(dec.left_vectors, vectors * root[:, None])

    def test_rejects_non_hermitian_input(self):
        rng = np.random.default_rng(123)
        with pytest.raises(ValueError, match="Hermitian"):
            decompose(rng.standard_normal((4, 4)), np.full(4, 0.25))

    def test_magnetic_decomposition_reconstructs(self):
        rng = np.random.default_rng(124)
        operator, pi, _ = dmap_with_measure(124, n=5)
        raw = 0.4 * rng.standard_normal((5, 5))
        op = magnetic_operator(operator, raw - raw.T)
        dec = decompose(conjugate_hermitize(op, pi), pi)
        assert dec.is_complex
        assert np.abs(dec.eigenvalues.imag).max() == 0.0  # eigh returns real spectrum
        rebuilt = dec.right_vectors @ np.diag(dec.eigenvalues) @ dec.left_vectors.conj().T
        assert np.abs(rebuilt - op.matrix).max() <= 1e-8


class TestDiffusionEmbedding:
    def test_time_zero_returns_raw_eigenvectors(self):
        operator, pi, _ = dmap_with_measure(125)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        emb = diffusion_embedding(dec, t=0.0, k=3)
        np.testing.assert_array_equal(emb.coordinates, dec.right_vectors[:, 1:4])

    def test_two_clusters_separate_by_sign(self):
        base = np.array([[0.0, 0.0], [0.1, 0.05], [-0.07, 0.09], [0.05, -0.08]])
        cloud = DataCloud(np.vstack([base, base + np.array([6.0, 0.0])]))
        d2 = squared_distance(bidivergence(gram(cloud)))
        kernel = rbf_kernel(d2, 1.0).values
        pi = kernel.sum(axis=1) / kernel.sum()
        dec = decompose(conjugate_symmetrize(dmap(d2, 1.0), pi), pi)
        coord = diffusion_embedding(dec, t=1.0, k=1).coordinates[:, 0]
        assert np.ptp(np.sign(coord[:4])) == 0.0
        assert np.ptp(np.sign(coord[4:])) == 0.0
        assert np.sign(coord[0]) == -np.sign(coord[-1])

    def test_doubling_time_damps_by_eigenvalue_power(self):
        operator, pi, _ = dmap_with_measure(126)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        once = diffusion_embedding(dec, t=1.0, k=2).coordinates
        twice = diffusion_embedding(dec, t=2.0, k=2).coordinates
        np.testing.assert_allclose(
            twice, once * dec.eigenvalues[1:3][None, :], rtol=0, atol=1e-14
        )

    def test_k_out_of_range_rejected(self):
        operator, pi, _ = dmap_with_measure(127)
        dec = decompose(conjugate_symmetrize(operator, pi), pi)
        with pytest.raises(ValueError, match="k out of range"):
            diffusion_embedding(dec, t=1.0, k=pi.shape[0])

    def test_fractional_time_with_negative_eigenvalue_rejected(self):
        # two well-separated points at large beta push the second eigenvalue
        # toward +1, so build a small operator with a negative mode directly
        values = np.array([[0.1, 0.9], [0.9, 0.1]])
        p = StochasticOperator(values, "row")
        pi = np.full(2, 0.5)
        dec = decompose(conjugate_symmetrize(p, pi), pi)
        assert dec.eigenvalues[1] < 0.0
        with pytest.raises(ValueError, match="fractional"):
            diffusion_embedding(dec, t=0.5, k=1)
        emb = diffusion_embedding(dec, t=2.0, k=1)
        assert np.all(np.isfinite(emb.coordinates))
