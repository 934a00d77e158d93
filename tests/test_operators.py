"""Kernel and Markov operator constructions and their cross-identities."""

import inspect

import numpy as np
import pytest

import markovgeom
from markovgeom.bridges import (
    attention_bridge,
    dmap_as_bridge,
    poe_factorization,
    sb_factorization_check,
)
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    edge_phases,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import ConvergenceError, StochasticOperator, softmax_rows
from markovgeom.operators import (
    ComplexOperator,
    _gaussian_logits,
    _max_hermitian_gap,
    _polar,
    attention_bistochastic,
    attention_forward,
    dmap,
    dmap_bistochastic,
    directional_kernels,
    magnetic_operator,
    rbf_kernel,
)
from markovgeom.verify import run_identity_checks


def random_geometry(seed, n=6, d=3):
    rng = np.random.default_rng(seed)
    cloud = DataCloud(rng.standard_normal((n, d)))
    biv = bidivergence(gram(cloud))
    return cloud, biv, squared_distance(biv)


def _beta_calls():
    """Each public function that takes beta, called with it and valid other arguments."""
    cloud, biv, d2 = random_geometry(70)
    weights = InteractionWeights(np.random.default_rng(71).standard_normal((3, 3)))
    mu = np.full(6, 1.0 / 6.0)
    return {
        "rbf_kernel": lambda beta: rbf_kernel(d2, beta),
        "directional_kernels": lambda beta: directional_kernels(biv, beta),
        "attention_forward": lambda beta: attention_forward(biv, beta),
        "attention_bistochastic": lambda beta: attention_bistochastic(biv, beta),
        "dmap": lambda beta: dmap(d2, beta),
        "dmap_bistochastic": lambda beta: dmap_bistochastic(d2, beta),
        "edge_phases": lambda beta: edge_phases(cloud, weights, beta),
        "sb_factorization_check": lambda beta: sb_factorization_check(biv, beta),
        "poe_factorization": lambda beta: poe_factorization(biv, beta),
        "dmap_as_bridge": lambda beta: dmap_as_bridge(d2, beta),
        "attention_bridge": lambda beta: attention_bridge(biv, beta, mu, mu),
        "run_identity_checks": lambda beta: run_identity_checks(cloud, beta),
    }


class TestBeta:
    def test_every_public_beta_function_is_covered(self):
        takes_beta = {name for name in markovgeom.__all__
                      if callable(obj := getattr(markovgeom, name))
                      and "beta" in inspect.signature(obj).parameters}
        assert takes_beta == set(_beta_calls())

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", list(_beta_calls()))
    def test_beta_must_be_finite_and_positive(self, name, beta):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            _beta_calls()[name](beta)


class TestRbfKernel:
    def test_zero_distances_give_all_ones(self):
        kernel = rbf_kernel(np.zeros((3, 3)), beta=2.0)
        np.testing.assert_array_equal(kernel.values, np.ones((3, 3)))

    def test_high_temperature_limit(self):
        _, _, d2 = random_geometry(50)
        kernel = rbf_kernel(d2, beta=1e-12)
        np.testing.assert_allclose(kernel.values, 1.0, atol=1e-10)

    def test_analytic_two_by_two(self):
        kernel = rbf_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=1.0)
        e = np.exp(-1.0)
        np.testing.assert_allclose(kernel.values, [[1.0, e], [e, 1.0]], atol=1e-16)

    def test_unit_diagonal_and_symmetry(self):
        _, _, d2 = random_geometry(51)
        kernel = rbf_kernel(d2, beta=0.5)
        np.testing.assert_array_equal(np.diag(kernel.values), np.ones(d2.shape[0]))
        np.testing.assert_array_equal(kernel.values, kernel.values.T)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            rbf_kernel(np.array([[0.0, 1.0], [2.0, 0.0]]), beta=1.0)

    def test_near_exact_input_is_projected_for_every_constructor(self):
        # one ulp off in the upper triangle, and a diagonal entry off by a
        # rounding: each constructor sees (d2 + d2^T) / 2 with a zero diagonal
        _, _, d2 = random_geometry(53)
        exact = d2.copy()
        d2[0, 3] = np.nextafter(d2[0, 3], np.inf)
        d2[2, 2] = 1e-15
        projected = (d2 + d2.T) / 2.0
        np.fill_diagonal(projected, 0.0)
        kernel = rbf_kernel(d2, beta=0.5).values
        np.testing.assert_array_equal(kernel, kernel.T)
        np.testing.assert_array_equal(np.diag(kernel), np.ones(d2.shape[0]))
        np.testing.assert_array_equal(kernel, rbf_kernel(projected, beta=0.5).values)
        np.testing.assert_array_equal(dmap(d2, 0.5).values, dmap(projected, 0.5).values)
        np.testing.assert_array_equal(dmap_bistochastic(d2, 0.5).values,
                                      dmap_bistochastic(projected, 0.5).values)
        assert _gaussian_logits(exact, 0.5)[0] is exact  # an exact d2 is not copied

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            rbf_kernel(np.array([[1.0, 0.0], [0.0, 1.0]]), beta=1.0)

    def test_overflow_from_negative_squared_distances_is_named(self):
        # an indefinite weighted geometry gives negative "squared distances";
        # exp(800) overflows, and the error names it and beta, with no warning
        with pytest.raises(ValueError, match="overflowed: beta=1 "):
            rbf_kernel(np.array([[0.0, -800.0], [-800.0, 0.0]]), beta=1.0)

    def test_rejects_asymmetry_in_a_far_off_diagonal_tile(self):
        _, _, d2 = random_geometry(52, n=600)
        assert _max_hermitian_gap(d2) == 0.0
        d2[3, 590] += 1e-9 * np.abs(d2).max()
        assert _max_hermitian_gap(d2) == float(np.abs(d2 - d2.T).max())
        with pytest.raises(ValueError, match="symmetric"):
            rbf_kernel(d2, beta=1.0)
        with pytest.raises(ValueError, match="symmetric"):
            dmap(d2, beta=1.0)

    @pytest.mark.parametrize("n", [1, 2, 255, 257, 600])
    def test_hermitian_gap_equals_full_difference(self, n):
        rng = np.random.default_rng(n)
        real = rng.standard_normal((n, n))
        cplx = real + 1j * rng.standard_normal((n, n))
        for matrix in (real, cplx, (cplx + cplx.conj().T) / 2):
            assert _max_hermitian_gap(matrix) == float(np.abs(matrix - matrix.conj().T).max())
        real[n - 1, 0] = np.nan
        assert np.isnan(_max_hermitian_gap(real))


class TestDirectionalKernels:
    def test_zero_divergences_give_ones(self):
        _, biv, _ = random_geometry(52)
        zero = bidivergence(gram(DataCloud(np.ones((3, 2)))))
        fwd, bwd = directional_kernels(zero, beta=1.0)
        np.testing.assert_array_equal(fwd, np.ones((3, 3)))
        np.testing.assert_array_equal(bwd, np.ones((3, 3)))

    def test_hadamard_product_reproduces_rbf(self):
        _, biv, d2 = random_geometry(53)
        fwd, bwd = directional_kernels(biv, beta=1.3)
        np.testing.assert_allclose(
            fwd * bwd, rbf_kernel(d2, 1.3).values, rtol=0, atol=1e-12
        )

    def test_entries_exceed_one_for_negative_divergence(self):
        # signed divergences allow kernel entries above 1
        biv = bidivergence(gram(DataCloud(np.array([[1.0], [2.0]]))))
        fwd, _ = directional_kernels(biv, beta=1.0)
        assert fwd[0, 1] == np.exp(1.0)

    def test_unit_diagonals(self):
        _, biv, _ = random_geometry(54)
        fwd, bwd = directional_kernels(biv, beta=2.0)
        np.testing.assert_array_equal(np.diag(fwd), np.ones(biv.fwd.shape[0]))
        np.testing.assert_array_equal(np.diag(bwd), np.ones(biv.fwd.shape[0]))

    def test_backward_kernel_is_the_forward_transpose(self):
        _, biv, _ = random_geometry(55)
        fwd, bwd = directional_kernels(biv, beta=0.7)
        np.testing.assert_array_equal(bwd, np.exp(-0.7 * biv.bwd))
        assert np.shares_memory(fwd, bwd)

    def test_overflow_raises_instead_of_nan_product(self):
        # two points far from the origin: a unit distance but signed
        # divergences of -1000 and 1001, so exp(1000) overflows while the
        # distance kernel exp(-1) is fine; inf * exp(-1001) = inf * 0 is NaN
        biv = bidivergence(gram(DataCloud(np.array([[1000.0], [1001.0]]))))
        assert rbf_kernel(squared_distance(biv), 1.0).values[0, 1] == np.exp(-1.0)
        with pytest.raises(ValueError, match="overflow"):
            directional_kernels(biv, beta=1.0)


class TestAttentionForward:
    def test_zero_divergence_gives_uniform_rows(self):
        zero = bidivergence(gram(DataCloud(np.ones((4, 2)))))
        out = attention_forward(zero, beta=1.0)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_matches_query_key_path(self):
        rng = np.random.default_rng(55)
        cloud = DataCloud(rng.standard_normal((4, 3)))
        wq = rng.standard_normal((3, 2))
        wk = rng.standard_normal((3, 2))
        weights = InteractionWeights.from_factors(wq, wk)
        biv = bidivergence(generalized_gram(cloud, weights))
        scores = (cloud.points @ wq) @ (cloud.points @ wk).T
        for beta in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(
                attention_forward(biv, beta).values,
                softmax_rows(beta * scores).values,
                rtol=0,
                atol=1e-12,
            )

    def test_low_temperature_approaches_row_argmax(self):
        _, biv, _ = random_geometry(56)
        out = attention_forward(biv, beta=200.0).values
        hot = np.argmin(biv.fwd, axis=1)
        assert np.array_equal(np.argmax(out, axis=1), hot)
        assert out[np.arange(biv.fwd.shape[0]), hot].min() > 0.99


class TestAttentionBistochastic:
    def test_zero_divergence_gives_flat_matrix(self):
        zero = bidivergence(gram(DataCloud(np.ones((4, 2)))))
        out = attention_bistochastic(zero, beta=1.0)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-12)

    def test_directions_coincide_for_symmetric_geometry(self):
        # the backward map is the forward one transposed; for a plain Gram
        # matrix exp(-beta * fwd) is a diagonal scaling of the symmetric
        # exp(beta * G), whose unique bistochastic scaling is symmetric
        _, biv, _ = random_geometry(59)
        fwd = attention_bistochastic(biv, beta=1.0, tol=1e-12).values
        np.testing.assert_allclose(fwd.T, fwd, rtol=0, atol=1e-10)

    def test_marginal_residuals_within_tolerance(self):
        _, biv, _ = random_geometry(60)
        out = attention_bistochastic(biv, beta=0.8, tol=1e-11)
        assert np.abs(out.values.sum(axis=0) - 1.0).max() <= 1e-11
        assert np.abs(out.values.sum(axis=1) - 1.0).max() <= 1e-11


class TestDmap:
    def test_zero_distances_give_uniform(self):
        out = dmap(np.zeros((4, 4)), beta=1.0)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_two_point_analytic(self):
        out = dmap(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=1.0)
        sigma = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(
            out.values, [[sigma, 1.0 - sigma], [1.0 - sigma, sigma]], atol=1e-15
        )

    def test_softmax_path_equals_degree_normalization(self):
        _, _, d2 = random_geometry(62)
        beta = 1.4
        softmax_path = dmap(d2, beta).values
        kernel = rbf_kernel(d2, beta).values
        degree_path = kernel / kernel.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax_path, degree_path, rtol=0, atol=1e-12)


class TestDmapBistochastic:
    def test_zero_distances_give_flat(self):
        out = dmap_bistochastic(np.zeros((5, 5)), beta=1.0)
        np.testing.assert_allclose(out.values, 0.2, atol=1e-12)

    def test_symmetric_and_bistochastic(self):
        _, _, d2 = random_geometry(65)
        out = dmap_bistochastic(d2, beta=1.0, tol=1e-11)
        np.testing.assert_array_equal(out.values, out.values.T)
        assert np.abs(out.values.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(out.values.sum(axis=0) - 1.0).max() <= 1e-10

    def test_two_point_analytic_fixed_point(self):
        c = 0.7
        beta = 1.3
        out = dmap_bistochastic(np.array([[0.0, c], [c, 0.0]]), beta=beta, tol=1e-13)
        a = 1.0 / (1.0 + np.exp(-beta * c))
        np.testing.assert_allclose(out.values, [[a, 1 - a], [1 - a, a]], atol=1e-10)

    def test_nonconvergence_raises(self):
        _, _, d2 = random_geometry(66)
        with pytest.raises(ConvergenceError):
            dmap_bistochastic(d2, beta=1.0, tol=1e-30, max_iter=2)

    def test_symmetrized_marginals_are_held_to_tol(self, monkeypatch):
        # a scaling that reports convergence but whose symmetrized operator
        # misses tol, here by far more than the construction bound of 1e-6,
        # raises ConvergenceError, not the constructor's ValueError
        from markovgeom import normalize

        real_scale = normalize._scale

        def off_by_a_thousandth(*args, **kwargs):
            found = real_scale(*args, **kwargs)
            return found._replace(u=found.u * 1.001)

        monkeypatch.setattr(normalize, "_scale", off_by_a_thousandth)
        _, _, d2 = random_geometry(66)
        with pytest.raises(ConvergenceError, match="symmetrized bistochastic operator misses tol") \
                as excinfo:
            dmap_bistochastic(d2, beta=1.0)
        assert 1e-3 < excinfo.value.residual < 3e-3


class TestMagneticOperator:
    def test_zero_phases_keep_operator_real(self):
        _, _, d2 = random_geometry(67)
        p = dmap(d2, beta=1.0)
        op = magnetic_operator(p, np.zeros(d2.shape))
        np.testing.assert_array_equal(op.matrix, p.values.astype(complex))

    def test_quarter_turn_phase(self):
        p = dmap(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=1.0)
        theta = np.array([[0.0, np.pi / 2], [-np.pi / 2, 0.0]])
        op = magnetic_operator(p, theta)
        np.testing.assert_allclose(op.matrix[0, 1], 1j * p.values[0, 1], atol=1e-16)

    def test_magnitudes_preserved_exactly(self):
        rng = np.random.default_rng(68)
        _, _, d2 = random_geometry(69)
        p = dmap(d2, beta=1.0)
        raw = rng.standard_normal(d2.shape)
        theta = raw - raw.T
        op = magnetic_operator(p, theta)
        assert op.magnitudes.values is p.values
        np.testing.assert_allclose(np.abs(op.matrix), p.values, rtol=0, atol=1e-15)

    def test_rejects_non_antisymmetric_phases(self):
        _, _, d2 = random_geometry(70)
        p = dmap(d2, beta=1.0)
        with pytest.raises(ValueError, match="antisymmetric"):
            magnetic_operator(p, np.ones(d2.shape))

    def test_rejects_antisymmetry_violation_in_a_far_tile(self):
        rng = np.random.default_rng(71)
        _, _, d2 = random_geometry(72, n=600)
        p = dmap(d2, beta=1.0)
        raw = rng.standard_normal(d2.shape)
        theta = raw - raw.T
        magnetic_operator(p, theta)
        theta[3, 590] += 1e-9
        with pytest.raises(ValueError, match=r"antisymmetric \(violation 1\.000e-09\)"):
            magnetic_operator(p, theta)
        assert _max_hermitian_gap(theta, antisymmetric=True) == float(np.abs(theta + theta.T).max())
        theta[599, 1] = np.nan
        assert np.isnan(_max_hermitian_gap(theta, antisymmetric=True))
        with pytest.raises(ValueError, match="non-finite"):
            magnetic_operator(p, theta)

    def test_rejects_column_operator(self):
        col = StochasticOperator(np.full((2, 2), 0.5), "column")
        with pytest.raises(ValueError, match="row"):
            ComplexOperator(col, np.zeros((2, 2)))


def test_kernel_symmetry_and_magnitudes_hold_by_construction():
    # squared_distance returns fwd + fwd^T and rbf_kernel exponentiates it
    # entrywise, so the kernel is its own transpose bit for bit, weighted or
    # not; the phased operator stores the operator it was given
    rng = np.random.default_rng(73)
    cloud = DataCloud(rng.standard_normal((40, 4)))
    weights = InteractionWeights(rng.standard_normal((4, 4)))
    for grams in (gram(cloud), generalized_gram(cloud, weights)):
        kernel = rbf_kernel(squared_distance(bidivergence(grams)), 0.7).values
        np.testing.assert_array_equal(kernel, kernel.T)
    p = dmap(squared_distance(bidivergence(gram(cloud))), 0.7)
    assert magnetic_operator(p, edge_phases(cloud, weights, 0.7)).magnitudes is p


class TestPolar:
    def test_matches_the_complex_exponential_within_two_ulp(self):
        rng = np.random.default_rng(73)
        theta = np.concatenate([[0.0, -0.0, np.pi, -np.pi, 1e3, -1e3],
                                rng.uniform(-50.0, 50.0, 994)]).reshape(10, 100)
        magnitude = rng.uniform(0.0, 2.0, theta.shape)
        reference = magnitude * np.exp(1j * theta)
        out = _polar(magnitude, theta)
        assert out.dtype == complex and out.shape == theta.shape
        for got, want in ((out.real, reference.real), (out.imag, reference.imag)):
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    @staticmethod
    def _full(magnitude, theta):
        return magnitude * np.cos(theta), magnitude * np.sin(theta)

    @staticmethod
    def _antisymmetric(rng, n, scale):
        g = rng.standard_normal((n, n)) * scale
        return (g - g.T) / 2.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 257])
    def test_bitwise_full_evaluation_on_antisymmetric_phases(self, n):
        # every entry's trig is evaluated in place: the bits of the full reference
        rng = np.random.default_rng(74 + n)
        for scale in (1.0, 1e-8, 1e3):
            theta = self._antisymmetric(rng, n, scale)
            if n > 2:
                theta[0, 1], theta[1, 0] = 0.0, -0.0
            magnitude = rng.uniform(0.0, 2.0, (n, n))
            out = _polar(magnitude, theta)
            real, imag = self._full(magnitude, theta)
            assert out.real.tobytes() == real.tobytes()
            assert out.imag.tobytes() == imag.tobytes()

    @pytest.mark.parametrize("n", [65, 200])
    @pytest.mark.parametrize("flaw", ["ulp", "signed-zero", "random"])
    def test_bitwise_full_evaluation_on_inexact_phases(self, n, flaw):
        # phases that are not bitwise the negated transpose (one ulp off, +0
        # mirrored by +0, or no antisymmetry at all) give the same bits too
        rng = np.random.default_rng(75)
        theta = self._antisymmetric(rng, n, 1.0)
        if flaw == "ulp":
            theta[n - 1, 3] = np.nextafter(theta[n - 1, 3], np.inf)
            theta[n - 1, 64] = np.nextafter(theta[n - 1, 64], -np.inf)
        elif flaw == "signed-zero":
            theta[n - 1, 3] = theta[3, n - 1] = 0.0
        else:
            theta = rng.uniform(-4.0, 4.0, (n, n))
        magnitude = rng.uniform(0.0, 2.0, (n, n))
        out = _polar(magnitude, theta)
        real, imag = self._full(magnitude, theta)
        assert out.real.tobytes() == real.tobytes()
        assert out.imag.tobytes() == imag.tobytes()
