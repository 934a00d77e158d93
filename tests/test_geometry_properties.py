"""Property tests of the geometry invariants on drawn clouds, weights and betas.

Every drawn case must meet the pinned tolerance of checks C1, C3, C4, C6, C7
and C12, or fail with a clean ``ValueError``; so must the diffusion operator
with its stationary measure.  The draw profile is set in ``conftest.py``.
"""

import re

import numpy as np
from hypothesis import given, strategies as st
from scipy.special import logsumexp

from markovgeom.bridges import (
    attention_gauge,
    classify_regime,
    currents,
    magnetic_flux,
    poe_factorization,
)
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    _gram_phases,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import poe_combine, softmax_cols, softmax_rows
from markovgeom.operators import (
    _diffusion,
    directional_kernels,
    dmap,
    magnetic_operator,
    rbf_kernel,
)
from markovgeom.spectral import conjugate_hermitize


@st.composite
def geometries(draw):
    """(points, weights or None, beta): N in [2, 40], D in [1, 6] or wide, some
    rows near-duplicates of others, plain / matrix / factor weights, and beta
    log-uniform in [1e-2, 1e2]."""
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 64, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, d))
    for row in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        jitter = 10.0 ** draw(st.floats(-15.0, -6.0))
        points[row] = points[row - 1] + jitter * rng.standard_normal(d)
    kind = draw(st.sampled_from(["plain", "matrix", "factors"]))
    if kind == "plain":
        weights = None
    elif kind == "matrix":
        weights = InteractionWeights(rng.standard_normal((d, d)))
    else:
        head = draw(st.integers(1, d))
        weights = InteractionWeights.from_factors(
            rng.standard_normal((d, head)), rng.standard_normal((d, head))
        )
    beta = 10.0 ** draw(st.floats(-2.0, 2.0))
    return points, weights, beta


def _pairwise_oracle(points, weights):
    """(x_i - x_j)^T S (x_i - x_j) with S the symmetric part of W (I if plain)."""
    diff = points[:, None, :] - points[None, :, :]
    if weights is None:
        return (diff**2).sum(-1)
    sym = (weights.matrix + weights.matrix.T) / 2.0
    return np.einsum("ijk,kl,ijl->ij", diff, sym, diff)


def _gram(points, weights):
    cloud = DataCloud(points)
    return gram(cloud) if weights is None else generalized_gram(cloud, weights)


def _geometry(points, weights):
    return bidivergence(_gram(points, weights))


@given(geometries())
def test_backward_part_is_the_forward_transpose(case):
    points, weights, _ = case
    biv = _geometry(points, weights)
    np.testing.assert_array_equal(biv.bwd, biv.fwd.T)
    assert np.shares_memory(biv.bwd, biv.fwd)


@given(geometries())
def test_squared_distance_is_exactly_symmetric_with_zero_diagonal(case):
    points, weights, _ = case
    d2 = squared_distance(_geometry(points, weights))
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)


@given(geometries())
def test_squared_distance_matches_pairwise_oracle(case):
    points, weights, _ = case
    d2 = squared_distance(_geometry(points, weights))
    oracle = _pairwise_oracle(points, weights)
    # C1 pins the plain distance absolutely; a weight matrix scales the
    # quadratic form, so the weighted bound is relative to its largest entry
    scale = 1.0 if weights is None else max(1.0, float(np.abs(oracle).max()))
    assert float(np.abs(d2 - oracle).max()) <= 1e-12 * scale


@given(geometries())
def test_kernel_factorizes_or_leaves_range_cleanly(case):
    points, weights, beta = case
    biv = _geometry(points, weights)
    try:
        kernel = rbf_kernel(squared_distance(biv), beta).values
        fwd, bwd = directional_kernels(biv, beta)
    except ValueError as exc:
        # underflow of the distance kernel, overflow where an indefinite weight
        # matrix gives negative squared distances, or a directional kernel
        # entry past the float range
        assert re.search("underflow|overflow", str(exc))
        return
    # C4 pins the distance kernel (entries <= 1) absolutely; negative weighted
    # squared distances give entries above 1, rounded relative to their size
    scale = max(1.0, float(kernel.max()))
    assert float(np.abs(kernel - fwd * bwd).max()) <= 1e-12 * scale


@st.composite
def diffusion_cases(draw):
    """(Gram values, bidivergence, d2, beta): a drawn geometry, and beta
    log-uniform in [1e-3, 1e3] times the auto bandwidth 1 / median
    |off-diagonal d2|."""
    points, weights, _ = draw(geometries())
    g = _gram(points, weights)
    biv = bidivergence(g)
    d2 = squared_distance(biv)
    scale = float(np.median(np.abs(d2[~np.eye(d2.shape[0], dtype=bool)])))
    return g.values, biv, d2, 10.0 ** draw(st.floats(-3.0, 3.0)) / (scale or 1.0)


# pi against the logsumexp oracle, relative, in units of eps: the oracle's
# log-degrees L_i carry an absolute rounding error of about eps * |L_i|, so the
# bound grows with max |L| (the worst of 5000 draws used 5.4 of these 16
# units).  Below the smallest normal float no relative precision is
# representable, so that is the absolute floor.
MEASURE_ULPS = 16.0


@given(diffusion_cases())
def test_diffusion_brings_its_stationary_measure(case):
    _, _, d2, beta = case
    try:
        operator, pi = _diffusion(d2, beta)
    except ValueError as exc:
        assert re.search("beta|logits|squared", str(exc))
        return
    np.testing.assert_array_equal(operator.values, dmap(d2, beta).values)
    log_degrees = logsumexp(-beta * d2, axis=1)
    oracle = np.exp(log_degrees - logsumexp(log_degrees))
    rtol = MEASURE_ULPS * np.finfo(float).eps * max(1.0, float(np.abs(log_degrees).max()))
    np.testing.assert_allclose(pi, oracle, rtol=rtol, atol=np.finfo(float).tiny)
    if np.all((-beta * d2).max(axis=1) == 0.0):
        try:
            kernel = rbf_kernel(d2, beta).values
        except ValueError as exc:
            assert "underflow" in str(exc)
            return
        degrees = kernel.sum(axis=1)
        np.testing.assert_array_equal(pi, degrees / degrees.sum())


@given(diffusion_cases())
def test_expert_factorization_is_the_diffusion_operator(case):
    _, biv, d2, beta = case
    try:
        factorized = poe_factorization(biv, beta).values
    except ValueError as exc:
        # far above the auto bandwidth the two experts' rows can put all
        # their mass on different points
        assert "disjoint support" in str(exc)
        return
    # C6 pins the factorization absolutely
    assert float(np.abs(factorized - dmap(d2, beta).values).max()) <= 1e-12


@given(diffusion_cases())
def test_diffusion_pair_is_equilibrium(case):
    _, _, d2, beta = case
    try:
        operator, pi = _diffusion(d2, beta)
    except ValueError as exc:
        assert re.search("beta|logits|squared", str(exc))
        return
    # C7 pins stationarity and the currents absolutely
    assert float(np.abs(pi @ operator.values - pi).max()) <= 1e-12
    assert float(np.abs(currents(operator, pi)).max()) <= 1e-12
    assert classify_regime(operator, pi, pi).regime == "EQ"


@given(diffusion_cases())
def test_magnetic_operator_contracts(case):
    g, _, d2, beta = case
    try:
        operator, pi = _diffusion(d2, beta)
    except ValueError as exc:
        assert re.search("beta|logits|squared", str(exc))
        return
    phased = magnetic_operator(operator, _gram_phases(g, beta))
    # C12's exact parts, and the modulus of the assembled entries
    np.testing.assert_array_equal(phased.magnitudes.values, operator.values)
    assert float(np.abs(np.abs(phased.matrix) - operator.values).max()) <= 1e-15
    quiet = magnetic_operator(operator, np.zeros_like(operator.values))
    assert not np.any(magnetic_flux(pi, quiet)[1])
    try:
        hermitized = conjugate_hermitize(phased, pi)
        gauge = attention_gauge(pi, operator)
    except ValueError as exc:
        # a stationary entry or an operator entry that underflowed to zero
        assert "strictly positive" in str(exc)
        return
    assert float(np.abs(hermitized - hermitized.conj().T).max()) <= 1e-10
    assert float(np.abs(np.linalg.eigvals(hermitized).imag).max()) <= 1e-10
    assert float(np.abs(gauge + gauge.T).max()) <= 1e-15
    assert float(np.abs(gauge).max()) <= 1e-12


@st.composite
def expert_logits(draw):
    """(z, s, softmax): two m x n logit matrices with entries up to a few
    hundred nats, s independent of z or opposed to it (so that the experts
    barely overlap), and the row or column softmax."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.5))
    z = scale * rng.standard_normal((m, n))
    s = scale * rng.standard_normal((m, n))
    if draw(st.booleans()):
        s -= z
    return z, s, draw(st.sampled_from([softmax_rows, softmax_cols]))


@given(expert_logits())
def test_expert_product_is_the_softmax_of_summed_logits(case):
    z, s, softmax = case
    try:
        combined = poe_combine(softmax(z), softmax(s)).values
    except ValueError as exc:
        # a product mass below the normal range has lost its precision
        assert "disjoint support" in str(exc)
        return
    # C3 pins the product of experts absolutely
    assert float(np.abs(combined - softmax(z + s).values).max()) <= 1e-12
