"""Property tests of the geometry invariants on drawn clouds, weights and betas.

Every drawn case must meet the pinned tolerance of checks C1 and C4, or fail
with a clean ``ValueError``; the draw profile is set in ``conftest.py``.
"""

import re

import numpy as np
from hypothesis import given, strategies as st

from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.operators import directional_kernels, rbf_kernel


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


def _geometry(points, weights):
    cloud = DataCloud(points)
    return bidivergence(gram(cloud) if weights is None else generalized_gram(cloud, weights))


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
        assert re.search("underflow|overflow|finite", str(exc))
        return
    # C4 pins the distance kernel (entries <= 1) absolutely; negative weighted
    # squared distances give entries above 1, rounded relative to their size
    scale = max(1.0, float(kernel.max()))
    assert float(np.abs(kernel - fwd * bwd).max()) <= 1e-12 * scale
