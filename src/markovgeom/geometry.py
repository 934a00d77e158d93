"""Point-cloud geometry: Gram matrices, signed divergence pairs, distances, phases.

The central object is the *bidivergence*: a pair of signed pseudo-divergences
(forward and backward) obtained by diagonal shifts of a possibly asymmetric
generalized Gram matrix.  Each part is zero on the diagonal and may be
negative off it, but their sum is always the symmetric (Mahalanobis) squared
distance, to which only the symmetric part of the weight matrix contributes.

Convention note: the diagonal-shift split makes the backward part the
transpose of the forward one for *every* weight matrix, bwd[i, j] = G[j, j] -
G[j, i] = fwd[j, i], so ``Bidivergence`` stores ``fwd`` alone and reads ``bwd``
as the view ``fwd.T``: an inconsistent pair cannot be built.  The genuinely
asymmetric information lives in the antisymmetric part of the generalized Gram
matrix, exposed through ``hermitian_partition`` and ``edge_phases``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _validate_beta(beta) -> float:
    """The inverse temperature as a float; raises ``ValueError`` unless it is
    finite and positive.  Every public function that takes beta calls this."""
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _as_finite_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class DataCloud:
    """N samples in D feature dimensions, one sample per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_finite_matrix(self.points, "points")
        if pts.shape[0] < 2:
            raise ValueError("a data cloud needs at least 2 samples")
        if pts.shape[1] < 1:
            raise ValueError("a data cloud needs at least 1 feature")
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class InteractionWeights:
    """Square feature-interaction matrix, optionally built from a factor pair.

    Built by :meth:`from_factors`, it keeps the factors next to the product
    ``query_factor @ key_factor.T``: ``generalized_gram`` forms the query-key
    scores from the factors, and only what needs W itself reads ``matrix``.
    """

    matrix: np.ndarray
    query_factor: np.ndarray | None = None
    key_factor: np.ndarray | None = None

    def __post_init__(self):
        mat = _as_finite_matrix(self.matrix, "weight matrix")
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_factors(cls, query_factor, key_factor) -> "InteractionWeights":
        """Build weights as the product of D x d query and key factors."""
        wq = _as_finite_matrix(query_factor, "query factor")
        wk = _as_finite_matrix(key_factor, "key factor")
        if wq.shape != wk.shape:
            raise ValueError(
                f"factor shapes must match, got {wq.shape} and {wk.shape}"
            )
        return cls(matrix=wq @ wk.T, query_factor=wq, key_factor=wk)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianPartition:
    """Split of a weight matrix into symmetric and antisymmetric parts.

    ``symmetric + 1j * antisymmetric`` is Hermitian by construction.
    """

    symmetric: np.ndarray
    antisymmetric: np.ndarray

    def __post_init__(self):
        s = _as_finite_matrix(self.symmetric, "symmetric part")
        a = _as_finite_matrix(self.antisymmetric, "antisymmetric part")
        if s.shape != a.shape or s.shape[0] != s.shape[1]:
            raise ValueError("partition parts must be square matrices of equal shape")
        if not np.array_equal(s, s.T):
            raise ValueError("symmetric part must satisfy S == S.T exactly")
        if not np.array_equal(a, -a.T):
            raise ValueError("antisymmetric part must satisfy A == -A.T exactly")
        object.__setattr__(self, "symmetric", s)
        object.__setattr__(self, "antisymmetric", a)

    @property
    def matrix(self) -> np.ndarray:
        """The combined complex Hermitian matrix S + iA."""
        return self.symmetric + 1j * self.antisymmetric


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise inner-product matrix, not symmetric when weighted."""

    values: np.ndarray

    def __post_init__(self):
        vals = _as_finite_matrix(self.values, "gram values")
        if vals.shape[0] != vals.shape[1]:
            raise ValueError(f"gram matrix must be square, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class Bidivergence:
    """Signed divergence pair: a forward part with zero diagonal, and its transpose."""

    fwd: np.ndarray

    def __post_init__(self):
        fwd = _as_finite_matrix(self.fwd, "forward divergence")
        if fwd.shape[0] != fwd.shape[1] or np.any(np.diag(fwd) != 0.0):
            raise ValueError("divergence must be square with an exactly zero diagonal")
        object.__setattr__(self, "fwd", fwd)

    @property
    def bwd(self) -> np.ndarray:
        """Backward part bwd[i, j] = fwd[j, i], a view sharing fwd's memory."""
        return self.fwd.T

    @property
    def n(self) -> int:
        return self.fwd.shape[0]


def gram(cloud: DataCloud) -> GramMatrix:
    """Plain Gram matrix R R^T of the sample rows."""
    return GramMatrix(cloud.points @ cloud.points.T)


def generalized_gram(cloud: DataCloud, weights: InteractionWeights) -> GramMatrix:
    """Weighted Gram matrix R W R^T, or (R W_Q)(R W_K)^T for factored weights."""
    if weights.dim != cloud.n_features:
        raise ValueError(
            f"weight dimension {weights.dim} does not match "
            f"feature dimension {cloud.n_features}"
        )
    r = cloud.points
    if weights.query_factor is not None:
        return GramMatrix((r @ weights.query_factor) @ (r @ weights.key_factor).T)
    return GramMatrix(r @ weights.matrix @ r.T)


def hermitian_partition(weights: InteractionWeights) -> HermitianPartition:
    """Split W into (W + W.T)/2 and (W - W.T)/2; the parts sum back to W."""
    w = weights.matrix
    return HermitianPartition(symmetric=(w + w.T) / 2.0, antisymmetric=(w - w.T) / 2.0)


def bidivergence(gram_matrix: GramMatrix) -> Bidivergence:
    """Diagonal-shift split of a Gram matrix into a signed divergence pair.

    fwd[i, j] = G[i, i] - G[i, j], and bwd[i, j] = G[j, j] - G[j, i] is its
    transpose.  The orientation is chosen so that a row softmax of
    ``-beta * fwd`` reproduces the row softmax of the raw scaled scores
    ``beta * G`` (the diagonal term is a per-row shift the softmax ignores).
    """
    g = gram_matrix.values
    return Bidivergence(np.diag(g)[:, None] - g)


def squared_distance(bidiv: Bidivergence) -> np.ndarray:
    """fwd + fwd^T: exactly symmetric with the exactly zero diagonal of fwd."""
    return bidiv.fwd + bidiv.bwd


def edge_phases(cloud: DataCloud, weights: InteractionWeights, beta: float) -> np.ndarray:
    """Antisymmetric edge phase field from the weighted Gram asymmetry.

    Theta[i, j] = beta * (G[i, j] - G[j, i]) / 2 with G = R W R^T, i.e. the
    antisymmetric weight part pushed onto sample pairs through the data.  The
    beta factor keeps phases on the same temperature scale as the kernel
    magnitudes.  Vanishes identically for symmetric W.
    """
    beta = _validate_beta(beta)
    return _gram_phases(generalized_gram(cloud, weights).values, beta)


def _gram_phases(g: np.ndarray, beta: float) -> np.ndarray:
    """beta * (G - G^T) / 2, the phase field of a weighted Gram matrix G."""
    return beta * (g - g.T) / 2.0
