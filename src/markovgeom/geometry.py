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
matrix, which ``edge_phases`` carries to the sample pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

def _validate_beta(beta) -> float:
    """The inverse temperature as a float; raises ``ValueError`` unless it is
    finite and positive.  Every public function that takes beta calls this."""
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _finite_matrix(values, name: str, square: bool = False, positive: bool = False):
    """The values as a float matrix with its minimum and maximum: 2-D (square
    when ``square``), finite, and strictly positive when ``positive``.  The
    two reductions decide both: a NaN reaches them and fails every comparison,
    -inf fails the lower test and +inf the upper one; an empty matrix passes."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        shape = "square" if square else "2-D"
        raise ValueError(f"{name} must be a {shape} matrix, got shape {arr.shape}")
    low, high = arr.min(initial=np.inf), arr.max(initial=-np.inf)
    if not ((low > 0.0 if positive else low > -np.inf) and high < np.inf):
        raise ValueError(f"{name} must be strictly positive and finite" if positive
                         else f"{name} contains non-finite entries")
    return arr, low, high


@dataclass(frozen=True, eq=False)
class DataCloud:
    """N samples in D feature dimensions, one sample per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = _finite_matrix(self.points, "points")[0]
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

    The constructor takes ``matrix`` alone; only :meth:`from_factors` keeps
    the factors next to their product ``query_factor @ key_factor.T``, so
    ``generalized_gram`` forms the query-key scores from them and only what
    needs W itself reads ``matrix``.
    """

    matrix: np.ndarray
    query_factor: np.ndarray | None = field(default=None, init=False)
    key_factor: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        mat = _finite_matrix(self.matrix, "weight matrix", square=True)[0]
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_factors(cls, query_factor, key_factor) -> "InteractionWeights":
        """Build weights as the product of D x d query and key factors."""
        wq = _finite_matrix(query_factor, "query factor")[0]
        wk = _finite_matrix(key_factor, "key factor")[0]
        if wq.shape != wk.shape:
            raise ValueError(
                f"factor shapes must match, got {wq.shape} and {wk.shape}"
            )
        weights = cls(wq @ wk.T)
        object.__setattr__(weights, "query_factor", wq)
        object.__setattr__(weights, "key_factor", wk)
        return weights


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise inner-product matrix, not symmetric when weighted."""

    values: np.ndarray

    def __post_init__(self):
        vals = _finite_matrix(self.values, "gram values", square=True)[0]
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class Bidivergence:
    """Signed divergence pair: a forward part with zero diagonal, and its transpose."""

    fwd: np.ndarray

    def __post_init__(self):
        fwd = _finite_matrix(self.fwd, "forward divergence", square=True)[0]
        if np.any(np.diag(fwd) != 0.0):
            raise ValueError("forward divergence must have an exactly zero diagonal")
        object.__setattr__(self, "fwd", fwd)

    @property
    def bwd(self) -> np.ndarray:
        """Backward part bwd[i, j] = fwd[j, i], a view sharing fwd's memory."""
        return self.fwd.T


def gram(cloud: DataCloud) -> GramMatrix:
    """Plain Gram matrix R R^T of the sample rows."""
    return GramMatrix(cloud.points @ cloud.points.T)


def generalized_gram(cloud: DataCloud, weights: InteractionWeights) -> GramMatrix:
    """Weighted Gram matrix R W R^T, or (R W_Q)(R W_K)^T for factored weights."""
    if weights.matrix.shape[0] != cloud.n_features:
        raise ValueError(
            f"weight dimension {weights.matrix.shape[0]} does not match "
            f"feature dimension {cloud.n_features}"
        )
    r = cloud.points
    if weights.query_factor is not None:
        return GramMatrix((r @ weights.query_factor) @ (r @ weights.key_factor).T)
    return GramMatrix(r @ weights.matrix @ r.T)


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
    return bidiv.fwd + bidiv.fwd.T


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
