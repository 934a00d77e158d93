"""Eigendecompositions and diffusion coordinates via measure conjugation.

A reversible row-stochastic operator is similar to a symmetric matrix through
conjugation by the square root of its stationary measure; a phased operator
with reversible magnitudes is likewise similar to a Hermitian matrix.  The
dense symmetric/Hermitian eigensolver is then exact enough to map eigenpairs
back to eigenvectors of the original operator and to build eigenvalue-damped
embedding coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normalize import StochasticOperator, _chain_values, _state_vector
from .operators import ComplexOperator, _max_hermitian_gap, _polar

# adjacent eigenvalues closer than this are flagged as a degenerate block;
# coordinates inside such a block are solver-ordered and not canonicalized
DEGENERACY_GAP = 1e-10

# largest probability current max |F - F^T| of the flux F = diag(pi) P that
# the conjugation transforms accept as detailed balance
DETAILED_BALANCE_TOL = 1e-8

_LEAD_COMPONENT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) with the right eigenvectors of the operator.

    The left eigenvectors are ``pi[:, None] * right_vectors`` for the measure
    ``pi`` the operator was conjugated by, biorthonormal to the right ones
    (left^H right = I), so they are not stored.  ``degenerate`` warns that at
    least two adjacent eigenvalues are closer than the degeneracy gap, in
    which case the vectors within that block are reported in solver order.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray

    @property
    def degenerate(self) -> bool:
        gaps = np.abs(np.diff(self.eigenvalues))
        return bool(gaps.size and gaps.min() < DEGENERACY_GAP)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Eigenvalue-damped coordinates: column c is lambda_{c+1}^t psi_{c+1}."""

    coordinates: np.ndarray

    @property
    def retained(self) -> int:
        """The number k of nontrivial eigenpairs kept, one per column."""
        return self.coordinates.shape[1]


def conjugate_symmetrize(p_plus: StochasticOperator, pi) -> np.ndarray:
    """Similarity transform diag(sqrt(pi)) P diag(1/sqrt(pi)).

    Requires (P, pi) to satisfy detailed balance within
    ``DETAILED_BALANCE_TOL``; otherwise the conjugated matrix would not be
    symmetric, which signals that a non-reversible (steady-state-circulating)
    operator was passed.  The residual is the largest probability current,
    max |F - F^T| of the flux F = diag(pi) P, read tile by tile; the
    conjugated matrix then reuses F's memory.
    """
    values = _chain_values(p_plus, "conjugate_symmetrize")
    pi = _state_vector(pi, values.shape[0], "pi", positive=True)
    flux = pi[:, None] * values
    db_residual = _max_hermitian_gap(flux)
    if db_residual > DETAILED_BALANCE_TOL:
        raise ValueError(
            f"detailed balance violated (residual {db_residual:.3e} > "
            f"{DETAILED_BALANCE_TOL:.1e}); the operator/measure pair is not reversible"
        )
    root = np.sqrt(pi)
    conjugated = np.multiply(values, root[:, None], out=flux)
    conjugated /= root
    return conjugated


def conjugate_hermitize(op: ComplexOperator, pi) -> np.ndarray:
    """Hermitian conjugation of a phased operator with reversible magnitudes.

    Symmetric magnitudes conjugation combined with antisymmetric phases yields
    a Hermitian matrix, whose eigenvalues are real.
    """
    symmetric = conjugate_symmetrize(op.magnitudes, pi)
    return _polar(symmetric, op.phases)


def _fix_leading_phase(vectors: np.ndarray) -> None:
    """In place: make the first significantly nonzero component of each column
    real positive (a sign flip in the real case); a column with none, and a
    basis with no rows, is left unchanged."""
    if not vectors.shape[0]:
        return  # argmax over an empty axis raises
    significant = np.abs(vectors) > _LEAD_COMPONENT_FLOOR
    found = significant.any(axis=0)
    lead = vectors[significant.argmax(axis=0), np.arange(vectors.shape[1])]
    with np.errstate(invalid="ignore"):  # 0/0 only in columns left unchanged
        phase = np.conj(lead) / np.abs(lead)
    np.multiply(vectors, phase, out=vectors, where=found)


def decompose(conjugated, pi) -> SpectralDecomposition:
    """Eigendecompose a conjugated operator and map back to operator eigenpairs.

    The input must be (numerically) symmetric or Hermitian, i.e. come from one
    of the conjugation transforms.  Right eigenvectors of the original
    operator are the conjugated eigenvectors divided by sqrt(pi), and the top
    one is constant; the left eigenvectors, the conjugated ones multiplied by
    sqrt(pi), are ``pi[:, None] * right_vectors``.
    """
    mat = np.asarray(conjugated)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    pi = _state_vector(pi, mat.shape[0], "pi", positive=True)
    # a non-finite entry makes the gap non-finite (inf - inf is NaN), and a
    # NaN gap would pass the Hermiticity test
    with np.errstate(invalid="ignore"):
        hermiticity = _max_hermitian_gap(mat)
    if not np.isfinite(hermiticity) and not np.isfinite(mat).all():
        raise ValueError("conjugated matrix contains non-finite entries")
    if hermiticity > 1e-8:
        raise ValueError(
            f"input deviates from Hermitian by {hermiticity:.3e}; "
            "decompose expects the output of a conjugation transform"
        )
    eigenvalues, vectors = np.linalg.eigh(mat)
    # eigh returns ascending eigenvalues, so descending order is the reversed
    # view; the right vectors are then eigh's own buffer, scaled in place
    eigenvalues = eigenvalues[::-1]
    vectors = vectors[:, ::-1]
    _fix_leading_phase(vectors)
    vectors /= np.sqrt(pi)[:, None]
    return SpectralDecomposition(eigenvalues=eigenvalues, right_vectors=vectors)


def diffusion_embedding(dec: SpectralDecomposition, t: float, k: int) -> Embedding:
    """Coordinates lambda_{c+1}^t psi_{c+1}, skipping the trivial top pair.

    ``t = 0`` returns the raw eigenvectors.  Fractional times are undefined
    when a retained eigenvalue is negative and are rejected.
    """
    n = dec.eigenvalues.shape[0]
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n - 1):
        raise ValueError(f"k out of range: need an integer 1 <= k <= {n - 1}, got {k}")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"diffusion time must be finite and nonnegative, got {t}")
    lam = dec.eigenvalues[1 : k + 1]
    if np.any(lam < 0.0) and not float(t).is_integer():
        raise ValueError(
            "fractional diffusion time is undefined for negative eigenvalues"
        )
    weights = lam ** float(t)
    coordinates = dec.right_vectors[:, 1 : k + 1] * weights[None, :]
    return Embedding(coordinates=coordinates)
