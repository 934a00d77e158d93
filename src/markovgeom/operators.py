"""Markov and kernel operators on the divergence geometry.

All constructors are pure functions of dense matrices; nothing is truncated
or sparsified, so the exact algebraic identities between the operators (the
Hadamard factorization of the distance kernel, the two diffusion-operator
paths, magnitude preservation of the phased operator) hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Bidivergence, _all_finite, _validate_beta
from .normalize import (
    ConvergenceError,
    StochasticOperator,
    _marginal_violation,
    _scale,
    _softmax,
    sinkhorn,
)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Strictly positive similarity matrix together with the inverse
    temperature that produced it."""

    values: np.ndarray
    beta: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"kernel must be square, got shape {vals.shape}")
        # a NaN fails both comparisons, -inf the first and +inf the second
        if vals.size and not (vals.min() > 0.0 and vals.max() < np.inf):
            raise ValueError("kernel entries must be strictly positive and finite")
        _validate_beta(self.beta)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class LaplacianPair:
    """Combinatorial and random-walk Laplacians plus the degree vector."""

    combinatorial: np.ndarray
    random_walk: np.ndarray
    degrees: np.ndarray


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Row-stochastic magnitudes with a unit-modulus antisymmetric phase field.

    Magnitudes and phases are stored separately so that the magnitude of every
    assembled complex entry equals the real operator entry *exactly*, not just
    to rounding.
    """

    magnitudes: StochasticOperator
    phases: np.ndarray

    def __post_init__(self):
        if self.magnitudes.kind not in ("row", "bi"):
            raise ValueError("magnitudes must be a row-stochastic operator")
        theta = np.asarray(self.phases, dtype=float)
        if theta.shape != self.magnitudes.shape:
            raise ValueError(
                f"phase shape {theta.shape} does not match operator shape "
                f"{self.magnitudes.shape}"
            )
        if not _all_finite(theta):
            raise ValueError("phases contain non-finite entries")
        asym = _max_hermitian_gap(theta, antisymmetric=True)
        if asym > 1e-12:
            raise ValueError(f"phases must be antisymmetric (violation {asym:.3e})")
        object.__setattr__(self, "phases", theta)

    @property
    def matrix(self) -> np.ndarray:
        """Assembled complex operator: magnitudes times e^{i phases}."""
        return _polar(self.magnitudes.values, self.phases)


def _polar(magnitude, theta: np.ndarray) -> np.ndarray:
    """magnitude * e^{i theta} for a 2-D float64 ``theta``, with cos and sin
    written straight into the real and imaginary parts: no complex
    exponential and no complex temporaries.

    Phases are antisymmetric, cos is even and sin is odd, so the trig of half
    the matrix gives the rest.  Each strip of rows is evaluated from its
    diagonal block rightwards; the strip of columns below that block takes
    cos and -sin of the transposed strip if its phases are bitwise the
    negated transpose (the same bits as evaluating it), and is evaluated
    where it is not.
    """
    out = np.empty(theta.shape, dtype=complex)
    re, im = out.real, out.imag
    n = theta.shape[0]
    for lo in range(0, n, _POLAR_ROWS):
        hi = min(lo + _POLAR_ROWS, n)
        strip = theta[lo:hi, lo:]
        cos, sin = np.cos(strip), np.sin(strip)
        re[lo:hi, lo:], im[lo:hi, lo:] = cos, sin
        below = theta[hi:, lo:hi]
        if np.array_equal(below.view(np.uint64), (-theta[lo:hi, hi:]).T.view(np.uint64)):
            re[hi:, lo:hi] = cos[:, hi - lo:].T
            np.negative(sin[:, hi - lo:].T, out=im[hi:, lo:hi])
        else:
            np.cos(below, out=re[hi:, lo:hi])
            np.sin(below, out=im[hi:, lo:hi])
    re *= magnitude
    im *= magnitude
    return out


# tile edge of the Hermiticity scan: two tiles stay cache-resident
_TILE = 256

# rows per strip of _polar, whose trig temporaries then stay cache-resident
_POLAR_ROWS = 64

# rows per block of the symmetric outer-product scaling in dmap_bistochastic
_ROW_BLOCK = 32


def _max_hermitian_gap(matrix: np.ndarray, antisymmetric: bool = False) -> float:
    """max |A - A^H| over all entries (|A - A^T| for a real matrix), or
    max |A + A^H| when ``antisymmetric``.

    Each tile on or above the diagonal is compared with its mirror tile, so
    no transposed n^2 copy is made and one tile-sized difference is the only
    temporary; a NaN entry gives NaN, as the full difference would.
    """
    n = matrix.shape[0]
    gaps = [0.0]
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        for lo2 in range(lo, n, _TILE):
            cols = slice(lo2, lo2 + _TILE)
            mirror = matrix[cols, rows].T
            if np.iscomplexobj(mirror):
                mirror = mirror.conj()
            block = matrix[rows, cols]
            diff = block + mirror if antisymmetric else block - mirror
            gaps.append(np.abs(diff, out=None if np.iscomplexobj(diff) else diff).max())
    return float(np.max(gaps))


def _gaussian_logits(d2, beta: float):
    """(d2, beta, gap, -beta * d2), validated once for every Gaussian constructor:
    gap is max |d2 - d2^T| (0 exactly when d2 is bitwise symmetric).  The min
    and max of d2, which a NaN or an infinity reaches, give both the
    finiteness check and max |d2|."""
    beta = _validate_beta(beta)
    d2 = np.asarray(d2, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ValueError(f"squared distances must form a square matrix, got {d2.shape}")
    low, high = float(d2.min()), float(d2.max())
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("squared distances contain non-finite entries")
    scale = max(1.0, -low, high)
    gap = _max_hermitian_gap(d2)
    if gap > 1e-12 * scale:
        raise ValueError("squared-distance matrix must be symmetric")
    if float(np.abs(np.diag(d2)).max()) > 1e-12 * scale:
        raise ValueError("squared-distance matrix must have a zero diagonal")
    return d2, beta, gap, d2 * -beta


def rbf_kernel(d2, beta: float) -> KernelMatrix:
    """Gaussian kernel exp(-beta * d2): unit diagonal, symmetric, positive."""
    d2, beta, _, values = _gaussian_logits(d2, beta)
    with np.errstate(over="ignore"):
        np.exp(values, out=values)
    if np.isinf(values.max()):
        # negative "squared distances" come from indefinite weighted geometry
        raise ValueError(
            f"kernel overflowed: beta={beta:g} times the most negative squared "
            f"distance {float(d2.min()):g} exceeds the exponential range; reduce beta"
        )
    if values.min() == 0.0:
        raise ValueError(
            f"kernel underflowed to zero: beta={beta:g} times the largest "
            f"squared distance {float(d2.max()):g} exceeds the exponential "
            "range; reduce beta"
        )
    return KernelMatrix(values, beta)


def directional_kernels(bidiv: Bidivergence, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized directional kernels exp(-beta * fwd) and exp(-beta * bwd).

    Both have unit diagonals; entries can exceed 1 where the signed divergence
    is negative.  Their Hadamard product is the symmetric distance kernel.
    The backward kernel is the view ``fwd.T``; overflow raises ``ValueError``.
    """
    beta = _validate_beta(beta)
    k = bidiv.fwd * -beta
    with np.errstate(over="ignore"):
        np.exp(k, out=k)
    if np.isinf(k.max()):
        raise ValueError(f"directional kernel overflowed at beta={beta:g}; reduce beta")
    return k, k.T


def attention_forward(bidiv: Bidivergence, beta: float) -> StochasticOperator:
    """Row-softmax attention over the forward divergence.

    Coincides with the row softmax of the raw scaled scores beta * Q K^T when
    the weights factor as W_Q W_K^T, because the diagonal shift in the forward
    divergence is constant along each row.
    """
    beta = _validate_beta(beta)
    z = bidiv.fwd * -beta
    return _softmax(z, 1, "row", out=z)[0]


def attention_backward(bidiv: Bidivergence, beta: float) -> StochasticOperator:
    """Column-softmax attention over the backward divergence."""
    beta = _validate_beta(beta)
    z = bidiv.bwd * -beta
    return _softmax(z, 0, "column", out=z)[0]


def attention_bistochastic(
    bidiv: Bidivergence,
    beta: float,
    direction: str = "fwd",
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> StochasticOperator:
    """Bistochastic attention: Sinkhorn scaling of one directional divergence.

    The forward and backward variants coincide for symmetric geometry; no
    cross-relation is asserted in general.
    """
    beta = _validate_beta(beta)
    if direction not in ("fwd", "bwd"):
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")
    divergence = bidiv.fwd if direction == "fwd" else bidiv.bwd
    operator, _ = sinkhorn(-beta * divergence, tol=tol, max_iter=max_iter)
    return operator


def dmap(d2, beta: float) -> StochasticOperator:
    """Diffusion operator: row softmax of the negative scaled squared distances,
    identical (to rounding) to the Gaussian kernel normalized by its row sums."""
    return _diffusion(d2, beta)[0]


def _diffusion(d2, beta: float) -> tuple[StochasticOperator, np.ndarray]:
    """``dmap(d2, beta)`` and its stationary measure, the normalized kernel
    degrees: the softmax's row normalizers e^{m_i} s_i (Coifman & Lafon,
    "Diffusion maps", 2006).  Bitwise the normalized row sums of ``rbf_kernel``
    when every row max m_i is 0, and defined where that kernel underflows."""
    _, _, _, z = _gaussian_logits(d2, beta)
    operator, top, sums = _softmax(z, 1, "row", out=z)
    degrees = sums[:, 0] * np.exp(top[:, 0] - top.max())
    return operator, degrees / degrees.sum()


def laplacians(kernel: KernelMatrix) -> LaplacianPair:
    """Combinatorial Laplacian diag(z) - P and random-walk Laplacian I - P/z."""
    p = kernel.values
    degrees = p.sum(axis=1)
    combinatorial = np.diag(degrees) - p
    random_walk = np.eye(p.shape[0]) - p / degrees[:, None]
    return LaplacianPair(combinatorial, random_walk, degrees)


def dmap_bistochastic(
    d2, beta: float, tol: float = 1e-10, max_iter: int = 10_000
) -> StochasticOperator:
    """Bistochastic diffusion operator, exactly symmetric.

    Scales the symmetrized logits z = -beta * d2 to unit marginals with the
    damped symmetric update of the scaling core, on the kernel
    K = exp(z - max z): one scalar shift, so K cannot overflow and stays
    exactly symmetric.  Returns K o (u u^T) on the kernel the core measured,
    bitwise symmetric since each u_i u_j is, after rechecking its marginals
    against ``tol``.
    """
    d2, beta, gap, z = _gaussian_logits(d2, beta)

    def shifted(z):
        if gap:  # exact symmetry for a matrix that is symmetric only to rounding
            z = (z + z.T) / 2.0
        z -= z.max()
        return z

    kernel = shifted(z)
    np.exp(kernel, out=kernel)
    ones = np.ones(kernel.shape[0])
    found = _scale(kernel, lambda: shifted(d2 * -beta), ones, ones, tol, max_iter, symmetric=True)
    scaled, u = found.kernel, found.u
    for lo in range(0, u.shape[0], _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        scaled[rows] *= np.multiply.outer(u[rows], u)
    residual = _marginal_violation(scaled, 1.0, 1.0)
    if residual > tol:
        raise ConvergenceError(
            f"symmetrized bistochastic operator misses tol: residual {residual:.3e} "
            f"> tol {tol:.3e} after {found.sweeps} iterations",
            residual=residual,
            iterations=found.sweeps,
        )
    # residual <= tol was just checked on these sums; a looser tol must not
    # trip the tighter default construction bound
    return StochasticOperator(scaled, "bi", check_tol=max(1e-6, tol))


def magnetic_operator(p_plus: StochasticOperator, theta) -> ComplexOperator:
    """Attach an antisymmetric phase field to a row-stochastic operator.

    The assembled entries are P_ij * e^{i Theta_ij}; their magnitudes agree
    with P exactly because magnitudes and phases are stored separately.
    """
    return ComplexOperator(magnitudes=p_plus, phases=theta)
