"""Markov and kernel operators on the divergence geometry.

All constructors are pure functions of dense matrices; nothing is truncated
or sparsified, so the exact algebraic identities between the operators (the
Hadamard factorization of the distance kernel, the two diffusion-operator
paths, magnitude preservation of the phased operator) hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Bidivergence, _finite_matrix, _validate_beta
from .normalize import (
    StochasticOperator,
    _bistochastic,
    _chain_values,
    _scaled_operator,
    _softmax,
)

# tile edge of the pairwise scan: a tile and its mirror stay cache-resident
_TILE = 256


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Strictly positive, finite square similarity matrix."""

    values: np.ndarray

    def __post_init__(self):
        vals = _finite_matrix(self.values, "kernel", square=True, positive=True)[0]
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Row-stochastic magnitudes with a unit-modulus antisymmetric phase field.

    Magnitudes and phases are stored separately: ``magnitudes`` is the real
    operator itself.  The modulus of an assembled entry |P_ij e^{i Theta_ij}|
    is rounded and equals P_ij only to within a few units in the last place;
    verify's C12 bounds its gap at 1e-15.
    """

    magnitudes: StochasticOperator
    phases: np.ndarray

    def __post_init__(self):
        _chain_values(self.magnitudes, "ComplexOperator")
        theta = _finite_matrix(self.phases, "phase field")[0]
        if theta.shape != self.magnitudes.shape:
            raise ValueError(
                f"phase shape {theta.shape} does not match operator shape "
                f"{self.magnitudes.shape}"
            )
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

    Every entry's trig is evaluated, so the parts are bitwise
    ``magnitude * cos(theta)`` and ``magnitude * sin(theta)`` whether or not
    the phases are exactly antisymmetric.
    """
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out.real *= magnitude  # numpy skips the write-back of a view onto itself
    out.imag *= magnitude
    return out


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
        for lo2 in range(lo, n, _TILE):
            rows, cols = slice(lo, lo + _TILE), slice(lo2, lo2 + _TILE)
            mirror = matrix[cols, rows].T
            if np.iscomplexobj(mirror):
                mirror = mirror.conj()
            block = matrix[rows, cols]
            diff = block + mirror if antisymmetric else block - mirror
            gaps.append(np.abs(diff, out=None if np.iscomplexobj(diff) else diff).max())
    return float(np.max(gaps))


def _gaussian_logits(d2, beta: float):
    """(d2, beta, -beta * d2), validated once for every Gaussian constructor.
    The min and max of d2 that the matrix gate reads also give max |d2|.  A
    d2 that is symmetric with a zero diagonal only to within 1e-12 of that
    scale is replaced by its exact projection, (d2 + d2^T) / 2 with a zero
    diagonal, so every constructor sees one exactly symmetric matrix; an
    exact d2 is returned as given."""
    beta = _validate_beta(beta)
    d2, low, high = _finite_matrix(d2, "squared-distance matrix", square=True)
    if not d2.size:
        raise ValueError("squared-distance matrix must be non-empty")
    scale = max(1.0, -low, high)
    gap = _max_hermitian_gap(d2)
    if gap > 1e-12 * scale:
        raise ValueError("squared-distance matrix must be symmetric")
    diagonal = float(np.abs(np.diag(d2)).max())
    if diagonal > 1e-12 * scale:
        raise ValueError("squared-distance matrix must have a zero diagonal")
    if gap or diagonal:
        d2 = (d2 + d2.T) / 2.0
        np.fill_diagonal(d2, 0.0)
    return d2, beta, d2 * -beta


def _range_error(what: str, beta: float, reach: str) -> ValueError:
    return ValueError(f"{what}: beta={beta:g} times {reach} exceeds the exponential "
                      "range; reduce beta")


def rbf_kernel(d2, beta: float) -> KernelMatrix:
    """Gaussian kernel exp(-beta * d2): unit diagonal, symmetric, positive."""
    d2, beta, values = _gaussian_logits(d2, beta)
    with np.errstate(over="ignore"):
        np.exp(values, out=values)
    if np.isinf(values.max()):
        # negative "squared distances" come from indefinite weighted geometry
        raise _range_error("kernel overflowed", beta,
                           f"the most negative squared distance {float(d2.min()):g}")
    if values.min() == 0.0:
        raise _range_error("kernel underflowed to zero", beta,
                           f"the largest squared distance {float(d2.max()):g}")
    return KernelMatrix(values)


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
        raise _range_error("directional kernel overflowed", beta,
                           f"the most negative forward divergence {float(bidiv.fwd.min()):g}")
    return k, k.T


def attention_forward(bidiv: Bidivergence, beta: float) -> StochasticOperator:
    """Row-softmax attention over the forward divergence.

    Coincides with the row softmax of the raw scaled scores beta * Q K^T when
    the weights factor as W_Q W_K^T, because the diagonal shift in the forward
    divergence is constant along each row.  The backward map, the column
    softmax over bwd = fwd^T, is this map transposed, bit for bit.
    """
    beta = _validate_beta(beta)
    z = bidiv.fwd * -beta
    return _softmax(z, 1, out=z)[0]


def attention_bistochastic(
    bidiv: Bidivergence, beta: float, tol: float = 1e-10, max_iter: int = 10_000
) -> StochasticOperator:
    """Bistochastic attention: Sinkhorn scaling of exp(-beta * fwd).

    A positive kernel has one bistochastic scaling, so that of the backward
    kernel exp(-beta * bwd) = exp(-beta * fwd)^T is this result transposed.
    """
    beta = _validate_beta(beta)
    return _bistochastic(-beta * bidiv.fwd, tol, max_iter)[0]


def dmap(d2, beta: float) -> StochasticOperator:
    """Diffusion operator: row softmax of the negative scaled squared distances,
    identical (to rounding) to the Gaussian kernel normalized by its row sums."""
    return _diffusion(d2, beta)[0]


def _diffusion(d2, beta: float) -> tuple[StochasticOperator, np.ndarray]:
    """``dmap(d2, beta)`` and its stationary measure, the normalized kernel
    degrees: the softmax's row normalizers e^{m_i} s_i (Coifman & Lafon,
    "Diffusion maps", 2006).  Bitwise the normalized row sums of ``rbf_kernel``
    when every row max m_i is 0, and defined where that kernel underflows."""
    z = _gaussian_logits(d2, beta)[2]
    operator, top, sums = _softmax(z, 1, out=z)
    degrees = sums[:, 0] * np.exp(top[:, 0] - top.max())
    return operator, degrees / degrees.sum()


def dmap_bistochastic(
    d2, beta: float, tol: float = 1e-10, max_iter: int = 10_000
) -> StochasticOperator:
    """Bistochastic diffusion operator, exactly symmetric.

    Scales the logits z = -beta * d2 to unit marginals with the damped
    symmetric update of the scaling core, on the kernel K = exp(z - max z):
    one scalar shift, so K cannot overflow and stays exactly symmetric.
    Returns K o (u u^T) on the kernel the core measured, bitwise symmetric
    since each u_i u_j is; raises ``ConvergenceError`` when the marginals
    that its construction measures miss ``tol``.
    """
    d2, beta, kernel = _gaussian_logits(d2, beta)
    top = kernel.max()
    kernel -= top
    np.exp(kernel, out=kernel)
    return _scaled_operator(kernel, lambda: d2 * -beta - top, tol, max_iter, symmetric=True)[0]


def magnetic_operator(p_plus: StochasticOperator, theta) -> ComplexOperator:
    """Attach an antisymmetric phase field to a row-stochastic operator.

    The assembled entries are P_ij * e^{i Theta_ij}.  The stored magnitudes
    are ``p_plus`` itself; the modulus of an assembled entry is rounded, and
    verify's C12 bounds its gap from P at 1e-15.
    """
    return ComplexOperator(magnitudes=p_plus, phases=theta)
