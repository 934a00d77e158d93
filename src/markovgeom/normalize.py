"""Normalizers: softmax, product of experts, and stabilized matrix scaling.

``sinkhorn``, ``schrodinger_solve`` and the bistochastic diffusion operator
share one scaling core: matrix-vector sweeps in the linear domain, and a
log-domain sweep that absorbs the potentials into the kernel only when a
scaling vector leaves its safe range, so score ranges of hundreds of nats stay
finite.  Scaling potentials are exposed as positive vectors, the source
potential at unit geometric mean (gauge).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .geometry import _finite_matrix

log = logging.getLogger(__name__)

VALID_KINDS = ("row", "column", "bi")

# marginals handed to the scalers must sum to one within this bound
MARGINAL_SUM_TOL = 1e-12

# |log| of the scaling vectors stays below this (about 1e50); leaving that range
# (or turning non-finite) makes the sweep absorb in the log domain
_LOG_SAFE_RANGE = 115.0

# an iteration's contraction rate is read from its last _RATE_WINDOW residual
# ratios; the alternating sweeps trust it once those agree within _RATE_SPREAD
_RATE_WINDOW = 4
_RATE_SPREAD = 1.1
# cap of the over-relaxation factor: the rate read early in a solve can exceed
# the asymptotic one, and past the optimum the error shrinks only by omega - 1
_OMEGA_MAX = 1.5
# a re-estimated omega replaces the current one only when larger by this factor
_OMEGA_STEP = 1.02
# rows per block of the symmetric outer-product scaling u_i u_j
_ROW_BLOCK = 32


class ConvergenceError(RuntimeError):
    """An iterative scaler failed to reach tolerance.

    Carries the residual achieved and the iteration count so the caller can
    decide what to do; no partial matrix is ever returned silently.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _validate_logits(z, *, square: bool = False, axis: int = 1):
    """The logits as a float matrix and their maxima along ``axis`` (kept as a
    2-D column or row).  A NaN or +inf reaches those maxima and a -inf the
    overall minimum, so these two reductions are the finiteness check."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {z.shape}")
    if not z.size:
        raise ValueError("logits must be non-empty")
    top = z.max(axis=axis, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(z.min())):
        raise ValueError("logits must be finite (masking with -inf is unsupported)")
    if square and z.shape[0] != z.shape[1]:
        raise ValueError(f"square logits required, got shape {z.shape}")
    return z, top


def _validate_marginal(mu, n: int, name: str) -> np.ndarray:
    """A strictly positive state vector that also sums to 1."""
    mu = _state_vector(mu, n, name, positive=True)
    total = float(mu.sum())
    if abs(total - 1.0) > MARGINAL_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 (got {total!r})")
    return mu


def _validate_tol(tol) -> None:
    """Raise ``ValueError`` unless the solver tolerance is finite and positive."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _validate_max_iter(max_iter) -> None:
    """Raise ``ValueError`` unless the sweep budget is at least one sweep."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def logsumexp(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the maximum so it cannot overflow."""
    top = x.max(axis=axis, keepdims=True)
    shifted = x - top
    np.exp(shifted, out=shifted)
    out = top + np.log(shifted.sum(axis=axis, keepdims=True))
    return out if keepdims else out.squeeze(axis)


@dataclass(frozen=True, eq=False)
class StochasticOperator:
    """Nonnegative matrix tagged by its normalization: rows, columns, or both.

    ``check_tol`` is only a construction-time sanity bound on the tagged sums;
    a solver passes inf and holds the measured ``residuals`` to its own tol.
    Construction reads the matrix once for its minimum and once per tagged
    axis for its sums: a NaN or -inf reaches the minimum and a +inf the sums,
    so an entrywise finiteness scan runs only when one of them is not finite,
    to tell a non-finite entry from sums that overflow.  ``residuals`` keeps
    what those sums measured: for each tagged axis ("row", "column"), the
    sup-norm deviation max |sums - 1|, read-only.
    """

    values: np.ndarray
    kind: str
    check_tol: float = field(default=1e-6, repr=False, compare=False)
    residuals: MappingProxyType[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"operator must be 2-D, got shape {vals.shape}")
        if not vals.size:
            raise ValueError("operator must be non-empty")
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}, got {self.kind!r}")
        low = vals.min()
        tagged = ("row", "column") if self.kind == "bi" else (self.kind,)
        with np.errstate(over="ignore"):  # an overflowing sum fails its check below
            sums = {name: vals.sum(axis=1 if name == "row" else 0) for name in tagged}
        finite = np.isfinite(low) and all(np.isfinite(s).all() for s in sums.values())
        if not finite and not np.all(np.isfinite(vals)):
            raise ValueError("operator contains non-finite entries")
        if low < 0.0:
            raise ValueError("operator entries must be nonnegative")
        residuals = {}
        for name, total in sums.items():
            residuals[name] = err = float(np.abs(total - 1.0).max())
            if err > self.check_tol:
                raise ValueError(f"{name} sums deviate from 1 by {err:.3e}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "residuals", MappingProxyType(residuals))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _chain_values(p: StochasticOperator, caller: str) -> np.ndarray:
    """The values of an operator read as a chain: row-stochastic and square."""
    if p.kind not in ("row", "bi"):
        raise ValueError(f"{caller} expects a row-stochastic operator")
    if p.shape[0] != p.shape[1]:
        raise ValueError(f"{caller} expects a square operator, got shape {p.shape}")
    return p.values


def _state_vector(vec, n: int, name: str, positive: bool = False) -> np.ndarray:
    """A vector over n states as floats: 1-D, length n, finite, and
    nonnegative, or strictly positive when ``positive``.  Its minimum and
    maximum decide both: a NaN reaches them and fails every comparison, -inf
    fails the sign test and +inf the bound; an empty vector passes."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != n:
        raise ValueError(f"{name} must be a length-{n} vector, got shape {vec.shape}")
    low, high = vec.min(initial=np.inf), vec.max(initial=-np.inf)
    if not ((low > 0.0 if positive else low >= 0.0) and high < np.inf):
        sign = "strictly positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite")
    return vec


@dataclass(frozen=True, eq=False)
class ScalingPotentials:
    """Positive scaling vectors with convergence metadata.

    The gauge freedom (scaling u by c and v by 1/c) is fixed upstream by
    giving u unit geometric mean, except where a closed form dictates the
    potentials directly.
    """

    u: np.ndarray
    v: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        for name in ("u", "v"):
            vec = np.asarray(getattr(self, name), dtype=float)
            # potentials carry no state count, so each is checked at its own length
            n = vec.shape[0] if vec.ndim else 1
            object.__setattr__(self, name, _state_vector(vec, n, f"potential {name}",
                                                         positive=True))
        if self.iterations < 0 or self.residual < 0.0:
            raise ValueError("iterations and residual must be nonnegative")


def _softmax(z, axis: int, out=None):
    """exp(z) shifted by its maxima m along ``axis`` and normalized there, all in
    one array: a new one, or ``out`` (``out=z`` overwrites logits the caller
    owns).  Returns the operator, m and the shifted sums s, both kept 2-D."""
    z, top = _validate_logits(z, axis=axis)
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    sums = e.sum(axis=axis, keepdims=True)
    e /= sums
    return StochasticOperator(e, "row" if axis == 1 else "column"), top, sums


def softmax_rows(z) -> StochasticOperator:
    """Row-normalized exponential of the log-scores, max-subtracted for stability."""
    return _softmax(z, 1)[0]


def softmax_cols(z) -> StochasticOperator:
    """Column-normalized exponential of the log-scores; mirror of ``softmax_rows``."""
    return _softmax(z, 0)[0]


def poe_combine(a: StochasticOperator, b: StochasticOperator) -> StochasticOperator:
    """Combine two experts by Hadamard product and renormalization.

    Both operands must share shape and kind (row or column).  The result is
    exactly the softmax of summed log-scores: combining ``softmax_rows(z)``
    with ``softmax_rows(s)`` reproduces ``softmax_rows(z + s)``.  A product
    mass below the normal range has too few bits to renormalize: ``ValueError``.
    """
    if a.kind != b.kind:
        raise ValueError(f"expert kinds differ: {a.kind!r} vs {b.kind!r}")
    if a.kind not in ("row", "column"):
        raise ValueError("product of experts is defined for row or column operators")
    if a.shape != b.shape:
        raise ValueError(f"expert shapes differ: {a.shape} vs {b.shape}")
    prod = a.values * b.values
    axis = 1 if a.kind == "row" else 0
    norm = prod.sum(axis=axis, keepdims=True)
    low = float(norm.min(initial=np.inf))
    if low < np.finfo(float).tiny:
        raise ValueError(f"experts have (nearly) disjoint support along the stochastic "
                         f"axis: the product's mass {low:.3e} is below the normal float range")
    return StochasticOperator(prod / norm, a.kind)


def _marginal_violation(matrix, rows, cols) -> float:
    """Sup-norm violation of the row sums ``rows`` and column sums ``cols``."""
    return max(float(np.abs(matrix.sum(axis=1) - rows).max()),
               float(np.abs(matrix.sum(axis=0) - cols).max()))


def _log_sweep(log_kernel, log_a, b, g, symmetric):
    """One sweep in the log domain from column potential g; returns f, g and the
    absorbed kernel exp(log_kernel + f_i + g_j).  Alternating, its columns sum
    to b, so none of them underflows; symmetric, f = g is the damped potential.
    """
    f = log_a - logsumexp(log_kernel + g, axis=1)
    if symmetric:
        f = g = (f + g) / 2.0
        kernel = log_kernel + (f[:, None] + g[None, :])
        return f, g, np.exp(kernel, out=kernel)
    kernel = log_kernel + f[:, None]
    top = kernel.max(axis=0)
    kernel -= top
    np.exp(kernel, out=kernel)
    scale = b / kernel.sum(axis=0)
    kernel *= scale
    return f, np.log(scale) - top, kernel


def _phase_rate(history, omega):
    """Residual contraction per sweep over the last few sweeps of a phase, or
    None while it is not measurable.  Plain sweeps count once the ratios of
    their last _RATE_WINDOW successive residuals agree (their maximum; a zero
    residual makes the next ratio infinite); over-relaxed sweeps, whose ratios
    oscillate, once the phase's first window has passed (their geometric mean)."""
    if omega == 1.0:
        if len(history) <= _RATE_WINDOW:
            return None
        tail = history[-_RATE_WINDOW - 1:]
        ratios = [later / earlier if earlier > 0.0 else np.inf
                  for earlier, later in zip(tail, tail[1:])]
        if max(ratios) > _RATE_SPREAD * min(ratios):
            return None
        return max(ratios)
    if len(history) <= 2 * _RATE_WINDOW:
        return None
    return (history[-1] / history[-1 - _RATE_WINDOW]) ** (1.0 / _RATE_WINDOW)


class _Scaling(NamedTuple):
    """What the scaling core found: diag(u) K diag(v) meets the marginals,
    where K is the kernel the residual was measured on (the given one, or its
    last absorption), and log_u, log_v are the potentials of the kernel whose
    log ``log_kernel()`` returns.  A solve resumes from it (``start``)."""

    kernel: np.ndarray
    u: np.ndarray
    v: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray
    sweeps: int
    residual: float


def _held_to_tol(residual: float, tol: float, iterations: int, lead: str) -> None:
    """The one tol test of every solver: ``ConvergenceError``, its message
    ``lead`` and the numbers, unless ``residual`` is within tol (NaN is not)."""
    if not residual <= tol:
        raise ConvergenceError(f"{lead} {residual:.3e} > tol {tol:.3e} "
                               f"after {iterations} iterations", residual, iterations)


def _scale(kernel, log_kernel, a, b, tol, max_iter, symmetric=False, start=None) -> _Scaling:
    """Scale the positive ``kernel`` K to row sums a and column sums b within
    ``tol`` (sup norm) in at most ``max_iter`` sweeps, ``log_kernel()`` giving
    log K only if a sweep has to absorb.  ``start``, the _Scaling of a solve of
    K whose potentials ``kernel`` has absorbed, resumes it: sweep count and log
    potentials f, g carry on, with ``kernel`` read as exp(log K + f_i + g_j).

    Sweeps run in the linear domain from the start: u <- a / (K v),
    v <- b / (K^T u), so the columns are exact and the residual is the row
    violation, read off the K v the next sweep needs.  A sweep whose u or v
    leaves e^{+-115} (or turns non-finite) is redone in the log domain from
    the potentials so far (Schmitzer, "Stabilized sparse scaling algorithms
    for entropy regularized transport problems", 2019): it absorbs them into
    log potentials f, g and the kernel exp(log K + f_i + g_j), whose columns
    sum to b, and the sweeps go on from u = v = 1 on that kernel.  A kernel
    that stays in range is never absorbed.  ``symmetric`` (b = a, symmetric
    kernel) keeps u = v with the damped update u <- sqrt(u * a / (K u)), whose
    error modes shrink by (1 - lambda) / 2, so a nearly decomposable kernel
    does not stall it.

    Alternating sweeps over-relax once their rate rho is known (Thibault,
    Chizat, Dossal & Papadakis, "Overrelaxed Sinkhorn-Knopp", 2017): when the
    residual ratios of the last few sweeps agree (counted from the second
    sweep, or from the sweep after an absorption) and more than that many
    sweeps would remain, the updates become
    u <- u (a / (u K v))^omega and v <- v (b / (v K^T u))^omega with
    omega = min(_OMEGA_MAX, 2 / (1 + sqrt(1 - rho))).  The columns are then
    inexact, so the residual is the larger of the row and column violations
    of the same (u, v); the column part reuses K^T u from the update.  The
    rate seen under omega gives rho again through Young's SOR relation, and
    a larger omega follows when the first estimate was low.  A residual above
    all of the first few over-relaxed residuals drops back to plain sweeps
    until the next absorption, which also resets omega.

    Raises ``ValueError`` for a tol that is not finite and positive or a
    max_iter below 1, before any sweep.
    """
    _validate_tol(tol)
    _validate_max_iter(max_iter)
    log_a = np.log(a)
    f, g, done = (start.log_u, start.log_v, start.sweeps) if start else (0.0, 0.0, 0)
    u = v = np.ones_like(log_a)
    log_k = None  # log_kernel(), made at the first absorption
    kv = kernel @ v
    residual = np.inf
    omega = engaged = 1.0
    relax = not symmetric  # whether over-relaxation may still engage
    history = []  # residuals of the current phase: plain since absorption, or over-relaxed
    absorptions = 0
    for sweep in range(done + 1, max_iter + 1):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if symmetric:
                u_next = v_next = np.sqrt(v * a / kv)
            elif omega == 1.0:
                u_next = a / kv
                v_next = b / (u_next @ kernel)
            else:
                u_next = u * (a / (u * kv)) ** omega
                ktu = u_next @ kernel
                v_next = v * (b / (v * ktu)) ** omega
            absorb = not np.all(np.abs(np.log([u_next, v_next])) < _LOG_SAFE_RANGE)
        if absorb:
            if log_k is None:
                log_k = log_kernel()
            f, g, kernel = _log_sweep(log_k, log_a, b, g + np.log(v), symmetric)
            u = v = np.ones_like(log_a)
            absorptions += 1
            omega, relax, history = 1.0, not symmetric, []
        else:
            u, v = u_next, v_next
        kv = kernel @ v
        residual = float(np.abs(u * kv - a).max())
        if omega != 1.0:
            residual = max(residual, float(np.abs(v * ktu - b).max()))
        if residual <= tol:
            log.debug("scaling converged: %d sweeps, %d absorptions, omega %.3f, "
                      "residual %.3e", sweep, absorptions, engaged, residual)
            return _Scaling(kernel, u, v, f + np.log(u), g + np.log(v), sweep, residual)
        if absorb or sweep == done + 1:
            continue  # the first sweep of a phase is no contraction step: keep it out of the rate
        history.append(residual)
        if omega != 1.0 and len(history) > _RATE_WINDOW and residual > max(history[:_RATE_WINDOW]):
            omega, relax, history = 1.0, False, []
            continue
        rate = _phase_rate(history, omega) if relax else None
        if rate is None or residual * rate**_RATE_WINDOW <= tol:
            continue  # no rate yet, or too few sweeps left to repay a new transient
        # Young's relation maps the rate seen at omega to the plain-sweep rate
        rho = (rate + omega - 1.0) ** 2 / (rate * omega**2)
        if rho < 1.0:
            better = min(_OMEGA_MAX, 2.0 / (1.0 + np.sqrt(1.0 - rho)))
            if better > _OMEGA_STEP * omega:
                omega = engaged = better
                history = []
    log.debug("scaling stalled: %d sweeps, %d absorptions, omega %.3f, residual %.3e",
              max_iter, absorptions, engaged, residual)
    # every sweep missed tol, so this raises
    _held_to_tol(residual, tol, max_iter, "scaling stalled at residual")


def _held_residual(operator: StochasticOperator, tol: float) -> float:
    """The operator's marginal violation max |sums - 1| as its float sums
    measure it.  Where that lies within their rounding bound n * eps of
    ``tol``, the exact sums may fall on the other side: the violation is then
    the larger of the float one and the exact one, each sum taken with
    ``math.fsum``, so an operator within tol is so by either measure."""
    residual = max(operator.residuals.values())
    values = operator.values
    if abs(residual - tol) > values.shape[0] * np.finfo(float).eps * (1.0 + residual):
        return residual
    return max(residual, *(abs(math.fsum([*line.tolist(), -1.0]))
                           for line in (*values, *values.T)))


def _scaled_operator(kernel, log_kernel, tol, max_iter, symmetric=False):
    """Scale ``kernel`` K to unit marginals and form diag(u) K diag(v) in place
    on the kernel the core measured, held to tol by ``_held_residual``.  Returns
    the operator and the _Scaling, whose potentials are those of K.

    The core stops on its own residual, and the built operator's sums can
    still miss tol by rounding.  The solve then resumes with the remaining
    budget on that operator, which has absorbed its potentials.  A round that
    does not lower the held residual, or a budget spent, raises
    ``ConvergenceError``.  ``symmetric`` (u = v) forms K_ij (u_i u_j) a block
    of rows at a time, so the result is bitwise symmetric.
    """
    ones = np.ones(kernel.shape[0])
    lead = f"{'symmetrized ' if symmetric else ''}bistochastic operator misses tol: residual"
    found, missed = None, np.inf
    while True:
        found = _scale(kernel, log_kernel, ones, ones, tol, max_iter, symmetric, start=found)
        kernel, u = found.kernel, found.u
        if symmetric:
            for lo in range(0, u.shape[0], _ROW_BLOCK):
                kernel[lo:lo + _ROW_BLOCK] *= np.multiply.outer(u[lo:lo + _ROW_BLOCK], u)
        else:
            kernel *= u[:, None]
            kernel *= found.v
        operator = StochasticOperator(kernel, "bi", check_tol=np.inf)
        held = _held_residual(operator, tol)
        if held <= tol or found.sweeps == max_iter or not held < missed:
            _held_to_tol(held, tol, found.sweeps, lead)
            return operator, found
        missed = held


def _gauged(log_u, log_v, sweeps, residual) -> ScalingPotentials:
    """The potentials exp(log_u), exp(log_v) with u at unit geometric mean."""
    shift = log_u.mean()
    return ScalingPotentials(np.exp(log_u - shift), np.exp(log_v + shift), sweeps, residual)


def _bistochastic(z, tol, max_iter):
    """``sinkhorn``'s operator, its _Scaling and the row maxima of z."""
    z, top = _validate_logits(z, square=True)
    kernel = np.subtract(z, top)
    np.exp(kernel, out=kernel)
    return (*_scaled_operator(kernel, lambda: z - top, tol, max_iter), top)


def sinkhorn(
    z, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[StochasticOperator, ScalingPotentials]:
    """Scale exp(z) to a bistochastic matrix.

    The sweeps start on exp(z - max_j z_ij): each row peaks at exactly 1, so
    the kernel cannot overflow and no row vanishes; a column that underflows
    makes the core absorb in the log domain.  The operator is diag(u) K diag(v)
    on the kernel K whose marginals the core measured.

    Parameters
    ----------
    z : square matrix of finite log-scores.
    tol : bound on the returned operator's own sup-norm marginal violation
        max(|row sums - 1|, |column sums - 1|), else ``ConvergenceError``.
    max_iter : sweep budget; exceeding it raises ``ConvergenceError``.

    Returns
    -------
    (operator, potentials) with operator entries exp(z + log u_i + log v_j).
    Shifting z by arbitrary u_i + v_j leaves the output unchanged (gauge
    invariance), so only the scaled matrix is canonical; the potentials are
    reported with u normalized to unit geometric mean.
    """
    operator, found, top = _bistochastic(z, tol, max_iter)
    return operator, _gauged(found.log_u - top[:, 0], found.log_v, found.sweeps, found.residual)


def schrodinger_solve(
    kernel, mu_plus, mu_minus, tol: float = 1e-10, max_iter: int = 10_000
) -> ScalingPotentials:
    """Find positive u, v with diag(u) K diag(v) matching prescribed marginals.

    Convergence is declared when both constraints
    u_i * (K v)_i = mu_plus_i and v_j * (K^T u)_j = mu_minus_j hold within
    ``tol`` (sup norm).  Bistochastic scaling is the special case of uniform
    marginals, up to an overall factor of n.  The sweeps run on K itself;
    log K is formed only if a sweep has to absorb.

    Raises
    ------
    ConvergenceError if the residual stays above ``tol`` for ``max_iter``
    sweeps; ValueError for non-positive kernels or invalid marginals.
    """
    k = _finite_matrix(kernel, "kernel", square=True, positive=True)[0]
    n = k.shape[0]
    mu_plus = _validate_marginal(mu_plus, n, "mu_plus")
    mu_minus = _validate_marginal(mu_minus, n, "mu_minus")
    found = _scale(k, lambda: np.log(k), mu_plus, mu_minus, tol, max_iter)
    return _gauged(found.log_u, found.log_v, found.sweeps, found.residual)
