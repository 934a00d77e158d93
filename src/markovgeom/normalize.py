"""Normalizers: softmax, product of experts, and stabilized matrix scaling.

``sinkhorn``, ``schrodinger_solve`` and the bistochastic diffusion operator
share one scaling core: log-domain sweeps absorb the answer into log
potentials, matrix-vector sweeps on the absorbed kernel finish it, so score
ranges of hundreds of nats stay finite.  Scaling potentials are exposed as
positive vectors, the source potential at unit geometric mean (gauge).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

VALID_KINDS = ("row", "column", "bi")

# marginals handed to the scalers must sum to one within this bound
MARGINAL_SUM_TOL = 1e-12

# |log| of the scaling vectors stays below this (about 1e50); leaving that range
# (or turning non-finite) triggers a log-domain absorption sweep
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


class ConvergenceError(RuntimeError):
    """An iterative scaler failed to reach tolerance.

    Carries the residual achieved and the iteration count so the caller can
    decide what to do; no partial matrix is ever returned silently.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _validate_logits(z, *, square: bool = False) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite (masking with -inf is unsupported)")
    if square and z.shape[0] != z.shape[1]:
        raise ValueError(f"square logits required, got shape {z.shape}")
    return z


def _validate_marginal(mu, n: int, name: str) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.shape[0] != n:
        raise ValueError(f"{name} must be a length-{n} vector, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(mu <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    total = mu.sum()
    if abs(total - 1.0) > MARGINAL_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 (got {total!r})")
    return mu


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
    the precise residual contracts belong to the solvers that build operators.
    """

    values: np.ndarray
    kind: str
    check_tol: float = field(default=1e-6, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"operator must be 2-D, got shape {vals.shape}")
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}, got {self.kind!r}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("operator contains non-finite entries")
        if np.any(vals < 0.0):
            raise ValueError("operator entries must be nonnegative")
        if self.kind in ("row", "bi"):
            err = float(np.abs(vals.sum(axis=1) - 1.0).max())
            if err > self.check_tol:
                raise ValueError(f"row sums deviate from 1 by {err:.3e}")
        if self.kind in ("column", "bi"):
            err = float(np.abs(vals.sum(axis=0) - 1.0).max())
            if err > self.check_tol:
                raise ValueError(f"column sums deviate from 1 by {err:.3e}")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


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
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        for name, vec in (("u", u), ("v", v)):
            if vec.ndim != 1:
                raise ValueError(f"potential {name} must be a vector")
            if not np.all(np.isfinite(vec)) or np.any(vec <= 0.0):
                raise ValueError(f"potential {name} must be strictly positive and finite")
        if self.iterations < 0 or self.residual < 0.0:
            raise ValueError("iterations and residual must be nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def softmax_rows(z) -> StochasticOperator:
    """Row-normalized exponential of the log-scores, max-subtracted for stability."""
    z = _validate_logits(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return StochasticOperator(e / e.sum(axis=1, keepdims=True), "row")


def softmax_cols(z) -> StochasticOperator:
    """Column-normalized exponential of the log-scores; mirror of ``softmax_rows``."""
    z = _validate_logits(z)
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return StochasticOperator(e / e.sum(axis=0, keepdims=True), "column")


def poe_combine(a: StochasticOperator, b: StochasticOperator) -> StochasticOperator:
    """Combine two experts by Hadamard product and renormalization.

    Both operands must share shape and kind (row or column).  The result is
    exactly the softmax of summed log-scores: combining ``softmax_rows(z)``
    with ``softmax_rows(s)`` reproduces ``softmax_rows(z + s)``.
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
    if np.any(norm == 0.0):
        raise ValueError("experts have disjoint support along the stochastic axis")
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


def _recent_ratios(history):
    """Ratios of the last _RATE_WINDOW successive residuals, or None while the
    history is shorter; a zero residual makes the next ratio infinite."""
    if len(history) <= _RATE_WINDOW:
        return None
    tail = history[-_RATE_WINDOW - 1:]
    return [later / earlier if earlier > 0.0 else np.inf
            for earlier, later in zip(tail, tail[1:])]


def _phase_rate(history, omega):
    """Residual contraction per sweep over the last few sweeps of a phase, or
    None while it is not measurable.  Plain sweeps count once their ratios
    agree (their maximum); over-relaxed sweeps, whose ratios oscillate, once
    the phase's first window has passed (their geometric mean)."""
    if omega == 1.0:
        ratios = _recent_ratios(history)
        if ratios is None or max(ratios) > _RATE_SPREAD * min(ratios):
            return None
        return max(ratios)
    if len(history) <= 2 * _RATE_WINDOW:
        return None
    return (history[-1] / history[-1 - _RATE_WINDOW]) ** (1.0 / _RATE_WINDOW)


def _scale(log_kernel, a, b, tol, max_iter, symmetric=False):
    """(log u, log v, sweeps, residual): diag(u) exp(log_kernel) diag(v) has row
    sums a and column sums b within ``tol`` (sup norm); log u has zero mean.

    Sweep 1 runs in the log domain and absorbs most of the answer into f, g;
    later sweeps are u <- a / (K v), v <- b / (K^T u) on the absorbed kernel K,
    so the columns are exact and the residual is the row violation, read off
    the K v the next sweep needs.  A sweep whose u or v leaves the safe range
    is redone in the log domain.  ``symmetric`` (b = a, symmetric kernel) keeps
    u = v with the damped update u <- sqrt(u * a / (K u)), whose error modes
    shrink by (1 - lambda) / 2, so a nearly decomposable kernel does not stall it.

    Alternating sweeps over-relax once their rate rho is known (Thibault,
    Chizat, Dossal & Papadakis, "Overrelaxed Sinkhorn-Knopp", 2017): when the
    residual ratios of the last few sweeps since the absorption agree and more
    than that many sweeps would remain, the updates become
    u <- u (a / (u K v))^omega and v <- v (b / (v K^T u))^omega with
    omega = min(_OMEGA_MAX, 2 / (1 + sqrt(1 - rho))).  The columns are then
    inexact, so the residual is the larger of the row and column violations
    of the same (u, v); the column part reuses K^T u from the update.  The
    rate seen under omega gives rho again through Young's SOR relation, and
    a larger omega follows when the first estimate was low.  A residual above
    all of the first few over-relaxed residuals drops back to plain sweeps
    until the next absorption, which also resets omega.
    """
    log_a = np.log(a)
    g = np.zeros_like(log_a)
    u = v = np.ones_like(log_a)
    residual = np.inf
    omega = engaged = 1.0
    relax = not symmetric  # whether over-relaxation may still engage
    history = []  # residuals of the current phase: plain since absorption, or over-relaxed
    absorptions = 0
    for sweep in range(1, max_iter + 1):
        absorb = sweep == 1
        if not absorb:
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
            if not absorb:
                u, v = u_next, v_next
        if absorb:
            f, g, kernel = _log_sweep(log_kernel, log_a, b, g + np.log(v), symmetric)
            u = v = np.ones_like(log_a)
            absorptions += 1
            omega, relax, history = 1.0, not symmetric, []
        kv = kernel @ v
        residual = float(np.abs(u * kv - a).max())
        if omega != 1.0:
            residual = max(residual, float(np.abs(v * ktu - b).max()))
        if residual <= tol:
            log.debug("scaling converged: %d sweeps, %d absorptions, omega %.3f, "
                      "residual %.3e", sweep, absorptions, engaged, residual)
            log_u = f + np.log(u)
            shift = log_u.mean()
            return log_u - shift, g + np.log(v) + shift, sweep, residual
        if absorb:
            continue  # the absorbing sweep is no plain sweep: keep it out of the rate
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
    raise ConvergenceError(
        f"scaling stalled at residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations",
        residual=residual,
        iterations=max_iter,
    )


def sinkhorn(
    z, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[StochasticOperator, ScalingPotentials]:
    """Scale exp(z) to a bistochastic matrix.

    Parameters
    ----------
    z : square matrix of finite log-scores.
    tol : convergence threshold on the sup-norm marginal violation
        max(|row sums - 1|, |column sums - 1|).
    max_iter : sweep budget; exceeding it raises ``ConvergenceError``.

    Returns
    -------
    (operator, potentials) with operator entries exp(z + log u_i + log v_j).
    Shifting z by arbitrary u_i + v_j leaves the output unchanged (gauge
    invariance), so only the scaled matrix is canonical; the potentials are
    reported with u normalized to unit geometric mean.
    """
    z = _validate_logits(z, square=True)
    ones = np.ones(z.shape[0])
    log_u, log_v, sweeps, residual = _scale(z, ones, ones, tol, max_iter)
    scaled = z + log_u[:, None]
    scaled += log_v
    np.exp(scaled, out=scaled)
    potentials = ScalingPotentials(np.exp(log_u), np.exp(log_v), sweeps, residual)
    # the contract is tol, so the construction bound must not be tighter; the
    # factor 2 covers rounding between the core's residual and a fresh sum
    return StochasticOperator(scaled, "bi", check_tol=max(1e-6, 2.0 * tol)), potentials


def schrodinger_solve(
    kernel, mu_plus, mu_minus, tol: float = 1e-10, max_iter: int = 10_000
) -> ScalingPotentials:
    """Find positive u, v with diag(u) K diag(v) matching prescribed marginals.

    Convergence is declared when both constraints
    u_i * (K v)_i = mu_plus_i and v_j * (K^T u)_j = mu_minus_j hold within
    ``tol`` (sup norm).  Bistochastic scaling is the special case of uniform
    marginals, up to an overall factor of n.

    Raises
    ------
    ConvergenceError if the residual stays above ``tol`` for ``max_iter``
    sweeps; ValueError for non-positive kernels or invalid marginals.
    """
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel must be square, got shape {k.shape}")
    if not np.all(np.isfinite(k)) or np.any(k <= 0.0):
        raise ValueError("kernel must be strictly positive and finite")
    n = k.shape[0]
    mu_plus = _validate_marginal(mu_plus, n, "mu_plus")
    mu_minus = _validate_marginal(mu_minus, n, "mu_minus")
    log_u, log_v, sweeps, residual = _scale(np.log(k), mu_plus, mu_minus, tol, max_iter)
    return ScalingPotentials(np.exp(log_u), np.exp(log_v), sweeps, residual)
