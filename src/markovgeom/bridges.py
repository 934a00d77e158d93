"""Entropic bridges over positive kernels and their operator identities.

A one-step bridge is the KL-closest coupling to a positive reference kernel
subject to prescribed row and column marginals; it factorizes as
diag(u_plus) K diag(u_minus).  The diffusion operator is the equilibrium
special case (equal marginals given by normalized kernel row sums, closed-form
potentials, no iterations); attention operators arise from the same machinery
over a directional kernel and are generically non-reversible.  This module
also houses probability currents, regime classification, and the exact
factorizations tying the diffusion operator to the directional attention maps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Bidivergence, _validate_beta, squared_distance
from .normalize import (
    ConvergenceError,
    ScalingPotentials,
    StochasticOperator,
    _marginal_violation,
    _validate_tol,
    logsumexp,
    poe_combine,
    schrodinger_solve,
    softmax_rows,
)
from .operators import ComplexOperator, _polar, directional_kernels, dmap, rbf_kernel

# currents below this fraction of the largest flux count as zero when
# separating equilibrium from steady-state circulation
CURRENT_ZERO_FRACTION = 1e-9

# pseudo-random sign vectors whose solves estimate the norm of the bordered
# inverse; they share the one LU with the fixed point
_NORM_PROBES = 8

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class BridgeSolution:
    """Coupling with its scaling potentials, marginals, and forward operator.

    The coupling reconstructs as diag(u) K diag(v) from the potentials, and
    the forward operator is the coupling with each row divided by the source
    marginal, making it row-stochastic up to the solver residual.
    """

    coupling: np.ndarray
    potentials: ScalingPotentials
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    forward: StochasticOperator


@dataclass(frozen=True, eq=False)
class RegimeReport:
    """Classification of an operator/marginal pair as EQ, NESS, or NE.

    ``stationary`` is the common marginal when both agree (EQ/NESS) and None
    for genuine one-step transport (NE).  Residuals are always reported so a
    borderline call can be audited.
    """

    regime: str
    stationary: np.ndarray | None
    currents: np.ndarray
    max_current: float
    current_threshold: float
    stationarity_residual: float
    marginal_gap: float


def _validate_probability(vec, n: int, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != n:
        raise ValueError(f"{name} must be a length-{n} vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)) or np.any(vec < 0.0):
        raise ValueError(f"{name} must be nonnegative and finite")
    return vec


def _normalized_degrees(k: np.ndarray) -> np.ndarray:
    """Stationary measure of the diffusion operator over a symmetric kernel:
    its row sums (degrees) normalized to a probability vector."""
    degrees = k.sum(axis=1)
    return degrees / degrees.sum()


def solve_bridge(
    kernel,
    mu_plus,
    mu_minus,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> BridgeSolution:
    """Solve the one-step bridge over a strictly positive reference kernel.

    The returned coupling has row sums mu_plus and column sums mu_minus within
    ``tol``, and its forward operator propagates mu_plus to mu_minus.
    """
    k = np.asarray(kernel, dtype=float)
    potentials = schrodinger_solve(k, mu_plus, mu_minus, tol=tol, max_iter=max_iter)
    mu_plus = np.asarray(mu_plus, dtype=float)
    mu_minus = np.asarray(mu_minus, dtype=float)
    coupling = potentials.u[:, None] * k * potentials.v[None, :]
    # row sums equal mu_plus only to the solver residual, so loosen the
    # construction sanity bound accordingly for small marginal entries
    check_tol = max(1e-6, 10.0 * tol / float(mu_plus.min()))
    forward = StochasticOperator(coupling / mu_plus[:, None], "row", check_tol=check_tol)
    return BridgeSolution(coupling, potentials, mu_plus, mu_minus, forward)


def dmap_as_bridge(d2, beta: float) -> BridgeSolution:
    """The diffusion operator as an equilibrium bridge, in closed form.

    The Gaussian kernel's normalized row sums give the intrinsic stationary
    distribution pi; with both marginals equal to pi the bridge coupling is
    diag(pi) P_plus, realized by the closed-form potentials u = pi / rowsums
    and v = 1 without running any iterations.
    """
    kernel = rbf_kernel(d2, beta)
    k = kernel.values
    pi = _normalized_degrees(k)
    u = pi / k.sum(axis=1)
    v = np.ones_like(pi)
    coupling = u[:, None] * k
    residual = _marginal_violation(coupling, pi, pi)
    potentials = ScalingPotentials(u, v, iterations=0, residual=residual)
    forward = StochasticOperator(coupling / pi[:, None], "row")
    return BridgeSolution(coupling, potentials, pi, pi, forward)


def doob_transform(p_plus: StochasticOperator, h) -> StochasticOperator:
    """Reweight a row-stochastic operator by a positive function of the
    destination state and renormalize the rows.

    Constant h (any positive scale) is neutral and returns the operator
    unchanged, exactly.
    """
    if p_plus.kind not in ("row", "bi"):
        raise ValueError("doob_transform expects a row-stochastic operator")
    h = np.asarray(h, dtype=float)
    n = p_plus.shape[1]
    if h.ndim != 1 or h.shape[0] != n:
        raise ValueError(f"h must be a length-{n} vector, got shape {h.shape}")
    if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
        raise ValueError("h must be strictly positive and finite")
    if np.all(h == h[0]):
        return p_plus
    weighted = p_plus.values * h[None, :]
    return StochasticOperator(weighted / weighted.sum(axis=1, keepdims=True), "row")


def _sign_probes(n: int) -> np.ndarray:
    """(n, _NORM_PROBES) pseudo-random signs from splitmix64 of the entry index:
    fixed, so the same input gives the same answer, and without the cost of
    importing numpy.random (about 6 MB and 10 ms in a fresh process)."""
    z = np.arange(1, n * _NORM_PROBES + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return np.where(z >> np.uint64(63), 1.0, -1.0).reshape(n, _NORM_PROBES)


def stationary_distribution(p: StochasticOperator, tol: float = 1e-12) -> np.ndarray:
    """Left fixed point of a strictly positive row-stochastic operator, within
    ``tol`` of the exact one in sup norm.

    One LU solve of the bordered system A pi = e_n, A = P^T - I with its last
    row set to ones; positivity makes the fixed point unique.  The diagonal
    of A is formed as in GTH elimination, as minus the off-diagonal mass of
    its column, not as P_ii - 1, so a state whose P_ii rounds to 1 keeps its
    balance equation.  A residual r = e_n - A pi moves pi by A^{-1} r, so the
    error is bounded by |A^{-1}| (|r| + sqrt(n) eps |pi|), the second term for
    the rounding in forming r.  |A^{-1}| is estimated by pseudo-random sign
    probes solved with pi; a nearly decomposable chain has a huge one, and
    there a tiny residual certifies nothing.  At most one refinement step;
    raises ``ConvergenceError`` when the bound still exceeds ``tol``, and
    ``ValueError`` for a tol that is not finite and positive.
    """
    _validate_tol(tol)
    if p.kind not in ("row", "bi"):
        raise ValueError("stationary_distribution expects a row-stochastic operator")
    values = p.values
    if np.any(values <= 0.0):
        raise ValueError("operator must be strictly positive for a unique fixed point")
    n = values.shape[0]
    system = values.T.copy()
    np.fill_diagonal(system, 0.0)
    np.fill_diagonal(system, -system.sum(axis=0))
    system[-1] = 1.0
    rhs = np.zeros((n, 1 + _NORM_PROBES))
    rhs[-1, 0] = 1.0
    rhs[:, 1:] = _sign_probes(n)
    solution = np.linalg.solve(system, rhs)
    pi = np.ascontiguousarray(solution[:, 0])
    inverse_norm = float(np.abs(solution[:, 1:]).max())
    floor = np.sqrt(n) * np.finfo(float).eps
    for refined in (False, True):
        residual = -(system @ pi)
        residual[-1] += 1.0
        bound = inverse_norm * (float(np.abs(residual).max()) + floor * float(pi.max()))
        if bound <= tol or refined:
            break
        pi += np.linalg.solve(system, residual)
    log.debug("stationary measure: direct solve, refined %s, error bound %.3e", refined, bound)
    if bound > tol:
        raise ConvergenceError(
            f"stationary distribution misses tol after a direct solve: error bound "
            f"{bound:.3e} > tol {tol:.3e} (inverse norm {inverse_norm:.1e})",
            residual=bound,
            iterations=1,
        )
    return pi


def currents(p: StochasticOperator, rho) -> np.ndarray:
    """Antisymmetric probability currents rho_i P_ij - rho_j P_ji."""
    rho = _validate_probability(rho, p.shape[0], "rho")
    flux = rho[:, None] * p.values
    return flux - flux.T


def classify_regime(
    p: StochasticOperator, mu_plus, mu_minus, tol: float = 1e-10
) -> RegimeReport:
    """Classify an operator with endpoint marginals as EQ, NESS, or NE.

    Distinct marginals (beyond ``tol``) mean one-step transport (NE) and are
    tested first.  Otherwise the pair is a steady-state candidate: vanishing
    currents at the common marginal give EQ (detailed balance), circulating
    currents give NESS.  "Vanishing" is scale-relative: below a fixed fraction
    of the largest one-step flux.
    """
    n = p.shape[0]
    mu_plus = _validate_probability(mu_plus, n, "mu_plus")
    mu_minus = _validate_probability(mu_minus, n, "mu_minus")
    marginal_gap = float(np.abs(mu_plus - mu_minus).max())
    flux = mu_plus[:, None] * p.values
    j = flux - flux.T
    max_current = float(np.abs(j).max())
    threshold = CURRENT_ZERO_FRACTION * float(flux.max())
    stationarity_residual = float(np.abs(mu_plus @ p.values - mu_plus).max())
    if marginal_gap > tol:
        regime = "NE"
        stationary = None
    elif max_current <= threshold:
        regime = "EQ"
        stationary = mu_plus
    else:
        regime = "NESS"
        stationary = mu_plus
    return RegimeReport(
        regime=regime,
        stationary=stationary,
        currents=j,
        max_current=max_current,
        current_threshold=threshold,
        stationarity_residual=stationarity_residual,
        marginal_gap=marginal_gap,
    )


def sb_factorization_check(bidiv: Bidivergence, beta: float) -> float:
    """Deviation of the bridge-style attention factorization from the
    diffusion operator.

    Assembles, in the log domain, the row-normalized product of the forward
    attention map, the backward attention map, and the backward column mass
    z_minus_j (the column sums of the backward directional kernel), and
    returns the sup-norm difference from the diffusion operator built on the
    summed divergences.  Exact algebraically; the return value measures pure
    floating-point drift.
    """
    beta = _validate_beta(beta)
    log_fwd = -beta * bidiv.fwd
    log_bwd = -beta * bidiv.bwd
    log_a_plus = log_fwd - logsumexp(log_fwd, axis=1, keepdims=True)
    log_a_minus = log_bwd - logsumexp(log_bwd, axis=0, keepdims=True)
    log_z_minus = logsumexp(log_bwd, axis=0)
    terms = log_a_plus + log_a_minus + log_z_minus[None, :]
    rhs = np.exp(terms - logsumexp(terms, axis=1, keepdims=True))
    reference = dmap(squared_distance(bidiv), beta).values
    return float(np.abs(rhs - reference).max())


def poe_factorization(bidiv: Bidivergence, beta: float) -> StochasticOperator:
    """Diffusion operator as a product of two row-softmax directional experts.

    Both experts use row normalization, so their combination is the row
    softmax of the summed divergences, i.e. the diffusion operator itself.
    """
    beta = _validate_beta(beta)
    forward_expert = softmax_rows(-beta * bidiv.fwd)
    backward_expert = softmax_rows(-beta * bidiv.bwd)
    return poe_combine(forward_expert, backward_expert)


def attention_bridge(
    bidiv: Bidivergence,
    beta: float,
    mu_plus,
    mu_minus,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> BridgeSolution:
    """Bridge over the forward directional kernel exp(-beta * fwd).

    The forward operator of the solution is a column-biased attention map:
    the row softmax of the forward logits plus log u_minus per column,
    equivalently a Doob transform of the plain forward attention with
    h = u_minus.  Choosing mu_minus = mu_plus @ A_plus makes it coincide with
    the plain forward attention map.
    """
    kernel, _ = directional_kernels(bidiv, beta)
    return solve_bridge(kernel, mu_plus, mu_minus, tol=tol, max_iter=max_iter)


def magnetic_flux(pi, op: ComplexOperator) -> tuple[np.ndarray, np.ndarray]:
    """Complex edge flux pi_i P_ij e^{i Theta_ij} and its imaginary part.

    The imaginary part pi_i P_ij sin(Theta_ij) acts as a magnetic current: it
    vanishes identically for zero phases and is antisymmetric whenever the
    magnitudes satisfy detailed balance with pi.  The real part is the
    classical flux weighted by cos(Theta).
    """
    magnitudes = op.magnitudes.values
    pi = _validate_probability(pi, magnitudes.shape[0], "pi")
    flux = _polar(pi[:, None] * magnitudes, op.phases)
    return flux, flux.imag.copy()


def attention_gauge(pi_plus, a_plus: StochasticOperator) -> np.ndarray:
    """Antisymmetric log-flux field log(pi_i A_ij / (pi_j A_ji)).

    Zero exactly when the pair satisfies detailed balance; otherwise it
    encodes the steady-state circulation as a gauge field that can be attached
    to a reversible operator via ``magnetic_operator``.  Values are reported
    unwrapped (phases are only meaningful mod 2 pi).
    """
    values = a_plus.values
    pi_plus = _validate_probability(pi_plus, values.shape[0], "pi_plus")
    flux = pi_plus[:, None] * values
    if np.any(flux <= 0.0):
        raise ValueError("operator and stationary vector must be strictly positive")
    log_flux = np.log(flux)
    return log_flux - log_flux.T
