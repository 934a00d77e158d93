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
from typing import NamedTuple

import numpy as np

from .geometry import Bidivergence, _validate_beta, squared_distance
from .normalize import (
    ScalingPotentials,
    StochasticOperator,
    _bridge,
    _chain_values,
    _held_to_tol,
    _marginal_violation,
    _state_vector,
    _validate_tol,
    logsumexp,
    poe_combine,
    softmax_rows,
)
from .operators import ComplexOperator, _diffusion, _polar, _range_error, directional_kernels, dmap

# currents below this fraction of the largest flux, or below the tol the
# marginals hold to, count as zero when separating equilibrium from
# steady-state circulation
CURRENT_ZERO_FRACTION = 1e-9

# pseudo-random sign vectors whose solves estimate the norm of the bordered
# inverse; they share the one LU with the fixed point
_NORM_PROBES = 8

# unit roundoff of float64
_UNIT_ROUNDOFF = 2.0 ** -53

# relative margin on each certified bound for the rounding in evaluating the
# bound itself: sums of at most n nonnegative terms, each within gamma_n, which
# stays below 1e-9 for any n under 9e6; it also covers the absolute error of
# subnormal products, at most n^2 2^-1075, far below 1e-9 of any bound that
# can pass
_BOUND_SLACK = 1e-9

# rows (or columns) per block of the Doeblin rung's gemv sums: an entry sums at
# most this many terms per block, so its rounding is gamma of about
# _SUM_BLOCK + n / _SUM_BLOCK rather than gamma_n
_SUM_BLOCK = 256

# rows per strip of the detailed-balance scan: its temporaries stay O(n)
_STRIP_ROWS = 16

# smallest stationary entry the detailed-balance rung accepts: a flow ratio
# whose intermediate underflowed then lands below 2^-22, far from 1
_RATIO_FLOOR = 2.0 ** -1000

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class BridgeSolution:
    """Coupling with its scaling potentials, marginals, and forward operator.

    ``solve_bridge`` forms the coupling diag(u) K diag(v) on the kernel its
    solver last measured and holds it to tol; it reconstructs from the
    potentials to rounding.  The forward operator is the coupling with each
    row divided by the source marginal, so its rows sum to 1 within
    tol / mu_plus.
    """

    coupling: np.ndarray
    potentials: ScalingPotentials
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    forward: StochasticOperator


@dataclass(frozen=True, eq=False)
class RegimeReport:
    """Classification of an operator/marginal pair as EQ, NESS, or NE.

    At a steady state (EQ/NESS) mu_plus is the common marginal that the
    operator preserves; NE is one-step transport.  Residuals are always
    reported so a borderline call can be audited.
    """

    regime: str
    currents: np.ndarray
    max_current: float
    current_threshold: float
    stationarity_residual: float
    marginal_gap: float


def solve_bridge(
    kernel,
    mu_plus,
    mu_minus,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> BridgeSolution:
    """Solve the one-step bridge over a strictly positive reference kernel.

    The returned coupling's own row and column sums are mu_plus and mu_minus
    within ``tol``, else ``ConvergenceError``; its forward operator (rows
    summing to 1 within tol / mu_plus) propagates mu_plus to mu_minus.
    """
    mu_plus, mu_minus, coupling, potentials = _bridge(kernel, mu_plus, mu_minus, tol, max_iter)
    forward = StochasticOperator(coupling / mu_plus[:, None], "row", check_tol=np.inf)
    return BridgeSolution(coupling, potentials, mu_plus, mu_minus, forward)


def dmap_as_bridge(d2, beta: float) -> BridgeSolution:
    """The diffusion operator as an equilibrium bridge, in closed form.

    With both marginals equal to the stationary distribution pi of the
    diffusion operator P_plus (the normalized kernel degrees), the coupling
    is diag(pi) P_plus and the forward operator P_plus itself; the kernel's
    diagonal is exactly 1, so the potentials are u = pi diag(P_plus) and
    v = 1.  No iterations run and the kernel is never formed, so this is
    defined wherever ``dmap`` is.
    """
    forward, pi = _diffusion(d2, beta)
    coupling = pi[:, None] * forward.values
    potentials = ScalingPotentials(pi * np.diag(forward.values), np.ones_like(pi), iterations=0,
                                   residual=_marginal_violation(coupling, pi, pi))
    return BridgeSolution(coupling, potentials, pi, pi, forward)


def doob_transform(p_plus: StochasticOperator, h) -> StochasticOperator:
    """Reweight a row-stochastic operator by a positive function of the
    destination state and renormalize the rows.

    Constant h (any positive scale) is neutral and returns the operator
    unchanged, exactly.
    """
    if p_plus.kind not in ("row", "bi"):
        raise ValueError("doob_transform expects a row-stochastic operator")
    h = _state_vector(h, p_plus.shape[1], "h", positive=True)
    if np.all(h == h[0]):
        return p_plus
    weighted = p_plus.values * h[None, :]
    return StochasticOperator(weighted / weighted.sum(axis=1, keepdims=True), "row")


# a rung's proposal: a fixed point, its error bound, and the debug record's
# name for the rung; only the LU, the last rung, can be left to miss tol
class _Candidate(NamedTuple):
    pi: np.ndarray
    bound: float
    how: str


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


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: a sum of k + 1
    nonnegative terms, or a dot product of k of them, in any order, is within
    gamma_k of the exact value relative to that value."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _sum_error(x: np.ndarray) -> tuple[float, float]:
    """(the computed sum of x >= 0, a bound on max x |1 - 1/s|): how far x is,
    in sup norm, from x / s, s its exact sum."""
    total = float(x.sum())
    gap = abs(total - 1.0) + _gamma(x.shape[0]) * total
    return total, float(x.max()) * gap / total


def _vecmat(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """x @ values as an accumulated sum of row-block gemv products (row sums
    of P as 1 @ P^T, whose row blocks are column blocks of P)."""
    z = x[:_SUM_BLOCK] @ values[:_SUM_BLOCK]
    for lo in range(_SUM_BLOCK, x.shape[0], _SUM_BLOCK):
        z += x[lo:lo + _SUM_BLOCK] @ values[lo:lo + _SUM_BLOCK]
    return z


def _doeblin(values: np.ndarray, column_minima: np.ndarray, tol: float):
    """Rung 1: power steps certified by the Doeblin coefficient, O(n^2) each.

    The exact chain is P~, P with the GTH diagonal 1 - sum_{j != i} P_ij, so
    P~ = P - diag(e), e the exact row-sum defects.  Its column minima sum to
    alpha >= sum_k (min_i P_ik - max(e_k, 0)), and for any x >= 0 with exact
    sum s and r = x P~ - x (Seneta 1988; Cho & Meyer 2001)
        max |x / s - pi| <= |r|_1 / (2 alpha s).
    The computed x P is within gamma_m (x P) of the exact one and the
    computed row sums within gamma_m of theirs, both summed by ``_vecmat``
    in m <= 256 + n / 256 roundings, so
        |r|_1 <= sum |fl(xP) - x| + gamma_m sum fl(xP) + sum_k x_k |e_k|,
    with |e_k| bounded by the measured defect plus gamma_m times the row sum.

    Returns a candidate once a step's bound is within tol, or None when the
    rounding alone exceeds tol or the observed rate cannot certify within
    8 + n / 25 steps: a step costs about 1/80 of the LU at n = 400 to 1000
    and 1/180 at n = 2000, so the rung stays under half of the LU from
    n = 200 on.  The rate prediction alone enforces that cap.  It is the
    bound's own expression at the residual shrunk by rate^(cap - step), with
    rate 0 at step 1.  At step == cap, rate^0 = 1.0 and residual * 1.0 =
    residual, so it is the step's bound bit for bit: leaving is the exact
    complement of accepting, and the loop returns at step cap at the latest.
    """
    n = values.shape[0]
    # a _vecmat entry sums at most _SUM_BLOCK terms per block, plus one
    # rounding per block accumulated
    gm = _gamma(min(n, _SUM_BLOCK) + -(-n // _SUM_BLOCK))
    alpha = float(column_minima.sum())
    # the two gamma_m terms alone bound the error by about gm / alpha
    if gm > tol * alpha:
        return None
    sums = _vecmat(np.ones(n), values.T)
    defect = np.abs(sums - 1.0) + gm * sums
    alpha = alpha / (1.0 + _BOUND_SLACK) - float(np.maximum(sums - 1.0, 0.0).sum()
                                                 + gm * sums.sum()) * (1.0 + _BOUND_SLACK)
    if alpha <= 0.0:
        return None
    cap = 8 + n // 25
    x = np.full(n, 1.0 / n)
    previous = np.inf
    for step in range(1, cap + 1):
        z = _vecmat(x, values)
        z_total = float(z.sum())
        total, sum_error = _sum_error(x)
        residual = float(np.abs(z - x).sum())
        rounding = gm * z_total + float(x @ defect)

        def bound_after(shrink: float) -> float:
            return ((residual * shrink + rounding) / (2.0 * alpha * total)
                    + sum_error) * (1.0 + _BOUND_SLACK)

        bound = bound_after(1.0)
        if bound <= tol:
            return _Candidate(x, bound, f"Doeblin certificate after {step} power steps")
        # the first rate is 0; a residual of 0 accepts or leaves (its bound is
        # bound_after(0.0)), so previous is never 0
        rate = residual / previous
        if rate >= 1.0 or bound_after(rate ** (cap - step)) > tol:
            return None
        previous = residual
        x = z / z_total


def _reversible(values: np.ndarray, tol: float):
    """Rung 2: the detailed-balance certificate for reversible chains, O(n^2).

    pi_j proportional to P_0j / P_j0 is exact for a reversible chain.  With
    delta >= max |pi_i P_ij / (pi_j P_ji) - 1|, scaling each P_ij by
    sqrt(pi_j P_ji / (pi_i P_ij)) gives a chain reversible for pi exactly,
    within relative d = 1 - sqrt(1 - delta) of P off the diagonal (the only
    entries the fixed point depends on).  Every spanning-tree weight of the
    Markov chain tree theorem then moves by a factor within (1 +- d)^(n-1),
    so the fixed point moves by at most ((1 + d) / (1 - d))^(n-1) - 1
    relative to pi.  The flow ratios are formed as (P_ij / P_ji) pi_i / pi_j,
    three roundings each, which stay relative for subnormal P (division is
    correctly rounded) and, with pi >= _RATIO_FLOOR, turn any underflow on the
    way into a ratio far below 1.  They are scanned a strip of rows at a
    time, so a chain far from reversible leaves after the first strip, O(n)
    work.  Returns a candidate, or None when pi is out of range or a ratio
    lies beyond the largest delta that can meet tol.

    delta <= 1 - 2^-53, so sqrt(1 - delta) and log1p(-d) stay finite.  From d
    to limit and from worst to delta each step is one rounded operation with
    a fixed other operand, nondecreasing in its input.  tanh gives d <= 1,
    and for a float d < 1, d fl(2 - d) <= 1 - (1 - d)^2 + 2^-53 d rounds to
    at most 1.  So worst <= limit <= 0.9999999989999991, its value at a
    product of 1, where delta evaluates to 1 - 2^-53.
    """
    n = values.shape[0]
    if n < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        pi = values[0] / values[:, 0]
        pi /= pi.sum()
    if not (np.isfinite(pi.max()) and pi.min() >= _RATIO_FLOOR):
        return None
    total, sum_error = _sum_error(pi)
    scale = float(pi.max()) / total
    allowed = (tol / (1.0 + _BOUND_SLACK) - sum_error) / scale
    if allowed <= 0.0:
        return None
    # invert the tree bound: the largest delta whose bound stays within tol,
    # less the rounding of the computed ratios (three roundings each)
    d = float(np.tanh(np.log1p(allowed) / (2.0 * (n - 1))))
    g3 = _gamma(3)
    limit = (d * (2.0 - d) / (1.0 + _BOUND_SLACK) - g3) / (1.0 + g3)
    worst = 0.0
    for lo in range(0, n, _STRIP_ROWS):
        hi = min(lo + _STRIP_ROWS, n)
        # the mirror strip is copied contiguous first: read strided, numpy would
        # buffer it in larger chunks than the strip itself.  It must be a copy:
        # a one-row last strip is already contiguous, and a view of it would
        # write its ratio over the operator's last diagonal entry
        ratio = values[lo:, lo:hi].T.copy()
        with np.errstate(over="ignore", under="ignore"):
            np.divide(values[lo:hi, lo:], ratio, out=ratio)
            ratio *= pi[lo:hi, None]
            ratio /= pi[lo:]
        above, below = float(ratio.max()) - 1.0, 1.0 - float(ratio.min())
        if not (above <= limit and below <= limit):
            return None
        worst = max(worst, above, below)
    delta = (worst + g3 * (1.0 + worst)) * (1.0 + _BOUND_SLACK)
    d = delta / (1.0 + np.sqrt(1.0 - delta))
    spread = float(np.expm1((n - 1) * (np.log1p(d) - np.log1p(-d))))
    bound = (sum_error + spread * scale) * (1.0 + _BOUND_SLACK)
    return _Candidate(pi, bound, "reversibility certificate")


def _direct(values: np.ndarray) -> _Candidate:
    """Rung 3: one LU solve of the bordered system, certified by sign probes."""
    n = values.shape[0]
    system = values.T.copy()
    np.fill_diagonal(system, 0.0)
    np.fill_diagonal(system, -system.sum(axis=0))
    system[-1] = 1.0
    rhs = np.zeros((n, 1 + _NORM_PROBES))
    rhs[-1, 0] = 1.0
    rhs[:, 1:] = _sign_probes(n)
    solution = np.linalg.solve(system, rhs)
    pi = solution[:, 0]
    inverse_norm = float(np.abs(solution[:, 1:]).max())
    residual = -(system @ pi)
    residual[-1] += 1.0
    bound = inverse_norm * (float(np.abs(residual).max())
                            + np.sqrt(n) * np.finfo(float).eps * float(pi.max()))
    return _Candidate(np.maximum(pi, 0.0), bound,
                      f"direct solve (inverse norm {inverse_norm:.1e})")


def stationary_distribution(p: StochasticOperator, tol: float = 1e-12) -> np.ndarray:
    """Left fixed point of a strictly positive row-stochastic operator, within
    ``tol`` of the exact one in sup norm.

    The exact chain keeps P off the diagonal and takes the diagonal of GTH
    elimination (Grassmann, Taksar & Heyman 1985), 1 minus the off-diagonal
    mass of its row, so a state whose P_ii rounds to 1 keeps its balance
    equation.  Three rungs propose in turn a fixed point with an error bound,
    and the first candidate whose bound is within ``tol`` answers:

    1. power steps with the Doeblin certificate, O(n^2) per step, for chains
       whose column minima sum to more than about n u / tol (``_doeblin``);
    2. the detailed-balance certificate, O(n^2), for reversible chains
       (``_reversible``);
    3. one LU solve of the bordered system A pi = e_n, A = P^T - I with its
       last row set to ones.  A residual r = e_n - A pi moves pi by
       A^{-1} r, so the error is bounded by |A^{-1}| (|r| + sqrt(n) eps |pi|),
       |A^{-1}| estimated by pseudo-random sign probes solved with pi from
       the same factorization.  ``ConvergenceError`` when the bound exceeds
       ``tol``.  There is no refinement step: in working precision it
       shrinks only |r|, not the rounding term (Higham 2002, ch. 12), and
       on every miss measured that term alone exceeded ``tol``.  Entries
       that round below 0 are clipped to 0, not renormalized: that moves
       them closer to the nonnegative fixed point, so the bound still holds.

    The first two bounds are rigorous, rounding included.  One debug record
    names the rung that answered (or the LU that missed) and its bound.
    Raises ``ValueError`` for a tol that is not finite and positive or an
    operator with a zero entry.
    """
    _validate_tol(tol)
    values = _chain_values(p, "stationary_distribution")
    column_minima = values.min(axis=0)
    if column_minima.min() <= 0.0:
        raise ValueError("operator must be strictly positive for a unique fixed point")
    for propose in (lambda: _doeblin(values, column_minima, tol),
                    lambda: _reversible(values, tol), lambda: _direct(values)):
        found = propose()
        if found is not None and found.bound <= tol:
            break
    log.debug("stationary measure: %s, error bound %.3e", found.how, found.bound)
    _held_to_tol(found.bound, tol, 1,
                 f"stationary distribution misses tol after a {found.how}: error bound")
    return found.pi


def currents(p: StochasticOperator, rho) -> np.ndarray:
    """Antisymmetric probability currents rho_i P_ij - rho_j P_ji."""
    values = _chain_values(p, "currents")
    rho = _state_vector(rho, values.shape[0], "rho")
    flux = rho[:, None] * values
    return flux - flux.T


def classify_regime(
    p: StochasticOperator, mu_plus, mu_minus, tol: float = 1e-10
) -> RegimeReport:
    """Classify an operator with endpoint marginals as EQ, NESS, or NE.

    A steady state needs equal marginals that the operator preserves: both
    the marginal gap and the stationarity residual max |mu_plus P - mu_plus|
    within ``tol``.  Otherwise the pair is one-step transport (NE).  At a
    steady state, vanishing currents give EQ (detailed balance) and
    circulating currents NESS.  A current vanishes below a fixed fraction of
    the largest one-step flux, or below ``tol``: a flux whose marginals hold
    only to ``tol`` can carry currents of that size from solver error alone.
    Raises ``ValueError`` for a tol that is not finite and positive.
    """
    _validate_tol(tol)
    values = _chain_values(p, "classify_regime")
    n = values.shape[0]
    mu_plus = _state_vector(mu_plus, n, "mu_plus")
    mu_minus = _state_vector(mu_minus, n, "mu_minus")
    marginal_gap = float(np.abs(mu_plus - mu_minus).max())
    j = currents(p, mu_plus)
    max_current = float(j.max())  # j is exactly antisymmetric: max j = max |j|
    # max_ij mu_i P_ij, bitwise: a product with mu_i >= 0 is monotone in P_ij
    threshold = max(CURRENT_ZERO_FRACTION * float((mu_plus * values.max(axis=1)).max()), tol)
    stationarity_residual = float(np.abs(mu_plus @ values - mu_plus).max())
    regime = ("NE" if marginal_gap > tol or stationarity_residual > tol
              else "EQ" if max_current <= threshold else "NESS")
    return RegimeReport(regime=regime, currents=j, max_current=max_current,
                        current_threshold=threshold, stationarity_residual=stationarity_residual,
                        marginal_gap=marginal_gap)


def sb_factorization_check(bidiv: Bidivergence, beta: float) -> float:
    """Deviation of the bridge-style attention factorization from the
    diffusion operator.

    Assembles, in the log domain, the row-normalized product of the forward
    attention map, the backward attention map, and the backward column mass
    z_minus_j (the column sums of the backward directional kernel), and
    returns the sup-norm difference from the diffusion operator built on the
    summed divergences.  Exact algebraically; the return value measures pure
    floating-point drift.  The backward logits are the forward ones
    transposed, so the backward map is the forward map transposed and its
    column masses are the forward row normalizers.
    """
    beta = _validate_beta(beta)
    log_fwd = -beta * bidiv.fwd
    log_z = logsumexp(log_fwd, axis=1, keepdims=True)
    log_a_plus = log_fwd - log_z
    terms = log_a_plus + log_a_plus.T + log_z.T
    rhs = np.exp(terms - logsumexp(terms, axis=1, keepdims=True))
    reference = dmap(squared_distance(bidiv), beta).values
    return float(np.abs(rhs - reference).max())


def poe_factorization(bidiv: Bidivergence, beta: float) -> StochasticOperator:
    """Diffusion operator as a product of two row-softmax directional experts.

    Both experts use row normalization, so their combination is the row
    softmax of the summed divergences, i.e. the diffusion operator itself.
    Far above the bandwidth the experts can barely overlap (see poe_combine).
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
    the plain forward attention map; a beta that underflows the kernel raises.
    """
    beta = _validate_beta(beta)
    largest = float(bidiv.fwd.max())
    if np.exp(largest * -beta) == 0.0:  # the least entry of exp(-beta * fwd)
        raise _range_error("attention kernel underflowed to zero", beta,
                           f"the largest forward divergence {largest:g}")
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
    pi = _state_vector(pi, magnitudes.shape[0], "pi")
    flux = _polar(pi[:, None] * magnitudes, op.phases)
    return flux, flux.imag.copy()


def attention_gauge(pi_plus, a_plus: StochasticOperator) -> np.ndarray:
    """Antisymmetric log-flux field log(pi_i A_ij / (pi_j A_ji)).

    Zero exactly when the pair satisfies detailed balance; otherwise it
    encodes the steady-state circulation as a gauge field that can be attached
    to a reversible operator via ``magnetic_operator``.  Values are reported
    unwrapped (phases are only meaningful mod 2 pi).
    """
    values = _chain_values(a_plus, "attention_gauge")
    pi_plus = _state_vector(pi_plus, values.shape[0], "pi_plus")
    flux = pi_plus[:, None] * values
    if flux.min() <= 0.0:
        raise ValueError("operator and stationary vector must be strictly positive")
    log_flux = np.log(flux)
    return log_flux - log_flux.T
