"""Identity-verification suite: every algebraic contract, checked on demand.

Each check pairs measured residuals with the tolerances they must meet and is
fully deterministic: auxiliary random data (sweep clouds, weight matrices,
logits, marginals) comes from fixed seeds, so repeated runs on the same input
produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridges import (
    attention_bridge,
    attention_gauge,
    classify_regime,
    currents,
    dmap_as_bridge,
    doob_transform,
    magnetic_flux,
    poe_factorization,
    sb_factorization_check,
    solve_bridge,
    stationary_distribution,
)
from .geometry import (
    DataCloud,
    InteractionWeights,
    _gram_phases,
    _validate_beta,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from .normalize import (
    ConvergenceError,
    poe_combine,
    sinkhorn,
    softmax_cols,
    softmax_rows,
)
from .operators import (
    _diffusion,
    attention_bistochastic,
    attention_forward,
    dmap,
    dmap_bistochastic,
    directional_kernels,
    magnetic_operator,
    rbf_kernel,
)
from .spectral import (
    DEGENERACY_GAP,
    conjugate_hermitize,
    conjugate_symmetrize,
    decompose,
    diffusion_embedding,
)

_SEED = 20_260_405

_SWEEP_BETAS = (0.1, 1.0, 10.0)


@dataclass
class CheckResult:
    """One verified identity: a named list of residual/tolerance parts."""

    id: str
    name: str
    parts: list[dict]
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every part passed, read from the parts as they stand."""
        return all(p["passed"] for p in self.parts)

    def as_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "passed": self.passed, "parts": self.parts}
        if self.info:
            out["info"] = self.info
        return out


def _part(label: str, residual: float, tolerance: float, require: str = "<=") -> dict:
    """Residual that must stay at or below its tolerance; with ``require=">"``,
    a quantity that must strictly exceed it (separation-style check)."""
    passed = residual <= tolerance if require == "<=" else residual > tolerance
    return {
        "label": label,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "require": require,
        "passed": bool(passed),
    }


def _part_bool(label: str, ok: bool) -> dict:
    return _part(label, 0.0 if ok else 1.0, 0.0)


def _random_cloud(rng: np.random.Generator, n: int, d: int) -> DataCloud:
    return DataCloud(rng.standard_normal((n, d)))


def _sweep_clouds() -> list[DataCloud]:
    rng = np.random.default_rng(_SEED + 5)
    clouds = []
    for _ in range(10):
        n = int(rng.integers(6, 17))
        d = int(rng.integers(2, 5))
        clouds.append(_random_cloud(rng, n, d))
    return clouds


def _random_marginal(rng: np.random.Generator, n: int) -> np.ndarray:
    mu = rng.uniform(0.5, 1.5, n)
    return mu / mu.sum()


def _max_abs(a) -> float:
    return float(np.abs(a).max())


def _plain_geometry(cloud: DataCloud):
    biv = bidivergence(gram(cloud))
    return biv, squared_distance(biv)


def check_bidivergence_identity(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    worst_oracle = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 25))
        d = int(rng.integers(1, 9))
        sample = _random_cloud(rng, n, d)
        x = sample.points
        oracle = ((x[:, None] - x[None]) ** 2).sum(-1)
        worst_oracle = max(worst_oracle, _max_abs(_plain_geometry(sample)[1] - oracle))
    parts = [_part("squared distance matches pairwise-norm oracle", worst_oracle, 1e-12)]
    return CheckResult("C1", "bidivergence identity", parts)


def check_attention_equivalence(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 2)
    d = cloud.n_features
    head = max(1, d - 1)
    wq = rng.standard_normal((d, head))
    wk = rng.standard_normal((d, head))
    weights = InteractionWeights.from_factors(wq, wk)
    biv = bidivergence(generalized_gram(cloud, weights))
    queries = cloud.points @ wq
    keys = cloud.points @ wk
    worst = 0.0
    for b in _SWEEP_BETAS:
        ours = attention_forward(biv, b).values
        reference = softmax_rows(b * (queries @ keys.T)).values
        worst = max(worst, _max_abs(ours - reference))
    parts = [_part("divergence path equals raw query-key softmax path", worst, 1e-12)]
    return CheckResult("C2", "attention equivalence", parts)


def check_poe_theorem(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 3)
    z = rng.standard_normal((16, 16))
    s = rng.standard_normal((16, 16))
    row_dev = _max_abs(
        poe_combine(softmax_rows(z), softmax_rows(s)).values - softmax_rows(z + s).values
    )
    col_dev = _max_abs(
        poe_combine(softmax_cols(z), softmax_cols(s)).values - softmax_cols(z + s).values
    )
    row_shift = rng.standard_normal(16)
    col_shift = rng.standard_normal(16)
    shift_dev = max(
        _max_abs(softmax_rows(z + row_shift[:, None]).values - softmax_rows(z).values),
        _max_abs(softmax_cols(z + col_shift[None, :]).values - softmax_cols(z).values),
    )
    parts = [
        _part("row softmax of summed logits equals expert product", row_dev, 1e-12),
        _part("column softmax of summed logits equals expert product", col_dev, 1e-12),
        _part("shift invariance along the normalized axis", shift_dev, 1e-15),
    ]
    return CheckResult("C3", "product-of-experts theorem", parts)


def check_kernel_factorization(cloud: DataCloud, beta: float) -> CheckResult:
    biv, d2 = _plain_geometry(cloud)
    kernel = rbf_kernel(d2, beta).values
    fwd, bwd = directional_kernels(biv, beta)
    dev = _max_abs(kernel - fwd * bwd)
    parts = [_part("distance kernel equals Hadamard product of directional kernels", dev, 1e-12)]
    return CheckResult("C4", "kernel factorization", parts)


def check_sb_factorization(cloud: DataCloud, beta: float) -> CheckResult:
    worst = 0.0
    spread = 1.0
    for sample in _sweep_clouds():
        biv = bidivergence(gram(sample))
        for b in _SWEEP_BETAS:
            worst = max(worst, sb_factorization_check(biv, b))
        column_mass = np.exp(-1.0 * biv.bwd).sum(axis=0)
        spread = max(spread, float(column_mass.max() / column_mass.min()))
    parts = [
        _part("bridge-style factorization reproduces the diffusion operator", worst, 1e-10)
    ]
    # ratio of largest to smallest backward column mass at beta=1: how far the
    # exact factorization sits from a pure product of experts
    return CheckResult("C5", "bridge factorization", parts, {"column_mass_spread_max": spread})


def check_poe_factorization(cloud: DataCloud, beta: float) -> CheckResult:
    worst = 0.0
    for sample in _sweep_clouds():
        biv, d2 = _plain_geometry(sample)
        for b in _SWEEP_BETAS:
            worst = max(worst, _max_abs(poe_factorization(biv, b).values - dmap(d2, b).values))
    parts = [_part("expert-product factorization equals the diffusion operator", worst, 1e-12)]
    return CheckResult("C6", "product-of-experts factorization", parts)


def check_dmap_equilibrium(cloud: DataCloud, beta: float) -> CheckResult:
    _, d2 = _plain_geometry(cloud)
    operator, pi = _diffusion(d2, beta)
    stationarity = _max_abs(pi @ operator.values - pi)
    current_max = _max_abs(currents(operator, pi))
    report = classify_regime(operator, pi, pi)
    parts = [
        _part("normalized row sums are stationary", stationarity, 1e-12),
        _part("probability currents vanish", current_max, 1e-12),
        _part_bool(f"regime classified EQ (got {report.regime})", report.regime == "EQ"),
    ]
    return CheckResult("C7", "diffusion-operator equilibrium", parts)


def check_sinkhorn_contract(cloud: DataCloud, beta: float) -> CheckResult:
    # deliberately independent of the input cloud: scaling a near-decomposable
    # distance kernel to uniform marginals can be arbitrarily slow, and this
    # contract is about the scaler itself
    rng = np.random.default_rng(_SEED + 8)
    z = rng.standard_normal((8, 8))
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    plain, _ = sinkhorn(z, tol=1e-12)
    gauged, _ = sinkhorn(z + u[:, None] + v[None, :], tol=1e-12)
    gauge_dev = _max_abs(plain.values - gauged.values)

    two_by_two, _ = sinkhorn(np.log(np.array([[2.0, 1.0], [1.0, 2.0]])), tol=1e-13)
    analytic = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    analytic_dev = _max_abs(two_by_two.values - analytic)

    # a positive kernel has one bistochastic scaling diag(e^f) K diag(e^g)
    # (Sinkhorn & Knopp, 1967), which no marginal tells from any other
    # bistochastic matrix: log P - z must be additive, so its double-centred
    # residual is rounding, within 256 u kappa, u = 2^-53, kappa = max(1, max |z|)
    sample = _random_cloud(rng, 10, 3)
    a = rng.standard_normal((3, 3))
    biv = bidivergence(generalized_gram(sample, InteractionWeights(np.eye(3) + 0.5 * (a - a.T))))
    logits = -1.0 * biv.fwd
    m = np.log(attention_bistochastic(biv, 1.0, tol=1e-12).values) - logits
    structure = _max_abs(m - m.mean(axis=1, keepdims=True) - m.mean(axis=0) + m.mean())
    structure_tol = 256.0 * (np.finfo(float).eps / 2) * max(1.0, _max_abs(logits))

    parts = [
        _part("gauge invariance under rank-one logit shifts", gauge_dev, 1e-10),
        _part("2x2 kernel scales to its analytic fixed point", analytic_dev, 1e-10),
        _part("bistochastic attention is a diagonal scaling of its kernel",
              structure, structure_tol),
    ]
    return CheckResult("C8", "bistochastic scaling contract", parts)


def check_bridge_contract(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 9)
    _, d2 = _plain_geometry(cloud)
    kernel = rbf_kernel(d2, beta).values

    flat = np.ones((5, 5))
    wa = _random_marginal(rng, 5)
    wb = _random_marginal(rng, 5)
    flat_bridge = solve_bridge(flat, wa, wb, tol=1e-12, max_iter=100_000)
    product_dev = _max_abs(flat_bridge.coupling - np.outer(wa, wb))

    closed = dmap_as_bridge(d2, beta)
    iterated = solve_bridge(kernel, closed.mu_plus, closed.mu_minus, tol=1e-12, max_iter=100_000)
    closed_dev = _max_abs(closed.coupling - iterated.coupling)

    parts = [
        _part("flat-kernel bridge equals the product coupling", product_dev, 1e-12),
        _part("closed-form diffusion bridge matches the iterative solver", closed_dev, 1e-10),
    ]
    return CheckResult("C9", "bridge contract", parts)


def check_doob_transform(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 10)
    _, d2 = _plain_geometry(cloud)
    operator = dmap(d2, beta)
    # against a separately built operator: a neutral transform that returns
    # its input unchanged differs from that input by 0 by identity
    neutral_dev = _max_abs(doob_transform(operator, np.ones(cloud.n_samples)).values
                           - dmap(d2, beta).values)

    kernel = rbf_kernel(d2, beta).values
    n = cloud.n_samples
    mu_plus = _random_marginal(rng, n)
    mu_minus = _random_marginal(rng, n)
    bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=1e-12, max_iter=100_000)
    transformed = doob_transform(operator, bridge.potentials.v)
    doob_dev = _max_abs(bridge.forward.values - transformed.values)

    parts = [
        _part("unit reweighting is the identity transform (exact)", neutral_dev, 0.0),
        _part("bridge forward operator equals the Doob transform", doob_dev, 1e-10),
    ]
    return CheckResult("C10", "Doob transform", parts)


def _weighted_attention(cloud: DataCloud, beta: float, rng: np.random.Generator):
    """The bidivergence under a drawn full weight matrix, and its forward attention."""
    d = cloud.n_features
    biv = bidivergence(generalized_gram(cloud, InteractionWeights(rng.standard_normal((d, d)))))
    return biv, attention_forward(biv, beta)


def check_attention_bridge(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 11)
    biv, a_plus = _weighted_attention(cloud, beta, rng)
    n = cloud.n_samples

    mu_plus = _random_marginal(rng, n)
    mu_minus = mu_plus @ a_plus.values
    matched = attention_bridge(biv, beta, mu_plus, mu_minus, tol=1e-12, max_iter=100_000)
    matched_dev = _max_abs(matched.forward.values - a_plus.values)

    # move mass from the largest entry to the smallest, two distinct states
    # even when all entries are equal, and at most half of the largest, so
    # the perturbed vector stays strictly positive
    smallest, largest = np.argsort(mu_minus, kind="stable")[[0, -1]]
    shift = min(1e-3, float(mu_minus[largest]) / 2.0)
    shift_text = "1e-3" if shift == 1e-3 else f"{shift:.3g}"
    perturbed = mu_minus.copy()
    perturbed[largest] -= shift
    perturbed[smallest] += shift
    off_bridge = attention_bridge(biv, beta, mu_plus, perturbed, tol=1e-12, max_iter=100_000)
    off_dev = _max_abs(off_bridge.forward.values - a_plus.values)

    # the NESS parts need a chain that circulates, which a reversible input
    # chain (one feature, two distinct points) or currents that shrink with
    # beta cannot show, so they run on a seeded 8x2 cloud at beta = 1, whose
    # chain clears their bar by far
    seeded = np.random.default_rng(_SEED + 11)
    ness_biv, ness_plus = _weighted_attention(_random_cloud(seeded, 8, 2), 1.0, seeded)
    pi_plus = stationary_distribution(ness_plus, tol=1e-12)
    ness_bridge = attention_bridge(ness_biv, 1.0, pi_plus, pi_plus, tol=1e-12, max_iter=100_000)
    # currents within the tol the bridge was solved to are solver error
    report = classify_regime(ness_bridge.forward, pi_plus, pi_plus, tol=1e-12)

    parts = [
        _part("matched marginals reproduce plain forward attention", matched_dev, 1e-10),
        _part(f"a {shift_text} total-variation sink perturbation moves the forward operator",
              off_dev, 1e-5, ">"),
        _part_bool(f"stationary attention bridge is NESS (got {report.regime})",
                   report.regime == "NESS"),
        _part("steady-state currents clear 10x the equilibrium threshold",
              report.max_current, 10.0 * report.current_threshold, ">"),
    ]
    return CheckResult("C11", "attention as a bridge", parts)


def check_magnetic_operators(cloud: DataCloud, beta: float) -> CheckResult:
    rng = np.random.default_rng(_SEED + 12)
    d = cloud.n_features
    weights = InteractionWeights(0.2 * rng.standard_normal((d, d)))
    g = generalized_gram(cloud, weights)
    d2 = squared_distance(bidivergence(g))
    operator, pi = _diffusion(d2, beta)
    theta = _gram_phases(g.values, beta)
    phased = magnetic_operator(operator, theta)
    # against a separately built operator: the stored magnitudes are the
    # operator's own array, so a difference with it is 0 by identity
    magnitude_dev = _max_abs(phased.magnitudes.values - dmap(d2, beta).values)
    assembled_dev = _max_abs(np.abs(phased.matrix) - operator.values)

    hermitized = conjugate_hermitize(phased, pi)
    skew = hermitized - hermitized.conj().T
    hermiticity = _max_abs(skew)
    # Bendixson (1902): every eigenvalue of H has |Im| at most the spectral
    # norm of (H - H^H)/2, which the Frobenius norm bounds: a proof, O(n^2)
    imag_bound = float(np.linalg.norm(skew)) / 2.0

    quiet = magnetic_operator(operator, np.zeros_like(theta))
    _, quiet_current = magnetic_flux(pi, quiet)
    quiet_dev = _max_abs(quiet_current)

    gauge_zero = _max_abs(attention_gauge(pi, operator))

    parts = [
        _part("assembled magnitudes equal the real operator (exact)", magnitude_dev, 0.0),
        _part("complex modulus of the assembled matrix", assembled_dev, 1e-15),
        _part("conjugated operator is Hermitian", hermiticity, 1e-10),
        _part("Hermitian spectrum is real (Bendixson bound)", imag_bound, 1e-10),
        _part("zero phases mean zero magnetic current (exact)", quiet_dev, 0.0),
        _part("gauge field vanishes under detailed balance", gauge_zero, 1e-12),
    ]
    return CheckResult("C12", "magnetic operators", parts)


def _spectrum_parts(label: str, operator, pi) -> list[dict]:
    conjugated = conjugate_symmetrize(operator, pi)
    dec = decompose(conjugated, pi)
    containment = max(0.0, _max_abs(dec.eigenvalues) - 1.0)
    top_gap = abs(float(dec.eigenvalues[0]) - 1.0)
    # eigh may return any basis of a degenerate top eigenvalue (Davis & Kahan,
    # 1970), so the constant vector is read against the whole top block R,
    # joined by decompose's gap rule: its pi-orthogonal projection R (pi^T R)
    # is 1 exactly when 1 lies in the block's span
    m = 1 + int(np.cumprod(np.abs(np.diff(dec.eigenvalues)) < DEGENERACY_GAP).sum())
    top_block = dec.right_vectors[:, :m]
    constancy = _max_abs(1.0 - top_block @ (pi @ top_block))
    return [
        _part(f"{label}: eigenvalues within [-1, 1]", containment, 1e-10),
        _part(f"{label}: top eigenvalue equals 1", top_gap, 1e-10),
        _part(f"{label}: constant vector lies in the top eigenspace", constancy, 1e-8),
    ]


def check_spectral(cloud: DataCloud, beta: float) -> CheckResult:
    _, d2 = _plain_geometry(cloud)
    operator, pi = _diffusion(d2, beta)
    parts = _spectrum_parts("diffusion operator", operator, pi)

    # the bistochastic variant runs on a seeded cloud: uniform-marginal scaling
    # of a near-decomposable input kernel may not converge in reasonable time
    rng = np.random.default_rng(_SEED + 13)
    sample = _random_cloud(rng, 10, 3)
    sample_d2 = _plain_geometry(sample)[1]
    bistochastic = dmap_bistochastic(sample_d2, 1.0, tol=1e-12)
    parts += _spectrum_parts(
        "bistochastic diffusion operator", bistochastic, np.full(10, 0.1)
    )

    # non-reversible attention: A >= 0 entrywise, so its spectral radius is at
    # most its largest row sum (Perron-Frobenius), which this part bounds
    n = cloud.n_samples
    weights = InteractionWeights(rng.standard_normal((cloud.n_features, cloud.n_features)))
    asym_biv = bidivergence(generalized_gram(cloud, weights))
    a_plus = attention_forward(asym_biv, beta)
    parts.append(
        _part(
            "forward attention: unit eigenvalue with constant right eigenvector",
            _max_abs(a_plus.values @ np.ones(n) - 1.0),
            1e-12,
        )
    )

    two_point, two_pi = _diffusion(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    two_dec = decompose(conjugate_symmetrize(two_point, two_pi), two_pi)
    q = np.exp(-1.0)
    analytic = (1.0 - q) / (1.0 + q)
    parts.append(
        _part(
            "two-point diffusion operator second eigenvalue is analytic",
            abs(float(two_dec.eigenvalues[1]) - analytic),
            1e-12,
        )
    )

    base = np.array([[0.0, 0.0], [0.1, 0.05], [-0.07, 0.09], [0.05, -0.08]])
    clusters = DataCloud(np.vstack([base, base + np.array([6.0, 0.0])]))
    _, cd2 = _plain_geometry(clusters)
    cop, cpi = _diffusion(cd2, 1.0)
    cdec = decompose(conjugate_symmetrize(cop, cpi), cpi)
    coord = diffusion_embedding(cdec, t=1.0, k=1).coordinates[:, 0]
    separated = bool(
        (np.all(coord[:4] > 0) and np.all(coord[4:] < 0))
        or (np.all(coord[:4] < 0) and np.all(coord[4:] > 0))
    )
    parts.append(_part_bool("two-cluster embedding separates clusters by sign", separated))

    return CheckResult("C13", "spectral contracts", parts)


_CHECKS = (
    check_bidivergence_identity,
    check_attention_equivalence,
    check_poe_theorem,
    check_kernel_factorization,
    check_sb_factorization,
    check_poe_factorization,
    check_dmap_equilibrium,
    check_sinkhorn_contract,
    check_bridge_contract,
    check_doob_transform,
    check_attention_bridge,
    check_magnetic_operators,
    check_spectral,
)


def run_identity_checks(cloud: DataCloud, beta: float) -> list[CheckResult]:
    """Run the full identity suite on a data cloud at one inverse temperature.

    Iterative sub-solvers can legitimately fail to converge for extreme
    temperatures (the kernel becomes numerically disconnected); the resulting
    ConvergenceError is re-raised tagged with the check that was running.
    """
    beta = _validate_beta(beta)
    results = []
    for check in _CHECKS:
        try:
            results.append(check(cloud, beta))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"{check.__name__}: {exc}", exc.residual, exc.iterations
            ) from exc
    return results
