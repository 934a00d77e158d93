"""Seeded inputs, tasks and independent oracles for the four workloads.

A library task is a fixed pipeline of markovgeom calls.  Only the calls run
inside ``with clock:`` are timed; each output is checked against an oracle
between those blocks, so checking never adds to a task's time.  A CLI task
is one ``python -m markovgeom`` command whose output files are parsed back
and compared bit for bit with the library result for the same input files.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import markovgeom as mg
from markovgeom import cli

SOLVER_TOL = 1e-10       # default tol of sinkhorn, schrodinger_solve and the bistochastic scalers
STATIONARY_TOL = 1e-12   # default tol of stationary_distribution
EIGEN_TOL = 1e-10        # verify C13: top eigenvalue equals 1, spectrum within [-1, 1]
VECTOR_TOL = 1e-8        # verify C13: top right eigenvector constant
HERMITIAN_TOL = 1e-10    # verify C12: conjugated operator is Hermitian


class OracleError(Exception):
    """An oracle could not certify its own answer: the check itself is unsound."""


class Clock:
    """Adds up the wall time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.elapsed = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start


class Checker:
    """Tallies checked operations; ``err_over_tol`` collects stationary errors."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.err_over_tol: list[float] = []

    def __call__(self, op: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed.append(op)

    def abort(self, op: str, remaining: int) -> None:
        """A task raised: its unchecked operations all count as failed."""
        self.attempted += remaining
        self.failed.extend([op] * remaining)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def interaction_weights(rng, d):
    """Symmetric part exactly I, so squared_distance stays a true distance."""
    a = rng.standard_normal((d, d))
    return np.eye(d) + 0.5 * (a - a.T)


def drifted_marginals(rng, n, concentration=50.0):
    return rng.dirichlet(np.full(n, concentration)), rng.dirichlet(np.full(n, concentration))


def two_clusters(rng, n, d, offset):
    points = rng.standard_normal((n, d))
    points[n // 2:, 0] += offset
    return points


@dataclass
class LibraryInput:
    points: np.ndarray
    weights: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    beta: float | None  # None means auto, as the CLI resolves it


def solve_input(seed, n=2000, d=8):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    return LibraryInput(points, interaction_weights(rng, d), *drifted_marginals(rng, n), None)


def mixing_input(seed, n=400, d=3, offset=3.0, base_seed=0):
    """One fixed two-cluster problem; the seed permutes and jitters it.

    Freshly drawn clouds need 100 to 230 bridge sweeps depending on the seed,
    which would swamp run-to-run noise, so the geometry is drawn once from
    ``base_seed`` and ``seed`` reorders the points and moves them by 1e-3.
    """
    base = np.random.default_rng(base_seed)
    points = two_clusters(base, n, d, offset)
    weights = interaction_weights(base, d)
    mu_plus, mu_minus = drifted_marginals(base, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    points = points[order] + 1e-3 * rng.standard_normal((n, d))
    return LibraryInput(points, weights, mu_plus[order], mu_minus[order], 1.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def auto_beta(d2):
    """1 / median off-diagonal squared distance, exactly as the CLI's 'auto'."""
    off_diagonal = d2[~np.eye(d2.shape[0], dtype=bool)]
    return 1.0 / float(np.median(off_diagonal))


def distances_ok(d2, points, block=256):
    """Squared distances against explicit pairwise differences (W's symmetric part is I)."""
    worst = scale = 0.0
    for start in range(0, points.shape[0], block):
        diff = points[start:start + block, None, :] - points[None, :, :]
        reference = np.einsum("ijk,ijk->ij", diff, diff)
        worst = max(worst, float(np.abs(d2[start:start + block] - reference).max()))
        scale = max(scale, float(reference.max()))
    return worst <= 1e-12 * max(1.0, scale)


def sums_ok(values, tol=SOLVER_TOL):
    return (float(np.abs(values.sum(axis=1) - 1.0).max()) <= tol
            and float(np.abs(values.sum(axis=0) - 1.0).max()) <= tol)


def marginals_ok(coupling, mu_plus, mu_minus, tol=SOLVER_TOL):
    return (float(np.abs(coupling.sum(axis=1) - mu_plus).max()) <= tol
            and float(np.abs(coupling.sum(axis=0) - mu_minus).max()) <= tol)


def direct_stationary(p):
    """Left fixed point by a direct linear solve, with its own residual."""
    n = p.shape[0]
    system = p.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    return pi, float(np.abs(pi @ p - pi).max())


def check_stationary(check, op, pi, oracle, oracle_residual=0.0):
    if oracle_residual > 1e-2 * STATIONARY_TOL:
        raise OracleError(f"{op}: oracle residual {oracle_residual:.1e} is not << tol")
    err = float(np.abs(pi - oracle).max()) / STATIONARY_TOL
    check.err_over_tol.append(err)
    check(op, err <= 1.0)


def spectrum_ok(dec):
    lam = dec.eigenvalues
    top = dec.right_vectors[:, 0]
    return (abs(float(lam[0]) - 1.0) <= EIGEN_TOL
            and float(np.abs(lam).max()) <= 1.0 + EIGEN_TOL
            and float(np.abs(top - top[0]).max()) <= VECTOR_TOL)


def embedding_ok(p, dec, emb):
    """Each coordinate column c is an eigenvector of P for lambda_{c+1}."""
    coords = emb.coordinates
    lam = dec.eigenvalues[1:emb.retained + 1]
    residual = float(np.abs(p @ coords - coords * lam[None, :]).max())
    return residual <= VECTOR_TOL * max(1.0, float(np.abs(coords).max()))


def hermitized_ok(h, p, pi):
    root = np.sqrt(pi)
    magnitudes = root[:, None] * p / root[None, :]
    return (float(np.abs(h - h.conj().T).max()) <= HERMITIAN_TOL
            and float(np.abs(np.abs(h) - magnitudes).max()) <= 1e-12 * float(magnitudes.max()))


# ---------------------------------------------------------------------------
# library tasks
# ---------------------------------------------------------------------------


def _geometry(inp):
    cloud = mg.DataCloud(inp.points)
    weights = mg.InteractionWeights(inp.weights)
    biv = mg.bidivergence(mg.generalized_gram(cloud, weights))
    d2 = mg.squared_distance(biv)
    beta = auto_beta(d2) if inp.beta is None else inp.beta
    return cloud, weights, biv, d2, beta


def _degrees_measure(kernel):
    degrees = kernel.values.sum(axis=1)
    return degrees / degrees.sum()


SOLVE_OPS = 8


def solve_task(inp, clock, check):
    """Few sweeps over large matrices: per-sweep cost, n^2 temporaries, eigh."""
    with clock:
        cloud, _, biv, d2, beta = _geometry(inp)
    check("geometry", distances_ok(d2, inp.points))
    with clock:
        bist = mg.attention_bistochastic(biv, beta)
    check("attention_bistochastic", sums_ok(bist.values))
    del bist
    with clock:
        scaled, _ = mg.sinkhorn(-beta * biv.fwd)
    check("sinkhorn", sums_ok(scaled.values))
    del scaled
    with clock:
        kernel = mg.rbf_kernel(d2, beta)
        bridge = mg.solve_bridge(kernel.values, inp.mu_plus, inp.mu_minus)
    check("solve_bridge", marginals_ok(bridge.coupling, inp.mu_plus, inp.mu_minus))
    del bridge
    with clock:
        dbist = mg.dmap_bistochastic(d2, beta)
    check("dmap_bistochastic", sums_ok(dbist.values))
    del dbist
    with clock:
        forward = mg.attention_forward(biv, beta)
        pi_a = mg.stationary_distribution(forward)
    check_stationary(check, "stationary_distribution(attention)", pi_a,
                     *direct_stationary(forward.values))
    del forward
    with clock:
        abridge = mg.attention_bridge(biv, beta, pi_a, pi_a)
    check("attention_bridge", marginals_ok(abridge.coupling, pi_a, pi_a))
    del abridge
    with clock:
        p = mg.dmap(d2, beta)
        pi = _degrees_measure(kernel)
        dec = mg.decompose(mg.conjugate_symmetrize(p, pi), pi)
    check("decompose(dmap)", spectrum_ok(dec))


MIXING_OPS = 8


def mixing_task(inp, clock, check):
    """Hundreds of cheap sweeps on cache-resident matrices: sweep counts dominate."""
    with clock:
        cloud, weights, biv, d2, beta = _geometry(inp)
        scaled, _ = mg.sinkhorn(-beta * biv.fwd)
    check("sinkhorn", sums_ok(scaled.values))
    with clock:
        kernel = mg.rbf_kernel(d2, beta)
        bridge = mg.solve_bridge(kernel.values, inp.mu_plus, inp.mu_minus)
    check("solve_bridge", marginals_ok(bridge.coupling, inp.mu_plus, inp.mu_minus))
    with clock:
        dbist = mg.dmap_bistochastic(d2, beta)
    check("dmap_bistochastic", sums_ok(dbist.values))
    with clock:
        p = mg.dmap(d2, beta)
        pi_p = mg.stationary_distribution(p)
    pi = _degrees_measure(kernel)
    check_stationary(check, "stationary_distribution(dmap)", pi_p, pi)
    with clock:
        forward = mg.attention_forward(biv, beta)
        pi_a = mg.stationary_distribution(forward)
    check_stationary(check, "stationary_distribution(attention)", pi_a,
                     *direct_stationary(forward.values))
    with clock:
        pi = _degrees_measure(kernel)
        equilibrium = mg.classify_regime(p, pi, pi)
        transport = mg.classify_regime(bridge.forward, inp.mu_plus, inp.mu_minus)
    check("classify_regime", equilibrium.regime == "EQ" and transport.regime == "NE")
    with clock:
        dec = mg.decompose(mg.conjugate_symmetrize(p, pi), pi)
        emb = mg.diffusion_embedding(dec, 1.0, 2)
    check("decompose+diffusion_embedding", spectrum_ok(dec) and embedding_ok(p.values, dec, emb))
    with clock:
        theta = mg.edge_phases(cloud, weights, beta)
        hermitized = mg.conjugate_hermitize(mg.magnetic_operator(p, theta), pi)
    check("magnetic_operator+conjugate_hermitize", hermitized_ok(hermitized, p.values, pi))


def warmup_input(beta):
    """A small Gaussian cloud that runs every code path of a library task."""
    rng = np.random.default_rng(12345)
    n, d = 40, 3
    return LibraryInput(rng.standard_normal((n, d)), interaction_weights(rng, d),
                        *drifted_marginals(rng, n), beta)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def write_csv(path, matrix):
    """The benchmark's own writer: 17 significant digits, lossless for float64."""
    np.savetxt(path, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_emit_inputs(seed, work, n=600, d=8):
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    files = {"cloud": work / "cloud.csv", "weights": work / "weights.csv",
             "mu_plus": work / "mu_plus.csv", "mu_minus": work / "mu_minus.csv"}
    write_csv(files["cloud"], rng.standard_normal((n, d)))
    write_csv(files["weights"], interaction_weights(rng, d))
    mu_plus, mu_minus = drifted_marginals(rng, n)
    write_csv(files["mu_plus"], mu_plus)
    write_csv(files["mu_minus"], mu_minus)
    return files


def write_report_inputs(seed, work, n_embed=1000, n_verify=200, d=128, base_seed=0):
    """A seeded wide cloud for embed and one fixed cloud for verify.

    Whether verify passes depends on the draw at D=128 (C2 misses its 1e-12
    tolerance on some draws), so its cloud is drawn once from ``base_seed``
    to keep pass/fail, and with it tasks_per_s, the same on every seed.
    """
    work.mkdir(parents=True, exist_ok=True)
    files = {"wide": work / "wide.csv", "verify_cloud": work / "verify_cloud.csv"}
    write_csv(files["wide"], np.random.default_rng(seed).standard_normal((n_embed, d)))
    write_csv(files["verify_cloud"],
              np.random.default_rng(base_seed).standard_normal((n_verify, d)))
    return files


def _lib_geometry(files, weighted=False):
    cloud = cli.load_cloud(files["cloud"])
    weights = cli.load_weights(files["weights"]) if weighted else None
    gram = mg.generalized_gram(cloud, weights) if weighted else mg.gram(cloud)
    biv = mg.bidivergence(gram)
    d2 = mg.squared_distance(biv)
    return cloud, weights, biv, d2, auto_beta(d2)


def _expect_dmap(files):
    _, _, _, d2, beta = _lib_geometry(files)
    return {"dmap.csv": mg.dmap(d2, beta).values}


def _expect_kernel(files):
    _, _, _, d2, beta = _lib_geometry(files)
    return {"kernel.csv": mg.rbf_kernel(d2, beta).values}


def _expect_attention_bistochastic(files):
    _, _, biv, _, beta = _lib_geometry(files, weighted=True)
    return {"attention.csv": mg.attention_bistochastic(biv, beta).values}


def _expect_attention_json(files):
    _, _, biv, _, beta = _lib_geometry(files)
    return {"attention_report.json": mg.attention_forward(biv, beta).values}


def _expect_bridge(files):
    cloud, _, _, d2, beta = _lib_geometry(files)
    n = cloud.n_samples
    mu_plus = cli.load_marginal(files["mu_plus"], n)
    mu_minus = cli.load_marginal(files["mu_minus"], n)
    bridge = mg.solve_bridge(mg.rbf_kernel(d2, beta).values, mu_plus, mu_minus)
    return {"coupling.csv": bridge.coupling, "forward.csv": bridge.forward.values,
            "u_plus.csv": bridge.potentials.u, "u_minus.csv": bridge.potentials.v,
            "mu_plus.csv": mu_plus, "mu_minus.csv": mu_minus}


def _expect_classify(files):
    _, _, biv, _, beta = _lib_geometry(files, weighted=True)
    forward = mg.attention_forward(biv, beta)
    # the CLI resolves 'stationary' with its own --tol default
    pi = mg.stationary_distribution(forward, tol=SOLVER_TOL)
    return {"currents.csv": mg.classify_regime(forward, pi, pi).currents}


def _expect_magnetic(files):
    cloud, weights, _, d2, beta = _lib_geometry(files, weighted=True)
    p = mg.dmap(d2, beta)
    phased = mg.magnetic_operator(p, mg.edge_phases(cloud, weights, beta))
    pi = _degrees_measure(mg.rbf_kernel(d2, beta))
    _, current = mg.magnetic_flux(pi, phased)
    return {"magnetic_magnitude.csv": phased.magnitudes.values,
            "magnetic_phase.csv": phased.phases, "magnetic_current.csv": current}


def _expect_embed(files):
    _, _, _, d2, beta = _lib_geometry({"cloud": files["wide"]})
    p = mg.dmap(d2, beta)
    pi = _degrees_measure(mg.rbf_kernel(d2, beta))
    dec = mg.decompose(mg.conjugate_symmetrize(p, pi), pi)
    return {"embedding.csv": mg.diffusion_embedding(dec, t=1.0, k=2).coordinates}


def _expect_verify(files):
    cloud = cli.load_cloud(files["verify_cloud"])
    beta = auto_beta(mg.squared_distance(mg.bidivergence(mg.gram(cloud))))
    checks = json.loads(json.dumps([c.as_dict() for c in mg.run_identity_checks(cloud, beta)]))
    return {"verify_report.json": checks}


@dataclass(frozen=True)
class Command:
    """One entry of a CLI rotation: its argv (file keys in braces) and oracle."""

    name: str
    argv: tuple[str, ...]
    expect: object


EMIT_ROTATION = (
    Command("dmap", ("dmap", "--input", "{cloud}"), _expect_dmap),
    Command("kernel", ("kernel", "--input", "{cloud}"), _expect_kernel),
    Command("attention", ("attention", "--bistochastic", "--weights", "{weights}",
                          "--input", "{cloud}"), _expect_attention_bistochastic),
    Command("attention_json", ("attention", "--format", "json", "--input", "{cloud}"),
            _expect_attention_json),
    Command("bridge", ("bridge", "--kernel", "rbf", "--mu-plus", "{mu_plus}",
                       "--mu-minus", "{mu_minus}", "--input", "{cloud}"), _expect_bridge),
    Command("classify", ("classify", "--kernel", "attention", "--weights", "{weights}",
                         "--mu-plus", "stationary", "--mu-minus", "stationary",
                         "--input", "{cloud}"), _expect_classify),
    Command("magnetic", ("magnetic", "--weights", "{weights}", "--input", "{cloud}"),
            _expect_magnetic),
)

REPORT_ROTATION = (
    Command("embed", ("embed", "--input", "{wide}"), _expect_embed),
    Command("verify", ("verify", "--input", "{verify_cloud}"), _expect_verify),
)


def command_argv(command, files, out_dir):
    args = [a.format(**{k: str(v) for k, v in files.items()}) for a in command.argv]
    return args + ["--out-dir", str(out_dir)]


def digest(out_dir):
    """sha256 of every output file, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


def outputs_match(out_dir, expected):
    """Parse each output back and compare it bit for bit with the library result."""
    for name, value in expected.items():
        path = Path(out_dir) / name
        if not path.is_file():
            return False
        if name == "verify_report.json":
            report = json.loads(path.read_text())
            if not report["all_passed"] or report["checks"] != value:
                return False
        elif name.endswith(".json"):
            matrix = np.array(json.loads(path.read_text())["matrices"]["attention"])
            if not np.array_equal(matrix, value):
                return False
        elif not np.array_equal(read_csv(path), np.atleast_2d(value)):
            return False
    return True
