"""Relabelling the points permutes every output (ROADMAP item 13, first slice).

Relabelling N points by a permutation Π maps the forward divergence to
Π fwd Πᵀ, every operator A to Π A Πᵀ and every measure μ to Π μ, and leaves
spectra, regime labels and flags unchanged.  Hypothesis draws small seeded
clouds, with and without interaction weights, a β and a Π; each public
constructor and solver then runs on both orders.  Values agree within
``C`` u κ, κ = max(1, β max|fwd|) the logit range in nats: only the order of
the sums differs.  A solver may accept in one order and raise in the other
only where both held residuals lie within rounding of its tol.

Scaling the cloud by c = 2^k with β → β / c² changes no output at all: both
rescalings are exact, so every logit is the same double.

The CLI slice runs every command form on a cloud file and on its row-shuffled
copy: each CSV it writes is permuted, and exit codes, regimes and verify's
verdicts agree.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markovgeom.bridges import (
    classify_regime,
    dmap_as_bridge,
    solve_bridge,
    stationary_distribution,
)
from markovgeom.cli import main, write_matrix_csv
from markovgeom.geometry import (
    DataCloud,
    InteractionWeights,
    bidivergence,
    edge_phases,
    generalized_gram,
    gram,
    squared_distance,
)
from markovgeom.normalize import ConvergenceError
from markovgeom.operators import (
    attention_bistochastic,
    attention_forward,
    dmap,
    dmap_bistochastic,
    rbf_kernel,
)
from markovgeom.spectral import conjugate_symmetrize, decompose

U = 2.0**-53
# in 4200 seeded draws at 1 and 2 BLAS threads, with logit ranges up to 100
# nats, the largest disagreement was 17 u κ, by the eigenvalues of a 28-point
# cloud; a weighted fwd was always bitwise permuted, a plain one within 6.1 u
# max |R R^T|
C = 64.0


@st.composite
def relabelled_clouds(draw):
    """(points, weights or None, beta, permutation): n <= 40 points in d <= 4
    dimensions from a drawn seed, beta giving a logit range of 0.1 to 10 nats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(3, 40)), draw(st.integers(1, 4))
    points = rng.standard_normal((n, d)) * rng.uniform(0.3, 3.0)
    weights = None
    if draw(st.booleans()):
        a = rng.standard_normal((d, d))
        weights = np.eye(d) + 0.5 * (a - a.T)
    reach = float(np.abs(_geometry(points, weights)[0].fwd).max())
    beta = draw(st.floats(0.1, 10.0)) / reach
    return points, weights, beta, np.array(draw(st.permutations(range(n))))


def _geometry(points, weights):
    cloud = DataCloud(points)
    g = gram(cloud) if weights is None else generalized_gram(cloud, InteractionWeights(weights))
    biv = bidivergence(g)
    return biv, squared_distance(biv)


def _permuted(value, perm):
    return value[perm] if value.ndim == 1 else value[np.ix_(perm, perm)]


def _attempt(call):
    try:
        return call()
    except ConvergenceError as exc:
        return exc


@settings(max_examples=30)
@given(relabelled_clouds())
def test_forward_divergence_is_permuted(case):
    points, weights, _, perm = case
    fwd = _geometry(points, weights)[0].fwd
    relabelled = _geometry(points[perm], weights)[0].fwd
    if weights is not None:
        np.testing.assert_array_equal(relabelled, _permuted(fwd, perm))
    else:
        # numpy forms the plain Gram matrix R R^T with one triangle mirrored
        # (BLAS syrk), which rounds some pairs differently once relabelled
        gap = float(np.abs(relabelled - _permuted(fwd, perm)).max())
        assert gap <= C * U * float(np.square(points).sum(axis=1).max())  # max |R R^T|


# each public call on one order: its result as an array, its held residual
# (how it decides to accept) and its tol
CALLS = {
    "attention_forward": lambda biv, d2, beta, mu: attention_forward(biv, beta).values,
    "dmap": lambda biv, d2, beta, mu: dmap(d2, beta).values,
    "rbf_kernel": lambda biv, d2, beta, mu: rbf_kernel(d2, beta).values,
    "attention_bistochastic": lambda biv, d2, beta, mu: attention_bistochastic(biv, beta).values,
    "dmap_bistochastic": lambda biv, d2, beta, mu: dmap_bistochastic(d2, beta).values,
    "solve_bridge": lambda biv, d2, beta, mu: solve_bridge(np.exp(-beta * d2), *mu).coupling,
    "stationary_distribution": lambda biv, d2, beta, mu: stationary_distribution(
        attention_forward(biv, beta)),
}
TOLS = {"attention_bistochastic": 1e-10, "dmap_bistochastic": 1e-10, "solve_bridge": 1e-10,
        "stationary_distribution": 1e-12}


def _held(name, value, mu):
    """The residual a scaler held its returned matrix to."""
    rows, cols = mu if name == "solve_bridge" else (1.0, 1.0)
    return max(float(np.abs(value.sum(axis=1) - rows).max()),
               float(np.abs(value.sum(axis=0) - cols).max()))


@settings(max_examples=30)
@given(relabelled_clouds())
def test_outputs_are_permuted(case):
    points, weights, beta, perm = case
    n = points.shape[0]
    mu = np.random.default_rng(n).dirichlet(np.full(n, 5.0), size=2)
    orders = [(*_geometry(points, weights), beta, mu),
              (*_geometry(points[perm], weights), beta, (mu[0][perm], mu[1][perm]))]
    kappa = max(1.0, beta * float(np.abs(orders[0][0].fwd).max()))
    for name, call in CALLS.items():
        original, relabelled = (_attempt(lambda args=args: call(*args)) for args in orders)
        failed = [isinstance(r, ConvergenceError) for r in (original, relabelled)]
        if all(failed):
            continue
        if any(failed):
            # a flip is allowed only at held residuals within rounding of tol;
            # stationary_distribution returns no residual, so a flip there fails
            tol, rounding = TOLS[name], n * np.finfo(float).eps
            raised, accepted = (original, relabelled) if failed[0] else (relabelled, original)
            assert name != "stationary_distribution", (name, raised)
            assert raised.residual <= tol + rounding, (name, raised)
            assert _held(name, accepted, orders[failed[0]][3]) >= tol - rounding, name
            continue
        gap = float(np.abs(relabelled - _permuted(original, perm)).max())
        assert gap <= C * U * kappa, (name, gap / (U * kappa))


@settings(max_examples=30)
@given(relabelled_clouds())
def test_spectra_labels_and_flags_agree(case):
    points, weights, beta, perm = case
    found = []
    for rows in (points, points[perm]):
        biv, d2 = _geometry(rows, weights)
        bridge = dmap_as_bridge(d2, beta)
        dec = decompose(conjugate_symmetrize(bridge.forward, bridge.mu_plus), bridge.mu_plus)
        attention = attention_forward(biv, beta)
        pi = _attempt(lambda: stationary_distribution(attention))
        label = None if isinstance(pi, ConvergenceError) else (
            classify_regime(attention, pi, pi).regime)
        found.append((dec.eigenvalues, dec.degenerate, label,
                      classify_regime(bridge.forward, bridge.mu_plus, bridge.mu_plus).regime))
    (eigenvalues, *labels), (relabelled, *relabelled_labels) = found
    kappa = max(1.0, beta * float(np.abs(_geometry(points, weights)[0].fwd).max()))
    assert float(np.abs(relabelled - eigenvalues).max()) <= C * U * kappa
    assert relabelled_labels == labels


def _scale_outputs(points, weights, beta, mu):
    """Every constructor and solver on one cloud at one beta, as arrays."""
    biv, d2 = _geometry(points, weights)
    cloud, w = DataCloud(points), InteractionWeights(np.eye(points.shape[1])
                                                     if weights is None else weights)
    attention = attention_forward(biv, beta)
    bridge = dmap_as_bridge(d2, beta)
    dec = decompose(conjugate_symmetrize(bridge.forward, bridge.mu_plus), bridge.mu_plus)
    return {
        "attention_forward": attention.values,
        "attention_bistochastic": attention_bistochastic(biv, beta).values,
        "dmap": dmap(d2, beta).values,
        "dmap_bistochastic": dmap_bistochastic(d2, beta).values,
        "rbf_kernel": rbf_kernel(d2, beta).values,
        "edge_phases": edge_phases(cloud, w, beta),
        "stationary_distribution": stationary_distribution(attention),
        "solve_bridge": solve_bridge(np.exp(-beta * d2), *mu).coupling,
        "decompose": np.vstack([dec.eigenvalues, dec.right_vectors]),
    }


@pytest.mark.parametrize("k", [-3, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_power_of_two_scale_changes_no_output(k, weighted):
    # X -> 2^k X scales G, fwd and d2 by 4^k exactly and beta -> beta / 4^k
    # undoes it exactly, so -beta * fwd is the same double in every entry
    c = 2.0**k
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 30)), int(rng.integers(1, 5))
        points = rng.standard_normal((n, d)) * rng.uniform(0.3, 3.0)
        a = rng.standard_normal((d, d))
        weights = np.eye(d) + 0.5 * (a - a.T) if weighted else None
        reach = float(np.abs(_geometry(points, weights)[0].fwd).max())
        beta = float(rng.uniform(0.1, 10.0)) / reach
        mu = rng.dirichlet(np.full(n, 5.0), size=2)
        original = _scale_outputs(points, weights, beta, mu)
        scaled = _scale_outputs(points * c, weights, beta / c**2, mu)
        for name, value in original.items():
            np.testing.assert_array_equal(scaled[name], value, err_msg=name)


# (name, argv) of each CLI form; {cloud}, {weights}, {mu_plus} and {mu_minus}
# are the files of one order
CLI_FORMS = [
    ("dmap", ["dmap", "--weights", "{weights}"]),
    ("kernel", ["kernel", "--weights", "{weights}"]),
    ("attention", ["attention", "--weights", "{weights}"]),
    ("attention-bistochastic", ["attention", "--bistochastic", "--weights", "{weights}"]),
    ("bridge-rbf", ["bridge", "--kernel", "rbf", "--weights", "{weights}",
                    "--mu-plus", "{mu_plus}", "--mu-minus", "{mu_minus}"]),
    ("bridge-attention", ["bridge", "--kernel", "attention", "--weights", "{weights}",
                          "--mu-plus", "stationary", "--mu-minus", "stationary"]),
    ("classify-attention", ["classify", "--kernel", "attention", "--weights", "{weights}",
                            "--mu-plus", "stationary", "--mu-minus", "stationary"]),
    ("magnetic", ["magnetic", "--weights", "{weights}"]),
    ("verify", ["verify"]),
]


def _cli_outputs(files, out_dir, argv):
    """Exit code, regime, verify verdicts and CSVs (by name) of one CLI run."""
    code = main([*[a.format(**files) for a in argv], "--input", str(files["cloud"]),
                 "--beta", "0.7", "--out-dir", str(out_dir)])
    report = json.loads(next(out_dir.glob("*_report.json")).read_text())
    results = report.get("results", report)  # verify's checks are top-level keys
    verdicts = [check["passed"] for check in results.get("checks", [])]
    csvs = {path.name: np.loadtxt(path, delimiter=",", ndmin=2)
            for path in sorted(out_dir.glob("*.csv"))}
    return code, results.get("regime"), verdicts, csvs


def _permuted_csv(value, perm):
    """A written matrix with its rows, its columns or both relabelled."""
    if value.shape == (1, perm.size):
        return value[:, perm]
    if value.shape[1] == 1:
        return value[perm]
    return value[np.ix_(perm, perm)]


@pytest.mark.parametrize("name, argv", CLI_FORMS, ids=[name for name, _ in CLI_FORMS])
def test_cli_outputs_follow_a_row_shuffle(tmp_path, name, argv):
    # over seeds 0-59 the largest gap was 15 u κ max(1, max|x|), by the
    # forward operator of the stationary attention bridge, whose marginals
    # come from a direct solve; without κ one draw reached 93 u max(1, max|x|)
    rng = np.random.default_rng(0)
    points = rng.standard_normal((25, 3))
    a = rng.standard_normal((3, 3))
    weights = np.eye(3) + 0.5 * (a - a.T)
    mu = rng.uniform(0.5, 1.5, (2, 25))
    mu /= mu.sum(axis=1, keepdims=True)
    perm = rng.permutation(25)
    orders = []
    for label, rows in (("original", np.arange(25)), ("shuffled", perm)):
        files = {key: tmp_path / f"{label}-{key}.csv"
                 for key in ("cloud", "weights", "mu_plus", "mu_minus")}
        write_matrix_csv(files["cloud"], points[rows])
        write_matrix_csv(files["weights"], weights)
        write_matrix_csv(files["mu_plus"], mu[0][rows].reshape(1, -1))
        write_matrix_csv(files["mu_minus"], mu[1][rows].reshape(1, -1))
        orders.append(_cli_outputs(files, tmp_path / label, argv))
    (code, regime, verdicts, csvs), (code2, regime2, verdicts2, csvs2) = orders
    assert (code2, regime2, verdicts2) == (code, regime, verdicts)
    assert csvs2.keys() == csvs.keys()
    kappa = max(1.0, 0.7 * float(np.abs(_geometry(points, weights)[0].fwd).max()))
    for csv, value in csvs.items():
        gap = float(np.abs(csvs2[csv] - _permuted_csv(value, perm)).max())
        assert gap <= C * U * kappa * max(1.0, float(np.abs(value).max())), (csv, gap)
