"""Weighted-cloud sweep of ``attention_bistochastic`` at tol 1e-12.

Draws 300 seeded clouds: n from 5 to 199 points in d from 1 to 9 dimensions,
scaled by 0.3-3, with weights W = I plus an antisymmetric part
(``perfbench/workloads.py``'s ``interaction_weights``) and beta 0.1, 1 or 3.
Each draw runs ``attention_bistochastic`` at tol 1e-12 with ``max_iter``
4000, once in its own row order and once with its rows permuted, and the
sweep prints, for each beta, how many calls were accepted, how many raised
because the built operator missed tol ("misses tol") and how many raised
because the sweeps stalled ("scaling stalled").  Every accepted answer also
runs the structure check of ``test_normalize.py`` (log P + beta * fwd must be
additive, so P is a diagonal scaling of its kernel), and the sweep prints the
worst reading in units of u kappa and the number of structure misses.  Exits 1
on any "misses tol" raise, on a draw whose two row orders end differently, on
an accepted answer whose row or column sums (taken with ``math.fsum``) lie
more than tol from 1 or that is no scaling of its kernel, or on a
``ConvergenceError`` that reports a residual within tol.

Each draw, in its own row order, also runs the two other scalers at tol 1e-12
with ``max_iter`` 4000: ``dmap_bistochastic`` on its squared distances d2,
and ``solve_bridge`` on its kernel exp(-beta d2) with uniform marginals.  Each
accepted answer runs the structure check against -beta d2 and log K, and the
sweep prints, for each scaler and beta, how many calls were accepted and how
many raised (``ValueError`` where the kernel underflows), then the scaler's
worst reading, its structure misses, and the draws it cannot read: those with
an entry below ``STRUCTURE_FLOOR`` in every row.  A structure miss exits 1.
``sinkhorn`` shares its solver with ``attention_bistochastic``, so the
attention lines cover it.  Its output is pinned in
``tests/expected/scaling_sweep.txt``, which CI diffs against it.  Its name
keeps it out of pytest's collection; it takes about 40 s:

    PYTHONPATH=src python tests/scaling_sweep.py
"""

import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from test_normalize import (  # noqa: E402
    STRUCTURE_FLOOR,
    STRUCTURE_ULPS,
    exact_marginal_gap,
    scaling_defect,
    weighted_draw,
)

from markovgeom.bridges import solve_bridge  # noqa: E402
from markovgeom.geometry import (  # noqa: E402
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
    squared_distance,
)
from markovgeom.normalize import ConvergenceError  # noqa: E402
from markovgeom.operators import (  # noqa: E402
    attention_bistochastic,
    dmap_bistochastic,
    rbf_kernel,
)

SEEDS = range(300)
BETAS = (0.1, 1.0, 3.0)
TOL = 1e-12
MAX_ITER = 4000
OUTCOMES = ("accepted", "misses tol", "scaling stalled")
OTHER_OUTCOMES = (*OUTCOMES, "ValueError")


def geometry(points, weights):
    return bidivergence(generalized_gram(DataCloud(points), InteractionWeights(weights)))


def _dmap_bistochastic(d2, beta):
    return dmap_bistochastic(d2, beta, tol=TOL, max_iter=MAX_ITER).values, -beta * d2


def _solve_bridge(d2, beta):
    kernel = rbf_kernel(d2, beta).values
    uniform = np.full(len(d2), 1.0 / len(d2))
    coupling = solve_bridge(kernel, uniform, uniform, tol=TOL, max_iter=MAX_ITER).coupling
    return coupling, np.log(kernel)


# each scaler: (returned matrix, the logits it must be a scaling of)
OTHER_SCALERS = {"dmap_bistochastic": _dmap_bistochastic, "solve_bridge": _solve_bridge}


def run_other(scaler, d2, beta):
    """The outcome of one call of another scaler, and the structure reading of
    an accepted answer in units of u kappa, or None where no row of it clears
    STRUCTURE_FLOOR (else 0)."""
    try:
        matrix, logits = OTHER_SCALERS[scaler](d2, beta)
    except ConvergenceError as exc:
        return ("misses tol" if "misses tol" in str(exc) else "scaling stalled"), 0.0
    except ValueError:
        return "ValueError", 0.0
    if not (matrix.min(axis=1) >= STRUCTURE_FLOOR).any():
        return "accepted", None
    return "accepted", scaling_defect(matrix, logits)


def run(points, weights, beta):
    """The outcome of one call, the fault it shows or None, and the structure
    reading of an accepted answer in units of u kappa (else 0)."""
    biv = geometry(points, weights)
    try:
        operator = attention_bistochastic(biv, beta, tol=TOL, max_iter=MAX_ITER)
    except ConvergenceError as exc:
        outcome = "misses tol" if "misses tol" in str(exc) else "scaling stalled"
        fault = f"raised at residual {exc.residual:.3e}" if exc.residual <= TOL else None
        return outcome, fault, 0.0
    gap = exact_marginal_gap(operator.values, 1.0, 1.0)
    defect = scaling_defect(operator.values, -beta * biv.fwd)
    if gap > TOL:
        return "accepted", f"accepted, exact marginal gap {gap:.3e}", defect
    if defect > STRUCTURE_ULPS:
        return "accepted", f"accepted, no scaling of its kernel ({defect:.3g} u kappa)", defect
    return "accepted", None, defect


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    counts = {beta: Counter() for beta in BETAS}
    faults = []
    worst = 0.0
    misses = 0
    other_counts = {scaler: {beta: Counter() for beta in BETAS} for scaler in OTHER_SCALERS}
    other_worst = dict.fromkeys(OTHER_SCALERS, 0.0)
    other_misses = Counter()
    unreadable = {scaler: [] for scaler in OTHER_SCALERS}
    for seed in SEEDS:
        points, weights, perm, beta = weighted_draw(seed)
        ends = []
        for order, rows in (("original", points), ("permuted", points[perm])):
            outcome, fault, defect = run(rows, weights, beta)
            counts[beta][outcome] += 1
            worst = max(worst, defect)
            misses += defect > STRUCTURE_ULPS
            ends.append(outcome)
            if outcome == "misses tol":
                fault = fault or "raised: the built operator misses tol"
            if fault:
                faults.append(f"seed {seed} ({order} order): {fault}")
        if ends[0] != ends[1]:
            faults.append(f"seed {seed}: original order {ends[0]}, permuted order {ends[1]}")
        d2 = squared_distance(geometry(points, weights))
        for scaler in OTHER_SCALERS:
            outcome, defect = run_other(scaler, d2, beta)
            other_counts[scaler][beta][outcome] += 1
            if defect is None:
                unreadable[scaler].append(seed)
                continue
            other_worst[scaler] = max(other_worst[scaler], defect)
            if defect > STRUCTURE_ULPS:
                other_misses[scaler] += 1
                faults.append(f"seed {seed}: {scaler} answer is no scaling of its kernel "
                              f"({defect:.3g} u kappa)")
    for beta in BETAS:
        row = ", ".join(f"{outcome} {counts[beta][outcome]}" for outcome in OUTCOMES)
        print(f"beta {beta:g}: {row}")
    total = sum(counts.values(), Counter())
    print("all betas: " + ", ".join(f"{outcome} {total[outcome]}" for outcome in OUTCOMES))
    print(f"structure: worst {worst:.3g} u kappa (bound {STRUCTURE_ULPS:g}), {misses} misses")
    for scaler in OTHER_SCALERS:
        for beta, tally in other_counts[scaler].items():
            row = ", ".join(f"{outcome} {tally[outcome]}" for outcome in OTHER_OUTCOMES)
            print(f"{scaler} beta {beta:g}: {row}")
        seeds = ", ".join(map(str, unreadable[scaler])) or "none"
        print(f"{scaler} structure: worst {other_worst[scaler]:.3g} u kappa, "
              f"{other_misses[scaler]} misses, unreadable seeds {seeds}")
    for fault in faults:
        print(f"FAIL: {fault}")
    return int(bool(faults))


if __name__ == "__main__":
    sys.exit(main())
