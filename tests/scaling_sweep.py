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
``ConvergenceError`` that reports a residual within tol.  Its name keeps it
out of pytest's collection; it takes about 25 s:

    PYTHONPATH=src python tests/scaling_sweep.py
"""

import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from test_normalize import (  # noqa: E402
    STRUCTURE_ULPS,
    exact_marginal_gap,
    scaling_defect,
    weighted_draw,
)

from markovgeom.geometry import (  # noqa: E402
    DataCloud,
    InteractionWeights,
    bidivergence,
    generalized_gram,
)
from markovgeom.normalize import ConvergenceError  # noqa: E402
from markovgeom.operators import attention_bistochastic  # noqa: E402

SEEDS = range(300)
BETAS = (0.1, 1.0, 3.0)
TOL = 1e-12
MAX_ITER = 4000
OUTCOMES = ("accepted", "misses tol", "scaling stalled")


def run(points, weights, beta):
    """The outcome of one call, the fault it shows or None, and the structure
    reading of an accepted answer in units of u kappa (else 0)."""
    biv = bidivergence(generalized_gram(DataCloud(points), InteractionWeights(weights)))
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
    for beta in BETAS:
        row = ", ".join(f"{outcome} {counts[beta][outcome]}" for outcome in OUTCOMES)
        print(f"beta {beta:g}: {row}")
    total = sum(counts.values(), Counter())
    print("all betas: " + ", ".join(f"{outcome} {total[outcome]}" for outcome in OUTCOMES))
    print(f"structure: worst {worst:.3g} u kappa (bound {STRUCTURE_ULPS:g}), {misses} misses")
    for fault in faults:
        print(f"FAIL: {fault}")
    return int(bool(faults))


if __name__ == "__main__":
    sys.exit(main())
