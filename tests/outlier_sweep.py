"""Outlier-chain sweep of ``stationary_distribution`` against GTH elimination.

Runs the ``outlier_chain`` recipe of ``test_bridges.py`` for seeds 0-299 at
tol 1e-4, 1e-6, 1e-10 and 1e-12 and prints, for each tol, how many cases each
rung of the ladder answered (named by its debug record) and how many raised
``ConvergenceError``.  Exits 1 if any answer lies more than tol from
``gth_stationary``, or if fewer than 148 positive dmap chains (even seeds) are
certified at 1e-12.

Then it runs ``test_normalize.py``'s exact-marginal draws at n = 1000: seeds
0-1 of ``sinkhorn``, ``attention_bistochastic``, ``dmap_bistochastic`` and
``solve_bridge`` at tol 3e-15, 1e-14 and 1e-12, and prints, for each tol, how
many answers were accepted and how many raised.  Exits 1 if an accepted
answer has a row or column sum (taken with ``math.fsum``) more than tol from
its target, if a ``ConvergenceError`` reports a residual within tol, or if a
draw is accepted at no tol.  Its name keeps it out of pytest's collection; it
takes a few seconds:

    PYTHONPATH=src python tests/outlier_sweep.py
"""

import logging
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from test_bridges import gth_stationary, outlier_chain  # noqa: E402
from test_normalize import _exact_case, exact_marginal_gap  # noqa: E402

from markovgeom.bridges import stationary_distribution  # noqa: E402
from markovgeom.normalize import ConvergenceError  # noqa: E402

SEEDS = range(300)
TOLS = (1e-4, 1e-6, 1e-10, 1e-12)
MIN_DMAP_CERTIFIED = 148

RUNGS = {"Doeblin": "doeblin", "reversibility": "reversible", "direct": "lu"}

EXACT_N = 1000
EXACT_SCALERS = ("sinkhorn", "attention_bistochastic", "dmap_bistochastic", "solve_bridge")
EXACT_SEEDS = range(2)
EXACT_TOLS = (3e-15, 1e-14, 1e-12)


class RungRecorder(logging.Handler):
    """Keeps the rung named by the last stationary-measure debug record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.rung = None

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("stationary measure: "):
            self.rung = RUNGS[message.split()[2]]


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    recorder = RungRecorder()
    logger = logging.getLogger("markovgeom")
    logger.addHandler(recorder)
    logger.setLevel(logging.DEBUG)
    counts = {tol: Counter() for tol in TOLS}
    wrong = []
    worst = 0.0
    dmap_positive = dmap_certified = 0
    for seed in SEEDS:
        p = outlier_chain(seed)
        if p.values.min() <= 0.0:
            for tol in TOLS:
                counts[tol]["rejected"] += 1
            continue
        oracle = gth_stationary(p.values)
        dmap_positive += seed % 2 == 0
        for tol in TOLS:
            recorder.rung = None
            try:
                pi = stationary_distribution(p, tol=tol)
            except ConvergenceError:
                counts[tol]["raised"] += 1
                continue
            counts[tol][recorder.rung] += 1
            dmap_certified += seed % 2 == 0 and tol == 1e-12
            error = float(np.abs(pi - oracle).max())
            worst = max(worst, error / tol)
            if error > tol:
                wrong.append((seed, tol, recorder.rung, error))
    for tol in TOLS:
        row = ", ".join(f"{key} {counts[tol][key]}"
                        for key in ("doeblin", "reversible", "lu", "raised", "rejected"))
        print(f"tol {tol:.0e}: {row}")
    print(f"dmap chains certified at 1e-12: {dmap_certified} of {dmap_positive} positive")
    print(f"worst certified error: {worst:.2g} x tol")
    for seed, tol, rung, error in wrong:
        print(f"WRONG: seed {seed}, tol {tol:.0e}, rung {rung}: error {error:.3e}")
    if dmap_certified < MIN_DMAP_CERTIFIED:
        print(f"FAIL: fewer than {MIN_DMAP_CERTIFIED} dmap chains certified at 1e-12")
    return int(bool(wrong) or dmap_certified < MIN_DMAP_CERTIFIED)


def exact_marginals() -> int:
    counts = {tol: Counter() for tol in EXACT_TOLS}
    faults = []
    worst = 0.0
    for scaler in EXACT_SCALERS:
        for seed in EXACT_SEEDS:
            accepted = 0
            for tol in EXACT_TOLS:
                case = f"{scaler}, seed {seed}, tol {tol:.0e}"
                try:
                    matrix, rows, cols = _exact_case(scaler, seed, tol, n=EXACT_N)
                except ConvergenceError as exc:
                    counts[tol]["raised"] += 1
                    if exc.residual <= tol:
                        faults.append(f"{case}: raised at residual {exc.residual:.3e}")
                    continue
                counts[tol]["accepted"] += 1
                accepted += 1
                gap = exact_marginal_gap(matrix, rows, cols)
                worst = max(worst, gap / tol)
                if gap > tol:
                    faults.append(f"{case}: accepted, exact marginal gap {gap:.3e}")
            if not accepted:
                faults.append(f"{scaler}, seed {seed}: accepted at no tol")
    for tol in EXACT_TOLS:
        print(f"n = {EXACT_N} exact marginals, tol {tol:.0e}: "
              f"accepted {counts[tol]['accepted']}, raised {counts[tol]['raised']}")
    print(f"worst exact marginal gap: {worst:.2g} x tol")
    for fault in faults:
        print(f"FAIL: {fault}")
    return int(bool(faults))


if __name__ == "__main__":
    sys.exit(main() | exact_marginals())
