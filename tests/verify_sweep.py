"""Seeded-cloud sweep of the identity suite at the CLI's ``auto`` beta.

Draws 300 seeded clouds: n from 3 to 119 points in d from 1 to 8 dimensions,
scaled by 0.3-3, with 1 to 3 points moved about 20 away on every third seed.
Each cloud runs ``run_identity_checks`` at beta ``auto`` (1 / the median
off-diagonal squared distance, as ``verify --beta auto`` resolves it), and
the sweep prints how many clouds pass every check, and for the rest the ids
of the failed checks (``verify`` exit 1), the lead of the ``ValueError``
(exit 2) or the check named by the ``ConvergenceError`` (exit 3), with their
seeds.  Exits 1 on any other exception or when fewer than ``MIN_ALL_PASS``
clouds pass every check.  Its output is pinned in
``tests/expected/verify_sweep.txt``, which CI diffs against it.  Its name
keeps it out of pytest's collection; it takes about 9 s:

    PYTHONPATH=src python tests/verify_sweep.py
"""

import sys
import traceback
import warnings
from collections import defaultdict

import numpy as np

from markovgeom import cli
from markovgeom.geometry import DataCloud, bidivergence, gram, squared_distance
from markovgeom.normalize import ConvergenceError
from markovgeom.verify import run_identity_checks

SEEDS = range(300)
MIN_ALL_PASS = 265


def draw(seed):
    rng = np.random.default_rng(seed)
    n, d = rng.integers(3, 120), rng.integers(1, 9)
    points = rng.standard_normal((n, d)) * rng.uniform(0.3, 3)
    if seed % 3 == 0:  # move 1-3 points far out
        k = rng.integers(1, 4)
        points[:k] += 20 * rng.standard_normal((k, d))
    return points


def outcome(points) -> str:
    """What ``verify --beta auto`` would end in on these points."""
    cloud = DataCloud(points)
    try:
        beta = cli._resolve_beta("auto", squared_distance(bidivergence(gram(cloud))))
        results = run_identity_checks(cloud, beta)
    except ConvergenceError as exc:
        return f"exit 3, ConvergenceError in {str(exc).split(':')[0]}"
    except ValueError as exc:
        return f"exit 2, ValueError: {str(exc).split(':')[0]}"
    failed = [r.id for r in results if not r.passed]
    return f"exit 1, failed {' '.join(failed)}" if failed else "all pass"


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    seeds = defaultdict(list)
    faults = []
    for seed in SEEDS:
        try:
            seeds[outcome(draw(seed))].append(seed)
        except Exception:  # any other exception is a finding
            faults.append(f"seed {seed}: traceback\n{traceback.format_exc()}")
    for name in sorted(seeds, key=lambda name: (name != "all pass", name)):
        listed = "" if name == "all pass" else f" (seeds {', '.join(map(str, seeds[name]))})"
        print(f"{name}: {len(seeds[name])}{listed}")
    passed = len(seeds["all pass"])
    if passed < MIN_ALL_PASS:
        faults.append(f"{passed} clouds pass every check, fewer than {MIN_ALL_PASS}")
    for fault in faults:
        print(f"FAIL: {fault}")
    return int(bool(faults))


if __name__ == "__main__":
    sys.exit(main())
