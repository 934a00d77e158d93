"""Peak memory of the n^2 constructors, in units of one n x n float64 matrix.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts its result and every n^2 temporary it makes.  Each bound is the peak
reached at N=300 plus a small margin; one more n^2 temporary on any of these
paths adds about one unit and fails its bound.
"""

import tracemalloc

import numpy as np
import pytest

from markovgeom.bridges import solve_bridge
from markovgeom.geometry import DataCloud, bidivergence, gram, squared_distance
from markovgeom.normalize import sinkhorn, softmax_rows
from markovgeom.operators import dmap, dmap_bistochastic, rbf_kernel

N = 300
_BIV = bidivergence(gram(DataCloud(np.random.default_rng(0).standard_normal((N, 3)))))
_D2 = squared_distance(_BIV)
_BETA = 1.0 / float(np.median(_D2[~np.eye(N, dtype=bool)]))
_Z = -_BETA * _BIV.fwd
_KERNEL = np.exp(-_BETA * _D2)
_MU_PLUS, _MU_MINUS = np.random.default_rng(1).dirichlet(np.full(N, 50.0), size=2)

# (call, bound in units of N^2 doubles); the peak each reached: 1.11, 2.10,
# 1.10, 1.10, 1.04 and 1.30
PEAKS = {
    "sinkhorn": (lambda: sinkhorn(_Z), 1.2),
    "solve_bridge": (lambda: solve_bridge(_KERNEL, _MU_PLUS, _MU_MINUS), 2.2),
    "softmax_rows": (lambda: softmax_rows(_Z), 1.2),
    "dmap": (lambda: dmap(_D2, _BETA), 1.2),
    "rbf_kernel": (lambda: rbf_kernel(_D2, _BETA), 1.1),
    "dmap_bistochastic": (lambda: dmap_bistochastic(_D2, _BETA), 1.4),
}


def peak_units(call) -> float:
    call()  # first-call setup stays out of the measurement
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak / (8.0 * N * N)


@pytest.mark.parametrize("name", list(PEAKS))
def test_peak_traced_memory(name):
    call, bound = PEAKS[name]
    assert peak_units(call) <= bound
