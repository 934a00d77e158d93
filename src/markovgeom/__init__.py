"""Markov geometry toolkit.

Builds the shared substrate behind attention, diffusion maps, and entropic
bridges: a signed divergence pair whose exponentiated and normalized forms
yield every operator in the family, plus the exact algebraic identities
connecting them and a verification suite that checks each one numerically.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.  A name is imported from
# its submodule on first use (PEP 562), so a program loads only the modules it
# runs.  Nothing is cached in this namespace: every lookup reads the
# submodule's current binding, so a name rebound there (by a tracer or a test
# double) is seen here too.
_PUBLIC = {
    "bridges": (
        "BridgeSolution", "RegimeReport", "attention_bridge", "attention_gauge",
        "classify_regime", "currents", "dmap_as_bridge", "doob_transform", "magnetic_flux",
        "poe_factorization", "sb_factorization_check", "solve_bridge",
        "stationary_distribution",
    ),
    "geometry": (
        "Bidivergence", "DataCloud", "GramMatrix", "InteractionWeights", "bidivergence",
        "edge_phases", "generalized_gram", "gram", "squared_distance",
    ),
    "normalize": (
        "ConvergenceError", "ScalingPotentials", "StochasticOperator", "poe_combine",
        "schrodinger_solve", "sinkhorn", "softmax_cols", "softmax_rows",
    ),
    "operators": (
        "ComplexOperator", "KernelMatrix", "attention_bistochastic", "attention_forward",
        "dmap", "dmap_bistochastic", "directional_kernels", "magnetic_operator", "rbf_kernel",
    ),
    "spectral": (
        "Embedding", "SpectralDecomposition", "conjugate_hermitize", "conjugate_symmetrize",
        "decompose", "diffusion_embedding",
    ),
    "verify": ("CheckResult", "run_identity_checks"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
