"""Structured-operator recovery and operator-learning laboratory.

Recovers low-rank, circulant, banded, and hierarchically off-diagonal
low-rank matrices from black-box matrix-vector products; generates
Gaussian-process training data; solves three desk-scale model PDEs; and fits
discretized linear kernel models evaluated with relative losses and a
zero-shot super-resolution protocol.

Importing the package loads none of its modules: each export below is
imported from its home module the first time it is used, so a CLI command
loads only the modules it runs.
"""
import importlib

# each home module's exports
_EXPORTS = {
    "grids": ("FunctionSample", "Grid1D", "Grid2D", "OperatorDataset"),
    "numerics": ("RngStream",),
    "probes": ("CovarianceSpec", "KLBasis", "kernel_eval", "kl_decompose", "sample_gp"),
    "recovery": ("banded_coloring", "randomized_svd", "recover_banded", "recover_circulant",
                 "recover_hodlr", "relative_residual"),
    "structured": ("BandedOperator", "BlockLowRankOperator", "CirculantOperator",
                   "DenseOperator", "LowRankOperator", "MatvecOracle", "random_structured"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
