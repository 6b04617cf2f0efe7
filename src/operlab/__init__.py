"""Structured-operator recovery and operator-learning laboratory.

Recovers low-rank, circulant, banded, and hierarchically off-diagonal
low-rank matrices from black-box matrix-vector products; generates
Gaussian-process training data; solves three desk-scale model PDEs; and fits
discretized linear kernel models evaluated with relative losses and a
zero-shot super-resolution protocol.
"""

from .grids import FunctionSample, Grid1D, Grid2D, OperatorDataset
from .numerics import RngStream
from .probes import CovarianceSpec, KLBasis, kernel_eval, kl_decompose, sample_gp
from .recovery import (
    banded_coloring,
    randomized_svd,
    recover_banded,
    recover_circulant,
    recover_hodlr,
    relative_residual,
)
from .structured import (
    BandedOperator,
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    LowRankOperator,
    MatvecOracle,
    random_structured,
)

__all__ = [
    "BandedOperator",
    "BlockLowRankOperator",
    "CirculantOperator",
    "CovarianceSpec",
    "DenseOperator",
    "FunctionSample",
    "Grid1D",
    "Grid2D",
    "KLBasis",
    "LowRankOperator",
    "MatvecOracle",
    "OperatorDataset",
    "RngStream",
    "banded_coloring",
    "kernel_eval",
    "kl_decompose",
    "randomized_svd",
    "random_structured",
    "recover_banded",
    "recover_circulant",
    "recover_hodlr",
    "relative_residual",
    "sample_gp",
]

__version__ = "0.1.0"
