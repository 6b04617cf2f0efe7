"""Recovery of structured matrices from matrix-vector product oracles.

Four algorithms: randomized SVD for (numerically) low-rank matrices,
single-query circulant recovery in Fourier space, coloring-based banded
recovery, and level-by-level peeling for HODLR matrices.  Each takes a
MatvecOracle and returns the recovered StructuredOperator (HODLR peeling
returns a BlockLowRankOperator over the blocks of hodlr_partition, the type
that hierarchical kernel fits hold); the oracle keeps the exact query
counts.  relative_residual scores a recovered operator against a known
instance without querying the oracle.
"""
from __future__ import annotations

import numpy as np

from .numerics import RngStream, qr_thin
from .structured import (
    BandedOperator,
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    HodlrBlock,
    LowRankOperator,
    MatvecOracle,
    StructuredOperator,
    hodlr_partition,
)


class ZeroFourierMode(RuntimeError):
    """The circulant probe has a DFT coefficient below the pivot tolerance.

    Retrying with a fresh Gaussian probe is the caller's policy.
    """


class RankDeficitError(RuntimeError):
    """A peeling sketch has residual above tolerance after its rank-limited
    projection: the assumed block rank underestimates the true one."""

    def __init__(self, level: int, pair: int, side: str, residual: float):
        self.level = level
        self.pair = pair
        self.side = side
        self.residual = residual
        super().__init__(
            f"block rank underestimated at level {level}, pair {pair}, {side} block: "
            f"relative sketch residual {residual:.3e} after rank-limited projection"
        )


RESIDUAL_SLAB = 256


def relative_residual(recovered: StructuredOperator, reference) -> float:
    """||R - A||_F / ||A||_F (or ||R||_F when A is zero) for the recovered R and
    a reference A, given as an operator or a dense matrix.

    Both are materialized RESIDUAL_SLAB columns at a time, so memory stays
    O(RESIDUAL_SLAB * n); the per-slab norms combine into the Frobenius norms.
    No oracle query is made.
    """
    if not isinstance(reference, StructuredOperator):
        reference = DenseOperator(reference)
    if reference.n != recovered.n:
        raise ValueError(f"reference dimension {reference.n} does not match {recovered.n}")
    n = recovered.n
    error_norms, reference_norms = [], []
    for lo in range(0, n, RESIDUAL_SLAB):
        hi = min(lo + RESIDUAL_SLAB, n)
        ref = reference.materialize(lo, hi, cap=n)
        error = recovered.materialize(lo, hi, cap=n)
        error -= ref  # in place: one slab, not two
        error_norms.append(np.linalg.norm(error))
        reference_norms.append(np.linalg.norm(ref))
    error_norm = np.linalg.norm(error_norms)
    denom = np.linalg.norm(reference_norms)
    if denom == 0.0:
        return float(error_norm)
    return float(error_norm / denom)


def randomized_svd(
    oracle: MatvecOracle,
    rank: int,
    oversampling: int = 5,
    *,
    stream: RngStream,
) -> LowRankOperator:
    """Recover a (numerically) low-rank matrix from rank + oversampling
    forward and equally many transpose queries.

    Probe with a Gaussian X of width rank + oversampling, orthonormalize the
    response Y = AX = QR, then read off the row action Z = A^T Q; the
    recovery is A ~= Q Z^T.  Inputs of exact rank at most `rank` are
    recovered to roundoff with probability one.
    """
    if rank < 1:
        raise ValueError("target rank must be >= 1")
    if oversampling < 0:
        raise ValueError("oversampling must be >= 0")
    width = rank + oversampling
    if width > oracle.n:
        raise ValueError(f"rank + oversampling = {width} exceeds dimension {oracle.n}")
    probe = stream.standard_normal((oracle.n, width))
    response = oracle.apply(probe)
    q = qr_thin(response).q
    row_action = oracle.apply_transpose(q)
    return LowRankOperator(q, row_action.T)


def recover_circulant(
    oracle: MatvecOracle,
    stream: RngStream | None = None,
    *,
    probe=None,
    pivot_rtol: float = 1e-8,
) -> CirculantOperator:
    """Recover a circulant matrix from a single forward query.

    Applying the matrix to a probe g commutes: the response y equals the
    circulant built from g applied to the unknown first column, so the
    column is IFFT(FFT(y) / FFT(g)).  Raises ZeroFourierMode if any DFT
    coefficient of g falls below pivot_rtol * ||g||.
    """
    n = oracle.n
    if probe is None:
        if stream is None:
            raise ValueError("need a stream (or an explicit probe)")
        probe = stream.standard_normal(n)
    g = np.asarray(probe, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"probe must have shape ({n},)")
    g_hat = np.fft.fft(g)
    tol = pivot_rtol * np.linalg.norm(g)
    small = np.abs(g_hat) <= tol
    if np.any(small):
        mode = int(np.argmin(np.abs(g_hat)))
        raise ZeroFourierMode(
            f"probe DFT coefficient {mode} has magnitude {np.abs(g_hat[mode]):.3e} "
            f"<= tolerance {tol:.3e}"
        )
    response = oracle.apply(g)
    column = np.fft.ifft(np.fft.fft(response) / g_hat).real
    return CirculantOperator(column)


def banded_coloring(n: int, bandwidth: int) -> np.ndarray:
    """The color of each column, its index mod (2w+1): min(2w+1, n) colors,
    and same-colored columns have disjoint row support for any matrix of
    bandwidth <= w."""
    if not 0 <= bandwidth < n:
        raise ValueError("need 0 <= bandwidth < n")
    return np.arange(n) % (2 * bandwidth + 1)


def recover_banded(oracle: MatvecOracle, bandwidth: int) -> BandedOperator:
    """Recover a banded matrix exactly in min(2w+1, n) forward queries.

    Columns sharing a color are probed together with one indicator-sum
    vector; their responses occupy disjoint row ranges, so entries can be
    read off directly.
    """
    n = oracle.n
    w = bandwidth
    color_of = banded_coloring(n, w)
    probe = np.zeros((n, min(2 * w + 1, n)))
    probe[np.arange(n), color_of] = 1.0
    response = oracle.apply(probe)
    diagonals = np.zeros((2 * w + 1, n))
    for offset in range(-w, w + 1):
        # entry (row, row + offset) for every row whose column is in range
        rows = np.arange(max(0, -offset), n - max(0, offset))
        diagonals[w + offset, rows] = response[rows, color_of[rows + offset]]
    return BandedOperator(n, w, diagonals)


def _rank_limited_basis(sketch: np.ndarray, rank: int) -> tuple[np.ndarray, float]:
    """Orthonormal basis of at most `rank` columns for the sketch's column
    space, plus the relative residual left outside it."""
    u, s, _ = np.linalg.svd(sketch, full_matrices=False)
    r = min(rank, *sketch.shape)
    basis = u[:, :r].copy()  # a view would keep all of u alive in the recovered block
    total = np.linalg.norm(s)
    if total == 0.0:
        return basis, 0.0
    tail = np.linalg.norm(s[r:])
    return basis, float(tail / total)


def recover_hodlr(
    oracle: MatvecOracle,
    block_rank: int,
    levels: int,
    oversampling: int = 5,
    *,
    stream: RngStream,
    rank_rtol: float = 1e-8,
) -> BlockLowRankOperator:
    """Recover a HODLR matrix by top-down peeling.

    The off-diagonal blocks are those of hodlr_partition(n, levels).  At
    each level the upper and lower sibling block families occupy disjoint
    column (and row) ranges, so each family is sketched with a single
    Gaussian probe block of width block_rank + oversampling supported on its
    column ranges; after subtracting the contributions of already-recovered
    coarser levels, each block's sketch is orthonormalized, truncated to its
    best rank-limited basis, and completed with one transpose projection
    sweep carrying those bases.  The dense diagonal leaf blocks are read off
    last with n/2^levels block-identity probes.  The result is a
    BlockLowRankOperator with the leaves as its dense diagonal blocks.

    Query budget per level: 2*(block_rank + oversampling) forward plus
    2*block_rank transpose, with n/2^levels extra forward queries for the
    leaves (see hodlr_query_budget).  A sketch whose residual after the
    rank truncation exceeds rank_rtol raises RankDeficitError naming the
    block.
    """
    n = oracle.n
    partition = hodlr_partition(n, levels)
    width = block_rank + oversampling
    if width > n // 2:
        raise ValueError("need block_rank + oversampling <= n/2")

    recovered_blocks: list[HodlrBlock] = []

    for level in range(1, levels + 1):
        r = min(block_rank, n >> level)
        for side in ("upper", "lower"):
            # a block maps columns src to rows dst; upper blocks lie above the diagonal
            family = [
                (dst, src, size) for lv, dst, src, size in partition
                if lv == level and (dst < src) == (side == "upper")
            ]
            known = BlockLowRankOperator(n, recovered_blocks)
            probe = np.zeros((n, width))
            for _, src, size in family:
                probe[src:src + size] = stream.standard_normal((size, width))
            sketch = oracle.apply(probe)
            sketch -= known.apply(probe)
            bases = []
            projection = np.zeros((n, r))
            for pair, (dst, _, size) in enumerate(family):
                basis, resid = _rank_limited_basis(sketch[dst:dst + size], block_rank)
                if resid > rank_rtol:
                    raise RankDeficitError(level, pair, side, resid)
                projection[dst:dst + size, : basis.shape[1]] = basis
                bases.append(basis)
            coeff = oracle.apply_transpose(projection)
            coeff -= known.apply_transpose(projection)
            for (dst, src, size), basis in zip(family, bases):
                # a copy, so the block does not keep the whole n-by-r coeff alive
                row_factor = coeff[src:src + size, : basis.shape[1]].copy()
                recovered_blocks.append(HodlrBlock(level, dst, src, size, basis, row_factor))

    leaf = n >> levels
    probe = np.tile(np.eye(leaf), (1 << levels, 1))
    sketch = oracle.apply(probe)
    sketch -= BlockLowRankOperator(n, recovered_blocks).apply(probe)
    leaves = [(j, j, sketch[j:j + leaf]) for j in range(0, n, leaf)]

    return BlockLowRankOperator(n, recovered_blocks, leaves)


def hodlr_query_budget(n: int, block_rank: int, levels: int, oversampling: int = 5):
    """(forward, transpose) query counts of recover_hodlr for these parameters."""
    forward = 2 * (block_rank + oversampling) * levels + (n >> levels)
    transpose = sum(2 * min(block_rank, n >> level) for level in range(1, levels + 1))
    return forward, transpose
