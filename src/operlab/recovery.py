"""Recovery of structured matrices from matrix-vector product oracles.

Four algorithms: randomized SVD for (numerically) low-rank matrices,
single-query circulant recovery in Fourier space, coloring-based banded
recovery, and level-by-level peeling for HODLR matrices.  Each takes a
MatvecOracle and returns the recovered StructuredOperator (HODLR peeling
returns a BlockLowRankOperator over the weak lanes of partition_lanes, the
type that hierarchical kernel fits hold over the strong ones); the oracle
keeps the exact query counts.  HODLR peeling makes one forward and one
transpose oracle call per level, with both sibling families (the level's
two lanes) side by side, and reads the diagonal leaves off in chunks of at
most block_rank + oversampling columns straight into the stack the result
stores.  relative_residual scores a recovered operator against a known
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
    LowRankOperator,
    MatvecOracle,
    StructuredOperator,
    partition_lanes,
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
PIVOT_RTOL = 1e-8
RANK_RTOL = 1e-8


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
) -> CirculantOperator:
    """Recover a circulant matrix from a single forward query.

    Applying the matrix to a probe g commutes: the response y equals the
    circulant built from g applied to the unknown first column, so the
    column is IFFT(FFT(y) / FFT(g)).  Raises ZeroFourierMode if any DFT
    coefficient of g falls below PIVOT_RTOL * ||g|| (PIVOT_RTOL = 1e-8).
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
    tol = PIVOT_RTOL * np.linalg.norm(g)
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


def _rank_limited_bases(sketches: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of at most `rank` columns for the column spaces of a
    stack of sketches (one stacked SVD), plus the relative residual each
    sketch leaves outside its basis."""
    u, s, _ = np.linalg.svd(sketches, full_matrices=False)
    r = min(rank, *sketches.shape[1:])
    total = np.linalg.norm(s, axis=1)
    tail = np.linalg.norm(s[:, r:], axis=1)
    residuals = np.divide(tail, total, out=np.zeros_like(total), where=total > 0.0)
    return u[:, :, :r], residuals


def recover_hodlr(
    oracle: MatvecOracle,
    block_rank: int,
    levels: int,
    oversampling: int = 5,
    *,
    stream: RngStream,
) -> BlockLowRankOperator:
    """Recover a HODLR matrix by top-down peeling, one level at a time.

    The off-diagonal blocks are those of partition_lanes(n, levels, "weak").  At
    each level the upper and lower sibling block families occupy disjoint
    column (and row) ranges, so each family is sketched with a Gaussian
    probe block of width block_rank + oversampling supported on its column
    ranges, and both families go to the oracle side by side in one call.
    After subtracting the already-recovered coarser levels, each block's
    sketch is truncated to its best rank-limited basis (one stacked SVD per
    family), and one transpose call carrying both families' bases completes
    the blocks.  The dense diagonal leaf blocks are read off last with
    n/2^levels block-identity probes, in chunks of at most block_rank +
    oversampling columns, straight into the leaf stack.  The result is a
    BlockLowRankOperator stored in the arrays filled here.

    Query budget per level: 2*(block_rank + oversampling) forward plus
    2*min(block_rank, n/2^level) transpose, with n/2^levels extra forward
    queries for the leaves (see hodlr_query_budget).  A sketch whose
    residual after the rank truncation exceeds RANK_RTOL = 1e-8 raises
    RankDeficitError naming the block; upper blocks are checked before
    lower ones, pairs in ascending order.
    """
    n = oracle.n
    partition_lanes(n, levels, "weak")
    width = block_rank + oversampling
    if width > n // 2:
        raise ValueError("need block_rank + oversampling <= n/2")

    lanes: list[tuple[np.ndarray, np.ndarray]] = []
    for level in range(1, levels + 1):
        known = BlockLowRankOperator(n, levels, "weak", lanes)
        lanes += _peel_level(oracle, known, level, block_rank, width, stream)
    leaves = _read_leaves(oracle, BlockLowRankOperator(n, levels, "weak", lanes), levels, width)
    return BlockLowRankOperator(n, levels, "weak", lanes, [leaves])


def _peel_level(oracle, known, level, block_rank, width, stream):
    """The (col_factors, row_factors) stacks of one level's upper lane, then
    of its lower lane, from one forward and one transpose oracle call; known
    holds the coarser levels."""
    n = oracle.n
    size, pairs = n >> level, 1 << (level - 1)
    r = min(block_rank, size)
    # tile 2i holds pair i's upper-block rows and lower-block columns, tile
    # 2i + 1 the other way round; the upper family is probed in the first
    # `width` columns, the lower one in the next
    probe = np.zeros((n, 2 * width))
    tiles = probe.reshape(2 * pairs, size, 2 * width)
    tiles[1::2, :, :width] = stream.standard_normal((pairs, size, width))
    tiles[0::2, :, width:] = stream.standard_normal((pairs, size, width))
    sketch = oracle.apply(probe)
    sketch -= known.apply(probe)
    sketch = sketch.reshape(2 * pairs, size, 2 * width)
    bases = []
    for side, family in (("upper", sketch[0::2, :, :width]), ("lower", sketch[1::2, :, width:])):
        basis, residuals = _rank_limited_bases(family, block_rank)
        deficient = np.flatnonzero(residuals > RANK_RTOL)
        if deficient.size:
            pair = int(deficient[0])
            raise RankDeficitError(level, pair, side, float(residuals[pair]))
        bases.append(basis)
    projection = np.zeros((n, 2 * r))
    tiles = projection.reshape(2 * pairs, size, 2 * r)
    tiles[0::2, :, :r], tiles[1::2, :, r:] = bases
    coeff = oracle.apply_transpose(projection)
    coeff -= known.apply_transpose(projection)
    coeff = coeff.reshape(2 * pairs, size, 2 * r)
    # one array for the level: the upper lane's two stacks, then the lower lane's
    stacks = np.empty((2, 2, pairs, size, r))
    stacks[0, 0], stacks[1, 0] = bases
    stacks[0, 1], stacks[1, 1] = coeff[1::2, :, :r], coeff[0::2, :, r:]
    return [tuple(stacks[0]), tuple(stacks[1])]


def _read_leaves(oracle, known, levels, width) -> np.ndarray:
    """The (2^levels, leaf, leaf) stack of diagonal leaves, read off with
    block-identity probes in equal chunks of at most `width` columns; known
    holds every off-diagonal level."""
    n = oracle.n
    leaf, count = n >> levels, 1 << levels
    leaves = np.empty((count, leaf, leaf))
    chunks = -(-leaf // width)
    for chunk in range(chunks):
        lo, hi = leaf * chunk // chunks, leaf * (chunk + 1) // chunks
        probe = np.zeros((n, hi - lo))
        probe.reshape(count, leaf, hi - lo)[:, lo:hi] = np.eye(hi - lo)
        sketch = oracle.apply(probe)
        sketch -= known.apply(probe)
        leaves[:, :, lo:hi] = sketch.reshape(count, leaf, hi - lo)
    return leaves


def hodlr_query_budget(n: int, block_rank: int, levels: int, oversampling: int = 5):
    """(forward, transpose) query counts of recover_hodlr for these parameters."""
    forward = 2 * (block_rank + oversampling) * levels + (n >> levels)
    transpose = sum(2 * min(block_rank, n >> level) for level in range(1, levels + 1))
    return forward, transpose
