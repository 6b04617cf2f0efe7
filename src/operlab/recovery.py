"""Recovery of structured matrices from matrix-vector product oracles.

Four algorithms: randomized SVD for (numerically) low-rank matrices,
single-query circulant recovery in Fourier space, coloring-based banded
recovery, and level-by-level peeling for HODLR matrices.  Each takes a
MatvecOracle and returns the recovered StructuredOperator (HODLR peeling
returns a BlockLowRankOperator over the weak lanes of partition_lanes, the
type that hierarchical kernel fits hold over the strong ones); the oracle
keeps the exact query counts.  HODLR peeling makes one forward and one
transpose oracle call per level, with both sibling families (the level's
two lanes) side by side, writes each level straight into the two factor
arrays the result stores, and reads the diagonal leaves off in chunks of
at most block_rank + oversampling columns straight into its leaf stack,
subtracting the off-diagonal levels there through those factor arrays.
OVERSAMPLING is the default oversampling of every sketch.
relative_residual scores a recovered operator against a known
instance without querying the oracle: from the two operators' parameters
when they are of one type over one structure (the case for every
recovery, at about the cost of one apply), else over dense column slabs.
"""
from __future__ import annotations

import numpy as np

from .numerics import RngStream, qr_thin, row_blocks
from .structured import (
    BandedOperator,
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    LowRankOperator,
    MatvecOracle,
    StructuredOperator,
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
# columns a sketch draws beyond its target rank, unless a caller says otherwise
OVERSAMPLING = 5


def relative_residual(recovered: StructuredOperator, reference) -> float:
    """||R - A||_F / ||A||_F (or ||R||_F when A is zero) for the recovered R and
    a reference A, given as an operator or a dense matrix.  No oracle query
    is made.

    A same-type pair is scored from its parameters (see _structural_norms),
    in about the work of one apply.  Any other pair (mixed types, a dense
    reference, block operators over different lanes) is materialized
    RESIDUAL_SLAB columns at a time, so memory stays O(RESIDUAL_SLAB * n);
    the per-slab norms combine into the Frobenius norms.
    """
    if not isinstance(reference, StructuredOperator):
        reference = DenseOperator(reference)
    if reference.n != recovered.n:
        raise ValueError(f"reference dimension {reference.n} does not match {recovered.n}")
    norms = _structural_norms(recovered, reference)
    error_norm, denom = _slab_norms(recovered, reference) if norms is None else norms
    if denom == 0.0:
        return float(error_norm)
    return float(error_norm / denom)


def _slab_norms(recovered, reference) -> tuple[float, float]:
    """(||R - A||_F, ||A||_F) from RESIDUAL_SLAB columns of both at a time."""
    n = recovered.n
    error_norms, reference_norms = [], []
    for lo in range(0, n, RESIDUAL_SLAB):
        hi = min(lo + RESIDUAL_SLAB, n)
        ref = reference.materialize(lo, hi, cap=n)
        error = recovered.materialize(lo, hi, cap=n)
        error -= ref  # in place: one slab, not two
        error_norms.append(np.linalg.norm(error))
        reference_norms.append(np.linalg.norm(ref))
    return np.linalg.norm(error_norms), np.linalg.norm(reference_norms)


def _product_norm(u: np.ndarray, v: np.ndarray) -> float:
    """||u @ v^T||_F, summed in quadrature over a stack of (m, k) factor
    pairs: the norm of R_u @ R_v^T from the R factors of their QRs.  Gram
    traces would cancel to about sqrt(eps) when u @ v^T is a residual near
    zero; the R factors keep it at eps."""
    r_u = np.linalg.qr(u, mode="r")
    r_v = np.linalg.qr(v, mode="r")
    return float(np.linalg.norm(r_u @ r_v.swapaxes(-1, -2)))


def _lane_specs(op: BlockLowRankOperator) -> list:
    return [[(lane.level, lane.row_starts, lane.col_starts, lane.size) for lane in lanes]
            for lanes in (op.lanes, op.leaf_lanes)]


def _structural_norms(recovered, reference) -> tuple[float, float] | None:
    """(||R - A||_F, ||A||_F) from the parameters of a same-type pair, or None
    for a pair that must be materialized.

    Low-rank C1 R1 - C2 R2 is [C1, -C2] [R1; R2], scored by _product_norm;
    circulant, sqrt(n) ||c1 - c2||; banded, the norm of the difference of
    the diagonals (padded to the wider band; out-of-range slots are zero).
    Block operators over equal lanes sum these in quadrature: the low-rank
    rule per block, as one batched QR per lane, and the leaf differences.
    """
    if type(recovered) is not type(reference):
        return None
    if isinstance(reference, LowRankOperator):
        return (_product_norm(np.hstack([recovered.col_factor, -reference.col_factor]),
                              np.vstack([recovered.row_factor, reference.row_factor]).T),
                _product_norm(reference.col_factor, reference.row_factor.T))
    if isinstance(reference, CirculantOperator):
        scale = np.sqrt(reference.n)
        return (scale * np.linalg.norm(recovered.first_column - reference.first_column),
                scale * np.linalg.norm(reference.first_column))
    if isinstance(reference, BandedOperator):
        w = max(recovered.bandwidth, reference.bandwidth)
        difference = np.zeros((2 * w + 1, reference.n))
        for op, sign in ((recovered, 1.0), (reference, -1.0)):
            rows = slice(w - op.bandwidth, w + op.bandwidth + 1)
            difference[rows] += sign * op.diagonals
        return np.linalg.norm(difference), np.linalg.norm(reference.diagonals)
    if isinstance(reference, BlockLowRankOperator):
        if _lane_specs(recovered) != _lane_specs(reference):
            return None
        errors, norms = [], []
        for a, b in zip(recovered.lanes, reference.lanes):
            (col_a, row_a), (col_b, row_b) = a.factors, b.factors
            errors.append(_product_norm(np.concatenate([col_a, -col_b], axis=2),
                                        np.concatenate([row_a, row_b], axis=1).swapaxes(1, 2)))
            norms.append(_product_norm(col_b, row_b.swapaxes(1, 2)))
        for a, b in zip(recovered.leaf_lanes, reference.leaf_lanes):
            errors.append(np.linalg.norm(a.factors[0] - b.factors[0]))
            norms.append(np.linalg.norm(b.factors[0]))
        return np.linalg.norm(errors), np.linalg.norm(norms)
    return None


def sketch_width(n: int, rank: int, oversampling: int, blocks: int = 1) -> int:
    """rank + oversampling, the width of the Gaussian probe that sketches one
    of `blocks` equal column blocks of an n x n matrix (the whole matrix for
    randomized_svd, one of a sibling pair for recover_hodlr).  Raises
    ValueError unless rank >= 1, oversampling >= 0 and the width is at most
    n // blocks; the CLI checks a config by it before drawing an instance."""
    if rank < 1:
        raise ValueError("target rank must be >= 1")
    if oversampling < 0:
        raise ValueError("oversampling must be >= 0")
    width = rank + oversampling
    if width > n // blocks:
        bound = "n" if blocks == 1 else f"n/{blocks}"
        raise ValueError(f"rank + oversampling = {width} exceeds {bound} = {n // blocks}")
    return width


def randomized_svd(
    oracle: MatvecOracle,
    rank: int,
    oversampling: int = OVERSAMPLING,
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
    width = sketch_width(oracle.n, rank, oversampling)
    # the probe is freed before the QR, the response before the transpose query
    response = oracle.apply(stream.standard_normal((oracle.n, width)))
    q = qr_thin(response)[0]
    del response
    return LowRankOperator(q, oracle.apply_transpose(q).T)


def recover_circulant(oracle: MatvecOracle, stream: RngStream) -> CirculantOperator:
    """Recover a circulant matrix from a single forward query.

    Applying the matrix to a Gaussian probe g, drawn from stream, commutes:
    the response y equals the circulant built from g applied to the unknown
    first column, so the column is IRFFT(RFFT(y) / RFFT(g)).  Raises
    ZeroFourierMode, before any query, if any DFT coefficient of g falls
    below PIVOT_RTOL * ||g|| (PIVOT_RTOL = 1e-8); the real transform's half
    spectrum holds them all, as a real vector's other half mirrors it.
    """
    n = oracle.n
    g = stream.standard_normal(n)
    g_hat = np.fft.rfft(g)
    tol = PIVOT_RTOL * np.linalg.norm(g)
    magnitudes = np.abs(g_hat)
    if np.any(magnitudes <= tol):
        mode = int(np.argmin(magnitudes))
        raise ZeroFourierMode(
            f"probe DFT coefficient {mode} has magnitude {magnitudes[mode]:.3e} "
            f"<= tolerance {tol:.3e}"
        )
    spectrum = np.fft.rfft(oracle.apply(g))
    spectrum /= g_hat
    return CirculantOperator(np.fft.irfft(spectrum, n))


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
    read off directly: each diagonal is one gather through flat indices into
    the C-ordered response, written into a slice of its row.
    """
    n = oracle.n
    w = bandwidth
    color_of = banded_coloring(n, w)
    width = min(2 * w + 1, n)
    probe = np.zeros((n, width))
    probe[np.arange(n), color_of] = 1.0
    response = np.ascontiguousarray(oracle.apply(probe)).ravel()
    del probe  # freed before the diagonals are allocated
    row_starts = np.arange(n) * width
    diagonals = np.zeros((2 * w + 1, n))
    for offset in range(-w, w + 1):
        # entry (row, row + offset) for every row whose column is in range
        lo, hi = max(0, -offset), n - max(0, offset)
        diagonals[w + offset, lo:hi] = response[row_starts[lo:hi] + color_of[lo + offset:hi + offset]]
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
    oversampling: int = OVERSAMPLING,
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
    oversampling columns, straight into the leaf stack, where the
    off-diagonal levels are subtracted through the factor arrays' rows (see
    _read_leaves).  The result's two factor arrays are allocated once,
    before the first level; each level's bases and coefficients are written
    into them through its lanes' views, and from level 2 on the coarser
    levels are subtracted through an operator over the columns filled so
    far.

    Query budget per level: 2*(block_rank + oversampling) forward plus
    2*min(block_rank, n/2^level) transpose, with n/2^levels extra forward
    queries for the leaves (see hodlr_query_budget).  A sketch whose
    residual after the rank truncation exceeds RANK_RTOL = 1e-8 raises
    RankDeficitError naming the block; upper blocks are checked before
    lower ones, pairs in ascending order.
    """
    n = oracle.n
    width = sketch_width(n, block_rank, oversampling, 2)
    full = BlockLowRankOperator.zeros(n, levels, "weak", block_rank)
    arrays = full.col_factors, full.row_factors
    for level in range(1, levels + 1):
        upper, lower = full.lanes[2 * level - 2:2 * level]
        # the coarser levels: the arrays' columns before this level's (none at level 1)
        known = None if level == 1 else BlockLowRankOperator(
            n, levels, "weak", block_rank, *(a[:, :upper.columns.start] for a in arrays))
        _peel_level(oracle, known, upper, lower, block_rank, width, stream)
    leaves = _read_leaves(oracle, full, width)
    return BlockLowRankOperator(n, levels, "weak", block_rank, *arrays, [leaves])


def _peel_level(oracle, known, upper, lower, block_rank, width, stream):
    """Fill one level's upper and lower lanes from one forward and one
    transpose oracle call; known holds the coarser levels, or is None at
    level 1, where there is nothing to subtract."""
    n, level, size = oracle.n, upper.level, upper.size
    pairs = 1 << (level - 1)
    r = min(block_rank, size)
    # tile 2i holds pair i's upper-block rows and lower-block columns, tile
    # 2i + 1 the other way round; the upper family is probed in the first
    # `width` columns, the lower one in the next
    probe = np.zeros((n, 2 * width))
    tiles = probe.reshape(2 * pairs, size, 2 * width)
    tiles[1::2, :, :width] = stream.standard_normal((pairs, size, width))
    tiles[0::2, :, width:] = stream.standard_normal((pairs, size, width))
    sketch = oracle.apply(probe)
    if known is not None:
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
    if known is not None:
        coeff -= known.apply_transpose(projection)
    coeff = coeff.reshape(2 * pairs, size, 2 * r)
    upper.fill(bases[0], coeff[1::2, :, :r])
    lower.fill(bases[1], coeff[0::2, :, r:])


def _read_leaves(oracle, full, width) -> np.ndarray:
    """The (2^levels, leaf, leaf) stack of diagonal leaves, read off with
    block-identity probes in equal chunks of at most `width` columns; full
    holds every off-diagonal level.

    Each chunk's response goes straight into the leaf stack, and the
    off-diagonal levels are subtracted there through full's factor arrays:
    the first product of full's apply with a block-identity probe is the
    chunk's rows of every row_factors tile, so those rows are moved
    (full.move_coefficients), and the col_factors tiles times them are
    subtracted one numerics.row_blocks block of tiles at a time.  A product
    with identity columns is exact and the rest are full.apply's own
    operations, so the leaves keep the bits of subtracting full.apply.
    """
    n, levels = oracle.n, full.levels
    leaf, count = n >> levels, 1 << levels
    leaves = np.empty((count, leaf, leaf))
    col_tiles, row_tiles = (a.reshape(count, leaf, a.shape[1])
                            for a in (full.col_factors, full.row_factors))
    chunks = -(-leaf // width)
    for chunk in range(chunks):
        lo, hi = leaf * chunk // chunks, leaf * (chunk + 1) // chunks
        probe = np.zeros((n, hi - lo))
        probe.reshape(count, leaf, hi - lo)[:, lo:hi] = np.eye(hi - lo)
        columns = leaves[:, :, lo:hi]
        columns[...] = oracle.apply(probe).reshape(count, leaf, hi - lo)
        del probe
        coeff = full.move_coefficients(row_tiles[:, lo:hi].transpose(0, 2, 1).copy(),
                                       transpose=False)
        for part in row_blocks(count, leaf * (hi - lo)):
            columns[part] -= col_tiles[part] @ coeff[part]
    return leaves


def hodlr_query_budget(n: int, block_rank: int, levels: int,
                       oversampling: int = OVERSAMPLING):
    """(forward, transpose) query counts of recover_hodlr for these parameters."""
    forward = 2 * (block_rank + oversampling) * levels + (n >> levels)
    transpose = sum(2 * min(block_rank, n >> level) for level in range(1, levels + 1))
    return forward, transpose
