"""Structured operator representations and the black-box matvec oracle.

Operators are immutable after construction and expose apply / apply_transpose
for vectors or column-stacked probe matrices, plus exact dense
materialization of any column range (capped, to keep tests from accidentally
going O(N^2) in memory at large N).  Each operator type states its action
once, as _apply(x, transpose) on an n-row matrix (A x, or A^T x), and its
dense columns as _materialize(lo, hi); one probe check, _apply_to_probe,
serves every operator and the MatvecOracle.  A banded apply walks the
destination rows in cache-sized blocks.  partition_lanes states the dyadic
block partition once, for weak (HODLR) and strong admissibility, as lanes:
strided runs of equal-size blocks, grouped into slots that can share
storage.  Every BlockLowRankOperator stores its low-rank blocks tile-major
in two (n, K) factor arrays, one column range per level and slot, and its
leaves as one stack per leaf lane; its Lane objects view its blocks in
place.  One apply path, three batched products over the probe's finest
tiles whatever the number of levels, serves both admissibilities.  Random
HODLR instances and recovery.recover_hodlr use the weak partition,
hierarchical kernel fits the strong one.  Every operator keeps the float64
arrays passed to it without a copy, so callers must not mutate an array
after passing it to an operator.
"""
from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right

import numpy as np

from .numerics import RngStream, row_blocks

DENSE_CAP = 4096


def _apply_to_probe(target, x, transpose: bool) -> np.ndarray:
    """target._apply(probe, transpose) for a vector or matrix probe x of
    target.n rows, in x's shape.  The probe is passed as an n-row matrix: a
    view of x, never a copy, when x is already a float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("probe must be a vector or a matrix")
    if arr.shape[0] != target.n:
        raise ValueError(f"probe has {arr.shape[0]} rows, expected {target.n}")
    if arr.ndim == 2:
        return target._apply(arr, transpose)
    return target._apply(arr[:, None], transpose)[:, 0]


class StructuredOperator:
    """Base class: a square operator with matvec, transpose matvec, and dense form.

    A subclass sets n and defines _apply(x, transpose), which returns A @ x,
    or A.T @ x when transpose is true, for an n-row matrix x, and
    _materialize(lo, hi), which returns columns [lo, hi) of A.
    """

    n: int

    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        return _apply_to_probe(self, x, False)

    def apply_transpose(self, x) -> np.ndarray:
        return _apply_to_probe(self, x, True)

    def materialize(
        self, start: int = 0, stop: int | None = None, *, cap: int = DENSE_CAP
    ) -> np.ndarray:
        """Columns [start, stop) of the dense matrix, an n x (stop - start) array;
        the defaults give the whole matrix."""
        if self.n > cap:
            raise ValueError(f"dimension {self.n} exceeds dense cap {cap}")
        stop = self.n if stop is None else stop
        if not 0 <= start <= stop <= self.n:
            raise ValueError(f"column range [{start}, {stop}) is not within [0, {self.n}]")
        return self._materialize(start, stop)

    def _materialize(self, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(StructuredOperator):
    """Plain dense matrix, mostly used as a reference in tests."""

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense operator must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("dense operator entries must be finite")
        self.matrix = a
        self.n = a.shape[0]

    def _apply(self, x, transpose):
        return (self.matrix.T if transpose else self.matrix) @ x

    def _materialize(self, lo, hi):
        return self.matrix[:, lo:hi].copy()


class LowRankOperator(StructuredOperator):
    """Product form A = C R with C of shape (n, k) and R of shape (k, n)."""

    def __init__(self, col_factor, row_factor):
        c = np.asarray(col_factor, dtype=float)
        r = np.asarray(row_factor, dtype=float)
        if c.ndim != 2 or r.ndim != 2 or c.shape[1] != r.shape[0] or c.shape[0] != r.shape[1]:
            raise ValueError("factors must have shapes (n, k) and (k, n)")
        self.col_factor = c
        self.row_factor = r
        self.n = c.shape[0]

    def _apply(self, x, transpose):
        if transpose:
            return self.row_factor.T @ (self.col_factor.T @ x)
        return self.col_factor @ (self.row_factor @ x)

    def _materialize(self, lo, hi):
        return self.col_factor @ self.row_factor[:, lo:hi]


class CirculantOperator(StructuredOperator):
    """Circulant matrix parameterized by its first column; applied via the
    real FFT, whose half spectrum a real column's other half mirrors."""

    def __init__(self, first_column):
        c = np.asarray(first_column, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("first column must be a nonempty vector")
        self.first_column = c
        self.n = c.size

    def _apply(self, x, transpose):
        xhat = np.fft.rfft(x, axis=0)
        symbol = np.fft.rfft(self.first_column)
        if transpose:  # A^T is circulant with first column c[(n - i) mod n]
            symbol = np.conj(symbol)
        xhat *= symbol[:, None]
        return np.fft.irfft(xhat, self.n, axis=0)

    def _materialize(self, lo, hi):
        # column j is the first column rolled down by j: A[i, j] = c[(i - j) mod n]
        return self.first_column[(np.arange(self.n)[:, None] - np.arange(lo, hi)) % self.n]


class BandedOperator(StructuredOperator):
    """Banded matrix with A[i, j] = 0 whenever |i - j| > bandwidth.

    Stored as 2w+1 diagonals indexed by row: diagonals[w + o, i] = A[i, i + o]
    for offsets o in [-w, w].  Out-of-range slots (i + o outside [0, n)) are
    zero: the constructor rejects any other value, so the diagonals' norm is
    the matrix's Frobenius norm.  An apply walks the destination rows in the
    numerics.row_blocks of the probe (992 rows of a 33-column probe) and
    runs every offset within a block, so a block of the result and the probe
    rows it reads stay in cache.  Each output entry gets its adds in offset
    order, with the bits of one full-height pass per offset.
    """

    def __init__(self, n: int, bandwidth: int, diagonals):
        d = np.asarray(diagonals, dtype=float)
        if bandwidth < 0 or bandwidth >= n:
            raise ValueError("need 0 <= bandwidth < n")
        if d.shape != (2 * bandwidth + 1, n):
            raise ValueError(f"diagonals must have shape {(2 * bandwidth + 1, n)}")
        for offset in range(-bandwidth, bandwidth + 1):
            row = d[bandwidth + offset]
            if np.any(row[:max(0, -offset)]) or np.any(row[n - max(0, offset):]):
                raise ValueError(f"diagonal {offset} has a nonzero out-of-range slot")
        self.n = n
        self.bandwidth = bandwidth
        self.diagonals = d

    def _apply(self, x, transpose):
        y = np.zeros_like(x)
        n, w = self.n, self.bandwidth
        for block in row_blocks(n, x.shape[1]):
            for offset in range(-w, w + 1):
                # rows i of entries (i, i + offset) whose destination (row i,
                # or column i + offset) lies in [start, stop)
                shift = offset if transpose else 0
                lo = max(0, -offset, block.start - shift)
                hi = min(n - max(0, offset), block.stop - shift)
                if lo >= hi:
                    continue
                rows, cols = slice(lo, hi), slice(lo + offset, hi + offset)
                src, dst = (rows, cols) if transpose else (cols, rows)
                y[dst] += self.diagonals[w + offset, lo:hi, None] * x[src]
        return y

    def _materialize(self, lo, hi):
        a = np.zeros((self.n, hi - lo))
        w = self.bandwidth
        for offset in range(-w, w + 1):
            # rows whose entry (row, row + offset) falls in columns [lo, hi)
            rows = np.arange(max(0, lo - offset), min(self.n, hi - offset))
            a[rows, rows + offset - lo] = self.diagonals[w + offset, rows]
        return a


def _block_columns(factors, part: slice) -> np.ndarray:
    """Columns `part` of a block (its one dense matrix, or col_factor @
    row_factor.T) with the bits of the whole block's product.

    numpy hands a one-column product to gemv, which rounds differently from
    gemm, so a lone column is cut from a two-column product instead.
    """
    *head, last = factors
    if not head:
        return last[:, part]
    (col_factor,) = head
    width = last.shape[1]
    if part.stop - part.start == 1 and width > 1:
        start = min(part.start, width - 2)
        return (col_factor @ last[:, start:start + 2])[:, [part.start - start]]
    return col_factor @ last[:, part]


def _tiles(starts: range, size: int) -> slice:
    """The size-`size` tiles at which blocks starting at `starts` begin."""
    return slice(starts.start // size, starts.stop // size, starts.step // size)


class Lane:
    """One lane of size x size blocks of one level (a leaf lane's is the
    finest): block i maps columns col_starts[i] + [0, size) to rows
    row_starts[i] + [0, size) through factors[0][i] @ factors[1][i].  A
    low-rank lane's factors are strided views of its operator's factor
    arrays over the lane's `columns`: the stacked col_factors, then the
    stacked row_factors transposed.  A leaf lane's are one stack of dense
    blocks."""

    def __init__(self, level: int, row_starts: range, col_starts: range, size: int, factors,
                 columns: slice | None = None):
        self.level, self.size, self.factors = level, size, tuple(factors)
        self.row_starts, self.col_starts, self.columns = row_starts, col_starts, columns

    def fill(self, col_factors, row_factors) -> None:
        """Write the lane's blocks through its views: (blocks, size, rank)
        stacks of col_factors and row_factors."""
        col, row_t = self.factors
        if np.shape(col_factors) != col.shape or np.shape(row_factors) != col.shape:
            raise ValueError(f"a lane needs two factor stacks of shape {col.shape}")
        col[...] = col_factors
        row_t[...] = np.swapaxes(row_factors, 1, 2)


def partition_lanes(n: int, levels: int, admissibility: str) -> tuple[list, list]:
    """The dyadic block partition of an n x n matrix as lanes: (level,
    row_starts, col_starts, size, slot) for each lane of low-rank blocks,
    then for each lane of dense leaves.

    Level l cuts [0, n) into 2^l tiles of size n >> l, and a lane is a
    strided run of one level's blocks whose column tile lies a fixed offset
    from its row tile.  Weak admissibility (HODLR, n a power of two): each
    level is two lanes, the upper blocks at offset +1 from row tiles 0, 2,
    ..., then the lower ones at -1 from row tiles 1, 3, ...; the leaves are
    the last level's diagonal tiles.  Strong admissibility: a block is
    low-rank at the first level where its tiles are two or more apart, so
    each level from 2 on is four lanes, at offsets +2 (every row tile), +3
    (even row tiles), -2 (row tiles from 2 on) and -3 (odd row tiles from 3
    on), and the leaves are three lanes at offsets 0, +1 and -1.  2^levels
    must divide n.

    The lanes of one level that share a slot have disjoint row tiles and
    disjoint column tiles, so they share one column range of a
    BlockLowRankOperator's factor arrays: weak, the upper and the lower lane;
    strong, {+2}, {+3, -3} and {-2}.  A leaf lane's slot is its position.
    """
    # each lane as (tile offset, first row tile, row tile step, slot)
    if admissibility == "weak":
        if n & (n - 1):
            raise ValueError("dimension must be a power of two")
        first, level_lanes, leaf_lanes = 1, [(1, 0, 2, 0), (-1, 1, 2, 0)], [(0, 0, 1, 0)]
    elif admissibility == "strong":
        first, level_lanes = 2, [(2, 0, 1, 0), (3, 0, 2, 1), (-2, 2, 1, 2), (-3, 3, 2, 1)]
        leaf_lanes = [(0, 0, 1, 0), (1, 0, 1, 1), (-1, 1, 1, 2)]
    else:
        raise ValueError(f"unknown admissibility {admissibility!r}")
    if levels < 1 or n < 1 or n >> levels << levels != n:  # no 2^levels: levels may be huge
        raise ValueError("2^levels must divide the dimension")

    def lane(level, offset, first_tile, step, slot):
        # row tiles first_tile, first_tile + step, ... whose tile + offset is a tile
        size = n >> level
        rows = range(first_tile * size, n - max(offset, 0) * size, step * size)
        shift = offset * size
        return level, rows, range(rows.start + shift, rows.stop + shift, rows.step), size, slot

    lanes = [lane(level, *spec) for level in range(first, levels + 1) for spec in level_lanes]
    return lanes, [lane(levels, *spec) for spec in leaf_lanes]


def _lane_columns(lanes, n: int, rank: int) -> tuple[list, list]:
    """Each low-rank lane's column range in the factor arrays of a
    BlockLowRankOperator of this rank, and where each level's columns end
    (after 0): level by level, min(rank, size) columns per slot."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    columns, ends = [], [0]
    for level in sorted({lane[0] for lane in lanes}):
        r = min(rank, n >> level)
        slots = [lane[4] for lane in lanes if lane[0] == level]
        columns += [slice(ends[-1] + slot * r, ends[-1] + (slot + 1) * r) for slot in slots]
        ends.append(ends[-1] + (max(slots) + 1) * r)
    return columns, ends


class BlockLowRankOperator(StructuredOperator):
    """Low-rank blocks and dense leaves tiling an n x n matrix along
    partition_lanes(n, levels, admissibility): weak (HODLR) or strong.

    The low-rank blocks live tile-major in two (n, K) arrays.  Row i of
    col_factors holds the column-factor rows of every block whose row range
    contains i; row i of row_factors, the row-factor rows of every block
    whose column range contains i.  The columns run level by level and,
    within a level, slot by slot: the lanes of one slot share min(rank,
    size) columns, zero in the rows that none of their blocks covers.  The
    arrays may hold a prefix of whole levels only (the coarser levels, as
    recovery peels them).  leaves, if given, holds one (blocks, leaf, leaf)
    stack per leaf lane.  lanes and leaf_lanes hold the blocks as Lane
    objects, whose factors are views into these arrays.

    An apply views the probe as its 2^levels finest tiles and makes three
    batched products whatever the number of levels: the row_factors tiles
    (transposed) times the probe tiles; then, once each level's
    coefficients are summed over its tiles and moved from each block's
    column tile to its row tile (move_coefficients, a step of its own so
    that a caller holding the first product can finish an apply), the
    col_factors tiles times them; then the leaf stacks times the probe
    tiles, added into the result one numerics.row_blocks block of tiles at
    a time.  The transpose swaps the
    two arrays and the direction of the moves.  A C-ordered probe whose
    coefficients (2^levels K a column) do not outnumber its entries goes in
    one pass.  Any other goes in the numerics.row_blocks of its columns, at
    max(n, 2^levels K) entries a column, each chunk copied to C order; the
    result has the probe's layout.
    """

    def __init__(self, n: int, levels: int, admissibility: str, rank: int,
                 col_factors, row_factors, leaves=()):
        lanes, leaf_lanes = partition_lanes(n, levels, admissibility)
        columns, ends = _lane_columns(lanes, n, rank)
        col_factors = np.asarray(col_factors, dtype=float)
        row_factors = np.asarray(row_factors, dtype=float)
        width = col_factors.shape[-1]
        if col_factors.shape != (n, width) or row_factors.shape != (n, width) or width not in ends:
            raise ValueError("factor arrays must have n rows and the columns of whole levels")
        leaves = [np.asarray(stack, dtype=float) for stack in leaves]
        if leaves and [stack.shape for stack in leaves] != [
                (len(rows), size, size) for _, rows, _, size, _ in leaf_lanes]:
            raise ValueError("leaves must be one stack of dense blocks per leaf lane")
        self.n, self.levels, self.rank = n, levels, rank
        self.col_factors, self.row_factors = col_factors, row_factors

        def view(array, span, starts, size):
            # the blocks' factor rows, (blocks, size, rank), out of columns span
            return array[:, span].reshape(-1, size, span.stop - span.start)[_tiles(starts, size)]

        self.lanes = tuple(
            Lane(level, rows, cols, size, (view(col_factors, span, rows, size),
                                           view(row_factors, span, cols, size).transpose(0, 2, 1)),
                 span)
            for (level, rows, cols, size, _), span in zip(lanes, columns) if span.stop <= width)
        self.leaf_lanes = tuple(Lane(level, rows, cols, size, (stack,))
                                for (level, rows, cols, size, _), stack in zip(leaf_lanes, leaves))
        # each level held: its tile count, its columns and its lanes
        held = sorted({lane.level for lane in self.lanes})
        self._level_spans = [
            (1 << level, slice(lo, hi), [lane for lane in self.lanes if lane.level == level])
            for level, lo, hi in zip(held, ends, ends[1:])]

    @classmethod
    def zeros(cls, n: int, levels: int, admissibility: str, rank: int) -> "BlockLowRankOperator":
        """The operator of every level with zero factors and no leaves, over
        fresh arrays: its lanes' factors are the views to fill."""
        lanes, _ = partition_lanes(n, levels, admissibility)
        width = _lane_columns(lanes, n, rank)[1][-1]
        return cls(n, levels, admissibility, rank, np.zeros((n, width)), np.zeros((n, width)))

    def _apply(self, x, transpose):
        per_column = max(self.n, self.col_factors.shape[1] << self.levels)
        if x.flags.c_contiguous and per_column == self.n:
            return self._apply_tiles(x, transpose)
        y = np.empty_like(x)
        for part in row_blocks(x.shape[1], per_column):
            y[:, part] = self._apply_tiles(np.ascontiguousarray(x[:, part]), transpose)
        return y

    def _apply_tiles(self, x, transpose):
        """The apply to a C-ordered probe, through its finest tiles."""
        count, leaf = 1 << self.levels, self.n >> self.levels
        tiles = x.reshape(count, leaf, x.shape[1])
        second = self.row_factors if transpose else self.col_factors
        y = second.reshape(count, leaf, second.shape[1]) @ self._coefficients(tiles, transpose)
        for lane in self.leaf_lanes:
            src, dst = _tiles(lane.col_starts, lane.size), _tiles(lane.row_starts, lane.size)
            (stack,) = lane.factors
            if transpose:
                src, dst, stack = dst, src, stack.transpose(0, 2, 1)
            # each tile's product is its own matmul, so the blocks keep its bits
            lane_in, lane_out = tiles[src], y[dst]
            for part in row_blocks(len(stack), leaf * x.shape[1]):
                lane_out[part] += stack[part] @ lane_in[part]
        return y.reshape(x.shape)

    def _coefficients(self, tiles, transpose):
        """(tiles, K, columns): for each finest tile, the coefficients that
        the result's factor array multiplies in its rows: the products of
        the other factor array with the probe tiles, moved by
        move_coefficients."""
        count, leaf, _ = tiles.shape
        first = self.col_factors if transpose else self.row_factors
        coeff = first.reshape(count, leaf, first.shape[1]).transpose(0, 2, 1) @ tiles
        return self.move_coefficients(coeff, transpose)

    def move_coefficients(self, coeff, transpose: bool) -> np.ndarray:
        """Move a writable (tiles, K, columns) stack of per-finest-tile
        products, in place: each level's products are summed over its tiles
        first, then the same buffer takes the sums, moved from each block's
        column tile to its row tile (row to column for the transpose).  The
        result's factor array times the stack, tile by tile, is the apply.
        Returns coeff."""
        count, _, width = coeff.shape

        def level_view(span, level_tiles):
            # (level tiles, finest tiles in each, span's columns, width)
            columns = span.stop - span.start
            return coeff[:, span].reshape(level_tiles, count // level_tiles, columns, width)

        sums = [level_view(span, level_tiles).sum(axis=1)
                for level_tiles, span, _ in self._level_spans]
        # a tile that no lane of a slot reaches keeps zero coefficients: its
        # factor rows are zero as well, but 0 * inf would be nan
        coeff[...] = 0.0
        for (level_tiles, span, lanes), summed in zip(self._level_spans, sums):
            moved = level_view(span, level_tiles)
            for lane in lanes:
                src, dst = _tiles(lane.col_starts, lane.size), _tiles(lane.row_starts, lane.size)
                if transpose:
                    src, dst = dst, src
                part = slice(lane.columns.start - span.start, lane.columns.stop - span.start)
                moved[dst, :, part] = summed[src, None, part]
        return coeff

    def _materialize(self, lo, hi):
        a = np.zeros((self.n, hi - lo))
        for lane in self.lanes + self.leaf_lanes:
            # the lane's blocks that meet columns [lo, hi), and only those columns of them
            cols, size = lane.col_starts, lane.size
            meet = slice(bisect_right(cols, lo - size), bisect_left(cols, hi))
            for r0, c0, *factors in zip(lane.row_starts[meet], cols[meet],
                                        *(f[meet] for f in lane.factors)):
                first, last = max(c0, lo), min(c0 + size, hi)
                a[r0:r0 + size, first - lo:last - lo] = _block_columns(
                    factors, slice(first - c0, last - c0))
        return a


class MatvecOracle:
    """Black-box handle exposing x -> Ax and x -> A^T x with query counters.

    Counters increase by the number of columns in each probe; entries of the
    underlying matrix are never exposed directly.  Counter updates are
    lock-protected so concurrent probing keeps exact counts.
    """

    def __init__(self, n: int, apply_fn, apply_transpose_fn):
        self.n = n
        self._forward = apply_fn
        self._transpose = apply_transpose_fn
        self.forward_queries = 0
        self.transpose_queries = 0
        self._lock = threading.Lock()

    @classmethod
    def from_operator(cls, op: StructuredOperator) -> "MatvecOracle":
        return cls(op.n, op.apply, op.apply_transpose)

    def apply(self, x) -> np.ndarray:
        return _apply_to_probe(self, x, False)

    def apply_transpose(self, x) -> np.ndarray:
        return _apply_to_probe(self, x, True)

    def _apply(self, x, transpose):
        # called on a checked probe: count it, then run the action
        with self._lock:
            if transpose:
                self.transpose_queries += x.shape[1]
            else:
                self.forward_queries += x.shape[1]
        return np.asarray((self._transpose if transpose else self._forward)(x))


def random_structured(
    kind: str,
    n: int,
    stream: RngStream,
    *,
    rank: int | None = None,
    bandwidth: int | None = None,
    levels: int | None = None,
) -> StructuredOperator:
    """Random test instance of the requested kind with i.i.d. Gaussian free
    parameters; deterministic per stream."""
    if kind == "dense":
        return DenseOperator(stream.standard_normal((n, n)))
    if kind == "low-rank":
        if rank is None or not 1 <= rank < n:
            raise ValueError("low-rank instance needs 1 <= rank < n")
        return LowRankOperator(
            stream.standard_normal((n, rank)), stream.standard_normal((rank, n))
        )
    if kind == "circulant":
        return CirculantOperator(stream.standard_normal(n))
    if kind == "banded":
        if bandwidth is None or not 0 <= bandwidth < n:
            raise ValueError("banded instance needs 0 <= bandwidth < n")
        w = bandwidth
        diagonals = np.zeros((2 * w + 1, n))
        for offset in range(-w, w + 1):
            lo = max(0, -offset)
            hi = n - max(0, offset)
            diagonals[w + offset, lo:hi] = stream.standard_normal(hi - lo)
        return BandedOperator(n, w, diagonals)
    if kind == "hodlr":
        if rank is None or levels is None or rank < 1:
            raise ValueError("hodlr instance needs rank >= 1 and levels")
        shell = BlockLowRankOperator.zeros(n, levels, "weak", rank)
        # one draw per level, in the stream order of per-block draws: each
        # sibling pair's upper block, then its lower one, each block's
        # col_factor, then its row_factor.  The even blocks of a level's draw
        # are its upper lane, the odd ones its lower lane.
        for level in range(1, levels + 1):
            draw = stream.standard_normal((1 << level, 2, n >> level, min(rank, n >> level)))
            for lane, parity in zip(shell.lanes[2 * level - 2:2 * level], (0, 1)):
                lane.fill(draw[parity::2, 0], draw[parity::2, 1])
        leaf = n >> levels
        leaves = stream.standard_normal((1 << levels, leaf, leaf))
        return BlockLowRankOperator(n, levels, "weak", rank, shell.col_factors, shell.row_factors,
                                    [leaves])
    raise ValueError(f"unknown structured kind {kind!r}")
