"""Structured operator representations and the black-box matvec oracle.

Operators are immutable after construction and expose apply / apply_transpose
for vectors or column-stacked probe matrices, plus exact dense
materialization of any column range (capped, to keep tests from accidentally
going O(N^2) in memory at large N).  partition_lanes states the dyadic
block partition once, for weak (HODLR) and strong admissibility, as lanes:
strided runs of equal-size blocks.  Every BlockLowRankOperator is built
over those lanes through one constructor and stores each lane's factors or
leaves as stacks, applied through strided views of the probe with one
batched product per factor.  Random HODLR instances and
recovery.recover_hodlr use the weak partition, hierarchical kernel fits the
strong one.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import RngStream

DENSE_CAP = 4096


def _check_probe(x, n: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != n:
            raise ValueError(f"probe length {arr.size} does not match dimension {n}")
        return arr[:, None], True
    if arr.ndim == 2:
        if arr.shape[0] != n:
            raise ValueError(f"probe has {arr.shape[0]} rows, expected {n}")
        return arr, False
    raise ValueError("probe must be a vector or a matrix")


class StructuredOperator:
    """Base class: a square operator with matvec, transpose matvec, and dense form."""

    n: int

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_transpose(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        mat, squeeze = _check_probe(x, self.n)
        out = self._apply(mat)
        return out[:, 0] if squeeze else out

    def apply_transpose(self, x) -> np.ndarray:
        mat, squeeze = _check_probe(x, self.n)
        out = self._apply_transpose(mat)
        return out[:, 0] if squeeze else out

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
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense operator must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("dense operator entries must be finite")
        self.matrix = a
        self.n = a.shape[0]

    def _apply(self, x):
        return self.matrix @ x

    def _apply_transpose(self, x):
        return self.matrix.T @ x

    def _materialize(self, lo, hi):
        return self.matrix[:, lo:hi].copy()


class LowRankOperator(StructuredOperator):
    """Product form A = C R with C of shape (n, k) and R of shape (k, n)."""

    def __init__(self, col_factor, row_factor):
        c = np.array(col_factor, dtype=float)
        r = np.array(row_factor, dtype=float)
        if c.ndim != 2 or r.ndim != 2 or c.shape[1] != r.shape[0] or c.shape[0] != r.shape[1]:
            raise ValueError("factors must have shapes (n, k) and (k, n)")
        self.col_factor = c
        self.row_factor = r
        self.n = c.shape[0]

    def _apply(self, x):
        return self.col_factor @ (self.row_factor @ x)

    def _apply_transpose(self, x):
        return self.row_factor.T @ (self.col_factor.T @ x)

    def _materialize(self, lo, hi):
        return self.col_factor @ self.row_factor[:, lo:hi]


class CirculantOperator(StructuredOperator):
    """Circulant matrix parameterized by its first column; applied via FFT."""

    def __init__(self, first_column):
        c = np.array(first_column, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("first column must be a nonempty vector")
        self.first_column = c
        self.n = c.size

    def _symbol(self) -> np.ndarray:
        return np.fft.fft(self.first_column)

    def _apply(self, x):
        xhat = np.fft.fft(x, axis=0)
        return np.fft.ifft(self._symbol()[:, None] * xhat, axis=0).real

    def _apply_transpose(self, x):
        # A^T is circulant with first column c[(n - i) mod n]
        xhat = np.fft.fft(x, axis=0)
        sym = np.conj(self._symbol())
        return np.fft.ifft(sym[:, None] * xhat, axis=0).real

    def _materialize(self, lo, hi):
        # column j is the first column rolled down by j: A[i, j] = c[(i - j) mod n]
        return self.first_column[(np.arange(self.n)[:, None] - np.arange(lo, hi)) % self.n]


class BandedOperator(StructuredOperator):
    """Banded matrix with A[i, j] = 0 whenever |i - j| > bandwidth.

    Stored as 2w+1 diagonals indexed by row: diagonals[w + o, i] = A[i, i + o]
    for offsets o in [-w, w]; out-of-range slots are zero.
    """

    def __init__(self, n: int, bandwidth: int, diagonals):
        d = np.array(diagonals, dtype=float)
        if bandwidth < 0 or bandwidth >= n:
            raise ValueError("need 0 <= bandwidth < n")
        if d.shape != (2 * bandwidth + 1, n):
            raise ValueError(f"diagonals must have shape {(2 * bandwidth + 1, n)}")
        self.n = n
        self.bandwidth = bandwidth
        self.diagonals = d

    def _apply(self, x):
        y = np.zeros_like(x)
        w = self.bandwidth
        for offset in range(-w, w + 1):
            lo = max(0, -offset)
            hi = self.n - max(0, offset)
            band = self.diagonals[w + offset, lo:hi]
            y[lo:hi] += band[:, None] * x[lo + offset:hi + offset]
        return y

    def _apply_transpose(self, x):
        y = np.zeros_like(x)
        w = self.bandwidth
        for offset in range(-w, w + 1):
            lo = max(0, -offset)
            hi = self.n - max(0, offset)
            band = self.diagonals[w + offset, lo:hi]
            y[lo + offset:hi + offset] += band[:, None] * x[lo:hi]
        return y

    def _materialize(self, lo, hi):
        a = np.zeros((self.n, hi - lo))
        w = self.bandwidth
        for offset in range(-w, w + 1):
            # rows whose entry (row, row + offset) falls in columns [lo, hi)
            rows = np.arange(max(0, lo - offset), min(self.n, hi - offset))
            a[rows, rows + offset - lo] = self.diagonals[w + offset, rows]
        return a


def _overlap(start: int, width: int, lo: int, hi: int) -> tuple[slice, slice] | None:
    """Where a block's columns [start, start + width) meet [lo, hi): the shared
    columns counted from the block's first column and from lo, or None if
    they do not meet."""
    first, last = max(start, lo), min(start + width, hi)
    if first >= last:
        return None
    return slice(first - start, last - start), slice(first - lo, last - lo)


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


def _lane(a: np.ndarray, starts: range, size: int) -> np.ndarray:
    """Rows starts[i] + [0, size) of a matrix for every i: a (len(starts),
    size, columns) view in which each tile keeps the matrix's strides, as a
    row slice of it would."""
    rows, cols = a.strides
    return np.lib.stride_tricks.as_strided(
        a[starts.start:], (len(starts), size, a.shape[1]), (starts.step * rows, rows, cols)
    )


class _Run:
    """One lane of size x size blocks: block i maps columns col_starts[i] +
    [0, size) to rows row_starts[i] + [0, size) through factors[0][i] @
    factors[1][i], the stacked col_factors and transposed row_factors of a
    low-rank lane (a leaf lane has one stack of dense blocks).  The starts
    step at least one block forward, so a lane reads x and writes y through
    strided views, with one batched product per factor.  level is the
    low-rank blocks' HodlrBlock level; a leaf lane has none."""

    def __init__(self, row_starts: range, col_starts: range, size: int, factors, level=None):
        self.row_starts, self.col_starts, self.size = row_starts, col_starts, size
        self.factors, self.level = tuple(factors), level
        count, first, last = len(row_starts), self.factors[0].shape, self.factors[-1].shape
        if not (len(first) == len(last) == 3 and first[:2] == (count, size)
                and last == (count, first[2], size)):
            raise ValueError(f"a lane needs factor stacks for {count} blocks of size {size}")

    def add_product(self, x: np.ndarray, y: np.ndarray, transpose: bool) -> None:
        """y += the lane's blocks (or their transposes) applied to x.  Each
        row of y gets at most one block's product, so lanes taken in block
        order add up in the order a per-block loop would."""
        if transpose:
            src, dst = self.row_starts, self.col_starts
            chain = [f.transpose(0, 2, 1) for f in self.factors]
        else:
            src, dst = self.col_starts, self.row_starts
            chain = reversed(self.factors)
        t = _lane(x, src, self.size)
        for factor in chain:
            t = factor @ t
        out = _lane(y, dst, self.size)
        out += t


@dataclass(frozen=True)
class HodlrBlock:
    """One square low-rank block: row_start/col_start give its top-left corner,
    and the block equals col_factor @ row_factor.T."""

    level: int
    row_start: int
    col_start: int
    size: int
    col_factor: np.ndarray
    row_factor: np.ndarray


def partition_lanes(n: int, levels: int, admissibility: str) -> tuple[list, list]:
    """The dyadic block partition of an n x n matrix as lanes: (level,
    row_starts, col_starts, size) for each lane of low-rank blocks, then for
    each lane of dense leaves.

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
    """
    # each lane as (tile offset, first row tile, row tile step)
    if admissibility == "weak":
        if n & (n - 1):
            raise ValueError("dimension must be a power of two")
        first, level_lanes, leaf_lanes = 1, [(1, 0, 2), (-1, 1, 2)], [(0, 0, 1)]
    elif admissibility == "strong":
        first, level_lanes = 2, [(2, 0, 1), (3, 0, 2), (-2, 2, 1), (-3, 3, 2)]
        leaf_lanes = [(0, 0, 1), (1, 0, 1), (-1, 1, 1)]
    else:
        raise ValueError(f"unknown admissibility {admissibility!r}")
    if levels < 1 or n < 1 or n >> levels << levels != n:  # no 2^levels: levels may be huge
        raise ValueError("2^levels must divide the dimension")

    def lane(level, offset, first_tile, step):
        # row tiles first_tile, first_tile + step, ... whose tile + offset is a tile
        size = n >> level
        rows = range(first_tile * size, n - max(offset, 0) * size, step * size)
        shift = offset * size
        return level, rows, range(rows.start + shift, rows.stop + shift, rows.step), size

    lanes = [lane(level, *spec) for level in range(first, levels + 1) for spec in level_lanes]
    return lanes, [lane(levels, *spec) for spec in leaf_lanes]


class BlockLowRankOperator(StructuredOperator):
    """Low-rank blocks and dense leaves tiling an n x n matrix along
    partition_lanes(n, levels, admissibility): weak (HODLR) or strong.

    factors holds a (col_factors, row_factors) pair of (blocks, size, rank)
    stacks for each lane of the partition in order, or for its first lanes
    only (the coarser levels, as recovery peels them); leaves, if given, one
    (blocks, leaf, leaf) stack per leaf lane.  The arrays are kept without
    a copy.  Each lane applies with one batched product per factor, with the
    bits of a per-block loop over blocks, then dense_blocks; both list their
    blocks lane by lane, as views of the stored arrays.
    """

    def __init__(self, n: int, levels: int, admissibility: str, factors, leaves=()):
        lanes, leaf_lanes = partition_lanes(n, levels, admissibility)
        if len(factors) > len(lanes) or (leaves and len(leaves) != len(leaf_lanes)):
            raise ValueError("factors and leaves must follow the partition's lanes")
        runs = [
            _Run(rows, cols, size, (col_factors, row_factors.transpose(0, 2, 1)), level)
            for (level, rows, cols, size), (col_factors, row_factors) in zip(lanes, factors)
        ]
        runs += [_Run(rows, cols, size, (stack,))
                 for (_, rows, cols, size), stack in zip(leaf_lanes, leaves)]
        self.n, self._runs = n, tuple(runs)

    @cached_property
    def blocks(self) -> tuple[HodlrBlock, ...]:
        return tuple(
            HodlrBlock(run.level, r0, c0, run.size, col_factor, row_factor_t.T)
            for run in self._runs if run.level is not None
            for r0, c0, col_factor, row_factor_t in zip(run.row_starts, run.col_starts, *run.factors)
        )

    @cached_property
    def dense_blocks(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        return tuple(
            (r0, c0, m)
            for run in self._runs if run.level is None
            for r0, c0, m in zip(run.row_starts, run.col_starts, run.factors[0])
        )

    def _apply(self, x):
        y = np.zeros_like(x)
        for run in self._runs:
            run.add_product(x, y, transpose=False)
        return y

    def _apply_transpose(self, x):
        y = np.zeros_like(x)
        for run in self._runs:
            run.add_product(x, y, transpose=True)
        return y

    def _materialize(self, lo, hi):
        # only the blocks that meet columns [lo, hi), and only those columns of them
        a = np.zeros((self.n, hi - lo))
        for run in self._runs:
            for r0, c0, *factors in zip(run.row_starts, run.col_starts, *run.factors):
                if where := _overlap(c0, run.size, lo, hi):
                    inside, out = where
                    a[r0:r0 + run.size, out] = _block_columns(factors, inside)
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
        mat, squeeze = _check_probe(x, self.n)
        with self._lock:
            self.forward_queries += mat.shape[1]
        out = np.asarray(self._forward(mat))
        return out[:, 0] if squeeze else out

    def apply_transpose(self, x) -> np.ndarray:
        mat, squeeze = _check_probe(x, self.n)
        with self._lock:
            self.transpose_queries += mat.shape[1]
        out = np.asarray(self._transpose(mat))
        return out[:, 0] if squeeze else out


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
        partition_lanes(n, levels, "weak")
        # one draw per level, in the stream order of per-block draws: each
        # sibling pair's upper block, then its lower one, each block's
        # col_factor, then its row_factor.  The even blocks of a level's draw
        # are its upper lane, the odd ones its lower lane.
        draws = [
            stream.standard_normal((1 << level, 2, n >> level, min(rank, n >> level)))
            for level in range(1, levels + 1)
        ]
        leaf = n >> levels
        leaves = stream.standard_normal((1 << levels, leaf, leaf))
        factors = [(d[lane::2, 0], d[lane::2, 1]) for d in draws for lane in (0, 1)]
        return BlockLowRankOperator(n, levels, "weak", factors, [leaves])
    raise ValueError(f"unknown structured kind {kind!r}")
