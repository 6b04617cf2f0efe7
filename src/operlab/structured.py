"""Structured operator representations and the black-box matvec oracle.

Operators are immutable after construction and expose apply / apply_transpose
for vectors or column-stacked probe matrices, plus exact dense
materialization of any column range (capped, to keep tests from accidentally
going O(N^2) in memory at large N).  hodlr_partition states the dyadic
HODLR tiling once; random HODLR instances (and recovery.recover_hodlr) are
BlockLowRankOperators over its blocks with dense diagonal leaves.
"""
from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

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


def _span(start: int, size: int) -> slice:
    return slice(start, start + size)


def _overlap(cols: slice, lo: int, hi: int) -> tuple[slice, slice] | None:
    """Where a block's columns meet [lo, hi): the shared columns counted from
    the block's first column and from lo, or None if they do not meet."""
    first, last = max(cols.start, lo), min(cols.stop, hi)
    if first >= last:
        return None
    return slice(first - cols.start, last - cols.start), slice(first - lo, last - lo)


def _block_columns(col_factor: np.ndarray, row_factor_t: np.ndarray, part: slice) -> np.ndarray:
    """col_factor @ row_factor_t[:, part] with the bits of the whole block's product.

    numpy hands a one-column product to gemv, which rounds differently from
    gemm, so a lone column is cut from a two-column product instead.
    """
    width = row_factor_t.shape[1]
    if part.stop - part.start == 1 and width > 1:
        start = min(part.start, width - 2)
        return (col_factor @ row_factor_t[:, start:start + 2])[:, [part.start - start]]
    return col_factor @ row_factor_t[:, part]


@dataclass(frozen=True)
class HodlrBlock:
    """One square low-rank block: row_start/col_start give its top-left corner,
    and the block equals col_factor @ row_factor.T.  tail records the Frobenius norm of
    whatever a truncation to this rank discarded (zero for exact blocks)."""

    level: int
    row_start: int
    col_start: int
    size: int
    col_factor: np.ndarray
    row_factor: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        for name in ("level", "row_start", "col_start", "size"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        c = np.asarray(self.col_factor, dtype=float)
        r = np.asarray(self.row_factor, dtype=float)
        if c.shape[0] != self.size or r.shape[0] != self.size or c.shape[1] != r.shape[1]:
            raise ValueError("block factors must be (size, r) with matching rank")
        object.__setattr__(self, "col_factor", c)
        object.__setattr__(self, "row_factor", r)
        object.__setattr__(self, "tail", float(self.tail))


def hodlr_partition(n: int, levels: int) -> list[tuple[int, int, int, int]]:
    """(level, row_start, col_start, size) of every off-diagonal block of the
    weak-admissibility (HODLR) partition of an n x n matrix.

    [0, n) is halved `levels` times; at each level every sibling pair gives
    its upper block (rows of the first half, columns of the second), then its
    lower one.  Blocks go level by level, and the 2^levels diagonal leaves of
    size n / 2^levels cover the rest.  n must be a power of two divisible by
    2^levels.
    """
    if n < 2 or n & (n - 1):
        raise ValueError("dimension must be a power of two")
    if levels < 1 or n >> levels == 0:
        raise ValueError("2^levels must divide the dimension")
    blocks = []
    for level in range(1, levels + 1):
        size = n >> level
        for base in range(0, n, 2 * size):
            blocks += [(level, base, base + size, size), (level, base + size, base, size)]
    return blocks


class BlockLowRankOperator(StructuredOperator):
    """Sum of low-rank blocks and dense blocks placed anywhere in an n x n matrix.

    Low-rank blocks are HodlrBlocks; dense blocks are (row_start, col_start,
    matrix) triples.  Blocks are meant to be disjoint: apply sums their
    contributions, materialize writes them into a zero matrix in order.
    This covers weak admissibility (HODLR: every off-diagonal sibling block
    is low-rank) and strong admissibility (only blocks at least one block
    apart are low-rank; near-diagonal blocks stay dense).
    """

    def __init__(self, n: int, blocks, dense_blocks=()):
        self.n = n
        self.blocks = tuple(blocks)
        self.dense_blocks = tuple(
            (operator.index(r0), operator.index(c0), np.array(m, dtype=float))
            for r0, c0, m in dense_blocks
        )
        if any(m.ndim != 2 for _, _, m in self.dense_blocks):
            raise ValueError("dense blocks must be matrices")
        # slices and row_factor.T are built once: predict applies small
        # operators many times, and per-call slicing shows in its cost
        self._low_rank = tuple(
            (_span(b.row_start, b.size), _span(b.col_start, b.size), b.col_factor, b.row_factor.T)
            for b in self.blocks
        )
        self._dense = tuple(
            (_span(r0, m.shape[0]), _span(c0, m.shape[1]), m) for r0, c0, m in self.dense_blocks
        )
        for rows, cols, *_ in self._low_rank + self._dense:
            if not (0 <= rows.start and rows.stop <= n and 0 <= cols.start and cols.stop <= n):
                raise ValueError(f"block at ({rows.start}, {cols.start}) does not fit in dimension {n}")

    def _apply(self, x):
        y = np.zeros_like(x)
        for rows, cols, col_factor, row_factor_t in self._low_rank:
            y[rows] += col_factor @ (row_factor_t @ x[cols])
        for rows, cols, m in self._dense:
            y[rows] += m @ x[cols]
        return y

    def _apply_transpose(self, x):
        y = np.zeros_like(x)
        for rows, cols, col_factor, row_factor_t in self._low_rank:
            y[cols] += row_factor_t.T @ (col_factor.T @ x[rows])
        for rows, cols, m in self._dense:
            y[cols] += m.T @ x[rows]
        return y

    def _materialize(self, lo, hi):
        # only the blocks that meet columns [lo, hi), and only those columns of them
        a = np.zeros((self.n, hi - lo))
        for rows, cols, col_factor, row_factor_t in self._low_rank:
            if where := _overlap(cols, lo, hi):
                inside, out = where
                a[rows, out] = _block_columns(col_factor, row_factor_t, inside)
        for rows, cols, m in self._dense:
            if where := _overlap(cols, lo, hi):
                inside, out = where
                a[rows, out] = m[:, inside]
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

    @classmethod
    def from_dense(cls, matrix) -> "MatvecOracle":
        return cls.from_operator(DenseOperator(matrix))

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
        blocks = [
            HodlrBlock(
                level, row_start, col_start, size,
                stream.standard_normal((size, min(rank, size))),
                stream.standard_normal((size, min(rank, size))),
            )
            for level, row_start, col_start, size in hodlr_partition(n, levels)
        ]
        leaf = n >> levels
        leaves = [(j, j, stream.standard_normal((leaf, leaf))) for j in range(0, n, leaf)]
        return BlockLowRankOperator(n, blocks, leaves)
    raise ValueError(f"unknown structured kind {kind!r}")
