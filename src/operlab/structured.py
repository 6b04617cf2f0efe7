"""Structured operator representations and the black-box matvec oracle.

Operators are immutable after construction and expose apply / apply_transpose
for vectors or column-stacked probe matrices, plus exact dense
materialization of any column range (capped, to keep tests from accidentally
going O(N^2) in memory at large N).  hodlr_partition states the dyadic
HODLR tiling once; random HODLR instances (and recovery.recover_hodlr) are
BlockLowRankOperators over its blocks with dense diagonal leaves.  A block
operator stores runs of same-shape blocks whose starts step evenly forward
(each given block is a run of one; a HODLR level is two strided lanes, its
leaves one more run) and applies each run through views of the probe with
one batched product per factor; its blocks and dense_blocks are views of the
stored arrays.
"""
from __future__ import annotations

import operator
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
    """Blocks of one shape whose starts step evenly forward: a lane.

    Block i maps columns col_starts[i] + [0, width) to rows row_starts[i] +
    [0, height) through factors[0][i] @ factors[1][i]: a low-rank run's
    factors are its stacked col_factors and transposed row_factors, a dense
    run's its one stack of matrices.  The starts are ranges, so a run reads
    x and writes y through strided views, never through a gathered copy, with
    one batched product per factor.  A given block is a run of one; a HODLR
    level is two lanes (its upper blocks, then its lower ones) and its leaves
    one more.  levels and tails are the low-rank blocks' HodlrBlock fields;
    a dense run has none.
    """

    def __init__(self, row_starts: range, col_starts: range, factors, levels=None, tails=None):
        self.row_starts, self.col_starts = row_starts, col_starts
        self.factors, self.levels, self.tails = tuple(factors), levels, tails
        self.height, self.width = self.factors[0].shape[1], self.factors[-1].shape[2]
        if any(f.ndim != 3 or len(f) != len(row_starts) for f in self.factors):
            raise ValueError("a run needs one stacked factor per block")
        if self.height == 0 or self.width == 0:
            raise ValueError("blocks must not be empty")
        for starts, size in ((row_starts, self.height), (col_starts, self.width)):
            if len(starts) > 1 and starts.step < size:
                raise ValueError("a run's blocks must not overlap")

    def add_product(self, x: np.ndarray, y: np.ndarray, transpose: bool) -> None:
        """y += the run's blocks (or their transposes) applied to x.  Each
        row of y gets at most one block's product, so runs taken in block
        order add up in the order a per-block loop would."""
        if transpose:
            src, dst, sizes = self.row_starts, self.col_starts, (self.height, self.width)
            chain = [f.transpose(0, 2, 1) for f in self.factors]
        else:
            src, dst, sizes = self.col_starts, self.row_starts, (self.width, self.height)
            chain = reversed(self.factors)
        t = _lane(x, src, sizes[0])
        for factor in chain:
            t = factor @ t
        out = _lane(y, dst, sizes[1])
        out += t


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

    Storage is a list of runs (see _Run), each applied with one batched
    product per factor with the bits of a per-block loop.  Each given block
    is a run of one that keeps the arrays it was given, so its products
    follow the caller's layouts.  hodlr stores each level as two strided
    lanes and its leaves as one run; blocks lists a level's upper blocks,
    then its lower ones.  blocks and dense_blocks are views of the stored
    arrays.
    """

    def __init__(self, n: int, blocks, dense_blocks=()):
        dense = [(r0, c0, np.asarray(m, dtype=float)) for r0, c0, m in dense_blocks]
        if any(m.ndim != 2 for _, _, m in dense):
            raise ValueError("dense blocks must be matrices")
        self._store(n, [
            _Run(range(b.row_start, b.row_start + 1), range(b.col_start, b.col_start + 1),
                 (b.col_factor[None], b.row_factor.T[None]), (b.level,), (b.tail,))
            for b in blocks
        ] + [_Run(range(r0, r0 + 1), range(c0, c0 + 1), (m[None],)) for r0, c0, m in dense])

    @classmethod
    def hodlr(cls, n: int, level_factors, leaves=None) -> "BlockLowRankOperator":
        """The HODLR operator over hodlr_partition(n, len(level_factors)),
        stored in the given arrays without a copy: level_factors[l - 1] is the
        (col_factors, row_factors) pair of (2^l, n >> l, rank) stacks of level
        l's blocks in partition order, and leaves, if given, the
        (2^levels, leaf, leaf) stack of diagonal leaves."""
        if level_factors:
            hodlr_partition(n, len(level_factors))
        runs = []
        for level, (cols, rows) in enumerate(level_factors, 1):
            size, pairs = n >> level, 1 << (level - 1)
            if cols.shape[:2] != (2 * pairs, size) or rows.shape != cols.shape:
                raise ValueError(f"level {level} factors must be (2^level, n >> level, r) stacks")
            # lane 0 holds the upper blocks (row tiles 0, 2, ..., column tiles
            # 1, 3, ...), lane 1 the lower ones
            even, odd = range(0, n, 2 * size), range(size, n, 2 * size)
            for lane, (row_starts, col_starts) in enumerate([(even, odd), (odd, even)]):
                runs.append(_Run(
                    row_starts, col_starts, (cols[lane::2], rows[lane::2].transpose(0, 2, 1)),
                    [level] * pairs, [0.0] * pairs,
                ))
        if leaves is not None:
            starts = range(0, n, leaves.shape[1])
            runs.append(_Run(starts, starts, (leaves,)))
        op = cls.__new__(cls)
        op._store(n, runs)
        return op

    def _store(self, n: int, runs) -> None:
        self.n = n
        self._runs = tuple(runs)
        for run in self._runs:
            for starts, size in ((run.row_starts, run.height), (run.col_starts, run.width)):
                if starts[0] < 0 or starts[-1] + size > n:
                    raise ValueError(f"a block of size {size} does not fit in dimension {n}")

    @cached_property
    def blocks(self) -> tuple[HodlrBlock, ...]:
        return tuple(
            HodlrBlock(level, r0, c0, col_factor.shape[0], col_factor, row_factor_t.T, tail)
            for run in self._runs if run.levels is not None
            for level, r0, c0, col_factor, row_factor_t, tail
            in zip(run.levels, run.row_starts, run.col_starts, *run.factors, run.tails)
        )

    @cached_property
    def dense_blocks(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        return tuple(
            (r0, c0, m)
            for run in self._runs if run.levels is None
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
                if where := _overlap(c0, run.width, lo, hi):
                    inside, out = where
                    a[r0:r0 + run.height, out] = _block_columns(factors, inside)
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
        hodlr_partition(n, levels)
        # one draw per level, in the stream order of per-block draws: each
        # block's col_factor, then its row_factor, in partition order
        draws = [
            stream.standard_normal((1 << level, 2, n >> level, min(rank, n >> level)))
            for level in range(1, levels + 1)
        ]
        leaf = n >> levels
        leaves = stream.standard_normal((1 << levels, leaf, leaf))
        return BlockLowRankOperator.hodlr(n, [(d[:, 0], d[:, 1]) for d in draws], leaves)
    raise ValueError(f"unknown structured kind {kind!r}")
