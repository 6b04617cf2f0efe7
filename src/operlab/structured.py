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
strided runs of equal-size blocks.  Every BlockLowRankOperator is built
over those lanes through one constructor and holds them as Lane objects,
its one view of its blocks: each lane's factors or leaves are stacks,
applied through strided views of the probe with one batched product per
factor.  Random HODLR instances and recovery.recover_hodlr use the weak
partition, hierarchical kernel fits the strong one.
"""
from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right

import numpy as np

from .numerics import RngStream

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
        a = np.array(matrix, dtype=float)
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
        c = np.array(col_factor, dtype=float)
        r = np.array(row_factor, dtype=float)
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
    """Circulant matrix parameterized by its first column; applied via FFT."""

    def __init__(self, first_column):
        c = np.array(first_column, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("first column must be a nonempty vector")
        self.first_column = c
        self.n = c.size

    def _apply(self, x, transpose):
        xhat = np.fft.fft(x, axis=0)
        symbol = np.fft.fft(self.first_column)
        if transpose:  # A^T is circulant with first column c[(n - i) mod n]
            symbol = np.conj(symbol)
        return np.fft.ifft(symbol[:, None] * xhat, axis=0).real

    def _materialize(self, lo, hi):
        # column j is the first column rolled down by j: A[i, j] = c[(i - j) mod n]
        return self.first_column[(np.arange(self.n)[:, None] - np.arange(lo, hi)) % self.n]


BAND_BLOCK_ENTRIES = 1 << 15


class BandedOperator(StructuredOperator):
    """Banded matrix with A[i, j] = 0 whenever |i - j| > bandwidth.

    Stored as 2w+1 diagonals indexed by row: diagonals[w + o, i] = A[i, i + o]
    for offsets o in [-w, w].  Out-of-range slots (i + o outside [0, n)) are
    zero: the constructor rejects any other value, so the diagonals' norm is
    the matrix's Frobenius norm.  An apply walks the destination rows in
    blocks of about BAND_BLOCK_ENTRIES probe entries (992 rows of a
    33-column probe) and runs every offset within a block, so a block of the
    result and the probe rows it reads stay in cache.  Each output entry gets
    its adds in offset order, with the bits of one full-height pass per
    offset.
    """

    def __init__(self, n: int, bandwidth: int, diagonals):
        d = np.array(diagonals, dtype=float)
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
        block = max(1, BAND_BLOCK_ENTRIES // max(1, x.shape[1]))
        for start in range(0, n, block):
            stop = min(start + block, n)
            for offset in range(-w, w + 1):
                # rows i of entries (i, i + offset) whose destination (row i,
                # or column i + offset) lies in [start, stop)
                shift = offset if transpose else 0
                lo = max(0, -offset, start - shift)
                hi = min(n - max(0, offset), stop - shift)
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


def _lane(a: np.ndarray, starts: range, size: int) -> np.ndarray:
    """Rows starts[i] + [0, size) of a matrix for every i: a (len(starts),
    size, columns) view in which each tile keeps the matrix's strides, as a
    row slice of it would."""
    rows, cols = a.strides
    return np.lib.stride_tricks.as_strided(
        a[starts.start:], (len(starts), size, a.shape[1]), (starts.step * rows, rows, cols)
    )


class Lane:
    """One lane of size x size blocks of one level (a leaf lane's is the
    finest): block i maps columns col_starts[i] + [0, size) to rows
    row_starts[i] + [0, size) through factors[0][i] @ factors[1][i], the
    stacked col_factors and transposed row_factors of a low-rank lane (a leaf
    lane has one stack of dense blocks).  The starts step at least one block
    forward, so a lane reads x and writes y through strided views, with one
    batched product per factor."""

    def __init__(self, level: int, row_starts: range, col_starts: range, size: int, factors):
        self.level, self.size, self.factors = level, size, tuple(factors)
        self.row_starts, self.col_starts = row_starts, col_starts
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
    a copy.  lanes and leaf_lanes hold them as Lane objects, the operator's
    one view of its blocks.  Each lane applies with one batched product per
    factor, with the bits of a per-block loop over lanes, then leaf_lanes.
    """

    def __init__(self, n: int, levels: int, admissibility: str, factors, leaves=()):
        lanes, leaf_lanes = partition_lanes(n, levels, admissibility)
        if len(factors) > len(lanes) or (leaves and len(leaves) != len(leaf_lanes)):
            raise ValueError("factors and leaves must follow the partition's lanes")
        self.n = n
        self.lanes = tuple(Lane(*spec, (col_factors, row_factors.transpose(0, 2, 1)))
                           for spec, (col_factors, row_factors) in zip(lanes, factors))
        self.leaf_lanes = tuple(Lane(*spec, (stack,)) for spec, stack in zip(leaf_lanes, leaves))

    def _apply(self, x, transpose):
        y = np.zeros_like(x)
        for lane in self.lanes + self.leaf_lanes:
            lane.add_product(x, y, transpose)
        return y

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
