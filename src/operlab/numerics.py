"""Thin QR, seeded randomness and row-block primitives.

FFT convention used throughout the package: numpy's, an unnormalized
forward transform and an inverse scaled by 1/n.  Randomness comes from
RngStream, a PCG64 generator keyed by a 64-bit seed; the same seed
reproduces the same sequence within one build.
"""
from __future__ import annotations

import numpy as np

# entries of each row block that row_blocks hands a blocked loop
BLOCK_ENTRIES = 1 << 15


def row_blocks(count: int, row_entries: int):
    """Slices of at least one row covering rows [0, count) in order, each of
    about BLOCK_ENTRIES entries of row_entries a row, read at the call."""
    block = max(1, BLOCK_ENTRIES // max(1, row_entries))
    return (slice(start, min(start + block, count)) for start in range(0, count, block))


def qr_thin(m) -> tuple[np.ndarray, np.ndarray]:
    """The thin QR factors (q, r) of a tall matrix (rows >= cols).

    Rank deficiency is not repaired: the factorization is still valid (Q
    orthonormal, QR = M) and R carries negligible diagonal entries.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise ValueError("qr_thin expects a matrix")
    rows, cols = mat.shape
    if rows < cols:
        raise ValueError(f"qr_thin needs rows >= cols, got {rows}x{cols}")
    return np.linalg.qr(mat)


class RngStream:
    """Deterministic random stream (PCG64 keyed by seed and derivation path).

    A stream is single-consumer: concurrent users should each take their own
    child stream via derive(), which is itself fully determined by
    (seed, derivation path).
    """

    algorithm = "pcg64"

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        root = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        self._gen = np.random.Generator(np.random.PCG64(root))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def derive(self, index: int) -> "RngStream":
        """Independent child stream; deterministic per (seed, ..., index)."""
        return RngStream(self.seed, self._path + (int(index),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self._path})"
