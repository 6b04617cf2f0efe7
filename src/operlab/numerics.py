"""FFT, thin QR, and seeded randomness primitives.

FFT convention used throughout the package: unnormalized forward transform,
inverse scaled by 1/n (numpy's default).  Randomness comes from RngStream,
a PCG64 generator keyed by a 64-bit seed; the same seed reproduces the same
sequence within one build.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _as_vector(v, dtype=None) -> np.ndarray:
    arr = np.asarray(v, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    return arr


def fft_forward(v) -> np.ndarray:
    """Unnormalized forward DFT of a vector."""
    arr = _as_vector(v)
    if arr.size == 0:
        raise ValueError("cannot transform a zero-length vector")
    return np.fft.fft(arr)


def fft_inverse(v) -> np.ndarray:
    """Inverse DFT, scaled by 1/n so that fft_inverse(fft_forward(v)) == v."""
    arr = _as_vector(v)
    if arr.size == 0:
        raise ValueError("cannot transform a zero-length vector")
    return np.fft.ifft(arr)


class ThinQR(NamedTuple):
    q: np.ndarray
    r: np.ndarray
    rank_deficient: bool


def qr_thin(m) -> ThinQR:
    """Thin QR factorization of a tall matrix (rows >= cols).

    Rank deficiency is not repaired, only flagged: the factorization is still
    valid (Q orthonormal, QR = M) but R has negligible diagonal entries.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise ValueError("qr_thin expects a matrix")
    rows, cols = mat.shape
    if rows < cols:
        raise ValueError(f"qr_thin needs rows >= cols, got {rows}x{cols}")
    q, r = np.linalg.qr(mat)
    diag = np.abs(np.diag(r))
    tol = max(rows, cols) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    return ThinQR(q, r, bool(np.any(diag <= tol)))


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


def gaussian_vector(stream: RngStream, n: int) -> np.ndarray:
    """n i.i.d. standard normal deviates from the stream."""
    if n < 1:
        raise ValueError("need n >= 1")
    return stream.standard_normal(n)

