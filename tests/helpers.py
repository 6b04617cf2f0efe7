"""Shared builders for the test suite: planted operators, datasets and
small fitted models."""
from __future__ import annotations

import numpy as np

from operlab.grids import FunctionSample, Grid1D, OperatorDataset
from operlab.numerics import RngStream
from operlab.opfit import (
    batch_loss,
    fit_fourier_multiplier,
    fit_green_kernel,
    fit_low_rank,
    hierarchical_decompose,
    truncate_band,
)
from operlab.probes import CovarianceSpec, kl_decompose, sample_from_coefficients

SMOOTH_PERIODIC = CovarianceSpec(
    "helmholtz-power", smoothness=3.0, amplitude=400.0, shift=9.0, periodic=True
)


def hodlr_layout(op) -> tuple[list, list]:
    """The sorted (level, row_start, col_start, size) of a block operator's
    low-rank blocks and the (row_start, col_start, shape) of its dense ones."""
    blocks = sorted((b.level, b.row_start, b.col_start, b.size) for b in op.blocks)
    return blocks, [(r0, c0, m.shape) for r0, c0, m in op.dense_blocks]


def per_block_apply(op, x, transpose: bool = False) -> np.ndarray:
    """A block operator applied to x (or its transpose) one block at a time:
    the per-block loop that stacked runs must match bit for bit."""
    x = np.asarray(x, dtype=float)
    mat = x[:, None] if x.ndim == 1 else x
    low_rank = [
        (slice(b.row_start, b.row_start + b.size), slice(b.col_start, b.col_start + b.size),
         b.col_factor, b.row_factor.T)
        for b in op.blocks
    ]
    dense = [
        (slice(r0, r0 + m.shape[0]), slice(c0, c0 + m.shape[1]), m) for r0, c0, m in op.dense_blocks
    ]
    y = np.zeros_like(mat)
    if transpose:
        for rows, cols, col_factor, row_factor_t in low_rank:
            y[cols] += row_factor_t.T @ (col_factor.T @ mat[rows])
        for rows, cols, m in dense:
            y[cols] += m.T @ mat[rows]
    else:
        for rows, cols, col_factor, row_factor_t in low_rank:
            y[rows] += col_factor @ (row_factor_t @ mat[cols])
        for rows, cols, m in dense:
            y[rows] += m @ mat[cols]
    return y[:, 0] if x.ndim == 1 else y


def dyadic_descent(m: int, levels: int, admissibility: str) -> tuple[list, list]:
    """The dyadic block partition of an m x m matrix by recursive descent,
    the reference for partition_lanes: the (level, row, col, size) of every
    low-rank block and the (row, col, size) of every leaf.  A block is
    low-rank once its tiles are at least one ("weak") or two ("strong")
    apart; the others split until the last level."""
    gap = {"weak": 1, "strong": 2}[admissibility]
    blocks, leaves = [], []

    def descend(block_row, block_col, level):
        size = m >> level
        r0, c0 = block_row * size, block_col * size
        if level > 0 and abs(block_row - block_col) >= gap:
            blocks.append((level, r0, c0, size))
        elif level == levels:
            leaves.append((r0, c0, size))
        else:
            for dr in (0, 1):
                for dc in (0, 1):
                    descend(2 * block_row + dr, 2 * block_col + dc, level + 1)

    descend(0, 0, 0)
    return blocks, leaves


def expected_hodlr_layout(n: int, levels: int) -> tuple[list, list]:
    """hodlr_layout of a HODLR matrix: the weak partition's blocks and the
    2^levels leaves on the diagonal."""
    blocks, leaves = dyadic_descent(n, levels, "weak")
    return sorted(blocks), sorted((r0, c0, (size, size)) for r0, c0, size in leaves)


def apply_mode_multiplier(values: np.ndarray, multiplier_fn) -> np.ndarray:
    """Independent spectral application: u_hat[j] = fn(j) * f_hat[j] over all
    representable modes (conjugate symmetry enforced by fn(-j) = conj(fn(j)))."""
    n = values.size
    spectrum = np.fft.fft(values)
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    factors = np.array([multiplier_fn(j) for j in modes], dtype=complex)
    return np.fft.ifft(factors * spectrum).real


def shifted_poisson_factor(mode: int) -> float:
    return 1.0 / (1.0 + mode ** 2)


def planted_multiplier_dataset(
    resolution: int,
    multiplier_fn,
    num_pairs: int,
    seed: int,
    spec: CovarianceSpec = SMOOTH_PERIODIC,
    length: float = 2.0 * np.pi,
) -> OperatorDataset:
    """Periodic dataset whose outputs are an exact Fourier-multiplier applied
    to Gaussian-process inputs; pair i derives its coefficients from seed and
    i only, so datasets at different resolutions share realizations."""
    basis = kl_decompose(spec, resolution)
    grid = Grid1D(resolution, 0.0, length, periodic=True)
    inputs, outputs = [], []
    for i in range(num_pairs):
        coeffs = RngStream(seed).derive(i).standard_normal(basis.draw_count)
        values = sample_from_coefficients(basis, coeffs)
        inputs.append(FunctionSample(grid, values))
        outputs.append(FunctionSample(grid, apply_mode_multiplier(values, multiplier_fn)))
    return OperatorDataset.from_samples(inputs, outputs, {"planted": True, "seed": seed})


def white_noise_dataset(
    grid: Grid1D, kernel: np.ndarray, num_pairs: int, seed: int
) -> OperatorDataset:
    """Pairs (f, K W f) with i.i.d. Gaussian nodal inputs: full-rank probes of
    a known grid kernel."""
    w = grid.quad_weights()
    inputs, outputs = [], []
    for i in range(num_pairs):
        f = RngStream(seed).derive(i).standard_normal(grid.n)
        inputs.append(FunctionSample(grid, f))
        outputs.append(FunctionSample(grid, kernel @ (w * f)))
    return OperatorDataset.from_samples(inputs, outputs, {"planted": True})


def relative_l2_error(model, ds: OperatorDataset) -> float:
    """A model's relative L2 loss on a dataset: one row of `operlab eval`."""
    preds = model.predict_batch(ds.grid, ds.input_values)
    return batch_loss("relative-l2", ds.grid, preds, ds.output_values)


def weighted_l2(values: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * values ** 2)))


def kernel_l2_distance(grid: Grid1D, a: np.ndarray, b: np.ndarray) -> float:
    w = grid.quad_weights()
    ww = np.outer(w, w)
    return float(np.sqrt(np.sum(ww * (a - b) ** 2)))


MODEL_VARIANTS = ("dense-kernel", "low-rank", "fourier-multiplier", "banded", "hierarchical")


def fitted_model(variant):
    """A small fitted model of the variant plus a one-row input block on its grid."""
    if variant == "fourier-multiplier":
        ds = planted_multiplier_dataset(64, shifted_poisson_factor, 10, seed=40)
        return fit_fourier_multiplier(ds, 8), ds.input_values[:1]
    grid = Grid1D(32)
    ds = white_noise_dataset(grid, RngStream(41).standard_normal((32, 32)), 40, seed=42)
    dense = fit_green_kernel(ds, 1e-9)
    if variant == "low-rank":
        return fit_low_rank(ds, 4, 1e-9), ds.input_values[:1]
    if variant == "banded":
        return truncate_band(dense, 0.3), ds.input_values[:1]
    if variant == "hierarchical":
        return hierarchical_decompose(dense, 3, 2), ds.input_values[:1]
    return dense, ds.input_values[:1]
