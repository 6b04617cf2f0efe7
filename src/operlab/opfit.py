"""Linear kernel models fitted from input/output pairs, plus losses; `operlab
eval` runs the zero-shot super-resolution protocol with them.

Every model applies a quadrature-discretized integral kernel to the input
function, so predictions are linear in the input by construction.  Variants
restrict the kernel's structure: full grid kernel, rank-p truncation,
Fourier multiplier (translation-invariant), band-limited kernel, and a
hierarchy of low-rank blocks with dense near-diagonal leaves.
"""
from __future__ import annotations

import warnings

import numpy as np

from .grids import Grid1D, OperatorDataset
from .structured import (
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    HodlrBlock,
    LowRankOperator,
    StructuredOperator,
    partition_lanes,
)

LOSS_KINDS = (
    "mse",
    "relative-squared-l2",
    "relative-l2",
    "relative-l1",
    "h1-seminorm-relative",
)

_BOUNDARY_TOL = 1e-12
EXCITATION_RTOL = 1e-12


class KernelModel:
    """A structured grid kernel K on the training grid, predicting
    u(x_i) = sum_j K[i, j] w_j f(x_j) with trapezoid weights w.

    Each variant states what it persists next to its fields: the header
    params it writes (name -> JSON type, read back from attributes of the
    same name), saved_arrays() in payload order, and from_saved() to rebuild
    the model from both.
    """

    variant: str
    header_params: dict[str, type] = {}

    def __init__(self, grid: Grid1D, operator: StructuredOperator):
        if operator.n != grid.n:
            raise ValueError("kernel must be square on the training grid")
        self.grid = grid
        self.operator = operator

    def predict_batch(self, grid, values: np.ndarray) -> np.ndarray:
        """Predictions for the rows of values, an (N, n) block of inputs on grid."""
        if grid != self.grid:
            raise ValueError("sample grid does not match the training grid")
        weighted = self.grid.quad_weights() * values
        return np.ascontiguousarray(self.operator.apply(weighted.T).T)

    def saved_arrays(self) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def from_saved(cls, grid, params: dict, arrays: dict) -> "KernelModel":
        raise NotImplementedError


class DenseKernelModel(KernelModel):
    """Full grid kernel G, typically from fit_green_kernel."""

    variant = "dense-kernel"
    header_params = {"ridge": float}

    def __init__(self, grid: Grid1D, kernel: np.ndarray, ridge: float = 0.0):
        super().__init__(grid, DenseOperator(kernel))
        self.ridge = float(ridge)

    @property
    def kernel(self) -> np.ndarray:
        return self.operator.matrix

    def saved_arrays(self):
        return [("kernel", self.kernel)]

    @classmethod
    def from_saved(cls, grid, params, arrays):
        return cls(grid, arrays["kernel"], params["ridge"])


class LowRankKernelModel(KernelModel):
    """Rank-p kernel in factored form: p output basis functions plus a
    coefficient map applied to the input."""

    variant = "low-rank"

    def __init__(self, grid: Grid1D, col_factor: np.ndarray, row_factor: np.ndarray):
        super().__init__(grid, LowRankOperator(col_factor, row_factor))

    def saved_arrays(self):
        return [("col_factor", self.operator.col_factor), ("row_factor", self.operator.row_factor)]

    @classmethod
    def from_saved(cls, grid, params, arrays):
        return cls(grid, arrays["col_factor"], arrays["row_factor"])


class FourierMultiplierModel(KernelModel):
    """Diagonal action in Fourier space on modes |j| <= max_mode.

    The multiplier is resolution-independent, so the model evaluates on any
    periodic grid at least as fine as the training grid (zero-padding the
    multiplier to the finer mode range); it holds no grid operator and
    overrides predict_batch.
    """

    variant = "fourier-multiplier"
    header_params = {"max_mode": int}

    def __init__(self, grid: Grid1D, max_mode: int, multiplier: np.ndarray, excited: np.ndarray):
        if not grid.periodic:
            raise ValueError("multiplier models need a periodic training grid")
        multiplier = np.asarray(multiplier, dtype=complex)
        if multiplier.shape != (2 * max_mode + 1,):
            raise ValueError("multiplier must cover modes -max_mode..max_mode")
        self.grid = grid
        self.max_mode = int(max_mode)
        self.multiplier = multiplier
        self.excited = np.asarray(excited, dtype=bool)

    def mode_value(self, mode: int) -> complex:
        return self.multiplier[mode + self.max_mode]

    def predict_batch(self, grid, values: np.ndarray) -> np.ndarray:
        if (
            not isinstance(grid, Grid1D)
            or not grid.periodic
            or grid.left != self.grid.left
            or grid.right != self.grid.right
        ):
            raise ValueError("sample must live on a periodic grid over the training domain")
        if grid.n < self.grid.n:
            raise ValueError(
                f"evaluation resolution {grid.n} is below the training resolution {self.grid.n}"
            )
        spectrum = np.fft.fft(values, axis=1)
        out = np.zeros_like(spectrum)
        modes = self._mode_indices(grid.n)
        out[:, modes] = self.multiplier * spectrum[:, modes]
        return np.ascontiguousarray(np.fft.ifft(out, axis=1).real)

    def _mode_indices(self, n: int) -> np.ndarray:
        """FFT positions of modes -max_mode..max_mode at resolution n."""
        return np.arange(-self.max_mode, self.max_mode + 1) % n

    def to_circulant(self, resolution: int | None = None) -> CirculantOperator:
        """Materialize the multiplier as a circulant matrix at a resolution."""
        n = self.grid.n if resolution is None else resolution
        if n < self.grid.n:
            raise ValueError("materialization resolution below training resolution")
        symbol = np.zeros(n, dtype=complex)
        symbol[self._mode_indices(n)] = self.multiplier
        return CirculantOperator(np.fft.ifft(symbol).real)

    def saved_arrays(self):
        return [
            ("multiplier_real", self.multiplier.real),
            ("multiplier_imag", self.multiplier.imag),
            ("excited", self.excited.astype(float)),
        ]

    @classmethod
    def from_saved(cls, grid, params, arrays):
        multiplier = arrays["multiplier_real"] + 1j * arrays["multiplier_imag"]
        return cls(grid, params["max_mode"], multiplier, arrays["excited"] > 0.5)


class BandedKernelModel(KernelModel):
    """Kernel zeroed outside the band |x - y| <= radius."""

    variant = "banded"
    header_params = {"radius": float, "truncation_error": float}

    def __init__(self, grid: Grid1D, kernel: np.ndarray, radius: float, truncation_error: float):
        super().__init__(grid, DenseOperator(kernel))
        self.radius = float(radius)
        self.truncation_error = float(truncation_error)

    @property
    def kernel(self) -> np.ndarray:
        return self.operator.matrix

    def saved_arrays(self):
        return [("kernel", self.kernel)]

    @classmethod
    def from_saved(cls, grid, params, arrays):
        return cls(grid, arrays["kernel"], params["radius"], params["truncation_error"])


class HierarchicalKernelModel(KernelModel):
    """Kernel as a sum of per-level low-rank blocks plus dense near-diagonal
    leaf blocks at the finest level, over the strong lanes of partition_lanes.
    tails holds, for each entry of operator.blocks in order, the Frobenius
    norm of what truncating it to the model's rank discarded.  A file loads
    only if its block_meta and leaf_meta list exactly the partition's blocks
    and leaves, in any order."""

    variant = "hierarchical"
    header_params = {"levels": int, "rank": int, "block_meta": list, "leaf_meta": list}

    def __init__(self, grid: Grid1D, levels: int, rank: int, operator: BlockLowRankOperator,
                 tails):
        super().__init__(grid, operator)
        self.levels = int(levels)
        self.rank = int(rank)
        self.tails = tuple(float(t) for t in tails)
        if len(self.tails) != len(operator.blocks):
            raise ValueError("a hierarchical model needs one tail per low-rank block")

    @property
    def blocks(self) -> tuple[HodlrBlock, ...]:
        return self.operator.blocks

    @property
    def total_truncation_error(self) -> float:
        return float(np.sqrt(sum(t ** 2 for t in self.tails)))

    @property
    def block_meta(self) -> list[dict]:
        return [
            {"level": b.level, "row": b.row_start, "col": b.col_start,
             "size": b.size, "tail": tail}
            for b, tail in zip(self.blocks, self.tails)
        ]

    @property
    def leaf_meta(self) -> list[dict]:
        return [
            {"row": r0, "col": c0, "size": block.shape[0]}
            for r0, c0, block in self.operator.dense_blocks
        ]

    def saved_arrays(self):
        arrays = []
        for i, b in enumerate(self.blocks):
            arrays += [(f"block{i}_col", b.col_factor), (f"block{i}_row", b.row_factor.T)]
        arrays += [(f"leaf{i}", block) for i, (_, _, block) in enumerate(self.operator.dense_blocks)]
        return arrays

    @classmethod
    def from_saved(cls, grid, params, arrays):
        levels, rank = params["levels"], params["rank"]
        lanes, leaf_lanes = partition_lanes(grid.n, levels, "strong")
        block_meta = params["block_meta"]
        block_ids = _lane_indices(lanes, block_meta)
        leaf_ids = _lane_indices(leaf_lanes, params["leaf_meta"], levels)

        def stack(name, ids):
            return np.stack([arrays[name.format(i)] for i in ids])

        factors = [(stack("block{}_col", ids), stack("block{}_row", ids).transpose(0, 2, 1))
                   for ids in block_ids]
        for (col_factors, _), (*_, size) in zip(factors, lanes):
            if col_factors.shape[2:] != (min(rank, size),):
                raise ValueError("each block's factors must have min(rank, size) columns")
        tails = [block_meta[i]["tail"] for ids in block_ids for i in ids]
        leaves = [stack("leaf{}", ids) for ids in leaf_ids]
        operator = BlockLowRankOperator(grid.n, levels, "strong", factors, leaves)
        return cls(grid, levels, rank, operator, tails)


def _lane_indices(lanes, metas: list, level=None) -> list[list[int]]:
    """For each lane, the positions in metas of its blocks; the metas' level
    (or the given one: leaves record none), row, col and size must be exactly
    the lanes' blocks, in any order."""
    keys = [(m["level"] if level is None else level, m["row"], m["col"], m["size"]) for m in metas]
    expected = [(level, r0, c0, size) for level, rows, cols, size in lanes
                for r0, c0 in zip(rows, cols)]
    if sorted(keys) != sorted(expected):
        raise ValueError("saved blocks are not those of the strong partition")
    index = {key: i for i, key in enumerate(keys)}
    return [[index[level, r0, c0, size] for r0, c0 in zip(rows, cols)]
            for level, rows, cols, size in lanes]


def _prepare_green_fit(ds: OperatorDataset):
    if len(ds) == 0:
        raise ValueError("cannot fit an empty dataset")
    grid = ds.grid
    if not isinstance(grid, Grid1D):
        raise ValueError("kernel fits are defined for 1D datasets")
    w = grid.quad_weights()
    keep = np.sum(w * ds.output_values ** 2, axis=1) != 0.0
    for i in np.flatnonzero(~keep):
        warnings.warn(
            f"pair {i} has zero output norm and is excluded from the relative fit",
            UserWarning,
            stacklevel=3,
        )
    if not keep.any():
        raise ValueError("all pairs are degenerate (zero output norm)")
    return grid, w, ds.input_values[keep].T, ds.output_values[keep].T  # columns are samples


def fit_green_kernel(ds: OperatorDataset, ridge: float | None = None) -> DenseKernelModel:
    """Fit a grid kernel by relative least squares with a ridge penalty.

    Minimizes the per-pair output-normalized squared error (trapezoid
    quadrature in both the integral operator and the norms) plus
    ridge * ||kernel||_F^2.  The problem separates across output rows; each
    row solve shares one eigendecomposition.  Pairs with zero output norm
    are excluded with a warning.  Default ridge: 1e-8 times the trace scale
    of the data Gram matrix.
    """
    grid, w, f_cols, u_cols = _prepare_green_fit(ds)
    count = f_cols.shape[1]
    phi = w[:, None] * f_cols                       # quadrature-weighted inputs
    rho = 1.0 / np.sum(w[:, None] * u_cols ** 2, axis=0)
    gram = (phi * rho[None, :]) @ phi.T
    if ridge is None:
        ridge = 1e-8 * np.trace(gram) / grid.n
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    cross = (u_cols * rho[None, :]) @ phi.T          # row j holds the row-j target
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    rotated = cross @ eigvecs
    if ridge == 0.0:
        cutoff = eigvals[-1] * 1e-14 if eigvals[-1] > 0 else np.inf
        inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > 0, eigvals, 1.0), 0.0)
        kernel = (rotated * inv[None, :]) @ eigvecs.T
    else:
        denom = eigvals[None, :] + (count * ridge / w)[:, None]
        kernel = (rotated / denom) @ eigvecs.T
    return DenseKernelModel(grid, kernel, ridge)


def green_fit_objective(ds: OperatorDataset, kernel: np.ndarray, ridge: float) -> float:
    """The quantity fit_green_kernel minimizes, for a candidate grid kernel."""
    grid, w, f_cols, u_cols = _prepare_green_fit(ds)
    count = f_cols.shape[1]
    preds = kernel @ (w[:, None] * f_cols)
    num = np.sum(w[:, None] * (preds - u_cols) ** 2, axis=0)
    den = np.sum(w[:, None] * u_cols ** 2, axis=0)
    return float(np.mean(num / den) + ridge * np.sum(kernel ** 2))


def fit_low_rank(ds: OperatorDataset, rank: int, ridge: float | None = None) -> LowRankKernelModel:
    """Dense fit followed by truncation to the best rank-p kernel."""
    dense = fit_green_kernel(ds, ridge)
    if rank < 1 or rank > dense.grid.n:
        raise ValueError("rank must be between 1 and the sensor count")
    u, s, vt = np.linalg.svd(dense.kernel, full_matrices=False)
    return LowRankKernelModel(dense.grid, u[:, :rank] * s[:rank], vt[:rank])


def fit_fourier_multiplier(
    ds: OperatorDataset,
    max_mode: int,
    ridge: float = 0.0,
) -> FourierMultiplierModel:
    """Per-mode least-squares fit of a Fourier multiplier on a periodic grid.

    For each retained mode the multiplier is the ridge-regularized ratio of
    cross- to auto-power summed over the dataset.  Modes whose excitation
    falls below EXCITATION_RTOL = 1e-12 (relative to the best-excited mode) get a
    zero multiplier and are flagged in the model's excited mask.  Conjugate
    symmetry is enforced so the fitted kernel is real.
    """
    if len(ds) == 0:
        raise ValueError("cannot fit an empty dataset")
    grid = ds.grid
    if not isinstance(grid, Grid1D) or not grid.periodic:
        raise ValueError("multiplier fits need a periodic 1D dataset")
    n = grid.n
    if max_mode < 0 or max_mode > (n - 1) // 2:
        raise ValueError(f"max_mode must be in [0, {(n - 1) // 2}] for resolution {n}")
    f_hat = np.fft.fft(ds.input_values, axis=1)
    u_hat = np.fft.fft(ds.output_values, axis=1)
    power = np.sum(np.abs(f_hat) ** 2, axis=0)
    cross = np.sum(np.conj(f_hat) * u_hat, axis=0)
    floor = EXCITATION_RTOL * power.max()
    multiplier = np.zeros(2 * max_mode + 1, dtype=complex)
    excited = np.zeros(2 * max_mode + 1, dtype=bool)
    for mode in range(-max_mode, max_mode + 1):
        idx = mode % n
        if power[idx] <= floor:
            continue
        multiplier[mode + max_mode] = cross[idx] / (power[idx] + ridge)
        excited[mode + max_mode] = True
    center = max_mode
    multiplier[center] = multiplier[center].real
    for mode in range(1, max_mode + 1):
        avg = 0.5 * (multiplier[center + mode] + np.conj(multiplier[center - mode]))
        if excited[center + mode] and excited[center - mode]:
            multiplier[center + mode] = avg
            multiplier[center - mode] = np.conj(avg)
    return FourierMultiplierModel(grid, max_mode, multiplier, excited)


def _band_mask_and_error(grid: Grid1D, kernel: np.ndarray, radius: float):
    x = grid.points()
    w = grid.quad_weights()
    dist = np.abs(x[:, None] - x[None, :])
    on_cut = np.abs(dist - radius) <= _BOUNDARY_TOL
    outside = dist > radius + _BOUNDARY_TOL
    # trapezoid across the cut: nodes exactly on |x-y| = r carry half weight
    ww = np.outer(w, w)
    err_sq = np.sum(ww[outside] * kernel[outside] ** 2)
    err_sq += 0.5 * np.sum(ww[on_cut] * kernel[on_cut] ** 2)
    return outside, float(np.sqrt(err_sq))


def truncate_band(model: DenseKernelModel, radius: float) -> BandedKernelModel:
    """Zero the kernel outside |x - y| <= radius and report the L2 norm of
    what was removed (quadrature with half weights on the cut itself)."""
    grid = model.grid
    if not (0.0 < radius <= grid.length):
        raise ValueError("radius must lie in (0, domain length]")
    outside, error = _band_mask_and_error(grid, model.kernel, radius)
    banded = model.kernel.copy()
    banded[outside] = 0.0
    return BandedKernelModel(grid, banded, radius, error)


def hierarchical_decompose(
    model: DenseKernelModel, levels: int, rank: int
) -> HierarchicalKernelModel:
    """Split the kernel into per-level low-rank blocks plus dense leaves.

    The blocks are the strong lanes of partition_lanes: a block is compressed
    to the given rank at the first level where its row and column index
    ranges are at least one block apart; near-diagonal blocks of the finest
    level stay dense.  Each lane takes one stacked SVD, and each compressed
    block records the Frobenius norm of its discarded singular values.
    """
    grid, kernel = model.grid, model.kernel
    lanes, leaf_lanes = partition_lanes(grid.n, levels, "strong")
    if rank < 1:
        raise ValueError("rank must be positive")

    def blocks(rows, cols, size):
        return np.stack([kernel[r0:r0 + size, c0:c0 + size] for r0, c0 in zip(rows, cols)])

    factors, tails = [], []
    for _, rows, cols, size in lanes:
        u, s, vt = np.linalg.svd(blocks(rows, cols, size), full_matrices=False)
        r = min(rank, size)
        # fresh arrays, as the operator keeps what it is given; vt[:, :r].copy()
        # keeps vt's layout, hence the block products' rounding
        factors.append((u[:, :, :r] * s[:, None, :r], vt[:, :r].copy().transpose(0, 2, 1)))
        tails += [np.linalg.norm(tail) for tail in s[:, r:]]
    leaves = [blocks(rows, cols, size) for _, rows, cols, size in leaf_lanes]
    operator = BlockLowRankOperator(grid.n, levels, "strong", factors, leaves)
    return HierarchicalKernelModel(grid, levels, rank, operator, tails)


def batch_loss(kind: str, grid, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Dataset-averaged loss over stacked (N, *grid.shape) predictions and
    targets, with trapezoid-discretized norms.

    Kinds: mse (mean squared L2 error), relative-squared-l2, relative-l2,
    relative-l1, and h1-seminorm-relative (centered differences inside the
    domain, one-sided at the boundary).
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if predictions.shape != targets.shape or not len(targets):
        raise ValueError("need equal, nonzero numbers of predictions and targets")
    w = grid.quad_weights()
    axes = tuple(range(1, targets.ndim))  # one sample's grid axes

    def l2(values):
        return np.sqrt(np.sum(w * values ** 2, axis=axes))

    def l1(values):
        return np.sum(w * np.abs(values), axis=axes)

    def h1_seminorm(values):
        squared = sum(np.gradient(values, grid.spacing, axis=axis) ** 2 for axis in axes)
        return np.sqrt(np.sum(w * squared, axis=axes))

    diff = predictions - targets
    if kind == "mse":
        return float(np.mean(l2(diff) ** 2))
    if kind == "relative-squared-l2":
        num, denom = l2(diff) ** 2, l2(targets) ** 2
    elif kind == "relative-l2":
        num, denom = l2(diff), l2(targets)
    elif kind == "relative-l1":
        num, denom = l1(diff), l1(targets)
    else:
        num, denom = h1_seminorm(diff), h1_seminorm(targets)
    if np.any(denom == 0.0):
        raise ValueError("relative loss undefined for a zero-norm target")
    return float(np.mean(num / denom))


def compute_loss(kind: str, predictions, targets) -> float:
    """batch_loss over paired FunctionSample sequences that share one grid."""
    pairs = OperatorDataset.from_samples(predictions, targets)
    return batch_loss(kind, pairs.grid, pairs.input_values, pairs.output_values)

