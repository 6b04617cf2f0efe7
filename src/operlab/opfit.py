"""Linear kernel models fitted from input/output pairs, plus losses; `operlab
eval` runs the zero-shot super-resolution protocol with them.

Every model applies a quadrature-discretized integral kernel to the input
function, so predictions are linear in the input by construction.  Variants
restrict the kernel's structure: full grid kernel, rank-p truncation,
Fourier multiplier (translation-invariant), band-limited kernel, and a
hierarchy of low-rank blocks with dense near-diagonal leaves.
"""
from __future__ import annotations

import sys
import warnings

import numpy as np

from .grids import Grid1D, OperatorDataset
from .numerics import row_blocks
from .structured import (
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
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

    A model file holds its constructor's arguments by name: header params
    (name -> JSON type, read back from attributes of the same name) and
    saved_arrays() in payload order; from_saved() passes both to the
    constructor."""

    variant: str
    header_params: dict[str, type] = {}

    def __init__(self, grid: Grid1D, operator: StructuredOperator):
        if operator.n != grid.n:
            raise ValueError("kernel must be square on the training grid")
        self.grid = grid
        self.operator = operator

    def predict_batch(self, grid, values: np.ndarray) -> np.ndarray:
        """Predictions for the rows of values, an (N, n) block of inputs on grid.

        Besides values, at most two (N, n) arrays are live at once: the
        weighted inputs, then the operator's columns, then their row-major
        copy.  The operator gets the weighted inputs transposed, a
        Fortran-ordered probe: a dense product is one call over all N rows,
        a hierarchical apply takes the probe's columns in numerics.row_blocks.
        A row's bits depend on how wide a product is, since BLAS blocks it by
        its width.  model_losses calls this one numerics.row_blocks block at
        a time, so its temporaries are block-sized, and a row of a narrower
        last block may differ in its last bits from the same row predicted
        with all N; a score then differs in its last digit."""
        if grid != self.grid:
            raise ValueError("sample grid does not match the training grid")
        weighted = self.grid.quad_weights() * values
        columns = self.operator.apply(weighted.T)
        del weighted  # gone before the row-major copy is made
        return np.ascontiguousarray(columns.T)

    @classmethod
    def from_saved(cls, grid, params: dict, arrays: dict) -> "KernelModel":
        return cls(grid, **params, **arrays)


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


class LowRankKernelModel(KernelModel):
    """Rank-p kernel in factored form: p output basis functions plus a
    coefficient map applied to the input."""

    variant = "low-rank"

    def __init__(self, grid: Grid1D, col_factor: np.ndarray, row_factor: np.ndarray):
        super().__init__(grid, LowRankOperator(col_factor, row_factor))

    def saved_arrays(self):
        return [("col_factor", self.operator.col_factor), ("row_factor", self.operator.row_factor)]


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
        _check_max_mode(grid.n, max_mode)
        multiplier = np.asarray(multiplier, dtype=complex)
        excited = np.asarray(excited, dtype=bool)
        if not multiplier.shape == excited.shape == (2 * max_mode + 1,):
            raise ValueError("multiplier and excited mask must cover modes -max_mode..max_mode")
        self.grid = grid
        self.max_mode = int(max_mode)
        self.multiplier = multiplier
        self.excited = excited

    def mode_value(self, mode: int) -> complex:
        return self.multiplier[mode + self.max_mode]

    def predict_batch(self, grid, values: np.ndarray) -> np.ndarray:
        if not (isinstance(grid, Grid1D) and grid.periodic and grid.left == self.grid.left
                and grid.right == self.grid.right):
            raise ValueError("sample must live on a periodic grid over the training domain")
        if grid.n < self.grid.n:
            raise ValueError(
                f"evaluation resolution {grid.n} is below the training resolution {self.grid.n}"
            )
        # one complex block: the kept modes' products go back in, inverted in place
        spectrum = np.fft.fft(values, axis=1)
        modes = self._mode_indices(grid.n)
        kept = self.multiplier * spectrum[:, modes]
        spectrum[...] = 0.0
        spectrum[:, modes] = kept
        return np.ascontiguousarray(np.fft.ifft(spectrum, axis=1, out=spectrum).real)

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
        # the real part as its own array: the operator keeps what it is given
        return CirculantOperator(np.ascontiguousarray(np.fft.ifft(symbol).real))

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


def _check_max_mode(n: int, max_mode: int) -> None:
    if not 0 <= max_mode <= (n - 1) // 2:  # modes -max_mode..max_mode in distinct FFT slots
        raise ValueError(f"max_mode must be in [0, {(n - 1) // 2}] for resolution {n}")


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


class HierarchicalKernelModel(KernelModel):
    """Kernel as a sum of per-level low-rank blocks plus dense near-diagonal
    leaf blocks at the finest level, over the strong lanes of partition_lanes.
    lanes holds one (col, row) pair of (blocks, size, min(rank, size)) stacks
    per low-rank lane, as Lane.fill takes them, leaves one (blocks, leaf,
    leaf) stack per leaf lane, and tails one array per lane: the Frobenius
    norm each block's truncation discarded.  All are checked against the
    partition before the factor arrays (n rows each) are allocated.  A file
    holds levels, rank and tails in its header, then per lane i the stacks
    lane<i>_col and lane<i>_row, then per leaf lane i the stack leaves<i>."""

    variant = "hierarchical"
    header_params = {"levels": int, "rank": int, "tails": list}

    def __init__(self, grid: Grid1D, levels: int, rank: int, tails, lanes, leaves):
        parts, leaf_parts = partition_lanes(grid.n, levels, "strong")
        self.tails = tuple(np.asarray(t, dtype=float) for t in tails)
        if [t.shape for t in self.tails] != [(len(rows),) for _, rows, _, _, _ in parts]:
            raise ValueError("a hierarchical model needs one tail per low-rank block")
        lane_shapes = [((len(rows), size, min(rank, size)),) * 2 for _, rows, _, size, _ in parts]
        leaf_shapes = [(len(rows), size, size) for _, rows, _, size, _ in leaf_parts]
        if ([tuple(map(np.shape, pair)) for pair in lanes] != lane_shapes
                or list(map(np.shape, leaves)) != leaf_shapes):
            raise ValueError("lane stacks do not fit the strong partition of the grid")
        shell = BlockLowRankOperator.zeros(grid.n, levels, "strong", rank)
        for lane, (col, row) in zip(shell.lanes, lanes):
            lane.fill(col, row)
        super().__init__(grid, BlockLowRankOperator(grid.n, levels, "strong", rank,
                                                    shell.col_factors, shell.row_factors, leaves))
        self.levels = int(levels)
        self.rank = int(rank)

    @property
    def truncation_error(self) -> float:
        # block by block in lane order, as Python floats: the order fixes the sum's bits
        return float(np.sqrt(sum(t ** 2 for tails in self.tails for t in tails.tolist())))

    def saved_arrays(self):
        arrays = []
        for i, (col, row_t) in enumerate(lane.factors for lane in self.operator.lanes):
            arrays += [(f"lane{i}_col", col), (f"lane{i}_row", row_t.transpose(0, 2, 1))]
        return arrays + [(f"leaves{i}", lane.factors[0])
                         for i, lane in enumerate(self.operator.leaf_lanes)]

    @classmethod
    def from_saved(cls, grid, params, arrays):
        tails = params["tails"]
        # json reads NaN and Infinity as floats, a bool is an int, an int may exceed every float
        if not all(type(t) in (int, float) and 0 <= t <= sys.float_info.max
                   for lane in tails for t in lane):
            raise ValueError("each block's tail must be a finite nonnegative number")
        lanes = [(arrays[f"lane{i}_col"], arrays[f"lane{i}_row"]) for i in range(len(tails))]
        # every other array is a leaf stack; the loader refuses a name the model does not save
        leaves = [arrays[f"leaves{i}"] for i in range(len(arrays) - 2 * len(lanes))]
        return cls(grid, **params, lanes=lanes, leaves=leaves)


def _prepare_green_fit(ds: OperatorDataset):
    """The grid, its weights, and the (N, n) inputs and outputs and weighted
    squared output norms of the N pairs whose norm, computed over row blocks,
    is not 0; with every pair kept the arrays are the dataset's own."""
    if len(ds) == 0:
        raise ValueError("cannot fit an empty dataset")
    grid = ds.grid
    if not isinstance(grid, Grid1D):
        raise ValueError("kernel fits are defined for 1D datasets")
    w = grid.quad_weights()
    norms = np.empty(len(ds))
    for rows in row_blocks(len(ds), grid.n):
        norms[rows] = np.sum(w * ds.output_values[rows] ** 2, axis=1)
    keep = norms != 0.0
    for i in np.flatnonzero(~keep):
        warnings.warn(
            f"pair {i} has zero output norm and is excluded from the relative fit",
            UserWarning,
            stacklevel=3,
        )
    if not keep.any():
        raise ValueError("all pairs are degenerate (zero output norm)")
    if keep.all():
        return grid, w, ds.input_values, ds.output_values, norms
    return grid, w, ds.input_values[keep], ds.output_values[keep], norms[keep]


def _gram_and_cross(w, inputs, outputs, rho):
    """gram = sum_k rho_k (w f_k)(w f_k)^T and cross = sum_k rho_k u_k (w f_k)^T
    over the rows k of the (N, n) inputs f and outputs u, accumulated over
    numerics.row_blocks of the pairs: every temporary is block-sized."""
    n = len(w)
    gram, cross = np.zeros((n, n)), np.zeros((n, n))
    for rows in row_blocks(len(inputs), n):
        right = w * inputs[rows]
        gram += (right.T * rho[rows]) @ right
        cross += (outputs[rows].T * rho[rows]) @ right  # row j holds the row-j target
    return gram, cross


def fit_green_kernel(ds: OperatorDataset, ridge: float | None = None) -> DenseKernelModel:
    """Fit a grid kernel by relative least squares with a ridge penalty.

    Minimizes the per-pair output-normalized squared error (trapezoid
    quadrature in both the integral operator and the norms) plus
    ridge * ||kernel||_F^2.  The problem separates across output rows; each
    row solve shares one eigendecomposition.  Pairs with zero output norm
    are excluded with a warning.  Default ridge: 1e-8 trace(G) / (n N) for
    the Gram matrix G of the N kept pairs, so the penalty keeps its weight
    against the Gram, which grows with N, and more pairs do not blur the fit.
    Every ridge goes through one filter: row i divides by the Gram's
    eigenvalues plus N ridge / w_i, and a direction whose divisor is at most
    1e-14 of the largest eigenvalue drops out.  At ridge 0, roundoff sets the
    barely excited directions, so the kernel changes with the row-block size
    below; predictions on inputs drawn like the training pairs still agree.

    The Gram and cross matrices are sums over the pairs, accumulated one
    numerics.row_blocks block of pairs at a time, so the fit holds the
    dataset, (n, n) matrices and block-sized temporaries.  A sum over
    blocks rounds differently from one product over all pairs, so the
    fit's last bits depend on the block size.
    """
    if ridge is not None and ridge < 0:
        raise ValueError("ridge must be nonnegative")
    grid, w, inputs, outputs, norms = _prepare_green_fit(ds)
    count = len(inputs)
    gram, cross = _gram_and_cross(w, inputs, outputs, 1.0 / norms)
    if ridge is None:
        ridge = 1e-8 * np.trace(gram) / (grid.n * count)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    rotated = cross @ eigvecs
    denom = eigvals[None, :] + (count * ridge / w)[:, None]
    denom[denom <= 1e-14 * eigvals[-1]] = np.inf  # such a direction drops out
    kernel = (rotated / denom) @ eigvecs.T
    return DenseKernelModel(grid, kernel, ridge)


def green_fit_objective(ds: OperatorDataset, kernel: np.ndarray, ridge: float) -> float:
    """The quantity fit_green_kernel minimizes, for a candidate grid kernel."""
    grid, w, inputs, outputs, norms = _prepare_green_fit(ds)
    preds = (w * inputs) @ kernel.T
    num = np.sum(w * (preds - outputs) ** 2, axis=1)
    return float(np.mean(num / norms) + ridge * np.sum(kernel ** 2))


def fit_low_rank(ds: OperatorDataset, rank: int, ridge: float | None = None) -> LowRankKernelModel:
    """Dense fit followed by truncation to the best rank-p kernel; the rank
    is checked against the sensor count before the fit runs."""
    if rank < 1 or (isinstance(ds.grid, Grid1D) and rank > ds.grid.n):
        raise ValueError("rank must be between 1 and the sensor count")
    dense = fit_green_kernel(ds, ridge)
    u, s, vt = np.linalg.svd(dense.kernel, full_matrices=False)
    # a compact row factor: the operator keeps what it is given, not all of vt
    return LowRankKernelModel(dense.grid, u[:, :rank] * s[:rank], vt[:rank].copy())


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
    _check_max_mode(n, max_mode)
    f_hat = np.fft.fft(ds.input_values, axis=1)
    u_hat = np.fft.fft(ds.output_values, axis=1)
    power = np.sum(np.abs(f_hat) ** 2, axis=0)
    cross = np.sum(np.conj(f_hat) * u_hat, axis=0)
    floor = EXCITATION_RTOL * power.max()
    modes = np.arange(-max_mode, max_mode + 1) % n
    excited = ~(power[modes] <= floor)
    multiplier = np.zeros(2 * max_mode + 1, dtype=complex)
    np.divide(cross[modes], power[modes] + ridge, out=multiplier, where=excited)
    multiplier[max_mode] = multiplier[max_mode].real
    # modes j and -j, both excited, share the mean of one and the other's conjugate
    pairs = np.arange(1, max_mode + 1)
    pairs = pairs[excited[max_mode + pairs] & excited[max_mode - pairs]]
    avg = 0.5 * (multiplier[max_mode + pairs] + np.conj(multiplier[max_mode - pairs]))
    multiplier[max_mode + pairs], multiplier[max_mode - pairs] = avg, np.conj(avg)
    return FourierMultiplierModel(grid, max_mode, multiplier, excited)


def truncate_band(model: DenseKernelModel, radius: float) -> BandedKernelModel:
    """Zero the kernel outside |x - y| <= radius and report the L2 norm of
    what was removed (quadrature with half weights on the cut itself)."""
    grid, kernel = model.grid, model.kernel
    if not (0.0 < radius <= grid.length):
        raise ValueError("radius must lie in (0, domain length]")
    x, w = grid.points(), grid.quad_weights()
    dist = np.abs(x[:, None] - x[None, :])
    on_cut = np.abs(dist - radius) <= _BOUNDARY_TOL
    outside = dist > radius + _BOUNDARY_TOL
    # trapezoid across the cut: nodes exactly on |x-y| = r carry half weight
    ww = np.outer(w, w)
    err_sq = np.sum(ww[outside] * kernel[outside] ** 2)
    err_sq += 0.5 * np.sum(ww[on_cut] * kernel[on_cut] ** 2)
    banded = kernel.copy()
    banded[outside] = 0.0
    return BandedKernelModel(grid, banded, radius, float(np.sqrt(err_sq)))


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
    parts, leaf_parts = partition_lanes(grid.n, levels, "strong")

    def blocks(rows, cols, size):
        return np.stack([kernel[r0:r0 + size, c0:c0 + size] for r0, c0 in zip(rows, cols)])

    lanes, tails = [], []
    for _, rows, cols, size, _ in parts:
        u, s, vt = np.linalg.svd(blocks(rows, cols, size), full_matrices=False)
        r = min(rank, size)
        # compact copies: no lane's full SVD factors outlive this step
        lanes.append((u[:, :, :r] * s[:, None, :r], vt[:, :r].copy().transpose(0, 2, 1)))
        # each block's own 1-D norm: a row-wise norm over the stack rounds differently
        tails.append([np.linalg.norm(tail) for tail in s[:, r:]])
    leaves = [blocks(rows, cols, size) for _, rows, cols, size, _ in leaf_parts]
    return HierarchicalKernelModel(grid, levels, rank, tails, lanes, leaves)


def _losses(kinds, grid, targets: np.ndarray, predict) -> dict[str, float]:
    """Each kind's dataset-averaged loss of predict(rows) against
    targets[rows], taken over numerics.row_blocks of the (N, *grid.shape)
    targets; see batch_loss for the kinds.

    Each block fills every kind's per-row numerator and denominator; every
    reduction is within one row, so a row's terms have the same bits in any
    block, and each mean is taken once over the whole vector.  Nothing of N
    rows is held but the per-row terms."""
    for kind in kinds:
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
    if not len(targets):
        raise ValueError("need a nonzero number of targets")
    w = grid.quad_weights()
    axes = tuple(range(1, targets.ndim))  # one sample's grid axes

    def l2(values):
        return np.sqrt(np.sum(w * values ** 2, axis=axes))

    def l1(values):
        return np.sum(w * np.abs(values), axis=axes)

    def h1_seminorm(values):
        squared = sum(np.gradient(values, grid.spacing, axis=axis) ** 2 for axis in axes)
        return np.sqrt(np.sum(w * squared, axis=axes))

    norm_of = {"mse": l2, "relative-squared-l2": l2, "relative-l2": l2, "relative-l1": l1,
               "h1-seminorm-relative": h1_seminorm}
    # one numerator and denominator vector per norm the kinds use
    terms = {norm_of[kind]: (np.empty(len(targets)), np.empty(len(targets))) for kind in kinds}
    for rows in row_blocks(len(targets), targets[0].size):
        diff = predict(rows) - targets[rows]
        for norm, (num, denom) in terms.items():
            num[rows], denom[rows] = norm(diff), norm(targets[rows])
        del diff  # freed before the next block is predicted
    losses = {}
    for kind in kinds:
        num, denom = terms[norm_of[kind]]
        if kind == "mse":  # divided by one
            losses[kind] = float(np.mean(num ** 2))
            continue
        if kind == "relative-squared-l2":
            num, denom = num ** 2, denom ** 2
        if np.any(denom == 0.0):
            raise ValueError("relative loss undefined for a zero-norm target")
        losses[kind] = float(np.mean(num / denom))
    return losses


def batch_loss(kind: str, grid, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Dataset-averaged loss over stacked (N, *grid.shape) predictions and
    targets, with trapezoid-discretized norms, computed over row blocks.

    Kinds: mse (mean squared L2 error), relative-squared-l2, relative-l2,
    relative-l1, and h1-seminorm-relative (centered differences inside the
    domain, one-sided at the boundary).
    """
    if predictions.shape != targets.shape or not len(targets):
        raise ValueError("need equal, nonzero numbers of predictions and targets")
    return _losses([kind], grid, targets, predictions.__getitem__)[kind]


def model_losses(model: KernelModel, ds: OperatorDataset, kinds) -> dict[str, float]:
    """Each kind's batch_loss of the model's predictions on ds, predicted one
    row block at a time: the dataset plus block-sized temporaries.

    A row's prediction can differ in its last bits from a full-width
    predict_batch (see there), so a score can differ in its last digit from
    batch_loss over full-width predictions.  A grid the model does not
    predict on, or a zero-norm target of a relative kind, is a ValueError.
    """
    return _losses(kinds, ds.grid, ds.output_values,
                   lambda rows: model.predict_batch(ds.grid, ds.input_values[rows]))


def compute_loss(kind: str, predictions, targets) -> float:
    """batch_loss over two paired FunctionSample sequences, each stacked;
    all samples must share one grid."""
    grids = {s.grid for s in (*predictions, *targets)}
    if len(grids) > 1:
        raise ValueError("all samples must share one grid")
    stacked = [np.array([s.values for s in seq], dtype=float) for seq in (predictions, targets)]
    return batch_loss(kind, next(iter(grids), None), *stacked)

