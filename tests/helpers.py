"""Shared builders for the test suite: planted operators, datasets and
small fitted models."""
from __future__ import annotations

import hashlib

import numpy as np

from operlab.dataio import grid_to_dict, write_container
from operlab.grids import Grid1D, OperatorDataset
from operlab.numerics import RngStream
from operlab.opfit import (
    fit_fourier_multiplier,
    fit_green_kernel,
    fit_low_rank,
    hierarchical_decompose,
    model_losses,
    truncate_band,
)
from operlab.probes import CovarianceSpec, kl_decompose, sample_gp
from operlab.structured import BlockLowRankOperator

SMOOTH_PERIODIC = CovarianceSpec(
    "helmholtz-power", smoothness=3.0, amplitude=400.0, shift=9.0, periodic=True
)


class ConstantStream:
    """A stream stub whose "normal" draws are all ones: a constant probe,
    whose DFT vanishes at every nonzero frequency."""

    def standard_normal(self, shape) -> np.ndarray:
        return np.ones(shape)


def hodlr_layout(op) -> tuple[list, list]:
    """The sorted (level, row_start, col_start, size) of a block operator's
    low-rank blocks and the (row_start, col_start, shape) of its dense ones,
    read block by block off its lanes."""
    blocks = sorted((lane.level, r0, c0, lane.size) for lane in op.lanes
                    for r0, c0 in zip(lane.row_starts, lane.col_starts))
    leaves = [(r0, c0, leaf.shape) for lane in op.leaf_lanes
              for r0, c0, leaf in zip(lane.row_starts, lane.col_starts, lane.factors[0])]
    return blocks, leaves


def block_operator(n, levels, admissibility, rank, factors, leaves=()):
    """A BlockLowRankOperator from per-lane (col_factors, row_factors)
    stacks, each (blocks, size, min(rank, size)), for the first lanes of the
    partition (whole levels), packed into fresh factor arrays."""
    shell = BlockLowRankOperator.zeros(n, levels, admissibility, rank)
    for lane, (col_factors, row_factors) in zip(shell.lanes, factors):
        lane.fill(col_factors, row_factors)
    width = shell.lanes[len(factors) - 1].columns.stop if factors else 0
    return BlockLowRankOperator(n, levels, admissibility, rank, shell.col_factors[:, :width],
                                shell.row_factors[:, :width], leaves)


def per_block_apply(op, x, transpose: bool = False) -> np.ndarray:
    """A block operator applied to x (or its transpose) one block at a time,
    over its lanes' low-rank blocks, then its leaves: the per-block loop
    that the tile-major apply must match to roundoff.  Block i of a lane is
    the product of its factors' entries i (col_factor @ row_factor.T, or
    one dense leaf)."""
    x = np.asarray(x, dtype=float)
    mat = x[:, None] if x.ndim == 1 else x
    y = np.zeros_like(mat)
    for lane in op.lanes + op.leaf_lanes:
        for r0, c0, *factors in zip(lane.row_starts, lane.col_starts, *lane.factors):
            rows, cols = slice(r0, r0 + lane.size), slice(c0, c0 + lane.size)
            if transpose:
                t = mat[rows]
                for factor in factors:
                    t = factor.T @ t
                y[cols] += t
            else:
                t = mat[cols]
                for factor in reversed(factors):
                    t = factor @ t
                y[rows] += t
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
    inputs = sample_gp(basis, (RngStream(seed).derive(i) for i in range(num_pairs)))
    outputs = np.stack([apply_mode_multiplier(values, multiplier_fn) for values in inputs])
    return OperatorDataset(grid, inputs, outputs, {"planted": True, "seed": seed})


def white_noise_dataset(
    grid: Grid1D, kernel: np.ndarray, num_pairs: int, seed: int
) -> OperatorDataset:
    """Pairs (f, K W f) with i.i.d. Gaussian nodal inputs: full-rank probes of
    a known grid kernel."""
    w = grid.quad_weights()
    inputs = np.stack([RngStream(seed).derive(i).standard_normal(grid.n) for i in range(num_pairs)])
    outputs = np.stack([kernel @ (w * f) for f in inputs])
    return OperatorDataset(grid, inputs, outputs, {"planted": True})


def json_paths(node, path=()) -> list[tuple]:
    """The path (dict keys and list indices) to every value below a JSON
    node, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [(*path, key), *json_paths(child, (*path, key))]]


def edit_json_field(document, field: int, delete: bool, value) -> None:
    """Delete, or replace with value, the value at path number field (modulo
    the number of paths, in json_paths order) of a JSON document, in place."""
    paths = json_paths(document)
    *route, key = paths[field % len(paths)]
    node = document
    for step in route:
        node = node[step]
    if delete:
        del node[key]
    else:
        node[key] = value


# values that replace a field of a JSON file: every JSON type but strings,
# and numbers that json.loads reads but no field admits
JSON_VALUES = (None, True, False, 0, -1, 2 ** 70, 0.5, float("nan"), float("inf"), float("-inf"),
               [], {})


def relative_l2_error(model, ds: OperatorDataset) -> float:
    """A model's relative L2 loss on a dataset: one row of `operlab eval`."""
    return model_losses(model, ds, ["relative-l2"])["relative-l2"]


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


def write_per_block(path, model) -> None:
    """Write a hierarchical model in the retired per-block layout, which no
    loader reads, with write_container: one block_meta entry (level, row,
    col, size, tail) and arrays block<i>_col and block<i>_row (the
    transposed row factor) per low-rank block, then one leaf_meta entry
    (row, col, size) and array leaf<i> per dense leaf, lane by lane, as the
    last per-block writer did."""
    op = model.operator
    blocks = {(lane.level, r0, c0, lane.size): (tail, col, row_t)
              for lane, tails in zip(op.lanes, model.tails)
              for r0, c0, tail, col, row_t in zip(lane.row_starts, lane.col_starts,
                                                  tails.tolist(), *lane.factors)}
    leaves = {(r0, c0, lane.size): leaf for lane in op.leaf_lanes
              for r0, c0, leaf in zip(lane.row_starts, lane.col_starts, lane.factors[0])}
    arrays = [(f"block{i}_{side}", factor) for i, key in enumerate(blocks)
              for side, factor in zip(("col", "row"), blocks[key][1:])]
    arrays += [(f"leaf{i}", leaves[key]) for i, key in enumerate(leaves)]
    arrays = [(name, np.ascontiguousarray(a, dtype="<f8")) for name, a in arrays]
    payload = b"".join(a.tobytes() for _, a in arrays)
    header = {
        "container": "model",
        "version": 2,
        "variant": "hierarchical",
        "grid": grid_to_dict(model.grid),
        "levels": model.levels,
        "rank": model.rank,
        "block_meta": [{"level": level, "row": r0, "col": c0, "size": size,
                        "tail": blocks[level, r0, c0, size][0]}
                       for level, r0, c0, size in blocks],
        "leaf_meta": [{"row": r0, "col": c0, "size": size} for r0, c0, size in leaves],
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    write_container(path, header, payload)
