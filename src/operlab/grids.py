"""Uniform grids, grid-sampled functions, and input/output pair collections."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np


def _check_endpoints(left: float, right: float) -> None:
    # a file header may say Infinity: json.loads accepts it
    if not (np.isfinite(left) and np.isfinite(right)):
        raise ValueError(f"grid endpoints must be finite, got [{left}, {right}]")


@dataclass(frozen=True)
class Grid1D:
    """Uniform one-dimensional grid on [left, right].

    Non-periodic grids include both endpoints, so the spacing is
    (right - left)/(n - 1).  Periodic grids exclude the right endpoint
    and have spacing (right - left)/n.
    """

    n: int
    left: float = 0.0
    right: float = 1.0
    periodic: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 points, got n={self.n}")
        _check_endpoints(self.left, self.right)
        if not self.right > self.left:
            raise ValueError("grid interval must have positive length")

    @property
    def length(self) -> float:
        return self.right - self.left

    @property
    def spacing(self) -> float:
        if self.periodic:
            return self.length / self.n
        return self.length / (self.n - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,)

    def points(self) -> np.ndarray:
        if self.periodic:
            return self.left + self.spacing * np.arange(self.n)
        return np.linspace(self.left, self.right, self.n)

    def quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights (uniform weights on a periodic grid)."""
        if self.periodic:
            return np.full(self.n, self.spacing)
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class Grid2D:
    """Uniform n-by-n tensor grid on the square [left, right]^2, boundary included."""

    n: int
    left: float = 0.0
    right: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 points per side, got n={self.n}")
        _check_endpoints(self.left, self.right)
        if not self.right > self.left:
            raise ValueError("grid square must have positive side length")

    @property
    def spacing(self) -> float:
        return (self.right - self.left) / (self.n - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n, self.n)

    def quad_weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.outer(w, w)


Grid = Union[Grid1D, Grid2D]


@dataclass(frozen=True)
class FunctionSample:
    """Function values sampled on a grid.

    Values are shaped (n,) for 1D grids and (n, n) for 2D grids.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")


def stacked_shape(grid: Grid | None, count: int) -> tuple[int, ...]:
    """Shape of count samples on grid stacked along a leading axis; a dataset
    without a grid holds no samples and stacks to shape (0,)."""
    return (count,) if grid is None else (count, *grid.shape)


@dataclass
class OperatorDataset:
    """Paired input/output functions on one grid plus how they were made.

    input_values and output_values are float64 arrays of shape
    (N, *grid.shape); row i of each is pair i.  An empty dataset may have no
    grid (grid None, arrays of shape (0,)).
    """

    grid: Grid | None
    input_values: np.ndarray
    output_values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        inputs = np.asarray(self.input_values, dtype=float)
        outputs = np.asarray(self.output_values, dtype=float)
        if inputs.shape != outputs.shape:
            raise ValueError("inputs and outputs must pair up one-to-one")
        if self.grid is None and inputs.size:
            raise ValueError("a nonempty dataset needs a grid")
        expected = stacked_shape(self.grid, len(inputs))
        if inputs.shape != expected:
            raise ValueError(f"values shape {inputs.shape} does not match {expected}")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
            raise ValueError("dataset contains non-finite values")
        self.input_values = inputs
        self.output_values = outputs

    @classmethod
    def from_samples(cls, inputs, outputs, provenance: dict | None = None) -> "OperatorDataset":
        """Stack paired FunctionSample sequences that all share one grid."""
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must pair up one-to-one")
        grids = {s.grid for s in (*inputs, *outputs)}
        if len(grids) > 1:
            raise ValueError("all samples in a dataset must share one grid")
        return cls(
            grids.pop() if grids else None,
            np.array([s.values for s in inputs], dtype=float),
            np.array([s.values for s in outputs], dtype=float),
            {} if provenance is None else provenance,
        )

    def __len__(self) -> int:
        return len(self.input_values)
