"""Gaussian-process source terms via discrete Karhunen-Loeve expansion.

Covariance families: squared-exponential and Matern on an interval
(eigendecomposition of the quadrature-weighted Gram matrix), and inverse
powers of the shifted Laplacian on the periodic unit interval (analytic
trigonometric eigenpairs).
"""
from __future__ import annotations

import logging
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D
from .numerics import RngStream

log = logging.getLogger(__name__)

FAMILIES = ("squared-exponential", "matern", "helmholtz-power")
MACHINE_EPS = float(np.finfo(float).eps)
# most helmholtz-power modes kept; a sample draws 1 + 2 * cap deviates, so it fixes bits
HELMHOLTZ_MODE_LIMIT = 999_999


@dataclass(frozen=True)
class CovarianceSpec:
    """Covariance kernel family plus hyperparameters.

    length_scale applies to squared-exponential and matern; smoothness is the
    Matern smoothness or the spectral decay exponent of helmholtz-power;
    amplitude and shift parameterize helmholtz-power, which requires a
    periodic domain.
    """

    family: str
    length_scale: float | None = None
    smoothness: float | None = None
    amplitude: float = 1.0
    shift: float = 0.0
    periodic: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown covariance family {self.family!r}")
        if self.family in ("squared-exponential", "matern"):
            if self.length_scale is None or self.length_scale <= 0:
                raise ValueError(f"{self.family} needs length_scale > 0")
        if self.family == "matern":
            if self.smoothness is None or self.smoothness <= 0:
                raise ValueError("matern needs smoothness > 0")
        if self.family == "helmholtz-power":
            if self.smoothness is None or self.smoothness <= 0:
                raise ValueError("helmholtz-power needs a decay exponent > 0")
            if self.amplitude <= 0:
                raise ValueError("helmholtz-power needs amplitude > 0")
            if self.shift < 0:
                raise ValueError("helmholtz-power needs shift >= 0")
            if not self.periodic:
                raise ValueError("helmholtz-power requires a periodic domain")


@dataclass(frozen=True)
class KLBasis:
    """Discrete eigenpairs of a covariance kernel on a sensor grid.

    Eigenvalues are nonincreasing; eigenfunctions are orthonormal under the
    grid quadrature weights.  truncation counts the eigenvalues at or above
    machine precision relative to the largest; draw_count is the number of
    normal deviates one sample consumes (kept grid-independent for the
    analytic family so that samples at different resolutions can share
    coefficients).
    """

    spec: CovarianceSpec
    grid: Grid1D
    eigenvalues: np.ndarray
    functions: np.ndarray  # shape (m, truncation)
    truncation: int
    draw_count: int


def _matern_closed_form(scaled: np.ndarray, smoothness: float) -> np.ndarray | None:
    if math.isclose(smoothness, 0.5):
        return np.exp(-scaled)
    if math.isclose(smoothness, 1.5):
        return (1.0 + scaled) * np.exp(-scaled)
    if math.isclose(smoothness, 2.5):
        return (1.0 + scaled + scaled ** 2 / 3.0) * np.exp(-scaled)
    return None


def matern_bessel(distance, length_scale: float, smoothness: float) -> np.ndarray:
    """Matern covariance through the modified-Bessel formula (any smoothness)."""
    # Imported here so that loading operlab does not load scipy.
    from scipy.special import gamma as gamma_fn
    from scipy.special import kv as bessel_kv

    d = np.asarray(distance, dtype=float)
    scaled = np.sqrt(2.0 * smoothness) * d / length_scale
    out = np.ones_like(scaled)
    nz = scaled > 0
    s = scaled[nz]
    out[nz] = (
        2.0 ** (1.0 - smoothness)
        / gamma_fn(smoothness)
        * s ** smoothness
        * bessel_kv(smoothness, s)
    )
    return out


def helmholtz_eigenvalue(spec: CovarianceSpec, mode: int) -> float:
    """Eigenvalue A*((2 pi j)^2 + c)^(-nu) of the periodic covariance at mode j.

    With shift c = 0 the constant mode is excluded (eigenvalue 0): the
    underlying differential operator is singular on constants.
    """
    base = (2.0 * np.pi * mode) ** 2 + spec.shift
    if base == 0.0:
        return 0.0
    return spec.amplitude * base ** (-spec.smoothness)


def kernel_eval(spec: CovarianceSpec, x, y):
    """Covariance K(x, y); symmetric, with K(x, x) = 1 for SE and Matern."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0) or np.any(ya < 0.0) or np.any(ya > 1.0):
        raise ValueError("points must lie in the unit interval")
    d = np.abs(xa - ya)
    if spec.periodic:
        d = np.minimum(d, 1.0 - d)
    if spec.family == "squared-exponential":
        return np.exp(-(d ** 2) / (2.0 * spec.length_scale ** 2))
    if spec.family == "matern":
        scaled = np.sqrt(2.0 * spec.smoothness) * d / spec.length_scale
        closed = _matern_closed_form(scaled, spec.smoothness)
        if closed is not None:
            return closed
        return matern_bessel(d, spec.length_scale, spec.smoothness)
    # helmholtz-power: the cosine series over the modes the KL basis keeps
    result = np.full(np.broadcast_shapes(xa.shape, ya.shape), helmholtz_eigenvalue(spec, 0))
    for mode in range(1, _helmholtz_mode_cap(spec) + 1):
        result = result + 2.0 * helmholtz_eigenvalue(spec, mode) * np.cos(2.0 * np.pi * mode * d)
    return result


def _helmholtz_mode_cap(spec: CovarianceSpec) -> int:
    """Largest mode up to HELMHOLTZ_MODE_LIMIT whose eigenvalue clears machine
    precision relative to the largest (0 if none does): the eigenvalues fall
    with the mode, so this is the root of A((2 pi j)^2 + c)^(-nu) = floor,
    rounded down and moved past any neighbour the comparison places apart."""
    floor = MACHINE_EPS * max(helmholtz_eigenvalue(spec, 0), helmholtz_eigenvalue(spec, 1))
    with np.errstate(over="ignore", divide="ignore"):  # an infinite root: every mode clears
        base = np.float64(floor / spec.amplitude) ** (-1.0 / spec.smoothness)
    mode = int(min(np.sqrt(max(base - spec.shift, 0.0)) / (2.0 * np.pi), HELMHOLTZ_MODE_LIMIT))
    while mode < HELMHOLTZ_MODE_LIMIT and helmholtz_eigenvalue(spec, mode + 1) >= floor:
        mode += 1
    while mode > 0 and helmholtz_eigenvalue(spec, mode) < floor:
        mode -= 1
    return mode


def kl_decompose(spec: CovarianceSpec, m: int) -> KLBasis:
    """Discrete Mercer eigenpairs of the covariance on m sensor points.

    SE/Matern: symmetric eigenproblem of W^(1/2) K W^(1/2) on [0, 1] with
    trapezoid weights W, so the eigenvalues approximate the continuous ones.
    helmholtz-power: analytic trigonometric eigenpairs on the periodic grid.
    The basis is truncated where eigenvalues drop below machine precision
    relative to the largest.
    """
    if m < 2:
        raise ValueError("need at least two sensors")
    if spec.length_scale is not None and m < 1.0 / spec.length_scale:
        warnings.warn(
            f"m = {m} sensors under-resolves length scale {spec.length_scale} "
            f"(want m >= {1.0 / spec.length_scale:.0f})",
            UserWarning,
            stacklevel=2,
        )
    if spec.family == "helmholtz-power":
        return _kl_periodic_analytic(spec, m)

    grid = Grid1D(m, 0.0, 1.0, periodic=spec.periodic)
    x = grid.points()
    w = grid.quad_weights()
    gram = kernel_eval(spec, x[:, None], x[None, :])
    sqrt_w = np.sqrt(w)
    sym = sqrt_w[:, None] * gram * sqrt_w[None, :]
    sym = 0.5 * (sym + sym.T)
    eigenvalues, vectors = np.linalg.eigh(sym)
    if eigenvalues[0] < -1e-10 * max(eigenvalues[-1], 0.0):
        raise ValueError(
            f"covariance Gram matrix is not positive semidefinite: "
            f"smallest eigenvalue {eigenvalues[0]:.3e}"
        )
    if eigenvalues[0] < 0.0:
        # shift up, refactor, shift back: keeps the reported spectrum unbiased
        jitter = 1e-12 * eigenvalues[-1]
        log.info("adding diagonal jitter %.3e to the covariance Gram matrix", jitter)
        sym[np.diag_indices_from(sym)] += jitter
        eigenvalues, vectors = np.linalg.eigh(sym)
        eigenvalues = eigenvalues - jitter
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    vectors = vectors[:, order]
    truncation = int(np.sum(eigenvalues >= MACHINE_EPS * eigenvalues[0]))
    functions = vectors[:, :truncation] / sqrt_w[:, None]
    # sign convention: first big lobe (scanning from the left) positive, so
    # eigenfunctions at different resolutions line up
    for j in range(truncation):
        column = functions[:, j]
        lobe = np.flatnonzero(np.abs(column) >= 0.5 * np.abs(column).max())[0]
        if column[lobe] < 0:
            functions[:, j] = -column
    return KLBasis(spec, grid, eigenvalues[:truncation], functions, truncation, truncation)


def _kl_periodic_analytic(spec: CovarianceSpec, m: int) -> KLBasis:
    grid = Grid1D(m, 0.0, 1.0, periodic=True)
    x = grid.points()
    mode_cap = _helmholtz_mode_cap(spec)
    grid_cap = (m - 1) // 2  # modes representable without aliasing
    draw_count = 1 + 2 * mode_cap
    top = min(mode_cap, grid_cap)
    columns = []
    eigenvalues = []
    if helmholtz_eigenvalue(spec, 0) > 0.0:
        columns.append(np.ones(m))
        eigenvalues.append(helmholtz_eigenvalue(spec, 0))
    for mode in range(1, top + 1):
        lam = helmholtz_eigenvalue(spec, mode)
        phase = 2.0 * np.pi * mode * x
        columns.append(np.sqrt(2.0) * np.cos(phase))
        eigenvalues.append(lam)
        columns.append(np.sqrt(2.0) * np.sin(phase))
        eigenvalues.append(lam)
    if not columns:
        raise ValueError(f"grid with {m} sensors cannot carry any basis function")
    functions = np.column_stack(columns)
    eigenvalues = np.asarray(eigenvalues)
    truncation = functions.shape[1]
    return KLBasis(spec, grid, eigenvalues, functions, truncation, draw_count)


def sample_gp(basis: KLBasis, streams: Iterable[RngStream]) -> np.ndarray:
    """Zero-mean Gaussian process samples from the KL expansion, one row per
    stream; each stream draws basis.draw_count normal deviates."""
    coeffs = [stream.standard_normal(basis.draw_count) for stream in streams]
    return sample_from_coefficients(basis, np.reshape(coeffs, (len(coeffs), basis.draw_count)))


def sample_from_coefficients(basis: KLBasis, coeffs) -> np.ndarray:
    """Deterministic KL expansion for given coefficients, over any leading
    batch axes: coefficients shaped (..., k) give values shaped (..., m).

    Coefficients beyond the stored basis are ignored and missing trailing
    coefficients count as zero; both conventions are what let samples at
    different resolutions share one coefficient vector.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ValueError("coefficients must have a nonempty last axis")
    used = min(basis.truncation, c.shape[-1])
    scaled = np.sqrt(basis.eigenvalues[:used]) * c[..., :used]
    # One matrix-vector product per row, stacked: a single matrix-matrix
    # product rounds differently, and would make a row's bits depend on how
    # many rows are drawn together.
    return np.matmul(basis.functions[:, :used], scaled[..., None])[..., 0]
