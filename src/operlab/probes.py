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
# most helmholtz-power modes: caps both kernel_eval's series and the KL truncation
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
        if self.family in ("matern", "helmholtz-power"):
            if self.smoothness is None or self.smoothness <= 0:
                raise ValueError(f"{self.family} needs smoothness > 0")
        if self.family == "helmholtz-power":
            if self.amplitude <= 0:
                raise ValueError("helmholtz-power needs amplitude > 0")
            if self.shift < 0:
                raise ValueError("helmholtz-power needs shift >= 0")
            if not self.periodic:
                raise ValueError("helmholtz-power requires a periodic domain")


@dataclass(frozen=True)
class KLBasis:
    """Discrete eigenpairs of a covariance kernel on a sensor grid: those
    whose eigenvalue is at or above machine precision relative to the
    largest (helmholtz-power: whose mode the grid also represents).
    Eigenvalues are nonincreasing; eigenfunctions are orthonormal under the
    grid quadrature weights.  truncation counts the pairs, which is the
    number of normal deviates one sample consumes."""

    spec: CovarianceSpec
    grid: Grid1D
    eigenvalues: np.ndarray
    functions: np.ndarray  # shape (m, truncation)

    @property
    def truncation(self) -> int:
        return self.functions.shape[1]


def _matern_closed_form(scaled: np.ndarray, smoothness: float) -> np.ndarray | None:
    if math.isclose(smoothness, 0.5):
        return np.exp(-scaled)
    if math.isclose(smoothness, 1.5):
        return (1.0 + scaled) * np.exp(-scaled)
    if math.isclose(smoothness, 2.5):
        return (1.0 + scaled + scaled ** 2 / 3.0) * np.exp(-scaled)
    return None


def matern_bessel(distance, length_scale: float, smoothness: float) -> np.ndarray:
    """Matern covariance through the modified-Bessel formula (any smoothness);
    NaN or infinite where the formula overflows, as at a huge smoothness."""
    # Imported here so that loading operlab does not load scipy.
    from scipy.special import gamma as gamma_fn
    from scipy.special import kv as bessel_kv

    smoothness = float(smoothness)  # scipy's ufuncs take no integer beyond int64
    d = np.asarray(distance, dtype=float)
    scaled = np.sqrt(2.0 * smoothness) * d / length_scale
    out = np.ones_like(scaled)
    nz = scaled > 0
    s = scaled[nz]
    with np.errstate(over="ignore", invalid="ignore"):
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
    # helmholtz-power: the cosine series over the modes the KL basis keeps, summed
    # once per distinct distance (numpy versions shape the inverse differently)
    dist, inverse = np.unique(d, return_inverse=True)
    result = np.full(dist.shape, helmholtz_eigenvalue(spec, 0))
    for mode in range(1, _helmholtz_mode_cap(spec) + 1):
        result = result + 2.0 * helmholtz_eigenvalue(spec, mode) * np.cos(2.0 * np.pi * mode * dist)
    return result[inverse].reshape(d.shape)


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
    if not np.all(np.isfinite(sym)):
        raise ValueError(f"{spec.family} covariance is not finite on the grid")
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
    lobes = np.argmax(np.abs(functions) >= 0.5 * np.abs(functions).max(axis=0), axis=0)
    functions[:, functions[lobes, np.arange(truncation)] < 0] *= -1.0
    return KLBasis(spec, grid, eigenvalues[:truncation], functions)


def _kl_periodic_analytic(spec: CovarianceSpec, m: int) -> KLBasis:
    grid = Grid1D(m, 0.0, 1.0, periodic=True)
    top = min(_helmholtz_mode_cap(spec), (m - 1) // 2)  # modes representable without aliasing
    phase = grid.points()[:, None] * (2.0 * np.pi * np.arange(1, top + 1))
    # columns cos 1, sin 1, cos 2, sin 2, ...; the eigenvalues stay scalar powers,
    # which round differently from numpy's array power
    functions = np.sqrt(2.0) * np.stack([np.cos(phase), np.sin(phase)], axis=-1).reshape(m, 2 * top)
    eigenvalues = np.repeat([helmholtz_eigenvalue(spec, mode) for mode in range(1, top + 1)], 2)
    if helmholtz_eigenvalue(spec, 0) > 0.0:
        functions = np.column_stack([np.ones(m), functions])
        eigenvalues = np.concatenate([[helmholtz_eigenvalue(spec, 0)], eigenvalues])
    if functions.shape[1] == 0:
        raise ValueError(f"grid with {m} sensors cannot carry any basis function")
    return KLBasis(spec, grid, eigenvalues, functions)


def sample_gp(basis: KLBasis, streams: Iterable[RngStream]) -> np.ndarray:
    """Zero-mean Gaussian process samples from the KL expansion, one row per
    stream.  Each stream is asked for basis.truncation normal deviates, the
    row's coefficients; numpy's draws are prefix-consistent, so one stream
    gives the same leading coefficients at every resolution.  One stream
    passed for several rows is consumed basis.truncation deviates per row."""
    coeffs = [stream.standard_normal(basis.truncation) for stream in streams]
    return sample_from_coefficients(basis, np.reshape(coeffs, (len(coeffs), basis.truncation)))


def sample_from_coefficients(basis: KLBasis, coeffs) -> np.ndarray:
    """Deterministic KL expansion for given coefficients, over any leading
    batch axes: coefficients shaped (..., truncation) give values shaped
    (..., m)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 0 or c.shape[-1] != basis.truncation:
        raise ValueError(f"coefficients must have a last axis of {basis.truncation}")
    # One matrix-vector product per row, stacked: a single matrix-matrix
    # product rounds differently, and would make a row's bits depend on how
    # many rows are drawn together.
    return np.matmul(basis.functions, (np.sqrt(basis.eigenvalues) * c)[..., None])[..., 0]
