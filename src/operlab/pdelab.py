"""Desk-scale PDE solvers and training-pair synthesis.

Model problems: 1D Poisson with zero Dirichlet data (second-order finite
differences, solved in numpy by the LDL^T sweep of LAPACK ?ptsv), 2D Darcy
flow with piecewise-constant coefficients (conservative finite volumes,
iterative solve), and 1D viscous Burgers on a periodic domain
(pseudo-spectral with RK4 time stepping).  Only the Darcy solver loads scipy.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .grids import Grid1D, Grid2D, OperatorDataset
from .numerics import RngStream, row_blocks
from .probes import CovarianceSpec, kl_decompose, sample_gp

BURGERS_VISCOSITY = 0.1
BURGERS_FINAL_TIME = 1.0
# most RK4 steps of one Burgers solve: a run that needs more is refused before its first step
BURGERS_MAX_STEPS = 10 ** 7
DARCY_HIGH = 12.0
DARCY_LOW = 3.0
DARCY_CG_RTOL = 1e-12
# smallest resolution each model problem generates at: Poisson's solver needs
# an interior node, a periodic KL basis needs 4 sensors to carry a nonconstant
# mode, and the Darcy coefficient field needs s >= 8
MIN_RESOLUTION = {"poisson1d": 3, "burgers1d": 4, "darcy2d": 8}


class SolverError(RuntimeError):
    """A PDE solve failed (instability, non-convergence, or bad inputs)."""


def green_poisson_1d(x, y):
    """Closed-form kernel min(x, y) - x*y of the zero-Dirichlet 1D Poisson
    problem on [0, 1]; symmetric and vanishing on the boundary."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.any(xa < 0) or np.any(xa > 1) or np.any(ya < 0) or np.any(ya > 1):
        raise ValueError("kernel arguments must lie in [0, 1]")
    return np.minimum(xa, ya) - xa * ya


def solve_poisson_1d(grid: Grid1D, f) -> np.ndarray:
    """Solve -u'' = f on [0, 1] with u(0) = u(1) = 0, for f shaped (n,) or
    for every row of an (N, n) block; f itself is left unchanged.

    Second-order central differences on the uniform grid; the error
    decreases like the square of the spacing.  The symmetric tridiagonal
    system on the n - 2 interior nodes is factored as L D L^T and solved by
    one forward and one backward sweep, each step one row operation across
    all N right-hand sides.  These are the operations, in the order, of
    LAPACK ?ptsv (?pttrf, then ?pttrs), so the result has the same bits as
    scipy.linalg.solveh_banded on this system, without loading scipy.
    """
    if not isinstance(grid, Grid1D) or grid.periodic:
        raise ValueError("needs a non-periodic 1D grid")
    if not (grid.left == 0.0 and grid.right == 1.0):
        raise ValueError("solver is set up on the unit interval")
    if grid.n < MIN_RESOLUTION["poisson1d"]:
        raise ValueError("need at least 3 grid points")
    fv = np.asarray(f, dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[-1] != grid.n:
        raise ValueError(f"source shape {fv.shape} does not match grid of {grid.n} points")
    rows = fv.reshape(-1, grid.n)
    # sweep node j is interior node j + 1; each x[j] is one contiguous row
    x = rows[:, 1:-1].T.copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("source must not contain infs or NaNs")
    h2 = grid.spacing ** 2
    diag = 2.0 / h2
    off = -1.0 / h2
    # L D L^T factor: pivot[j] = D[j, j], mult[j] = L[j, j - 1]
    pivot = [diag]
    mult = [0.0]
    for _ in range(len(x) - 1):
        mult.append(off / pivot[-1])
        pivot.append(diag - mult[-1] * off)
    for j in range(1, len(x)):  # solve L y = f
        x[j] -= mult[j] * x[j - 1]
    x[-1] /= pivot[-1]
    for j in range(len(x) - 2, -1, -1):  # solve D L^T u = y
        x[j] /= pivot[j]
        x[j] -= mult[j + 1] * x[j + 1]
    u = np.zeros(rows.shape)
    u[:, 1:-1] = x.T
    return u.reshape(fv.shape)


def _helmholtz_spectrum_2d(spec: CovarianceSpec, s: int) -> np.ndarray:
    modes = np.fft.fftfreq(s, d=1.0 / s)
    radii = modes[:, None] ** 2 + modes[None, :] ** 2
    lam = np.zeros_like(radii)
    nonzero = (radii > 0) | (spec.shift > 0)
    lam[nonzero] = spec.amplitude * (
        (2.0 * np.pi) ** 2 * radii[nonzero] + spec.shift
    ) ** (-spec.smoothness)
    return lam


def sample_helmholtz_periodic_2d(spec: CovarianceSpec, s: int, stream: RngStream) -> np.ndarray:
    """Stationary Gaussian field on the periodic s-by-s lattice whose
    covariance is the 2D analogue of the 1D helmholtz-power kernel."""
    if spec.family != "helmholtz-power":
        raise ValueError("2D periodic sampling is defined for helmholtz-power")
    lam = _helmholtz_spectrum_2d(spec, s)
    white = stream.standard_normal((s, s))
    field = np.fft.ifft2(s * np.sqrt(lam) * np.fft.fft2(white))
    return field.real


def darcy_coefficient(stream: RngStream, spec: CovarianceSpec, s: int) -> np.ndarray:
    """Piecewise-constant permeability: threshold a Gaussian field at zero,
    mapping nonnegative values to 12 and negative values to 3.

    The field is generated on the periodic lattice and reinterpreted on the
    solver's nodal grid; the threshold statistics are unaffected.
    """
    if s < MIN_RESOLUTION["darcy2d"]:
        raise ValueError("need resolution s >= 8")
    field = sample_helmholtz_periodic_2d(spec, s, stream)
    return np.where(field >= 0.0, DARCY_HIGH, DARCY_LOW)


def solve_darcy_2d(
    grid: Grid2D,
    a,
    f,
) -> np.ndarray:
    """Solve -div(a grad u) = f on the unit square with zero Dirichlet data,
    for coefficient a and source f shaped like the grid.

    Five-point conservative scheme with harmonic-mean face coefficients,
    solved by diagonally preconditioned conjugate gradients to relative
    residual DARCY_CG_RTOL = 1e-12 in at most 40 (s - 2)^2 iterations
    (contract: at most 1e-10).
    """
    # scipy is imported here, by the one solver that needs it, so that
    # commands that never solve a Darcy problem start without loading it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import cg

    av = np.asarray(a, dtype=float)
    fv = np.asarray(f, dtype=float)
    if not isinstance(grid, Grid2D) or av.shape != grid.shape or fv.shape != grid.shape:
        raise ValueError("coefficient and source must share one 2D grid")
    if np.any(av <= 0.0):
        raise SolverError("coefficient must be positive everywhere")
    n = grid.n
    h = grid.spacing
    interior = n - 2

    def harmonic(p, q):
        return 2.0 * p * q / (p + q)

    # face coefficients between node (i, j) and its four neighbours
    east = harmonic(av[1:-1, 1:-1], av[1:-1, 2:])
    west = harmonic(av[1:-1, 1:-1], av[1:-1, :-2])
    north = harmonic(av[1:-1, 1:-1], av[2:, 1:-1])
    south = harmonic(av[1:-1, 1:-1], av[:-2, 1:-1])

    idx = np.arange(interior * interior).reshape(interior, interior)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    diag = (east + west + north + south) / h ** 2
    add(idx.ravel(), idx.ravel(), diag.ravel())
    add(idx[:, :-1].ravel(), idx[:, 1:].ravel(), (-east[:, :-1] / h ** 2).ravel())
    add(idx[:, 1:].ravel(), idx[:, :-1].ravel(), (-west[:, 1:] / h ** 2).ravel())
    add(idx[:-1, :].ravel(), idx[1:, :].ravel(), (-north[:-1, :] / h ** 2).ravel())
    add(idx[1:, :].ravel(), idx[:-1, :].ravel(), (-south[1:, :] / h ** 2).ravel())
    matrix = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(interior * interior, interior * interior),
    )
    rhs = fv[1:-1, 1:-1].ravel()
    u = np.zeros((n, n))
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return u
    precond = csr_matrix(
        (1.0 / diag.ravel(), (idx.ravel(), idx.ravel())),
        shape=matrix.shape,
    )
    maxiter = 40 * interior * interior
    solution, info = cg(matrix, rhs, rtol=DARCY_CG_RTOL, atol=0.0, maxiter=maxiter, M=precond)
    residual = np.linalg.norm(matrix @ solution - rhs) / rhs_norm
    if info != 0 or residual > 1e-10:
        raise SolverError(
            f"conjugate gradients did not reach the residual tolerance "
            f"(info={info}, relative residual {residual:.3e})"
        )
    u[1:-1, 1:-1] = solution.reshape(interior, interior)
    return u


def solve_burgers_1d(
    grid: Grid1D,
    u0,
    viscosity: float = BURGERS_VISCOSITY,
    final_time: float = BURGERS_FINAL_TIME,
    *,
    nonlinear: bool = True,
    dt: float | None = None,
) -> np.ndarray:
    """Advance u_t + (u^2/2)_x = nu u_xx on a periodic grid to final_time,
    from initial values u0 shaped like the grid.

    Pseudo-spectral in space with 2/3-rule dealiasing of the quadratic flux;
    classical RK4 in time with step min(0.2 h^2/nu, 0.2 h/max|u0|) unless an
    explicit dt is given, in at most BURGERS_MAX_STEPS steps (else SolverError).
    The conservative flux form keeps the mean exact.  Setting nonlinear=False
    drops the flux term (pure heat equation), which tests use to check the
    diffusive decay rate in isolation.
    """
    if not isinstance(grid, Grid1D) or not grid.periodic:
        raise ValueError("needs a periodic 1D grid")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != grid.shape:
        raise ValueError(f"initial values shape {u0.shape} does not match grid shape {grid.shape}")
    s = grid.n
    if s & (s - 1):
        raise ValueError("resolution must be a power of two")
    if viscosity <= 0:
        raise ValueError("viscosity must be positive")
    length = grid.length
    # real-signal spectral state: modes 0..s/2 via rfft
    modes = np.arange(s // 2 + 1)
    wavenumbers = 2.0 * np.pi * modes / length
    decay = -viscosity * wavenumbers ** 2
    advect = np.where(modes <= s / 3.0, -1j * wavenumbers, 0.0)  # 2/3-rule mask
    keep = modes <= s / 3.0
    h = grid.spacing
    if dt is None:
        dt = 0.2 * h ** 2 / viscosity
        if nonlinear:
            speed = max(np.max(np.abs(u0)), 1e-12)
            dt = min(dt, 0.2 * h / speed)
    steps = max(1, int(np.ceil(final_time / dt)))
    if steps > BURGERS_MAX_STEPS:
        raise SolverError(f"{steps} RK4 steps to time {final_time}, over {BURGERS_MAX_STEPS}")
    dt = final_time / steps
    blowup = 1e6 * (1.0 + np.max(np.abs(u0)))

    if nonlinear:
        def rhs(state: np.ndarray) -> np.ndarray:
            u = np.fft.irfft(np.where(keep, state, 0.0), n=s)
            return decay * state + advect * np.fft.rfft(0.5 * u * u)
    else:
        def rhs(state: np.ndarray) -> np.ndarray:
            return decay * state

    state = np.fft.rfft(u0)
    for step in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + (0.5 * dt) * k1)
        k3 = rhs(state + (0.5 * dt) * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % 200 == 0 or step == steps - 1:
            peak = np.max(np.abs(state)) / s
            if not np.isfinite(peak) or peak > blowup:
                raise SolverError(
                    f"time integration blew up at step {step}; reduce the step "
                    f"size (current dt = {dt:.3e})"
                )
    return np.fft.irfft(state, n=s)


def make_dataset(
    pde: str,
    spec: CovarianceSpec,
    num_pairs: int,
    s: int,
    stream: RngStream,
    *,
    viscosity: float = BURGERS_VISCOSITY,
    final_time: float = BURGERS_FINAL_TIME,
) -> OperatorDataset:
    """Synthesize num_pairs input/output samples for one model problem.

    Inputs are Gaussian-process draws (for darcy2d, the thresholded
    coefficient field; the source term is fixed at 1).  Each pair uses a
    child stream derived from the pair index, so the dataset is deterministic
    per seed and pair i has the same bits for every num_pairs above i.

    Both (num_pairs, ...) arrays are allocated first.  1D pairs are drawn,
    and Poisson pairs solved, one numerics.row_blocks block at a time into
    them; each row's draw and solve is its own arithmetic, so the block size
    does not change a bit.  Burgers and Darcy pairs are solved one at a
    time.  The provenance records every field of spec.
    """
    if num_pairs < 0:
        raise ValueError("num_pairs must be nonnegative")
    solver_params: dict = {}
    if pde == "burgers1d":
        solver_params = {"viscosity": viscosity, "final_time": final_time}
    elif pde == "darcy2d":
        solver_params = {"source": 1.0}
    elif pde != "poisson1d":
        raise ValueError(f"unknown model problem {pde!r}")

    provenance = {
        "pde": pde,
        "covariance": dataclasses.asdict(spec),
        "seed": stream.seed,
        "resolution": s,
        "solver": solver_params,
    }
    if not num_pairs:
        return OperatorDataset(None, np.empty(0), np.empty(0), provenance)

    # both arrays exist before the first draw, so a size that cannot be held
    # fails here, at once
    shape = (num_pairs, s, s) if pde == "darcy2d" else (num_pairs, s)
    try:
        inputs, outputs = np.empty(shape), np.empty(shape)
    except ValueError as exc:  # numpy's "array is too big": more bytes than an intp counts
        raise MemoryError(str(exc)) from exc
    if pde == "darcy2d":
        grid = Grid2D(s)
    else:
        basis = kl_decompose(spec, s)
        grid = Grid1D(s, 0.0, 2.0 * np.pi, periodic=True) if pde == "burgers1d" else basis.grid
        for rows in row_blocks(num_pairs, s):
            inputs[rows] = sample_gp(basis, map(stream.derive, range(rows.start, rows.stop)))
            if pde == "poisson1d":
                try:
                    outputs[rows] = solve_poisson_1d(grid, inputs[rows])
                except Exception as exc:
                    raise SolverError(f"pairs {rows.start}-{rows.stop - 1}: {exc}") from exc
    if pde != "poisson1d":
        for i in range(num_pairs):
            try:
                if pde == "burgers1d":
                    outputs[i] = solve_burgers_1d(grid, inputs[i], viscosity, final_time)
                else:
                    inputs[i] = darcy_coefficient(stream.derive(i), spec, s)
                    outputs[i] = solve_darcy_2d(grid, inputs[i], np.ones((s, s)))
            except Exception as exc:
                raise SolverError(f"pair {i}: {exc}") from exc
    return OperatorDataset(grid, inputs, outputs, provenance)
