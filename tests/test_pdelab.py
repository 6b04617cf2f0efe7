import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlab import numerics
from operlab.grids import Grid1D, Grid2D
from operlab.numerics import RngStream
from operlab.pdelab import (
    SolverError,
    darcy_coefficient,
    green_poisson_1d,
    make_dataset,
    sample_helmholtz_periodic_2d,
    solve_burgers_1d,
    solve_darcy_2d,
    solve_poisson_1d,
)
from operlab.probes import CovarianceSpec

from helpers import SMOOTH_PERIODIC

SE005 = CovarianceSpec("squared-exponential", length_scale=0.05)
POISSON_SPECS = (
    SE005,
    CovarianceSpec("matern", length_scale=0.1, smoothness=0.7),  # the Bessel path
    CovarianceSpec("matern", length_scale=0.1, smoothness=2.5),
)
DARCY_SPEC = CovarianceSpec(
    "helmholtz-power", smoothness=2.0, amplitude=1.0, shift=9.0, periodic=True
)


class TestGreenFunction:
    def test_boundary_and_symmetry(self):
        x = np.linspace(0, 1, 13)
        assert np.allclose(green_poisson_1d(x, np.zeros_like(x)), 0.0)
        assert np.allclose(green_poisson_1d(x, np.ones_like(x)), 0.0)
        y = np.linspace(0, 1, 13)[::-1]
        assert np.allclose(green_poisson_1d(x, y), green_poisson_1d(y, x))

    def test_center_value_against_solver(self):
        # G(0.5, 0.5) = 0.25, and integrating G(0.5, .) against pi^2 sin(pi y)
        # must reproduce u(0.5) = sin(pi/2) = 1
        assert green_poisson_1d(0.5, 0.5) == 0.25
        y = np.linspace(0, 1, 2001)
        w = Grid1D(2001).quad_weights()
        integral = np.sum(w * green_poisson_1d(0.5, y) * np.pi ** 2 * np.sin(np.pi * y))
        assert abs(integral - 1.0) <= 1e-5

    def test_domain_check(self):
        with pytest.raises(ValueError):
            green_poisson_1d(1.5, 0.5)


class TestPoissonSolver:
    def test_zero_source(self):
        grid = Grid1D(17)
        u = solve_poisson_1d(grid, np.zeros(17))
        assert np.all(u == 0.0)

    def test_manufactured_solution_order(self):
        errors = []
        for s in (33, 65, 129):
            grid = Grid1D(s)
            x = grid.points()
            u = solve_poisson_1d(grid, np.pi ** 2 * np.sin(np.pi * x))
            errors.append(np.max(np.abs(u - np.sin(np.pi * x))))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_against_green_quadrature(self):
        from operlab.probes import kl_decompose, sample_gp

        s = 200
        basis = kl_decompose(SE005, s)
        f = sample_gp(basis, [RngStream(21)])[0]
        u = solve_poisson_1d(basis.grid, f)
        x = basis.grid.points()
        w = basis.grid.quad_weights()
        oracle = green_poisson_1d(x[:, None], x[None, :]) @ (w * f)
        assert np.max(np.abs(u - oracle)) <= 1e-3 * max(np.max(np.abs(u)), 1e-30)

    def test_linearity(self):
        grid = Grid1D(41)
        f1 = RngStream(22).standard_normal(41)
        f2 = RngStream(23).standard_normal(41)
        lhs = solve_poisson_1d(grid, 2.0 * f1 - 3.0 * f2)
        rhs = 2.0 * solve_poisson_1d(grid, f1) - 3.0 * solve_poisson_1d(grid, f2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_three_point_grid(self):
        # one interior node: -(0 - 2u + 0)/h^2 = f, so u = f h^2 / 2
        assert np.array_equal(solve_poisson_1d(Grid1D(3), np.array([0.0, 8.0, 0.0])), [0.0, 1.0, 0.0])
        f = RngStream(24).standard_normal((5, 3))
        u = solve_poisson_1d(Grid1D(3), f)
        assert np.all(u[:, [0, 2]] == 0.0)
        assert np.allclose(u[:, 1], f[:, 1] * 0.25 / 2, rtol=1e-15, atol=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            solve_poisson_1d(Grid1D(16, periodic=True), np.zeros(16))
        with pytest.raises(ValueError):
            solve_poisson_1d(Grid1D(16, 0.0, 2.0), np.zeros(16))
        with pytest.raises(ValueError):
            solve_poisson_1d(Grid1D(16), np.zeros(15))
        with pytest.raises(ValueError):
            solve_poisson_1d(Grid1D(16), np.full(16, np.nan))

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 256, 512]) | st.integers(3, 512),
        rows=st.none() | st.integers(1, 6),
        source=st.sampled_from(("normal", "tiny", "huge") + POISSON_SPECS),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(n=3, rows=None, source="normal", seed=0)
    @example(n=512, rows=6, source=SE005, seed=1)
    def test_same_bits_as_lapack(self, n, rows, source, seed):
        """The sweep rounds exactly as LAPACK ?ptsv does when scipy solves
        the same system from its two-row band (boundary rows are identity
        rows with zero data), for 1D sources and (N, n) blocks."""
        from scipy.linalg import solveh_banded

        from operlab.probes import kl_decompose, sample_gp

        count = 1 if rows is None else rows
        streams = [RngStream(seed).derive(i) for i in range(count)]
        if isinstance(source, CovarianceSpec):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # coarse grids under-resolve
                f = sample_gp(kl_decompose(source, n), streams)
        else:
            scale = {"normal": 1.0, "tiny": 1e-300, "huge": 1e300}[source]
            f = scale * np.array([stream.standard_normal(n) for stream in streams])
        if rows is None:
            f = f[0]
        given_f = f.copy()
        grid = Grid1D(n)
        h2 = grid.spacing ** 2
        bands = np.zeros((2, n))
        bands[0, 2:-1] = -1.0 / h2
        bands[1, 1:-1] = 2.0 / h2
        bands[1, [0, -1]] = 1.0
        rhs = f.copy()
        rhs[..., [0, -1]] = 0.0
        expected = solveh_banded(bands, rhs.T).T
        u = solve_poisson_1d(grid, f)
        assert u.shape == f.shape
        assert np.array_equal(u, expected)
        assert np.array_equal(f, given_f)


class TestDarcy:
    def test_coefficient_is_thresholded_field(self):
        a = darcy_coefficient(RngStream(30), DARCY_SPEC, 16)
        field = sample_helmholtz_periodic_2d(DARCY_SPEC, 16, RngStream(30))
        assert np.array_equal(a, np.where(field >= 0.0, 12.0, 3.0))
        assert set(np.unique(a)) <= {3.0, 12.0}

    def test_field_variance_matches_spectrum(self):
        s = 16
        modes = np.fft.fftfreq(s, d=1.0 / s)
        radii = modes[:, None] ** 2 + modes[None, :] ** 2
        lam = ((2 * np.pi) ** 2 * radii + 9.0) ** -2.0
        expected = lam.sum()
        fields = np.array(
            [sample_helmholtz_periodic_2d(DARCY_SPEC, s, RngStream(40).derive(i)) for i in range(400)]
        )
        measured = np.mean(fields ** 2)
        assert abs(measured - expected) <= 0.15 * expected

    def test_constant_coefficient_reference(self):
        # Richardson self-convergence: halving h divides the error by ~4
        solutions = {}
        for s in (33, 65, 129):
            solutions[s] = solve_darcy_2d(Grid2D(s), np.ones((s, s)), np.ones((s, s)))
        e1 = np.max(np.abs(solutions[33] - solutions[65][::2, ::2]))
        e2 = np.max(np.abs(solutions[65] - solutions[129][::2, ::2]))
        assert 3.0 <= e1 / e2 <= 5.0
        # coarse solution within twice the reference error of the fine restriction
        assert np.max(np.abs(solutions[33] - solutions[129][::4, ::4])) <= 2.0 * e1

    def test_constant_scaling(self):
        s = 17
        grid = Grid2D(s)
        f = np.ones((s, s))
        u1 = solve_darcy_2d(grid, np.ones((s, s)), f)
        u4 = solve_darcy_2d(grid, 4.0 * np.ones((s, s)), f)
        assert np.allclose(u4, u1 / 4.0, atol=1e-12)

    def test_zero_source(self):
        s = 12
        grid = Grid2D(s)
        a = darcy_coefficient(RngStream(31), DARCY_SPEC, s)
        u = solve_darcy_2d(grid, a, np.zeros((s, s)))
        assert np.all(u == 0.0)

    def test_maximum_principle(self):
        s = 24
        a = darcy_coefficient(RngStream(32), DARCY_SPEC, s)
        u = solve_darcy_2d(Grid2D(s), a, np.ones((s, s)))
        assert np.min(u) >= -1e-12

    def test_linearity(self):
        s = 17
        grid = Grid2D(s)
        a = darcy_coefficient(RngStream(33), DARCY_SPEC, s)
        f1 = RngStream(34).standard_normal((s, s))
        f2 = RngStream(35).standard_normal((s, s))
        combo = solve_darcy_2d(grid, a, 1.5 * f1 + 0.5 * f2)
        parts = 1.5 * solve_darcy_2d(grid, a, f1) + 0.5 * solve_darcy_2d(grid, a, f2)
        assert np.linalg.norm(combo - parts) <= 1e-10 * max(np.linalg.norm(parts), 1e-30)

    def test_nonpositive_coefficient_rejected(self):
        s = 10
        grid = Grid2D(s)
        bad = np.ones((s, s))
        bad[3, 3] = 0.0
        with pytest.raises(SolverError):
            solve_darcy_2d(grid, bad, np.ones((s, s)))


class TestBurgers:
    def grid(self, s):
        return Grid1D(s, 0.0, 2.0 * np.pi, periodic=True)

    def test_zero_initial_condition(self):
        u = solve_burgers_1d(self.grid(64), np.zeros(64))
        assert np.all(u == 0.0)

    def test_mean_conservation(self):
        grid = self.grid(128)
        u0 = RngStream(50).standard_normal(128) * 0.3 + 0.7
        u = solve_burgers_1d(grid, u0)
        assert abs(u.mean() - u0.mean()) <= 1e-10

    def test_two_resolution_consistency(self):
        grid = self.grid(128)
        u0 = np.sin(grid.points()) + 0.3 * np.cos(2 * grid.points())
        coarse = solve_burgers_1d(grid, u0)
        fine_grid = self.grid(512)
        u0f = np.sin(fine_grid.points()) + 0.3 * np.cos(2 * fine_grid.points())
        fine = solve_burgers_1d(fine_grid, u0f)
        rel = np.linalg.norm(coarse - fine[::4]) / np.linalg.norm(fine[::4])
        assert rel <= 1e-6

    def test_heat_decay_with_nonlinearity_disabled(self):
        grid = self.grid(64)
        u0 = np.sin(grid.points())
        u = solve_burgers_1d(grid, u0, viscosity=0.5, final_time=1.0, nonlinear=False)
        ratio = np.abs(np.fft.rfft(u)[1]) / np.abs(np.fft.rfft(u0)[1])
        assert abs(ratio - np.exp(-0.5)) <= 0.05 * np.exp(-0.5)

    def test_linearity_without_flux(self):
        grid = self.grid(64)
        f1 = RngStream(51).standard_normal(64)
        f2 = RngStream(52).standard_normal(64)
        combo = solve_burgers_1d(grid, f1 + 2.0 * f2, nonlinear=False)
        parts = solve_burgers_1d(grid, f1, nonlinear=False) \
            + 2.0 * solve_burgers_1d(grid, f2, nonlinear=False)
        assert np.linalg.norm(combo - parts) <= 1e-10 * np.linalg.norm(parts)

    def test_instability_detected(self):
        grid = self.grid(256)
        x = grid.points()
        u0 = np.sin(x) + 0.1 * np.sin(60 * x)
        with pytest.raises(SolverError, match="step"):
            solve_burgers_1d(grid, u0, dt=0.5)

    @pytest.mark.parametrize("changes", [{"final_time": 2.0 ** 70}, {"viscosity": 2.0 ** 70},
                                         {"amplitude": 2.0 ** 70}],
                             ids=["final-time", "viscosity", "amplitude"])
    def test_run_beyond_the_step_limit_is_refused(self, changes):
        """A final time, a viscosity or an input so large that the run would
        take more than BURGERS_MAX_STEPS steps fails before the first step."""
        grid = self.grid(16)
        u0 = changes.pop("amplitude", 1.0) * np.sin(grid.points())
        with pytest.raises(SolverError, match="RK4 steps to time .*, over 10000000"):
            solve_burgers_1d(grid, u0, **changes)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            solve_burgers_1d(Grid1D(64), np.zeros(64))
        with pytest.raises(ValueError):
            solve_burgers_1d(Grid1D(48, 0, 2 * np.pi, periodic=True), np.zeros(48))
        with pytest.raises(ValueError):
            solve_burgers_1d(self.grid(64), np.zeros(32))


class TestMakeDataset:
    def test_empty_dataset(self):
        ds = make_dataset("poisson1d", SE005, 0, 50, RngStream(60))
        assert len(ds) == 0
        assert ds.provenance["pde"] == "poisson1d"
        assert ds.provenance["seed"] == 60

    def test_poisson_residual_recheck(self):
        ds = make_dataset("poisson1d", SE005, 20, 100, RngStream(61))
        h = ds.grid.spacing
        for f, u in zip(ds.input_values, ds.output_values):
            interior = -(u[:-2] - 2 * u[1:-1] + u[2:]) / h ** 2
            residual = np.max(np.abs(interior - f[1:-1]))
            assert residual <= 1e-8 * max(np.max(np.abs(f)), 1.0)
            assert u[0] == 0.0 and u[-1] == 0.0

    def test_determinism(self):
        a = make_dataset("poisson1d", SE005, 3, 60, RngStream(62))
        b = make_dataset("poisson1d", SE005, 3, 60, RngStream(62))
        assert np.array_equal(a.input_values, b.input_values)
        assert np.array_equal(a.output_values, b.output_values)

    def test_burgers_two_resolution_restriction(self):
        coarse = make_dataset("burgers1d", SMOOTH_PERIODIC, 1, 256, RngStream(63))
        fine = make_dataset("burgers1d", SMOOTH_PERIODIC, 1, 2048, RngStream(63))
        restricted = fine.output_values[0, ::8]
        rel = np.linalg.norm(coarse.output_values[0] - restricted) / np.linalg.norm(restricted)
        assert rel <= 1e-5

    def test_darcy_smoke(self):
        ds = make_dataset("darcy2d", DARCY_SPEC, 2, 16, RngStream(64))
        assert set(np.unique(ds.input_values[0])) <= {3.0, 12.0}
        assert np.min(ds.output_values[0]) >= -1e-12
        assert ds.provenance["solver"] == {"source": 1.0}

    def test_unknown_pde(self):
        with pytest.raises(ValueError):
            make_dataset("heat3d", SE005, 1, 16, RngStream(65))

    def test_error_names_pair(self):
        with pytest.raises(SolverError, match="pair 0"):
            make_dataset("burgers1d", SMOOTH_PERIODIC, 1, 48, RngStream(66))


class TestBatchInvariance:
    """Pair i is the same bits however many pairs are generated with it, and
    in blocks of any size, and a block solve is the same bits as solving row
    by row."""

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(0, 40),
        extra=st.integers(1, 24),
        s=st.sampled_from([3, 4, 5, 100, 256]) | st.integers(3, 64),
        spec=st.sampled_from(POISSON_SPECS),
        seed=st.integers(0, 2 ** 32 - 1),
        # blocks of one pair, of a few, and of more pairs than any count here
        block_entries=st.sampled_from([1, 7, 100, numerics.BLOCK_ENTRIES]),
    )
    @example(count=1, extra=7, s=100, spec=SE005, seed=0, block_entries=numerics.BLOCK_ENTRIES)
    @example(count=1, extra=1, s=256, spec=POISSON_SPECS[1], seed=1,
             block_entries=numerics.BLOCK_ENTRIES)
    @example(count=40, extra=24, s=3, spec=SE005, seed=2, block_entries=7)  # 2-pair blocks
    def test_rows_do_not_depend_on_the_batch(self, count, extra, s, spec, seed, block_entries):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # coarse grids under-resolve
            with mock.patch.object(numerics, "BLOCK_ENTRIES", block_entries):
                small = make_dataset("poisson1d", spec, count, s, RngStream(seed))
            large = make_dataset("poisson1d", spec, count + extra, s, RngStream(seed))
        head = slice(0, count)
        shape = large.input_values[head].shape  # an empty dataset stores shape (0,)
        assert np.array_equal(small.input_values.reshape(shape), large.input_values[head])
        assert np.array_equal(small.output_values.reshape(shape), large.output_values[head])
        block = large.input_values
        solved = solve_poisson_1d(large.grid, block)
        assert np.array_equal(solved, large.output_values)
        for row, u in zip(block, solved):
            assert np.array_equal(solve_poisson_1d(large.grid, row), u)

    def test_burgers_draws_do_not_depend_on_the_block(self):
        spec = CovarianceSpec("helmholtz-power", smoothness=3.0, amplitude=400.0, shift=9.0,
                              periodic=True)
        whole = make_dataset("burgers1d", spec, 5, 16, RngStream(9), final_time=0.01)
        with mock.patch.object(numerics, "BLOCK_ENTRIES", 2 * 16):
            blocked = make_dataset("burgers1d", spec, 5, 16, RngStream(9), final_time=0.01)
        assert np.array_equal(blocked.input_values, whole.input_values)
        assert np.array_equal(blocked.output_values, whole.output_values)
