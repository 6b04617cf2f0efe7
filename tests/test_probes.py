import math

import numpy as np
import pytest

from operlab.grids import Grid1D
from operlab.numerics import RngStream
from operlab.probes import (
    HELMHOLTZ_MODE_LIMIT,
    MACHINE_EPS,
    CovarianceSpec,
    KLBasis,
    helmholtz_eigenvalue,
    kernel_eval,
    kl_decompose,
    matern_bessel,
    sample_from_coefficients,
    sample_gp,
    _helmholtz_mode_cap,
)

SE01 = CovarianceSpec("squared-exponential", length_scale=0.1)
ROUGH_PERIODIC = CovarianceSpec("helmholtz-power", smoothness=1.0, shift=9.0, periodic=True)


class RecordingStream:
    """A stream stub that records the size of every normal draw asked of
    it and returns ones."""

    def __init__(self):
        self.sizes = []

    def standard_normal(self, size) -> np.ndarray:
        self.sizes.append(size)
        return np.ones(size)


class TestKernelEval:
    def test_unit_variance_on_diagonal(self):
        x = np.linspace(0, 1, 11)
        assert np.allclose(kernel_eval(SE01, x, x), 1.0)
        matern = CovarianceSpec("matern", length_scale=0.2, smoothness=1.5)
        assert np.allclose(kernel_eval(matern, x, x), 1.0)

    def test_se_closed_form(self):
        assert math.isclose(kernel_eval(SE01, 0.0, 0.1), math.exp(-0.5), rel_tol=1e-12)

    def test_symmetry(self):
        xs = RngStream(0).standard_normal(20) % 1.0
        ys = RngStream(1).standard_normal(20) % 1.0
        for spec in (
            SE01,
            CovarianceSpec("matern", length_scale=0.3, smoothness=2.5),
            CovarianceSpec("helmholtz-power", smoothness=2.0, shift=9.0, periodic=True),
        ):
            assert np.allclose(kernel_eval(spec, xs, ys), kernel_eval(spec, ys, xs))

    def test_matern_half_closed_form_vs_bessel(self):
        d = np.linspace(0.0, 0.9, 50)
        ell = 0.2
        spec = CovarianceSpec("matern", length_scale=ell, smoothness=0.5)
        closed = kernel_eval(spec, d, np.zeros_like(d))
        assert np.allclose(closed, np.exp(-d / ell), rtol=1e-12)
        series = matern_bessel(d, ell, 0.5)
        assert np.allclose(closed, series, rtol=1e-10)

    @pytest.mark.parametrize("smoothness", [1.5, 2.5])
    def test_matern_higher_closed_forms_vs_bessel(self, smoothness):
        d = np.linspace(0.0, 0.9, 50)
        spec = CovarianceSpec("matern", length_scale=0.15, smoothness=smoothness)
        closed = kernel_eval(spec, d, np.zeros_like(d))
        series = matern_bessel(d, 0.15, smoothness)
        assert np.allclose(closed, series, rtol=1e-9)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(SE01, -0.1, 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec("squared-exponential")
        with pytest.raises(ValueError):
            CovarianceSpec("matern", length_scale=0.1)
        with pytest.raises(ValueError):
            CovarianceSpec("helmholtz-power", smoothness=2.0, periodic=False)
        with pytest.raises(ValueError):
            CovarianceSpec("gaussian", length_scale=0.1)


class TestKlDecompose:
    def test_eigen_decay_ordering(self):
        curves = {}
        for ell in (0.1, 0.05, 0.01):
            spec = CovarianceSpec("squared-exponential", length_scale=ell)
            basis = kl_decompose(spec, 100)
            lam = basis.eigenvalues
            curves[ell] = lam / lam[0]
        for j in (3, 5, 8):
            # larger length scale => faster decay
            assert curves[0.1][j] < curves[0.05][j] < curves[0.01][j]
        for ell, curve in curves.items():
            assert np.all(np.diff(curve) <= 1e-15)

    def test_weighted_orthonormality(self):
        basis = kl_decompose(CovarianceSpec("squared-exponential", length_scale=0.05), 120)
        w = basis.grid.quad_weights()
        gram = basis.functions.T @ (w[:, None] * basis.functions)
        assert np.linalg.norm(gram - np.eye(basis.truncation)) <= 1e-10 * basis.truncation

    def test_helmholtz_analytic_eigenvalues(self):
        spec = CovarianceSpec(
            "helmholtz-power", smoothness=2.0, amplitude=1.0, shift=9.0, periodic=True
        )
        basis = kl_decompose(spec, 64)
        assert math.isclose(basis.eigenvalues[0], 9.0 ** -2, rel_tol=1e-12)
        # cosine/sine pairs share lambda_j = ((2 pi j)^2 + 9)^-2
        for j in (1, 2, 5):
            expected = ((2 * np.pi * j) ** 2 + 9.0) ** -2
            assert math.isclose(basis.eigenvalues[2 * j - 1], expected, rel_tol=1e-12)
            assert math.isclose(basis.eigenvalues[2 * j], expected, rel_tol=1e-12)
        w = basis.grid.quad_weights()
        gram = basis.functions.T @ (w[:, None] * basis.functions)
        assert np.linalg.norm(gram - np.eye(basis.truncation)) <= 1e-10 * basis.truncation

    def test_near_constant_kernel_collapses(self):
        # machine-precision truncation keeps a handful of modes here (J = 5);
        # the effective dimension collapses as the length scale grows
        basis = kl_decompose(CovarianceSpec("squared-exponential", length_scale=10.0), 50)
        assert basis.truncation <= 6
        wider = kl_decompose(CovarianceSpec("squared-exponential", length_scale=100.0), 50)
        assert wider.truncation < basis.truncation

    def test_mercer_reconstruction(self):
        spec = CovarianceSpec("squared-exponential", length_scale=0.05)
        basis = kl_decompose(spec, 200)
        x = basis.grid.points()
        rebuilt = (basis.functions * basis.eigenvalues[None, :]) @ basis.functions.T
        truth = kernel_eval(spec, x[:, None], x[None, :])
        assert np.max(np.abs(rebuilt - truth)) <= 1e-8

    def test_under_resolved_warning(self):
        with pytest.warns(UserWarning, match="under-resolves"):
            kl_decompose(CovarianceSpec("squared-exponential", length_scale=0.01), 50)

    def test_sensor_count_validation(self):
        with pytest.raises(ValueError):
            kl_decompose(SE01, 1)

    def test_non_finite_gram_is_rejected(self):
        # the Bessel formula overflows at a huge smoothness, an integer beyond
        # int64 included
        spec = CovarianceSpec("matern", length_scale=0.1, smoothness=2 ** 70)
        with pytest.raises(ValueError, match="not finite"):
            kl_decompose(spec, 32)

    @pytest.mark.parametrize("spec", [SE01, CovarianceSpec("matern", length_scale=0.1,
                                                            smoothness=1.5)],
                             ids=["squared-exponential", "matern"])
    def test_first_big_lobe_of_each_eigenfunction_is_positive(self, spec):
        for column in kl_decompose(spec, 100).functions.T:
            lobe = np.flatnonzero(np.abs(column) >= 0.5 * np.abs(column).max())[0]
            assert column[lobe] > 0

    def test_indefinite_gram_names_eigenvalue(self):
        # wrapped-distance SE on a circle is genuinely indefinite at this scale
        spec = CovarianceSpec("squared-exponential", length_scale=0.5, periodic=True)
        with pytest.raises(ValueError, match="smallest eigenvalue -"):
            kl_decompose(spec, 64)


class TestSampling:
    def test_zero_spectrum_gives_zero_function(self):
        grid = Grid1D(16)
        basis = KLBasis(SE01, grid, np.zeros(3), np.ones((16, 3)))
        assert basis.truncation == 3
        samples = sample_gp(basis, [RngStream(0), RngStream(1)])
        assert samples.shape == (2, 16)
        assert np.all(samples == 0.0)

    def test_determinism(self):
        basis = kl_decompose(SE01, 64)
        a = sample_gp(basis, [RngStream(11)])[0]
        b = sample_gp(basis, [RngStream(11)])[0]
        assert np.array_equal(a, b)

    def test_coefficient_linearity(self):
        basis = kl_decompose(SE01, 64)
        coeffs = RngStream(12).standard_normal(basis.truncation)
        one = sample_from_coefficients(basis, coeffs)
        # power-of-two scale commutes with rounding, so equality is exact
        doubled = sample_from_coefficients(basis, 2.0 * coeffs)
        assert np.array_equal(doubled, 2.0 * one)
        tripled = sample_from_coefficients(basis, 3.0 * coeffs)
        assert np.allclose(tripled, 3.0 * one, rtol=1e-14, atol=0)

    def test_empirical_covariance(self):
        basis = kl_decompose(SE01, 64)
        count = 4000
        samples = sample_gp(basis, (RngStream(7000).derive(i) for i in range(count)))
        emp = samples.T @ samples / count
        x = basis.grid.points()
        truth = kernel_eval(SE01, x[:, None], x[None, :])
        assert np.max(np.abs(emp - truth)) <= 0.1

    def test_long_length_scale_flat_samples(self):
        basis = kl_decompose(CovarianceSpec("squared-exponential", length_scale=100.0), 50)
        for seed in range(5):
            sample = sample_gp(basis, [RngStream(seed)])[0]
            assert sample.max() - sample.min() <= 0.05

    def test_helmholtz_samples_of_one_stream_agree_across_resolutions(self):
        """A stream's k-th deviate is the k-th coefficient at every
        resolution, so one stream draws the same function on a coarse and a
        fine grid, up to the modes the coarse grid cannot carry."""
        spec = CovarianceSpec(
            "helmholtz-power", smoothness=3.0, amplitude=400.0, shift=9.0, periodic=True
        )
        coarse = kl_decompose(spec, 256)
        fine = kl_decompose(spec, 2048)
        assert coarse.truncation < fine.truncation
        a = sample_gp(coarse, [RngStream(14)])[0]
        b = sample_gp(fine, [RngStream(14)])[0]
        rel = np.linalg.norm(a - b[::8]) / np.linalg.norm(b[::8])
        assert rel <= 1e-5  # only super-Nyquist content differs

    def test_coefficients_must_match_the_basis(self):
        basis = kl_decompose(SE01, 64)
        for count in (basis.truncation - 1, basis.truncation + 1):
            with pytest.raises(ValueError, match="last axis"):
                sample_from_coefficients(basis, np.ones(count))

    @pytest.mark.parametrize("spec", [SE01, ROUGH_PERIODIC],
                             ids=["squared-exponential", "helmholtz-smoothness-1"])
    def test_each_stream_is_asked_for_the_kept_coefficients(self, spec):
        """sample_gp asks each stream for basis.truncation deviates.  At
        smoothness 1 the mode cap is the limit, 999 999 modes, but a 64-point
        grid carries 31 of them, so the basis keeps 63 coefficients."""
        basis = kl_decompose(spec, 64)
        if spec is ROUGH_PERIODIC:
            assert basis.truncation == 63
        streams = [RecordingStream(), RecordingStream()]
        samples = sample_gp(basis, streams)
        assert [stream.sizes for stream in streams] == [[basis.truncation]] * 2
        expected = sample_from_coefficients(basis, np.ones(basis.truncation))
        assert np.array_equal(samples, np.stack([expected, expected]))


def test_helmholtz_zero_shift_excludes_constant():
    spec = CovarianceSpec("helmholtz-power", smoothness=2.0, shift=0.0, periodic=True)
    assert helmholtz_eigenvalue(spec, 0) == 0.0
    basis = kl_decompose(spec, 32)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-18)
    assert np.allclose(basis.functions[:, 0], np.sqrt(2) * np.cos(2 * np.pi * basis.grid.points()))


def test_helmholtz_kernel_sums_the_modes_the_basis_keeps():
    # at smoothness 1.5 the mode cap is 165140, the most modes a KL basis
    # keeps; the reference covariance must sum exactly those, in order, and
    # no others
    spec = CovarianceSpec("helmholtz-power", smoothness=1.5, shift=0.0, periodic=True)
    cap = _helmholtz_mode_cap(spec)
    assert cap == 165140
    total = helmholtz_eigenvalue(spec, 0)
    for mode in range(1, cap + 1):
        total = total + 2.0 * helmholtz_eigenvalue(spec, mode)
    assert kernel_eval(spec, 0.0, 0.0) == total


@pytest.mark.parametrize("smoothness,shift", [(2.5, 9.0), (3.0, 0.0)])
def test_helmholtz_gram_equals_its_scalar_evaluations(smoothness, shift):
    """The series is summed once per distinct distance, in the same mode
    order as for one entry, so each Gram entry keeps its bits."""
    spec = CovarianceSpec("helmholtz-power", smoothness=smoothness, shift=shift, periodic=True)
    x = Grid1D(12, periodic=True).points()
    gram = kernel_eval(spec, x[:, None], x[None, :])
    assert gram.shape == (12, 12)
    scalar = np.array([[kernel_eval(spec, a, b) for b in x] for a in x])
    assert gram.tobytes() == scalar.tobytes()


def looped_periodic_basis(spec: CovarianceSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The helmholtz-power KL functions and eigenvalues built mode by mode:
    the constant (if its eigenvalue is positive), then the cosine and sine
    of each mode the grid represents.  The reference for the array build."""
    x = Grid1D(m, 0.0, 1.0, periodic=True).points()
    columns, eigenvalues = [], []
    if helmholtz_eigenvalue(spec, 0) > 0.0:
        columns.append(np.ones(m))
        eigenvalues.append(helmholtz_eigenvalue(spec, 0))
    for mode in range(1, min(_helmholtz_mode_cap(spec), (m - 1) // 2) + 1):
        phase = 2.0 * np.pi * mode * x
        columns += [np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)]
        eigenvalues += [helmholtz_eigenvalue(spec, mode)] * 2
    return np.column_stack(columns), np.asarray(eigenvalues)


@pytest.mark.parametrize("m", [3, 8, 33, 256, 1024])
@pytest.mark.parametrize("smoothness, amplitude, shift",
                         [(1.0, 1.0, 9.0), (2.0, 1.0, 0.0), (3.0, 400.0, 9.0), (4.5, 1e-3, 1.0)])
def test_helmholtz_basis_matches_the_mode_loop(m, smoothness, amplitude, shift):
    spec = CovarianceSpec("helmholtz-power", smoothness=smoothness, amplitude=amplitude,
                          shift=shift, periodic=True)
    basis = kl_decompose(spec, m)
    functions, eigenvalues = looped_periodic_basis(spec, m)
    assert np.array_equal(basis.functions, functions)
    assert np.array_equal(basis.eigenvalues, eigenvalues)


def walked_mode_cap(spec: CovarianceSpec) -> int:
    """The mode cap found by walking the modes one by one from 1 until an
    eigenvalue falls below machine precision relative to the largest, or
    the mode limit is passed: the reference for the closed form."""
    top = max(helmholtz_eigenvalue(spec, 0), helmholtz_eigenvalue(spec, 1))
    mode = 1
    while helmholtz_eigenvalue(spec, mode) >= MACHINE_EPS * top and mode < 1_000_000:
        mode += 1
    return mode - 1


@pytest.mark.parametrize("smoothness", [1.6, 2.0, 3.0, 4.5, 7.3])
@pytest.mark.parametrize("shift", [0.0, 1.0, 9.0, 1e4])
def test_helmholtz_mode_cap_matches_the_walk(smoothness, shift):
    """The closed-form mode cap equals the walk for amplitudes far apart,
    including specs whose cap is the mode limit (smoothness 1.6, shift 1e4)."""
    for amplitude in (1e-3, 1.0, 400.0):
        spec = CovarianceSpec("helmholtz-power", smoothness=smoothness, amplitude=amplitude,
                              shift=shift, periodic=True)
        assert _helmholtz_mode_cap(spec) == walked_mode_cap(spec)


def test_helmholtz_mode_cap_of_the_burgers_and_darcy_specs():
    burgers = CovarianceSpec("helmholtz-power", smoothness=3.0, amplitude=400.0, shift=9.0,
                             periodic=True)
    darcy = CovarianceSpec("helmholtz-power", smoothness=2.0, shift=9.0, periodic=True)
    assert _helmholtz_mode_cap(burgers) == walked_mode_cap(burgers) == 194
    assert _helmholtz_mode_cap(darcy) == walked_mode_cap(darcy)
    limit = CovarianceSpec("helmholtz-power", smoothness=1e-3, periodic=True)
    assert _helmholtz_mode_cap(limit) == HELMHOLTZ_MODE_LIMIT
