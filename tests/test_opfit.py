import numpy as np
import pytest

from operlab.grids import FunctionSample, Grid1D, OperatorDataset
from operlab.numerics import RngStream
from operlab.opfit import (
    LOSS_KINDS,
    DenseKernelModel,
    HierarchicalKernelModel,
    batch_loss,
    compute_loss,
    fit_fourier_multiplier,
    fit_green_kernel,
    fit_low_rank,
    green_fit_objective,
    hierarchical_decompose,
    truncate_band,
)
from operlab.pdelab import green_poisson_1d, make_dataset
from operlab.probes import CovarianceSpec, kl_decompose, sample_gp
from operlab.recovery import recover_circulant, relative_residual
from operlab.structured import MatvecOracle

from helpers import (
    SMOOTH_PERIODIC,
    kernel_l2_distance,
    planted_multiplier_dataset,
    relative_l2_error,
    shifted_poisson_factor,
    white_noise_dataset,
)

SE005 = CovarianceSpec("squared-exponential", length_scale=0.05)


def poisson_dataset(num_pairs, s, seed):
    return make_dataset("poisson1d", SE005, num_pairs, s, RngStream(seed))


def exact_green_matrix(grid):
    x = grid.points()
    return green_poisson_1d(x[:, None], x[None, :])


class TestGreenFit:
    def test_plant_and_recover(self):
        grid = Grid1D(30)
        stream = RngStream(1)
        planted = stream.standard_normal((30, 30))
        ds = white_noise_dataset(grid, planted, 60, seed=2)
        model = fit_green_kernel(ds, ridge=1e-10)
        err = np.linalg.norm(model.kernel - planted) / np.linalg.norm(planted)
        assert err <= 1e-6

    def test_single_pair_interpolates(self):
        ds = poisson_dataset(1, 50, seed=3)
        model = fit_green_kernel(ds, ridge=1e-12)
        pred = model.predict_batch(ds.grid, ds.input_values)[0]
        w = ds.grid.quad_weights()
        num = np.sqrt(np.sum(w * (pred - ds.output_values[0]) ** 2))
        den = np.sqrt(np.sum(w * ds.output_values[0] ** 2))
        assert num / den <= 1e-8

    def test_poisson_kernel_close_to_exact(self):
        ds = poisson_dataset(80, 80, seed=4)
        model = fit_green_kernel(ds, ridge=1e-10)
        exact = exact_green_matrix(ds.grid)
        rel = kernel_l2_distance(ds.grid, model.kernel, exact) / kernel_l2_distance(
            ds.grid, exact, np.zeros_like(exact)
        )
        assert rel <= 0.10

    def test_degenerate_pairs_excluded(self):
        grid = Grid1D(20)
        good_in = FunctionSample(grid, RngStream(5).standard_normal(20))
        good_out = FunctionSample(grid, RngStream(6).standard_normal(20))
        zero = FunctionSample(grid, np.zeros(20))
        ds = OperatorDataset.from_samples([good_in, zero], [good_out, zero], {})
        with pytest.warns(UserWarning, match="zero output norm"):
            model = fit_green_kernel(ds, ridge=1e-8)
        assert model.kernel.shape == (20, 20)

    def test_ridge_optimality(self):
        ds = poisson_dataset(25, 40, seed=7)
        ridge = 1e-8
        model = fit_green_kernel(ds, ridge)
        base = green_fit_objective(ds, model.kernel, ridge)
        for trial in range(20):
            direction = RngStream(800 + trial).standard_normal((40, 40))
            direction *= 1e-4 / np.linalg.norm(direction)
            assert green_fit_objective(ds, model.kernel + direction, ridge) >= base

    def test_default_ridge(self):
        ds = poisson_dataset(40, 50, seed=31)
        model = fit_green_kernel(ds)  # ridge defaults to 1e-8 * trace scale
        assert model.ridge > 0
        preds = model.predict_batch(ds.grid, ds.input_values)
        assert batch_loss("relative-l2", ds.grid, preds, ds.output_values) <= 1e-3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_green_kernel(OperatorDataset.from_samples([], [], {}))


class TestLowRankFit:
    def test_full_rank_equals_dense(self):
        ds = poisson_dataset(20, 32, seed=8)
        dense = fit_green_kernel(ds, ridge=1e-10)
        low = fit_low_rank(ds, 32, ridge=1e-10)
        f = ds.input_values[:1]
        assert np.allclose(low.predict_batch(ds.grid, f), dense.predict_batch(ds.grid, f), atol=1e-12)

    def test_rank_one_plant(self):
        grid = Grid1D(24)
        x = grid.points()
        planted = np.outer(np.sin(np.pi * x), np.cos(np.pi * x))
        ds = white_noise_dataset(grid, planted, 40, seed=9)
        model = fit_low_rank(ds, 1, ridge=1e-12)
        err = np.linalg.norm(model.operator.materialize() - planted) / np.linalg.norm(planted)
        assert err <= 1e-6

    def test_error_tracks_singular_value_tail(self):
        ds = poisson_dataset(80, 64, seed=10)
        dense = fit_green_kernel(ds, ridge=1e-10)
        exact = exact_green_matrix(ds.grid)
        tail = np.linalg.svd(exact, compute_uv=False)
        for rank in (2, 4, 8):
            low = fit_low_rank(ds, rank, ridge=1e-10)
            err = np.linalg.norm(low.operator.materialize() - dense.kernel)
            oracle_tail = np.linalg.norm(tail[rank:])
            assert err <= 1.5 * oracle_tail
            # Eckart-Young: truncation error cannot beat the exact-kernel tail by much
            assert err >= 0.5 * oracle_tail

    def test_rank_validation(self):
        ds = poisson_dataset(5, 32, seed=11)
        with pytest.raises(ValueError):
            fit_low_rank(ds, 33)


class TestFourierFit:
    def test_shifted_poisson_modes(self):
        ds = planted_multiplier_dataset(128, shifted_poisson_factor, 30, seed=12)
        model = fit_fourier_multiplier(ds, 8)
        assert abs(model.mode_value(0) - 1.0) <= 1e-8
        assert abs(model.mode_value(1) - 0.5) <= 1e-8
        assert abs(model.mode_value(2) - 0.2) <= 1e-8

    def test_identity_operator(self):
        ds = planted_multiplier_dataset(64, lambda j: 1.0, 10, seed=13)
        model = fit_fourier_multiplier(ds, 6)
        for mode in range(-6, 7):
            if model.excited[mode + 6]:
                assert abs(model.mode_value(mode) - 1.0) <= 1e-10

    def test_planted_random_multiplier(self):
        values = RngStream(14).standard_normal(9) + 1j * RngStream(15).standard_normal(9)
        values[0] = values[0].real  # mode 0 of a real kernel

        def fn(j):
            if j == 0:
                return values[0]
            if 0 < j <= 8:
                return values[j]
            if -8 <= j < 0:
                return np.conj(values[-j])
            return 0.0

        ds = planted_multiplier_dataset(128, fn, 50, seed=16)
        model = fit_fourier_multiplier(ds, 8)
        for mode in range(-8, 9):
            if model.excited[mode + 8]:
                assert abs(model.mode_value(mode) - fn(mode)) <= 1e-8

    def test_unexcited_mode_flagged_zero(self):
        grid = Grid1D(32, 0.0, 2 * np.pi, periodic=True)
        x = grid.points()
        inputs = [FunctionSample(grid, np.sin(x)), FunctionSample(grid, np.cos(x))]
        outputs = [FunctionSample(grid, 2 * np.sin(x)), FunctionSample(grid, 2 * np.cos(x))]
        model = fit_fourier_multiplier(OperatorDataset.from_samples(inputs, outputs, {}), 4)
        assert model.excited[1 + 4] and model.excited[-1 + 4]
        for mode in (-4, -3, -2, 0, 2, 3, 4):
            assert not model.excited[mode + 4]
            assert model.mode_value(mode) == 0.0
        assert abs(model.mode_value(1) - 2.0) <= 1e-10

    def test_requires_periodic(self):
        ds = poisson_dataset(3, 32, seed=17)
        with pytest.raises(ValueError):
            fit_fourier_multiplier(ds, 4)

    def test_materialized_kernel_is_circulant(self):
        ds = planted_multiplier_dataset(64, shifted_poisson_factor, 20, seed=18)
        model = fit_fourier_multiplier(ds, 10)
        circ = model.to_circulant()
        recovered = recover_circulant(MatvecOracle.from_operator(circ), RngStream(19))
        assert relative_residual(recovered, circ.materialize()) <= 1e-8


class TestBandTruncation:
    def grid_kernel(self, m=201):
        grid = Grid1D(m)
        return grid, exact_green_matrix(grid)

    def test_full_radius_is_identity(self):
        grid, kernel = self.grid_kernel(101)
        model = truncate_band(DenseKernelModel(grid, kernel), 1.0)
        assert np.array_equal(model.kernel, kernel)
        assert model.truncation_error == 0.0

    def test_error_monotone_in_radius(self):
        grid, kernel = self.grid_kernel(101)
        dense = DenseKernelModel(grid, kernel)
        radii = np.linspace(0.02, 1.0, 25)
        errors = [truncate_band(dense, r).truncation_error for r in radii]
        assert all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))

    def test_against_fine_quadrature(self):
        grid, kernel = self.grid_kernel(201)
        dense = DenseKernelModel(grid, kernel)
        fine_grid = Grid1D(2001)
        fine_kernel = exact_green_matrix(fine_grid)
        radius = np.sqrt(2.0) / 10.0
        coarse = truncate_band(dense, radius).truncation_error
        fine = truncate_band(DenseKernelModel(fine_grid, fine_kernel), radius).truncation_error
        assert abs(coarse - fine) <= 0.01 * fine

    def test_radius_validation(self):
        grid, kernel = self.grid_kernel(51)
        with pytest.raises(ValueError):
            truncate_band(DenseKernelModel(grid, kernel), 0.0)
        with pytest.raises(ValueError):
            truncate_band(DenseKernelModel(grid, kernel), 1.5)


class TestHierarchical:
    def test_full_rank_exact(self):
        grid = Grid1D(32)
        kernel = RngStream(20).standard_normal((32, 32))
        model = hierarchical_decompose(DenseKernelModel(grid, kernel), 2, 8)
        assert np.allclose(model.operator.materialize(), kernel, atol=1e-12)
        assert model.total_truncation_error <= 1e-12

    def test_poisson_admissible_blocks_rank_one(self):
        grid = Grid1D(128)
        kernel = exact_green_matrix(grid)
        model = hierarchical_decompose(DenseKernelModel(grid, kernel), 3, 1)
        assert model.blocks  # admissible blocks exist from level 2 on
        for tail in model.tails:
            assert tail <= 1e-10
        err = np.linalg.norm(model.operator.materialize() - kernel)
        assert abs(err - model.total_truncation_error) <= 1e-10

    def test_block_tails_decay_with_rank(self):
        grid = Grid1D(64)
        kernel = exact_green_matrix(grid) + 1e-3 * RngStream(21).standard_normal((64, 64))
        tails = []
        for rank in (1, 2, 4):
            model = hierarchical_decompose(DenseKernelModel(grid, kernel), 2, rank)
            tails.append(max(model.tails))
        assert tails[0] > tails[1] > tails[2]

    def test_model_needs_one_tail_per_block(self):
        grid = Grid1D(64)
        model = hierarchical_decompose(DenseKernelModel(grid, exact_green_matrix(grid)), 2, 1)
        assert len(model.tails) == len(model.blocks)
        with pytest.raises(ValueError):
            HierarchicalKernelModel(model.grid, 2, 1, model.operator, model.tails[1:])

    def test_predict_matches_dense_within_tail(self):
        ds = poisson_dataset(30, 64, seed=22)
        dense = fit_green_kernel(ds, ridge=1e-10)
        model = hierarchical_decompose(dense, 3, 2)
        f = ds.input_values[:1]
        gap = np.linalg.norm(model.predict_batch(ds.grid, f) - dense.predict_batch(ds.grid, f))
        bound = model.total_truncation_error * np.linalg.norm(ds.grid.quad_weights() * f)
        assert gap <= bound + 1e-12

    def test_model_keeps_only_its_own_blocks(self):
        """The block operator keeps the arrays it is given, so the fit hands
        it arrays of their own: a view of the dense kernel or of a whole SVD
        factor would keep that alive with the model.  The distinct arrays
        behind the blocks and leaves hold exactly their bytes."""
        kernel = RngStream(23).standard_normal((64, 64))
        model = hierarchical_decompose(DenseKernelModel(Grid1D(64), kernel), 3, 2)
        arrays = [m for b in model.blocks for m in (b.col_factor, b.row_factor)]
        arrays += [m for _, _, m in model.operator.dense_blocks]
        bases = {id(base): base for base in (a if a.base is None else a.base for a in arrays)}
        assert sum(base.nbytes for base in bases.values()) == sum(a.nbytes for a in arrays)

    def test_divisibility_check(self):
        grid = Grid1D(30)
        with pytest.raises(ValueError):
            hierarchical_decompose(DenseKernelModel(grid, np.zeros((30, 30))), 2, 1)

    def test_levels_far_beyond_the_grid_are_a_value_error(self):
        """The partition never forms 2^levels, so a huge levels (any integer
        a config may hold) is the divisibility error, not a MemoryError."""
        with pytest.raises(ValueError, match="2\\^levels must divide"):
            hierarchical_decompose(DenseKernelModel(Grid1D(32), np.zeros((32, 32))), 2 ** 62, 1)


class TestLosses:
    def sample_pairs(self, n=3):
        grid = Grid1D(40)
        basis = kl_decompose(CovarianceSpec("squared-exponential", length_scale=0.2), 40)
        values = sample_gp(basis, (RngStream(100 + i) for i in range(n)))
        targets = [FunctionSample(grid, v) for v in values]
        return grid, targets

    def test_zero_for_equal(self):
        _, targets = self.sample_pairs()
        for kind in ("mse", "relative-squared-l2", "relative-l2", "relative-l1",
                     "h1-seminorm-relative"):
            assert compute_loss(kind, targets, targets) == 0.0

    def test_zero_prediction_gives_one(self):
        grid, targets = self.sample_pairs()
        zeros = [FunctionSample(grid, np.zeros(40)) for _ in targets]
        for kind in ("relative-squared-l2", "relative-l2", "relative-l1",
                     "h1-seminorm-relative"):
            assert abs(compute_loss(kind, zeros, targets) - 1.0) <= 1e-12

    def test_h1_seminorm_ignores_constants(self):
        grid, targets = self.sample_pairs(2)
        shifted = [FunctionSample(grid, t.values + 5.0) for t in targets]
        assert compute_loss("h1-seminorm-relative", shifted, targets) <= 1e-12
        assert compute_loss("relative-l2", shifted, targets) > 0.1

    def test_doubling_gives_one(self):
        grid, targets = self.sample_pairs()
        doubled = [FunctionSample(grid, 2.0 * t.values) for t in targets]
        assert abs(compute_loss("relative-l2", doubled, targets) - 1.0) <= 1e-12

    def test_squared_is_square_of_plain(self):
        grid, targets = self.sample_pairs(1)
        pred = [FunctionSample(grid, targets[0].values + 0.1)]
        plain = compute_loss("relative-l2", pred, targets)
        squared = compute_loss("relative-squared-l2", pred, targets)
        assert abs(squared - plain ** 2) <= 1e-12

    def test_zero_norm_target_rejected(self):
        grid = Grid1D(10)
        zero = [FunctionSample(grid, np.zeros(10))]
        one = [FunctionSample(grid, np.ones(10))]
        with pytest.raises(ValueError):
            compute_loss("relative-l2", one, zero)

    def test_unknown_kind(self):
        _, targets = self.sample_pairs(1)
        with pytest.raises(ValueError):
            compute_loss("l7", targets, targets)


class TestModelLinearity:
    @pytest.mark.parametrize("builder", [
        lambda ds: fit_green_kernel(ds, 1e-10),
        lambda ds: fit_low_rank(ds, 8, 1e-10),
        lambda ds: truncate_band(fit_green_kernel(ds, 1e-10), 0.3),
        lambda ds: hierarchical_decompose(fit_green_kernel(ds, 1e-10), 2, 2),
    ])
    def test_grid_models(self, builder):
        ds = poisson_dataset(20, 32, seed=23)
        model = builder(ds)
        grid = ds.grid
        f1 = RngStream(24).standard_normal(32)
        f2 = RngStream(25).standard_normal(32)
        lhs = model.predict_batch(grid, (2.0 * f1 - 0.5 * f2)[None])[0]
        p1, p2 = model.predict_batch(grid, np.array([f1, f2]))
        rhs = 2.0 * p1 - 0.5 * p2
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

    def test_multiplier_model(self):
        ds = planted_multiplier_dataset(64, shifted_poisson_factor, 10, seed=26)
        model = fit_fourier_multiplier(ds, 8)
        grid = ds.grid
        f1 = RngStream(27).standard_normal(64)
        f2 = RngStream(28).standard_normal(64)
        lhs = model.predict_batch(grid, (1.5 * f1 + 2.5 * f2)[None])[0]
        p1, p2 = model.predict_batch(grid, np.array([f1, f2]))
        rhs = 1.5 * p1 + 2.5 * p2
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_zero_maps_to_zero(self):
        ds = poisson_dataset(5, 32, seed=29)
        model = fit_green_kernel(ds, 1e-10)
        assert np.all(model.predict_batch(ds.grid, np.zeros((1, 32))) == 0.0)

    def test_grid_mismatch_rejected(self):
        ds = poisson_dataset(5, 32, seed=30)
        model = fit_green_kernel(ds, 1e-10)
        with pytest.raises(ValueError):
            model.predict_batch(Grid1D(64), np.zeros((1, 64)))


class TestSuperResolution:
    def test_identity_multiplier_zero_error(self):
        # identity operator on data band-limited to the model's mode range
        def project(j):
            return 1.0 if abs(j) <= 6 else 0.0

        datasets = []
        for n in (64, 128):
            raw = planted_multiplier_dataset(n, project, 5, seed=31)
            datasets.append(OperatorDataset(raw.grid, raw.output_values, raw.output_values))
        model = fit_fourier_multiplier(datasets[0], 6)
        for ds in datasets:
            assert relative_l2_error(model, ds) <= 1e-12

    def test_exact_model_resolution_independent(self):
        def fn(j):
            return shifted_poisson_factor(j) if abs(j) <= 8 else 0.0

        datasets = [planted_multiplier_dataset(n, fn, 5, seed=32) for n in (64, 128, 256)]
        model = fit_fourier_multiplier(datasets[0], 8)
        values = [relative_l2_error(model, ds) for ds in datasets]
        assert max(values) - min(values) <= 1e-8

    def test_coarser_than_training_rejected(self):
        fine = planted_multiplier_dataset(128, shifted_poisson_factor, 3, seed=33)
        coarse = planted_multiplier_dataset(64, shifted_poisson_factor, 3, seed=33)
        model = fit_fourier_multiplier(fine, 8)
        with pytest.raises(ValueError, match="below the training resolution"):
            model.predict_batch(coarse.grid, coarse.input_values)


def reference_loss(kind, predictions, targets):
    """Per-sample loss loop: the dataset average of one term per pair."""
    terms = []
    for pred, target in zip(predictions, targets):
        grid = target.grid
        w = grid.quad_weights()

        def l2(values):
            return np.sqrt(np.sum(w * values ** 2))

        def h1(values):
            grads = np.gradient(values, *[grid.spacing] * values.ndim)
            grads = [grads] if values.ndim == 1 else grads
            return np.sqrt(np.sum(w * sum(g ** 2 for g in grads)))

        diff = pred.values - target.values
        if kind == "mse":
            terms.append(l2(diff) ** 2)
        elif kind == "relative-squared-l2":
            terms.append(l2(diff) ** 2 / l2(target.values) ** 2)
        elif kind == "relative-l2":
            terms.append(l2(diff) / l2(target.values))
        elif kind == "relative-l1":
            terms.append(np.sum(w * np.abs(diff)) / np.sum(w * np.abs(target.values)))
        else:
            terms.append(h1(diff) / h1(target.values))
    return float(np.mean(terms))


class TestBatchedPredictAndLoss:
    """The stacked cores against one-sample-at-a-time evaluation."""

    @pytest.mark.parametrize("builder", [
        lambda ds: fit_green_kernel(ds, 1e-10),
        lambda ds: fit_low_rank(ds, 8, 1e-10),
        lambda ds: truncate_band(fit_green_kernel(ds, 1e-10), 0.3),
        lambda ds: hierarchical_decompose(fit_green_kernel(ds, 1e-10), 3, 2),
        None,
    ], ids=["dense", "low-rank", "banded", "hierarchical", "fourier-multiplier"])
    def test_rows_match_single_predictions(self, builder):
        if builder is None:
            ds = planted_multiplier_dataset(64, shifted_poisson_factor, 12, seed=70)
            model = fit_fourier_multiplier(ds, 8)
        else:
            ds = poisson_dataset(40, 64, seed=71)
            model = builder(ds)
        batch = model.predict_batch(ds.grid, ds.input_values)
        assert batch.shape == ds.input_values.shape
        for row, f in zip(batch, ds.input_values):
            single = model.predict_batch(ds.grid, f[None])[0]
            assert np.linalg.norm(row - single) <= 1e-13 * np.linalg.norm(single)

    def test_multiplier_rows_match_at_finer_resolution(self):
        model = fit_fourier_multiplier(
            planted_multiplier_dataset(64, shifted_poisson_factor, 12, seed=72), 8
        )
        fine = planted_multiplier_dataset(256, shifted_poisson_factor, 3, seed=73)
        batch = model.predict_batch(fine.grid, fine.input_values)
        for row, f in zip(batch, fine.input_values):
            assert np.array_equal(row, model.predict_batch(fine.grid, f[None])[0])

    def test_grid_mismatch_rejected(self):
        ds = poisson_dataset(5, 32, seed=74)
        model = fit_green_kernel(ds, 1e-10)
        with pytest.raises(ValueError):
            model.predict_batch(Grid1D(64), np.zeros((2, 64)))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("pde", ["poisson1d", "darcy2d"])
    def test_loss_matches_per_sample_reference(self, kind, pde):
        spec = SE005 if pde == "poisson1d" else CovarianceSpec(
            "helmholtz-power", smoothness=2.0, amplitude=1.0, shift=9.0, periodic=True
        )
        ds = make_dataset(pde, spec, 4, 40 if pde == "poisson1d" else 12, RngStream(75))
        noise = RngStream(76).standard_normal(ds.output_values.shape)
        preds = ds.output_values + 0.1 * np.abs(ds.output_values).max() * noise
        pred_samples = [FunctionSample(ds.grid, p) for p in preds]
        target_samples = [FunctionSample(ds.grid, t) for t in ds.output_values]
        expected = reference_loss(kind, pred_samples, target_samples)
        assert abs(batch_loss(kind, ds.grid, preds, ds.output_values) - expected) <= (
            1e-14 * expected
        )
        assert abs(compute_loss(kind, pred_samples, target_samples) - expected) <= 1e-14 * expected

    def test_zero_norm_target_among_others_rejected(self):
        grid = Grid1D(10)
        targets = np.ones((3, 10))
        targets[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            batch_loss("relative-l2", grid, np.ones((3, 10)), targets)

    def test_mixed_grids_rejected(self):
        a, b = Grid1D(10), Grid1D(12)
        preds = [FunctionSample(a, np.ones(10)), FunctionSample(b, np.ones(12))]
        targets = [FunctionSample(a, np.ones(10)), FunctionSample(a, np.ones(10))]
        with pytest.raises(ValueError, match="one grid"):
            compute_loss("relative-l2", preds, targets)
