import tracemalloc
from unittest import mock

import numpy as np
import pytest

from operlab import numerics
from operlab.grids import FunctionSample, Grid1D, Grid2D, OperatorDataset
from operlab.numerics import RngStream
from operlab import opfit
from operlab.opfit import (
    EXCITATION_RTOL,
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
    model_losses,
    truncate_band,
)
from operlab.pdelab import green_poisson_1d, make_dataset
from operlab.probes import CovarianceSpec, kl_decompose, sample_gp
from operlab.recovery import recover_circulant, relative_residual
from operlab.structured import MatvecOracle

from helpers import (
    MODEL_VARIANTS,
    SMOOTH_PERIODIC,
    fitted_model,
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
        inputs, outputs = np.zeros((2, 2, 20))
        inputs[0] = RngStream(5).standard_normal(20)
        outputs[0] = RngStream(6).standard_normal(20)
        ds = OperatorDataset(grid, inputs, outputs, {})
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

    def test_default_ridge_does_not_grow_with_the_pair_count(self):
        """The first 64, 256 and 1024 pairs of one stream, scored on 200
        held-out pairs: each fit's error is at most 1.25 times the error of
        the fit on fewer pairs.  A default ridge of 1e-8 trace(G) / n grows
        with the Gram's N, and the error grows 1.6 and 3.5 times."""
        train = make_dataset("poisson1d", SE005, 1024, 64, RngStream(41))
        held_out = make_dataset("poisson1d", SE005, 200, 64, RngStream(42))
        errors = []
        for count in (64, 256, 1024):
            model = fit_green_kernel(OperatorDataset(
                train.grid, train.input_values[:count], train.output_values[:count], {}))
            errors.append(model_losses(model, held_out, ["relative-l2"])["relative-l2"])
        assert errors[1] <= 1.25 * errors[0] and errors[2] <= 1.25 * errors[1], errors

    def test_negative_ridge_fails_before_the_gram(self, monkeypatch):
        calls = []
        gram_and_cross = opfit._gram_and_cross
        monkeypatch.setattr(opfit, "_gram_and_cross",
                            lambda *args: calls.append(args) or gram_and_cross(*args))
        with pytest.raises(ValueError, match="ridge must be nonnegative"):
            fit_green_kernel(poisson_dataset(5, 32, seed=11), -1e-8)
        assert calls == []

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_green_kernel(OperatorDataset(None, np.empty(0), np.empty(0), {}))

    @staticmethod
    def two_branch_kernel(ds, ridge):
        """The fit with a pseudo-inverse at ridge 0 beside the ridge solve."""
        grid, w, inputs, outputs, norms = opfit._prepare_green_fit(ds)
        count = len(inputs)
        gram, cross = opfit._gram_and_cross(w, inputs, outputs, 1.0 / norms)
        if ridge is None:
            ridge = 1e-8 * np.trace(gram) / (grid.n * count)
        eigvals, eigvecs = np.linalg.eigh(gram)
        eigvals = np.clip(eigvals, 0.0, None)
        rotated = cross @ eigvecs
        if ridge == 0.0:
            cutoff = eigvals[-1] * 1e-14 if eigvals[-1] > 0 else np.inf
            inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > 0, eigvals, 1.0), 0.0)
            return (rotated * inv[None, :]) @ eigvecs.T
        denom = eigvals[None, :] + (count * ridge / w)[:, None]
        return (rotated / denom) @ eigvecs.T

    def test_one_filter_matches_the_two_branch_solve(self):
        """Bitwise the ridge solve at the default and explicit ridges above 0,
        within 1e-14 of the pseudo-inverse at ridge 0; a zero Gram fits a zero
        kernel at ridge 0 and above."""
        matern = CovarianceSpec("matern", length_scale=0.1, smoothness=0.5)
        for ds in (poisson_dataset(300, 100, seed=12),
                   make_dataset("poisson1d", matern, 120, 64, RngStream(13))):
            for ridge in (None, 1e-6, 1e-10):
                kernel = fit_green_kernel(ds, ridge).kernel
                assert kernel.tobytes() == self.two_branch_kernel(ds, ridge).tobytes()
            reference = self.two_branch_kernel(ds, 0.0)
            distance = np.linalg.norm(fit_green_kernel(ds, 0.0).kernel - reference)
            assert distance <= 1e-14 * np.linalg.norm(reference)
        silent = OperatorDataset(Grid1D(16), np.zeros((3, 16)),
                                 RngStream(14).standard_normal((3, 16)), {})
        for ridge in (0.0, 1e-6):
            assert not fit_green_kernel(silent, ridge).kernel.any()


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
        inputs = np.stack([np.sin(x), np.cos(x)])
        model = fit_fourier_multiplier(OperatorDataset(grid, inputs, 2 * inputs, {}), 4)
        assert model.excited[1 + 4] and model.excited[-1 + 4]
        for mode in (-4, -3, -2, 0, 2, 3, 4):
            assert not model.excited[mode + 4]
            assert model.mode_value(mode) == 0.0
        assert abs(model.mode_value(1) - 2.0) <= 1e-10

    @pytest.mark.parametrize("max_mode, ridge", [(0, 0.0), (5, 0.0), (15, 1e-6), (15, 3.0)])
    def test_multiplier_matches_the_mode_loop(self, max_mode, ridge):
        """The array fit equals, bit for bit, the loop over modes that fits
        each excited mode and then averages each pair of excited mirror
        modes, with inputs whose odd modes carry no power."""
        grid = Grid1D(32, 0.0, 2 * np.pi, periodic=True)
        stream = RngStream(20)
        spectrum = np.fft.fft(stream.standard_normal((6, 32)), axis=1)
        spectrum[:, 1::2] = 0.0
        inputs = np.fft.ifft(spectrum, axis=1).real
        ds = OperatorDataset(grid, inputs, stream.standard_normal((6, 32)), {})
        f_hat, u_hat = np.fft.fft(ds.input_values, axis=1), np.fft.fft(ds.output_values, axis=1)
        power = np.sum(np.abs(f_hat) ** 2, axis=0)
        cross = np.sum(np.conj(f_hat) * u_hat, axis=0)
        multiplier = np.zeros(2 * max_mode + 1, dtype=complex)
        excited = np.zeros(2 * max_mode + 1, dtype=bool)
        for mode in range(-max_mode, max_mode + 1):
            if power[mode % 32] > EXCITATION_RTOL * power.max():
                multiplier[mode + max_mode] = cross[mode % 32] / (power[mode % 32] + ridge)
                excited[mode + max_mode] = True
        multiplier[max_mode] = multiplier[max_mode].real
        for mode in range(1, max_mode + 1):
            up, down = max_mode + mode, max_mode - mode
            if excited[up] and excited[down]:
                avg = 0.5 * (multiplier[up] + np.conj(multiplier[down]))
                multiplier[up], multiplier[down] = avg, np.conj(avg)
        model = fit_fourier_multiplier(ds, max_mode, ridge)
        assert model.multiplier.tobytes() == multiplier.tobytes()
        assert np.array_equal(model.excited, excited)
        assert not excited[max_mode + 1::2].any()  # the odd modes

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


def lane_stacks(model):
    """The lanes and leaves that HierarchicalKernelModel takes, from a model."""
    op = model.operator
    return ([(lane.factors[0], lane.factors[1].transpose(0, 2, 1)) for lane in op.lanes],
            [lane.factors[0] for lane in op.leaf_lanes])


class TestHierarchical:
    def test_full_rank_exact(self):
        grid = Grid1D(32)
        kernel = RngStream(20).standard_normal((32, 32))
        model = hierarchical_decompose(DenseKernelModel(grid, kernel), 2, 8)
        assert np.allclose(model.operator.materialize(), kernel, atol=1e-12)
        assert model.truncation_error <= 1e-12

    def test_poisson_admissible_blocks_rank_one(self):
        grid = Grid1D(128)
        kernel = exact_green_matrix(grid)
        model = hierarchical_decompose(DenseKernelModel(grid, kernel), 3, 1)
        assert model.operator.lanes  # admissible blocks exist from level 2 on
        for tail in np.concatenate(model.tails):
            assert tail <= 1e-10
        err = np.linalg.norm(model.operator.materialize() - kernel)
        assert abs(err - model.truncation_error) <= 1e-10

    def test_block_tails_decay_with_rank(self):
        grid = Grid1D(64)
        kernel = exact_green_matrix(grid) + 1e-3 * RngStream(21).standard_normal((64, 64))
        tails = []
        for rank in (1, 2, 4):
            model = hierarchical_decompose(DenseKernelModel(grid, kernel), 2, rank)
            tails.append(max(np.concatenate(model.tails)))
        assert tails[0] > tails[1] > tails[2]

    def test_model_needs_one_tail_per_block(self):
        grid = Grid1D(64)
        model = hierarchical_decompose(DenseKernelModel(grid, exact_green_matrix(grid)), 2, 1)
        lanes = model.operator.lanes
        assert [tails.shape for tails in model.tails] == [(len(lane.row_starts),) for lane in lanes]
        rebuilt = HierarchicalKernelModel(grid, 2, 1, model.tails, *lane_stacks(model))
        assert np.array_equal(rebuilt.operator.materialize(), model.operator.materialize())
        for tails in (model.tails[1:], (model.tails[0][1:], *model.tails[1:])):
            with pytest.raises(ValueError):
                HierarchicalKernelModel(grid, 2, 1, tails, *lane_stacks(model))

    def test_stacks_off_the_partition_rejected_before_allocating(self):
        """The stacks of a 64-point model on a grid of 2^40 points, whose
        partition has as many blocks per lane: the check comes before the
        factor arrays of 2^40 rows are allocated."""
        kernel = RngStream(24).standard_normal((64, 64))
        model = hierarchical_decompose(DenseKernelModel(Grid1D(64), kernel), 2, 1)
        stacks = lane_stacks(model)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="partition"):
                HierarchicalKernelModel(Grid1D(2 ** 40), 2, 1, model.tails, *stacks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak

    def test_predict_matches_dense_within_tail(self):
        ds = poisson_dataset(30, 64, seed=22)
        dense = fit_green_kernel(ds, ridge=1e-10)
        model = hierarchical_decompose(dense, 3, 2)
        f = ds.input_values[:1]
        gap = np.linalg.norm(model.predict_batch(ds.grid, f) - dense.predict_batch(ds.grid, f))
        bound = model.truncation_error * np.linalg.norm(ds.grid.quad_weights() * f)
        assert gap <= bound + 1e-12

    def test_model_keeps_only_its_own_blocks(self):
        """The block operator keeps the arrays it is given, so the fit hands
        it arrays of their own: a view of the dense kernel or of a whole SVD
        factor would keep that alive with the model.  The arrays behind the
        blocks and leaves are the two factor arrays, of one column range per
        level and slot, and the three leaf stacks."""
        kernel = RngStream(23).standard_normal((64, 64))
        model = hierarchical_decompose(DenseKernelModel(Grid1D(64), kernel), 3, 2)
        op = model.operator
        arrays = [m for lane in op.lanes + op.leaf_lanes for stack in lane.factors for m in stack]
        bases = {id(base): base for base in (a if a.base is None else a.base for a in arrays)}
        leaves = [lane.factors[0] for lane in op.leaf_lanes]
        assert sorted(bases) == sorted(map(id, [op.col_factors, op.row_factors, *leaves]))
        assert all(base.flags.owndata for base in bases.values())
        # levels 2 and 3, three slots each of min(2, size) = 2 columns
        assert op.col_factors.shape == op.row_factors.shape == (64, 12)

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


def whole_array_loss(kind, grid, predictions, targets):
    """batch_loss's formula over the whole stacked arrays at once: the
    reference its row blocks must match bit for bit."""
    w = grid.quad_weights()
    axes = tuple(range(1, targets.ndim))

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
    return float(np.mean(num / denom))


class TestLossBlocks:
    """batch_loss computes its per-row terms over row blocks; every
    reduction is within a row, so the blocks do not change a bit."""

    # 300 rows of 256 sensors span three default blocks, 20 of 64 x 64 five
    GRIDS = {"1d": (Grid1D(256), 300), "2d": (Grid2D(64), 20)}

    @pytest.mark.parametrize("block_entries", [numerics.BLOCK_ENTRIES, 1, 3 * 256 + 1])
    @pytest.mark.parametrize("dims", sorted(GRIDS))
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_row_blocks_match_the_whole_array_formula(self, kind, dims, block_entries):
        grid, count = self.GRIDS[dims]
        targets, noise = RngStream(80).standard_normal((2, count, *grid.shape))
        preds = targets + 0.1 * noise
        with mock.patch.object(numerics, "BLOCK_ENTRIES", block_entries):
            blocked = batch_loss(kind, grid, preds, targets)
        assert blocked == whole_array_loss(kind, grid, preds, targets)

    @pytest.mark.parametrize("kind", [kind for kind in LOSS_KINDS if kind != "mse"])
    def test_zero_norm_target_in_the_last_block_rejected(self, kind):
        grid = Grid1D(256)
        targets = np.ones((300, 256))
        targets[-1] = 0.0
        assert len(targets) % (numerics.BLOCK_ENTRIES // 256) != 0  # a partial last block
        with pytest.raises(ValueError, match="zero-norm"):
            batch_loss(kind, grid, np.ones_like(targets), targets)
        assert batch_loss("mse", grid, np.ones_like(targets), targets) > 0.0


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

    def test_unequal_counts_rejected(self):
        grid = Grid1D(10)
        samples = [FunctionSample(grid, np.full(10, 1.0 + i)) for i in range(3)]
        with pytest.raises(ValueError):
            compute_loss("relative-l2", samples, samples[:2])

    def test_mixed_grids_rejected(self):
        a, b = Grid1D(10), Grid1D(12)
        preds = [FunctionSample(a, np.ones(10)), FunctionSample(b, np.ones(12))]
        targets = [FunctionSample(a, np.ones(10)), FunctionSample(a, np.ones(10))]
        with pytest.raises(ValueError, match="one grid"):
            compute_loss("relative-l2", preds, targets)


def single_product_gram_and_cross(w, inputs, outputs, rho):
    """The Gram and cross matrices as one (n, N) by (N, n) product each."""
    right = w * inputs
    return (right.T * rho) @ right, (outputs.T * rho) @ right


class TestGramRowBlocks:
    """fit_green_kernel accumulates its Gram and cross matrices over
    numerics.row_blocks of the pairs, never a temporary of all N pairs."""

    @pytest.mark.parametrize("n", [100, 256, 300])
    @pytest.mark.parametrize("block_entries", [1, 300, numerics.BLOCK_ENTRIES])
    def test_blocks_agree_with_one_product(self, n, block_entries):
        """One pair a block, a few, and the default's 327, 128 or 109 pairs,
        the last block partial."""
        count = 700
        stream = RngStream(n)
        inputs, outputs = stream.standard_normal((2, count, n))
        w, rho = np.linspace(0.5, 1.0, n), 1.0 / np.linspace(0.5, 2.0, count)
        with mock.patch.object(numerics, "BLOCK_ENTRIES", block_entries):
            blocked = opfit._gram_and_cross(w, inputs, outputs, rho)
        for got, single in zip(blocked, single_product_gram_and_cross(w, inputs, outputs, rho)):
            assert np.abs(got - single).max() <= 1e-13 * np.abs(single).max()

    def test_a_zero_norm_pair_inside_a_block_is_excluded(self):
        """Pair 500 of 1500 lies inside the first block of 1024 pairs at 32
        sensors; the fit with it is the fit of the other pairs, bit for bit."""
        grid = Grid1D(32)
        stream = RngStream(12)
        inputs, outputs = stream.standard_normal((2, 1500, grid.n))
        outputs[500] = 0.0
        assert numerics.BLOCK_ENTRIES // grid.n == 1024
        with pytest.warns(UserWarning, match="pair 500 has zero output norm"):
            model = fit_green_kernel(OperatorDataset(grid, inputs, outputs, {}))
        kept = np.arange(1500) != 500
        others = fit_green_kernel(OperatorDataset(grid, inputs[kept], outputs[kept], {}))
        assert np.all(np.isfinite(model.kernel))
        assert np.array_equal(model.kernel, others.kernel)


class TestModelLosses:
    """model_losses predicts one row block at a time and shares batch_loss's
    per-row terms and reduction."""

    COUNT = 2500  # several blocks of 1024 rows at 32 sensors, or 512 at 64, and a partial one

    def scored(self, variant):
        model, _ = fitted_model(variant)
        stream = RngStream(90)
        inputs = stream.standard_normal((self.COUNT, model.grid.n))
        targets = stream.standard_normal((self.COUNT, model.grid.n))
        return model, OperatorDataset(model.grid, inputs, targets, {})

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_matches_batch_loss_on_full_width_predictions(self, variant):
        model, ds = self.scored(variant)
        assert self.COUNT % (numerics.BLOCK_ENTRIES // model.grid.n) != 0
        preds = model.predict_batch(ds.grid, ds.input_values)
        scores = model_losses(model, ds, LOSS_KINDS)
        assert list(scores) == list(LOSS_KINDS)
        for kind in LOSS_KINDS:
            expected = batch_loss(kind, ds.grid, preds, ds.output_values)
            assert abs(scores[kind] - expected) <= 1e-14 * expected, kind

    @pytest.mark.parametrize("kind", [kind for kind in LOSS_KINDS if kind != "mse"])
    def test_zero_norm_target_in_the_last_block_rejected(self, kind):
        model, ds = self.scored("dense-kernel")
        ds.output_values[-1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            model_losses(model, ds, ["mse", kind])
        assert model_losses(model, ds, ["mse"])["mse"] > 0.0

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_grid_mismatch_rejected(self, variant):
        model, _ = fitted_model(variant)
        other = Grid1D(2 * model.grid.n - 1, periodic=model.grid.periodic)
        ds = OperatorDataset(other, np.ones((3, other.n)), np.ones((3, other.n)), {})
        with pytest.raises(ValueError):
            model_losses(model, ds, ["relative-l2"])
