"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Stated runtime targets are design goals, not assertions; the whole
suite runs in well under the ten-minute budget.
"""
import json
from contextlib import contextmanager

import numpy as np
import pytest

from operlab.cli import main
from operlab.grids import Grid1D, Grid2D
from operlab.numerics import RngStream
from operlab.opfit import (
    DenseKernelModel,
    batch_loss,
    fit_fourier_multiplier,
    fit_green_kernel,
    hierarchical_decompose,
    truncate_band,
)
from operlab.pdelab import (
    green_poisson_1d,
    make_dataset,
    solve_burgers_1d,
    solve_darcy_2d,
    solve_poisson_1d,
)
from operlab.probes import CovarianceSpec, kernel_eval, kl_decompose, sample_gp
from operlab.recovery import (
    ZeroFourierMode,
    randomized_svd,
    recover_banded,
    recover_circulant,
    recover_hodlr,
    relative_residual,
)
from operlab.structured import DenseOperator, MatvecOracle, random_structured

from helpers import planted_multiplier_dataset, relative_l2_error, shifted_poisson_factor

SE_01 = CovarianceSpec("squared-exponential", length_scale=0.1)
SE_005 = CovarianceSpec("squared-exponential", length_scale=0.05)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def test_criterion_01_rank_k_recovery():
    with criterion(1, "rank-k recovery"):
        for trial in range(100):
            rank = 1 + trial % 8
            op = random_structured("low-rank", 64, RngStream(10_000 + trial), rank=rank)
            oracle = MatvecOracle.from_operator(op)
            recovered = randomized_svd(oracle, rank, 5, stream=RngStream(20_000 + trial))
            assert relative_residual(recovered, op.materialize()) <= 1e-8
            assert (oracle.forward_queries, oracle.transpose_queries) == (rank + 5, rank + 5)


def test_criterion_02_near_best_bound():
    with criterion(2, "randomized SVD near-best bound"):
        a = np.diag(2.0 ** -np.arange(32.0))
        norm_a = np.linalg.norm(a)
        tail = np.linalg.norm(np.diag(a)[4:])  # ||sigma_5..sigma_32||, exact SVD oracle
        bound = (1.0 + 15.0 * np.sqrt(4 + 5)) * tail
        hits = 0
        for seed in range(1000):
            oracle = MatvecOracle.from_operator(DenseOperator(a))
            recovered = randomized_svd(oracle, 4, 5, stream=RngStream(seed))
            if relative_residual(recovered, a) * norm_a <= bound:
                hits += 1
        assert hits >= 999


def test_criterion_03_circulant():
    with criterion(3, "circulant recovery"):
        for n in (4, 64, 1024, 4096):
            op = random_structured("circulant", n, RngStream(n))
            oracle = MatvecOracle.from_operator(op)
            recovered = recover_circulant(oracle, RngStream(n + 1))
            err = np.linalg.norm(
                recovered.first_column - op.first_column
            ) / np.linalg.norm(op.first_column)
            assert err <= 1e-10
            assert (oracle.forward_queries, oracle.transpose_queries) == (1, 0)
        constant_target = random_structured("circulant", 64, RngStream(2))
        with pytest.raises(ZeroFourierMode):
            recover_circulant(MatvecOracle.from_operator(constant_target), probe=np.ones(64))


def test_criterion_04_banded():
    with criterion(4, "banded recovery"):
        op = random_structured("banded", 12, RngStream(3), bandwidth=2)
        oracle = MatvecOracle.from_operator(op)
        recovered = recover_banded(oracle, 2)
        assert relative_residual(recovered, op.materialize()) == 0.0
        assert oracle.forward_queries == 5
        for n, w in [(16, 0), (16, 10), (100, 3), (256, 7), (512, 2), (512, 255)]:
            op = random_structured("banded", n, RngStream(n + w), bandwidth=w)
            oracle = MatvecOracle.from_operator(op)
            recovered = recover_banded(oracle, w)
            assert relative_residual(recovered, op.materialize()) <= 1e-12
            assert oracle.forward_queries == min(2 * w + 1, n)
            assert oracle.transpose_queries == 0


def test_criterion_05_hodlr():
    with criterion(5, "HODLR recovery"):
        op = random_structured("hodlr", 256, RngStream(4), rank=2, levels=6)
        oracle = MatvecOracle.from_operator(op)
        recovered = recover_hodlr(oracle, 2, 6, 5, stream=RngStream(5))
        assert relative_residual(recovered, op.materialize()) <= 1e-8
        total = oracle.forward_queries + oracle.transpose_queries
        assert total <= 10 * 2 * int(np.ceil(np.log2(256)))


def test_criterion_06_gp_sampling():
    with criterion(6, "GP sampling"):
        basis = kl_decompose(SE_01, 64)
        count = 20_000
        root = RngStream(6)
        samples = sample_gp(basis, (root.derive(i) for i in range(count)))
        empirical = samples.T @ samples / count
        x = basis.grid.points()
        truth = kernel_eval(SE_01, x[:, None], x[None, :])
        assert np.max(np.abs(empirical - truth)) <= 0.05
        curves = {}
        for ell in (0.1, 0.05, 0.01):
            spec = CovarianceSpec("squared-exponential", length_scale=ell)
            lam = kl_decompose(spec, 100).eigenvalues
            curves[ell] = lam / lam[0]
        for j in (3, 5, 8):
            assert curves[0.1][j] < curves[0.05][j] < curves[0.01][j]


def test_criterion_07_solver_orders():
    with criterion(7, "solver convergence orders"):
        errors = []
        for s in (33, 65, 129):
            grid = Grid1D(s)
            x = grid.points()
            u = solve_poisson_1d(grid, np.pi ** 2 * np.sin(np.pi * x))
            errors.append(np.max(np.abs(u - np.sin(np.pi * x))))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

        coarse_grid = Grid1D(256, 0.0, 2 * np.pi, periodic=True)
        fine_grid = Grid1D(2048, 0.0, 2 * np.pi, periodic=True)
        coarse = solve_burgers_1d(coarse_grid, np.sin(coarse_grid.points()))
        fine = solve_burgers_1d(fine_grid, np.sin(fine_grid.points()))
        rel = np.linalg.norm(coarse - fine[::8]) / np.linalg.norm(fine[::8])
        assert rel <= 1e-6

        solutions = {}
        for s in (33, 65, 129):
            ones = np.ones((s, s))
            solutions[s] = solve_darcy_2d(Grid2D(s), ones, ones)
        e1 = np.max(np.abs(solutions[33] - solutions[65][::2, ::2]))
        e2 = np.max(np.abs(solutions[65] - solutions[129][::2, ::2]))
        assert 3.0 <= e1 / e2 <= 5.0


def test_criterion_08_green_kernel_fit():
    with criterion(8, "Green-kernel fit"):
        train = make_dataset("poisson1d", SE_005, 100, 100, RngStream(8))
        model = fit_green_kernel(train, ridge=1e-10)
        grid = train.grid
        x = grid.points()
        w = grid.quad_weights()
        exact = green_poisson_1d(x[:, None], x[None, :])
        ww = np.outer(w, w)
        rel = np.sqrt(np.sum(ww * (model.kernel - exact) ** 2)) / np.sqrt(
            np.sum(ww * exact ** 2)
        )
        assert rel <= 0.10
        held_out = make_dataset("poisson1d", SE_005, 50, 100, RngStream(9))
        predictions = model.predict_batch(held_out.grid, held_out.input_values)
        assert batch_loss("relative-l2", held_out.grid, predictions, held_out.output_values) <= 0.02


def test_criterion_09_fourier_multiplier_fit():
    with criterion(9, "Fourier-multiplier fit"):
        ds = planted_multiplier_dataset(256, shifted_poisson_factor, 50, seed=10)
        model = fit_fourier_multiplier(ds, 16)
        assert model.excited.any()
        for mode in range(-16, 17):
            if model.excited[mode + 16]:
                assert abs(model.mode_value(mode) - 1.0 / (1.0 + mode ** 2)) <= 1e-6
        circulant = model.to_circulant()
        recovered = recover_circulant(MatvecOracle.from_operator(circulant), RngStream(11))
        assert relative_residual(recovered, circulant.materialize()) <= 1e-8


def test_criterion_10_band_truncation():
    with criterion(10, "band truncation"):
        grid = Grid1D(201)
        x = grid.points()
        model = DenseKernelModel(grid, green_poisson_1d(x[:, None], x[None, :]))
        fine_grid = Grid1D(2001)
        xf = fine_grid.points()
        fine_kernel = green_poisson_1d(xf[:, None], xf[None, :])
        radii = (0.05, 0.1, np.sqrt(2.0) / 10.0, 0.2, 0.5)
        errors = []
        for radius in radii:
            banded = truncate_band(model, radius)
            oracle = truncate_band(DenseKernelModel(fine_grid, fine_kernel), radius).truncation_error
            assert abs(banded.truncation_error - oracle) <= 0.01 * oracle
            errors.append(banded.truncation_error)
        assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_criterion_11_hierarchical_decomposition():
    with criterion(11, "hierarchical decomposition"):
        grid = Grid1D(128)
        x = grid.points()
        kernel = green_poisson_1d(x[:, None], x[None, :])
        model = hierarchical_decompose(DenseKernelModel(grid, kernel), 3, 1)
        assert model.blocks
        for tail in model.tails:
            assert tail <= 1e-10
        reconstruction_error = np.linalg.norm(model.operator.materialize() - kernel)
        assert abs(reconstruction_error - model.total_truncation_error) <= 1e-10


def test_criterion_12_super_resolution():
    with criterion(12, "super-resolution protocol"):
        resolutions = (256, 512, 1024, 2048)

        def truncated(mode):
            return shifted_poisson_factor(mode) if abs(mode) <= 16 else 0.0

        exact_sets = [
            planted_multiplier_dataset(n, truncated, 8, seed=12) for n in resolutions
        ]
        exact_model = fit_fourier_multiplier(exact_sets[0], 16)
        values = [relative_l2_error(exact_model, ds) for ds in exact_sets]
        assert max(values) - min(values) <= 1e-8

        full_sets = [
            planted_multiplier_dataset(n, shifted_poisson_factor, 8, seed=13)
            for n in resolutions
        ]
        fitted = fit_fourier_multiplier(full_sets[0], 16)
        table = {ds.grid.n: relative_l2_error(fitted, ds) for ds in full_sets}
        base = table[256]
        for value in table.values():
            assert value <= 2.0 * base and value >= 0.5 * base


def test_criterion_13_end_to_end_reproducibility(tmp_path):
    with criterion(13, "end-to-end reproducibility"):
        gen_config = tmp_path / "generate.json"
        gen_config.write_text(json.dumps({
            "command": "generate",
            "seed": 14,
            "pde": "poisson1d",
            "num_pairs": 30,
            "resolution": 80,
            "covariance": {"family": "squared-exponential", "length_scale": 0.05},
            "output": "train.ds",
        }))
        eval_sets = []
        for n in (64, 128):
            ds = planted_multiplier_dataset(n, shifted_poisson_factor, 5, seed=15)
            from operlab.dataio import save_dataset

            save_dataset(tmp_path / f"sr{n}.ds", ds)
            eval_sets.append({"resolution": n, "path": str(tmp_path / f"sr{n}.ds")})

        def pipeline(out_dir):
            out_dir.mkdir(exist_ok=True)
            assert main([
                "generate", "--config", str(gen_config), "--out", str(out_dir)
            ]) == 0
            fit_config = tmp_path / f"fit_{out_dir.name}.json"
            fit_config.write_text(json.dumps({
                "command": "fit",
                "seed": 14,
                "dataset": str(out_dir / "train.ds"),
                "variant": "dense-kernel",
                "ridge": 1e-10,
                "train_fraction": 0.8,
                "losses": ["relative-l2", "mse", "relative-l1"],
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            }))
            assert main(["fit", "--config", str(fit_config), "--out", str(out_dir)]) == 0
            sr_fit = tmp_path / f"srfit_{out_dir.name}.json"
            sr_fit.write_text(json.dumps({
                "command": "fit",
                "seed": 14,
                "dataset": eval_sets[0]["path"],
                "variant": "fourier-multiplier",
                "max_mode": 8,
                "model_output": "sr_model.bin",
                "metrics_output": "sr_metrics.json",
            }))
            assert main(["fit", "--config", str(sr_fit), "--out", str(out_dir)]) == 0
            eval_config = tmp_path / f"eval_{out_dir.name}.json"
            eval_config.write_text(json.dumps({
                "command": "eval",
                "seed": 14,
                "model": str(out_dir / "sr_model.bin"),
                "datasets": eval_sets,
                "losses": ["relative-l2", "relative-l1"],
                "output": "eval.csv",
            }))
            assert main(["eval", "--config", str(eval_config), "--out", str(out_dir)]) == 0

        pipeline(tmp_path / "run1")
        pipeline(tmp_path / "run2")
        for name in ("train.ds", "model.bin", "metrics.json",
                     "sr_model.bin", "sr_metrics.json", "eval.csv"):
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"
