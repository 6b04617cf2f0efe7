import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from operlab import cli, dataio, opfit, recovery, structured
from operlab.cli import _FIELDS, _PATH, main
from operlab.dataio import (
    ChecksumMismatchError,
    DataFormatError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    load_dataset,
    load_model,
    read_container,
    save_dataset,
    write_container,
)
from operlab.grids import Grid1D, OperatorDataset
from operlab.numerics import RngStream
from operlab.opfit import DenseKernelModel, fit_fourier_multiplier, fit_green_kernel

from helpers import (
    JSON_VALUES,
    MODEL_VARIANTS,
    edit_json_field,
    fitted_model,
    planted_multiplier_dataset,
    relative_l2_error,
    shifted_poisson_factor,
)

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """The minimal environment of a subprocess test: the checkout's src on
    PYTHONPATH, plus the caller's bytecode-cache settings, so that a run with
    PYTHONDONTWRITEBYTECODE set writes no cache into the checkout."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        if name in os.environ:
            env[name] = os.environ[name]
    return env


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def run(command, config_path, out_dir, extra=()):
    return main([command, "--config", str(config_path), "--out", str(out_dir), *extra])


def rewrite_container(path, changes, payload=None):
    """Rewrite a container with header keys changed (None drops a key) and
    optionally a new payload.  The checksum is recomputed, so only the edit
    itself can make a load fail."""
    header, old_payload = read_container(path)
    payload = old_payload if payload is None else payload
    for key, value in changes.items():
        header.pop(key) if value is None else header.update({key: value})
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    write_container(path, header, payload)


POISSON_GENERATE = {
    "command": "generate",
    "seed": 7,
    "pde": "poisson1d",
    "num_pairs": 10,
    "resolution": 100,
    "covariance": {"family": "squared-exponential", "length_scale": 0.05},
    "output": "train.ds",
}


def rewrite_arrays(path, edit):
    """Rewrite a container with its arrays edited: edit maps the list of
    (name, array) pairs to another.  The manifest, length and checksum are
    recomputed, so only the edit itself can make a load fail."""
    header, payload = read_container(path)
    arrays, offset = [], 0
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"]))
        arrays.append((entry["name"],
                       np.frombuffer(payload, "<f8", count, offset).reshape(entry["shape"])))
        offset += 8 * count
    arrays = edit(arrays)
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    write_container(path, header, payload)


def first_tail(tails: list, value) -> list:
    """A hierarchical file's tails with the first block's tail replaced."""
    return [[value, *tails[0][1:]], *tails[1:]]


class TestDatasetIo:
    def roundtrip(self, tmp_path, ds):
        path = tmp_path / "data.ds"
        save_dataset(path, ds)
        return path, load_dataset(path)

    def test_bitwise_roundtrip(self, tmp_path):
        grid = Grid1D(32)
        ds = OperatorDataset(grid, RngStream(0).standard_normal((1, 32)),
                             RngStream(1).standard_normal((1, 32)), {"pde": "poisson1d", "seed": 0})
        path, loaded = self.roundtrip(tmp_path, ds)
        assert np.array_equal(loaded.input_values, ds.input_values)
        assert np.array_equal(loaded.output_values, ds.output_values)
        assert loaded.provenance == ds.provenance
        again = tmp_path / "again.ds"
        save_dataset(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_empty_dataset(self, tmp_path):
        empty = OperatorDataset(None, np.empty(0), np.empty(0), {"pde": "poisson1d"})
        _, loaded = self.roundtrip(tmp_path, empty)
        assert len(loaded) == 0
        assert loaded.provenance["pde"] == "poisson1d"

    def test_checksum_error_on_flipped_byte(self, tmp_path):
        grid = Grid1D(8)
        ds = OperatorDataset(grid, np.arange(8.0)[None], np.ones((1, 8)), {})
        path, _ = self.roundtrip(tmp_path, ds)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            load_dataset(path)

    def test_truncation_error(self, tmp_path):
        grid = Grid1D(8)
        ds = OperatorDataset(grid, np.arange(8.0)[None], np.ones((1, 8)), {})
        path, _ = self.roundtrip(tmp_path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedPayloadError):
            load_dataset(path)

    def test_version_rejected(self, tmp_path):
        grid = Grid1D(8)
        ds = OperatorDataset(grid, np.arange(8.0)[None], np.ones((1, 8)), {})
        path, _ = self.roundtrip(tmp_path, ds)
        raw = path.read_bytes()
        head, rest = raw.split(b"\n", 1)
        parts = head.decode().split()
        parts[1] = "99"
        path.write_bytes(" ".join(parts).encode() + b"\n" + rest)
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_model_roundtrip_bitwise_predictions(self, tmp_path):
        ds = planted_multiplier_dataset(64, shifted_poisson_factor, 10, seed=40)
        model = fit_fourier_multiplier(ds, 8)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        loaded = load_model(path)
        f = ds.input_values
        assert np.array_equal(loaded.predict_batch(ds.grid, f), model.predict_batch(ds.grid, f))

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_model_roundtrip_every_variant(self, tmp_path, variant):
        model, f = fitted_model(variant)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert np.array_equal(loaded.predict_batch(model.grid, f), model.predict_batch(model.grid, f))
        for attr in ("ridge", "radius", "truncation_error", "max_mode", "levels", "rank"):
            assert getattr(loaded, attr, None) == getattr(model, attr, None)
        if variant == "hierarchical":
            assert [t.tolist() for t in loaded.tails] == [t.tolist() for t in model.tails]
            assert any(tail > 0.0 for tails in model.tails for tail in tails)
        again = tmp_path / "again.bin"
        dataio.save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("arrays", None), ("grid", None), ("num_pairs", None), ("num_pairs", "1"),
         ("grid", {"kind": "uniform-1d", "n": 1, "left": 0.0, "right": 1.0}),
         # json.loads reads the header's Infinity as a float
         ("grid", {"kind": "uniform-1d", "n": 8, "left": 0.0, "right": float("inf")}),
         ("grid", {"kind": "uniform-1d", "n": 8, "left": float("nan"), "right": 1.0}),
         ("grid", {"kind": "square", "n": 8, "left": 0.0, "right": 1.0})],
    )
    def test_dataset_header_schema_is_format_error(self, tmp_path, key, value):
        """The error names the file, as every DataFormatError does."""
        grid = Grid1D(8)
        ds = OperatorDataset(grid, np.arange(8.0)[None], np.ones((1, 8)), {})
        path, _ = self.roundtrip(tmp_path, ds)
        rewrite_container(path, {key: value})
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
            load_dataset(path)

    @pytest.mark.parametrize(
        "variant, key, value",
        [("dense-kernel", "variant", None), ("dense-kernel", "ridge", None),
         ("dense-kernel", "ridge", "small"), ("dense-kernel", "variant", "nonsense"),
         ("fourier-multiplier", "max_mode", 2.5), ("fourier-multiplier", "max_mode", 3),
         ("hierarchical", "levels", 2), ("hierarchical", "levels", 4),
         ("hierarchical", "rank", 3), ("hierarchical", "tails", None),
         ("dense-kernel", "grid", {"kind": "uniform-1d", "n": 32, "left": float("-inf"),
                                   "right": 1.0}),
         # tails that are not finite nonnegative numbers, and a lane one tail short
         ("hierarchical", "tails", lambda tails: first_tail(tails, "nan")),
         ("hierarchical", "tails", lambda tails: first_tail(tails, float("nan"))),
         ("hierarchical", "tails", lambda tails: first_tail(tails, float("inf"))),
         ("hierarchical", "tails", lambda tails: first_tail(tails, -1.0)),
         ("hierarchical", "tails", lambda tails: first_tail(tails, True)),
         ("hierarchical", "tails", lambda tails: first_tail(tails, 10 ** 400)),
         ("hierarchical", "tails", lambda tails: [tails[0][1:], *tails[1:]]),
         ("hierarchical", "tails", lambda tails: tails[1:]),
         # float fields that are not finite: json reads NaN and Infinity as
         # floats, and an integer may exceed every float
         ("dense-kernel", "ridge", float("nan")), ("banded", "radius", float("inf")),
         ("banded", "truncation_error", float("-inf")),
         pytest.param("dense-kernel", "ridge", 10 ** 400, id="dense-kernel-ridge-1e400"),
         ("dense-kernel", "arrays", None), ("banded", "radius", None),
         ("low-rank", "grid", {"kind": "square", "n": 32, "left": 0.0, "right": 1.0}),
         ("fourier-multiplier", "grid", {"kind": "periodic-1d", "n": 64,
                                         "left": float("nan"), "right": 1.0}),
         pytest.param("hierarchical", "grid",
                      {"kind": "uniform-1d", "n": 32, "left": 0.0, "right": 10 ** 400},
                      id="hierarchical-grid-right-1e400")],
    )
    def test_model_header_schema_is_format_error(self, tmp_path, variant, key, value):
        """A malformed header, or a hierarchical model whose levels, rank or
        tails do not match the lanes of its arrays: a tail that is not a
        finite nonnegative JSON number, a lane with one tail too few, a
        missing lane of tails; or a float field that is not finite.  A
        callable value edits the saved field.  The error names the file."""
        model, _ = fitted_model(variant)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        header, _ = read_container(path)
        rewrite_container(path, {key: value(header[key]) if callable(value) else value})
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda arrays: [(name, a) for name, a in arrays if name != "lane1_row"],
         lambda arrays: [(name, a) for name, a in arrays if name != "leaves2"],
         lambda arrays: [(name, a[1:] if name == "lane0_col" else a) for name, a in arrays],
         lambda arrays: [(name, a[..., :1] if name == "lane4_row" else a) for name, a in arrays],
         lambda arrays: [(name, a[:, 1:, 1:] if name == "leaves0" else a)
                         for name, a in arrays]],
        ids=["lane-missing", "leaves-missing", "lane-one-block-short", "lane-rank-short",
             "leaves-too-small"],
    )
    def test_lane_arrays_off_the_partition_are_format_error(self, tmp_path, edit):
        """A hierarchical file whose lane stacks are missing or shaped off the
        strong partition its header claims."""
        model, _ = fitted_model("hierarchical")
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        rewrite_arrays(path, edit)
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_non_finite_kernel_is_format_error(self, tmp_path, variant, value):
        """A model file whose first array holds NaN or an infinity in its last
        entry, in every variant."""
        model, _ = fitted_model(variant)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)

        def edit(arrays):
            (name, first), *rest = arrays
            first = first.copy()
            first.flat[-1] = value
            return [(name, first), *rest]

        rewrite_arrays(path, edit)
        with pytest.raises(DataFormatError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_non_finite_entry_names_its_array(self, tmp_path, variant):
        """A NaN in any one of a model's arrays, each in turn, is a
        DataFormatError that names the file and that array."""
        model, _ = fitted_model(variant)
        path = tmp_path / "model.bin"
        names = [name for name, _ in model.saved_arrays()]
        for target in names:
            dataio.save_model(path, model)

            def edit(arrays):
                edited = []
                for name, a in arrays:
                    if name == target:
                        a = a.copy()
                        a.flat[a.size // 2] = np.nan
                    edited.append((name, a))
                return edited

            rewrite_arrays(path, edit)
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: ") as info:
                load_model(path)
            assert f"array {target} holds entries that are not finite" in str(info.value)

    @pytest.mark.parametrize("shape", [(3,), (18,), (1, 17)])
    def test_excited_mask_off_the_modes_is_format_error(self, tmp_path, shape):
        """A multiplier file (max_mode 8: 17 modes) whose excited mask does
        not hold one entry per mode."""
        model, _ = fitted_model("fourier-multiplier")
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        rewrite_arrays(path, lambda arrays: [(name, np.ones(shape) if name == "excited" else a)
                                             for name, a in arrays])
        with pytest.raises(DataFormatError, match="excited"):
            load_model(path)


class TestGenerate:
    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "c.json", POISSON_GENERATE)
        assert run("generate", config, tmp_path / "a") == 0
        assert run("generate", config, tmp_path / "b") == 0
        assert (tmp_path / "a" / "train.ds").read_bytes() == (
            tmp_path / "b" / "train.ds"
        ).read_bytes()

    def test_darcy_rejects_length_scale(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {
                "command": "generate",
                "seed": 1,
                "pde": "darcy2d",
                "num_pairs": 1,
                "resolution": 16,
                "covariance": {
                    "family": "helmholtz-power",
                    "smoothness": 2.0,
                    "shift": 9.0,
                    "length_scale": 0.1,
                },
                "output": "d.ds",
            },
        )
        assert run("generate", config, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:config:")
        assert "length_scale" in err

    def test_burgers_loadable(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "command": "generate",
                "seed": 3,
                "pde": "burgers1d",
                "num_pairs": 2,
                "resolution": 64,
                "covariance": {
                    "family": "helmholtz-power",
                    "smoothness": 3.0,
                    "amplitude": 400.0,
                    "shift": 9.0,
                },
                "output": "b.ds",
            },
        )
        assert run("generate", config, tmp_path) == 0
        ds = load_dataset(tmp_path / "b.ds")
        assert len(ds) == 2
        assert ds.grid.periodic
        # residual re-check: re-solving the loaded inputs reproduces the outputs
        from operlab.pdelab import solve_burgers_1d

        for f, u in zip(ds.input_values, ds.output_values):
            again = solve_burgers_1d(ds.grid, f)
            assert np.array_equal(again, u)
            assert abs(f.mean() - u.mean()) <= 1e-10

    def test_darcy_generates(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "command": "generate",
                "seed": 4,
                "pde": "darcy2d",
                "num_pairs": 1,
                "resolution": 16,
                "covariance": {"family": "helmholtz-power", "smoothness": 2.0, "shift": 9.0},
                "output": "d.ds",
            },
        )
        assert run("generate", config, tmp_path) == 0
        ds = load_dataset(tmp_path / "d.ds")
        assert ds.input_values[0].shape == (16, 16)
        assert set(np.unique(ds.input_values[0])) <= {3.0, 12.0}

    def test_three_point_poisson(self, tmp_path):
        # a single interior node: -(0 - 2u + 0)/h^2 = f gives u = f h^2 / 2
        cov = {"family": "squared-exponential", "length_scale": 0.5}
        config = write_config(
            tmp_path / "c.json", dict(POISSON_GENERATE, num_pairs=4, resolution=3, covariance=cov)
        )
        assert run("generate", config, tmp_path) == 0
        ds = load_dataset(tmp_path / "train.ds")
        assert ds.output_values.shape == (4, 3)
        assert np.all(ds.output_values[:, [0, 2]] == 0.0)
        expected = ds.input_values[:, 1] * ds.grid.spacing ** 2 / 2
        assert np.allclose(ds.output_values[:, 1], expected, rtol=1e-15, atol=0)

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path / "c.json", dict(POISSON_GENERATE, num_pairs=2))
        run("generate", config, tmp_path / "a")
        run("generate", config, tmp_path / "b", extra=["--seed", "8"])
        assert (tmp_path / "a" / "train.ds").read_bytes() != (
            tmp_path / "b" / "train.ds"
        ).read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", dict(POISSON_GENERATE, resolutionn=50))
        assert run("generate", config, tmp_path) == 1
        assert "resolutionn" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path, capsys):
        bad = {k: v for k, v in POISSON_GENERATE.items() if k != "seed"}
        config = write_config(tmp_path / "c.json", bad)
        assert run("generate", config, tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:config:")


class TestRecover:
    def recover_config(self, tmp_path, **kw):
        base = {"command": "recover", "seed": 5, "output": "report.json"}
        base.update(kw)
        return write_config(tmp_path / "r.json", base)

    def test_circulant_single_query(self, tmp_path):
        config = self.recover_config(tmp_path, algorithm="circulant", dimension=1024)
        assert run("recover", config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["forward_queries"] == 1
        assert report["transpose_queries"] == 0
        assert report["residual_frobenius_relative"] <= 1e-10

    def test_banded_five_queries(self, tmp_path):
        config = self.recover_config(tmp_path, algorithm="banded", dimension=12, bandwidth=2)
        assert run("recover", config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["forward_queries"] == 5
        assert report["residual_frobenius_relative"] <= 1e-12

    def test_hodlr_budget(self, tmp_path):
        config = self.recover_config(
            tmp_path, algorithm="hodlr", dimension=256, block_rank=2, levels=6
        )
        assert run("recover", config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["forward_queries"] + report["transpose_queries"] <= 160
        assert report["residual_frobenius_relative"] <= 1e-8

    def test_low_rank(self, tmp_path):
        config = self.recover_config(
            tmp_path, algorithm="low-rank", dimension=64, rank=3, oversampling=5
        )
        assert run("recover", config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["forward_queries"] == 8
        assert report["transpose_queries"] == 8
        assert report["residual_frobenius_relative"] <= 1e-8

    def test_a_recovery_off_its_query_budget_writes_no_report(self, tmp_path, capsys,
                                                              monkeypatch):
        """The oracle's counts are held to recovery.query_budget before any
        report is written: one extra forward query is one ERROR:internal:
        line naming both (forward, transpose) pairs."""
        recover_circulant = recovery.recover_circulant

        def one_query_too_many(oracle, stream):
            oracle.apply(np.zeros(oracle.n))
            return recover_circulant(oracle, stream)

        monkeypatch.setattr(recovery, "recover_circulant", one_query_too_many)
        config = self.recover_config(tmp_path, algorithm="circulant", dimension=64)
        assert run("recover", config, tmp_path) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:internal: "), lines
        assert "(2, 0)" in lines[0] and "(1, 0)" in lines[0], lines[0]
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json"]


RECOVER = {"command": "recover", "seed": 5, "output": "report.json"}
RECOVER_HODLR = dict(RECOVER, algorithm="hodlr", dimension=64, block_rank=2, levels=3)
RECOVER_LOW_RANK = dict(RECOVER, algorithm="low-rank", dimension=64, rank=3)
RECOVER_BANDED = dict(RECOVER, algorithm="banded", dimension=12, bandwidth=2)
RECOVER_CIRCULANT = dict(RECOVER, algorithm="circulant", dimension=64)


class TestIntegerFields:
    """Every integer field is type- and range-checked before any work starts,
    so each fault is one ERROR:config: line."""

    @pytest.mark.parametrize(
        "base, field, value",
        [
            (POISSON_GENERATE, "seed", True),
            (POISSON_GENERATE, "num_pairs", -1),
            (POISSON_GENERATE, "num_pairs", "3"),
            (POISSON_GENERATE, "resolution", 2),
            (POISSON_GENERATE, "resolution", 64.0),
            (RECOVER_HODLR, "dimension", "8"),
            (RECOVER_HODLR, "block_rank", "2"),
            (RECOVER_HODLR, "levels", 0),
            (RECOVER_HODLR, "oversampling", -3),
            (RECOVER_HODLR, "oversampling", 2.5),
            (RECOVER_LOW_RANK, "rank", False),
            (RECOVER_BANDED, "bandwidth", -1),
        ],
        ids=lambda v: v.get("algorithm", v["command"]) if isinstance(v, dict) else repr(v),
    )
    def test_bad_integer_is_config_error(self, tmp_path, capsys, base, field, value):
        config = dict(base, **{field: value})
        assert run(config["command"], write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"ERROR:config: {field} must be")

    @pytest.mark.parametrize(
        "pde, cov, resolution",
        [
            ("burgers1d", {"family": "helmholtz-power", "smoothness": 3.0}, 2),
            ("burgers1d", {"family": "helmholtz-power", "smoothness": 3.0}, 12),
            ("darcy2d", {"family": "helmholtz-power", "smoothness": 2.0}, 7),
        ],
    )
    def test_resolution_off_the_solver_grid(self, tmp_path, capsys, pde, cov, resolution):
        config = dict(POISSON_GENERATE, pde=pde, covariance=cov, resolution=resolution)
        assert run("generate", write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR:config:")

    @pytest.mark.parametrize(
        "command, changes",
        [
            ("fit", {"variant": "low-rank", "rank": "3"}),
            ("fit", {"variant": "hierarchical", "levels": 2.0, "rank": 2}),
            ("fit", {"variant": "fourier-multiplier", "max_mode": -1}),
            ("fit", {"ridge": "0.1"}),
            ("fit", {"ridge": float("nan")}),
            ("fit", {"train_fraction": "0.5"}),
            ("fit", {"variant": "banded", "radius": True}),
            ("fit", {"ridge": -1}),
            ("fit", {"variant": "banded", "radius": -0.5}),
            ("fit", {"variant": "banded", "radius": 0}),
            ("fit", {"metrics_output": "./model.bin"}),
            ("eval", {"resolution": "32"}),
        ],
        ids=repr,
    )
    def test_bad_fit_or_eval_field_is_config_error(self, tmp_path, capsys, command, changes):
        """Checked before any file is read; here on a real 8-pair dataset and model."""
        gen = dict(POISSON_GENERATE, num_pairs=8, resolution=32)
        assert run("generate", write_config(tmp_path / "gen.json", gen), tmp_path) == 0
        dataset = str(tmp_path / "train.ds")
        fit = {"command": "fit", "seed": 1, "dataset": dataset, "variant": "dense-kernel",
               "model_output": "model.bin", "metrics_output": "metrics.json"}
        assert run("fit", write_config(tmp_path / "fit.json", fit), tmp_path) == 0
        capsys.readouterr()
        if command == "fit":
            config = dict(fit, **changes)
        else:
            config = {"command": "eval", "seed": 1, "model": str(tmp_path / "model.bin"),
                      "datasets": [dict({"resolution": 32, "path": dataset}, **changes)],
                      "output": "eval.csv"}
        assert run(command, write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR:config:")

    @pytest.mark.parametrize("fraction", [0, 1.5, -0.25], ids=repr)
    def test_train_fraction_is_checked_before_any_file_is_read(self, tmp_path, capsys, fraction):
        config = {"command": "fit", "seed": 1, "dataset": str(tmp_path / "missing.ds"),
                  "variant": "dense-kernel", "train_fraction": fraction,
                  "model_output": "model.bin", "metrics_output": "metrics.json"}
        assert run("fit", write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR:config: train_fraction must be"), lines[0]

    def test_parameters_too_large_for_the_dimension(self, tmp_path, capsys):
        config = dict(RECOVER_HODLR, block_rank=30)  # block_rank + oversampling > n/2
        assert run("recover", write_config(tmp_path / "c.json", config), tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:config:")

    @pytest.mark.parametrize("config", [
        {"algorithm": "hodlr", "block_rank": 2 ** 19, "levels": 1},  # its instance: 4 TiB
        {"algorithm": "low-rank", "rank": 2 ** 20 - 4},  # its instance: 16 TiB
    ], ids=["hodlr", "low-rank"])
    def test_a_sketch_wider_than_the_dimension_draws_no_instance(self, tmp_path, capsys,
                                                                  monkeypatch, config):
        """The sketch width is checked before the instance is drawn, so a
        misfit is a config error, not an allocation failure."""
        drawn = []
        monkeypatch.setattr(structured, "random_structured", lambda *args, **kw: drawn.append(1))
        config = {"command": "recover", "seed": 1, "dimension": 2 ** 20, **config,
                  "output": "r.json"}
        assert run("recover", write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:config: rank + oversampling")
        assert drawn == []


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """One valid config per command and variant, named by what it sets; fit
    and eval point at a real 8-pair poisson dataset (a 4-pair burgers one for
    the Fourier fit) and a fitted model."""
    root = tmp_path_factory.mktemp("valid")
    gen = dict(POISSON_GENERATE, num_pairs=8, resolution=32)
    burgers_cov = {"family": "helmholtz-power", "smoothness": 3.0, "amplitude": 400.0, "shift": 9.0}
    burgers = dict(gen, pde="burgers1d", num_pairs=4, resolution=16, covariance=burgers_cov,
                   viscosity=0.1, final_time=0.1, output="burgers.ds")
    assert run("generate", write_config(root / "gen.json", gen), root) == 0
    assert run("generate", write_config(root / "burgers.json", burgers), root) == 0
    fit = {"command": "fit", "seed": 1, "dataset": str(root / "train.ds"),
           "variant": "dense-kernel", "ridge": 1e-6, "train_fraction": 0.5,
           "model_output": "model.bin", "metrics_output": "metrics.json"}
    assert run("fit", write_config(root / "fit.json", fit), root) == 0
    return {
        "generate": dict(gen, num_pairs=2),
        "generate-matern": dict(gen, covariance={"family": "matern", "length_scale": 0.1,
                                                 "smoothness": 1.5}),
        "generate-burgers": dict(burgers, num_pairs=1),
        "recover-hodlr": dict(RECOVER_HODLR, oversampling=3),
        "recover-low-rank": RECOVER_LOW_RANK,
        "recover-banded": RECOVER_BANDED,
        "recover-circulant": RECOVER_CIRCULANT,
        "fit": fit,
        "fit-low-rank": dict(fit, variant="low-rank", rank=2),
        "fit-fourier": dict(fit, dataset=str(root / "burgers.ds"), variant="fourier-multiplier",
                            max_mode=4),
        "fit-banded": dict(fit, variant="banded", radius=0.2),
        "fit-hierarchical": dict(fit, variant="hierarchical", levels=2, rank=2),
        "eval": {"command": "eval", "seed": 1, "model": str(root / "model.bin"),
                 "datasets": [{"resolution": 32, "path": str(root / "train.ds")}],
                 "output": "eval.csv"},
    }


# every numeric field of every command: (valid config, path to the field)
NUMERIC_FIELDS = [
    ("generate", ("seed",)),
    ("recover-hodlr", ("seed",)),
    ("fit", ("seed",)),
    ("eval", ("seed",)),
    ("generate", ("num_pairs",)),
    ("generate", ("resolution",)),
    ("generate", ("covariance", "length_scale")),
    ("generate-matern", ("covariance", "length_scale")),
    ("generate-matern", ("covariance", "smoothness")),
    ("generate-burgers", ("covariance", "smoothness")),
    ("generate-burgers", ("covariance", "amplitude")),
    ("generate-burgers", ("covariance", "shift")),
    ("generate-burgers", ("viscosity",)),
    ("generate-burgers", ("final_time",)),
    ("recover-hodlr", ("dimension",)),
    ("recover-hodlr", ("block_rank",)),
    ("recover-hodlr", ("levels",)),
    ("recover-hodlr", ("oversampling",)),
    ("recover-low-rank", ("rank",)),
    ("recover-low-rank", ("oversampling",)),
    ("recover-banded", ("bandwidth",)),
    ("fit", ("ridge",)),
    ("fit", ("train_fraction",)),
    ("fit-low-rank", ("rank",)),
    ("fit-fourier", ("max_mode",)),
    ("fit-banded", ("radius",)),
    ("fit-hierarchical", ("levels",)),
    ("fit-hierarchical", ("rank",)),
    ("eval", ("datasets", 0, "resolution")),
]

# every field that names a file: (valid config, path to the field)
PATH_FIELDS = [
    ("generate", ("output",)),
    ("recover-hodlr", ("output",)),
    ("fit", ("dataset",)),
    ("fit", ("model_output",)),
    ("fit", ("metrics_output",)),
    ("eval", ("model",)),
    ("eval", ("output",)),
    ("eval", ("datasets", 0, "path")),
]


def with_field(config: dict, path: tuple, value) -> dict:
    """A deep copy of config with the field at path set to value."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


BAD_NUMBERS = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.just(float("nan")),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_nan=False),  # includes -Infinity
    st.integers(min_value=2 ** 1100, max_value=2 ** 1400),  # too large for a float
)


class TestEveryFailureIsOneLine:
    @pytest.mark.parametrize("name", sorted({name for name, _ in NUMERIC_FIELDS}))
    def test_valid_config_runs(self, valid_configs, name, tmp_path):
        config = valid_configs[name]
        assert run(config["command"], write_config(tmp_path / "c.json", config), tmp_path) == 0

    @pytest.mark.parametrize("name", ["fit", "fit-fourier", "fit-banded"])
    def test_zero_ridge_fits(self, valid_configs, name, tmp_path):
        config = dict(valid_configs[name], ridge=0)
        assert run("fit", write_config(tmp_path / "c.json", config), tmp_path) == 0

    @settings(max_examples=250, deadline=None)
    @given(field=st.sampled_from(NUMERIC_FIELDS), value=BAD_NUMBERS)
    def test_bad_numeric_field(self, valid_configs, field, value):
        name, path = field
        config = with_field(valid_configs[name], path, value)
        with tempfile.TemporaryDirectory() as out_dir:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = run(config["command"], write_config(Path(out_dir) / "c.json", config),
                           out_dir)
        lines = stderr.getvalue().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("ERROR:config: "), lines

    # 2**40, not a small integer: an integer that got past validation would
    # be opened as a file descriptor
    @pytest.mark.parametrize("value", [2 ** 40, "", None, []], ids=repr)
    @pytest.mark.parametrize(
        "name, path", PATH_FIELDS, ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in PATH_FIELDS]
    )
    def test_bad_path_field(self, valid_configs, tmp_path, capsys, name, path, value):
        config = with_field(valid_configs[name], path, value)
        assert run(config["command"], write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:config: "), lines

    # each run asks for an array beyond 2^47 bytes, the user address space of
    # x86-64, so the allocation fails at once under any overcommit policy
    @pytest.mark.parametrize("config", [
        dict(RECOVER_LOW_RANK, dimension=2 ** 50),
        dict(RECOVER_HODLR, dimension=2 ** 50, levels=1),
        dict(POISSON_GENERATE, num_pairs=10 ** 12, resolution=32),
        dict(POISSON_GENERATE, num_pairs=2 ** 60, resolution=1024),  # 2^73 bytes
    ], ids=["recover-low-rank", "recover-hodlr", "generate", "generate-beyond-int64"])
    def test_size_beyond_memory(self, tmp_path, capsys, config):
        assert run(config["command"], write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:incompatible: "), lines

    def test_bare_memory_error_names_itself(self, valid_configs, tmp_path, capsys, monkeypatch):
        """A MemoryError raised without a message still says what happened."""
        def out_of_memory(config, out_dir):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "generate", out_of_memory)
        config = write_config(tmp_path / "c.json", valid_configs["generate"])
        assert run("generate", config, tmp_path) == 1
        assert capsys.readouterr().err == "ERROR:incompatible: out of memory\n"

    @pytest.mark.parametrize("name", ["fit", "eval"])
    def test_a_repeated_loss_kind(self, valid_configs, tmp_path, capsys, name):
        """A loss kind listed twice is refused before any work: eval would
        write its row twice, and fit's metrics would keep one."""
        config = dict(valid_configs[name], losses=["relative-l2", "mse", "relative-l2"])
        assert run(name, write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["ERROR:config: loss kind 'relative-l2' is listed twice"], lines
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    def test_property_covers_every_field_of_the_table(self, valid_configs):
        """A numeric field added to cli._FIELDS must join NUMERIC_FIELDS, a
        path field PATH_FIELDS."""
        def selected(config, kind):
            if kind == "family":
                return config.get("covariance", {}).get("family")
            return config["command"] if kind == "dataset entry" else config.get(kind)

        prefix = {"family": ("covariance",), "dataset entry": ("datasets", 0)}
        for kind, entries in _FIELDS.items():
            for name, (required, optional) in entries.items():
                for field, rule in {**required, **optional}.items():
                    if rule is None:
                        continue
                    path = prefix.get(kind, ()) + (field,)
                    assert any(
                        p == path and selected(valid_configs[c], kind) == name
                        for c, p in (PATH_FIELDS if rule == _PATH else NUMERIC_FIELDS)
                    ), (kind, name, field)

    @pytest.mark.parametrize("name, path", [
        ("generate", ("command",)),
        ("generate", ("pde",)),
        ("generate", ("covariance", "family")),
        ("recover-hodlr", ("algorithm",)),
        ("fit", ("variant",)),
    ])
    @pytest.mark.parametrize("value", [["poisson1d"], {"hodlr": 1}], ids=["list", "object"])
    def test_name_that_is_not_a_string(self, valid_configs, tmp_path, capsys, name, path, value):
        config = with_field(valid_configs[name], path, value)
        assert run(name.split("-")[0], write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:config: unknown"), lines


# the codes the README lists for `ERROR:<code>:` lines, between "Codes:" and
# the end of that paragraph
ERROR_CODES = set(re.findall(r"`(\w+)`", re.search(
    r"Codes: (.*?)\n\n", (ROOT / "README.md").read_text(), re.S).group(1)))

# names that replace a config field: none holds a path separator, so every
# output stays in the run's directory
CONFIG_NAMES = ("", "x", "generate", "poisson1d", "burgers1d", "matern", "hodlr", "hierarchical",
                "relative-l2", "train.ds", "model.bin")


class TestEditedConfigs:
    @pytest.mark.parametrize("name, path, code", [
        ("generate-burgers", ("final_time",), "solver"),
        ("generate-burgers", ("viscosity",), "solver"),
        ("generate-burgers", ("covariance", "amplitude"), "solver"),
        ("generate-matern", ("covariance", "smoothness"), "config"),
    ])
    def test_huge_generate_parameter_fails_on_one_line(self, valid_configs, tmp_path, capsys,
                                                       name, path, code):
        """2**70 there once ran a Burgers solve of 10^9 steps and more, or
        raised an internal error out of scipy's gamma function."""
        config = with_field(valid_configs[name], path, 2 ** 70)
        assert run("generate", write_config(tmp_path / "c.json", config), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"ERROR:{code}: "), lines

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), field=st.integers(0, 10 ** 4), delete=st.booleans(),
           value=st.sampled_from(JSON_VALUES + CONFIG_NAMES))
    def test_edited_config_runs_or_fails_on_one_line(self, valid_configs, tmp_path, data, field,
                                                     delete, value):
        """Replace one field of a valid config, at any depth, with null,
        true, false, 0, -1, 2**70, 0.5, NaN, Infinity, -Infinity, [], {} or
        one of CONFIG_NAMES, or delete it, and run the command in process:
        it exits 0 with nothing on stderr, or exits 1 with no warning and
        exactly one `ERROR:<code>:` line whose code the README lists and is
        not `internal`.  field picks the edited path, modulo the number of
        paths in the config."""
        name = data.draw(st.sampled_from(sorted(valid_configs)), label="config")
        config = json.loads(json.dumps(valid_configs[name]))
        edit_json_field(config, field, delete, value)
        out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        stderr = io.StringIO()
        # a warning would be one more stderr line of a command run as a process
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = run(valid_configs[name]["command"],
                       write_config(out_dir / "config.json", config), out_dir)
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == [], lines
        else:
            assert code == 1 and len(lines) == 1 and not caught, (code, lines, caught)
            error = re.match(r"ERROR:(\w+): ", lines[0])
            assert error and error.group(1) in ERROR_CODES - {"internal"}, lines


class TestFitAndEval:
    def generate_poisson(self, tmp_path):
        config = write_config(tmp_path / "gen.json", POISSON_GENERATE)
        assert run("generate", config, tmp_path) == 0
        return tmp_path / "train.ds"

    def test_dense_fit_train_metrics(self, tmp_path):
        dataset = self.generate_poisson(tmp_path)
        config = write_config(
            tmp_path / "fit.json",
            {
                "command": "fit",
                "seed": 1,
                "dataset": str(dataset),
                "variant": "dense-kernel",
                "ridge": 1e-12,
                "losses": ["relative-l2", "mse"],
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            },
        )
        assert run("fit", config, tmp_path) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["train"]["relative-l2"] <= 1e-6
        model = load_model(tmp_path / "model.bin")
        in_process = fit_green_kernel(load_dataset(dataset), 1e-12)
        assert np.array_equal(model.kernel, in_process.kernel)

    def test_fourier_fit_metrics_list_modes(self, tmp_path):
        ds = planted_multiplier_dataset(128, shifted_poisson_factor, 30, seed=50)
        path = tmp_path / "planted.ds"
        save_dataset(path, ds)
        config = write_config(
            tmp_path / "fit.json",
            {
                "command": "fit",
                "seed": 1,
                "dataset": str(path),
                "variant": "fourier-multiplier",
                "max_mode": 8,
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            },
        )
        assert run("fit", config, tmp_path) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        by_mode = {entry["mode"]: entry for entry in metrics["multiplier"]}
        for mode in range(-8, 9):
            if by_mode[mode]["excited"]:
                assert abs(by_mode[mode]["real"] - 1.0 / (1.0 + mode ** 2)) <= 1e-6
                assert abs(by_mode[mode]["imag"]) <= 1e-6

    def test_eval_matches_in_process(self, tmp_path):
        paths = []
        datasets = []
        for n in (64, 128, 256):
            ds = planted_multiplier_dataset(n, shifted_poisson_factor, 5, seed=51)
            p = tmp_path / f"test{n}.ds"
            save_dataset(p, ds)
            paths.append({"resolution": n, "path": str(p)})
            datasets.append(ds)
        model = fit_fourier_multiplier(datasets[0], 8)
        dataio.save_model(tmp_path / "model.bin", model)
        config = write_config(
            tmp_path / "eval.json",
            {
                "command": "eval",
                "seed": 1,
                "model": str(tmp_path / "model.bin"),
                "datasets": paths,
                "losses": ["relative-l2"],
                "output": "eval.csv",
            },
        )
        assert run("eval", config, tmp_path) == 0
        rows = (tmp_path / "eval.csv").read_text().strip().splitlines()
        assert rows[0] == "resolution,loss_kind,value,n_pairs"
        assert len(rows) == 4
        expected = {ds.grid.n: relative_l2_error(model, ds) for ds in datasets}
        for line in rows[1:]:
            resolution, kind, value, count = line.split(",")
            assert kind == "relative-l2"
            assert int(count) == 5
            assert float(value) == expected[int(resolution)]

    def test_eval_below_training_resolution_fails(self, tmp_path):
        fine = planted_multiplier_dataset(128, shifted_poisson_factor, 3, seed=52)
        coarse = planted_multiplier_dataset(64, shifted_poisson_factor, 3, seed=52)
        save_dataset(tmp_path / "coarse.ds", coarse)
        model = fit_fourier_multiplier(fine, 8)
        dataio.save_model(tmp_path / "model.bin", model)
        config = write_config(
            tmp_path / "eval.json",
            {
                "command": "eval",
                "seed": 1,
                "model": str(tmp_path / "model.bin"),
                "datasets": [{"resolution": 64, "path": str(tmp_path / "coarse.ds")}],
                "output": "eval.csv",
            },
        )
        assert run("eval", config, tmp_path) == 1

    def test_corrupt_dataset_checksum_code(self, tmp_path, capsys):
        dataset = self.generate_poisson(tmp_path)
        raw = bytearray(dataset.read_bytes())
        raw[-1] ^= 0x01
        dataset.write_bytes(bytes(raw))
        config = write_config(
            tmp_path / "fit.json",
            {
                "command": "fit",
                "seed": 1,
                "dataset": str(dataset),
                "variant": "dense-kernel",
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            },
        )
        assert run("fit", config, tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:checksum:")

    @pytest.mark.parametrize("content, code", [
        # a declared header far beyond the file once asked for that many bytes
        (b"operlab-binary 2 999999999999999\n{}", "truncated"),
        # a container line with no newline is read only up to its length bound
        (b"operlab-binary 2 " + b"9" * (1 << 20), "format"),
    ], ids=["huge-header", "no-newline"])
    def test_broken_container_line_codes(self, tmp_path, capsys, content, code):
        dataset = tmp_path / "broken.ds"
        dataset.write_bytes(content)
        config = write_config(
            tmp_path / "fit.json",
            {"command": "fit", "seed": 1, "dataset": str(dataset), "variant": "dense-kernel",
             "model_output": "model.bin", "metrics_output": "metrics.json"},
        )
        assert run("fit", config, tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"ERROR:{code}: {dataset}"), lines

    def eval_config(self, tmp_path, model_path, dataset):
        return write_config(
            tmp_path / "eval.json",
            {
                "command": "eval",
                "seed": 1,
                "model": str(model_path),
                "datasets": [{"resolution": 100, "path": str(dataset)}],
                "output": "eval.csv",
            },
        )

    @pytest.mark.filterwarnings("ignore:pair 3 has zero output norm")
    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_zero_norm_target_is_incompatible(self, tmp_path, capsys, command):
        """The fit leaves an all-zero pair out, but a relative loss on it is
        undefined, so scoring a dataset that holds one fails."""
        inputs, outputs = RngStream(60).standard_normal((2, 8, 32))
        inputs[3] = outputs[3] = 0.0
        dataset = tmp_path / "zero.ds"
        save_dataset(dataset, OperatorDataset(Grid1D(32), inputs, outputs, {}))
        if command == "fit":
            config = {"command": "fit", "seed": 1, "dataset": str(dataset),
                      "variant": "dense-kernel", "model_output": "model.bin",
                      "metrics_output": "metrics.json"}
        else:
            dataio.save_model(tmp_path / "model.bin", fit_green_kernel(load_dataset(dataset)))
            config = {"command": "eval", "seed": 1, "model": str(tmp_path / "model.bin"),
                      "datasets": [{"resolution": 32, "path": str(dataset)}],
                      "output": "eval.csv"}
        config_path = write_config(tmp_path / "c.json", config)
        # a failed command writes no file (fit scores both splits before saving)
        before = sorted(tmp_path.iterdir())
        assert run(command, config_path, tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:incompatible: "), lines
        assert sorted(tmp_path.iterdir()) == before

    def test_rank_above_the_sensor_count_fails_before_the_fit(self, tmp_path, capsys,
                                                              monkeypatch):
        """A low-rank rank above the 100 sensors is refused before the dense
        fit builds its Gram matrix."""
        dataset = self.generate_poisson(tmp_path)
        calls = []
        gram_and_cross = opfit._gram_and_cross
        monkeypatch.setattr(opfit, "_gram_and_cross",
                            lambda *args: calls.append(args) or gram_and_cross(*args))
        config = write_config(tmp_path / "fit.json", {
            "command": "fit", "seed": 1, "dataset": str(dataset), "variant": "low-rank",
            "rank": 101, "model_output": "model.bin", "metrics_output": "metrics.json"})
        assert run("fit", config, tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["ERROR:incompatible: rank must be between 1 and the sensor count"]
        assert calls == []

    def test_dataset_without_arrays_is_format_error(self, tmp_path, capsys):
        dataset = self.generate_poisson(tmp_path)
        rewrite_container(dataset, {"arrays": None})
        config = write_config(
            tmp_path / "fit.json",
            {
                "command": "fit",
                "seed": 1,
                "dataset": str(dataset),
                "variant": "dense-kernel",
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            },
        )
        assert run("fit", config, tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:format:")

    def test_model_without_variant_is_format_error(self, tmp_path, capsys):
        dataset = self.generate_poisson(tmp_path)
        model = fit_green_kernel(load_dataset(dataset))
        dataio.save_model(tmp_path / "model.bin", model)
        rewrite_container(tmp_path / "model.bin", {"variant": None})
        assert run("eval", self.eval_config(tmp_path, tmp_path / "model.bin", dataset), tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:format:")

    @pytest.mark.parametrize("shape", [[3], [17], [-1], [float("inf")], [16.0]],
                             ids=["short", "long", "negative", "infinite", "float"])
    def test_manifest_disagreeing_with_payload_is_format_error(self, tmp_path, capsys, shape):
        """The payload has passed its length and checksum, so a manifest that
        does not cover it exactly is a header fault, not a truncation."""
        dataset = self.generate_poisson(tmp_path)
        model_path = tmp_path / "model.bin"
        dataio.save_model(model_path, DenseKernelModel(Grid1D(4), np.eye(4)))  # 16 values
        rewrite_container(model_path, {"arrays": [{"name": "kernel", "shape": shape}]})
        assert run("eval", self.eval_config(tmp_path, model_path, dataset), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:format: "), lines

    @pytest.mark.parametrize("variant, n", [("hierarchical", 2 ** 40), ("fourier-multiplier", 4)],
                             ids=["hierarchical-beyond-memory", "multiplier-modes-alias"])
    def test_model_grid_off_its_arrays_is_format_error(self, tmp_path, capsys, variant, n):
        """A checksum-valid model whose header grid does not fit its arrays:
        a hierarchical model on 2^40 points, whose factor arrays must not be
        allocated before its stacks are checked, and a multiplier whose 17
        modes a 4-point grid cannot hold apart."""
        dataset = self.generate_poisson(tmp_path)
        model_path = tmp_path / "model.bin"
        dataio.save_model(model_path, fitted_model(variant)[0])
        header, _ = read_container(model_path)
        rewrite_container(model_path, {"grid": dict(header["grid"], n=n)})
        assert run("eval", self.eval_config(tmp_path, model_path, dataset), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:format: "), lines

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    @pytest.mark.parametrize("renamed", [True, False], ids=["new-name", "repeated-name"])
    def test_model_with_an_extra_array_is_format_error(self, tmp_path, capsys, variant, renamed):
        """A model file holds its constructor's arguments and nothing else: a
        copy of its first array appended under a new name, or under that
        array's own name, is ERROR:format for every variant."""
        dataset = self.generate_poisson(tmp_path)
        model_path = tmp_path / "model.bin"
        dataio.save_model(model_path, fitted_model(variant)[0])
        header, payload = read_container(model_path)
        first = header["arrays"][0]
        copy = payload[:8 * int(np.prod(first["shape"]))]
        extra = dict(first, name="unused") if renamed else first
        rewrite_container(model_path, {"arrays": header["arrays"] + [extra],
                                       "payload_bytes": len(payload) + len(copy)},
                          payload + copy)
        assert run("eval", self.eval_config(tmp_path, model_path, dataset), tmp_path) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:format: "), lines

    def test_corrupt_model_checksum_code(self, tmp_path, capsys):
        dataset = self.generate_poisson(tmp_path)
        model_path = tmp_path / "model.bin"
        dataio.save_model(model_path, fit_green_kernel(load_dataset(dataset)))
        raw = bytearray(model_path.read_bytes())
        raw[-1] ^= 0x01
        model_path.write_bytes(bytes(raw))
        assert run("eval", self.eval_config(tmp_path, model_path, dataset), tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:checksum:")


    @pytest.mark.parametrize(
        "changes",
        [{"num_pairs": 1}, {"num_pairs": 12},
         {"grid": {"kind": "uniform-1d", "n": 99, "left": 0.0, "right": 1.0}}],
        ids=["num-pairs-below-arrays", "num-pairs-above-arrays", "grid-n-disagrees"],
    )
    def test_pair_count_or_grid_mismatch_is_format_error(self, tmp_path, capsys, changes):
        dataset = self.generate_poisson(tmp_path)  # 10 pairs at resolution 100
        rewrite_container(dataset, changes)
        config = write_config(
            tmp_path / "fit.json",
            {
                "command": "fit",
                "seed": 1,
                "dataset": str(dataset),
                "variant": "dense-kernel",
                "model_output": "model.bin",
                "metrics_output": "metrics.json",
            },
        )
        assert run("fit", config, tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR:format:")


class TestDeterminism:
    """The same config and seed write byte-identical files, at a given BLAS
    thread count; a recover report differs only in its wall time."""

    @pytest.mark.parametrize("name", ["generate", "generate-burgers", "recover-hodlr",
                                      "recover-low-rank", "recover-banded", "recover-circulant"])
    def test_generate_and_recover_outputs_repeat(self, tmp_path, valid_configs, name):
        config = valid_configs[name]
        outputs = []
        for side in ("first", "second"):
            out = tmp_path / side
            assert run(config["command"], write_config(tmp_path / f"{side}.json", config), out) == 0
            (path,) = out.iterdir()
            if config["command"] == "recover":
                report = json.loads(path.read_text())
                del report["wall_time_seconds"]
                outputs.append(report)
            else:
                outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "name", ["fit", "fit-low-rank", "fit-fourier", "fit-banded", "fit-hierarchical"])
    def test_fit_and_eval_outputs_are_byte_identical(self, tmp_path, valid_configs, name):
        fit = dict(valid_configs[name], losses=["relative-l2", "mse"])
        dataset = fit["dataset"]
        outputs = []
        for side in ("first", "second"):
            out = tmp_path / side
            assert run("fit", write_config(tmp_path / f"{side}-fit.json", fit), out) == 0
            evaluate = {"command": "eval", "seed": 1, "model": str(out / "model.bin"),
                        "datasets": [{"resolution": load_dataset(dataset).grid.n,
                                      "path": dataset}],
                        "losses": ["relative-l2", "mse"], "output": "eval.csv"}
            assert run("eval", write_config(tmp_path / f"{side}-eval.json", evaluate), out) == 0
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["eval.csv", "metrics.json", "model.bin"]
        assert outputs[0] == outputs[1]


class FailingSecondWrite:
    """A file opened for writing whose second write raises, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


class TestNoPartialOutputs:
    """Every output is written under a temporary name and renamed into
    place, so a command whose write fails partway leaves its output
    directory as it was: no file under the output name, no temporary."""

    @pytest.mark.parametrize("name", ["generate", "recover-hodlr", "fit", "eval"])
    def test_failed_write_leaves_the_directory_as_it_was(
        self, tmp_path, valid_configs, name, monkeypatch, capsys
    ):
        config = valid_configs[name]
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.txt").write_text("kept")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return FailingSecondWrite(fh) if "w" in mode else fh

        monkeypatch.setattr(dataio, "open", failing_open, raising=False)
        assert run(config["command"], write_config(tmp_path / "c.json", config), out) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:io: ") and "[Errno 28]" in err
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]

    def test_fit_whose_metrics_write_fails_leaves_no_model(
        self, tmp_path, valid_configs, monkeypatch, capsys
    ):
        """fit writes both outputs or neither: its metrics temporary is
        complete before the model file is written."""
        config = valid_configs["fit"]
        out = tmp_path / "out"
        out.mkdir()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            metrics = config["metrics_output"] in os.path.basename(file)
            return FailingSecondWrite(fh) if metrics and "w" in mode else fh

        monkeypatch.setattr(dataio, "open", failing_open, raising=False)
        assert run("fit", write_config(tmp_path / "c.json", config), out) == 1
        assert sorted(p.name for p in out.iterdir()) == []
        assert capsys.readouterr().err.startswith("ERROR:io: ")


def run_with_peak_rss(command, config_path, out_dir) -> tuple[int, int, str]:
    """Run an operlab command in a child process: its exit code, peak RSS
    (KiB) and stderr.  A child's ru_maxrss includes the RSS of the process
    it was forked from, so the child is started by a fresh interpreter, not
    by this one."""
    launcher = (
        "import json, os, subprocess, sys\n"
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "operlab", command,
         "--config", str(config_path), "--out", str(out_dir)],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
    )
    code, max_rss_kib = json.loads(proc.stdout)
    return code, max_rss_kib, proc.stderr


class TestProcessInterface:
    def test_subprocess_error_is_single_line(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        proc = subprocess.run(
            [sys.executable, "-m", "operlab", "generate", "--config", str(config)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = [l for l in proc.stderr.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("ERROR:config:")

    @staticmethod
    def recover_process(out_dir, **streams):
        """A small circulant recover run by `python -m operlab`, the process
        entry, with the given subprocess.run stream arguments."""
        config = write_config(out_dir / "r.json", RECOVER_CIRCULANT)
        return subprocess.run(
            [sys.executable, "-m", "operlab", "recover", "--config", config, "--out", str(out_dir)],
            text=True, cwd=ROOT, env=child_env(), **streams)

    def test_a_piped_stdout_keeps_its_line(self, tmp_path):
        """The process ends with os._exit after flushing its streams, so a
        block-buffered stdout (a pipe, PYTHONUNBUFFERED unset) still carries
        the summary line, and the report is in place."""
        proc = self.recover_process(tmp_path, capture_output=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert re.fullmatch(r"recover algorithm=circulant .*\n", proc.stdout), proc.stdout
        assert json.loads((tmp_path / "report.json").read_text())["forward_queries"] == 1

    def test_a_broken_stdout_is_one_error_line(self, tmp_path):
        """With the read end of its stdout closed before it writes, a run
        exits 1 with one ERROR:io line, not 120 with finalization's two-line
        BrokenPipeError notice."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.recover_process(tmp_path, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(lines) == 1, (proc.returncode, lines)
        assert lines[0].startswith("ERROR:io: "), lines

    def test_a_run_without_stdout_succeeds(self, tmp_path):
        """A process started with fd 1 closed has no sys.stdout; its run
        writes the report and exits 0 with nothing on stderr."""
        proc = self.recover_process(tmp_path, stderr=subprocess.PIPE,
                                    preexec_fn=lambda: os.close(1))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert (tmp_path / "report.json").is_file()

    def test_recover_hodlr_4096_is_repeatable_and_small(self, tmp_path):
        """The residual reference is the instance itself, scored from its factors:
        two runs agree apart from the wall time, and neither child's peak RSS
        reaches the 256 MB that two dense 4096 x 4096 arrays would take."""
        config = write_config(
            tmp_path / "r.json",
            dict(RECOVER, algorithm="hodlr", dimension=4096, block_rank=4, levels=7),
        )
        reports = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            run_dir.mkdir()
            code, max_rss_kib, stderr = run_with_peak_rss("recover", config, run_dir)
            assert code == 0, stderr
            assert max_rss_kib < 160 * 1024
            report = json.loads((run_dir / "report.json").read_text())
            del report["wall_time_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["residual_frobenius_relative"] <= 1e-10

    def test_rough_burgers_generate_is_small(self, tmp_path):
        """At smoothness 1 the helmholtz mode cap is its limit, 999 999
        modes, but a 64-point grid keeps 63 coefficients: 64 pairs draw 63
        deviates each, not the 1 GB of 1 999 999 each."""
        cov = {"family": "helmholtz-power", "smoothness": 1.0, "shift": 9.0}
        config = write_config(tmp_path / "g.json", dict(
            POISSON_GENERATE, seed=3, pde="burgers1d", num_pairs=64, resolution=64,
            covariance=cov))
        code, max_rss_kib, stderr = run_with_peak_rss("generate", config, tmp_path)
        assert code == 0, stderr
        assert max_rss_kib < 200 * 1024

    def test_mismatched_command_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", POISSON_GENERATE)
        assert main(["recover", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("ERROR:config:")

    @pytest.mark.parametrize(
        "extra", [["--threads", "0"], ["--bogus"]], ids=["threads-removed", "unknown-flag"]
    )
    def test_usage_error_is_single_line(self, tmp_path, capsys, extra):
        config = write_config(tmp_path / "c.json", POISSON_GENERATE)
        assert run("generate", config, tmp_path, extra) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR:usage:")

    def test_benchmark_tracer_runs_a_chain(self, tmp_path):
        """perfbench/tracing.py wraps operlab functions by name, so a renamed
        function breaks every traced benchmark run; a tiny traced chain must
        succeed and record its spans."""
        env = child_env()
        steps = {
            "generate": dict(POISSON_GENERATE, num_pairs=6, resolution=32),
            "fit": {"command": "fit", "seed": 1, "dataset": str(tmp_path / "train.ds"),
                    "variant": "hierarchical", "levels": 2, "rank": 2, "train_fraction": 0.5,
                    "model_output": "model.bin", "metrics_output": "metrics.json"},
            "eval": {"command": "eval", "seed": 1, "model": str(tmp_path / "model.bin"),
                     "datasets": [{"resolution": 32, "path": str(tmp_path / "train.ds")}],
                     "output": "eval.csv"},
            "recover": {"command": "recover", "seed": 1, "algorithm": "hodlr", "dimension": 256,
                        "block_rank": 2, "levels": 4, "output": "recover.json"},
        }
        spans = {}
        for command, config in steps.items():
            config_path = write_config(tmp_path / f"{command}.json", config)
            trace = tmp_path / f"{command}.jsonl"
            proc = subprocess.run(
                [sys.executable, "perfbench/tracing.py", "--trace-out", str(trace),
                 "--run-id", "t", "--", command, "--config", config_path,
                 "--out", str(tmp_path)],
                capture_output=True,
                text=True,
                cwd=ROOT,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            records = [json.loads(line) for line in trace.read_text().splitlines()]
            spans[command] = {r["name"] for r in records if r["kind"] == "span"}
        assert "pdelab.make_dataset" in spans["generate"]
        assert {"cli.cmd_fit", "dataio.load_dataset", "dataio.save_model"} <= spans["fit"]
        assert {"cli.cmd_eval", "dataio.load_dataset", "dataio.load_model"} <= spans["eval"]
        # the spans behind the recover-structured per-layer metrics
        assert {"recovery.recover_hodlr", "structured.random_structured",
                "structured.oracle.apply"} <= spans["recover"]

    def test_each_command_loads_only_its_own_modules(self, tmp_path):
        """The package loads a module the first time one of its exports is
        used, and the CLI imports each module inside the commands that run
        it, so a process compiles and runs only its own command's modules."""
        env = child_env()
        steps = {
            "generate": dict(POISSON_GENERATE, num_pairs=8, resolution=32),
            "recover": {"command": "recover", "seed": 5, "algorithm": "hodlr", "dimension": 64,
                        "block_rank": 2, "levels": 3, "output": "h.json"},
            "fit": {"command": "fit", "seed": 1, "dataset": str(tmp_path / "train.ds"),
                    "variant": "hierarchical", "levels": 2, "rank": 2, "train_fraction": 0.5,
                    "model_output": "hier.bin", "metrics_output": "metrics.json"},
            "eval": {"command": "eval", "seed": 1, "model": str(tmp_path / "hier.bin"),
                     "datasets": [{"resolution": 32, "path": str(tmp_path / "train.ds")}],
                     "output": "eval.csv"},
        }
        fit_eval = {"cli", "numerics", "grids", "structured", "opfit", "dataio"}
        expected = {
            "generate": {"cli", "numerics", "grids", "probes", "pdelab", "dataio"},
            "recover": {"cli", "numerics", "structured", "recovery", "dataio"},
            "fit": fit_eval,
            "eval": fit_eval,
        }
        loaded = (
            "print(json.dumps(sorted(m[len('operlab.'):] for m in sys.modules\n"
            "                        if m.startswith('operlab.'))))\n"
        )
        # logging loads only with OPERLAB_LOG (unset here; these configs need no
        # KL jitter), and dataclasses only with grids
        stdlib = "print(json.dumps(sorted({'logging', 'dataclasses'} & set(sys.modules))))\n"
        child = ("import json, sys\nimport operlab.cli\ncode = operlab.cli.main(sys.argv[1:])\n"
                 + loaded + stdlib + "sys.exit(code)\n")
        for command, config in steps.items():
            argv = [command, "--config", write_config(tmp_path / f"{command}.json", config),
                    "--out", str(tmp_path)]
            proc = subprocess.run([sys.executable, "-c", child, *argv],
                                  capture_output=True, text=True, cwd=ROOT, env=env)
            assert proc.returncode == 0, proc.stderr
            modules, standard = map(json.loads, proc.stdout.splitlines()[-2:])
            assert set(modules) == expected[command], command
            assert standard == ([] if command == "recover" else ["dataclasses"]), command

        for statement, modules in (("import operlab", []), ("import operlab.cli", ["cli"])):
            script = f"import json, sys\n{statement}\n{loaded}{stdlib}"
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, cwd=ROOT, env=env)
            assert proc.returncode == 0, proc.stderr
            assert list(map(json.loads, proc.stdout.splitlines())) == [modules, []], statement

        exports = (
            "import json, sys\n"
            "import operlab\n"
            "names = {}\n"
            "exec('from operlab import *', names)\n"
            "names.pop('__builtins__')\n"
            "homes = {name: obj.__module__ for name, obj in names.items()}\n"
            "same = [name for name, obj in names.items()\n"
            "        if getattr(sys.modules[homes[name]], name) is obj]\n"
            "print(json.dumps({'all': operlab.__all__, 'bound': sorted(names),\n"
            "                  'same': sorted(same), 'homes': sorted(set(homes.values())),\n"
            "                  'dir': dir(operlab)}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", exports],
                              capture_output=True, text=True, cwd=ROOT, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["bound"] == result["same"] == sorted(result["all"])
        assert all(home.startswith("operlab.") for home in result["homes"])
        assert set(result["all"]) <= set(result["dir"])

    def test_kl_jitter_reaches_the_log_only_when_asked_for(self, tmp_path):
        """OPERLAB_LOG=info prints the KL jitter message on stderr (the
        squared-exponential Gram at l=0.3 on 32 points needs jitter), though
        logging is loaded only then; with OPERLAB_LOG unset stderr is empty."""
        config = write_config(tmp_path / "g.json", dict(
            POISSON_GENERATE, num_pairs=2, resolution=32,
            covariance={"family": "squared-exponential", "length_scale": 0.3}))
        argv = [sys.executable, "-m", "operlab", "generate", "--config", config,
                "--out", str(tmp_path)]
        logged = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                env=dict(child_env(), OPERLAB_LOG="info"))
        assert logged.returncode == 0, logged.stderr
        lines = logged.stderr.splitlines()
        assert len(lines) == 1 and "adding diagonal jitter" in lines[0], lines
        quiet = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env())
        assert quiet.returncode == 0 and quiet.stderr == "", quiet.stderr

    @pytest.mark.parametrize("level", ["basic_format", "bogus", ""])
    def test_an_operlab_log_that_names_no_level_logs_warnings(self, tmp_path, level):
        """A value of OPERLAB_LOG that is not a level name, even one naming a
        logging attribute that is no level, sets WARNING instead of failing."""
        config = write_config(tmp_path / "r.json", dict(RECOVER_CIRCULANT, output="c.json"))
        proc = subprocess.run(
            [sys.executable, "-m", "operlab", "recover", "--config", config, "--out", str(tmp_path)],
            capture_output=True, text=True, cwd=ROOT, env=dict(child_env(), OPERLAB_LOG=level))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def test_poisson_generate_recover_fit_eval_never_import_scipy(self, tmp_path):
        """Only the Darcy solver and the Matern-Bessel covariance (smoothness
        other than 0.5, 1.5 or 2.5) use scipy, and they import it themselves;
        generate for poisson1d and every other command must run in a process
        that never loads it, which saves most of its start-up."""
        env = child_env()
        generate = dict(POISSON_GENERATE, num_pairs=8, resolution=32)
        recover = {"command": "recover", "seed": 5}
        fit = {"command": "fit", "seed": 1, "dataset": str(tmp_path / "train.ds"),
               "train_fraction": 0.5, "metrics_output": "metrics.json"}
        steps = [("generate", generate)] + [
            ("generate", dict(generate, output=f"matern{nu}.ds",
                              covariance={"family": "matern", "length_scale": 0.1,
                                          "smoothness": nu}))
            for nu in (0.5, 1.5, 2.5)
        ] + [
            ("recover", dict(recover, algorithm="circulant", dimension=64, output="c.json")),
            ("recover", dict(recover, algorithm="banded", dimension=12, bandwidth=2,
                             output="b.json")),
            ("recover", dict(recover, algorithm="hodlr", dimension=64, block_rank=2, levels=3,
                             output="h.json")),
            ("recover", dict(recover, algorithm="low-rank", dimension=64, rank=3,
                             output="l.json")),
            ("fit", dict(fit, variant="dense-kernel", model_output="dense.bin")),
            ("fit", dict(fit, variant="hierarchical", levels=2, rank=2,
                         model_output="hier.bin")),
            ("eval", {"command": "eval", "seed": 1, "model": str(tmp_path / "hier.bin"),
                      "datasets": [{"resolution": 32, "path": str(tmp_path / "train.ds")}],
                      "output": "eval.csv"}),
        ]
        argvs = [
            [command, "--config", write_config(tmp_path / f"step{i}.json", config),
             "--out", str(tmp_path)]
            for i, (command, config) in enumerate(steps)
        ]
        child = (
            "import json, sys\n"
            "import operlab, operlab.cli\n"
            "codes = [operlab.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps({'codes': codes, 'scipy': scipy}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argvs)],
            capture_output=True, text=True, cwd=ROOT, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0] * len(steps), proc.stderr
        assert result["scipy"] == []
