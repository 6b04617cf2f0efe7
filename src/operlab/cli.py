"""Command-line experiment driver: generate, recover, fit, eval.

Configs are JSON with strict schemas (unknown keys are fatal, a seed is
mandatory) so runs are reproducible; identical configs produce byte-identical
output files.  Wall times go to stdout only, never into output files.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import dataio, opfit, pdelab, recovery
from .grids import OperatorDataset
from .numerics import RngStream
from .probes import CovarianceSpec
from .structured import DENSE_CAP, MatvecOracle, random_structured


class CliError(RuntimeError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


_COVARIANCE_SCHEMAS = {
    "squared-exponential": {"required": {"family", "length_scale"}, "optional": set()},
    "matern": {"required": {"family", "length_scale", "smoothness"}, "optional": set()},
    "helmholtz-power": {
        "required": {"family", "smoothness"},
        "optional": {"amplitude", "shift"},
    },
}

_PDE_FAMILIES = {
    "poisson1d": {"squared-exponential", "matern"},
    "burgers1d": {"helmholtz-power"},
    "darcy2d": {"helmholtz-power"},
}

_COMMAND_SCHEMAS = {
    "generate": {
        "required": {"command", "seed", "pde", "num_pairs", "resolution", "covariance", "output"},
        "optional": {"viscosity", "final_time"},
    },
    "recover": {
        "required": {"command", "seed", "algorithm", "dimension", "output"},
        "optional": {"rank", "oversampling", "bandwidth", "block_rank", "levels"},
    },
    "fit": {
        "required": {"command", "seed", "dataset", "variant", "model_output", "metrics_output"},
        "optional": {"ridge", "train_fraction", "losses", "rank", "max_mode", "radius", "levels"},
    },
    "eval": {
        "required": {"command", "seed", "model", "datasets", "output"},
        "optional": {"losses"},
    },
}

_ALGORITHM_PARAMS = {
    "low-rank": {"required": {"rank"}, "optional": {"oversampling"}},
    "circulant": {"required": set(), "optional": set()},
    "banded": {"required": {"bandwidth"}, "optional": set()},
    "hodlr": {"required": {"block_rank", "levels"}, "optional": {"oversampling"}},
}

_VARIANT_PARAMS = {
    "dense-kernel": {"required": set(), "optional": {"ridge"}},
    "low-rank": {"required": {"rank"}, "optional": {"ridge"}},
    "fourier-multiplier": {"required": {"max_mode"}, "optional": {"ridge"}},
    "banded": {"required": {"radius"}, "optional": {"ridge"}},
    "hierarchical": {"required": {"levels", "rank"}, "optional": {"ridge"}},
}


def _check_keys(mapping: dict, required: set, optional: set, context: str):
    keys = set(mapping)
    unknown = keys - required - optional
    if unknown:
        raise CliError("config", f"{context}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise CliError("config", f"{context}: missing required keys {sorted(missing)}")


# integer fields of recover and fit configs and their smallest allowed values
_INT_FIELDS = {
    "dimension": 1, "rank": 1, "oversampling": 0, "bandwidth": 0, "block_rank": 1, "levels": 1,
    "max_mode": 0,
}
# no array dimension, count or seed stream of numpy goes beyond int64
_INT_MAX = 2 ** 63 - 1


def _check_int(config: dict, key: str, minimum: int):
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError("config", f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise CliError("config", f"{key} must be at least {minimum}, got {value}")
    if value > _INT_MAX:
        raise CliError("config", f"{key} must be below 2**63, got {value}")


def _check_number(config: dict, key: str):
    value = config[key]
    # json.load also accepts NaN and Infinity, which are not JSON numbers, and
    # math.isfinite rejects an integer too large for a float with OverflowError
    try:
        finite = isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        finite = False
    if isinstance(value, bool) or not finite:
        raise CliError("config", f"{key} must be a finite number, got {value!r}")


def validate_config(config: dict) -> dict:
    """Schema-check a config dict; returns it unchanged on success."""
    if not isinstance(config, dict):
        raise CliError("config", "config must be a JSON object")
    command = config.get("command")
    if command not in _COMMAND_SCHEMAS:
        raise CliError("config", f"unknown or missing command {command!r}")
    schema = _COMMAND_SCHEMAS[command]
    _check_keys(config, schema["required"], schema["optional"], f"{command} config")
    _check_int(config, "seed", 0)

    if command == "generate":
        pde = config["pde"]
        if pde not in _PDE_FAMILIES:
            raise CliError("config", f"unknown pde {pde!r}")
        cov = config["covariance"]
        if not isinstance(cov, dict):
            raise CliError("config", "covariance must be an object")
        family = cov.get("family")
        if family not in _COVARIANCE_SCHEMAS:
            raise CliError("config", f"unknown covariance family {family!r}")
        if family not in _PDE_FAMILIES[pde]:
            raise CliError(
                "config", f"pde {pde!r} does not accept covariance family {family!r}"
            )
        fam_schema = _COVARIANCE_SCHEMAS[family]
        _check_keys(cov, fam_schema["required"], fam_schema["optional"], f"{family} covariance")
        for key in cov:
            if key != "family":
                _check_number(cov, key)
        for key in ("viscosity", "final_time"):
            if key in config:
                if pde != "burgers1d":
                    raise CliError("config", f"{key} only applies to burgers1d")
                _check_number(config, key)
        if config.get("viscosity", 1.0) <= 0:
            raise CliError("config", f"viscosity must be positive, got {config['viscosity']}")
        if config.get("final_time", 0.0) < 0:
            raise CliError("config", f"final_time must be nonnegative, got {config['final_time']}")
        _check_int(config, "num_pairs", 0)
        _check_int(config, "resolution", pdelab.MIN_RESOLUTION[pde])
        resolution = config["resolution"]
        if pde == "burgers1d" and resolution & (resolution - 1):
            raise CliError(
                "config", f"burgers1d resolution must be a power of two, got {resolution}"
            )
    elif command == "recover":
        algorithm = config["algorithm"]
        if algorithm not in _ALGORITHM_PARAMS:
            raise CliError("config", f"unknown recovery algorithm {algorithm!r}")
        params = _ALGORITHM_PARAMS[algorithm]
        given = set(config) - _COMMAND_SCHEMAS["recover"]["required"]
        _check_keys(
            {k: config[k] for k in given},
            params["required"],
            params["optional"],
            f"{algorithm} recovery",
        )
    elif command == "fit":
        variant = config["variant"]
        if variant not in _VARIANT_PARAMS:
            raise CliError("config", f"unknown model variant {variant!r}")
        params = _VARIANT_PARAMS[variant]
        given = set(config) - _COMMAND_SCHEMAS["fit"]["required"] - {"train_fraction", "losses"}
        _check_keys(
            {k: config[k] for k in given},
            params["required"],
            params["optional"],
            f"{variant} fit",
        )
        for key in ("radius", "ridge", "train_fraction"):
            if key in config:
                _check_number(config, key)
        if config.get("ridge", 0.0) < 0:
            raise CliError("config", f"ridge must be nonnegative, got {config['ridge']}")
        # a radius above the domain length depends on the dataset: opfit checks it
        if config.get("radius", 1.0) <= 0:
            raise CliError("config", f"radius must be positive, got {config['radius']}")
        _check_losses(config.get("losses"))
    elif command == "eval":
        datasets = config["datasets"]
        if not isinstance(datasets, list) or not datasets:
            raise CliError("config", "datasets must be a nonempty list")
        for entry in datasets:
            if not isinstance(entry, dict):
                raise CliError("config", "each dataset entry must be an object")
            _check_keys(entry, {"resolution", "path"}, set(), "eval dataset entry")
            _check_int(entry, "resolution", 2)
        _check_losses(config.get("losses"))
    if command in ("recover", "fit"):
        for key, minimum in _INT_FIELDS.items():
            if key in config:
                _check_int(config, key, minimum)
    return config


def _check_losses(losses):
    if losses is None:
        return
    if not isinstance(losses, list) or not losses:
        raise CliError("config", "losses must be a nonempty list")
    for kind in losses:
        if kind not in opfit.LOSS_KINDS:
            raise CliError("config", f"unknown loss kind {kind!r}")


def _covariance_from_config(cov: dict) -> CovarianceSpec:
    try:
        return CovarianceSpec(**cov, periodic=cov["family"] == "helmholtz-power")
    except ValueError as exc:  # a hyperparameter out of its family's range
        raise CliError("config", str(exc)) from exc


def _out_path(out_dir: str, path: str) -> str:
    full = os.path.join(out_dir, path)
    parent = os.path.dirname(full)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return full


def cmd_generate(config: dict, out_dir: str) -> int:
    spec = _covariance_from_config(config["covariance"])
    stream = RngStream(config["seed"])
    kwargs = {}
    if config["pde"] == "burgers1d":
        kwargs["viscosity"] = config.get("viscosity", pdelab.BURGERS_VISCOSITY)
        kwargs["final_time"] = config.get("final_time", pdelab.BURGERS_FINAL_TIME)
    started = time.perf_counter()
    try:
        ds = pdelab.make_dataset(
            config["pde"], spec, config["num_pairs"], config["resolution"], stream, **kwargs
        )
    except pdelab.SolverError as exc:
        raise CliError("solver", str(exc)) from exc
    path = _out_path(out_dir, config["output"])
    dataio.save_dataset(path, ds)
    elapsed = time.perf_counter() - started
    print(
        f"generate pde={config['pde']} pairs={config['num_pairs']} "
        f"resolution={config['resolution']} seed={config['seed']} "
        f"wall_time={elapsed:.2f}s output={path}"
    )
    return 0


def cmd_recover(config: dict, out_dir: str) -> int:
    algorithm = config["algorithm"]
    n = config["dimension"]
    seed = config["seed"]
    instance_stream = RngStream(seed).derive(0)
    probe_stream = RngStream(seed).derive(1)
    params = {}
    if algorithm == "low-rank":
        params = {"rank": config["rank"]}
    elif algorithm == "banded":
        params = {"bandwidth": config["bandwidth"]}
    elif algorithm == "hodlr":
        params = {"rank": config["block_rank"], "levels": config["levels"]}
    try:
        instance = random_structured(algorithm, n, instance_stream, **params)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    oracle = MatvecOracle.from_operator(instance)
    started = time.perf_counter()
    try:
        if algorithm == "low-rank":
            recovered = recovery.randomized_svd(
                oracle, config["rank"], config.get("oversampling", 5), stream=probe_stream
            )
        elif algorithm == "circulant":
            recovered = recovery.recover_circulant(oracle, probe_stream)
        elif algorithm == "banded":
            recovered = recovery.recover_banded(oracle, config["bandwidth"])
        else:
            recovered = recovery.recover_hodlr(
                oracle, config["block_rank"], config["levels"],
                config.get("oversampling", 5), stream=probe_stream,
            )
    except (recovery.ZeroFourierMode, recovery.RankDeficitError) as exc:
        raise CliError("recovery", str(exc)) from exc
    except ValueError as exc:  # parameters that do not fit the dimension
        raise CliError("config", str(exc)) from exc
    residual = recovery.relative_residual(recovered, instance) if n <= DENSE_CAP else None
    elapsed = time.perf_counter() - started
    payload = {
        "algorithm": algorithm,
        "dimension": n,
        "parameters": {k: config[k] for k in config
                       if k in ("rank", "oversampling", "bandwidth", "block_rank", "levels")},
        "seed": seed,
        "forward_queries": oracle.forward_queries,
        "transpose_queries": oracle.transpose_queries,
        "residual_frobenius_relative": residual,
        "wall_time_seconds": elapsed,
    }
    path = _out_path(out_dir, config["output"])
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"recover algorithm={algorithm} dimension={n} "
        f"forward_queries={oracle.forward_queries} "
        f"transpose_queries={oracle.transpose_queries} "
        f"residual={residual} output={path}"
    )
    return 0


def _load_checked(load, path: str):
    """load(path), with each container fault mapped to its own error code."""
    try:
        return load(path)
    except dataio.ChecksumMismatchError as exc:
        raise CliError("checksum", str(exc)) from exc
    except dataio.UnsupportedVersionError as exc:
        raise CliError("version", str(exc)) from exc
    except dataio.TruncatedPayloadError as exc:
        raise CliError("truncated", str(exc)) from exc
    except dataio.DataFormatError as exc:
        raise CliError("format", str(exc)) from exc
    except OSError as exc:
        raise CliError("io", str(exc)) from exc


def _split_dataset(ds: OperatorDataset, fraction: float):
    count = len(ds)
    train_count = int(np.floor(fraction * count))
    train = OperatorDataset(
        ds.grid, ds.input_values[:train_count], ds.output_values[:train_count], ds.provenance
    )
    test = OperatorDataset(
        ds.grid, ds.input_values[train_count:], ds.output_values[train_count:], ds.provenance
    )
    return train, test


def _metrics_for(model, ds: OperatorDataset, losses) -> dict:
    preds = model.predict_batch(ds.grid, ds.input_values)
    return {kind: opfit.batch_loss(kind, ds.grid, preds, ds.output_values) for kind in losses}


def cmd_fit(config: dict, out_dir: str) -> int:
    ds = _load_checked(dataio.load_dataset, config["dataset"])
    variant = config["variant"]
    losses = config.get("losses", ["relative-l2"])
    fraction = config.get("train_fraction", 1.0)
    if not 0.0 < fraction <= 1.0:
        raise CliError("config", "train_fraction must be in (0, 1]")
    train, test = _split_dataset(ds, fraction)
    if len(train) == 0:
        raise CliError("config", "train split is empty")
    ridge = config.get("ridge")
    started = time.perf_counter()
    try:
        if variant == "dense-kernel":
            model = opfit.fit_green_kernel(train, ridge)
        elif variant == "low-rank":
            model = opfit.fit_low_rank(train, config["rank"], ridge)
        elif variant == "fourier-multiplier":
            model = opfit.fit_fourier_multiplier(train, config["max_mode"], ridge or 0.0)
        elif variant == "banded":
            model = opfit.truncate_band(opfit.fit_green_kernel(train, ridge), config["radius"])
        else:
            model = opfit.hierarchical_decompose(
                opfit.fit_green_kernel(train, ridge), config["levels"], config["rank"]
            )
    except ValueError as exc:
        raise CliError("incompatible", str(exc)) from exc
    elapsed = time.perf_counter() - started
    model_path = _out_path(out_dir, config["model_output"])
    dataio.save_model(model_path, model)
    metrics: dict = {
        "variant": variant,
        "train_pairs": len(train),
        "test_pairs": len(test),
        "train": _metrics_for(model, train, losses),
    }
    if len(test):
        metrics["test"] = _metrics_for(model, test, losses)
    if variant == "fourier-multiplier":
        metrics["multiplier"] = [
            {
                "mode": mode,
                "real": model.mode_value(mode).real,
                "imag": model.mode_value(mode).imag,
                "excited": bool(model.excited[mode + model.max_mode]),
            }
            for mode in range(-model.max_mode, model.max_mode + 1)
        ]
    if variant == "banded":
        metrics["truncation_error"] = model.truncation_error
    if variant == "hierarchical":
        metrics["truncation_error"] = model.total_truncation_error
    metrics_path = _out_path(out_dir, config["metrics_output"])
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"fit variant={variant} train_pairs={len(train)} test_pairs={len(test)} "
        f"wall_time={elapsed:.2f}s model={model_path} metrics={metrics_path}"
    )
    return 0


def cmd_eval(config: dict, out_dir: str) -> int:
    model = _load_checked(dataio.load_model, config["model"])
    losses = config.get("losses", ["relative-l2"])
    rows = []
    for entry in config["datasets"]:
        ds = _load_checked(dataio.load_dataset, entry["path"])
        if len(ds) == 0:
            raise CliError("incompatible", f"{entry['path']}: empty dataset")
        if ds.grid.n != entry["resolution"]:
            raise CliError(
                "incompatible",
                f"{entry['path']}: resolution {ds.grid.n} does not match "
                f"declared {entry['resolution']}",
            )
        try:
            preds = model.predict_batch(ds.grid, ds.input_values)
        except ValueError as exc:
            raise CliError("incompatible", str(exc)) from exc
        for kind in losses:
            value = opfit.batch_loss(kind, ds.grid, preds, ds.output_values)
            rows.append((entry["resolution"], kind, value, len(ds)))
    path = _out_path(out_dir, config["output"])
    with open(path, "w") as fh:
        fh.write("resolution,loss_kind,value,n_pairs\n")
        for resolution, kind, value, count in rows:
            fh.write(f"{resolution},{kind},{value!r},{count}\n")
    print(f"eval model={config['model']} rows={len(rows)} output={path}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "recover": cmd_recover,
    "fit": cmd_fit,
    "eval": cmd_eval,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a CliError instead of printing usage and exiting 2."""

    def error(self, message):
        raise CliError("usage", message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="operlab",
        description="Structured-operator recovery and operator-learning experiments.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="directory for output files")

    level = os.environ.get("OPERLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise CliError("io", f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError("config", f"config is not valid JSON: {exc}") from exc
        if args.seed is not None:
            config["seed"] = args.seed
        validate_config(config)
        if config["command"] != args.command:
            raise CliError(
                "config",
                f"config command {config['command']!r} does not match {args.command!r}",
            )
        return _COMMANDS[args.command](config, args.out)
    except CliError as exc:
        print(f"ERROR:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # keep failures single-line and machine-parseable
        print(f"ERROR:internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
