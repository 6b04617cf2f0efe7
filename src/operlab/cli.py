"""Command-line experiment driver: generate, recover, fit, eval.

Configs are JSON with strict schemas (unknown keys are fatal, a seed is
mandatory) so runs are reproducible; identical configs produce byte-identical
output files.  Wall times go to stdout, with one exception: recover still
writes wall_time_seconds into report.json, because the benchmark's report
check (perfbench/checks.py) requires that key, so two recover reports differ
in that field alone.  Every recover run is held to its exact query budget
(recovery.query_budget): a run that strays from it writes no report.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

# Each command imports the operlab modules it runs, inside the functions that
# use them, so a process loads only its own command's modules.
if TYPE_CHECKING:
    from .grids import OperatorDataset
    from .probes import CovarianceSpec


class CliError(RuntimeError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def _int(low: int) -> tuple:
    # no array dimension, count or seed stream of numpy goes beyond int64
    return (True, low, False, 2 ** 63 - 1)


def _number(low: float = -math.inf, strict: bool = False, high: float = math.inf) -> tuple:
    return (False, low, strict, high)


_PATH = "path"  # the rule of a field that names a file: a nonempty string


# Every config context by kind and name (a kind other than "dataset entry" is
# the config field that selects the context): its required fields and its
# optional ones, each with a value rule: _PATH, or (integer?, lower bound,
# bound strict?, upper bound).  Fields without a rule hold names, lists or
# objects; validate_config checks those it relies on, and adds generate's
# resolution rule from pdelab.  The covariance ranges are CovarianceSpec's.
_FIELDS = {
    "command": {
        "generate": (
            {"command": None, "seed": _int(0), "pde": None, "num_pairs": _int(0),
             "resolution": None, "covariance": None, "output": _PATH},
            {"viscosity": _number(0, strict=True), "final_time": _number(0)},
        ),
        "recover": (
            {"command": None, "seed": _int(0), "algorithm": None, "dimension": _int(1),
             "output": _PATH},
            {},
        ),
        "fit": (
            {"command": None, "seed": _int(0), "dataset": _PATH, "variant": None,
             "model_output": _PATH, "metrics_output": _PATH},
            {"ridge": _number(0), "train_fraction": _number(0, strict=True, high=1),
             "losses": None},
        ),
        "eval": (
            {"command": None, "seed": _int(0), "model": _PATH, "datasets": None,
             "output": _PATH},
            {"losses": None},
        ),
    },
    "algorithm": {
        "low-rank": ({"rank": _int(1)}, {"oversampling": _int(0)}),
        "circulant": ({}, {}),
        "banded": ({"bandwidth": _int(0)}, {}),
        "hodlr": ({"block_rank": _int(1), "levels": _int(1)}, {"oversampling": _int(0)}),
    },
    "variant": {
        "dense-kernel": ({}, {}),
        "low-rank": ({"rank": _int(1)}, {}),
        "fourier-multiplier": ({"max_mode": _int(0)}, {}),
        # a radius above the domain length depends on the dataset: opfit checks it
        "banded": ({"radius": _number(0, strict=True)}, {}),
        "hierarchical": ({"levels": _int(1), "rank": _int(1)}, {}),
    },
    "family": {
        "squared-exponential": ({"family": None, "length_scale": _number()}, {}),
        "matern": ({"family": None, "length_scale": _number(), "smoothness": _number()}, {}),
        "helmholtz-power": (
            {"family": None, "smoothness": _number()},
            {"amplitude": _number(), "shift": _number()},
        ),
    },
    "dataset entry": {"eval": ({"resolution": _int(2), "path": _PATH}, {})},
}

# Each _FIELDS["algorithm"] entry's recovery: the random_structured keywords of
# its instance (keyword -> config field); its sketch, if it takes one, as the
# config field of its rank and the column blocks it sketches one at a time
# (recovery.sketch_width); and its call given the recovery module.  The calls
# look up recovery's functions when they run, so hooks that replace them
# still see them.
_RECOVER = {
    "low-rank": ({"rank": "rank"}, ("rank", 1), lambda recovery, oracle, config, stream:
                 recovery.randomized_svd(oracle, config["rank"],
                                         config.get("oversampling", recovery.OVERSAMPLING),
                                         stream=stream)),
    "circulant": ({}, None, lambda recovery, oracle, config, stream:
                  recovery.recover_circulant(oracle, stream)),
    "banded": ({"bandwidth": "bandwidth"}, None, lambda recovery, oracle, config, stream:
               recovery.recover_banded(oracle, config["bandwidth"])),
    "hodlr": ({"rank": "block_rank", "levels": "levels"}, ("block_rank", 2),
              lambda recovery, oracle, config, stream:
              recovery.recover_hodlr(oracle, config["block_rank"], config["levels"],
                                     config.get("oversampling", recovery.OVERSAMPLING),
                                     stream=stream)),
}

_PDE_FAMILIES = {
    "poisson1d": {"squared-exponential", "matern"},
    "burgers1d": {"helmholtz-power"},
    "darcy2d": {"helmholtz-power"},
}


def _lookup(table: dict, kind: str, name):
    if isinstance(name, str) and name in table:
        return table[name]
    raise CliError("config", f"unknown {kind} {name!r}")


def _check_value(key: str, value, rule):
    if rule == _PATH:
        if not isinstance(value, str) or not value:
            raise CliError("config", f"{key} must be a nonempty path string, got {value!r}")
        return
    integer, low, strict, high = rule
    # json.load also accepts NaN and Infinity, which are not JSON numbers, and
    # math.isfinite rejects an integer too large for a float with OverflowError
    try:
        valid = isinstance(value, int) if integer else math.isfinite(value)
    except (TypeError, OverflowError):
        valid = False
    if isinstance(value, bool) or not valid:
        kind = "an integer" if integer else "a finite number"
        raise CliError("config", f"{key} must be {kind}, got {value!r}")
    if value < low or (strict and value == low):
        raise CliError(
            "config", f"{key} must be {'above' if strict else 'at least'} {low}, got {value}"
        )
    if value > high:
        raise CliError("config", f"{key} must be at most {high}, got {value}")


def _check_fields(mapping, context: str, *entries):
    """Checks mapping against the union of table entries: no unknown key, no
    missing required key, and every present field within its rule."""
    if not isinstance(mapping, dict):
        raise CliError("config", f"{context} must be an object")
    required = {key for fields, _ in entries for key in fields}
    rules = {key: rule for entry in entries for fields in entry for key, rule in fields.items()}
    unknown = set(mapping) - set(rules)
    if unknown:
        raise CliError("config", f"{context}: unknown keys {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise CliError("config", f"{context}: missing required keys {sorted(missing)}")
    for key, value in mapping.items():
        if rules[key] is not None:
            _check_value(key, value, rules[key])


def validate_config(config: dict) -> dict:
    """Schema-check a config dict; returns it unchanged on success."""
    if not isinstance(config, dict):
        raise CliError("config", "config must be a JSON object")
    command = config.get("command")
    entries = [_lookup(_FIELDS["command"], "command", command)]
    if command == "generate":
        from . import pdelab

        entries.append(({"resolution": _int(min(pdelab.MIN_RESOLUTION.values()))}, {}))
    if command in ("recover", "fit"):
        field = "algorithm" if command == "recover" else "variant"
        entries.append(_lookup(_FIELDS[field], field, config.get(field)))
    _check_fields(config, f"{command} config", *entries)

    if command == "generate":
        pde = config["pde"]
        families = _lookup(_PDE_FAMILIES, "pde", pde)
        cov = config["covariance"]
        if not isinstance(cov, dict):
            raise CliError("config", "covariance must be an object")
        family = cov.get("family")
        entry = _lookup(_FIELDS["family"], "covariance family", family)
        if family not in families:
            raise CliError(
                "config", f"pde {pde!r} does not accept covariance family {family!r}"
            )
        _check_fields(cov, f"{family} covariance", entry)
        for key in ("viscosity", "final_time"):
            if key in config and pde != "burgers1d":
                raise CliError("config", f"{key} only applies to burgers1d")
        resolution = config["resolution"]
        _check_value("resolution", resolution, _int(pdelab.MIN_RESOLUTION[pde]))
        if pde == "burgers1d" and resolution & (resolution - 1):
            raise CliError(
                "config", f"burgers1d resolution must be a power of two, got {resolution}"
            )
    elif command == "fit":
        # one file cannot hold both: the metrics would be renamed over the model
        if os.path.normpath(config["model_output"]) == os.path.normpath(config["metrics_output"]):
            raise CliError("config", "model_output and metrics_output must name different files")
    elif command == "eval":
        datasets = config["datasets"]
        if not isinstance(datasets, list) or not datasets:
            raise CliError("config", "datasets must be a nonempty list")
        for entry in datasets:
            _check_fields(entry, "eval dataset entry", _FIELDS["dataset entry"]["eval"])
    if command in ("fit", "eval"):
        from . import opfit

        losses = config.get("losses", ["relative-l2"])
        if not isinstance(losses, list) or not losses:
            raise CliError("config", "losses must be a nonempty list")
        for kind in losses:
            if kind not in opfit.LOSS_KINDS:
                raise CliError("config", f"unknown loss kind {kind!r}")
    return config


def _covariance_from_config(cov: dict) -> CovarianceSpec:
    from .probes import CovarianceSpec

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
    from . import dataio, pdelab
    from .numerics import RngStream

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
    except ValueError as exc:  # a covariance that cannot be decomposed on the grid
        raise CliError("config", str(exc)) from exc
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
    from . import dataio, recovery
    from .numerics import RngStream
    from .structured import DENSE_CAP, MatvecOracle, random_structured

    algorithm = config["algorithm"]
    n = config["dimension"]
    seed = config["seed"]
    instance_stream = RngStream(seed).derive(0)
    probe_stream = RngStream(seed).derive(1)
    keywords, sketch, recover = _RECOVER[algorithm]
    try:
        if sketch is not None:  # before the instance, which a misfit may make huge
            rank_field, blocks = sketch
            oversampling = config.get("oversampling", recovery.OVERSAMPLING)
            recovery.sketch_width(n, config[rank_field], oversampling, blocks)
        instance = random_structured(
            algorithm, n, instance_stream, **{key: config[field] for key, field in keywords.items()}
        )
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    oracle = MatvecOracle.from_operator(instance)
    started = time.perf_counter()
    try:
        recovered = recover(recovery, oracle, config, probe_stream)
    except (recovery.ZeroFourierMode, recovery.RankDeficitError) as exc:
        raise CliError("recovery", str(exc)) from exc
    parameters = {k: config[k] for fields in _FIELDS["algorithm"][algorithm]
                  for k in fields if k in config}
    queries = (oracle.forward_queries, oracle.transpose_queries)
    budget = recovery.query_budget(algorithm, n, parameters)
    if queries != budget:
        raise CliError("internal", f"{algorithm} recovery made (forward, transpose) queries "
                                   f"{queries}, its budget is {budget}")
    residual = recovery.relative_residual(recovered, instance) if n <= DENSE_CAP else None
    elapsed = time.perf_counter() - started
    payload = {
        "algorithm": algorithm,
        "dimension": n,
        "parameters": parameters,
        "seed": seed,
        "forward_queries": queries[0],
        "transpose_queries": queries[1],
        "residual_frobenius_relative": residual,
        "wall_time_seconds": elapsed,
    }
    path = _out_path(out_dir, config["output"])
    with dataio.output_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"recover algorithm={algorithm} dimension={n} "
        f"forward_queries={queries[0]} transpose_queries={queries[1]} "
        f"residual={residual} output={path}"
    )
    return 0


def _load_checked(load, path: str):
    """load(path), with each container fault mapped to its own error code."""
    from . import dataio

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
    from .grids import OperatorDataset

    cut = int(np.floor(fraction * len(ds)))
    return [OperatorDataset(ds.grid, ds.input_values[part], ds.output_values[part], ds.provenance)
            for part in (slice(None, cut), slice(cut, None))]


def _metrics_for(model, ds: OperatorDataset, losses) -> dict:
    """Each loss kind's value for the model's predictions on ds."""
    from . import opfit

    try:
        return opfit.model_losses(model, ds, losses)
    except ValueError as exc:  # another grid, or a zero-norm target of a relative loss
        raise CliError("incompatible", str(exc)) from exc


def cmd_fit(config: dict, out_dir: str) -> int:
    from . import dataio, opfit

    ds = _load_checked(dataio.load_dataset, config["dataset"])
    variant = config["variant"]
    losses = config.get("losses", ["relative-l2"])
    train, test = _split_dataset(ds, config.get("train_fraction", 1.0))
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
    if variant in ("banded", "hierarchical"):
        metrics["truncation_error"] = model.truncation_error
    # both splits are scored, so a failed fit has written no file; the metrics
    # temporary is complete before the model is written, and is renamed only
    # once the model file is in place, so a failed write leaves neither output
    model_path = _out_path(out_dir, config["model_output"])
    metrics_path = _out_path(out_dir, config["metrics_output"])
    with dataio.output_file(metrics_path) as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        dataio.save_model(model_path, model)
    print(
        f"fit variant={variant} train_pairs={len(train)} test_pairs={len(test)} "
        f"wall_time={elapsed:.2f}s model={model_path} metrics={metrics_path}"
    )
    return 0


def cmd_eval(config: dict, out_dir: str) -> int:
    from . import dataio

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
        metrics = _metrics_for(model, ds, losses)
        rows += [(entry["resolution"], kind, metrics[kind], len(ds)) for kind in losses]
    path = _out_path(out_dir, config["output"])
    with dataio.output_file(path) as fh:
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

    level = os.environ.get("OPERLAB_LOG")
    if level is not None:  # logging is loaded only when asked for
        import logging

        # an unknown name, or a module attribute that is no level (BASIC_FORMAT), warns
        level = getattr(logging, level.upper(), None)
        logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)

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
    except MemoryError as exc:  # a size this machine cannot hold
        print(f"ERROR:incompatible: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that could not be written
        print(f"ERROR:io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # keep failures single-line and machine-parseable
        print(f"ERROR:internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
