"""Output checks against the README contracts, and the result-line parser.

Every check returns a list of problem strings; an empty list means the
output passed.  The benchmark counts a step with any problem as failed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

CONTAINER_MAGIC = "operlab-binary"
# `recover` writes its own wall time into report.json (README: "the report
# lists ... wall time"), so two runs of one seed differ in this key only.
VOLATILE_REPORT_KEYS = ("wall_time_seconds",)
RESIDUAL_LIMIT = 1e-10
EVAL_COLUMNS = ["resolution", "loss_kind", "value", "n_pairs"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def step_problems(returncode: int, stdout: str, stderr: str) -> list[str]:
    """A CLI step passes only with exit code 0 and no `ERROR:` line."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    for line in (stdout + "\n" + stderr).splitlines():
        if line.startswith("ERROR:"):
            problems.append(f"error line: {line[:200]}")
    return problems


def container_problems(data: bytes) -> list[str]:
    """Magic line, declared header length, payload length and SHA-256."""
    newline = data.find(b"\n")
    parts = data[:newline].decode(errors="replace").split() if newline > 0 else []
    if len(parts) != 3 or parts[0] != CONTAINER_MAGIC or not parts[2].isdigit():
        return ["not an operlab container"]
    start = newline + 1
    end = start + int(parts[2])
    try:
        header = json.loads(data[start:end])
    except ValueError:
        return ["container header is not JSON"]
    if not isinstance(header, dict):
        return ["container header is not an object"]
    payload = data[end:]
    if len(payload) != header.get("payload_bytes"):
        return [f"payload has {len(payload)} bytes, header declares {header.get('payload_bytes')}"]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        return ["payload SHA-256 does not match the header"]
    return []


def report_fingerprint(report: dict) -> str:
    """SHA-256 of a recover report with the volatile keys removed."""
    stable = {k: v for k, v in report.items() if k not in VOLATILE_REPORT_KEYS}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def report_problems(report: dict, budget: tuple[int, int], needs_residual: bool) -> list[str]:
    """Exact query counts, and a residual at most RESIDUAL_LIMIT where one is due."""
    problems = []
    for key in ("forward_queries", "transpose_queries", "residual_frobenius_relative",
                *VOLATILE_REPORT_KEYS):
        if key not in report:
            problems.append(f"report lacks {key}")
    if problems:
        return problems
    made = (report["forward_queries"], report["transpose_queries"])
    if made != tuple(budget):
        problems.append(f"queries (forward, transpose) = {made}, documented budget {tuple(budget)}")
    residual = report["residual_frobenius_relative"]
    if needs_residual:
        if not isinstance(residual, (int, float)) or not residual <= RESIDUAL_LIMIT:
            problems.append(f"residual {residual!r} exceeds {RESIDUAL_LIMIT}")
    elif residual is not None:
        problems.append(f"unexpected residual {residual!r} for an instance above the dense cap")
    return problems


def parse_eval_csv(text: str, losses: list[str], datasets: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows of an eval.csv and its problems: one row per (resolution, loss), finite values."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != EVAL_COLUMNS:
        return [], [f"eval.csv header is {rows[0] if rows else None}, expected {EVAL_COLUMNS}"]
    parsed, problems = [], []
    for raw in rows[1:]:
        if len(raw) != 4:
            problems.append(f"eval.csv row {raw} has {len(raw)} fields")
            continue
        try:
            row = {"resolution": int(raw[0]), "loss_kind": raw[1],
                   "value": float(raw[2]), "n_pairs": int(raw[3])}
        except ValueError:
            problems.append(f"eval.csv row {raw} does not parse")
            continue
        if not math.isfinite(row["value"]) or row["value"] < 0:
            problems.append(f"eval.csv value {raw[2]} is not a finite nonnegative loss")
        parsed.append(row)
    expected = [(d["resolution"], kind) for d in datasets for kind in losses]
    if [(r["resolution"], r["loss_kind"]) for r in parsed] != expected:
        problems.append(f"eval.csv rows do not cover {expected} in order")
    return parsed, problems


def metrics_json_problems(metrics: dict, losses: list[str], has_test: bool) -> list[str]:
    problems = []
    for key in ("variant", "train_pairs", "test_pairs", "train"):
        if key not in metrics:
            problems.append(f"metrics.json lacks {key}")
    splits = ["train", "test"] if has_test else ["train"]
    for split in splits:
        values = metrics.get(split, {})
        for kind in losses:
            value = values.get(kind)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metrics.json {split}.{kind} is {value!r}")
    return problems


class ResultError(ValueError):
    """A result line that breaks the benchmark's output contract."""


def parse_result(line: str, spec_metrics: list[dict]) -> dict:
    """Parse the final result line and check it against the declared metrics.

    The metrics must be exactly the declared names, each with a finite
    numeric value and the declared unit.
    """
    try:
        result = json.loads(line)
    except ValueError as exc:
        raise ResultError(f"result line is not JSON: {exc}") from exc
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ResultError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise ResultError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ResultError(f"{key} must be a nonnegative whole number")
    if result["attempted"] < 1:
        raise ResultError("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise ResultError("metrics must be an object")
    units = {m["name"]: m["unit"] for m in spec_metrics}
    for name, entry in metrics.items():
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise ResultError(f"metric name {name!r} is empty or malformed")
        if name not in units:
            raise ResultError(f"metric {name!r} is not declared")
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ResultError(f"metric {name!r} must have exactly a value and a unit")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ResultError(f"metric {name!r} has non-numeric value {value!r}")
        if entry["unit"] != units[name]:
            raise ResultError(f"metric {name!r} has unit {entry['unit']!r}, declared {units[name]!r}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise ResultError(f"missing metrics {missing}")
    return result
