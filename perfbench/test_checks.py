"""Tests of the benchmark's own checks: each must catch a planted fault.

    python3 -m pytest -q perfbench/test_checks.py

The workloads are shrunk to a few pairs and small instances; the CLI still
runs as real child processes, as in a benchmark run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import layers
import run
import workloads


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "POISSON_TRAIN_PAIRS", 40)
    monkeypatch.setattr(workloads, "POISSON_TEST_PAIRS", 10)
    monkeypatch.setattr(workloads, "POISSON_RESOLUTION", 64)
    monkeypatch.setattr(workloads, "RECOVER_CASES", (
        ("hodlr", 256, {"block_rank": 2, "levels": 3}),
        ("banded", 512, {"bandwidth": 3}),
        ("low-rank", 128, {"rank": 4}),
        ("circulant", 64, {}),
    ))


def execute(name: str, tmp_path, traced=False, tag="a"):
    """Run a workload's chain once into tmp_path/tag; returns (workload, chain, chain_dir)."""
    wl = workloads.build(name, seed=3)
    work = tmp_path / f"work-{tag}"
    chain_dir = tmp_path / tag
    work.mkdir()
    chain_dir.mkdir()
    configs = run.write_configs(wl, work)
    chain = run.run_steps(wl, configs, chain_dir, work, run.cli_env(), 0, traced)
    return wl, chain, chain_dir


def problems(chain):
    return [p for step in chain.steps for p in step.problems]


def checked(wl, chain, chain_dir):
    run.check_outputs(wl, chain_dir, chain)
    return problems(chain)


def test_clean_chains_pass_and_reproduce(small, tmp_path):
    wl, first, first_dir = execute("poisson-pipeline", tmp_path, tag="a")
    _, second, second_dir = execute("poisson-pipeline", tmp_path, tag="b")
    assert checked(wl, first, first_dir) == []
    assert checked(wl, second, second_dir) == []
    run.check_reproducible([first, second], wl)
    assert problems(second) == []
    assert first.metrics["eval_rel_l2"] > 0
    assert set(first.metrics) >= {"pipeline_s", "generate_s", "fit_s", "eval_s"}


def test_flipped_dataset_byte_is_caught(small, tmp_path):
    wl, clean, clean_dir = execute("poisson-pipeline", tmp_path, tag="a")
    _, bad, bad_dir = execute("poisson-pipeline", tmp_path, tag="b")
    data = bytearray((bad_dir / "test.ds").read_bytes())
    data[-100] ^= 0x01
    (bad_dir / "test.ds").write_bytes(bytes(data))
    checked(wl, clean, clean_dir)
    found = checked(wl, bad, bad_dir)
    assert any("SHA-256" in p for p in found)
    run.check_reproducible([clean, bad], wl)
    assert any("test.ds differs" in p for p in problems(bad))


def test_changed_eval_value_is_caught(small, tmp_path):
    wl, clean, clean_dir = execute("poisson-pipeline", tmp_path, tag="a")
    _, bad, bad_dir = execute("poisson-pipeline", tmp_path, tag="b")
    path = bad_dir / "dense.csv"
    header, row, *rest = path.read_text().splitlines()
    resolution, kind, value, count = row.split(",")
    changed = repr(float(value) * (1 + 1e-12))
    path.write_text("\n".join([header, f"{resolution},{kind},{changed},{count}", *rest]) + "\n")
    checked(wl, clean, clean_dir)
    assert checked(wl, bad, bad_dir) == []  # still a well-formed eval.csv ...
    run.check_reproducible([clean, bad], wl)
    assert any("dense.csv differs" in p for p in problems(bad))  # ... but not the same one


def test_extra_query_is_caught(small, tmp_path):
    wl, chain, chain_dir = execute("recover-structured", tmp_path)
    path = chain_dir / "banded-512.json"
    report = json.loads(path.read_text())
    assert report["forward_queries"] == 7
    report["forward_queries"] += 1
    path.write_text(json.dumps(report))
    found = checked(wl, chain, chain_dir)
    assert any("documented budget (7, 0)" in p for p in found)
    assert chain.metrics["query_excess"] == 1


def test_recover_reports_match_except_wall_time(small, tmp_path):
    wl, first, first_dir = execute("recover-structured", tmp_path, tag="a")
    _, second, second_dir = execute("recover-structured", tmp_path, tag="b")
    assert checked(wl, first, first_dir) == []
    assert checked(wl, second, second_dir) == []
    assert first.metrics["query_excess"] == 0
    assert first.metrics["recovery_residual"] <= checks.RESIDUAL_LIMIT
    run.check_reproducible([first, second], wl)
    assert problems(second) == []
    report = json.loads((first_dir / "hodlr-256.json").read_text())
    moved = dict(report, wall_time_seconds=report["wall_time_seconds"] + 1.0)
    assert checks.report_fingerprint(moved) == checks.report_fingerprint(report)
    changed = dict(report, residual_frobenius_relative=1e-3)
    assert checks.report_fingerprint(changed) != checks.report_fingerprint(report)
    assert checks.report_problems(changed, wl.budgets["hodlr-256.json"], True)


def test_nonzero_exit_is_caught(small, tmp_path):
    wl, chain, chain_dir = execute("poisson-pipeline", tmp_path, tag="a")
    (chain_dir / "train.ds").unlink()
    wl.steps = wl.steps[2:3]  # rerun the dense fit, now without its dataset
    work = tmp_path / "work-b"
    work.mkdir()
    rerun = run.run_steps(wl, run.write_configs(wl, work), chain_dir, work, run.cli_env(), 1, False)
    found = problems(rerun)
    assert any(p.startswith("exit code") for p in found)
    assert any(p.startswith("error line: ERROR:") for p in found)
    assert checks.step_problems(0, "", "ERROR:internal: boom") == ["error line: ERROR:internal: boom"]


def test_traced_chain_reports_layers_and_same_outputs(small, tmp_path):
    wl, plain, plain_dir = execute("recover-structured", tmp_path, tag="a")
    _, traced, traced_dir = execute("recover-structured", tmp_path, traced=True, tag="b")
    checked(wl, plain, plain_dir)
    assert checked(wl, traced, traced_dir) == []
    run.check_reproducible([plain, traced], wl)
    assert problems(traced) == []
    spans = [r for r in traced.trace_records if r["kind"] == "span"]
    assert {"name", "start", "end", "parent", "run"} <= set(spans[0])
    budget = sum(sum(b) for b in wl.budgets.values())
    metrics = layers.layer_metrics(traced.trace_records, budget)
    assert metrics["recovery.query_budget_ratio"] == 1.0
    assert metrics["structured.oracle_forward_queries"] == sum(b[0] for b in wl.budgets.values())
    assert 0 < metrics["recovery.self_s"] < metrics["recovery.recover_hodlr_s"] + metrics[
        "recovery.recover_banded_s"] + metrics["recovery.randomized_svd_s"] + metrics[
        "recovery.recover_circulant_s"]
    assert set(metrics) | {"trace_overhead_frac"} == {name for name, _, _ in layers.PER_LAYER}


def test_traced_pipeline_counts_per_sample_calls(small, tmp_path):
    _, traced, _ = execute("poisson-pipeline", tmp_path, traced=True)
    metrics = layers.layer_metrics(traced.trace_records, 0)
    assert metrics["probes.sample_gp_calls"] == 50
    assert metrics["pdelab.solve_poisson_1d_calls"] == 50
    assert metrics["numerics.rng_derive_calls"] == 50
    assert metrics["grids.samples_built"] > 100
    assert metrics["dataio.load_unpack_s"] > 0
    assert metrics["dataio.header_bytes"] > 0
    assert 0 < metrics["cli.self_s"]


SPEC = [{"name": "setup_s", "unit": "s"}, {"name": "pipeline_s", "unit": "s"}]


def result_line(metrics):
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


def test_parser_accepts_declared_metrics():
    line = result_line({"setup_s": {"value": 0.7, "unit": "s"},
                        "pipeline_s": {"value": 9.1, "unit": "s"}})
    assert checks.parse_result(line, SPEC)["attempted"] == 3


@pytest.mark.parametrize("metrics, message", [
    ({"setup_s": {"value": 0.7, "unit": "s"}}, "missing metrics"),
    ({"setup_s": {"value": 0.7, "unit": "s"}, "": {"value": 9.1, "unit": "s"}}, "empty or malformed"),
    ({"setup_s": {"value": 0.7, "unit": "s"}, "pipeline_s": {"value": 9.1, "unit": "s"},
      "other_s": {"value": 1.0, "unit": "s"}}, "not declared"),
    ({"setup_s": {"value": 0.7, "unit": "s"}, "pipeline_s": {"value": 9.1}}, "exactly a value"),
    ({"setup_s": {"value": 0.7, "unit": "ms"}, "pipeline_s": {"value": 9.1, "unit": "s"}}, "unit"),
    ({"setup_s": {"value": None, "unit": "s"}, "pipeline_s": {"value": 9.1, "unit": "s"}}, "non-numeric"),
])
def test_parser_rejects_bad_metrics(metrics, message):
    with pytest.raises(checks.ResultError, match=message):
        checks.parse_result(result_line(metrics), SPEC)


def test_parser_rejects_bad_envelope():
    with pytest.raises(checks.ResultError, match="exactly"):
        checks.parse_result(json.dumps({"correct": True, "attempted": 1, "metrics": {}}), SPEC)
    with pytest.raises(checks.ResultError, match="at least 1"):
        checks.parse_result(json.dumps({"correct": True, "attempted": 0, "failed": 0,
                                        "metrics": {}}), SPEC)


def test_bare_directory_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.BENCH_DIR, bench, ignore=shutil.ignore_patterns("_*", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "darcy-generate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
