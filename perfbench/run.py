"""operlab benchmark: seeded CLI workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload poisson-pipeline --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload poisson-pipeline --seed 1 --seconds 60 --trace 1

Untraced (`--trace 0`): repeats the workload's CLI chain (one fresh
`python -m operlab` process per step, one at a time, with the machine's
default threading) until `--seconds` have passed, with an interpreter set-up
spawn and two host speed index spawns before each chain.  The time metrics are
means over the run scaled by the run's host speed index; the other metrics
are medians.  Traced (`--trace 1`): alternates
untraced chains with chains whose steps run under perfbench/tracing.py, at
least two of each, and reports the per-layer metrics and the tracing
overhead.  Every output is checked; the last line of stdout is the JSON
result and the exit code is 0 only if every check passed.  The package is
run from src/ via PYTHONPATH, never installed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SPAWNS_FIRST = 2  # set-up spawns before the first chain; one more precedes every chain
SETUP_ARGV = [sys.executable, "-c", "import operlab.cli"]
# The host speed index: an interpreter start that imports what operlab imports
# from numpy and scipy, but not operlab, so no change to operlab can move it.
# The host's speed swings by up to 2x over minutes, and flips between a fast
# and a slow state for seconds at a time (CPU time swings with wall time, and
# steal time stays near zero, so it is the host's cores, not this VM's share
# of them).  Every reported time is a mean over the run, scaled by
# HOST_INDEX_NOMINAL_S / (the run's mean index): means, unlike medians, weigh
# the two states by the time spent in each, the same way for the chains and
# for the index.  The raw medians, minima and maxima are printed and stored.
HOST_INDEX_ARGV = [sys.executable, "-c",
                   "import numpy, scipy.linalg, scipy.sparse.linalg, scipy.special"]
HOST_INDEX_NOMINAL_S = 0.6
HOST_INDEX_SPAWNS = 2  # per set-up spawn: one index spawn is noisier than a chain
MIN_CHAINS = 2  # byte-identity across chains needs two of them
MIN_TRACE_PAIRS = 2  # (untraced, traced) chain pairs behind trace_overhead_frac
STEP_TIMEOUT_S = 150

# Every end-to-end metric the benchmark can report, with its unit; the
# result line carries those BENCHMARK.json declares.
E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "generate_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "recover_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
    "eval_rel_l2": "1",
    "recovery_residual": "1",
    "query_excess": "queries",
    "failed_frac": "1",
}


@dataclass
class StepRun:
    command: str
    wall_s: float
    peak_rss_mb: float
    problems: list[str]


@dataclass
class Chain:
    traced: bool
    wall_s: float
    steps: list[StepRun]
    fingerprints: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    trace_records: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.steps if s.problems)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log_stem: Path) -> tuple[float, float, int, str, str]:
    """Run one child to completion; (wall_s, peak_rss_mb, exit code, stdout, stderr).

    Peak RSS comes from this child's own rusage (os.wait4), not the
    cumulative RUSAGE_CHILDREN maximum.
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def measure_spawn(argv: list[str], env: dict, work: Path, name: str) -> float:
    """Seconds from a fresh interpreter to the end of its `-c` imports."""
    wall, _, code, _, err = spawn(argv, work, env, work / name)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed: {err.strip()[-300:]}")
    return wall


def write_configs(wl: workloads.Workload, work: Path) -> list[Path]:
    paths = []
    for i, step in enumerate(wl.steps):
        path = work / f"step{i}-{step.command}.json"
        path.write_text(json.dumps(step.config, indent=1, sort_keys=True))
        paths.append(path)
    return paths


def check_outputs(wl: workloads.Workload, chain_dir: Path, chain: Chain):
    """Per-step output checks; fills chain.fingerprints and the chain's value metrics."""
    artifact_bytes = 0
    eval_worst = []
    residuals = []
    query_excess = 0
    for step, run in zip(wl.steps, chain.steps):
        for name in step.outputs:
            path = chain_dir / name
            if not path.is_file():
                run.problems.append(f"{name} was not written")
                continue
            data = path.read_bytes()
            artifact_bytes += len(data)
            if step.command == "recover":
                report = json.loads(data)
                budget = wl.budgets[name]
                run.problems += checks.report_problems(report, budget, name in wl.residual_reports)
                made = report.get("forward_queries", 0) + report.get("transpose_queries", 0)
                query_excess += made - sum(budget)
                if report.get("residual_frobenius_relative") is not None:
                    residuals.append(report["residual_frobenius_relative"])
                chain.fingerprints[name] = checks.report_fingerprint(report)
                continue
            chain.fingerprints[name] = hashlib.sha256(data).hexdigest()
            if name.endswith((".ds", ".bin")):
                run.problems += checks.container_problems(data)
            elif name.endswith(".csv"):
                losses = step.config.get("losses", ["relative-l2"])
                rows, problems = checks.parse_eval_csv(data.decode(), losses,
                                                       step.config["datasets"])
                run.problems += problems
                eval_worst += [r["value"] for r in rows if r["loss_kind"] == "relative-l2"]
            elif name.endswith(".json"):
                metrics = json.loads(data)
                losses = step.config.get("losses", ["relative-l2"])
                has_test = step.config.get("train_fraction", 1.0) < 1.0
                run.problems += checks.metrics_json_problems(metrics, losses, has_test)
    by_command: dict[str, float] = {}
    for run in chain.steps:
        by_command[run.command] = by_command.get(run.command, 0.0) + run.wall_s
    m = chain.metrics
    m["pipeline_s"] = chain.wall_s
    for command, seconds in by_command.items():
        m[f"{command}_s"] = seconds
    m["peak_rss_mb"] = max(run.peak_rss_mb for run in chain.steps)
    m["artifact_bytes"] = artifact_bytes
    if eval_worst:
        m["eval_rel_l2"] = max(eval_worst)
    if residuals:
        m["recovery_residual"] = max(residuals)
    if wl.budgets:
        m["query_excess"] = query_excess


def run_steps(wl: workloads.Workload, configs: list[Path], chain_dir: Path, work: Path,
              env: dict, index: int, traced: bool) -> Chain:
    """Run the workload's CLI chain in chain_dir, one child process per step."""
    runs = []
    trace_files = []
    start = time.perf_counter()
    for i, (step, config) in enumerate(zip(wl.steps, configs)):
        cli_args = [step.command, "--config", str(config), "--out", "."]
        if traced:
            trace_file = work / f"chain{index}-step{i}.jsonl"
            trace_files.append(trace_file)
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "--trace-out", str(trace_file),
                    "--run-id", f"{wl.name}-{wl.seed}-chain{index}-step{i}", "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "operlab", *cli_args]
        wall, rss, code, out, err = spawn(argv, chain_dir, env, work / f"chain{index}-step{i}")
        runs.append(StepRun(step.command, wall, rss, checks.step_problems(code, out, err)))
    chain = Chain(traced, time.perf_counter() - start, runs)
    for trace_file in trace_files:
        if trace_file.is_file():
            chain.trace_records += [json.loads(line) for line in trace_file.read_text().splitlines()]
    return chain


def run_chain(wl: workloads.Workload, configs: list[Path], work: Path, env: dict,
              index: int, traced: bool) -> Chain:
    chain_dir = work / f"chain{index}"
    chain_dir.mkdir()
    chain = run_steps(wl, configs, chain_dir, work, env, index, traced)
    check_outputs(wl, chain_dir, chain)
    shutil.rmtree(chain_dir)
    return chain


def check_reproducible(chains: list[Chain], wl: workloads.Workload):
    """Every artifact of every chain must match the first chain's (same seed)."""
    reference = chains[0].fingerprints
    for chain in chains[1:]:
        for step, run in zip(wl.steps, chain.steps):
            for name in step.outputs:
                if name in chain.fingerprints and chain.fingerprints[name] != reference.get(name):
                    run.problems.append(f"{name} differs from the first run of this seed")


def blas_facts() -> dict:
    """BLAS name/version from numpy's build config and its effective thread count."""
    import ctypes
    import numpy as np

    facts = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(wl: workloads.Workload) -> dict:
    import numpy as np
    import scipy

    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2 ** 20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ} or "default",
        "git_commit": git_commit(),
        "workload_seed": wl.seed,
        "cli_seeds": [step.config["seed"] for step in wl.steps],
        "load": "one process, one CLI child at a time",
    }


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    """Per metric: the reported value (the median unless replaced), median, min, max, n."""
    return {name: {"value": statistics.median(v), "median": statistics.median(v),
                   "min": min(v), "max": max(v), "n": len(v)}
            for name, v in samples.items()}


def print_table(title: str, summary: dict[str, dict], units: dict[str, str]):
    print(f"== {title}")
    for name, s in summary.items():
        print(f"  {name:40s} {s['value']:>14.6g} {units[name]:8s} "
              f"(median {s['median']:.6g}, min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "operlab" / "cli.py").is_file():
        print(f"error: operlab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared = spec["per_layer"]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        declared = spec["end_to_end"]
        units = E2E_UNITS
    for metric in declared:
        if units.get(metric["name"]) != metric["unit"]:
            print(f"error: BENCHMARK.json metric {metric['name']!r} is not one this "
                  f"benchmark reports in unit {metric['unit']!r}", file=sys.stderr)
            return 2

    wl = workloads.build(args.workload, args.seed)
    env = cli_env()
    work = BENCH_DIR / "_work" / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    results_dir = BENCH_DIR / "_results"
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        facts = machine_facts(wl)
        configs = write_configs(wl, work)
        start = time.perf_counter()
        setup: list[float] = []
        host_index: list[float] = []

        index_env = dict(os.environ)  # without src/ on the path

        def measure_both(name: str):
            setup.append(measure_spawn(SETUP_ARGV, env, work, f"setup-{name}"))
            for i in range(HOST_INDEX_SPAWNS):
                host_index.append(measure_spawn(HOST_INDEX_ARGV, index_env, work, f"host-{name}-{i}"))

        # warm-up spawns, not recorded; the first also compiles the bytecode cache
        measure_spawn(SETUP_ARGV, env, work, "setup-warm-up")
        measure_spawn(HOST_INDEX_ARGV, index_env, work, "host-warm-up")
        for i in range(SETUP_SPAWNS_FIRST):
            measure_both(f"first{i}")
        chains: list[Chain] = []
        min_chains = 2 * MIN_TRACE_PAIRS if args.trace else MIN_CHAINS
        # start another chain only if it should end within --seconds; set-up
        # and index spawns are spread over the run like the chains
        while len(chains) < min_chains or (
                time.perf_counter() - start + statistics.median(setup)
                + HOST_INDEX_SPAWNS * statistics.median(host_index)
                + statistics.median(c.wall_s for c in chains) <= args.seconds):
            measure_both(f"chain{len(chains)}")
            traced = bool(args.trace) and len(chains) % 2 == 1
            chains.append(run_chain(wl, configs, work, env, len(chains), traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_reproducible(chains, wl)
    traced = [c for c in chains if c.traced]
    budget = sum(sum(b) for b in wl.budgets.values())
    per_chain = [layers.layer_metrics(c.trace_records, budget) for c in traced]
    for chain, layer in zip(traced, per_chain):
        ratio = layer["recovery.query_budget_ratio"]
        if budget and ratio != 1.0:
            chain.steps[0].problems.append(f"traced queries over documented budget is {ratio!r}")
    attempted = sum(len(c.steps) for c in chains)
    failed = sum(c.failed for c in chains)
    plain = [c for c in chains if not c.traced]
    samples: dict[str, list[float]] = {"setup_s": setup}
    for chain in plain:
        chain.metrics["failed_frac"] = chain.failed / len(chain.steps)
        for name, value in chain.metrics.items():
            samples.setdefault(name, []).append(value)
    e2e = summarize(samples)
    host_scale = HOST_INDEX_NOMINAL_S / statistics.mean(host_index)
    for name, summary in e2e.items():
        if E2E_UNITS[name] == "s":
            summary["value"] = statistics.mean(samples[name]) * host_scale

    print(f"workload {wl.name}: {workloads.WHY[wl.name]}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"host speed index: mean {statistics.mean(host_index):.4f} s over "
          f"{len(host_index)} spawns; times below are scaled by {host_scale:.4f}")
    print_table(f"end to end ({len(plain)} untraced chains, {len(setup)} set-up spawns; times "
                f"are scaled means, the rest medians; median, min and max are raw)",
                e2e, E2E_UNITS)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "machine": facts,
              "end_to_end": e2e, "samples": samples, "attempted": attempted, "failed": failed,
              "host_index_s": host_index, "host_scale": host_scale,
              "step_wall_s": [[run.wall_s for run in c.steps] for c in plain]}

    if args.trace:
        layer_samples = {name: [m[name] for m in per_chain] for name in per_chain[0]}
        layer_samples["trace_overhead_frac"] = [
            statistics.mean(c.wall_s for c in traced) / statistics.mean(c.wall_s for c in plain) - 1.0]
        per_layer = summarize({name: layer_samples[name] for name, _, _ in layers.PER_LAYER})
        print_table(f"per layer ({len(traced)} traced chains)", per_layer, units)
        detail["per_layer"] = per_layer
        reported = per_layer
        trace_out = results_dir / f"{wl.name}-seed{args.seed}.trace.jsonl"
        trace_out.write_text("".join(json.dumps(r) + "\n" for r in traced[-1].trace_records))
        print(f"trace written to {trace_out.relative_to(ROOT)}")
    else:
        reported = e2e

    problems = [f"chain {i} step {j} ({run.command}): {p}"
                for i, c in enumerate(chains) for j, run in enumerate(c.steps) for p in run.problems]
    for line in problems:
        print("FAILED " + line)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    metrics = {m["name"]: {"value": reported[m["name"]]["value"], "unit": m["unit"]}
               for m in declared if m["name"] in reported}
    line = json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                       "metrics": metrics})
    try:
        checks.parse_result(line, declared)
    except checks.ResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
