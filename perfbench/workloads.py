"""The benchmark's workloads: seeded CLI chains and what their outputs must satisfy.

Each workload is a list of CLI steps (one fresh `python -m operlab` process
each) whose configs are derived from the benchmark seed alone.  The CLI runs
with the step's working directory as `--out .`, so configs name inputs and
outputs by bare file names.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

POISSON_TRAIN_PAIRS = 3000
POISSON_TEST_PAIRS = 750
POISSON_RESOLUTION = 256
BURGERS_TRAIN_PAIRS = 16
BURGERS_TRAIN_RESOLUTION = 128
BURGERS_TEST_SETS = ((128, 4), (256, 2), (1024, 1))
DARCY_PAIRS = 100
DARCY_RESOLUTION = 64
HODLR_OVERSAMPLING = 5
LOW_RANK_OVERSAMPLING = 5
DENSE_CAP = 4096  # operlab materializes a residual reference only up to this n

# (algorithm, dimension, parameters) for the recover-structured workload.
RECOVER_CASES = (
    ("hodlr", 32768, {"block_rank": 4, "levels": 9}),
    ("hodlr", 4096, {"block_rank": 4, "levels": 7}),
    ("banded", 65536, {"bandwidth": 16}),
    ("low-rank", 32768, {"rank": 32}),
    ("circulant", 131072, {}),
)

LOSSES = ["relative-l2", "h1-seminorm-relative"]

WHY = {
    "poisson-pipeline": "many cheap pairs: per-pair Python work, GP draws, per-sample predict "
                        "and loss, and the 2N-array container",
    "burgers-superres": "few expensive pairs across resolutions up to 1024: the explicit RK4 "
                        "stepper dominates generate; few-pair multi-resolution fit and eval",
    "recover-structured": "oracle applies and recovery loops only, with exact query budgets; "
                          "no PDE solve and no container I/O",
    "darcy-generate": "the only path through Grid2D, the 2D FFT field, sparse assembly, CG "
                      "and the 2D container",
}


@dataclass
class Step:
    """One CLI invocation: `operlab <command> --config <file> --out .`."""

    command: str
    config: dict
    outputs: list[str]


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    # recover report file -> documented (forward, transpose) query budget
    budgets: dict[str, tuple[int, int]] = field(default_factory=dict)
    # recover report files that must carry a residual (instances with n <= DENSE_CAP)
    residual_reports: list[str] = field(default_factory=list)


def query_budget(algorithm: str, n: int, params: dict) -> tuple[int, int]:
    """The documented (forward, transpose) query budget of one recover config;
    for hodlr this restates `recovery.hodlr_query_budget`."""
    if algorithm == "hodlr":
        rank, levels = params["block_rank"], params["levels"]
        forward = 2 * (rank + params.get("oversampling", HODLR_OVERSAMPLING)) * levels + (n >> levels)
        return forward, sum(2 * min(rank, n >> level) for level in range(1, levels + 1))
    if algorithm == "banded":
        return min(2 * params["bandwidth"] + 1, n), 0
    if algorithm == "low-rank":
        width = params["rank"] + params.get("oversampling", LOW_RANK_OVERSAMPLING)
        return width, width
    if algorithm == "circulant":
        return 1, 0
    raise ValueError(f"no documented budget for {algorithm!r}")


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _generate(seed: int, pde: str, pairs: int, resolution: int, cov: dict, output: str) -> Step:
    config = {"command": "generate", "seed": seed, "pde": pde, "num_pairs": pairs,
              "resolution": resolution, "covariance": cov, "output": output}
    return Step("generate", config, [output])


def poisson_pipeline(seed: int) -> Workload:
    train_seed, test_seed, fit_seed = _seeds("poisson-pipeline", seed, 3)
    cov = {"family": "squared-exponential", "length_scale": 0.05}
    steps = [
        _generate(train_seed, "poisson1d", POISSON_TRAIN_PAIRS, POISSON_RESOLUTION, cov, "train.ds"),
        _generate(test_seed, "poisson1d", POISSON_TEST_PAIRS, POISSON_RESOLUTION, cov, "test.ds"),
    ]
    variants = {"dense": {"variant": "dense-kernel"},
                "hier": {"variant": "hierarchical", "levels": 4, "rank": 4}}
    for tag, params in variants.items():
        config = {"command": "fit", "seed": fit_seed, "dataset": "train.ds", **params,
                  "train_fraction": 0.9, "losses": LOSSES,
                  "model_output": f"{tag}.bin", "metrics_output": f"{tag}.json"}
        steps.append(Step("fit", config, [f"{tag}.bin", f"{tag}.json"]))
    for tag in variants:
        config = {"command": "eval", "seed": fit_seed, "model": f"{tag}.bin",
                  "datasets": [{"resolution": POISSON_RESOLUTION, "path": "test.ds"}],
                  "losses": LOSSES, "output": f"{tag}.csv"}
        steps.append(Step("eval", config, [f"{tag}.csv"]))
    return Workload("poisson-pipeline", seed, steps)


def burgers_superres(seed: int) -> Workload:
    train_seed, test_seed, fit_seed = _seeds("burgers-superres", seed, 3)
    cov = {"family": "helmholtz-power", "smoothness": 3.0, "amplitude": 400.0, "shift": 9.0}
    steps = [_generate(train_seed, "burgers1d", BURGERS_TRAIN_PAIRS, BURGERS_TRAIN_RESOLUTION, cov, "train.ds")]
    # one shared test seed: the test sets are the same functions at several resolutions
    for resolution, pairs in BURGERS_TEST_SETS:
        steps.append(_generate(test_seed, "burgers1d", pairs, resolution, cov, f"t{resolution}.ds"))
    steps.append(Step("fit", {"command": "fit", "seed": fit_seed, "dataset": "train.ds",
                              "variant": "fourier-multiplier", "max_mode": 16,
                              "model_output": "fm.bin", "metrics_output": "fm.json"},
                      ["fm.bin", "fm.json"]))
    steps.append(Step("eval", {"command": "eval", "seed": fit_seed, "model": "fm.bin",
                               "datasets": [{"resolution": r, "path": f"t{r}.ds"}
                                            for r, _ in BURGERS_TEST_SETS],
                               "losses": ["relative-l2"], "output": "fm.csv"},
                      ["fm.csv"]))
    return Workload("burgers-superres", seed, steps)


def recover_structured(seed: int) -> Workload:
    seeds = _seeds("recover-structured", seed, len(RECOVER_CASES))
    wl = Workload("recover-structured", seed, [])
    for case_seed, (algorithm, n, params) in zip(seeds, RECOVER_CASES):
        output = f"{algorithm}-{n}.json"
        config = {"command": "recover", "seed": case_seed, "algorithm": algorithm,
                  "dimension": n, **params, "output": output}
        wl.steps.append(Step("recover", config, [output]))
        wl.budgets[output] = query_budget(algorithm, n, params)
        if n <= DENSE_CAP:
            wl.residual_reports.append(output)
    return wl


def darcy_generate(seed: int) -> Workload:
    (data_seed,) = _seeds("darcy-generate", seed, 1)
    cov = {"family": "helmholtz-power", "smoothness": 2.0, "shift": 9.0}
    steps = [_generate(data_seed, "darcy2d", DARCY_PAIRS, DARCY_RESOLUTION, cov, "darcy.ds")]
    return Workload("darcy-generate", seed, steps)


# burgers-superres and darcy-generate are not in BENCHMARK.json: with fewer
# gated workloads each run can be longer, which the host's noise needs.  Both
# stay runnable by hand for the Burgers and Darcy per-layer metrics.
WORKLOADS = {
    "poisson-pipeline": poisson_pipeline,
    "burgers-superres": burgers_superres,
    "recover-structured": recover_structured,
    "darcy-generate": darcy_generate,
}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)
