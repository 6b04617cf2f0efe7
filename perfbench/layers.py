"""Per-layer metrics from the JSONL records of one traced chain.

Each metric is named `<module>.<quantity>` after the module of
src/operlab/ it measures.  A metric whose layer the workload does not
exercise reads 0 (no calls, no seconds, no bytes).  README.md maps each
metric to the end-to-end metric and workload it should move.
"""
from __future__ import annotations

PER_LAYER = [
    # (name, unit, better)
    ("cli.self_s", "s", "lower"),
    ("numerics.rng_derive_calls", "count", "lower"),
    ("numerics.rng_derive_s", "s", "lower"),
    ("numerics.qr_thin_s", "s", "lower"),
    ("grids.samples_built", "count", "lower"),
    ("grids.sample_build_s", "s", "lower"),
    ("probes.kl_decompose_s", "s", "lower"),
    ("probes.kl_truncation", "count", "lower"),
    ("probes.sample_gp_calls", "count", "lower"),
    ("probes.sample_gp_s", "s", "lower"),
    ("pdelab.make_dataset_calls", "count", "lower"),
    ("pdelab.make_dataset_s", "s", "lower"),
    ("pdelab.make_dataset_self_s", "s", "lower"),
    ("pdelab.solve_poisson_1d_calls", "count", "lower"),
    ("pdelab.solve_poisson_1d_s", "s", "lower"),
    ("pdelab.solve_burgers_1d_calls", "count", "lower"),
    ("pdelab.solve_burgers_1d_s", "s", "lower"),
    ("pdelab.darcy_coefficient_calls", "count", "lower"),
    ("pdelab.darcy_coefficient_s", "s", "lower"),
    ("pdelab.solve_darcy_2d_calls", "count", "lower"),
    ("pdelab.solve_darcy_2d_s", "s", "lower"),
    ("dataio.save_dataset_s", "s", "lower"),
    ("dataio.load_dataset_s", "s", "lower"),
    ("dataio.save_model_s", "s", "lower"),
    ("dataio.load_model_s", "s", "lower"),
    ("dataio.read_container_s", "s", "lower"),
    ("dataio.load_unpack_s", "s", "lower"),
    ("dataio.bytes_written", "B", "lower"),
    ("dataio.bytes_read", "B", "lower"),
    ("dataio.write_MBps", "MB/s", "higher"),
    ("dataio.read_MBps", "MB/s", "higher"),
    ("dataio.header_bytes", "B", "lower"),
    ("opfit.fit_green_kernel_s", "s", "lower"),
    ("opfit.hierarchical_decompose_s", "s", "lower"),
    ("opfit.fit_fourier_multiplier_s", "s", "lower"),
    ("opfit.predict_calls", "count", "lower"),
    ("opfit.predict_s", "s", "lower"),
    ("opfit.compute_loss_s", "s", "lower"),
    ("structured.oracle_s", "s", "lower"),
    ("structured.oracle_forward_queries", "queries", "lower"),
    ("structured.oracle_transpose_queries", "queries", "lower"),
    ("structured.random_structured_s", "s", "lower"),
    ("structured.materialize_s", "s", "lower"),
    ("recovery.recover_hodlr_s", "s", "lower"),
    ("recovery.recover_banded_s", "s", "lower"),
    ("recovery.randomized_svd_s", "s", "lower"),
    ("recovery.recover_circulant_s", "s", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("recovery.query_budget_ratio", "1", "lower"),
    ("trace_overhead_frac", "1", "lower"),
]

ORACLE_SPANS = ("structured.oracle.apply", "structured.oracle.apply_transpose")
RECOVERY_SPANS = ("recovery.randomized_svd", "recovery.recover_circulant",
                  "recovery.recover_banded", "recovery.recover_hodlr")


def layer_metrics(records: list[dict], query_budget: int) -> dict[str, float]:
    """Per-layer metrics of one traced chain (all processes' records merged).

    query_budget is the documented forward + transpose budget of the chain's
    recover steps; trace_overhead_frac is left to the caller.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    spans: dict[tuple, dict] = {}
    for rec in records:
        name = rec["name"]
        if rec["kind"] == "total":
            calls[name] = calls.get(name, 0) + rec["calls"]
            total[name] = total.get(name, 0.0) + rec["total_s"]
            own[name] = own.get(name, 0.0) + rec["self_s"]
        elif rec["kind"] == "counter":
            if name == "probes.kl_truncation":
                counters[name] = max(counters.get(name, 0), rec["value"])
            else:
                counters[name] = counters.get(name, 0) + rec["value"]
        else:
            spans[(rec["run"], rec["id"])] = rec

    def duration(span):
        return span["end"] - span["start"]

    def parent_name(span):
        parent = spans.get((span["run"], span["parent"]))
        return parent["name"] if parent else None

    unpack = total.get("dataio.load_dataset", 0.0) - sum(
        duration(s) for s in spans.values()
        if s["name"] == "dataio.read_container" and parent_name(s) == "dataio.load_dataset")
    recovery_self = sum(duration(s) for s in spans.values() if s["name"] in RECOVERY_SPANS)
    recovery_self -= sum(
        duration(s) for s in spans.values()
        if s["name"] in ORACLE_SPANS + ("structured.materialize",)
        and parent_name(s) in RECOVERY_SPANS)
    saved_s = total.get("dataio.save_dataset", 0.0) + total.get("dataio.save_model", 0.0)
    read_s = total.get("dataio.read_container", 0.0)
    queries = (counters.get("structured.oracle_forward_queries", 0)
               + counters.get("structured.oracle_transpose_queries", 0))

    out = {
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.cmd_")),
        "numerics.rng_derive_calls": calls.get("numerics.rng_derive", 0),
        "numerics.rng_derive_s": total.get("numerics.rng_derive", 0.0),
        "numerics.qr_thin_s": total.get("numerics.qr_thin", 0.0),
        "grids.samples_built": calls.get("grids.sample_build", 0),
        "grids.sample_build_s": total.get("grids.sample_build", 0.0),
        "probes.kl_decompose_s": total.get("probes.kl_decompose", 0.0),
        "probes.kl_truncation": counters.get("probes.kl_truncation", 0),
        "probes.sample_gp_calls": calls.get("probes.sample_gp", 0),
        "probes.sample_gp_s": total.get("probes.sample_gp", 0.0),
        "pdelab.make_dataset_self_s": own.get("pdelab.make_dataset", 0.0),
        "dataio.load_unpack_s": unpack,
        "dataio.bytes_written": counters.get("dataio.bytes_written", 0),
        "dataio.bytes_read": counters.get("dataio.bytes_read", 0),
        "dataio.write_MBps": counters.get("dataio.bytes_written", 0) / 1e6 / saved_s if saved_s else 0.0,
        "dataio.read_MBps": counters.get("dataio.bytes_read", 0) / 1e6 / read_s if read_s else 0.0,
        "dataio.header_bytes": counters.get("dataio.header_bytes", 0),
        "opfit.predict_calls": calls.get("opfit.predict", 0),
        "opfit.predict_s": total.get("opfit.predict", 0.0),
        "opfit.compute_loss_s": total.get("opfit.compute_loss", 0.0),
        "structured.oracle_s": sum(total.get(name, 0.0) for name in ORACLE_SPANS),
        "structured.oracle_forward_queries": counters.get("structured.oracle_forward_queries", 0),
        "structured.oracle_transpose_queries": counters.get("structured.oracle_transpose_queries", 0),
        "structured.random_structured_s": total.get("structured.random_structured", 0.0),
        "structured.materialize_s": total.get("structured.materialize", 0.0),
        "recovery.self_s": recovery_self,
        "recovery.query_budget_ratio": queries / query_budget if query_budget else 0.0,
    }
    for fn in ("make_dataset", "solve_poisson_1d", "solve_burgers_1d",
               "darcy_coefficient", "solve_darcy_2d"):
        out[f"pdelab.{fn}_calls"] = calls.get(f"pdelab.{fn}", 0)
        out[f"pdelab.{fn}_s"] = total.get(f"pdelab.{fn}", 0.0)
    for fn in ("save_dataset", "load_dataset", "save_model", "load_model", "read_container"):
        out[f"dataio.{fn}_s"] = total.get(f"dataio.{fn}", 0.0)
    for fn in ("fit_green_kernel", "hierarchical_decompose", "fit_fourier_multiplier"):
        out[f"opfit.{fn}_s"] = total.get(f"opfit.{fn}", 0.0)
    for fn in ("recover_hodlr", "recover_banded", "randomized_svd", "recover_circulant"):
        out[f"recovery.{fn}_s"] = total.get(f"recovery.{fn}", 0.0)
    return out
