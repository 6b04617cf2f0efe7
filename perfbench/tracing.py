"""Span recorder and the hooks that wrap operlab's layers from outside.

Run as a script, this is a traced stand-in for `python -m operlab`:

    python perfbench/tracing.py --trace-out spans.jsonl --run-id r1 -- generate --config g.json

It installs the hooks, calls `operlab.cli.main` in-process, and writes the
spans, per-name totals and counters as JSONL when the command ends.  Each
hook replaces a public function at the module attribute its caller resolves
(for example `pdelab.sample_gp`, not only `probes.sample_gp`), or a method on
its class.  No file of operlab changes.

Coarse calls (a subcommand, a container save, an oracle apply) are recorded
as spans with a parent.  Per-sample calls (a GP draw, a FunctionSample
construction, a predict) only add to a count and summed times, because one
record per call would itself dominate a many-pair run.  Both kinds take part
in nesting, so every name's self time is its time minus that of the
instrumented calls inside it.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from time import perf_counter


class Recorder:
    """In-memory spans, per-name totals and counters for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # frames: [child_s, enclosing span id]
        self._next_id = 0

    def add(self, name: str, amount: float):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, value), value)

    def call(self, name: str, record: bool, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id if record else parent]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += elapsed
            total[2] += own
            if record:
                self.spans.append({"kind": "span", "run": self.run_id, "id": span_id,
                                   "parent": parent, "name": name, "start": start,
                                   "end": end, "self_s": own})

    def wrap(self, name: str, fn, record: bool, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, record, fn, args, kwargs)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result
        return wrapper

    def records(self) -> list[dict]:
        out = list(self.spans)
        for name, (calls, total_s, self_s) in sorted(self.totals.items()):
            out.append({"kind": "total", "run": self.run_id, "name": name,
                        "calls": calls, "total_s": total_s, "self_s": self_s})
        for name, value in sorted(self.counters.items()):
            out.append({"kind": "counter", "run": self.run_id, "name": name, "value": value})
        return out


def _replace_everywhere(modules, original, replacement):
    """Swap `original` for `replacement` in every module namespace that binds it."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder):
    """Wrap the public functions of every operlab layer; returns nothing."""
    import operlab
    from operlab import cli, dataio, grids, numerics, opfit, pdelab, probes, recovery, structured

    modules = [operlab, cli, dataio, grids, numerics, opfit, pdelab, probes, recovery, structured]

    def function(module, attr, name, record, on_return=None):
        original = getattr(module, attr)
        _replace_everywhere(modules, original, rec.wrap(name, original, record, on_return))

    def method(cls, attr, name, record):
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], record))

    def on_write(_result, args, _kwargs):
        path = args[0]
        rec.add("dataio.bytes_written", os.path.getsize(path))
        with open(path, "rb") as fh:
            rec.add("dataio.header_bytes", int(fh.readline().split()[2]))

    def on_read(_result, args, _kwargs):
        rec.add("dataio.bytes_read", os.path.getsize(args[0]))

    def on_kl(basis, _args, _kwargs):
        rec.peak("probes.kl_truncation", basis.truncation)

    # numerics, grids
    method(numerics.RngStream, "derive", "numerics.rng_derive", False)
    function(numerics, "qr_thin", "numerics.qr_thin", False)
    method(grids.FunctionSample, "__post_init__", "grids.sample_build", False)
    # probes
    function(probes, "kl_decompose", "probes.kl_decompose", True, on_kl)
    function(probes, "sample_gp", "probes.sample_gp", False)
    # pdelab
    function(pdelab, "make_dataset", "pdelab.make_dataset", True)
    for attr in ("solve_poisson_1d", "solve_burgers_1d", "darcy_coefficient", "solve_darcy_2d"):
        function(pdelab, attr, f"pdelab.{attr}", False)
    # dataio
    for attr in ("save_dataset", "load_dataset", "save_model", "load_model"):
        function(dataio, attr, f"dataio.{attr}", True)
    function(dataio, "write_container", "dataio.write_container", True, on_write)
    function(dataio, "read_container", "dataio.read_container", True, on_read)
    # opfit
    for attr in ("fit_green_kernel", "hierarchical_decompose", "fit_fourier_multiplier"):
        function(opfit, attr, f"opfit.{attr}", True)
    function(opfit, "compute_loss", "opfit.compute_loss", False)
    pending = [opfit.KernelModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "predict" in cls.__dict__:
            method(cls, "predict", "opfit.predict", False)
    # structured
    function(structured, "random_structured", "structured.random_structured", True)
    method(structured.StructuredOperator, "materialize", "structured.materialize", True)
    oracle = structured.MatvecOracle
    for attr, counter in (("apply", "forward_queries"), ("apply_transpose", "transpose_queries")):
        original = oracle.__dict__[attr]

        def counted(self, x, _original=original, _counter=counter, _name=f"structured.oracle.{attr}"):
            before = getattr(self, _counter)
            try:
                return rec.call(_name, True, _original, (self, x), {})
            finally:
                rec.add(f"structured.oracle_{_counter}", getattr(self, _counter) - before)

        setattr(oracle, attr, functools.wraps(original)(counted))
    # recovery
    for attr in ("randomized_svd", "recover_circulant", "recover_banded", "recover_hodlr"):
        function(recovery, attr, f"recovery.{attr}", True)
    # cli: main() dispatches through the _COMMANDS table, not the cmd_* names
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = rec.wrap(f"cli.cmd_{command}", fn, True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one operlab CLI command with tracing.")
    parser.add_argument("--trace-out", required=True, help="JSONL file written at exit")
    parser.add_argument("--run-id", required=True, help="identifier shared by this run's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="operlab CLI arguments, after `--`")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from operlab import cli

    rec = Recorder(args.run_id)
    install(rec)
    code = cli.main(cli_args)
    with open(args.trace_out, "w") as fh:
        for record in rec.records():
            fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
