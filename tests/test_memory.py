"""Memory contracts of the Poisson path, the multiplier predict and the
recovery steps, measured in process with tracemalloc.

Each command holds its own arrays plus temporaries of a fixed block size, so
its traced peak is bounded in units of one (N, n) float64 array (a dataset
holds two), or, for a container read, of the payload.  numpy reports its
array buffers to tracemalloc, so the traced peak counts every array a
command builds.
"""
import contextlib
import tracemalloc

import numpy as np
import pytest

from operlab import (  # noqa: F401  loaded before tracing
    cli, dataio, opfit, pdelab, probes, recovery)
from operlab.dataio import DataFormatError, read_container
from operlab.grids import Grid1D
from operlab.numerics import RngStream
from operlab.structured import MatvecOracle, random_structured

PAIRS, SENSORS = 2000, 256
UNIT = PAIRS * SENSORS * 8  # bytes of one (N, n) float64 array
GENERATE = {"command": "generate", "seed": 3, "pde": "poisson1d", "num_pairs": PAIRS,
            "resolution": SENSORS, "output": "train.ds",
            "covariance": {"family": "squared-exponential", "length_scale": 0.05}}
LOSSES = list(opfit.LOSS_KINDS)


@contextlib.contextmanager
def traced_peak():
    """Yields a dict whose "bytes" is, on exit, the traced peak above what
    was live when the block began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = {}
        yield result
        result["bytes"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory")
    assert cli.cmd_generate(GENERATE, str(out)) == 0
    return out


def fit_config(variant: dict) -> dict:
    return {"command": "fit", "seed": 3, "dataset": "train.ds", **variant, "losses": LOSSES,
            "model_output": "model.bin", "metrics_output": "metrics.json"}


class TestPoissonPathPeaks:
    def test_generate_holds_its_two_arrays(self, tmp_path, capsys):
        """The inputs and outputs, plus the KL decomposition's (n, n)
        workspace (half a unit here) and one block of draws and solves; a
        whole-array draw and solve peak above four units."""
        with traced_peak() as peak:
            assert cli.cmd_generate(GENERATE, str(tmp_path)) == 0
        assert peak["bytes"] <= 3 * UNIT, peak["bytes"] / UNIT

    @pytest.mark.parametrize("variant", [
        {"variant": "dense-kernel"},
        {"variant": "hierarchical", "levels": 4, "rank": 4},
    ], ids=["dense-kernel", "hierarchical"])
    def test_fit_holds_the_payload_and_row_blocks(self, dataset_dir, monkeypatch, capsys,
                                                  variant):
        """The payload (two units) plus the Green fit's (n, n) matrices and
        row blocks of pairs (0.92 units at 256 sensors, see below), and row
        blocks of predictions in the metrics (2.92 units measured).  The
        weighted inputs and a scaled copy, or full-width predictions and
        their row-major copy, add two units."""
        monkeypatch.chdir(dataset_dir)
        with traced_peak() as peak:
            assert cli.cmd_fit(fit_config(variant), ".") == 0
        assert peak["bytes"] <= 3.25 * UNIT, peak["bytes"] / UNIT

    def test_eval_holds_the_payload_and_row_blocks(self, dataset_dir, monkeypatch, capsys):
        """The test payload (two units), the model's kernel, and one row block
        of predictions and loss terms at a time; full-width predictions and
        their row-major copy add two units."""
        monkeypatch.chdir(dataset_dir)
        assert cli.cmd_fit(fit_config({"variant": "dense-kernel"}), ".") == 0
        config = {"command": "eval", "seed": 3, "model": "model.bin", "losses": LOSSES,
                  "datasets": [{"resolution": SENSORS, "path": "train.ds"}],
                  "output": "eval.csv"}
        with traced_peak() as peak:
            assert cli.cmd_eval(config, ".") == 0
        assert peak["bytes"] <= 2.5 * UNIT, peak["bytes"] / UNIT


class TestFitAndPredictParts:
    def test_green_fit_norms_take_row_blocks(self, dataset_dir):
        """Each pair's weighted squared output norm is computed once, over
        row blocks; squaring and weighting the whole output array holds two
        units."""
        ds = dataio.load_dataset(dataset_dir / "train.ds")
        with traced_peak() as peak:
            *_, norms = opfit._prepare_green_fit(ds)
        assert peak["bytes"] <= 0.5 * UNIT, peak["bytes"] / UNIT
        assert norms.shape == (PAIRS,)

    def test_green_fit_accumulates_gram_and_cross_over_row_blocks(self, dataset_dir):
        """The (n, n) matrices of the fit, each 0.128 units at 256 sensors
        (Gram, cross, eigenvectors, the rotated cross, the ridge's
        denominators, the kernel and its copy in the model), and one row
        block of pairs: 0.92 units measured, bounded at 1 unit, a margin of
        less than one (n, n) matrix.  Weighted inputs of all N pairs and a
        scaled copy add two units; 64-row tiles held 1.05."""
        ds = dataio.load_dataset(dataset_dir / "train.ds")
        with traced_peak() as peak:
            opfit.fit_green_kernel(ds)
        assert peak["bytes"] <= 1.0 * UNIT, peak["bytes"] / UNIT

    def test_multiplier_predict_holds_one_spectrum(self):
        """The complex spectrum (two units), its inverse written over it, and
        the real result (one unit), beside the forward transform's own
        workspace; a separate product array and inverse add three units."""
        grid = Grid1D(SENSORS, 0.0, 2 * np.pi, periodic=True)
        stream = RngStream(5)
        model = opfit.FourierMultiplierModel(grid, 16, stream.standard_normal(33),
                                             np.ones(33, dtype=bool))
        values = stream.standard_normal((PAIRS, SENSORS))
        with traced_peak() as peak:
            model.predict_batch(grid, values)
        assert peak["bytes"] <= 4.5 * UNIT, peak["bytes"] / UNIT


class TestRecoveryPeaks:
    def test_banded_recovery_frees_its_probe(self):
        """The response and the diagonals, one (n, 2w+1) array each; holding
        the indicator probe while the diagonals are allocated adds one."""
        n, width = 8192, 16
        instance = random_structured("banded", n, RngStream(6), bandwidth=width)
        oracle = MatvecOracle.from_operator(instance)
        band = n * (2 * width + 1) * 8
        with traced_peak() as peak:
            recovered = recovery.recover_banded(oracle, width)
        assert peak["bytes"] <= 2.5 * band, peak["bytes"] / band
        assert np.array_equal(recovered.diagonals, instance.diagonals)

    def test_randomized_svd_holds_one_sketch_at_a_time(self):
        """The response, the QR's workspace and Q, then Q and the row action,
        each one (n, rank + oversampling) unit: 3.01 units measured.  Holding
        the probe through the QR and the response through the transpose
        query, and copying both factors into the result, held 6.01."""
        n, rank = 8192, 32
        instance = random_structured("low-rank", n, RngStream(7), rank=rank)
        oracle = MatvecOracle.from_operator(instance)
        unit = n * (rank + 5) * 8
        with traced_peak() as peak:
            recovered = recovery.randomized_svd(oracle, rank, 5, stream=RngStream(8))
        assert peak["bytes"] <= 3.5 * unit, peak["bytes"] / unit
        assert recovery.relative_residual(recovered, instance) <= 1e-12

    def test_low_rank_instance_keeps_its_draws(self):
        """The two drawn factors, (n, rank) and (rank, n): 2.00 units of
        (n, rank) measured.  Copying them into the operator held 4.00."""
        n, rank = 8192, 32
        with traced_peak() as peak:
            random_structured("low-rank", n, RngStream(7), rank=rank)
        unit = n * rank * 8
        assert peak["bytes"] <= 2.75 * unit, peak["bytes"] / unit

    @pytest.mark.parametrize("transpose", [False, True], ids=["apply", "apply_transpose"])
    def test_weak_apply_adds_leaf_products_in_row_blocks(self, transpose):
        """A weak apply at n = 8192 with 2^7 leaves and 8 columns: the result
        and the tiles' coefficients (half a unit of the probe), plus one row
        block of leaf products at a time: 1.50 units measured.  A full-size
        leaf product before the add held 2.00."""
        n = 8192
        op = random_structured("hodlr", n, RngStream(9), rank=4, levels=7)
        x = RngStream(10).standard_normal((n, 8))
        with traced_peak() as peak:
            (op.apply_transpose if transpose else op.apply)(x)
        assert peak["bytes"] <= 1.75 * x.nbytes, peak["bytes"] / x.nbytes

    def test_hodlr_leaf_read_off_holds_one_probe_and_its_response(self):
        """Beyond the result's factor arrays and leaf stack, the leaf read-off
        holds one chunk's probe and the oracle's response with its apply's
        temporaries: 2.99 units of one (n, 8) chunk probe measured at n =
        8192, 2^7 leaves of 64 columns.  Subtracting the coarser levels
        through an operator apply to each probe held 3.55."""
        n = 8192
        instance = random_structured("hodlr", n, RngStream(13), rank=4, levels=7)
        oracle = MatvecOracle.from_operator(instance)
        with traced_peak() as peak:
            recovered = recovery.recover_hodlr(oracle, 4, 7, stream=RngStream(14))
        held = (recovered.col_factors.nbytes + recovered.row_factors.nbytes
                + recovered.leaf_lanes[0].factors[0].nbytes)
        unit = n * 8 * 8
        assert (peak["bytes"] - held) <= 3.25 * unit, (peak["bytes"] - held) / unit
        assert recovery.relative_residual(recovered, instance) <= 1e-10


class TestContainerReadPeaks:
    def test_payload_is_held_once(self, dataset_dir):
        """read() without a size would join the buffered head onto the rest,
        holding the payload twice."""
        path = dataset_dir / "train.ds"
        with traced_peak() as peak:
            header, payload = read_container(path)
        assert len(payload) == header["payload_bytes"] == 2 * UNIT
        assert peak["bytes"] <= 1.25 * len(payload), peak["bytes"] / len(payload)

    def test_file_without_a_newline_is_not_buffered(self, tmp_path):
        """The container line is read only up to its length bound."""
        path = tmp_path / "no-newline.ds"
        path.write_bytes(b"\0" * UNIT)
        with traced_peak() as peak, pytest.raises(DataFormatError, match="not an operlab"):
            read_container(path)
        assert peak["bytes"] <= UNIT / 8, peak["bytes"]

    def test_huge_declared_header_is_a_truncation(self, tmp_path):
        """The declared length is compared with the bytes left before any
        read, so it cannot ask for more memory than the file holds."""
        path = tmp_path / "huge.ds"
        path.write_bytes(b"operlab-binary 2 999999999999999\n{}")
        with pytest.raises(dataio.TruncatedPayloadError, match="header shorter"):
            read_container(path)

