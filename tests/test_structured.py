import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlab import dataio, numerics, structured
from operlab.grids import Grid1D
from operlab.numerics import RngStream
from operlab.opfit import DenseKernelModel, hierarchical_decompose
from operlab.recovery import banded_coloring, recover_hodlr
from operlab.structured import (
    BandedOperator,
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    LowRankOperator,
    MatvecOracle,
    partition_lanes,
    random_structured,
)

from helpers import (
    block_operator,
    dyadic_descent,
    expected_hodlr_layout,
    hodlr_layout,
    per_block_apply,
)


def make_instance(kind, n, seed):
    stream = RngStream(seed)
    if kind == "low-rank":
        return random_structured(kind, n, stream, rank=max(1, n // 8))
    if kind == "banded":
        return random_structured(kind, n, stream, bandwidth=min(2, n - 1))
    if kind == "hodlr":
        return random_structured(kind, n, stream, rank=1, levels=2)
    return random_structured(kind, n, stream)


class TestApplyMaterializeConsistency:
    @pytest.mark.parametrize("kind", ["dense", "low-rank", "circulant", "banded", "hodlr"])
    def test_fifty_instances(self, kind):
        for seed in range(50):
            n = (8, 16, 32)[seed % 3]
            op = make_instance(kind, n, seed)
            dense = op.materialize()
            x = RngStream(1000 + seed).standard_normal((n, 3))
            scale = max(np.linalg.norm(dense @ x), 1.0)
            assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-12 * scale
            assert np.linalg.norm(op.apply_transpose(x) - dense.T @ x) <= 1e-12 * scale


class TestBlockLowRankProperties:
    """Both admissibilities share one block operator: the strong layout that
    hierarchical_decompose builds and the weak (HODLR) one."""

    @settings(max_examples=60, deadline=None)
    @given(
        strong=st.booleans(),
        levels=st.integers(1, 4),
        extra=st.integers(0, 2),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2 ** 31),
    )
    def test_adjoint_and_materialize(self, strong, levels, extra, rank, seed):
        n = 2 ** (levels + extra)
        stream = RngStream(seed)
        if strong:
            kernel = stream.standard_normal((n, n))
            op = hierarchical_decompose(DenseKernelModel(Grid1D(n), kernel), levels, rank).operator
        else:
            op = random_structured("hodlr", n, stream, rank=rank, levels=levels)
        x, y = stream.standard_normal((2, n))
        dense = op.materialize()
        scale = max(np.linalg.norm(dense), 1.0) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(op.apply(x) @ y - x @ op.apply_transpose(y)) <= 1e-12 * scale
        assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-12 * scale / np.linalg.norm(y)


@st.composite
def block_operator_cases(draw):
    """A block operator from each producer: a random HODLR instance (ranks
    may exceed the block size at deep levels), one holding only its coarser
    levels (as peeling holds them), a recovered one, a hierarchical fit
    (strong admissibility, most sizes not powers of two) and that fit
    reloaded from its container."""
    kind = draw(st.sampled_from(["random", "prefix", "recovered", "strong", "reloaded"]))
    levels = draw(st.integers(1, 5))
    n = 2 ** (levels + draw(st.integers(0, 2)))
    rank = draw(st.integers(1, 6))
    stream = RngStream(draw(st.integers(0, 2 ** 31)))
    if kind in ("random", "prefix"):
        op = random_structured("hodlr", n, stream, rank=rank, levels=levels)
        if kind == "random":
            return op
        held = draw(st.integers(0, levels - 1))  # whole levels, fewer than all
        width = op.lanes[2 * held - 1].columns.stop if held else 0
        return BlockLowRankOperator(n, levels, "weak", rank, op.col_factors[:, :width],
                                    op.row_factors[:, :width])
    if kind == "recovered":
        n, levels = max(n, 16), min(levels, 3)
        op = random_structured("hodlr", n, stream, rank=rank, levels=levels)
        oversampling = min(3, n // 2 - rank)
        oracle = MatvecOracle.from_operator(op)
        return recover_hodlr(oracle, rank, levels, oversampling, stream=stream)
    n = (1 << levels) * draw(st.integers(1, 12))
    kernel = DenseKernelModel(Grid1D(n), stream.standard_normal((n, n)))
    model = hierarchical_decompose(kernel, levels, rank)
    if kind == "reloaded":
        with tempfile.TemporaryDirectory() as tmp:
            dataio.save_model(Path(tmp) / "model.bin", model)
            model = dataio.load_model(Path(tmp) / "model.bin")
    return model.operator


def assert_matches_per_block(op, x):
    """Both directions of op on x agree with the per-block loop to within
    1e-13 ||A||_F ||x||_F per column block: roundoff, as each row's terms
    are summed in one product rather than block by block."""
    scale = 1e-13 * np.linalg.norm(op.materialize(cap=op.n)) * max(np.linalg.norm(x), 1.0)
    assert np.linalg.norm(op.apply(x) - per_block_apply(op, x)) <= scale
    assert np.linalg.norm(op.apply_transpose(x) - per_block_apply(op, x, transpose=True)) <= scale


def same_memory(a, b) -> bool:
    """Whether two arrays view the same elements in the same layout."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


class TestStackedRunsMatchPerBlockLoop:
    """The tile-major apply (three batched products whatever the number of
    levels) agrees with a per-block loop to roundoff, in both directions,
    for every producer of block operators and every probe layout, in one
    pass or in column chunks."""

    @settings(max_examples=150, deadline=None)
    @given(
        op=block_operator_cases(),
        width=st.sampled_from([None, 1, 2, 9, 64]),
        fortran=st.booleans(),
        block_entries=st.sampled_from([numerics.BLOCK_ENTRIES, 1, 300]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_apply_bits(self, op, width, fortran, block_entries, seed):
        shape = (op.n,) if width is None else (op.n, width)
        x = RngStream(seed).standard_normal(shape)
        if fortran:  # predict probes the operator with a transposed batch
            x = np.asfortranarray(x)
        with mock.patch.object(numerics, "BLOCK_ENTRIES", block_entries):
            assert_matches_per_block(op, x)

    @pytest.mark.parametrize("admissibility", ["weak", "strong"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["apply", "apply_transpose"])
    def test_leaf_products_keep_the_apply_bits_in_row_blocks(self, admissibility, transpose):
        """The leaf lanes' products go into the result one row block of
        tiles at a time; each tile's product is its own matmul, so one tile
        a block, a few, and all of them give the same bits.  Both operators
        apply a C-ordered probe in one pass, so only the leaf blocks move."""
        n, levels = 1024, 4
        stream = RngStream(21)
        if admissibility == "weak":
            op = random_structured("hodlr", n, stream, rank=2, levels=levels)
        else:
            kernel = DenseKernelModel(Grid1D(n), stream.standard_normal((n, n)))
            op = hierarchical_decompose(kernel, levels - 1, 2).operator
        x = stream.standard_normal((n, 3))
        leaf = n >> op.levels
        assert op.col_factors.shape[1] << op.levels <= n  # one pass at any block size
        whole = (op.apply_transpose if transpose else op.apply)(x)
        for block_entries in (1, 2 * 3 * leaf, 5 * 3 * leaf + 1):
            with mock.patch.object(numerics, "BLOCK_ENTRIES", block_entries):
                blocked = (op.apply_transpose if transpose else op.apply)(x)
            assert np.array_equal(blocked, whole), block_entries

    @pytest.mark.parametrize("recovered", [False, True])
    def test_stacks_are_the_only_copy(self, recovered):
        """Every block's factors are views into the operator's two (n, K)
        factor arrays, at the block's rows (col_factors) or columns
        (row_factors) and its lane's columns; a level's upper and lower
        lanes share its columns, and the leaves are one stack.  No block
        owns a copy."""
        op = random_structured("hodlr", 64, RngStream(2), rank=3, levels=3)
        if recovered:
            op = recover_hodlr(MatvecOracle.from_operator(op), 3, 3, 2, stream=RngStream(3))
        assert op.col_factors.shape == op.row_factors.shape == (64, 9)
        assert op.col_factors.flags.owndata and op.row_factors.flags.owndata
        for level in (1, 2, 3):
            upper, lower = (lane for lane in op.lanes if lane.level == level)
            assert upper.columns == lower.columns == slice(3 * level - 3, 3 * level)
        for lane in op.lanes:
            col_factors, row_factors_t = lane.factors
            assert col_factors.base is op.col_factors and row_factors_t.base is op.row_factors
            for r0, c0, col_factor, row_factor_t in zip(lane.row_starts, lane.col_starts,
                                                        col_factors, row_factors_t):
                assert same_memory(col_factor, op.col_factors[r0:r0 + lane.size, lane.columns])
                assert same_memory(row_factor_t.T, op.row_factors[c0:c0 + lane.size, lane.columns])
        (leaf_lane,) = op.leaf_lanes
        assert leaf_lane.factors[0].shape == (8, 8, 8) and leaf_lane.factors[0].flags.owndata

    def test_hodlr_blocks_list_upper_then_lower(self):
        op = random_structured("hodlr", 64, RngStream(2), rank=3, levels=3)
        blocks, _ = dyadic_descent(64, 3, "weak")
        # level by level, the upper lane (row tile above column tile), then the lower one
        expected = sorted(blocks, key=lambda b: (b[0], b[1] > b[2], b[1]))
        assert [(lane.level, r0, c0, lane.size) for lane in op.lanes
                for r0, c0 in zip(lane.row_starts, lane.col_starts)] == expected

    @pytest.mark.parametrize("transpose", [False, True], ids=["apply", "apply_transpose"])
    def test_levels_apply_through_views(self, transpose):
        """The levels apply through a tile view of the probe, with no copy of
        it: on recovery's known levels (n=8192, L=7, an 18-column probe)
        the traced peak is the result plus the tiles' coefficients."""
        n, levels, stream = 8192, 7, RngStream(9)
        draws = [stream.standard_normal((2, 2 ** level, n >> level, 4))
                 for level in range(1, levels + 1)]
        factors = [(c[lane::2], r[lane::2]) for c, r in draws for lane in (0, 1)]
        op = block_operator(n, levels, "weak", 4, factors)
        x = stream.standard_normal((n, 18))
        tracemalloc.start()
        try:
            (op.apply_transpose if transpose else op.apply)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * x.nbytes


    @pytest.mark.parametrize("transpose", [False, True], ids=["apply", "apply_transpose"])
    def test_wide_fortran_probe_applies_in_chunks(self, transpose):
        """The batched predict of a hierarchical fit (strong, n=256, L=4,
        rank 4) probes it with 2700 Fortran-ordered columns.  Its
        coefficients (16 tiles x 36 per column) outnumber the probe's
        entries, so the apply goes in chunks of columns copied to C order.
        The traced peak is 9 783 760 B (1.77x the probe's bytes), below the
        11 579 840 B (2.09x) of the lane-by-lane apply it replaced, which
        added every lane's product into a Fortran-ordered result."""
        stream = RngStream(4)
        kernel = DenseKernelModel(Grid1D(256), stream.standard_normal((256, 256)))
        op = hierarchical_decompose(kernel, 4, 4).operator
        x = np.asfortranarray(stream.standard_normal((256, 2700)))
        tracemalloc.start()
        try:
            y = (op.apply_transpose if transpose else op.apply)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11_579_840
        assert y.flags.f_contiguous  # so predict's transpose back is C-ordered, with no copy
        scale = 1e-13 * np.linalg.norm(op.materialize()) * np.linalg.norm(x)
        assert np.linalg.norm(y - per_block_apply(op, x, transpose)) <= scale


class TestOperatorProperties:
    """The same two properties for each of the other operator types."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "low-rank", "circulant", "banded"]),
        n=st.integers(2, 40),
        param=st.integers(0, 39),
        cols=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_adjoint_and_materialize(self, kind, n, param, cols, seed):
        stream = RngStream(seed)
        if kind == "low-rank":
            op = random_structured(kind, n, stream, rank=1 + param % (n - 1))
        elif kind == "banded":
            op = random_structured(kind, n, stream, bandwidth=param % n)
        else:
            op = random_structured(kind, n, stream)
        shape = (n,) if cols is None else (n, cols)
        x, y = stream.standard_normal((2, *shape))
        dense = op.materialize()
        scale = max(np.linalg.norm(dense), 1.0) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(np.sum(op.apply(x) * y) - np.sum(x * op.apply_transpose(y))) <= 1e-12 * scale
        assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-12 * scale / np.linalg.norm(y)


def per_offset_banded_apply(op, x, transpose):
    """A banded operator applied as one full-height pass per offset, in
    offset order: the loop whose bits the row-blocked apply keeps."""
    y = np.zeros_like(x)
    w = op.bandwidth
    for offset in range(-w, w + 1):
        lo, hi = max(0, -offset), op.n - max(0, offset)
        rows, cols = slice(lo, hi), slice(lo + offset, hi + offset)
        src, dst = (rows, cols) if transpose else (cols, rows)
        y[dst] += op.diagonals[w + offset, lo:hi, None] * x[src]
    return y


BANDED_BLOCK_CASES = [(n, w, cols) for n, w in [(1, 0), (100, 0), (100, 99), (300, 299),
                                                 (1000, 5), (2500, 0), (2500, 17)]
                      for cols in (None, 3, 40)] + [(40000, 2, None)]


class TestBandedRowBlocks:
    """The row-blocked apply has the bits of one pass per offset.  A block
    is numerics.BLOCK_ENTRIES // width rows (32768 for a vector, 819 at 40
    columns, 109 for the 300-column indicator probe at w = 299), so the
    cases fall below one block and end in a partial block, at bandwidths 0
    and n - 1, for vector and matrix probes, both directions, and indicator
    and Gaussian probes."""

    @pytest.mark.parametrize("n, w, cols", BANDED_BLOCK_CASES)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bits_match_per_offset_passes(self, n, w, cols, transpose):
        op = random_structured("banded", n, RngStream(n + w), bandwidth=w)
        gaussian = RngStream(7).standard_normal((n, cols or 1))
        indicator = np.zeros((n, min(2 * w + 1, n)))
        indicator[np.arange(n), banded_coloring(n, w)] = 1.0
        for x in (gaussian, np.asfortranarray(gaussian), indicator):
            probe = x[:, 0] if cols is None else x
            got = op.apply_transpose(probe) if transpose else op.apply(probe)
            expected = per_offset_banded_apply(op, probe.reshape(n, -1), transpose)
            assert np.array_equal(got, expected.reshape(got.shape))


@st.composite
def column_range_cases(draw):
    """An operator of any type (strong and weak block layouts included) and a
    random column range lo < hi.  Strong layouts also come at sizes that are
    not powers of two: 2^levels times an odd factor."""
    kind = draw(st.sampled_from(["dense", "low-rank", "circulant", "banded", "hodlr", "strong"]))
    stream = RngStream(draw(st.integers(0, 2 ** 31)))
    if kind in ("hodlr", "strong"):
        levels = draw(st.integers(1, 4))
        n = 2 ** (levels + draw(st.integers(0, 2)))
        rank = draw(st.integers(1, 4))
        if kind == "strong":
            n = (n >> levels) * draw(st.sampled_from([1, 3, 5, 7])) << levels
            model = DenseKernelModel(Grid1D(n), stream.standard_normal((n, n)))
            op = hierarchical_decompose(model, levels, rank).operator
        else:
            op = random_structured(kind, n, stream, rank=rank, levels=levels)
    else:
        n = draw(st.integers(2, 80))
        if kind == "low-rank":
            op = random_structured(kind, n, stream, rank=draw(st.integers(1, n - 1)))
        elif kind == "banded":
            op = random_structured(kind, n, stream, bandwidth=draw(st.integers(0, n - 1)))
        else:
            op = random_structured(kind, n, stream)
    lo = draw(st.integers(0, n - 1))
    return kind, op, lo, draw(st.integers(lo + 1, n))


class TestColumnRange:
    @settings(max_examples=150, deadline=None)
    @given(case=column_range_cases())
    def test_slab_is_a_slice_of_the_matrix(self, case):
        """Exact for every type but low-rank, whose gemm rounds by slab width."""
        kind, op, lo, hi = case
        part, whole = op.materialize(lo, hi), op.materialize()[:, lo:hi]
        assert part.shape == (op.n, hi - lo)
        if kind == "low-rank":
            assert np.linalg.norm(part - whole) <= 1e-14 * max(np.linalg.norm(whole), 1e-300)
        else:
            assert np.array_equal(part, whole)

    def test_range_checked(self):
        op = CirculantOperator(np.ones(8))
        assert op.materialize(3, 3).shape == (8, 0)
        for start, stop in ((-1, 4), (5, 4), (0, 9)):
            with pytest.raises(ValueError):
                op.materialize(start, stop)


class TestOracle:
    def test_identity_counts_columns(self):
        oracle = MatvecOracle.from_operator(DenseOperator(np.eye(6)))
        x = RngStream(0).standard_normal((6, 4))
        out = oracle.apply(x)
        assert np.array_equal(out, x)
        assert oracle.forward_queries == 4
        assert oracle.transpose_queries == 0
        oracle.apply_transpose(x[:, 0])
        assert oracle.transpose_queries == 1

    def test_identity_circulant_probe(self):
        op = CirculantOperator([1.0, 0.0, 0.0, 0.0])
        e3 = np.zeros(4)
        e3[2] = 1.0
        assert np.allclose(MatvecOracle.from_operator(op).apply(e3), e3)

    def test_matches_dense_brute_force(self):
        for seed, kind in enumerate(["low-rank", "circulant", "banded", "hodlr"]):
            op = make_instance(kind, 16, seed + 77)
            oracle = MatvecOracle.from_operator(op)
            dense = op.materialize()
            x = RngStream(seed).standard_normal((16, 5))
            assert np.linalg.norm(oracle.apply(x) - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)

    @pytest.mark.parametrize("direction", ["apply", "apply_transpose"])
    @pytest.mark.parametrize("kind", ["dense", "low-rank", "circulant", "banded", "hodlr", "oracle"])
    @pytest.mark.parametrize("shape", [(15,), (17, 2), (), (16, 2, 1)],
                             ids=["vector-rows", "matrix-rows", "0-d", "3-d"])
    def test_dimension_mismatch(self, kind, direction, shape):
        """Every operator and the oracle share one probe check: a probe of
        16 rows, as a vector or a matrix, or a ValueError."""
        if kind == "oracle":
            target = MatvecOracle.from_operator(make_instance("dense", 16, 3))
        else:
            target = make_instance(kind, 16, 3)
        with pytest.raises(ValueError):
            getattr(target, direction)(np.ones(shape))
        if kind == "oracle":
            assert (target.forward_queries, target.transpose_queries) == (0, 0)

    def test_counters_exact_under_concurrency(self):
        import threading

        oracle = MatvecOracle.from_operator(DenseOperator(np.eye(32)))
        probe = np.ones((32, 3))

        def worker():
            for _ in range(200):
                oracle.apply(probe)
                oracle.apply_transpose(probe[:, 0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.forward_queries == 4 * 200 * 3
        assert oracle.transpose_queries == 4 * 200


class TestMaterialize:
    def test_circulant_identity(self):
        assert np.array_equal(CirculantOperator([1, 0, 0, 0]).materialize(), np.eye(4))

    def test_banded_diagonal(self):
        d = np.array([2.0, -1.0, 3.0])
        op = BandedOperator(3, 0, d[None, :])
        assert np.array_equal(op.materialize(), np.diag(d))

    def test_hodlr_matches_manual_assembly(self):
        stream = RngStream(4)
        u1, v1 = stream.standard_normal((4, 1)), stream.standard_normal((4, 1))
        u2, v2 = stream.standard_normal((4, 1)), stream.standard_normal((4, 1))
        leaves = [stream.standard_normal((4, 4)) for _ in range(2)]
        # one level: the upper lane's one block, then the lower lane's
        factors = [(u1[None], v1[None]), (u2[None], v2[None])]
        op = block_operator(8, 1, "weak", 1, factors, [np.stack(leaves)])
        manual = np.zeros((8, 8))
        manual[:4, 4:] = u1 @ v1.T
        manual[4:, :4] = u2 @ v2.T
        manual[:4, :4] = leaves[0]
        manual[4:, 4:] = leaves[1]
        assert np.allclose(op.materialize(), manual, atol=1e-14)

    def test_dense_cap(self):
        op = CirculantOperator(np.ones(8))
        with pytest.raises(ValueError):
            op.materialize(cap=4)


class TestRandomStructured:
    def test_low_rank_bound(self):
        op = random_structured("low-rank", 64, RngStream(8), rank=3)
        s = np.linalg.svd(op.materialize(), compute_uv=False)
        assert s[3] <= 1e-12 * s[0]

    def test_banded_five_diagonals(self):
        op = random_structured("banded", 12, RngStream(9), bandwidth=2)
        dense = op.materialize()
        i, j = np.indices(dense.shape)
        assert np.all(dense[np.abs(i - j) > 2] == 0.0)
        offsets = {int(o) for o in (j - i)[dense != 0.0]}
        assert offsets <= {-2, -1, 0, 1, 2}

    def test_same_seed_same_instance(self):
        a = random_structured("hodlr", 16, RngStream(3), rank=2, levels=2).materialize()
        b = random_structured("hodlr", 16, RngStream(3), rank=2, levels=2).materialize()
        assert np.array_equal(a, b)

    def test_hodlr_offdiagonal_rank(self):
        op = random_structured("hodlr", 32, RngStream(10), rank=2, levels=3)
        dense = op.materialize()
        for lane in op.lanes:
            for r0, c0 in zip(lane.row_starts, lane.col_starts):
                sub = dense[r0:r0 + lane.size, c0:c0 + lane.size]
                s = np.linalg.svd(sub, compute_uv=False)
                if s.size > 2:
                    assert s[2] <= 1e-12 * max(s[0], 1e-300)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            random_structured("low-rank", 8, RngStream(0), rank=8)
        with pytest.raises(ValueError):
            random_structured("banded", 8, RngStream(0), bandwidth=8)
        with pytest.raises(ValueError):
            random_structured("hodlr", 12, RngStream(0), rank=1, levels=2)
        with pytest.raises(ValueError):
            random_structured("nonsense", 8, RngStream(0))


class TestOperatorValidation:
    @pytest.mark.parametrize("width, leaves", [
        (3, ()),  # level 1 and part of level 2
        (12, ()),  # more columns than the three levels hold
        (4, [np.zeros((4, 4, 4))]),  # 8 leaves of size 2 expected
        (4, [np.zeros((8, 2, 2))] * 2),  # one stack per leaf lane
    ])
    def test_block_operator_shape_checks(self, width, leaves):
        with pytest.raises(ValueError):
            BlockLowRankOperator(16, 3, "weak", 2, np.zeros((16, width)), np.zeros((16, width)),
                                 leaves)

    def test_block_operator_needs_equal_factor_arrays(self):
        with pytest.raises(ValueError):
            BlockLowRankOperator(16, 3, "weak", 2, np.zeros((16, 4)), np.zeros((16, 2)))
        with pytest.raises(ValueError):
            BlockLowRankOperator.zeros(16, 3, "weak", 0)

    def test_lane_fill_checks_stack_shapes(self):
        (upper, *_) = BlockLowRankOperator.zeros(16, 3, "weak", 2).lanes
        with pytest.raises(ValueError):
            upper.fill(np.zeros((1, 8, 2)), np.zeros((1, 8, 1)))  # would broadcast

    def test_low_rank_shape_check(self):
        with pytest.raises(ValueError):
            LowRankOperator(np.ones((4, 2)), np.ones((3, 4)))

    def test_banded_shape_check(self):
        with pytest.raises(ValueError):
            BandedOperator(4, 1, np.ones((2, 4)))

    def test_banded_keeps_a_float_array_without_a_copy(self):
        d = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 0.0]])
        assert BandedOperator(3, 1, d).diagonals is d
        listed = BandedOperator(3, 1, d.tolist()).diagonals
        assert listed.dtype == np.float64 and np.array_equal(listed, d)

    @pytest.mark.parametrize("kind", ["dense", "low-rank", "circulant", "banded", "block"])
    def test_keeps_float_arrays_without_a_copy(self, kind):
        """Every operator type holds the float64 arrays it is given, in their
        layout: a transposed row factor, as randomized_svd passes one, stays
        a view of its array."""
        stream = RngStream(5)
        if kind == "dense":
            given = [stream.standard_normal((6, 6))]
            op = DenseOperator(*given)
            held = [op.matrix]
        elif kind == "low-rank":
            given = [stream.standard_normal((6, 2)), stream.standard_normal((6, 2)).T]
            op = LowRankOperator(*given)
            held = [op.col_factor, op.row_factor]
        elif kind == "circulant":
            given = [stream.standard_normal(6)]
            op = CirculantOperator(*given)
            held = [op.first_column]
        elif kind == "banded":
            given = [random_structured("banded", 6, stream, bandwidth=1).diagonals]
            op = BandedOperator(6, 1, *given)
            held = [op.diagonals]
        else:
            shell = BlockLowRankOperator.zeros(16, 2, "weak", 2)
            given = [shell.col_factors, shell.row_factors, np.zeros((4, 4, 4))]
            op = BlockLowRankOperator(16, 2, "weak", 2, *given[:2], [given[2]])
            held = [op.col_factors, op.row_factors, op.leaf_lanes[0].factors[0]]
        assert all(same_memory(a, b) for a, b in zip(given, held, strict=True))

    @pytest.mark.parametrize("slot", [(0, 0), (0, 1), (1, 0), (3, 4), (4, 3), (4, 4)])
    @pytest.mark.parametrize("value", [1e-300, -2.0, np.nan])
    def test_banded_out_of_range_slots_must_be_zero(self, slot, value):
        """Row w + o, column i is out of range when i + o leaves [0, n)."""
        d = np.zeros((5, 5))
        d[slot] = value
        with pytest.raises(ValueError, match="out-of-range"):
            BandedOperator(5, 2, d)
        in_range = np.ones((5, 5))
        for offset in range(-2, 3):
            in_range[2 + offset, max(0, -offset):5 - max(0, offset)] = 0.0
        assert in_range[slot] == 1.0

    def test_dense_finite_check(self):
        with pytest.raises(ValueError):
            DenseOperator([[np.inf, 0.0], [0.0, 1.0]])

    def test_hodlr_power_of_two(self):
        with pytest.raises(ValueError):
            random_structured("hodlr", 12, RngStream(0), rank=1, levels=1)
        oracle = MatvecOracle.from_operator(DenseOperator(np.eye(12)))
        with pytest.raises(ValueError):
            recover_hodlr(oracle, 1, 1, 1, stream=RngStream(0))


def lanes_cover_once(m: int, lanes) -> bool:
    """Whether the blocks of the lanes tile an m x m matrix, each entry once."""
    cover = np.zeros((m, m), dtype=int)
    for _, rows, cols, size, _ in lanes:
        for r0, c0 in zip(rows, cols):
            cover[r0:r0 + size, c0:c0 + size] += 1
    return bool(np.all(cover == 1))


def lane_blocks(lanes, leaf_lanes) -> tuple[list, list]:
    """The sorted (level, row, col, size) of the lanes' blocks and (row, col,
    size) of the leaf lanes' leaves, as dyadic_descent lists them."""
    blocks = [(level, r0, c0, size) for level, rows, cols, size, _ in lanes
              for r0, c0 in zip(rows, cols)]
    leaves = [(r0, c0, size) for _, rows, cols, size, _ in leaf_lanes for r0, c0 in zip(rows, cols)]
    return sorted(blocks), sorted(leaves)


@st.composite
def partition_cases(draw):
    """(n, levels) with n = 2^k and 1 <= levels <= k."""
    k = draw(st.integers(1, 8))
    return 1 << k, draw(st.integers(1, k))


class TestHodlrPartition:
    @settings(max_examples=80, deadline=None)
    @given(case=partition_cases())
    def test_blocks_and_leaves_cover_every_entry_once(self, case):
        """The weak lanes and leaf lane cover every entry once and hold
        exactly the blocks and leaves of the recursive descent."""
        n, levels = case
        lanes, leaf_lanes = partition_lanes(n, levels, "weak")
        assert lanes_cover_once(n, lanes + leaf_lanes)
        assert lane_blocks(lanes, leaf_lanes) == tuple(map(sorted, dyadic_descent(n, levels, "weak")))

    @pytest.mark.parametrize("n, levels", [(12, 1), (1, 1), (0, 1), (8, 0), (8, 4), (16, 5)])
    def test_rejects_non_dyadic_sizes(self, n, levels):
        with pytest.raises(ValueError):
            partition_lanes(n, levels, "weak")

    @pytest.mark.parametrize("n, rank, levels", [(8, 1, 1), (64, 2, 3), (256, 4, 6), (32, 40, 5)])
    def test_random_instance_follows_the_partition(self, n, rank, levels):
        op = random_structured("hodlr", n, RngStream(n), rank=rank, levels=levels)
        assert isinstance(op, BlockLowRankOperator)
        assert hodlr_layout(op) == expected_hodlr_layout(n, levels)

    def test_random_instance_needs_positive_rank(self):
        with pytest.raises(ValueError):
            random_structured("hodlr", 16, RngStream(0), rank=0, levels=2)


@st.composite
def strong_cases(draw):
    """(m, levels) with m any multiple of 2^levels, most not powers of two."""
    levels = draw(st.integers(1, 5))
    return (1 << levels) * draw(st.integers(1, 25)), levels


class TestStrongPartition:
    @settings(max_examples=80, deadline=None)
    @given(case=strong_cases())
    @example(case=(96, 5))
    @example(case=(100, 2))
    def test_lanes_are_the_recursive_descent(self, case):
        """Lanes and leaf lanes cover every entry once and hold exactly the
        blocks and leaves of the recursive descent."""
        m, levels = case
        lanes, leaf_lanes = partition_lanes(m, levels, "strong")
        assert lanes_cover_once(m, lanes + leaf_lanes)
        assert lane_blocks(lanes, leaf_lanes) == tuple(map(sorted, dyadic_descent(m, levels, "strong")))

    @settings(max_examples=40, deadline=None)
    @given(
        case=strong_cases(),
        rank=st.integers(1, 6),
        width=st.sampled_from([None, 1, 2, 9]),
        fortran=st.booleans(),
        seed=st.integers(0, 2 ** 31),
    )
    @example(case=(100, 2), rank=2, width=9, fortran=True, seed=0)
    def test_fit_applies_with_the_per_block_bits(self, case, rank, width, fortran, seed):
        m, levels = case
        stream = RngStream(seed)
        kernel = DenseKernelModel(Grid1D(m), stream.standard_normal((m, m)))
        op = hierarchical_decompose(kernel, levels, rank).operator
        x = stream.standard_normal((m,) if width is None else (m, width))
        if fortran:
            x = np.asfortranarray(x)
        assert_matches_per_block(op, x)

    @pytest.mark.parametrize("m, levels, admissibility", [
        (30, 2, "strong"), (8, 4, "strong"), (8, 0, "strong"), (0, 1, "strong"),
        (12, 1, "weak"), (16, 2, "diagonal"),
    ])
    def test_rejects_a_partition_that_does_not_exist(self, m, levels, admissibility):
        with pytest.raises(ValueError):
            partition_lanes(m, levels, admissibility)
