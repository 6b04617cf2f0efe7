import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlab import dataio
from operlab.grids import Grid1D
from operlab.numerics import RngStream
from operlab.opfit import DenseKernelModel, hierarchical_decompose
from operlab.recovery import recover_hodlr
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

from helpers import dyadic_descent, expected_hodlr_layout, hodlr_layout, per_block_apply


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
    may exceed the block size at deep levels), a recovered one, a
    hierarchical fit (strong admissibility, depth-first block order) and
    that fit reloaded from its container."""
    kind = draw(st.sampled_from(["random", "recovered", "strong", "reloaded"]))
    levels = draw(st.integers(1, 5))
    n = 2 ** (levels + draw(st.integers(0, 2)))
    rank = draw(st.integers(1, 6))
    stream = RngStream(draw(st.integers(0, 2 ** 31)))
    if kind == "random":
        return random_structured("hodlr", n, stream, rank=rank, levels=levels)
    if kind == "recovered":
        n, levels = max(n, 16), min(levels, 3)
        op = random_structured("hodlr", n, stream, rank=rank, levels=levels)
        oversampling = min(3, n // 2 - rank)
        oracle = MatvecOracle.from_operator(op)
        return recover_hodlr(oracle, rank, levels, oversampling, stream=stream)
    kernel = DenseKernelModel(Grid1D(n), stream.standard_normal((n, n)))
    model = hierarchical_decompose(kernel, levels, rank)
    if kind == "reloaded":
        with tempfile.TemporaryDirectory() as tmp:
            dataio.save_model(Path(tmp) / "model.bin", model)
            model = dataio.load_model(Path(tmp) / "model.bin")
    return model.operator


class TestStackedRunsMatchPerBlockLoop:
    """Stacked runs apply each block with the operands and layouts of a
    per-block loop and add up in its order, so they reproduce its bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        op=block_operator_cases(),
        width=st.sampled_from([None, 1, 2, 9, 64]),
        fortran=st.booleans(),
        seed=st.integers(0, 2 ** 31),
    )
    def test_apply_bits(self, op, width, fortran, seed):
        shape = (op.n,) if width is None else (op.n, width)
        x = RngStream(seed).standard_normal(shape)
        if fortran:  # predict probes the operator with a transposed batch
            x = np.asfortranarray(x)
        assert np.array_equal(op.apply(x), per_block_apply(op, x))
        assert np.array_equal(op.apply_transpose(x), per_block_apply(op, x, transpose=True))

    @pytest.mark.parametrize("recovered", [False, True])
    def test_stacks_are_the_only_copy(self, recovered):
        """Each level's factors and the leaves are views into one array per
        level and one for the leaves; no block owns a copy."""
        op = random_structured("hodlr", 64, RngStream(2), rank=3, levels=3)
        if recovered:
            op = recover_hodlr(MatvecOracle.from_operator(op), 3, 3, 2, stream=RngStream(3))
        arrays = [m for b in op.blocks for m in (b.col_factor, b.row_factor)]
        arrays += [m for _, _, m in op.dense_blocks]
        assert not any(m.flags.owndata for m in arrays)
        bases = {id(m.base) for m in arrays}
        assert len(bases) == 4
        for level in (1, 2, 3):
            assert len({id(b.col_factor.base) for b in op.blocks if b.level == level}) == 1

    def test_hodlr_blocks_list_upper_then_lower(self):
        op = random_structured("hodlr", 64, RngStream(2), rank=3, levels=3)
        blocks, _ = dyadic_descent(64, 3, "weak")
        # level by level, the upper lane (row tile above column tile), then the lower one
        expected = sorted(blocks, key=lambda b: (b[0], b[1] > b[2], b[1]))
        assert [(b.level, b.row_start, b.col_start, b.size) for b in op.blocks] == expected

    @pytest.mark.parametrize("transpose", [False, True], ids=["apply", "apply_transpose"])
    def test_levels_apply_through_views(self, transpose):
        """A HODLR level applies as two strided lanes, with no gathered copy
        of the probe: on recovery's known levels (n=8192, L=7, an 18-column
        probe) the traced peak is the result plus one lane's product."""
        n, levels, stream = 8192, 7, RngStream(9)
        draws = [stream.standard_normal((2, 2 ** level, n >> level, 4))
                 for level in range(1, levels + 1)]
        factors = [(c[lane::2], r[lane::2]) for c, r in draws for lane in (0, 1)]
        op = BlockLowRankOperator(n, levels, "weak", factors)
        x = stream.standard_normal((n, 18))
        tracemalloc.start()
        try:
            (op.apply_transpose if transpose else op.apply)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * x.nbytes


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


@st.composite
def column_range_cases(draw):
    """An operator of any type (strong and weak block layouts included) and a
    random column range lo < hi."""
    kind = draw(st.sampled_from(["dense", "low-rank", "circulant", "banded", "hodlr", "strong"]))
    stream = RngStream(draw(st.integers(0, 2 ** 31)))
    if kind in ("hodlr", "strong"):
        levels = draw(st.integers(1, 4))
        n = 2 ** (levels + draw(st.integers(0, 2)))
        rank = draw(st.integers(1, 4))
        if kind == "strong":
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

    def test_dimension_mismatch(self):
        oracle = MatvecOracle.from_operator(DenseOperator(np.eye(4)))
        with pytest.raises(ValueError):
            oracle.apply(np.ones(5))

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
        op = BlockLowRankOperator(8, 1, "weak", factors, [np.stack(leaves)])
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
        for b in op.blocks:
            sub = dense[b.row_start:b.row_start + b.size, b.col_start:b.col_start + b.size]
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
    def test_low_rank_shape_check(self):
        with pytest.raises(ValueError):
            LowRankOperator(np.ones((4, 2)), np.ones((3, 4)))

    def test_banded_shape_check(self):
        with pytest.raises(ValueError):
            BandedOperator(4, 1, np.ones((2, 4)))

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
    for _, rows, cols, size in lanes:
        for r0, c0 in zip(rows, cols):
            cover[r0:r0 + size, c0:c0 + size] += 1
    return bool(np.all(cover == 1))


def lane_blocks(lanes, leaf_lanes) -> tuple[list, list]:
    """The sorted (level, row, col, size) of the lanes' blocks and (row, col,
    size) of the leaf lanes' leaves, as dyadic_descent lists them."""
    blocks = [(level, r0, c0, size) for level, rows, cols, size in lanes
              for r0, c0 in zip(rows, cols)]
    leaves = [(r0, c0, size) for _, rows, cols, size in leaf_lanes for r0, c0 in zip(rows, cols)]
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
        assert np.array_equal(op.apply(x), per_block_apply(op, x))
        assert np.array_equal(op.apply_transpose(x), per_block_apply(op, x, transpose=True))

    @pytest.mark.parametrize("m, levels, admissibility", [
        (30, 2, "strong"), (8, 4, "strong"), (8, 0, "strong"), (0, 1, "strong"),
        (12, 1, "weak"), (16, 2, "diagonal"),
    ])
    def test_rejects_a_partition_that_does_not_exist(self, m, levels, admissibility):
        with pytest.raises(ValueError):
            partition_lanes(m, levels, admissibility)
