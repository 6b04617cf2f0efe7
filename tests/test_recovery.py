import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlab.grids import Grid1D
from operlab.numerics import RngStream
from operlab.opfit import DenseKernelModel, hierarchical_decompose
from operlab.recovery import (
    RankDeficitError,
    ZeroFourierMode,
    banded_coloring,
    hodlr_query_budget,
    query_budget,
    randomized_svd,
    recover_banded,
    recover_circulant,
    recover_hodlr,
    relative_residual,
)
from operlab.structured import (
    BandedOperator,
    BlockLowRankOperator,
    CirculantOperator,
    DenseOperator,
    LowRankOperator,
    MatvecOracle,
    StructuredOperator,
    random_structured,
)

from helpers import ConstantStream, block_operator, expected_hodlr_layout, hodlr_layout


def oracle_for(op):
    return MatvecOracle.from_operator(op)


class TestRandomizedSvd:
    def test_zero_matrix(self):
        oracle = oracle_for(DenseOperator(np.zeros((8, 8))))
        recovered = randomized_svd(oracle, 2, 5, stream=RngStream(0))
        assert relative_residual(recovered, np.zeros((8, 8))) <= 1e-12
        assert (oracle.forward_queries, oracle.transpose_queries) == (7, 7)

    def test_rank_one(self):
        u = RngStream(1).standard_normal(32)
        v = RngStream(2).standard_normal(32)
        a = np.outer(u, v)
        oracle = oracle_for(DenseOperator(a))
        recovered = randomized_svd(oracle, 1, 5, stream=RngStream(3))
        assert relative_residual(recovered, a) <= 1e-10
        assert (oracle.forward_queries, oracle.transpose_queries) == (6, 6)

    def test_near_best_bound_decaying_diagonal(self):
        a = np.diag(2.0 ** -np.arange(16.0))
        tail = np.linalg.norm(np.diag(a)[4:])  # best rank-4 error, from the exact SVD
        bound = (1.0 + 15.0 * np.sqrt(4 + 5)) * tail
        recovered = randomized_svd(oracle_for(DenseOperator(a)), 4, 5, stream=RngStream(4))
        assert relative_residual(recovered, a) * np.linalg.norm(a) <= bound

    def test_parameter_validation(self):
        oracle = oracle_for(DenseOperator(np.eye(4)))
        with pytest.raises(ValueError):
            randomized_svd(oracle, 3, 5, stream=RngStream(0))
        with pytest.raises(ValueError):
            randomized_svd(oracle, 0, 5, stream=RngStream(0))


class TestCirculant:
    def test_identity_matrix(self):
        op = random_structured("circulant", 4, RngStream(0))
        identity = oracle_for(DenseOperator(np.eye(4)))
        recovered = recover_circulant(identity, RngStream(1))
        assert relative_residual(recovered, np.eye(4)) <= 1e-12

    def test_random_large(self):
        op = random_structured("circulant", 1024, RngStream(2))
        oracle = oracle_for(op)
        recovered = recover_circulant(oracle, RngStream(3))
        truth = op.first_column
        err = np.linalg.norm(recovered.first_column - truth) / np.linalg.norm(truth)
        assert err <= 1e-10
        assert (oracle.forward_queries, oracle.transpose_queries) == (1, 0)

    def test_constant_probe_rejected(self):
        op = random_structured("circulant", 64, RngStream(4))
        oracle = oracle_for(op)
        with pytest.raises(ZeroFourierMode):
            recover_circulant(oracle, ConstantStream())
        assert oracle.forward_queries == 0  # rejected before spending a query


class TestColoring:
    def test_figure_case(self):
        assert np.array_equal(np.unique(banded_coloring(12, 2)), np.arange(5))

    def test_diagonal(self):
        assert np.array_equal(banded_coloring(9, 0), np.zeros(9))

    def test_capped_at_dimension(self):
        assert np.array_equal(banded_coloring(6, 5), np.arange(6))

    def test_disjoint_support(self):
        n, w = 23, 3
        color_of = banded_coloring(n, w)
        for color in range(2 * w + 1):
            cols = np.flatnonzero(color_of == color)
            for a, b in zip(cols, cols[1:]):
                assert b - a > 2 * w  # row supports [c-w, c+w] cannot overlap


class TestBanded:
    def test_figure_case_exact(self):
        op = random_structured("banded", 12, RngStream(5), bandwidth=2)
        oracle = oracle_for(op)
        recovered = recover_banded(oracle, 2)
        assert relative_residual(recovered, op.materialize()) == 0.0
        assert oracle.forward_queries == 5

    def test_diagonal_single_query(self):
        op = random_structured("banded", 10, RngStream(6), bandwidth=0)
        oracle = oracle_for(op)
        recovered = recover_banded(oracle, 0)
        assert relative_residual(recovered, op.materialize()) <= 1e-12
        assert oracle.forward_queries == 1

    def test_tridiagonal(self):
        op = random_structured("banded", 64, RngStream(7), bandwidth=1)
        oracle = oracle_for(op)
        recovered = recover_banded(oracle, 1)
        assert relative_residual(recovered, op.materialize()) <= 1e-12
        assert oracle.forward_queries == 3

    def test_overestimated_bandwidth_still_exact(self):
        op = random_structured("banded", 20, RngStream(8), bandwidth=1)
        oracle = oracle_for(op)
        recovered = recover_banded(oracle, 3)
        assert relative_residual(recovered, op.materialize()) <= 1e-12
        assert oracle.forward_queries == 7


class TestHodlr:
    def test_zero_matrix(self):
        oracle = oracle_for(DenseOperator(np.zeros((16, 16))))
        recovered = recover_hodlr(oracle, 1, 2, 3, stream=RngStream(0))
        assert relative_residual(recovered, np.zeros((16, 16))) <= 1e-12
        assert np.all(recovered.materialize() == 0.0)

    def test_small_instance(self):
        op = random_structured("hodlr", 8, RngStream(1), rank=1, levels=1)
        recovered = recover_hodlr(oracle_for(op), 1, 1, 3, stream=RngStream(2))
        assert relative_residual(recovered, op.materialize()) <= 1e-8

    def test_default_config_budget(self):
        op = random_structured("hodlr", 256, RngStream(3), rank=2, levels=6)
        oracle = oracle_for(op)
        recovered = recover_hodlr(oracle, 2, 6, 5, stream=RngStream(4))
        assert relative_residual(recovered, op.materialize()) <= 1e-8
        fwd, tr = hodlr_query_budget(256, 2, 6, 5)
        assert (oracle.forward_queries, oracle.transpose_queries) == (fwd, tr)
        assert oracle.forward_queries + oracle.transpose_queries <= 10 * 2 * 8

    def test_rank_deficit_detected(self):
        dense = RngStream(5).standard_normal((16, 16))
        with pytest.raises(RankDeficitError) as info:
            recover_hodlr(oracle_for(DenseOperator(dense)), 1, 1, 3, stream=RngStream(6))
        assert info.value.level == 1

    @pytest.mark.parametrize("planted, named", [
        ([("upper", 1)], "upper"),
        ([("lower", 1)], "lower"),
        ([("lower", 0), ("upper", 1)], "upper"),
    ])
    def test_rank_deficit_names_the_block(self, planted, named):
        """A rank-3 block in an otherwise rank-2 operator is named by level,
        pair and side; upper blocks are checked before lower ones."""
        stream = RngStream(11)
        factors = [stream.standard_normal((2, 1 << level, 64 >> level, 3)) for level in (1, 2, 3)]
        # a level's block 2i is pair i's upper block, block 2i + 1 its lower one
        planted_blocks = [2 * pair + (side == "lower") for side, pair in planted]
        unplanted = np.setdiff1d(np.arange(4), planted_blocks)
        for level, stacks in enumerate(factors, 1):
            blocks = unplanted if level == 2 else slice(None)
            stacks[:, blocks, :, 2] = 0.0  # rank 2 but for the planted blocks
        leaves = stream.standard_normal((8, 8, 8))
        # so the even blocks are the level's upper lane, the odd ones its lower lane
        lanes = [(c[lane::2], r[lane::2]) for c, r in factors for lane in (0, 1)]
        oracle = oracle_for(block_operator(64, 3, "weak", 3, lanes, [leaves]))
        with pytest.raises(RankDeficitError) as info:
            recover_hodlr(oracle, 2, 3, 3, stream=RngStream(13))
        pair = min(pair for side, pair in planted if side == named)
        assert (info.value.level, info.value.pair, info.value.side) == (2, pair, named)

    def test_overestimated_rank_still_exact(self):
        op = random_structured("hodlr", 64, RngStream(9), rank=1, levels=3)
        recovered = recover_hodlr(oracle_for(op), 3, 3, 5, stream=RngStream(10))
        assert relative_residual(recovered, op.materialize()) <= 1e-8

    def test_peeling_residual_per_level(self):
        op = random_structured("hodlr", 64, RngStream(7), rank=2, levels=3)
        dense = op.materialize()
        recovered = recover_hodlr(oracle_for(op), 2, 3, 5, stream=RngStream(8))
        remainder = dense.copy()
        for level in range(1, 4):
            level_lanes = [lane for lane in recovered.lanes if lane.level == level]
            for lane in level_lanes:
                for r0, c0, col_factor, row_factor_t in zip(
                    lane.row_starts, lane.col_starts, *lane.factors
                ):
                    remainder[r0:r0 + lane.size, c0:c0 + lane.size] -= col_factor @ row_factor_t
            # after subtracting levels 1..level, only block-diagonal content remains
            size = 64 >> level
            off = remainder.copy()
            for j in range(1 << level):
                off[j * size:(j + 1) * size, j * size:(j + 1) * size] = 0.0
            assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(dense)

    @pytest.mark.parametrize(
        "n, true_rank, block_rank, levels", [(8, 1, 1, 1), (64, 2, 2, 3), (64, 1, 3, 5), (256, 2, 4, 6)]
    )
    def test_blocks_follow_the_partition(self, n, true_rank, block_rank, levels):
        op = random_structured("hodlr", n, RngStream(n), rank=true_rank, levels=levels)
        recovered = recover_hodlr(oracle_for(op), block_rank, levels, 3, stream=RngStream(1))
        assert isinstance(recovered, BlockLowRankOperator)
        assert hodlr_layout(recovered) == expected_hodlr_layout(n, levels)
        # each lane's col_factors stack is (blocks, size, rank)
        assert all(lane.factors[0].shape[2] <= block_rank for lane in recovered.lanes)

    def test_parameter_validation(self):
        oracle = oracle_for(DenseOperator(np.zeros((16, 16))))
        with pytest.raises(ValueError):
            recover_hodlr(oracle, 4, 2, 5, stream=RngStream(0))  # k + p > n/2
        with pytest.raises(ValueError):
            recover_hodlr(oracle, 1, 5, 1, stream=RngStream(0))  # 2^levels > n

    @pytest.mark.parametrize("n, levels, block_rank, oversampling", [
        (32768, 9, 4, 5), (4096, 7, 4, 5), (256, 6, 2, 5),
        (1024, 3, 5, 0),  # no oversampling
        (64, 1, 3, 2),  # one level
        (128, 2, 20, 5), (2048, 4, 8, 3),
        (512, 8, 1, 1),  # one chunk spans each 2-wide leaf
        (64, 4, 6, 2),  # 4-wide leaves, narrower than the block rank
    ])
    def test_leaves_match_a_read_off_through_the_operator(self, n, levels, block_rank,
                                                          oversampling):
        """The leaves read off through the recovered factor rows equal, bit
        for bit, the oracle's response to each chunk of block-identity probes
        minus the recovered off-diagonal operator's apply to it; the queries
        are hodlr_query_budget's."""
        op = random_structured("hodlr", n, RngStream(n + levels),
                               rank=min(block_rank, n >> levels), levels=levels)
        oracle = oracle_for(op)
        recovered = recover_hodlr(oracle, block_rank, levels, oversampling, stream=RngStream(3))
        assert ((oracle.forward_queries, oracle.transpose_queries)
                == hodlr_query_budget(n, block_rank, levels, oversampling))
        full = BlockLowRankOperator(n, levels, "weak", block_rank, recovered.col_factors,
                                    recovered.row_factors)
        leaf, count, width = n >> levels, 1 << levels, block_rank + oversampling
        expected = np.empty((count, leaf, leaf))
        chunks = -(-leaf // width)
        for chunk in range(chunks):
            lo, hi = leaf * chunk // chunks, leaf * (chunk + 1) // chunks
            probe = np.zeros((count, leaf, hi - lo))
            probe[:, lo:hi] = np.eye(hi - lo)
            probe = probe.reshape(n, hi - lo)
            sketch = oracle.apply(probe) - full.apply(probe)
            expected[:, :, lo:hi] = sketch.reshape(count, leaf, hi - lo)
        assert np.array_equal(recovered.leaf_lanes[0].factors[0], expected)


class TestExactRecoveryAcrossSizes:
    """Seeded random instances of every kind recover to 1e-8 relative."""

    @pytest.mark.parametrize("kind", ["low-rank", "circulant", "banded", "hodlr"])
    def test_fifty_instances(self, kind):
        for seed in range(50):
            n = (16, 64, 256)[seed % 3]
            stream = RngStream(9000 + seed)
            probes = RngStream(500 + seed)
            if kind == "low-rank":
                rank = 1 + seed % 4
                op = random_structured(kind, n, stream, rank=rank)
                oracle = oracle_for(op)
                recovered = randomized_svd(oracle, rank, 5, stream=probes)
                assert (oracle.forward_queries, oracle.transpose_queries) == (rank + 5, rank + 5)
            elif kind == "circulant":
                op = random_structured(kind, n, stream)
                oracle = oracle_for(op)
                recovered = recover_circulant(oracle, probes)
                assert (oracle.forward_queries, oracle.transpose_queries) == (1, 0)
            elif kind == "banded":
                w = seed % 4
                op = random_structured(kind, n, stream, bandwidth=w)
                oracle = oracle_for(op)
                recovered = recover_banded(oracle, w)
                assert oracle.forward_queries == min(2 * w + 1, n)
            else:
                levels = 2 if n == 16 else 3
                rank = 1 + seed % 2
                op = random_structured(kind, n, stream, rank=rank, levels=levels)
                oracle = oracle_for(op)
                recovered = recover_hodlr(oracle, rank, levels, 5, stream=probes)
                fwd, tr = hodlr_query_budget(n, rank, levels, 5)
                assert (oracle.forward_queries, oracle.transpose_queries) == (fwd, tr)
            assert relative_residual(recovered, op.materialize()) <= 1e-8

    @pytest.mark.parametrize("algorithm, n, params, budget", [
        ("low-rank", 64, {"rank": 3}, (8, 8)),
        ("low-rank", 64, {"rank": 3, "oversampling": 0}, (3, 3)),
        ("circulant", 64, {}, (1, 0)),
        ("banded", 12, {"bandwidth": 2}, (5, 0)),
        ("banded", 4, {"bandwidth": 3}, (4, 0)),
        ("hodlr", 256, {"block_rank": 2, "levels": 6}, (88, 24)),
        ("hodlr", 64, {"block_rank": 2, "levels": 3, "oversampling": 1}, (26, 12)),
    ])
    def test_query_budget_states_each_algorithms_counts(self, algorithm, n, params, budget):
        """query_budget: rank + p each way for low-rank, one forward query
        for circulant, min(2w + 1, n) for banded, hodlr_query_budget's row."""
        assert query_budget(algorithm, n, params) == budget
        if algorithm == "hodlr":
            assert budget == hodlr_query_budget(n, params["block_rank"], params["levels"],
                                                params.get("oversampling", 5))

    def test_query_budget_refuses_an_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown recovery algorithm"):
            query_budget("dense", 64, {})


def column_read_off(oracle, n: int, w: int) -> np.ndarray:
    """Reference read-off of recover_banded's response, one column at a time."""
    color_of = banded_coloring(n, w)
    probe = np.zeros((n, min(2 * w + 1, n)))
    probe[np.arange(n), color_of] = 1.0
    response = oracle.apply(probe)
    diagonals = np.zeros((2 * w + 1, n))
    for col in range(n):
        rows = np.arange(max(0, col - w), min(n, col + w + 1))
        diagonals[w + col - rows, rows] = response[rows, color_of[col]]
    return diagonals


def assert_exact(recovered, dense):
    """The recovered operator matches the instance to 1e-8 relative, and
    relative_residual is that same relative Frobenius error."""
    error = np.linalg.norm(recovered.materialize() - dense)
    assert error <= 1e-8 * np.linalg.norm(dense)
    assert relative_residual(recovered, dense) == error / np.linalg.norm(dense)


@st.composite
def band_cases(draw):
    n = draw(st.integers(1, 48))
    return n, draw(st.integers(0, n - 1))


@st.composite
def hodlr_cases(draw):
    exponent = draw(st.integers(4, 7))  # n >= 16 keeps rank + 5 <= n/2
    return 2 ** exponent, draw(st.integers(1, 3)), draw(st.integers(1, exponent))


@st.composite
def low_rank_cases(draw):
    n = draw(st.integers(6, 64))  # rank + 5 <= n and rank < n
    return n, draw(st.integers(1, min(8, n - 5)))


class TestRecoveryProperties:
    """Exact recovery with exactly the documented query budget."""

    @settings(max_examples=60, deadline=None)
    @given(case=low_rank_cases(), seed=st.integers(0, 2 ** 31))
    @example(case=(6, 1), seed=0)
    @example(case=(13, 8), seed=1)
    def test_low_rank(self, case, seed):
        n, rank = case
        op = random_structured("low-rank", n, RngStream(seed), rank=rank)
        oracle = oracle_for(op)
        recovered = randomized_svd(oracle, rank, 5, stream=RngStream(seed + 1))
        assert (oracle.forward_queries, oracle.transpose_queries) == (rank + 5, rank + 5)
        assert relative_residual(recovered, op) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 128), seed=st.integers(0, 2 ** 31))
    @example(n=1, seed=0)
    @example(n=2, seed=1)
    def test_circulant(self, n, seed):
        op = random_structured("circulant", n, RngStream(seed))
        oracle = oracle_for(op)
        recovered = recover_circulant(oracle, RngStream(seed + 1))
        assert (oracle.forward_queries, oracle.transpose_queries) == (1, 0)
        assert relative_residual(recovered, op) <= 1e-8

    @settings(max_examples=80, deadline=None)
    @given(case=band_cases(), seed=st.integers(0, 2 ** 31))
    @example(case=(1, 0), seed=0)
    @example(case=(40, 0), seed=1)
    @example(case=(9, 4), seed=2)
    @example(case=(6, 5), seed=3)
    def test_banded(self, case, seed):
        n, w = case
        op = random_structured("banded", n, RngStream(seed), bandwidth=w)
        dense = op.materialize()
        oracle = oracle_for(op)
        recovered = recover_banded(oracle, w)
        assert (oracle.forward_queries, oracle.transpose_queries) == (min(2 * w + 1, n), 0)
        assert np.array_equal(recovered.diagonals, column_read_off(oracle_for(op), n, w))
        assert_exact(recovered, dense)

    @settings(max_examples=40, deadline=None)
    @given(case=hodlr_cases(), seed=st.integers(0, 2 ** 31))
    def test_hodlr(self, case, seed):
        n, rank, levels = case
        op = random_structured("hodlr", n, RngStream(seed), rank=rank, levels=levels)
        dense = op.materialize()
        oracle = oracle_for(op)
        recovered = recover_hodlr(oracle, rank, levels, stream=RngStream(seed + 1))
        budget = hodlr_query_budget(n, rank, levels)
        assert (oracle.forward_queries, oracle.transpose_queries) == budget
        assert_exact(recovered, dense)


class TestSlabResidual:
    """The residual matches the dense Frobenius computation, and the slab
    path keeps its memory O(256 n)."""

    @pytest.mark.parametrize("n, levels", [(512, 4), (1024, 5)])
    def test_hodlr_matches_dense_norm(self, n, levels):
        op = random_structured("hodlr", n, RngStream(n), rank=3, levels=levels)
        recovered = recover_hodlr(oracle_for(op), 3, levels, stream=RngStream(1))
        dense = op.materialize()
        expected = np.linalg.norm(recovered.materialize() - dense) / np.linalg.norm(dense)
        assert relative_residual(recovered, op) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, w", [(257, 3), (700, 0), (1100, 7)])
    def test_banded_matches_dense_norm(self, n, w):
        op = random_structured("banded", n, RngStream(n), bandwidth=w)
        # a perturbed reference, so the residual is not zero
        dense = op.materialize() + 1e-3 * RngStream(n + 1).standard_normal((n, n))
        recovered = recover_banded(oracle_for(op), w)
        expected = np.linalg.norm(recovered.materialize() - dense) / np.linalg.norm(dense)
        assert relative_residual(recovered, dense) == pytest.approx(expected, rel=1e-12)

    def test_operator_and_matrix_references_agree(self):
        """An operator reference is scored from its factors, a matrix one over
        slabs: both are at most 1e-12 at exact recovery, and with a
        perturbation planted in one leaf they agree to 1e-8 relative."""
        op = random_structured("hodlr", 512, RngStream(3), rank=2, levels=4)
        recovered = recover_hodlr(oracle_for(op), 2, 4, stream=RngStream(4))
        assert relative_residual(recovered, op) <= 1e-12
        assert relative_residual(recovered, op.materialize()) <= 1e-12
        recovered.leaf_lanes[0].factors[0][5, 1, 2] += 1e-3
        structural = relative_residual(recovered, op)
        assert structural == pytest.approx(relative_residual(recovered, op.materialize()),
                                           rel=1e-8, abs=0.0)

    def test_hodlr_4096_peak_memory(self):
        """Two dense 4096 x 4096 arrays would be 256 MB; the whole recovery,
        residual included, stays under 48 MB of traced allocations."""
        op = random_structured("hodlr", 4096, RngStream(11), rank=4, levels=7)
        tracemalloc.start()
        try:
            recovered = recover_hodlr(oracle_for(op), 4, 7, stream=RngStream(12))
            residual = relative_residual(recovered, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-10
        assert peak < 48 * 2 ** 20


def weak_copy(op, levels):
    """A weak block operator with copies of op's factor arrays and leaf stack."""
    return BlockLowRankOperator(op.n, levels, "weak", op.rank, op.col_factors.copy(),
                                op.row_factors.copy(), [op.leaf_lanes[0].factors[0].copy()])


@st.composite
def planted_cases(draw):
    """A random instance of one of the four recoverable kinds, its recovery
    through an oracle, and a copy of it with a perturbation planted in one
    factor entry, first-column entry, diagonal slot, block factor entry or
    leaf entry, with the perturbation's Frobenius norm."""
    kind = draw(st.sampled_from(["low-rank", "circulant", "banded", "hodlr"]))
    seed = draw(st.integers(0, 2 ** 31))
    delta = draw(st.sampled_from([1e-4, 1e-2, 1.0, -0.5]))
    stream, probes = RngStream(seed), RngStream(seed + 1)
    if kind == "low-rank":
        n, rank = draw(low_rank_cases())
        op = random_structured(kind, n, stream, rank=rank)
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, rank - 1))
        col_factor = op.col_factor.copy()
        col_factor[i, k] += delta
        planted = LowRankOperator(col_factor, op.row_factor.copy())
        norm = abs(delta) * np.linalg.norm(op.row_factor[k])
        recovered = randomized_svd(oracle_for(op), rank, 5, stream=probes)
    elif kind == "circulant":
        n = draw(st.integers(1, 128))
        op = random_structured(kind, n, stream)
        column = op.first_column.copy()
        column[draw(st.integers(0, n - 1))] += delta
        planted, norm = CirculantOperator(column), abs(delta) * np.sqrt(n)
        recovered = recover_circulant(oracle_for(op), probes)
    elif kind == "banded":
        n, w = draw(band_cases())
        op = random_structured(kind, n, stream, bandwidth=w)
        offset = draw(st.integers(-w, w))
        diagonals = op.diagonals.copy()
        diagonals[w + offset, draw(st.integers(max(0, -offset), n - 1 - max(0, offset)))] += delta
        planted, norm = BandedOperator(n, w, diagonals), abs(delta)
        recovered = recover_banded(oracle_for(op), w)
    else:
        n, rank, levels = draw(hodlr_cases())
        op = random_structured(kind, n, stream, rank=rank, levels=levels)
        planted = weak_copy(op, levels)
        if draw(st.booleans()):
            leaves = planted.leaf_lanes[0].factors[0]
            leaves[tuple(draw(st.integers(0, size - 1)) for size in leaves.shape)] += delta
            norm = abs(delta)
        else:
            lane = planted.lanes[draw(st.integers(0, len(planted.lanes) - 1))]
            col_factors, row_factors = lane.factors  # block b is col_factors[b] @ row_factors[b]
            b, i, k = (draw(st.integers(0, size - 1)) for size in col_factors.shape)
            col_factors[b, i, k] += delta
            norm = abs(delta) * np.linalg.norm(row_factors[b, k])
        recovered = recover_hodlr(oracle_for(op), rank, levels, stream=probes)
    return op, recovered, planted, norm


class TestStructuralResidual:
    """Same-type pairs are scored from their parameters, everything else over
    dense slabs, and the two agree."""

    @settings(max_examples=200, deadline=None)
    @given(case=planted_cases())
    def test_structural_and_slab_values_agree(self, case):
        op, recovered, planted, norm = case
        dense = op.materialize()
        assert relative_residual(recovered, op) <= 1e-12
        assert relative_residual(recovered, dense) <= 1e-12
        structural, slab = relative_residual(planted, op), relative_residual(planted, dense)
        assert structural == pytest.approx(slab, rel=1e-8, abs=0.0)
        assert structural == pytest.approx(norm / np.linalg.norm(dense), rel=1e-8, abs=0.0)

    @staticmethod
    def materialized(monkeypatch):
        """The operators whose dense columns relative_residual asks for."""
        seen = []
        materialize = StructuredOperator.materialize

        def spy(self, *args, **kwargs):
            seen.append(self)
            return materialize(self, *args, **kwargs)

        monkeypatch.setattr(StructuredOperator, "materialize", spy)
        return seen

    def test_same_type_pairs_build_no_dense_columns(self, monkeypatch):
        """Including zero references, whose residual is ||R||_F itself."""
        stream = RngStream(5)
        hodlr = random_structured("hodlr", 64, stream, rank=2, levels=3)
        zero_hodlr = weak_copy(hodlr, 3)
        for lane in zero_hodlr.lanes + zero_hodlr.leaf_lanes:
            lane.factors[0][...] = 0.0
        pairs = [(random_structured("low-rank", 40, stream, rank=3),
                  random_structured("low-rank", 40, stream, rank=5)),
                 (random_structured("low-rank", 40, stream, rank=3),
                  LowRankOperator(np.zeros((40, 2)), np.zeros((2, 40)))),
                 (random_structured("circulant", 40, stream),
                  random_structured("circulant", 40, stream)),
                 (random_structured("circulant", 40, stream), CirculantOperator(np.zeros(40))),
                 (random_structured("banded", 40, stream, bandwidth=2),
                  random_structured("banded", 40, stream, bandwidth=6)),
                 (random_structured("banded", 40, stream, bandwidth=6),
                  BandedOperator(40, 1, np.zeros((3, 40)))),
                 (hodlr, random_structured("hodlr", 64, stream, rank=3, levels=3)),
                 (hodlr, zero_hodlr)]
        expected = []
        for a, b in pairs:
            error, norm = np.linalg.norm(a.materialize() - b.materialize()), np.linalg.norm(b.materialize())
            expected.append(error / norm if norm else error)
        seen = self.materialized(monkeypatch)
        for (a, b), value in zip(pairs, expected):
            assert relative_residual(a, b) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert seen == []

    def test_other_pairs_take_the_slab_path(self, monkeypatch):
        stream = RngStream(6)
        hodlr = random_structured("hodlr", 64, stream, rank=2, levels=3)
        model = DenseKernelModel(Grid1D(64), stream.standard_normal((64, 64)))
        pairs = [
            (random_structured("low-rank", 40, stream, rank=3),
             random_structured("dense", 40, stream)),
            (random_structured("circulant", 40, stream),
             random_structured("banded", 40, stream, bandwidth=3)),
            (random_structured("hodlr", 64, stream, rank=2, levels=2), hodlr),
            (hierarchical_decompose(model, 3, 2).operator, hodlr),
            # as many low-rank lanes as a weak L=4 partition, over other blocks
            (hierarchical_decompose(model, 3, 2).operator,
             random_structured("hodlr", 64, stream, rank=2, levels=4)),
            # the coarser levels only, as peeling holds them before the leaves
            (BlockLowRankOperator(64, 3, "weak", 2, hodlr.col_factors[:, :4],
                                  hodlr.row_factors[:, :4]), hodlr),
            (hodlr, DenseOperator(hodlr.materialize() + np.eye(64))),
        ]
        expected = [np.linalg.norm(a.materialize() - b.materialize()) / np.linalg.norm(b.materialize())
                    for a, b in pairs]
        pairs.append((hodlr, hodlr.materialize() + np.eye(64)))
        expected.append(expected[-1])
        seen = self.materialized(monkeypatch)
        for (a, b), value in zip(pairs, expected):
            seen.clear()
            assert relative_residual(a, b) == pytest.approx(value, rel=1e-12, abs=0.0)
            assert any(op is a for op in seen)


def test_recovery_memory_is_the_result_storage():
    """The recovered factors and leaves are filled in place: the traced peak
    stays within 1.75x their bytes, and no second copy outlives the call."""
    op = random_structured("hodlr", 8192, RngStream(13), rank=4, levels=7)
    oracle = oracle_for(op)
    tracemalloc.start()
    try:
        recovered = recover_hodlr(oracle, 4, 7, stream=RngStream(14))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(stack.nbytes for lane in recovered.lanes + recovered.leaf_lanes
              for stack in lane.factors)
    assert peak <= 1.75 * own
    assert kept <= 1.1 * own


def test_readme_example_runs(capsys):
    """The README's Python example runs against the public API and prints the
    documented budget and an exact recovery."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(blocks[0], {})
    forward, transpose, residual = capsys.readouterr().out.split()
    assert (int(forward), int(transpose)) == hodlr_query_budget(256, 2, 6, 5)
    assert float(residual) <= 1e-8
