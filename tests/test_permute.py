import itertools
from math import factorial

import numpy as np
import pytest

import nm_sparse_kit.permute as permute
import nm_sparse_kit.tensorops as tensorops
from nm_sparse_kit.experiment import csv_row
from nm_sparse_kit.masks import forward_mask
from nm_sparse_kit.permute import (
    brute_force_best_permutation,
    check_permutation,
    count_eligible_blocks,
    identity_permutation,
    search_permutation,
)
from nm_sparse_kit.tensorops import NmPattern

P24 = NmPattern(2, 4)


def eligible_by_hand(masked_w, pattern):
    n, m = pattern.n, pattern.m
    rows, cols = masked_w.shape
    eligible = total = 0
    for j in range(cols):
        for i in range(0, rows, m):
            total += 1
            if np.count_nonzero(masked_w[i : i + m, j]) <= n:
                eligible += 1
    return eligible, total


def ineligible_by_hand(masked_w, perm, pattern):
    n, m = pattern.n, pattern.m
    nz = (masked_w[perm] != 0).reshape(masked_w.shape[0] // m, m, -1).sum(axis=1)
    return int((nz > n).sum())


def sequential_search(masked_w, pattern, k, current, seed):
    """One candidate at a time: the incumbent, then k rng.permutation draws,
    replaced only on a strictly higher eligible count."""
    rows = masked_w.shape[0]
    rng = np.random.default_rng(seed)
    best = current
    best_over = ineligible_by_hand(masked_w, current, pattern)
    for _ in range(k):
        cand = rng.permutation(rows)
        over = ineligible_by_hand(masked_w, cand, pattern)
        if over < best_over:
            best, best_over = cand, over
    return best, best_over


def lexicographic_oracle(masked_w, pattern):
    """First permutation in lexicographic order with the fewest ineligible blocks."""
    best, best_over = None, None
    for p in itertools.permutations(range(masked_w.shape[0])):
        over = ineligible_by_hand(masked_w, np.array(p), pattern)
        if best_over is None or over < best_over:
            best, best_over = np.array(p), over
    return best, best_over


def tie_heavy_matrices(rng, rows, cols):
    """Zero, rounded (tie-heavy), all-identical-row and duplicated-row inputs."""
    yield np.zeros((rows, cols))
    yield np.round(rng.normal(size=(rows, cols))) * (rng.random((rows, cols)) < 0.5)
    yield np.tile(rng.normal(size=(1, cols)) * (rng.random((1, cols)) < 0.5), (rows, 1))
    half = np.round(rng.normal(size=(-(-rows // 2), cols)))
    yield np.concatenate([half, half])[:rows]


class TestCountEligibleBlocks:
    def test_zero_matrix_all_eligible(self):
        assert count_eligible_blocks(np.zeros((8, 3)), P24) == (6, 6)

    def test_three_nonzeros_ineligible(self):
        col = np.array([[1.0], [1.0], [1.0], [0.0]])
        assert count_eligible_blocks(col, P24) == (0, 1)

    def test_matches_hand_count_on_random_sparse(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = rng.normal(size=(8, 8)) * (rng.random(size=(8, 8)) < 0.4)
            assert count_eligible_blocks(w, P24) == eligible_by_hand(w, P24)

    def test_invariant_under_column_permutation(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(8, 8)) * (rng.random(size=(8, 8)) < 0.5)
        base = count_eligible_blocks(w, P24)
        for _ in range(10):
            assert count_eligible_blocks(w[:, rng.permutation(8)], P24) == base

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            count_eligible_blocks(np.zeros((6, 4)), P24)


class TestPackedScorer:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16])
    def test_packed_counts_match_naive_counts(self, m):
        rng = np.random.default_rng(70 + m)
        for cols in (1, 63, 64, 65, 130):
            # m - 2 and m - 1 start plane n at the block's last rows; n = m never reaches it
            for n in sorted({n for n in (1, m // 2, m - 2, m - 1, m) if n >= 1}):
                rows = m * int(rng.integers(1, 4))
                density = rng.uniform(0.1, 0.9)
                w = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
                perms = np.array([rng.permutation(rows) for _ in range(9)])
                got = permute._ineligible_counts(permute._pack_nonzeros(w), perms, n, m)
                pattern = NmPattern(n, m)
                assert got.tolist() == [ineligible_by_hand(w, p, pattern) for p in perms]

    def test_all_zero_matrix_has_no_ineligible_block(self):
        perms = np.array([np.arange(16), np.arange(16)[::-1]])
        packed = permute._pack_nonzeros(np.zeros((16, 70)))
        assert permute._ineligible_counts(packed, perms, 1, 16).tolist() == [0, 0]

    def test_n_equal_m_is_always_eligible(self):
        w = np.ones((8, 100))
        report = search_permutation(w, NmPattern(4, 4), k=5, seed=0)
        assert report.eligible_blocks == report.total_blocks == 200

    @pytest.mark.parametrize("shape, pattern", [((16, 70), NmPattern(2, 4)), ((32, 33), NmPattern(1, 16)), ((24, 130), NmPattern(3, 8))])
    def test_search_matches_sequential_oracle(self, shape, pattern):
        rng = np.random.default_rng(80)
        for seed in range(8):
            w = rng.normal(size=shape) * (rng.random(shape) < rng.uniform(0.1, 0.6))
            current = rng.permutation(shape[0]) if seed % 2 else np.arange(shape[0])
            report = search_permutation(w, pattern, k=30, current=current, seed=seed)
            best, best_over = sequential_search(w, pattern, 30, current, seed)
            assert np.array_equal(report.chosen, best)
            assert report.eligible_blocks == report.total_blocks - best_over

    def test_batch_boundaries_keep_the_tie_rule(self, monkeypatch):
        rng = np.random.default_rng(90)
        w = np.round(rng.normal(size=(8, 12))) * (rng.random((8, 12)) < 0.5)
        small = w[:6]
        whole = search_permutation(w, P24, k=40, seed=3)
        exact = brute_force_best_permutation(small, NmPattern(2, 3))
        # two blocks of one word each: batches of 7 candidates
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", 14)
        batched = search_permutation(w, P24, k=40, seed=3)
        assert np.array_equal(batched.chosen, whole.chosen)
        assert batched.eligible_blocks == whole.eligible_blocks
        brute = brute_force_best_permutation(small, NmPattern(2, 3))
        assert np.array_equal(brute.chosen, exact.chosen)
        assert brute.eligible_blocks == exact.eligible_blocks


class TestCandidateBatches:
    @pytest.mark.parametrize("rows", [8, 16, 64, 256, 512])
    def test_batched_draws_repeat_the_permutation_stream(self, rows):
        # rng.permuted over tiled rows consumes the generator exactly as
        # successive rng.permutation calls do, wherever the batches split
        sequential = np.random.default_rng(rows)
        expected = np.array([sequential.permutation(rows) for _ in range(12)])
        for split in ([12], [1, 11], [5, 7], [3, 3, 3, 3]):
            rng = np.random.default_rng(rows)
            draws = [rng.permuted(np.tile(np.arange(rows), (c, 1)), axis=1) for c in split]
            assert np.array_equal(np.concatenate(draws), expected)

    @pytest.mark.parametrize("plane_words", [8, 16, 24, 56, 1 << 15])
    def test_search_matches_sequential_oracle_at_any_batch_size(self, monkeypatch, plane_words):
        # 16 x 70 at 2:4 is 4 blocks of 2 words per candidate: batches of 1, 2, 3, 7 or all
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", plane_words)
        rng = np.random.default_rng(91)
        for seed in range(6):
            w = np.round(rng.normal(size=(16, 70))) * (rng.random((16, 70)) < 0.4)
            current = rng.permutation(16) if seed % 2 else np.arange(16)
            report = search_permutation(w, P24, k=23, current=current, seed=seed)
            best, best_over = sequential_search(w, P24, 23, current, seed)
            assert np.array_equal(report.chosen, best)
            assert report.eligible_blocks == report.total_blocks - best_over
            assert report.candidates_evaluated == 24


class TestCheckPermutation:
    def test_identity(self):
        assert np.array_equal(identity_permutation(4), [0, 1, 2, 3])
        assert np.array_equal(check_permutation([2, 0, 1], 3), [2, 0, 1])

    @pytest.mark.parametrize(
        "bad",
        [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4], [0, 1.5, 2, 3], [-1, 0, 1, 2], ["0", "1", "2", "3"],
         [3, 2, 1.0, 0], [True, False, True, False], np.array([0, 2**63, 1, 2], dtype=np.uint64)],
    )
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError, match=r"not a permutation of 4 row indices"):
            check_permutation(bad, 4)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_accepts_any_integer_dtype(self, dtype):
        p = check_permutation(np.array([3, 0, 2, 1], dtype=dtype), 4)
        assert p.dtype == np.int64 and p.tolist() == [3, 0, 2, 1]


class TestSearchPermutation:
    def test_already_maximal_matrix(self):
        rng = np.random.default_rng(10)
        # at most two non-zeros in every column block by construction
        w = np.zeros((8, 4))
        w[0:2, :] = rng.normal(size=(2, 4))
        w[4:6, :] = rng.normal(size=(2, 4))
        report = search_permutation(w, P24, k=20, seed=0)
        assert report.eligible_blocks == report.total_blocks

    def test_never_worse_than_incumbent(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            w = rng.normal(size=(8, 8)) * (rng.random(size=(8, 8)) < 0.5)
            current = rng.permutation(8)
            base = count_eligible_blocks(w[current], P24)[0]
            report = search_permutation(w, P24, k=5, current=current, seed=trial)
            assert report.eligible_blocks >= base

    def test_incumbent_kept_on_ties(self):
        # all rows identical: every permutation ties, incumbent must survive
        w = np.tile(np.array([[1.0, 0.0, 2.0, 0.0]]), (4, 1))
        current = np.array([3, 1, 0, 2])
        report = search_permutation(w, P24, k=10, current=current, seed=1)
        assert np.array_equal(report.chosen, current)

    def test_candidates_evaluated_and_elapsed(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        report = search_permutation(w, P24, k=7, seed=3)
        assert report.candidates_evaluated == 8
        assert report.elapsed >= 0.0
        assert report.eligible_blocks <= report.total_blocks

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k"):
            search_permutation(np.zeros((4, 4)), P24, k=0)

    def test_exhaustive_seeding_matches_brute_force(self):
        rng = np.random.default_rng(40)
        cases = []
        for _ in range(10):
            masked = forward_mask(rng.normal(size=(4, 8)), P24).apply(rng.normal(size=(4, 8)))
            cases.append((masked, P24))
        for m in (2, 3, 4):
            for rows in range(m, permute.BRUTE_FORCE_MAX_ROWS + 1, m):
                for w in tie_heavy_matrices(rng, rows, 5):
                    cases += [(w, NmPattern(n, m)) for n in range(1, m)]
        for masked, pattern in cases:
            rows = masked.shape[0]
            exhaustive = search_permutation(masked, pattern, k=factorial(rows), seed=0)
            oracle = brute_force_best_permutation(masked, pattern)
            assert np.array_equal(exhaustive.chosen, oracle.chosen)
            assert exhaustive.eligible_blocks == oracle.eligible_blocks
            assert exhaustive.total_blocks == oracle.total_blocks
            assert exhaustive.candidates_evaluated == oracle.candidates_evaluated == factorial(rows)
            if rows <= 6:
                best, best_over = lexicographic_oracle(masked, pattern)
                assert np.array_equal(oracle.chosen, best)
                assert oracle.eligible_blocks == oracle.total_blocks - best_over

    def test_deterministic_given_seed(self):
        w = np.random.default_rng(1).normal(size=(8, 8)) * 0.5
        a = search_permutation(w, P24, k=25, seed=77)
        b = search_permutation(w, P24, k=25, seed=77)
        assert np.array_equal(a.chosen, b.chosen)
        assert a.eligible_blocks == b.eligible_blocks


class TestBruteForce:
    def test_zero_matrix(self):
        report = brute_force_best_permutation(np.zeros((4, 4)), P24)
        assert report.eligible_blocks == report.total_blocks == 4
        assert report.candidates_evaluated == factorial(4)

    def test_exhaustive_enumeration_verified_by_hand(self):
        rng = np.random.default_rng(50)
        w = rng.normal(size=(4, 2)) * (rng.random(size=(4, 2)) < 0.6)
        report = brute_force_best_permutation(w, P24)
        best = max(
            count_eligible_blocks(w[np.array(p)], P24)[0]
            for p in itertools.permutations(range(4))
        )
        assert report.eligible_blocks == best

    def test_identical_rows_return_first_permutation(self):
        w = np.tile(np.array([[1.0, 2.0, 0.0, 0.0]]), (4, 1))
        report = brute_force_best_permutation(w, P24)
        assert np.array_equal(report.chosen, [0, 1, 2, 3])

    def test_guard_above_eight_rows(self):
        with pytest.raises(ValueError, match="feasible"):
            brute_force_best_permutation(np.zeros((12, 4)), P24)

    def test_csv_row_shape(self):
        report = brute_force_best_permutation(np.zeros((4, 1)), P24)
        fields = csv_row(report).split(",")
        assert len(fields) == 5
        assert fields[0] == "1" and fields[1] == "1"
