import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment, linprog

from nm_sparse_kit import masks, permute, tensorops
from nm_sparse_kit.masks import (
    BinarizationCriterion,
    Mask,
    MaskDirection,
    MaskFamily,
    TransposableMethod,
    backward_mask,
    forward_mask,
    format_mask,
    kept_magnitude,
    load_mask,
    mask_diversity,
    parse_mask,
    save_mask,
    tile_kept_magnitudes,
    transposable_mask,
    validate_mask,
)
from nm_sparse_kit.masks import (
    _backward_mask,
    _exact_tiles,
    _forward_mask,
    _greedy_scan,
    _greedy_tiles,
    _sampling_keys,
    _scan_tables,
    _top_n,
    _top_n_ranks,
    _top_one,
    _transposable_count_dp,
    _transposable_mask,
)
from nm_sparse_kit.permute import _count_eligible, count_eligible_blocks
from nm_sparse_kit.tensorops import NmPattern

P24 = NmPattern(2, 4)
P14 = NmPattern(1, 4)


def block_ones_ok(bits, pattern, direction):
    """Count block budgets by hand, independent of validate_mask."""
    n, m = pattern.n, pattern.m
    rows, cols = bits.shape
    if direction in ("row", "both"):
        for i in range(rows):
            for j in range(0, cols, m):
                if bits[i, j : j + m].sum() > n:
                    return False
    if direction in ("col", "both"):
        for j in range(cols):
            for i in range(0, rows, m):
                if bits[i : i + m, j].sum() > n:
                    return False
    return True


class TestForwardMask:
    def test_direct_top2(self):
        mask = forward_mask(np.array([[0.1, -0.5, 0.3, 0.2]]), P24)
        assert mask.bits.tolist() == [[0, 1, 1, 0]]

    def test_all_tie_keeps_lowest_indices(self):
        mask = forward_mask(np.zeros((1, 4)), P24)
        assert mask.bits.tolist() == [[1, 1, 0, 0]]

    def test_against_per_block_argmax_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(8, 8))
        mask = forward_mask(w, P14)
        for i in range(8):
            for b in range(2):
                block = np.abs(w[i, b * 4 : (b + 1) * 4])
                expected = np.zeros(4, dtype=np.uint8)
                expected[int(np.argmax(block))] = 1
                assert mask.bits[i, b * 4 : (b + 1) * 4].tolist() == expected.tolist()

    def test_exactly_n_per_block(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(12, 16))
        mask = forward_mask(w, P24)
        sums = mask.bits.reshape(12, 4, 4).sum(axis=2)
        assert (sums == 2).all()

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError, match="cols.*divisible"):
            forward_mask(np.zeros((2, 6)), P24)

    def test_validity_over_random_trials(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pattern = [P14, P24, NmPattern(2, 8), NmPattern(4, 8)][rng.integers(4)]
            rows = int(rng.integers(1, 5))
            cols = pattern.m * int(rng.integers(1, 4))
            mask = forward_mask(rng.normal(size=(rows, cols)), pattern)
            assert validate_mask(mask) == []
            assert block_ones_ok(mask.bits, pattern, "row")

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(33)
        w = rng.normal(size=(6, 8))
        base = forward_mask(w, P24).bits
        for scale in (2.0, 0.5, 3.7, 1e6):
            assert np.array_equal(forward_mask(scale * w, P24).bits, base)


def top_n_threshold(block, n):
    """The n-th largest value of ``block`` under descending sort, ties counted."""
    return float(np.sort(np.ravel(block))[::-1][n - 1])


def eligible_everywhere_weights(rng, rows, cols, pattern):
    """Weights whose forward mask support is N-regular per tile, so every
    column block of the masked matrix is already eligible."""
    n, m = pattern.n, pattern.m
    support = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for b in range(cols // m):
            for k in range(n):
                support[i, b * m + (i + k) % m] = 1
    strong = rng.uniform(1.0, 2.0, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    weak = rng.uniform(0.01, 0.1, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    return np.where(support == 1, strong, weak)


class TestBackwardMask:
    def test_column_block_top2(self):
        w = np.array(
            [
                [0.9, 0.05, 0.5, 0.01],
                [0.8, 0.6, 0.01, 0.02],
                [0.1, 0.3, 0.02, 0.01],
                [0.0, 0.7, 0.6, 0.01],
            ]
        )
        fwd = forward_mask(w, P24)
        assert fwd.bits[:, 0].tolist() == [1, 1, 1, 0]
        bwd = backward_mask(w, fwd, None, P24)
        assert bwd.bits[:, 0].tolist() == [1, 1, 0, 0]

    def test_eligible_blocks_reproduce_forward(self):
        rng = np.random.default_rng(3)
        w = eligible_everywhere_weights(rng, 8, 8, P24)
        fwd = forward_mask(w, P24)
        bwd = backward_mask(w, fwd, None, P24)
        assert np.array_equal(bwd.bits, fwd.bits)

    def test_eligible_blocks_reproduce_forward_under_block_permutation(self):
        # permuting whole row blocks preserves eligibility
        rng = np.random.default_rng(4)
        w = eligible_everywhere_weights(rng, 8, 8, P24)
        fwd = forward_mask(w, P24)
        perm = np.concatenate([np.arange(4, 8), np.arange(0, 4)])
        bwd = backward_mask(w, fwd, perm, P24)
        assert np.array_equal(bwd.bits, fwd.bits[perm])

    def test_contract_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.normal(size=(8, 4))
            fwd = forward_mask(w, P24)
            perm = rng.permutation(8)
            bwd = backward_mask(w, fwd, perm, P24)
            fwd_perm = fwd.bits[perm]
            masked = np.abs(fwd_perm * w[perm])
            assert block_ones_ok(bwd.bits, P24, "col")
            assert (bwd.bits <= fwd_perm).all()
            for j in range(4):
                for bi in range(0, 8, 4):
                    vals = masked[bi : bi + 4, j]
                    thr = top_n_threshold(vals, 2)
                    for r in range(4):
                        if bwd.bits[bi + r, j]:
                            assert vals[r] >= thr
                        if vals[r] > thr and fwd_perm[bi + r, j]:
                            assert bwd.bits[bi + r, j] == 1

    @pytest.mark.parametrize(
        "criterion",
        [
            BinarizationCriterion.WEIGHT_MAGNITUDE,
            BinarizationCriterion.GRADIENT_MAGNITUDE,
            BinarizationCriterion.MULTINOMIAL_SAMPLING,
            BinarizationCriterion.RANDOM,
        ],
    )
    def test_subset_of_permuted_forward_for_all_criteria(self, criterion):
        # 250 trials x 4 criteria = 1000 random instances
        rng = np.random.default_rng(12)
        for trial in range(250):
            w = rng.normal(size=(8, 8))
            fwd = forward_mask(w, P24)
            perm = rng.permutation(8)
            bwd = backward_mask(
                w,
                fwd,
                perm,
                P24,
                criterion,
                gradient=rng.normal(size=(8, 8)),
                seed=trial,
            )
            assert (bwd.bits <= fwd.bits[perm]).all()
            assert validate_mask(bwd) == []

    def test_sampling_criteria_are_seed_deterministic(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(8, 8))
        fwd = forward_mask(w, P24)
        kw = dict(criterion=BinarizationCriterion.MULTINOMIAL_SAMPLING, seed=99)
        a = backward_mask(w, fwd, None, P24, **kw)
        b = backward_mask(w, fwd, None, P24, **kw)
        assert np.array_equal(a.bits, b.bits)

    @pytest.mark.parametrize(
        "criterion",
        [BinarizationCriterion.MULTINOMIAL_SAMPLING, BinarizationCriterion.RANDOM],
        ids=lambda c: c.value,
    )
    def test_needs_seed_for_sampling(self, criterion):
        w = np.random.default_rng(0).normal(size=(4, 4))
        fwd = forward_mask(w, P24)
        with pytest.raises(ValueError, match=f"^{criterion.value} criterion needs an explicit seed$"):
            backward_mask(w, fwd, None, P24, criterion)

    @pytest.mark.parametrize("criterion", list(BinarizationCriterion), ids=lambda c: c.value)
    def test_criterion_given_by_its_value(self, criterion):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(8, 8))
        fwd, perm, kw = forward_mask(w, P24), rng.permutation(8), dict(gradient=rng.normal(size=(8, 8)), seed=5)
        member = backward_mask(w, fwd, perm, P24, criterion, **kw)
        assert np.array_equal(backward_mask(w, fwd, perm, P24, criterion.value, **kw).bits, member.bits)
        if criterion in masks.SEEDED_CRITERIA:  # a value still meets the seed check
            with pytest.raises(ValueError, match=f"^{criterion.value} criterion needs an explicit seed$"):
                backward_mask(w, fwd, perm, P24, criterion.value)

    def test_gradient_criterion_needs_gradient(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        fwd = forward_mask(w, P24)
        with pytest.raises(ValueError, match="gradient"):
            backward_mask(w, fwd, None, P24, BinarizationCriterion.GRADIENT_MAGNITUDE)

    def test_invalid_permutation_rejected(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        fwd = forward_mask(w, P24)
        with pytest.raises(ValueError, match="permutation"):
            backward_mask(w, fwd, [0, 0, 1, 2], P24)

    def test_rows_divisibility_rejected(self):
        w = np.random.default_rng(0).normal(size=(6, 4))
        fwd = forward_mask(w, P24)
        with pytest.raises(ValueError, match="rows.*divisible"):
            backward_mask(w, fwd, None, P24)


def top_n_sort_oracle(keys, n):
    """First n positions of a stable descending sort of each row of (blocks, m) keys."""
    order = np.argsort(-keys, axis=1, kind="stable")
    bits = np.zeros(keys.shape, dtype=np.uint8)
    np.put_along_axis(bits, order[:, :n], 1, axis=1)
    return bits


def forward_sort_oracle(w, pattern):
    n, m = pattern.n, pattern.m
    rows, cols = w.shape
    return top_n_sort_oracle(np.abs(w).reshape(rows * cols // m, m), n).reshape(rows, cols)


def column_block_sort_oracle(keys, n, m):
    """Stable descending sort down every column block of m rows."""
    rows, cols = keys.shape
    order = np.argsort(-keys.reshape(rows // m, m, cols), axis=1, kind="stable")
    sel = np.zeros((rows // m, m, cols), dtype=np.uint8)
    np.put_along_axis(sel, order[:, :n, :], 1, axis=1)
    return sel.reshape(rows, cols)


def slot_major(a, m):
    """(rows, cols) in row order as the (m, blocks, cols) layout backward_mask ranks."""
    rows, cols = a.shape
    return np.ascontiguousarray(a.reshape(rows // m, m, cols).swapaxes(0, 1))


def row_order(slots):
    m, blocks, cols = slots.shape
    return slots.swapaxes(0, 1).reshape(blocks * m, cols)


def column_block_top_n(keys, n, m):
    """backward_mask's top-N of (rows, cols) keys, through the slot-major layout."""
    return row_order(_top_n(slot_major(keys, m), n))


def sampling_keys(stat, m, rng):
    """_sampling_keys of a (rows, cols) statistic, in row order."""
    return row_order(_sampling_keys(slot_major(stat, m), rng))


def criterion_keys(w, fwd, perm, pattern, criterion, gradient, seed):
    """The selection statistic backward_mask ranks, for each criterion."""
    fwd_perm = fwd.bits[perm]
    if criterion is BinarizationCriterion.WEIGHT_MAGNITUDE:
        return np.abs(fwd_perm * w[perm])
    if criterion is BinarizationCriterion.GRADIENT_MAGNITUDE:
        return np.abs(fwd_perm * gradient[perm])
    if criterion is BinarizationCriterion.MULTINOMIAL_SAMPLING:
        return sampling_keys(np.abs(fwd_perm * w[perm]), pattern.m, np.random.default_rng(seed))
    return np.random.default_rng(seed).random(w.shape)


def normalized_sampling_keys(stat, m, rng):
    """log(x / total) + Gumbel keys of a (rows, cols) statistic, in row order.

    The textbook Gumbel-top-k keys divide each column block by its total. A
    block whose total overflows is divided by its maximum first, and an entry
    whose share underflows to zero takes log(x) - log(scale) - log(total / scale)
    in place of log(0). The draws are those of ``_sampling_keys``. Adding
    -log(total) to a whole block cannot change its top N, so wherever every
    share is normal or underflows to zero these keys select what
    ``_sampling_keys`` selects.
    """
    rows, cols = stat.shape
    blocked = stat.reshape(rows // m, m, cols)
    with np.errstate(over="ignore"):
        overflows = np.isinf(blocked.sum(axis=1, keepdims=True))
    scale = np.where(overflows, blocked.max(axis=1, keepdims=True), 1.0)
    totals = (blocked / scale).sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = blocked / scale / totals
        logp = np.where(share > 0, np.log(share), np.log(blocked) - np.log(scale) - np.log(totals))
        gumbel = -np.log(-np.log(rng.random(blocked.shape)))
    keys = np.where(blocked > 0, logp + gumbel, -1e12 + rng.random(blocked.shape))
    return keys.reshape(rows, cols)


# both sides of the top-N kernel choice: one argmax at 1:M, pairwise ranks otherwise,
# (M-1):M and M:M included
KERNEL_PATTERNS = [
    NmPattern.parse(p)
    for p in ("1:4", "2:4", "3:4", "4:4", "1:8", "2:8", "3:8", "4:8", "6:8", "1:16", "8:16", "16:16")
]
NEAR_MAX = 1.7e308


def kernel_cases(pattern, seed):
    """Weights with ties, zero and constant blocks, and extreme magnitudes.

    In the 1e300 / 1e-320 mix a tiny entry's share of its column block
    underflows to zero.
    """
    m = pattern.m
    rng = np.random.default_rng(seed)
    for grid in [(1, 1), (2, 3), (3, 1)]:
        shape = (grid[0] * m, grid[1] * m)
        w = rng.normal(size=shape)
        yield w
        yield np.round(w)
        yield rng.integers(-2, 3, size=shape).astype(np.float64)
        zeros = w.copy()
        zeros[:m, :m] = 0.0
        yield zeros
        const = w.copy()
        const[-m:, -m:] = -0.75
        yield const
        yield np.full(shape, 3.0)
        yield w * 1e300
        yield w * 1e-300
        yield rng.uniform(0.5, 1.0, size=shape) * NEAR_MAX * np.sign(w)
        yield np.where(rng.random(shape) < 0.5, 1e300, 1e-320) * np.sign(w)


class TestTopNKernel:
    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=str)
    def test_forward_matches_stable_sort(self, pattern):
        for w in kernel_cases(pattern, seed=pattern.m * 10 + pattern.n):
            assert np.array_equal(forward_mask(w, pattern).bits, forward_sort_oracle(w, pattern))

    @pytest.mark.parametrize("criterion", list(BinarizationCriterion), ids=lambda c: c.value)
    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=str)
    def test_backward_matches_stable_sort(self, pattern, criterion):
        n, m = pattern.n, pattern.m
        rng = np.random.default_rng(pattern.m * 10 + pattern.n + 1)
        for trial, w in enumerate(kernel_cases(pattern, seed=pattern.m * 10 + pattern.n + 2)):
            fwd = forward_mask(w, pattern)
            perm = rng.permutation(w.shape[0])
            gradient = np.round(rng.normal(size=w.shape)) * 10.0 ** rng.choice([-300, 0, 300])
            bwd = backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=trial)
            keys = criterion_keys(w, fwd, perm, pattern, criterion, gradient, trial)
            assert np.array_equal(bwd.bits, column_block_sort_oracle(keys, n, m) * fwd.bits[perm])

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16])
    def test_keys_with_infinities_and_signed_zeros(self, m):
        # -inf keys must never let a taken slot be picked twice; the ranks
        # are checked at every n, not only where _top_n sends them, and
        # _top_one at n = 1, on a copy and on a transposed view
        rng = np.random.default_rng(100 + m)
        values = [-np.inf, -1e308, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1.0, np.inf]
        for n in range(0, m + 1):
            for _ in range(20):
                keys = rng.choice(values, size=(9, m))
                keys[rng.random((9, m)) < 0.3] = -np.inf
                keys[0] = -np.inf
                expected = top_n_sort_oracle(keys, n)
                if n == 1:
                    assert np.array_equal(_top_one(keys.T.copy()).T, expected)
                    assert np.array_equal(_top_one(keys.T).T, expected)
                assert np.array_equal(_top_n_ranks(keys.T.copy(), n).T, expected)
                assert np.array_equal(_top_n(keys.T.copy(), n).T, expected)
                assert np.array_equal(
                    column_block_top_n(keys.T.copy(), n, m), column_block_sort_oracle(keys.T, n, m)
                )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_both_kernels_match_stable_sort(self, data):
        m = data.draw(st.integers(2, 16))
        n = data.draw(st.integers(0, m))
        values = st.sampled_from([-np.inf, np.inf, -1e308, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1e308])
        keys = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), m), elements=values))
        expected = top_n_sort_oracle(keys, n)
        assert np.array_equal(_top_n_ranks(keys.T.copy(), n).T, expected)
        assert np.array_equal(_top_n(keys.T.copy(), n).T, expected)
        # _top_one, which serves n = 1 only, runs on every example
        expected = top_n_sort_oracle(keys, 1)
        assert np.array_equal(_top_one(keys.T.copy()).T, expected)
        assert np.array_equal(_top_one(keys.T).T, expected)
        assert np.array_equal(column_block_top_n(keys.T.copy(), 1, m), column_block_sort_oracle(keys.T, 1, m))

    def test_top_n_sends_exactly_the_n1_patterns_to_the_argmax(self, monkeypatch):
        used = []
        monkeypatch.setattr(masks, "_top_one", lambda keys: used.append("argmax") or _top_one(keys))
        monkeypatch.setattr(masks, "_top_n_ranks", lambda keys, n: used.append("ranks") or _top_n_ranks(keys, n))
        rng = np.random.default_rng(7)
        for m in range(2, 17):
            for n in range(1, m + 1):
                pattern = NmPattern(n, m)
                w = rng.normal(size=(m, 2 * m))
                used.clear()
                backward_mask(w, forward_mask(w, pattern), None, pattern)
                assert used == ["argmax" if n == 1 else "ranks"] * 2, pattern

    def test_ranks_need_a_wide_enough_counter(self):
        # at M = 258 a rank reaches 257, which does not fit in a uint8
        p = NmPattern(3, 258)
        rng = np.random.default_rng(258)
        w = np.round(rng.normal(size=(2, 258)), 1)
        assert np.array_equal(forward_mask(w, p).bits, forward_sort_oracle(w, p))
        keys = np.abs(w.T)
        assert np.array_equal(_top_n_ranks(keys.copy(), p.n).T, top_n_sort_oracle(keys.T, p.n))
        assert np.array_equal(column_block_top_n(keys, p.n, p.m), column_block_sort_oracle(keys, p.n, p.m))

    @pytest.mark.parametrize("n", [0, 1, 2, 128, 255, 256])
    def test_uint8_ranks_at_m_256(self, n):
        # at M = 256 a rank reaches 255, the top of the uint8 counter the
        # kernel picks; the blocks drive counters to both ends of it
        m = 256
        rng = np.random.default_rng(256 + n)
        heavy = np.full(m, -np.inf)
        heavy[rng.choice(m, 5, replace=False)] = [-1.0, 0.0, -0.0, 2.0, 2.0]
        keys = np.stack([np.arange(m, dtype=np.float64), np.arange(m, 0, -1.0), np.full(m, 0.5), heavy])
        expected = top_n_sort_oracle(keys, n)
        assert np.array_equal(_top_n_ranks(keys.T.copy(), n).T, expected)
        assert np.array_equal(column_block_top_n(keys.T.copy(), n, m), column_block_sort_oracle(keys.T, n, m))
        if n:  # the forward mask ranks the finite blocks as its |w|
            p = NmPattern(n, m)
            assert np.array_equal(forward_mask(keys[:3], p).bits, forward_sort_oracle(keys[:3], p))


class TestSamplingKeys:
    def test_overflowing_blocks_keep_every_positive_entry(self):
        # near the float maximum a column block's total overflows; the
        # multinomial mask must still rank positive entries above zero ones
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 1.0, size=(8, 8)) * NEAR_MAX * rng.choice((-1, 1), size=(8, 8))
        fwd = forward_mask(w, P24)
        by_weight = backward_mask(w, fwd, None, P24)
        sampled = backward_mask(w, fwd, None, P24, BinarizationCriterion.MULTINOMIAL_SAMPLING, seed=1)
        fits = np.minimum(2, (fwd.bits.reshape(2, 4, 8).sum(axis=1))).sum()
        assert sampled.bits.sum() == by_weight.bits.sum() == fits
        assert np.isfinite(sampling_keys(np.abs(fwd.apply(w)), 4, np.random.default_rng(1))).all()

    def test_keys_are_log_magnitude_plus_gumbel(self):
        # no block total enters the keys: 1e300 and 5e-324 keep finite logs
        stat = np.array([[1e300], [1e-20], [5e-324], [0.0]])
        keys = sampling_keys(stat, 4, np.random.default_rng(5))
        draws = np.random.default_rng(5)
        gumbel = -np.log(-np.log(draws.random((1, 4, 1)).reshape(4, 1)))
        band = -1e12 + draws.random((1, 4, 1)).reshape(4, 1)
        assert np.array_equal(keys[:3], np.log(stat[:3]) + gumbel[:3])
        assert keys[3, 0] == band[3, 0]

    @pytest.mark.parametrize("seed", range(8))
    def test_underflowing_share_is_kept_like_weight_magnitude(self, seed):
        # column 0 of the forward-masked weights holds 1e10 and 1e-320
        w = np.array([[1e10, 1, 0, 0], [1e-320, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        fwd = forward_mask(w, P24)
        assert fwd.bits[:, 0].tolist() == [1, 1, 0, 0]
        by_weight = backward_mask(w, fwd, None, P24)
        sampled = backward_mask(w, fwd, None, P24, BinarizationCriterion.MULTINOMIAL_SAMPLING, seed=seed)
        assert by_weight.bits[:, 0].tolist() == [1, 1, 0, 0]
        assert sampled.bits[:, 0].tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_entry_in_overflowing_block_is_kept(self, seed):
        # column 0 holds 1.7e308, 1.7e308, 1e-300, 0: the block total
        # overflows, and 1e-300 / 1.7e308 rounds to 0 after the rescale
        w = np.array([[NEAR_MAX, 1, 1, 1], [NEAR_MAX, 1, 1, 1], [1e-300, 0, 0, 0], [0, 1, 1, 1]])
        p34 = NmPattern(3, 4)
        fwd = forward_mask(w, p34)
        assert fwd.bits[:, 0].tolist() == [1, 1, 1, 0]
        sampled = backward_mask(w, fwd, None, p34, BinarizationCriterion.MULTINOMIAL_SAMPLING, seed=seed)
        assert backward_mask(w, fwd, None, p34).bits[:, 0].tolist() == [1, 1, 1, 0]
        assert sampled.bits[:, 0].tolist() == [1, 1, 1, 0]

    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=str)
    def test_masks_match_the_normalized_keys(self, pattern):
        # kernel_cases hold normal-range blocks, blocks whose totals overflow
        # and blocks where a 1e-320 entry's share underflows to zero
        n, m = pattern.n, pattern.m
        criterion = BinarizationCriterion.MULTINOMIAL_SAMPLING
        rng = np.random.default_rng(pattern.m * 10 + pattern.n + 3)
        for w in kernel_cases(pattern, seed=pattern.m * 10 + pattern.n + 4):
            fwd = forward_mask(w, pattern)
            perm = rng.permutation(w.shape[0])
            stat = np.abs(fwd.apply(w))[perm]
            for seed in range(3):
                bwd = backward_mask(w, fwd, perm, pattern, criterion, seed=seed)
                keys = normalized_sampling_keys(stat, m, np.random.default_rng(seed))
                assert np.array_equal(bwd.bits, column_block_sort_oracle(keys, n, m) * fwd.bits[perm])


@st.composite
def block_matrices(draw):
    """(weights, pattern) with up to 3 x 3 blocks and M up to 16; entries mix
    ties, zeros and magnitudes near 1e+-308."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(1, m))
    shape = (m * draw(st.integers(1, 3)), m * draw(st.integers(1, 3)))
    values = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 0.5, NEAR_MAX, -NEAR_MAX, 1e-308]),
        st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
    )
    return draw(hnp.arrays(np.float64, shape, elements=values)), NmPattern(n, m)


class TestBlockInvariantProperties:
    @settings(max_examples=80, deadline=None)
    @given(block_matrices())
    def test_forward_keeps_the_n_largest_lowest_index_first(self, case):
        w, pattern = case
        n, m = pattern.n, pattern.m
        bits = forward_mask(w, pattern).bits.reshape(-1, m)
        mags = np.abs(w).reshape(-1, m)
        assert (bits.sum(axis=1) == n).all()
        idx = np.arange(m)
        for row, b in zip(mags, bits):
            kept, dropped = idx[b == 1], idx[b == 0]
            for i in kept:
                for j in dropped:
                    assert row[i] > row[j] or (row[i] == row[j] and i < j)

    @settings(max_examples=80, deadline=None)
    @given(block_matrices(), st.sampled_from(list(BinarizationCriterion)), st.integers(0, 2**32 - 1))
    def test_backward_blocks_stay_within_the_permuted_forward_mask(self, case, criterion, seed):
        w, pattern = case
        n, m = pattern.n, pattern.m
        perm = np.random.default_rng(seed).permutation(w.shape[0])
        fwd = forward_mask(w, pattern)
        bwd = backward_mask(w, fwd, perm, pattern, criterion, gradient=w[::-1].copy(), seed=seed)
        assert validate_mask(bwd) == []
        assert (bwd.bits <= fwd.bits[perm]).all()
        if criterion is BinarizationCriterion.WEIGHT_MAGNITUDE:
            # every block keeps min(n, its non-zeros) of the masked weights
            nonzeros = (fwd.apply(w)[perm] != 0).reshape(-1, m, w.shape[1]).sum(axis=1)
            ones = bwd.bits.reshape(-1, m, w.shape[1]).sum(axis=1)
            assert (ones >= np.minimum(n, nonzeros)).all()


@st.composite
def tile_matrices(draw):
    """(weights, pattern) with up to 2 x 2 tiles and M up to 16; entries mix
    ties, zeros, constant tiles and magnitudes up to 1e300."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(1, m))
    grid = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    values = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1e-300]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    )
    w = draw(hnp.arrays(np.float64, (grid[0] * m, grid[1] * m), elements=values))
    if draw(st.booleans()):
        w[:m, :m] = draw(values)
    return w, NmPattern(n, m)


class TestTransposableProperties:
    @settings(max_examples=60, deadline=None)
    @given(tile_matrices())
    def test_exact_and_approx_are_valid_and_within_a_factor_two(self, case):
        w, pattern = case
        exact = transposable_mask(w, pattern, TransposableMethod.EXACT)
        approx = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
        assert validate_mask(exact) == []
        assert validate_mask(approx) == []
        exact_tiles = tile_kept_magnitudes(w, exact, pattern)
        approx_tiles = tile_kept_magnitudes(w, approx, pattern)
        assert (exact_tiles >= approx_tiles * (1 - 1e-12)).all()
        assert (approx_tiles >= 0.5 * exact_tiles * (1 - 1e-12)).all()

    @settings(max_examples=100, deadline=None)
    @given(tile_matrices())
    def test_approx_equals_the_per_tile_greedy_oracle(self, case):
        # M up to 16 puts cases on both kernels, and on both sides of the
        # scan's word limit (5:8 to 8:8 and 8:16 take the rounds)
        w, pattern = case
        approx = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
        assert np.array_equal(approx.bits, greedy_mask_oracle(w, pattern))


def feasible_tiles(n, m):
    """Every m x m 0/1 tile with row and column sums <= n, by brute force over 2^(m*m) codes."""
    codes = np.arange(1 << (m * m), dtype=np.uint32)
    grids = ((codes[:, None] >> np.arange(m * m)) & 1).astype(np.uint8).reshape(-1, m, m)
    return grids[(grids.sum(axis=1).max(axis=1) <= n) & (grids.sum(axis=2).max(axis=1) <= n)]


def exhaustive_tile_optimum(abs_tile, n):
    """Independent brute force over all 2^(m*m) tile masks."""
    m = abs_tile.shape[0]
    return float((feasible_tiles(n, m).reshape(-1, m * m).astype(np.float64) @ abs_tile.ravel()).max())


def greedy_tile_oracle(abs_tile, n):
    """Per-tile descending-magnitude insertion, one entry at a time."""
    m = abs_tile.shape[0]
    order = np.argsort(-abs_tile, axis=None, kind="stable")
    row_used = np.zeros(m, dtype=np.int64)
    col_used = np.zeros(m, dtype=np.int64)
    tile = np.zeros((m, m), dtype=np.uint8)
    for flat in order:
        r, c = divmod(int(flat), m)
        if row_used[r] < n and col_used[c] < n:
            tile[r, c] = 1
            row_used[r] += 1
            col_used[c] += 1
    return tile


def greedy_mask_oracle(w, pattern):
    n, m = pattern.n, pattern.m
    rows, cols = w.shape
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(0, rows, m):
        for j in range(0, cols, m):
            bits[i : i + m, j : j + m] = greedy_tile_oracle(np.abs(w[i : i + m, j : j + m]), n)
    return bits


GREEDY_PATTERNS = [
    NmPattern.parse(p)
    for p in ("2:2", "2:3", "1:4", "2:4", "3:4", "1:8", "2:8", "4:8", "5:8", "6:8", "7:8", "8:8", "1:16", "8:16")
]
# every pattern transposable_mask sends to _greedy_scan, written out so that
# a layout change cannot move a pattern between the kernels unnoticed
SCAN_PATTERNS = [
    NmPattern.parse(p)
    for p in (
        "1:2", "2:2", "1:3", "2:3", "3:3", "1:4", "2:4", "3:4", "4:4",
        "1:5", "2:5", "3:5", "4:5", "5:5", "1:6", "2:6", "3:6", "4:6", "5:6", "6:6",
        "1:7", "2:7", "3:7", "4:7", "5:7", "6:7", "7:7",
        "1:8", "2:8", "3:8", "4:8",
    )
]


def greedy_cases(pattern, seed):
    """Weights for one pattern: random, tie-heavy, zero and constant blocks,
    extreme magnitudes, on square and non-square tile grids."""
    m = pattern.m
    rng = np.random.default_rng(seed)
    for grid in [(1, 1), (2, 3), (3, 1), (1, 4)]:
        shape = (grid[0] * m, grid[1] * m)
        w = rng.normal(size=shape)
        yield w
        yield np.round(w)  # many ties, including zeros
        yield rng.integers(-2, 3, size=shape).astype(np.float64)
        zeros = w.copy()
        zeros[:m, :m] = 0.0
        yield zeros
        const = w.copy()
        const[-m:, -m:] = -0.75
        yield const
        yield np.full(shape, 3.0)
        yield w * 1e300
        yield w * 1e-300
        yield np.where(rng.random(shape) < 0.5, 1e300, 1e-300) * np.sign(w)


@lru_cache(maxsize=None)
def tile_candidates_oracle(n, m):
    """Feasible m x m tiles built one candidate array at a time, in product order."""
    row_patterns = [p for p in itertools.product((0, 1), repeat=m) if sum(p) <= n]
    tiles = [np.array(rows, dtype=np.uint8) for rows in itertools.product(row_patterns, repeat=m)]
    return np.stack([t for t in tiles if (t.sum(axis=0) <= n).all()])


def exact_mask_oracle(w, pattern):
    """Every tile scored on its own against the candidates; the first best wins."""
    n, m = pattern.n, pattern.m
    candidates = tile_candidates_oracle(n, m)
    rows, cols = w.shape
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(0, rows, m):
        for j in range(0, cols, m):
            tile = np.abs(w[i : i + m, j : j + m]).ravel()
            scores = candidates.reshape(len(candidates), -1).astype(np.float64) @ tile
            bits[i : i + m, j : j + m] = candidates[int(np.argmax(scores))]
    return bits


def lp_tile_optimum(abs_tile, n):
    """Max kept |w| of one tile by linear programming over [0, 1] entries.

    The row and column budgets form a totally unimodular system, so the LP
    optimum equals the best 0/1 mask.
    """
    m = abs_tile.shape[0]
    budgets = np.vstack([np.kron(np.eye(m), np.ones(m)), np.kron(np.ones(m), np.eye(m))])
    res = linprog(-abs_tile.ravel(), A_ub=budgets, b_ub=np.full(2 * m, n), bounds=(0, 1), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def tiles_of(a, m):
    """(rows/m * cols/m, m, m) stack of a matrix's tiles, row-major over the grid."""
    rows, cols = a.shape
    return a.reshape(rows // m, m, cols // m, m).swapaxes(1, 2).reshape(-1, m, m)


EXACT_PATTERNS = [NmPattern(n, m) for m in (2, 3, 4) for n in range(1, m + 1)]
LP_PATTERNS = [NmPattern.parse(p) for p in ("1:8", "2:8", "4:8", "1:16", "8:16")]


class TestTransposableMask:
    @pytest.mark.parametrize("pattern", EXACT_PATTERNS, ids=str)
    def test_candidate_oracle_lists_every_feasible_tile_once(self, pattern):
        n, m = pattern.n, pattern.m
        candidates = tile_candidates_oracle(n, m)
        as_set = {tile.tobytes() for tile in candidates}
        assert len(as_set) == len(candidates)
        assert as_set == {tile.tobytes() for tile in feasible_tiles(n, m)}

    @pytest.mark.parametrize("pattern", EXACT_PATTERNS, ids=str)
    def test_exact_keeps_the_oracle_optimum_per_tile(self, pattern):
        # ties leave several optima; the solver may pick a different one than
        # the first-best candidate, but never a lighter one
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n + 2):
            mask = transposable_mask(w, pattern, TransposableMethod.EXACT)
            oracle = Mask(MaskDirection.TRANSPOSABLE, exact_mask_oracle(w, pattern), pattern)
            assert validate_mask(mask) == []
            kept, best = tile_kept_magnitudes(w, mask, pattern), tile_kept_magnitudes(w, oracle, pattern)
            np.testing.assert_allclose(kept, best, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pattern", EXACT_PATTERNS, ids=str)
    def test_exact_matches_oracle_bits_on_continuous_weights(self, pattern):
        # continuous weights have a unique optimum per tile; in the near-tie
        # case it beats the runner-up by ~1e-9 of the tile's weight
        rng = np.random.default_rng(pattern.m * 10 + pattern.n + 3)
        for grid in [(1, 1), (4, 4), (2, 5)]:
            shape = (grid[0] * pattern.m, grid[1] * pattern.m)
            for w in (rng.normal(size=shape), 1.0 + 1e-9 * rng.normal(size=shape)):
                mask = transposable_mask(w, pattern, TransposableMethod.EXACT)
                assert np.array_equal(mask.bits, exact_mask_oracle(w, pattern))

    @pytest.mark.parametrize("pattern", EXACT_PATTERNS + [NmPattern(2, 8), NmPattern(1, 16)], ids=str)
    def test_exact_tiles_are_solved_independently(self, pattern):
        m = pattern.m
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n + 4):
            whole = tiles_of(transposable_mask(w, pattern, TransposableMethod.EXACT).bits, m)
            for tile, bits in zip(tiles_of(w, m), whole):
                assert np.array_equal(transposable_mask(tile, pattern, TransposableMethod.EXACT).bits, bits)

    @pytest.mark.parametrize("pattern", [P24, NmPattern(2, 8), NmPattern(1, 16)], ids=str)
    def test_exact_tiles_do_not_depend_on_input_strides(self, pattern):
        # the solver builds its own tiles-last arrays, so a C-ordered stack, its
        # Fortran-ordered copy and a strided view of a larger stack give the same bits
        n, m = pattern.n, pattern.m
        rng = np.random.default_rng(pattern.m * 10 + pattern.n + 7)
        view = np.abs(np.round(rng.normal(size=(14, m + 1, m + 3)), 1))[::2, 1:, 2 : m + 2]
        stacks = (np.ascontiguousarray(view), np.asfortranarray(view), view)
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert stacks[1].flags.f_contiguous and not stacks[1].flags.c_contiguous
        bits = _exact_tiles(stacks[0], n, m)
        assert bits.shape == view.shape
        kept = (bits * view).sum(axis=(1, 2))
        np.testing.assert_allclose(kept, [lp_tile_optimum(tile, n) for tile in view], rtol=1e-9, atol=0)
        for stack in stacks[1:]:
            assert np.array_equal(_exact_tiles(stack, n, m), bits)

    @pytest.mark.parametrize("pattern", LP_PATTERNS, ids=str)
    def test_exact_matches_lp_optimum_per_tile(self, pattern):
        n, m = pattern.n, pattern.m
        rng = np.random.default_rng(pattern.m * 10 + pattern.n + 5)
        shape = (2 * m, 2 * m)
        cases = [
            rng.normal(size=shape),
            np.round(rng.normal(size=shape)),  # ties and zeros
            rng.integers(-2, 3, size=shape).astype(np.float64),
            np.where(rng.random(shape) < 0.5, 1.0, 0.5),
        ]
        for w in cases:
            mask = transposable_mask(w, pattern, TransposableMethod.EXACT)
            kept = tile_kept_magnitudes(w, mask, pattern).ravel()
            optimum = [lp_tile_optimum(tile, n) for tile in tiles_of(np.abs(w), m)]
            np.testing.assert_allclose(kept, optimum, rtol=1e-9, atol=0)

    def test_exact_1_16_matches_assignment(self):
        # with one one per row and column a tile's optimum is a max-weight assignment
        rng = np.random.default_rng(53)
        p116 = NmPattern(1, 16)
        for w in (rng.normal(size=(32, 48)), np.round(rng.normal(size=(32, 48)))):
            kept = tile_kept_magnitudes(w, transposable_mask(w, p116, TransposableMethod.EXACT), p116)
            for tile, got in zip(tiles_of(np.abs(w), 16), kept.ravel()):
                r, c = linear_sum_assignment(tile, maximize=True)
                assert got == pytest.approx(tile[r, c].sum(), rel=1e-12)

    def test_exact_ties_go_to_the_lowest_index(self):
        # on a constant tile every path gains the same; each augmentation takes
        # the lowest free column and, for it, the lowest row
        const = np.full((4, 4), 3.0)
        diagonal_blocks = np.kron(np.eye(2), np.ones((2, 2)))
        assert np.array_equal(transposable_mask(const, P24, TransposableMethod.EXACT).bits, diagonal_blocks)
        assert np.array_equal(transposable_mask(const, P14, TransposableMethod.EXACT).bits, np.eye(4))

    def test_identity_support_is_kept(self):
        w = np.eye(4)
        mask = transposable_mask(w, P24, TransposableMethod.EXACT)
        assert kept_magnitude(w, mask) == 4.0

    def test_single_column_mass(self):
        w = np.full((4, 4), 1e-3)
        w[:, 0] = [5.0, 4.0, 3.0, 2.0]
        mask = transposable_mask(w, P24, TransposableMethod.EXACT)
        # column budget keeps only the two largest of the heavy column
        assert mask.bits[:, 0].tolist() == [1, 1, 0, 0]
        assert kept_magnitude(w, mask) == pytest.approx(exhaustive_tile_optimum(np.abs(w), 2))

    def test_exact_keeps_entries_near_float_max(self):
        # four candidate-sum terms of 1.7e308 overflow unless the tile is scaled
        # first; tier-1 turns the overflow warning into a failure
        w = np.full((4, 4), 1e-3)
        big = [(0, 0), (0, 1), (1, 2), (1, 3)]
        for r, c in big:
            w[r, c] = NEAR_MAX
        mask = transposable_mask(w, P24, TransposableMethod.EXACT)
        assert all(mask.bits[r, c] == 1 for r, c in big)
        assert validate_mask(mask) == []

    def test_exact_matches_independent_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = rng.normal(size=(4, 4))
            mask = transposable_mask(w, P24, TransposableMethod.EXACT)
            assert kept_magnitude(w, mask) == pytest.approx(exhaustive_tile_optimum(np.abs(w), 2))

    def test_two_approx_bound_per_tile(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            w = rng.normal(size=(8, 8))
            exact = tile_kept_magnitudes(w, transposable_mask(w, P24, TransposableMethod.EXACT), P24)
            approx = tile_kept_magnitudes(w, transposable_mask(w, P24, TransposableMethod.TWO_APPROX), P24)
            assert (approx <= exact + 1e-12).all()
            assert (approx >= 0.5 * exact - 1e-12).all()

    def test_method_given_by_its_value(self):
        w = np.random.default_rng(0).normal(size=(8, 8))
        exact = transposable_mask(w, P24, TransposableMethod.EXACT).bits
        assert not np.array_equal(exact, transposable_mask(w, P24, TransposableMethod.TWO_APPROX).bits)
        assert np.array_equal(transposable_mask(w, P24, "exact").bits, exact)
        with pytest.raises(ValueError, match="not a valid TransposableMethod"):
            transposable_mask(w, P24, "optimal")

    def test_both_directions_valid(self):
        rng = np.random.default_rng(41)
        for method in TransposableMethod:
            mask = transposable_mask(rng.normal(size=(8, 8)), P24, method)
            assert validate_mask(mask) == []
            assert block_ones_ok(mask.bits, P24, "both")

    @pytest.mark.parametrize("pattern", GREEDY_PATTERNS, ids=str)
    def test_greedy_matches_per_tile_oracle(self, pattern):
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n):
            mask = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
            assert np.array_equal(mask.bits, greedy_mask_oracle(w, pattern))

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_greedy_scan_matches_the_rounds(self, pattern):
        n, m = pattern.n, pattern.m
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n + 2):
            tiles = tiles_of(np.abs(w), m)
            assert np.array_equal(_greedy_scan(tiles, n, m), _greedy_tiles(tiles.copy(), n, m))

    def test_approx_sends_exactly_the_scan_patterns_to_the_scan(self, monkeypatch):
        calls = []

        def kernel(name):
            def record(abs_tiles, n, m):
                calls.append((name, NmPattern(n, m)))
                return np.zeros(abs_tiles.shape, dtype=np.uint8)
            return record

        monkeypatch.setattr(masks, "_greedy_scan", kernel("scan"))
        monkeypatch.setattr(masks, "_greedy_tiles", kernel("rounds"))
        for m in range(2, 33):
            for n in range(1, m + 1):
                transposable_mask(np.ones((m, m)), NmPattern(n, m), TransposableMethod.TWO_APPROX)
        assert [p for name, p in calls if name == "scan"] == SCAN_PATTERNS
        assert len(calls) == sum(range(2, 33))

    def test_scan_guard_bits_sit_at_2_to_the_6_or_above(self):
        # so any hit shifts an increment by 64 or more; two set bits per
        # guard, a row's and a column's, show that no field fell off the word
        for p in SCAN_PATTERNS:
            one, shift, _ = _scan_tables(p.n, p.m)
            guard = one << shift
            assert not (guard & np.uint64(63)).any()
            assert (np.bitwise_count(guard) == 2).all()

    def test_scan_guards_equal_the_or_of_the_two_top_bits(self):
        # oracle: a guard built as row r's top bit OR column c's top bit, from
        # the counter layout alone (counter k's top bit is bit 6 + k * width),
        # is the increment word shifted up
        for p in SCAN_PATTERNS:
            n, m = p.n, p.m
            one, shift, _ = _scan_tables(n, m)
            width = (n - 1).bit_length() + 1
            top = [1 << (6 + k * width) for k in range(2 * m)]
            guard = [top[r] | top[m + c] for r in range(m) for c in range(m)]
            assert (one << shift).tolist() == guard, str(p)

    def test_scan_tables_are_none_exactly_at_the_rounds_patterns(self):
        # the rounds serve M >= 9 (m * m kept bits overflow a word) and 5:8 to
        # 8:8 (sixteen 4-bit counters and their offset overflow it)
        for m in range(2, 17):
            for n in range(1, m + 1):
                assert (_scan_tables(n, m) is None) == (m >= 9 or (m == 8 and n >= 5)), f"{n}:{m}"

    def test_scan_tables_are_cached_and_read_only(self):
        one, _, _ = _scan_tables(2, 4)
        assert _scan_tables(2, 4)[0] is one
        with pytest.raises(ValueError):
            one[0] = 0

    def test_right_shift_by_64_or_more_clears_a_uint64(self):
        # the scan step relies on this; C leaves such shifts undefined, numpy
        # defines them as 0 (a long operand also takes any vectorized loop)
        values = np.arange(1, 300, dtype=np.uint64) << np.uint64(20)
        for count in (64, 65, 1 << 6 | 1 << 40, 1 << 63):
            shift = np.full(values.shape, count, dtype=np.uint64)
            assert not np.right_shift(values, shift).any()
            assert not np.right_shift(values, np.uint64(count)).any()
            out = values.copy()
            np.right_shift(out, shift, out=out)
            assert not out.any()

    @pytest.mark.parametrize("pattern", GREEDY_PATTERNS, ids=str)
    def test_greedy_is_maximal(self, pattern):
        # every 0 of a tile lies on a row or column that already holds n ones,
        # which is what gives the greedy its 1/2 bound
        n, m = pattern.n, pattern.m
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n + 1):
            bits = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX).bits
            rows, cols = bits.shape
            tiles = bits.reshape(rows // m, m, cols // m, m).swapaxes(1, 2)
            row_full = tiles.sum(axis=3, keepdims=True) == n
            col_full = tiles.sum(axis=2, keepdims=True) == n
            assert ((tiles == 1) | row_full | col_full).all()
            assert validate_mask(Mask(MaskDirection.TRANSPOSABLE, bits, pattern)) == []

    @pytest.mark.parametrize("pattern", [NmPattern(2, 8), NmPattern(1, 16)], ids=str)
    def test_exact_above_m4(self, pattern):
        for w in greedy_cases(pattern, seed=pattern.m * 10 + pattern.n + 6):
            exact = transposable_mask(w, pattern, TransposableMethod.EXACT)
            approx = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
            assert validate_mask(exact) == []
            assert block_ones_ok(exact.bits, pattern, "both")
            exact_tiles = tile_kept_magnitudes(w, exact, pattern)
            approx_tiles = tile_kept_magnitudes(w, approx, pattern)
            assert (exact_tiles >= approx_tiles * (1 - 1e-12)).all()
            assert (approx_tiles >= 0.5 * exact_tiles * (1 - 1e-12)).all()

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            transposable_mask(np.zeros((6, 8)), P24)


def index_mask(m):
    """The low bits of a uint64 |w| pattern that ``_greedy_scan``'s keys replace by the tile index."""
    return np.uint64((1 << (m * m - 1).bit_length()) - 1)


def cleared(values, m):
    """``values`` with their index bits cleared, so that adding fewer than 2**bits ulps stays in the bucket."""
    return (values.view(np.uint64) & ~index_mask(m)).view(np.float64)


def one_ulp_pairs(rng, tiles, m):
    """Tiles of pairs (x, next float above x), x at the lower flat index, pairs at random places."""
    cells = m * m
    stack = np.empty((tiles, cells))
    for t in range(tiles):
        places = rng.permutation(cells)
        x = cleared(rng.uniform(0.5, 2.0, size=cells // 2), m)
        first, second = np.sort(places[: cells // 2 * 2].reshape(-1, 2), axis=1).T
        stack[t, first], stack[t, second] = x, np.nextafter(x, np.inf)
        stack[t, places[cells // 2 * 2 :]] = rng.uniform(0.5, 2.0, size=cells % 2)
    return stack.reshape(tiles, m, m)


def bucket_clusters(rng, tiles, m, spread):
    """Tiles of a few clusters: a base with cleared index bits plus a random 0 .. spread-1 ulps each."""
    cells = m * m
    bases = cleared(rng.uniform(0.5, 2.0, size=(tiles, 3)), m)
    stack = bases[np.arange(tiles)[:, None], rng.integers(0, 3, size=(tiles, cells))]
    ulps = rng.integers(0, spread, size=(tiles, cells), dtype=np.uint64)
    return (stack.view(np.uint64) + ulps).view(np.float64).reshape(tiles, m, m)


def assert_scan_is_the_greedy(stack, pattern):
    n, m = pattern.n, pattern.m
    got = _greedy_scan(stack, n, m)
    assert np.array_equal(got, _greedy_tiles(stack.copy(), n, m))
    for tile, bits in zip(stack, got):
        assert np.array_equal(bits, greedy_tile_oracle(tile, n))


class TestScanNearTies:
    """Entries of a tile whose bit patterns differ only in the index bits must still go by magnitude.

    Exact ties sort right by index alone, so only these cases show whether
    the kernel falls back to a stable argsort where the index bits hid a
    difference.
    """

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_larger_entry_one_ulp_above_a_lower_index_entry(self, pattern):
        rng = np.random.default_rng(100 + pattern.m * 10 + pattern.n)
        assert_scan_is_the_greedy(one_ulp_pairs(rng, 40, pattern.m), pattern)

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_clusters_spread_over_every_index_bit(self, pattern):
        rng = np.random.default_rng(200 + pattern.m * 10 + pattern.n)
        spread = int(index_mask(pattern.m)) + 1
        assert_scan_is_the_greedy(bucket_clusters(rng, 40, pattern.m, spread), pattern)

    def test_m8_entries_apart_only_in_the_sixth_index_bit(self):
        # 4:8 keys carry 6 index bits; these pairs agree on the low five
        rng = np.random.default_rng(7)
        stack = one_ulp_pairs(rng, 40, 8).reshape(40, 64)
        bits = stack.view(np.uint64)
        bits[bits & np.uint64(1) == 1] += np.uint64(31)  # x + 1 ulp becomes x + 32 ulps
        assert ((bits & index_mask(8)) % np.uint64(32) == 0).all()
        assert_scan_is_the_greedy(stack.reshape(40, 8, 8), NmPattern(4, 8))

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_exact_ties_zeros_and_all_equal_tiles(self, pattern):
        m, cells = pattern.m, pattern.m * pattern.m
        rng = np.random.default_rng(300 + m * 10 + pattern.n)
        x = cleared(np.array([1.25]), m)[0]
        up = np.nextafter(x, np.inf)
        stack = np.stack([
            np.zeros(cells),
            np.full(cells, x),
            rng.choice([0.0, 5e-324], size=cells),  # zero and the smallest subnormal differ in bit 0
            rng.choice([x, up], size=cells),
            rng.choice([0.0, x, up, 2.0], size=cells),
            np.where(np.arange(cells) % 2 == 0, up, x),
        ]).reshape(-1, m, m)
        assert_scan_is_the_greedy(stack, pattern)

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_a_stack_where_only_some_tiles_need_the_fallback(self, pattern):
        m = pattern.m
        rng = np.random.default_rng(400 + m * 10 + pattern.n)
        plain = rng.uniform(0.5, 2.0, size=(60, m, m))
        near = rng.choice(60, size=20, replace=False)
        plain[near] = bucket_clusters(rng, 20, m, int(index_mask(m)) + 1)
        assert_scan_is_the_greedy(plain, pattern)

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_a_near_tie_only_across_a_tile_boundary(self, pattern):
        # one tile's smallest entry and the next tile's largest are 1 ulp
        # apart: the whole-call test fires, but no tile needs the fallback
        m, cells = pattern.m, pattern.m * pattern.m
        rng = np.random.default_rng(500 + m * 10 + pattern.n)
        x = cleared(np.array([1.0]), m)[0]
        first = rng.uniform(1.5, 2.0, size=cells)
        first[rng.integers(cells)] = np.nextafter(x, np.inf)
        second = rng.uniform(0.5, 0.9, size=cells)
        second[rng.integers(cells)] = x
        assert_scan_is_the_greedy(np.stack([first, second]).reshape(2, m, m), pattern)

    @pytest.mark.parametrize("pattern", [NmPattern(2, 4), NmPattern(4, 8), NmPattern(1, 2)], ids=str)
    def test_signed_zeros_and_near_ties_through_the_mask(self, pattern):
        m = pattern.m
        rng = np.random.default_rng(600 + m)
        w = one_ulp_pairs(rng, 12, m).reshape(3, 4, m, m).swapaxes(1, 2).reshape(3 * m, 4 * m)
        w *= rng.choice([-1.0, 1.0], size=w.shape)
        w[rng.random(w.shape) < 0.2] = -0.0
        w[rng.random(w.shape) < 0.1] = 0.0
        mask = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
        assert np.array_equal(mask.bits, greedy_mask_oracle(w, pattern))


def stack_matrix(stack):
    """An (m, tiles * m) matrix whose tile stack, over its one-row tile grid, is ``stack``."""
    tiles, m, _ = stack.shape
    return stack.transpose(1, 0, 2).reshape(m, tiles * m)


def chunk_edge_stack(rng, tiles, m, chunk):
    """Random |w| tiles whose chunks of ``chunk`` tiles each start and end with
    a tie-heavy, an all-zero and a one-ulp-pair tile. Each placed tile but the
    all-zero one is drawn afresh, so the tile that ends a chunk differs from
    the one that starts the next."""
    stack = rng.uniform(0.5, 2.0, size=(tiles, m, m))
    kinds = [
        lambda: np.round(rng.uniform(0.0, 2.0, size=(m, m))),
        lambda: np.zeros((m, m)),
        lambda: one_ulp_pairs(rng, 1, m)[0],
    ]
    for start in range(0, tiles, chunk):
        stop = min(start + chunk, tiles)
        for k, kind in enumerate(kinds):
            stack[min(start + k, stop - 1)] = kind()
            stack[max(stop - 1 - k, start)] = kind()
    return stack


def recorded_calls(monkeypatch, name):
    """The tile stacks, as passed, of every call that ``transposable_mask`` makes to ``masks.<name>``."""
    kernel, calls = getattr(masks, name), []

    def record(abs_tiles, n, m):
        calls.append(abs_tiles)
        return kernel(abs_tiles, n, m)

    monkeypatch.setattr(masks, name, record)
    return calls


CHUNK_PATTERNS = [NmPattern.parse(p) for p in ("1:4", "2:4", "2:8", "4:8")]


class TestScanChunks:
    """``transposable_mask`` hands ``_greedy_scan`` at most ``SCRATCH_WORDS // m**2`` tiles at a time."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("pattern", CHUNK_PATTERNS, ids=str)
    def test_multi_chunk_stack_is_the_greedy(self, monkeypatch, pattern, extra):
        n, m = pattern.n, pattern.m
        chunk = tensorops.SCRATCH_WORDS // (m * m)
        calls = recorded_calls(monkeypatch, "_greedy_scan")
        rng = np.random.default_rng(700 + m * 10 + n + extra)
        stack = chunk_edge_stack(rng, 2 * chunk + extra, m, chunk)
        w = stack_matrix(stack) * rng.choice([-1.0, 1.0], size=(m, len(stack) * m))
        bits = tiles_of(transposable_mask(w, pattern, TransposableMethod.TWO_APPROX).bits, m)
        assert [len(c) for c in calls] == {-1: [chunk, chunk - 1], 0: [chunk, chunk], 1: [chunk, chunk, 1]}[extra]
        assert all(c.base is calls[0].base for c in calls)  # views of one stack, not copies
        assert np.array_equal(np.concatenate(calls), stack)  # in order
        assert np.array_equal(bits, _greedy_tiles(stack.copy(), n, m))
        for tile, got in zip(stack, bits):
            assert np.array_equal(got, greedy_tile_oracle(tile, n))

    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_small_chunks_at_every_scan_pattern(self, monkeypatch, pattern):
        n, m = pattern.n, pattern.m
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", 3 * m * m)
        calls = recorded_calls(monkeypatch, "_greedy_scan")
        rng = np.random.default_rng(750 + m * 10 + n)
        stack = chunk_edge_stack(rng, 11, m, 3)
        bits = tiles_of(transposable_mask(stack_matrix(stack), pattern, TransposableMethod.TWO_APPROX).bits, m)
        assert [len(c) for c in calls] == [3, 3, 3, 2]
        assert np.array_equal(bits, _greedy_tiles(stack.copy(), n, m))
        for tile, got in zip(stack, bits):
            assert np.array_equal(got, greedy_tile_oracle(tile, n))

    @pytest.mark.parametrize(
        "pattern, shape",  # None: exactly one full chunk
        [(P24, (128, 32)), (P24, (16, 128)), (NmPattern(4, 8), (8, 8)), (P24, None), (NmPattern(2, 8), None)],
        ids=str,
    )
    def test_a_stack_of_one_chunk_is_one_call(self, monkeypatch, pattern, shape):
        m = pattern.m
        shape = shape or (m, tensorops.SCRATCH_WORDS // (m * m) * m)
        calls = recorded_calls(monkeypatch, "_greedy_scan")
        w = np.random.default_rng(900 + m).normal(size=shape)
        mask = transposable_mask(w, pattern, TransposableMethod.TWO_APPROX)
        assert len(calls) == 1
        assert np.array_equal(calls[0], tiles_of(np.abs(w), m))
        assert np.array_equal(mask.bits, greedy_mask_oracle(w, pattern))


class TestExactChunks:
    """``transposable_mask`` hands ``_exact_tiles`` at most ``max(1, SCRATCH_WORDS // m**2)``
    tiles at a time, and ``_greedy_tiles`` the whole stack in one call."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_multi_chunk_stack_is_the_exact_solve(self, monkeypatch, extra):
        n, m = P24.n, P24.m
        chunk = tensorops.SCRATCH_WORDS // (m * m)
        calls = recorded_calls(monkeypatch, "_exact_tiles")
        rng = np.random.default_rng(800 + extra)
        stack = chunk_edge_stack(rng, 2 * chunk + extra, m, chunk)
        w = stack_matrix(stack) * rng.choice([-1.0, 1.0], size=(m, len(stack) * m))
        bits = transposable_mask(w, P24, TransposableMethod.EXACT).bits
        assert [len(c) for c in calls] == {-1: [chunk, chunk - 1], 0: [chunk, chunk], 1: [chunk, chunk, 1]}[extra]
        assert all(c.base is calls[0].base for c in calls)  # views of one stack, not copies
        assert np.array_equal(np.concatenate(calls), stack)  # in order
        assert np.array_equal(tiles_of(bits, m), _exact_tiles(stack, n, m))
        # ties leave several optima, so the oracle's first best pins the bits
        # only of tiles with distinct magnitudes, and the kept |w| of every tile
        oracle = exact_mask_oracle(w, P24)
        distinct = np.array([np.unique(tile).size == m * m for tile in stack])
        assert distinct.sum() > len(stack) // 2
        assert np.array_equal(tiles_of(bits, m)[distinct], tiles_of(oracle, m)[distinct])
        np.testing.assert_allclose(
            (tiles_of(bits, m) * stack).sum(axis=(1, 2)), (tiles_of(oracle, m) * stack).sum(axis=(1, 2)), rtol=1e-12
        )

    @pytest.mark.parametrize("pattern", [P24, NmPattern(2, 8), NmPattern(1, 16)], ids=str)
    def test_chunk_words_below_one_tile_give_one_tile_per_call(self, monkeypatch, pattern):
        n, m = pattern.n, pattern.m
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", m * m - 1)
        calls = recorded_calls(monkeypatch, "_exact_tiles")
        rng = np.random.default_rng(850 + m * 10 + n)
        stack = chunk_edge_stack(rng, 5, m, 1)
        bits = transposable_mask(stack_matrix(stack), pattern, TransposableMethod.EXACT).bits
        assert [len(c) for c in calls] == [1] * 5
        assert np.array_equal(tiles_of(bits, m), _exact_tiles(stack, n, m))

    @pytest.mark.parametrize("pattern", [NmPattern(1, 16), NmPattern(5, 8)], ids=str)
    def test_the_rounds_take_the_whole_stack_in_one_call(self, monkeypatch, pattern):
        n, m = pattern.n, pattern.m
        tiles = 2 * (tensorops.SCRATCH_WORDS // (m * m)) + 1  # three chunks, were the rounds chunked
        calls = recorded_calls(monkeypatch, "_greedy_tiles")
        rng = np.random.default_rng(870 + m * 10 + n)
        stack = chunk_edge_stack(rng, tiles, m, tiles)
        bits = transposable_mask(stack_matrix(stack), pattern, TransposableMethod.TWO_APPROX).bits
        assert [len(c) for c in calls] == [tiles]  # the rounds consume it, so only its size is left to compare
        assert np.array_equal(tiles_of(bits, m), _greedy_tiles(stack.copy(), n, m))


class TestScratchBudget:
    """``tensorops.SCRATCH_WORDS``, read at call time, sizes the transposable
    chunks and the permutation scorer's candidate batches alike."""

    @staticmethod
    def sizes(monkeypatch):
        scan = recorded_calls(monkeypatch, "_greedy_scan")
        exact = recorded_calls(monkeypatch, "_exact_tiles")
        batches, score = [], permute._ineligible_counts

        def record(packed, perms, n, m):
            batches.append(len(perms))
            return score(packed, perms, n, m)

        monkeypatch.setattr(permute, "_ineligible_counts", record)
        rng = np.random.default_rng(990)
        w = rng.normal(size=(4, 28))  # seven 2:4 tiles
        for method in TransposableMethod:
            transposable_mask(w, P24, method)
        # 16 x 70 at 2:4 is 4 blocks of 2 words, 8 words per candidate
        permute.search_permutation(rng.normal(size=(16, 70)), P24, k=13, seed=0)
        return [len(c) for c in scan], [len(c) for c in exact], batches

    def test_one_patch_moves_the_chunks_and_the_batches(self, monkeypatch):
        with monkeypatch.context() as patched:
            assert self.sizes(patched) == ([7], [7], [14])
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", 48)  # three 4 x 4 tiles, six candidates
        assert self.sizes(monkeypatch) == ([3, 3, 1], [3, 3, 1], [6, 6, 2])


def layout_matrix(rng, rows, cols):
    """Random weights with rounded ties, zeros and +-1e300 entries, in blocks of every kind."""
    w = rng.normal(size=(rows, cols))
    w[rng.random(w.shape) < 0.2] = 0.0
    ties = rng.random(w.shape) < 0.3
    w[ties] = np.round(w[ties])
    huge = rng.random(w.shape) < 0.1
    w[huge] = rng.choice((-1e300, 1e300), size=int(huge.sum()))
    return w


# 1:M too, whose argmax result is already in row order
FORWARD_LAYOUT_PATTERNS = [NmPattern(n, m) for m in range(2, 17) for n in range(1, m + 1)]


class TestCopyLayouts:
    """The layout copies of the mask kernels: ``_forward_mask`` writes its keys
    ``SCRATCH_WORDS // m`` block-columns at a time and its bits back one slot at a
    time, and ``_transposable_mask`` un-tiles whole tile rows."""

    @pytest.mark.parametrize("pattern", FORWARD_LAYOUT_PATTERNS, ids=str)
    def test_forward_keys_in_several_blocks_the_last_ragged(self, monkeypatch, pattern):
        m = pattern.m
        rng = np.random.default_rng(1300 + 17 * m + pattern.n)
        w = layout_matrix(rng, 5, 7 * m)  # 35 blocks: eight chunks of 4 and one of 3
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", 4 * m + m - 1)
        bits = forward_mask(w, pattern).bits
        assert bits.dtype == np.uint8 and bits.flags.c_contiguous
        assert np.array_equal(bits, forward_sort_oracle(w, pattern))

    @pytest.mark.parametrize("pattern", [P24, NmPattern(2, 8), NmPattern(15, 16)], ids=str)
    def test_forward_keys_one_block_per_chunk_below_one_block_of_words(self, monkeypatch, pattern):
        w = layout_matrix(np.random.default_rng(1400 + pattern.m), 3, 2 * pattern.m)
        monkeypatch.setattr(tensorops, "SCRATCH_WORDS", pattern.m - 1)
        assert np.array_equal(forward_mask(w, pattern).bits, forward_sort_oracle(w, pattern))

    @pytest.mark.parametrize("method", list(TransposableMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("grid", [(1, 5), (5, 1), (2, 3)], ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize(
        "pattern", [NmPattern(1, 3), NmPattern(2, 5), NmPattern(3, 7), P24, NmPattern(2, 8)], ids=str
    )
    def test_untiling_puts_every_tile_in_place(self, method, grid, pattern):
        n, m = pattern.n, pattern.m
        rng = np.random.default_rng(1500 + 10 * m + n + grid[0])
        w = layout_matrix(rng, grid[0] * m, grid[1] * m)
        bits = transposable_mask(w, pattern, method).bits
        assert bits.dtype == np.uint8 and bits.flags.c_contiguous and bits.shape == w.shape
        solve = greedy_tile_oracle if method is TransposableMethod.TWO_APPROX else (
            lambda tile, n: _exact_tiles(tile[None], n, m)[0]
        )
        for i in range(0, w.shape[0], m):
            for j in range(0, w.shape[1], m):
                tile = np.abs(w[i : i + m, j : j + m])
                assert np.array_equal(bits[i : i + m, j : j + m], solve(tile, n)), (i, j)


def transposable_count_enumerated(n, m):
    """m x m masks with exactly n ones per row and at most n per column, by enumeration."""
    count = 0
    for rows in itertools.product(itertools.combinations(range(m), n), repeat=m):
        col_sums = np.zeros(m, dtype=int)
        for pat in rows:
            col_sums[list(pat)] += 1
        count += int(col_sums.max() <= n)
    return count


class TestMaskDiversity:
    def test_vanilla_counts(self):
        assert mask_diversity(P24, MaskFamily.VANILLA, 1) == 6
        assert mask_diversity(P14, MaskFamily.VANILLA, 1) == 4
        assert mask_diversity(P24, MaskFamily.VANILLA, 4) == 1296

    def test_transposable_2_4_by_independent_enumeration(self):
        # all 4x4 binary matrices with exactly two ones per row, col budget two
        count = 0
        from itertools import combinations, product

        for rows in product(list(combinations(range(4), 2)), repeat=4):
            sums = [0, 0, 0, 0]
            for pat in rows:
                for c in pat:
                    sums[c] += 1
            if max(sums) <= 2:
                count += 1
        assert mask_diversity(P24, MaskFamily.TRANSPOSABLE) == count == 90

    def test_transposable_strictly_below_vanilla(self):
        for pattern in (P14, P24):
            vanilla = mask_diversity(pattern, MaskFamily.VANILLA, pattern.m)
            transposable = mask_diversity(pattern, MaskFamily.TRANSPOSABLE)
            assert transposable < vanilla

    def test_dp_matches_enumeration_small(self):
        for m in (2, 3, 4):
            for n in range(1, m + 1):
                assert _transposable_count_dp(n, m) == transposable_count_enumerated(n, m)

    def test_known_closed_forms(self):
        import math

        # exactly one 1 per row with distinct columns: m! injections
        assert mask_diversity(NmPattern(1, 8), MaskFamily.TRANSPOSABLE) == math.factorial(8)
        assert mask_diversity(NmPattern(1, 16), MaskFamily.TRANSPOSABLE) == math.factorial(16)

    @pytest.mark.parametrize(
        "n, counts",
        [
            # OEIS A001499: m x m 0/1 matrices with two ones in every row and column, m = 2..8
            (2, [1, 6, 90, 2040, 67950, 3110940, 187530840]),
            # OEIS A001501: three ones in every row and column, m = 3..8
            (3, [1, 24, 2040, 297200, 68938800, 24046189440]),
        ],
    )
    def test_regular_matrix_counts_match_oeis(self, n, counts):
        for m, count in enumerate(counts, start=n):
            assert mask_diversity(NmPattern(n, m), MaskFamily.TRANSPOSABLE) == count

    def test_12_16_equals_4_16(self):
        count = mask_diversity(NmPattern(4, 16), MaskFamily.TRANSPOSABLE)
        assert count == 6892692735539278753058456514221737762215000
        assert mask_diversity(NmPattern(12, 16), MaskFamily.TRANSPOSABLE) == count

    def test_range_guards(self):
        with pytest.raises(ValueError, match="tile_rows"):
            mask_diversity(P24, MaskFamily.VANILLA)
        with pytest.raises(ValueError, match="up to m = 16"):
            mask_diversity(NmPattern(1, 32), MaskFamily.TRANSPOSABLE)
        with pytest.raises(ValueError, match="tile"):
            mask_diversity(P24, MaskFamily.TRANSPOSABLE, tile_rows=8)

    def test_family_given_by_its_value(self):
        assert mask_diversity(P24, "vanilla", 1) == 6
        assert mask_diversity(P24, "transposable") == 90
        with pytest.raises(ValueError, match="not a valid MaskFamily"):
            mask_diversity(P24, "bimask", 1)


class TestValidateMask:
    def test_generated_masks_clean(self):
        rng = np.random.default_rng(51)
        w = rng.normal(size=(8, 8))
        assert validate_mask(forward_mask(w, P24)) == []

    def test_all_ones_forward_has_one_violation_per_row_block(self):
        mask = Mask(MaskDirection.FORWARD, np.ones((4, 4), dtype=np.uint8), P24)
        violations = validate_mask(mask)
        assert len(violations) == 4
        assert {(v.row, v.col) for v in violations} == {(0, 0), (1, 0), (2, 0), (3, 0)}
        assert all(v.ones == 4 and v.limit == 2 for v in violations)

    def test_single_bad_column_block_reported(self):
        bits = np.zeros((8, 3), dtype=np.uint8)
        bits[0:3, 1] = 1  # three ones in the first column block of column 1
        mask = Mask(MaskDirection.BACKWARD, bits, P24)
        violations = validate_mask(mask)
        assert len(violations) == 1
        v = violations[0]
        assert (v.row, v.col, v.ones, v.limit) == (0, 1, 3, 2)

    def test_never_raises_on_transposable(self):
        mask = Mask(MaskDirection.TRANSPOSABLE, np.ones((4, 4), dtype=np.uint8), P24)
        violations = validate_mask(mask)
        assert len(violations) == 8  # four row blocks plus four column blocks


class TestMaskConstruction:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Mask(MaskDirection.FORWARD, np.full((2, 4), 2), P24)

    @pytest.mark.parametrize("bad", [-1, 0.5, np.nan])
    def test_rejects_other_non_binary_values(self, bad):
        bits = np.zeros((2, 4))
        bits[1, 2] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            Mask(MaskDirection.FORWARD, bits, P24)

    @pytest.mark.parametrize("bad", [2, 255])
    def test_rejects_uint8_above_one(self, bad):
        bits = np.zeros((2, 4), dtype=np.uint8)
        bits[0, 3] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            Mask(MaskDirection.FORWARD, bits, P24)

    def test_accepts_bool_bits(self):
        bits = np.array([[True, False, True, False]])
        mask = Mask(MaskDirection.FORWARD, bits, P24)
        assert mask.bits.dtype == np.uint8
        assert mask.bits.tolist() == [[1, 0, 1, 0]]

    @pytest.mark.parametrize(
        "direction, shape, message",
        [
            (MaskDirection.FORWARD, (4, 6), "needs forward mask cols divisible by 4, got 6"),
            (MaskDirection.BACKWARD, (6, 4), "needs backward mask rows divisible by 4, got 6"),
            (MaskDirection.TRANSPOSABLE, (4, 6), "needs transposable mask cols divisible by 4, got 6"),
            (MaskDirection.TRANSPOSABLE, (6, 4), "needs transposable mask rows divisible by 4, got 6"),
            (MaskDirection.FORWARD, (4,), "mask bits must form a non-empty 2-D matrix, got shape (4,)"),
            (MaskDirection.FORWARD, (0, 4), "mask bits must form a non-empty 2-D matrix, got shape (0, 4)"),
            (MaskDirection.BACKWARD, (4, 0), "mask bits must form a non-empty 2-D matrix, got shape (4, 0)"),
        ],
    )
    def test_rejects_bad_shape_for_direction(self, direction, shape, message):
        with pytest.raises(ValueError) as err:
            Mask(direction, np.zeros(shape, dtype=np.uint8), P24)
        assert str(err.value) == message

    def test_a_shape_wrong_in_both_dims_names_the_rows(self):
        # the rule of the generators: rows are checked first
        with pytest.raises(ValueError) as err:
            Mask(MaskDirection.TRANSPOSABLE, np.zeros((6, 6), dtype=np.uint8), P24)
        assert str(err.value) == "needs transposable mask rows divisible by 4, got 6"

    def test_direction_given_by_its_value(self):
        bits = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        mask = Mask("forward", bits, P24)
        assert mask.direction is MaskDirection.FORWARD
        assert format_mask(mask).splitlines()[0] == "forward 2 4"
        assert validate_mask(mask) == []
        with pytest.raises(ValueError, match="not a valid MaskDirection"):
            Mask("sideways", bits, P24)


@st.composite
def entry_point_cases(draw):
    """(weights, gradient, permutation, pattern) with up to 2 x 2 tiles, M up
    to 16 and every N; entries mix ties, zeros and magnitudes up to 1e300."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(1, m))
    shape = (m * draw(st.integers(1, 2)), m * draw(st.integers(1, 2)))
    values = st.one_of(
        st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 1e300, -1e300]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    )
    w = draw(hnp.arrays(np.float64, shape, elements=values))
    gradient = draw(hnp.arrays(np.float64, shape, elements=values))
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(shape[0])
    return w, gradient, perm, NmPattern(n, m)


class TestUncheckedEntryPoints:
    """The unchecked entry points that training dispatches to give the public
    functions' bits, and every generator hands ``_built_mask`` bits that the
    checking ``Mask`` constructor would accept unchanged."""

    @settings(max_examples=120, deadline=None)
    @given(entry_point_cases(), st.sampled_from(list(BinarizationCriterion)), st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_public_functions(self, case, criterion, seed):
        w, gradient, perm, pattern = case
        fwd = forward_mask(w, pattern)
        pairs = [
            (fwd, _forward_mask(w, pattern)),
            (
                backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=seed),
                _backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=seed),
            ),
        ]
        pairs += [(transposable_mask(w, pattern, t), _transposable_mask(w, pattern, t)) for t in TransposableMethod]
        for public, unchecked in pairs:
            assert (unchecked.direction, unchecked.pattern) == (public.direction, public.pattern)
            assert np.array_equal(unchecked.bits, public.bits)
            for bits in (public.bits, unchecked.bits):
                assert bits.dtype == np.uint8 and bits.flags.c_contiguous
                assert np.isin(bits, (0, 1)).all()
                assert Mask(public.direction, bits, pattern).bits is bits
        masked = fwd.apply(w)[perm]
        assert _count_eligible(masked, pattern) == count_eligible_blocks(masked, pattern)

    @settings(max_examples=120, deadline=None)
    @given(
        entry_point_cases(),
        st.sampled_from(list(BinarizationCriterion)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_backward_keys_from_the_refresh_rows(self, case, criterion, seed, one_per_block):
        # the refresh hands the kernel the rows it gathered, (fwd.bits * w)[perm],
        # whose masked-out entries are signed zeros; the keys built from them
        # must be the public function's, bit for bit, at 1:M and at N >= 2
        w, gradient, perm, pattern = case
        if one_per_block:
            pattern = NmPattern(1, pattern.m)
        w[(w == 0) & (np.random.default_rng(seed).random(w.shape) < 0.5)] = -0.0
        fwd = forward_mask(w, pattern)
        rows = fwd.apply(w)[perm]
        public = backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=seed)
        built = _backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=seed, masked_rows=rows)
        assert np.array_equal(built.bits, public.bits)
        assert built.bits.dtype == np.uint8 and built.bits.flags.c_contiguous
        assert np.array_equal(rows, fwd.apply(w)[perm])  # the rows are read, not written

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)], ids=str)
    def test_refuse_blocks_that_do_not_tile_the_matrix(self, shape):
        # each kernel checks the geometry of the blocks it cuts
        w = np.random.default_rng(10).normal(size=shape)
        rows, cols = shape
        calls = [(transposable_mask, _transposable_mask, (w, P24, t)) for t in TransposableMethod]
        if cols % 4:
            calls.append((forward_mask, _forward_mask, (w, P24)))
        else:
            fwd = forward_mask(w, P24)
            calls.append((backward_mask, _backward_mask, (w, fwd, np.arange(rows), P24)))
            calls.append((count_eligible_blocks, _count_eligible, (fwd.apply(w), P24)))
        message = f"needs matrix {'cols' if cols % 4 else 'rows'} divisible by 4, got 6"
        for public, unchecked, args in calls:
            with pytest.raises(ValueError) as expected:
                public(*args)
            with pytest.raises(ValueError) as err:
                unchecked(*args)
            assert str(err.value) == str(expected.value) == message


class TestPublicChecks:
    """Rejections of the public generators that no other test covers. The
    unchecked entry points trust their callers for the input checks; the
    block geometry (the divisibility case) and the gradient's checks are
    theirs too, so they raise those the same way."""

    @staticmethod
    def inputs():
        w = np.random.default_rng(0).normal(size=(4, 8))
        nan = w.copy()
        nan[1, 2] = np.nan
        return w, nan, forward_mask(w, P24)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda w, nan, fwd: forward_mask(nan, P24), "non-finite"),
            (lambda w, nan, fwd: forward_mask(np.zeros(8), P24), "2-D"),
            (lambda w, nan, fwd: transposable_mask(nan, P24), "non-finite"),
            (lambda w, nan, fwd: transposable_mask(np.zeros((8, 6)), P24), "^needs matrix cols divisible by 4, got 6$"),
            (lambda w, nan, fwd: backward_mask(nan, fwd, None, P24), "non-finite"),
            (
                lambda w, nan, fwd: backward_mask(w, transposable_mask(w, P24), None, P24),
                "needs a forward mask, got transposable",
            ),
            (lambda w, nan, fwd: backward_mask(w[:, :4], fwd, None, P24), r"forward mask shape \(4, 8\)"),
            (lambda w, nan, fwd: backward_mask(w, fwd, None, NmPattern(1, 4)), "pattern 2:4 does not match 1:4"),
            (
                lambda w, nan, fwd: backward_mask(
                    w, fwd, None, P24, BinarizationCriterion.GRADIENT_MAGNITUDE, gradient=nan
                ),
                "non-finite",
            ),
            (
                lambda w, nan, fwd: backward_mask(
                    w, fwd, None, P24, BinarizationCriterion.GRADIENT_MAGNITUDE, gradient=w[:, :4]
                ),
                r"gradient shape \(4, 4\)",
            ),
            (
                lambda w, nan, fwd: backward_mask(w, fwd, None, P24, "weight_magnitude"),
                "'weight_magnitude' is not a valid BinarizationCriterion",
            ),
            (lambda w, nan, fwd: count_eligible_blocks(nan, P24), "non-finite"),
        ],
    )
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(*self.inputs())


class TestKeptMagnitudes:
    def test_accepts_nested_lists(self):
        w = np.random.default_rng(62).normal(size=(8, 8))
        mask = transposable_mask(w, P24)
        assert kept_magnitude(w.tolist(), mask) == kept_magnitude(w, mask)
        assert np.array_equal(tile_kept_magnitudes(w.tolist(), mask, P24), tile_kept_magnitudes(w, mask, P24))
        assert np.array_equal(mask.apply(w.tolist()), mask.apply(w))

    def test_rejects_nan_weights(self):
        w = np.ones((4, 4))
        mask = transposable_mask(w, P24)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kept_magnitude(w, mask)
        with pytest.raises(ValueError, match="non-finite"):
            tile_kept_magnitudes(w, mask, P24)
        with pytest.raises(ValueError, match="non-finite"):
            mask.apply(w)

    def test_apply_rejects_a_matrix_of_another_shape(self):
        mask = forward_mask(np.ones((4, 4)), P24)
        with pytest.raises(ValueError) as err:
            mask.apply(np.ones((4, 8)))
        assert str(err.value) == "mask shape (4, 4) does not match matrix (4, 8)"


class TestMaskSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        mask = forward_mask(rng.normal(size=(4, 8)), P24)
        path = tmp_path / "mask.txt"
        save_mask(path, mask)
        back = load_mask(path)
        assert back.direction is mask.direction
        assert back.pattern == mask.pattern
        assert np.array_equal(back.bits, mask.bits)

    def test_round_trip_of_a_numpy_integer_pattern(self, tmp_path):
        pattern = NmPattern(np.int64(2), np.int32(4))
        mask = forward_mask(np.random.default_rng(62).normal(size=(4, 8)), pattern)
        path = tmp_path / "mask.txt"
        save_mask(path, mask)
        assert format_mask(mask).splitlines()[0] == "forward 2 4"
        back = load_mask(path)
        assert back.pattern == P24
        assert np.array_equal(back.bits, mask.bits)

    def test_header_format(self):
        mask = forward_mask(np.zeros((1, 4)), P24)
        lines = format_mask(mask).splitlines()
        assert lines[0] == "forward 2 4"
        assert lines[1] == "1 4"

    def test_parse_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            parse_mask("sideways 2 4\n1 4\n1 1 0 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "forward 2 4\n4\n1 1 0 0\n",  # one-token shape line
            "forward 2 4\n1 4 9\n1 1 0 0\n",  # three-token shape line
            "forward 2 4\n1 4\n1 1 0\n",  # short row
            "forward 2 4\n1 4\n1 2 0 0\n",  # an entry that is not 0 or 1
            "forward 2 4\n",  # no matrix block
            "",  # no header either
            "\n  \n",  # blank lines only
        ],
    )
    def test_parse_rejects_malformed_matrix_block(self, text):
        with pytest.raises(ValueError):
            parse_mask(text)
