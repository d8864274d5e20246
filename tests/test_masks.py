import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment, linprog

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
    _block_keep_positions,
    _sampling_keys,
    _top_n,
    _transposable_count_dp,
)
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

    def test_needs_seed_for_sampling(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        fwd = forward_mask(w, P24)
        with pytest.raises(ValueError, match="seed"):
            backward_mask(w, fwd, None, P24, BinarizationCriterion.RANDOM)

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


def criterion_keys(w, fwd, perm, pattern, criterion, gradient, seed):
    """The selection statistic backward_mask ranks, for each criterion."""
    fwd_perm = fwd.bits[perm]
    if criterion is BinarizationCriterion.WEIGHT_MAGNITUDE:
        return np.abs(fwd_perm * w[perm])
    if criterion is BinarizationCriterion.GRADIENT_MAGNITUDE:
        return np.abs(fwd_perm * gradient[perm])
    if criterion is BinarizationCriterion.MULTINOMIAL_SAMPLING:
        return _sampling_keys(np.abs(fwd_perm * w[perm]), pattern.m, np.random.default_rng(seed))
    return np.random.default_rng(seed).random(w.shape)


def sampling_keys_unscaled(stat, m, rng):
    """The sampling keys as computed before overflowing blocks were rescaled."""
    rows, cols = stat.shape
    blocked = stat.reshape(rows // m, m, cols)
    totals = blocked.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(blocked > 0, np.log(blocked / np.where(totals > 0, totals, 1.0)), -np.inf)
        gumbel = -np.log(-np.log(rng.random(blocked.shape)))
    keys = np.where(blocked > 0, logp + gumbel, -1e12 + rng.random(blocked.shape))
    return keys.reshape(rows, cols)


KERNEL_PATTERNS = [NmPattern.parse(p) for p in ("1:4", "2:4", "4:4", "1:8", "4:8", "1:16", "16:16")]
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
        # -inf keys must never let a taken slot be picked twice
        rng = np.random.default_rng(100 + m)
        values = [-np.inf, -1e308, -1.0, -0.0, 0.0, 1e-300, 1.0, np.inf]
        for n in range(0, m + 1):
            for _ in range(20):
                keys = rng.choice(values, size=(9, m))
                keys[rng.random((9, m)) < 0.3] = -np.inf
                keys[0] = -np.inf
                assert np.array_equal(_top_n(keys.copy(), n), top_n_sort_oracle(keys, n))
                assert np.array_equal(
                    _block_keep_positions(keys.T.copy(), n, m), column_block_sort_oracle(keys.T, n, m)
                )


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
        assert np.isfinite(_sampling_keys(np.abs(fwd.apply(w)), 4, np.random.default_rng(1))).all()

    def test_underflowing_shares_keep_finite_keys(self):
        # a 1e-320 entry's share of a 1e300 block underflows to zero; its key
        # is log(x) - log(total) instead of -inf, and every other key is unchanged
        stat = np.where(np.arange(16).reshape(4, 4) % 3 == 0, 1e300, 1e-320)
        keys = _sampling_keys(stat, 4, np.random.default_rng(0))
        old = sampling_keys_unscaled(stat, 4, np.random.default_rng(0))
        assert np.isfinite(keys).all()
        under = np.isneginf(old)
        assert under.any()
        assert np.array_equal(keys[~under], old[~under])

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

    def test_finite_totals_give_unchanged_keys(self):
        rng = np.random.default_rng(8)
        for scale in (1.0, 1e300, 1e-300):
            stat = np.abs(np.round(rng.normal(size=(8, 12)), 1)) * scale
            got = _sampling_keys(stat, 4, np.random.default_rng(3))
            assert np.array_equal(got, sampling_keys_unscaled(stat, 4, np.random.default_rng(3)))
        # one overflowing block leaves every other block's keys as they were
        stat = np.abs(rng.normal(size=(8, 12)))
        stat[:4, 5] = NEAR_MAX
        got = _sampling_keys(stat, 4, np.random.default_rng(4))
        with np.errstate(over="ignore"):
            old = sampling_keys_unscaled(stat, 4, np.random.default_rng(4))
        finite_block = np.ones(stat.shape, dtype=bool)
        finite_block[:4, 5] = False
        assert np.array_equal(got[finite_block], old[finite_block])
        assert np.isfinite(got[:4, 5]).all()


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


GREEDY_PATTERNS = [NmPattern.parse(p) for p in ("1:4", "2:4", "1:8", "2:8", "4:8", "1:16")]


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

    def test_range_guards(self):
        with pytest.raises(ValueError, match="tile_rows"):
            mask_diversity(P24, MaskFamily.VANILLA)
        with pytest.raises(ValueError, match="up to m = 16"):
            mask_diversity(NmPattern(1, 32), MaskFamily.TRANSPOSABLE)
        with pytest.raises(ValueError, match="tile"):
            mask_diversity(P24, MaskFamily.TRANSPOSABLE, tile_rows=8)


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
        ],
    )
    def test_rejects_bad_shape_for_direction(self, direction, shape, message):
        with pytest.raises(ValueError) as err:
            Mask(direction, np.zeros(shape, dtype=np.uint8), P24)
        assert str(err.value) == message


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
        ],
    )
    def test_parse_rejects_malformed_matrix_block(self, text):
        with pytest.raises(ValueError):
            parse_mask(text)
