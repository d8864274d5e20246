import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nm_sparse_kit.data import DatasetHandle, DatasetKind
from nm_sparse_kit.masks import BinarizationCriterion, backward_mask, forward_mask, transposable_mask
from nm_sparse_kit.permute import count_eligible_blocks, search_permutation
from nm_sparse_kit.tensorops import NmPattern
from nm_sparse_kit.training import (
    DivergenceError,
    SparseLinearLayer,
    StaleMaskError,
    StepMetrics,
    Strategy,
    TrainConfig,
    backward_bimask,
    backward_exact,
    evaluate_accuracy,
    init_layers,
    lr_at,
    refresh_masks,
    relu,
    softmax_cross_entropy,
    sparse_forward,
    train,
    weight_gradient,
)

P24 = NmPattern(2, 4)


def regular_support_weights(rng, rows, cols, pattern):
    """Weights whose top-N support is N-regular inside every tile, so the
    masked matrix is column-eligible everywhere under the identity permutation."""
    n, m = pattern.n, pattern.m
    support = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for b in range(cols // m):
            for k in range(n):
                support[i, b * m + (i + k) % m] = 1
    strong = rng.uniform(1.0, 2.0, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    weak = rng.uniform(0.01, 0.1, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    return np.where(support == 1, strong, weak)


def blob_data(rng, classes=4, dim=8, per_class=24):
    centers = rng.normal(size=(classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    xs, ys = [], []
    for c in range(classes):
        xs.append(centers[c] + 0.1 * rng.normal(size=(per_class, dim)))
        ys.append(np.full(per_class, c, dtype=np.int64))
    return DatasetHandle(
        DatasetKind.SYNTHETIC_BLOBS, dim, classes, np.concatenate(xs), np.concatenate(ys)
    )


class TestLayerConstruction:
    def test_dense_allows_any_shape(self):
        layer = SparseLinearLayer(np.zeros((5, 5)), P24, Strategy.DENSE)
        assert layer.fwd_mask is None
        assert np.array_equal(layer.masked_weights(), layer.w)

    def test_vanilla_needs_cols_divisible(self):
        with pytest.raises(ValueError, match="cols divisible"):
            SparseLinearLayer(np.zeros((4, 6)), P24, Strategy.VANILLA)
        SparseLinearLayer(np.zeros((5, 8)), P24, Strategy.VANILLA)  # rows are free

    def test_bimask_needs_both_divisible(self):
        with pytest.raises(ValueError, match="rows divisible"):
            SparseLinearLayer(np.zeros((6, 8)), P24, Strategy.BI_MASK)

    def test_bimask_invariant_holds_at_construction(self):
        rng = np.random.default_rng(0)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        assert (layer.bwd_mask.bits <= layer.fwd_mask.bits[layer.perm]).all()


class TestSparseForward:
    def test_dense_path_matches_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(5, 5))
        x = rng.normal(size=(5, 3))
        layer = SparseLinearLayer(w, P24, Strategy.DENSE)
        assert np.array_equal(sparse_forward(x, layer), w @ x)

    def test_identity_input_exposes_masked_rows(self):
        rng = np.random.default_rng(2)
        layer = SparseLinearLayer(rng.normal(size=(4, 4)), NmPattern(1, 4), Strategy.VANILLA)
        out = sparse_forward(np.eye(4), layer)
        assert np.array_equal(out, layer.fwd_mask.apply(layer.w))

    def test_mask_then_multiply_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(8, 5))
        layer = SparseLinearLayer(w, P24, Strategy.VANILLA)
        expected = (forward_mask(w, P24).bits * w) @ x
        assert np.array_equal(sparse_forward(x, layer), expected)

    def test_shape_mismatch(self):
        layer = SparseLinearLayer(np.zeros((4, 4)), P24, Strategy.VANILLA)
        with pytest.raises(ValueError, match="inputs"):
            sparse_forward(np.zeros((5, 2)), layer)


class TestBackwardExact:
    def test_zero_gradient(self):
        layer = SparseLinearLayer(np.ones((4, 4)), P24, Strategy.VANILLA)
        assert np.array_equal(backward_exact(np.zeros((4, 2)), layer), np.zeros((4, 2)))

    def test_dense_reference(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 3))
        g = rng.normal(size=(5, 2))
        layer = SparseLinearLayer(w, P24, Strategy.DENSE)
        assert np.array_equal(backward_exact(g, layer), w.T @ g)

    def test_transpose_then_multiply_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(8, 8))
        g = rng.normal(size=(8, 3))
        layer = SparseLinearLayer(w, P24, Strategy.VANILLA)
        masked = forward_mask(w, P24).bits * w
        assert np.allclose(backward_exact(g, layer), masked.T @ g, rtol=0, atol=0)


class TestBackwardBimask:
    def make_layer(self, rng, rows=8, cols=8):
        return SparseLinearLayer(rng.normal(size=(rows, cols)), P24, Strategy.BI_MASK)

    def test_zero_gradient(self):
        layer = self.make_layer(np.random.default_rng(6))
        assert np.array_equal(backward_bimask(np.zeros((8, 2)), layer), np.zeros((8, 2)))

    def test_eligible_everywhere_equals_exact(self):
        rng = np.random.default_rng(7)
        w = regular_support_weights(rng, 8, 8, P24)
        layer = SparseLinearLayer(w, P24, Strategy.BI_MASK)
        assert count_eligible_blocks(layer.fwd_mask.apply(w), P24)[0] == 16
        g = rng.normal(size=(8, 4))
        assert np.allclose(backward_bimask(g, layer), backward_exact(g, layer), atol=1e-12)

    def test_permutation_equivalence_physical_reorder_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            w = rng.normal(size=(8, 8))
            g = rng.normal(size=(8, 3))
            layer = SparseLinearLayer(w, P24, Strategy.BI_MASK)
            perm = rng.permutation(8)
            layer.perm = perm
            cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=trial)
            refresh_masks(layer, 1, cfg)
            got = backward_bimask(g, layer)
            # physically reorder rows of the masked weights and the gradient
            phys = (layer.bwd_mask.bits * w[perm]).T @ g[perm]
            ref = (layer.bwd_mask.bits[np.argsort(perm)][perm] * w[perm]).T @ g[perm]
            assert np.array_equal(got, phys)
            assert np.allclose(got, ref, atol=1e-12)
            # and the unpermuted composition with the mask mapped back agrees
            unperm = (layer.bwd_mask.bits[np.argsort(perm)] * w).T @ g
            assert np.allclose(got, unperm, atol=1e-12)

    def test_stale_permutation_rejected(self):
        rng = np.random.default_rng(9)
        layer = self.make_layer(rng)
        layer.perm = rng.permutation(8)
        with pytest.raises(StaleMaskError, match="stale"):
            backward_bimask(rng.normal(size=(8, 2)), layer)

    def test_requires_bimask_strategy(self):
        layer = SparseLinearLayer(np.zeros((8, 8)), P24, Strategy.VANILLA)
        with pytest.raises(ValueError, match="bimask"):
            backward_bimask(np.zeros((8, 1)), layer)


@st.composite
def permuted_bimask_cases(draw):
    """(layer, g) for a bi-mask layer whose random row permutation
    is assigned before its refresh; M up to 16, weights heavy in ties and zeros."""
    m = draw(st.integers(2, 16))
    pattern = NmPattern(draw(st.integers(1, m)), m)
    rows, cols = m * draw(st.integers(1, 3)), m * draw(st.integers(1, 3))
    values = st.one_of(
        st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0]),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    w = draw(hnp.arrays(np.float64, (rows, cols), elements=values))
    criterion = draw(st.sampled_from(list(BinarizationCriterion)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = SparseLinearLayer(w, pattern, Strategy.BI_MASK, salt=int(rng.integers(100)))
    layer.prev_weight_grad = np.round(rng.normal(size=w.shape), 1)
    layer.perm = rng.permutation(rows)
    cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=int(rng.integers(100)))
    refresh_masks(layer, 1, cfg, criterion)
    return layer, rng.normal(size=(rows, 3))


class TestPermutationEquivalenceProperty:
    @settings(max_examples=80, deadline=None)
    @given(permuted_bimask_cases())
    def test_permuted_product_equals_the_unpermuted_forms(self, case):
        layer, g = case
        w, perm, fwd, bwd = layer.w, layer.perm, layer.fwd_mask.bits, layer.bwd_mask.bits
        assert (bwd <= fwd[perm]).all()
        got = backward_bimask(g, layer)
        for kept, grad in ((bwd * w[perm], g[perm]), (bwd[np.argsort(perm)] * w, g)):
            # relative to the magnitudes summed, so cancellation to ~0 passes
            scale = np.abs(kept).T @ np.abs(grad)
            assert (np.abs(got - kept.T @ grad) <= 1e-12 * scale).all()


class TestWeightGradient:
    def test_zero_input(self):
        layer = SparseLinearLayer(np.zeros((4, 4)), P24, Strategy.VANILLA)
        g = weight_gradient(np.ones((4, 3)), np.zeros((4, 3)), layer)
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_scalar_case(self):
        layer = SparseLinearLayer(np.zeros((1, 1)), P24, Strategy.DENSE)
        assert weight_gradient(np.array([[2.0]]), np.array([[3.0]]), layer).tolist() == [[6.0]]

    def test_finite_difference_oracle(self):
        # central differences of the mask-frozen loss w.r.t. the effective
        # (already masked) weights; the STE gradient must match densely
        rng = np.random.default_rng(10)
        for _ in range(5):
            layer = SparseLinearLayer(rng.normal(size=(5, 5)), P24, Strategy.DENSE)
            frozen_mask = (rng.random(size=(5, 5)) < 0.5).astype(np.float64)
            v = frozen_mask * layer.w
            x = rng.normal(size=(5, 6))
            labels = rng.integers(0, 5, size=6)

            def loss_of(vv):
                return softmax_cross_entropy(vv @ x, labels)[0]

            _, g_y = softmax_cross_entropy(v @ x, labels)
            got = weight_gradient(g_y, x, layer)
            step = 1e-5
            fd = np.zeros_like(v)
            for i in range(5):
                for j in range(5):
                    up = v.copy()
                    down = v.copy()
                    up[i, j] += step
                    down[i, j] -= step
                    fd[i, j] = (loss_of(up) - loss_of(down)) / (2 * step)
            assert np.max(np.abs(fd - got)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-12)

    def test_gradient_is_dense_despite_mask(self):
        rng = np.random.default_rng(11)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        g = weight_gradient(rng.normal(size=(8, 4)), rng.normal(size=(8, 4)), layer)
        assert np.count_nonzero(g) == g.size


class TestRefreshMasks:
    def test_search_happens_on_delta_t_multiples(self):
        rng = np.random.default_rng(12)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=100, k=10, seed=0)
        assert refresh_masks(layer, 100, cfg).searched
        assert not refresh_masks(layer, 101, cfg).searched

    def test_constant_weights_no_flips(self):
        rng = np.random.default_rng(13)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=0)
        assert refresh_masks(layer, 1, cfg).mask_flip_count == 0
        assert refresh_masks(layer, 2, cfg).mask_flip_count == 0

    def test_eligible_never_drops_below_incumbent_at_search(self):
        rng = np.random.default_rng(14)
        layer = SparseLinearLayer(rng.normal(size=(16, 8)), P24, Strategy.BI_MASK)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=1, k=30, seed=5)
        for it in range(1, 6):
            masked = forward_mask(layer.w, P24).apply(layer.w)
            incumbent = count_eligible_blocks(masked[layer.perm], P24)[0]
            stats = refresh_masks(layer, it, cfg)
            assert stats.eligible_blocks >= incumbent
            layer.w = layer.w + 0.01 * rng.normal(size=layer.w.shape)

    def test_scale_invariance_of_both_masks(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(8, 8))
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=3)
        a = SparseLinearLayer(w, P24, Strategy.BI_MASK)
        b = SparseLinearLayer(3.7 * w, P24, Strategy.BI_MASK)
        refresh_masks(a, 1, cfg)
        refresh_masks(b, 1, cfg)
        assert np.array_equal(a.fwd_mask.bits, b.fwd_mask.bits)
        assert np.array_equal(a.bwd_mask.bits, b.bwd_mask.bits)

    def test_gradient_criterion_falls_back_without_history(self):
        rng = np.random.default_rng(16)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=0)
        refresh_masks(layer, 1, cfg, BinarizationCriterion.GRADIENT_MAGNITUDE)
        reference = SparseLinearLayer(layer.w.copy(), P24, Strategy.BI_MASK)
        refresh_masks(reference, 1, cfg, BinarizationCriterion.WEIGHT_MAGNITUDE)
        assert np.array_equal(layer.bwd_mask.bits, reference.bwd_mask.bits)

    def test_transposable_strategy_refreshes_every_iteration(self):
        rng = np.random.default_rng(17)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.TRANSPOSABLE)
        cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
        layer.w = rng.normal(size=(8, 8))
        stats = refresh_masks(layer, 1, cfg)
        assert stats.mask_flip_count > 0  # new weights, new mask
        assert stats.eligible_block_ratio == 1.0


def refresh_oracle(state, strategy, pattern, iteration, config, criterion):
    """A mask refresh written the direct way, on a plain dict of layer state.

    Every product is rebuilt from the masks and the weights, and a seed is
    drawn on every call. Returns (flips, eligible, total).
    """
    w, old = state["w"], (state["fwd"], state["bwd"])
    seeds = np.random.SeedSequence([config.seed, iteration, state["salt"]]).generate_state(2)
    if strategy is Strategy.DENSE:
        state["fwd"] = None
    elif strategy is Strategy.TRANSPOSABLE:
        state["fwd"] = transposable_mask(w, pattern)
    else:
        state["fwd"] = forward_mask(w, pattern)
    eligible = total = 0
    if strategy is Strategy.BI_MASK:
        masked = state["fwd"].apply(w)
        if iteration % config.delta_t == 0:
            state["perm"] = search_permutation(
                masked, pattern, config.k, current=state["perm"], seed=int(seeds[0])
            ).chosen
        used = criterion
        if criterion is BinarizationCriterion.GRADIENT_MAGNITUDE and state["grad"] is None:
            used = BinarizationCriterion.WEIGHT_MAGNITUDE
        state["bwd"] = backward_mask(
            w, state["fwd"], state["perm"], pattern, used, gradient=state["grad"], seed=int(seeds[1])
        )
        eligible, total = count_eligible_blocks(state["fwd"].apply(w)[state["perm"]], pattern)
    flips = sum(int(np.sum(new.bits != was.bits)) for was, new in zip(old, (state["fwd"], state["bwd"])) if was is not None)
    return flips, eligible, total


class TestRefreshAgainstOracle:
    @pytest.mark.parametrize("criterion", list(BinarizationCriterion), ids=lambda c: c.value)
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("pattern", [NmPattern.parse(p) for p in ("2:4", "1:4", "2:8", "1:16")], ids=str)
    def test_masks_counts_and_products_match(self, pattern, strategy, criterion):
        rng = np.random.default_rng(pattern.m * 100 + pattern.n)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=2, k=8, seed=9)
        layer = SparseLinearLayer(rng.normal(size=(16, 32)), pattern, strategy, salt=3)
        state = {"w": layer.w, "perm": layer.perm, "fwd": layer.fwd_mask, "bwd": layer.bwd_mask,
                 "grad": None, "salt": 3}
        for iteration in range(1, 6):  # searches on iterations 2 and 4
            stats = refresh_masks(layer, iteration, cfg, criterion)
            flips, eligible, total = refresh_oracle(state, strategy, pattern, iteration, cfg, criterion)
            assert stats.searched == (strategy is Strategy.BI_MASK and iteration % 2 == 0)
            assert (stats.mask_flip_count, stats.eligible_blocks, stats.total_blocks) == (flips, eligible, total)
            assert np.array_equal(layer.perm, state["perm"])
            for got, want in ((layer.fwd_mask, state["fwd"]), (layer.bwd_mask, state["bwd"])):
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got.bits, want.bits)

            w = state["w"]
            x, g = rng.normal(size=(32, 5)), rng.normal(size=(16, 5))
            forward_w = w if state["fwd"] is None else state["fwd"].bits * w
            assert np.array_equal(sparse_forward(x, layer), forward_w @ x)
            assert np.array_equal(backward_exact(g, layer), forward_w.T @ g)
            if strategy is Strategy.BI_MASK:
                perm = state["perm"]
                assert np.array_equal(backward_bimask(g, layer), (state["bwd"].bits * w[perm]).T @ g[perm])

            state["grad"] = layer.prev_weight_grad = rng.normal(size=w.shape)
            if iteration != 3:  # iteration 4 searches on the weights iteration 3 saw
                state["w"] = layer.w = w + 0.1 * rng.normal(size=w.shape)

    @pytest.mark.parametrize("strategy", [Strategy.VANILLA, Strategy.TRANSPOSABLE, Strategy.BI_MASK])
    def test_assigned_weights_drop_the_masked_cache(self, strategy):
        rng = np.random.default_rng(25)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, strategy)
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        before = layer.masked_weights()
        with pytest.raises(ValueError, match="read-only"):
            before[0, 0] = 1.0  # shared by every product until the next refresh
        layer.w = rng.normal(size=(8, 8))
        assert np.array_equal(layer.masked_weights(), layer.fwd_mask.apply(layer.w))
        assert not np.array_equal(layer.masked_weights(), before)
        if strategy is Strategy.BI_MASK:
            g = rng.normal(size=(8, 3))
            perm = layer.perm
            assert np.array_equal(backward_bimask(g, layer), (layer.bwd_mask.bits * layer.w[perm]).T @ g[perm])


def train_oracle(layers, data, config, criterion):
    """train() as two phases: every layer's products first, then every update.

    Written over the public products, with the step metrics summed the
    direct way. Mutates the layers as train() does; returns the StepMetrics.
    """
    features, labels = np.ascontiguousarray(data.x_train.T), data.y_train
    per_epoch = len(labels) // config.batch_size
    total_iterations = config.epochs * per_epoch
    warmup_iterations = config.warmup_epochs * per_epoch
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xDA7A]))
    velocities = [np.zeros_like(layer.w) for layer in layers]
    steps, t = [], 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(labels))
        for b in range(per_epoch):
            t += 1
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            stats = [refresh_masks(layer, t, config, criterion) for layer in layers]
            hs, zs = [features[:, idx]], []
            for i, layer in enumerate(layers):
                zs.append(sparse_forward(hs[-1], layer))
                hs.append(relu(zs[-1]) if i < len(layers) - 1 else zs[-1])
            loss, g = softmax_cross_entropy(hs[-1], labels[idx])
            grads = [None] * len(layers)
            num = den = 0.0
            for i in reversed(range(len(layers))):
                grads[i] = weight_gradient(g, hs[i], layers[i])
                if layers[i].strategy is Strategy.BI_MASK:
                    g_x, g_ideal = backward_bimask(g, layers[i]), backward_exact(g, layers[i])
                    num += float(((g_x - g_ideal) ** 2).sum())
                    den += float((g_ideal**2).sum())
                else:
                    g_x = backward_exact(g, layers[i])
                g = g_x * (zs[i - 1] > 0) if i > 0 else None
            lr = lr_at(t, total_iterations, warmup_iterations, config.peak_lr)
            for layer, v, g_w in zip(layers, velocities, grads):
                layer.prev_weight_grad = g_w
                v *= config.momentum
                v += g_w + config.weight_decay * layer.w
                layer.w = layer.w - lr * v
            eligible = sum(s.eligible_blocks for s in stats)
            blocks = sum(s.total_blocks for s in stats)
            steps.append(StepMetrics(
                iteration=t,
                loss=loss,
                grad_gap_l2=math.sqrt(num) / math.sqrt(den) if den > 0 else 0.0,
                eligible_block_ratio=eligible / blocks if blocks else 1.0,
                mask_flip_count=sum(s.mask_flip_count for s in stats),
            ))
    return steps


TRAIN_CASES = [(s, BinarizationCriterion.WEIGHT_MAGNITUDE) for s in Strategy if s is not Strategy.BI_MASK]
TRAIN_CASES += [(Strategy.BI_MASK, c) for c in BinarizationCriterion]


class TestTrainAgainstOracle:
    @pytest.mark.parametrize("strategy, criterion", TRAIN_CASES, ids=lambda v: v.value)
    @pytest.mark.parametrize("pattern", [NmPattern(2, 4), NmPattern(1, 16)], ids=str)
    def test_weights_masks_and_metrics_match(self, pattern, strategy, criterion):
        data = blob_data(np.random.default_rng(26), classes=16, dim=16, per_class=4)
        # 64 samples in batches of 16: 8 iterations, searches on 3 and 6
        cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=1,
                          peak_lr=0.1, weight_decay=1e-3, seed=4)
        got, trace = train(init_layers([16, 32, 16], pattern, strategy, seed=4), data, cfg, criterion)
        want = init_layers([16, 32, 16], pattern, strategy, seed=4)
        assert trace.steps == train_oracle(want, data, cfg, criterion)
        for a, b in zip(got, want):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.perm, b.perm)
            for mask_a, mask_b in ((a.fwd_mask, b.fwd_mask), (a.bwd_mask, b.bwd_mask)):
                assert (mask_a is None) == (mask_b is None)
                assert mask_a is None or np.array_equal(mask_a.bits, mask_b.bits)


class TestSchedule:
    def test_warmup_then_cosine(self):
        peak = 0.1
        assert lr_at(1, 100, 10, peak) == pytest.approx(peak / 10)
        assert lr_at(10, 100, 10, peak) == pytest.approx(peak)
        assert lr_at(55, 100, 10, peak) == pytest.approx(0.5 * peak)
        assert lr_at(100, 100, 10, peak) == pytest.approx(0.0)

    def test_no_warmup(self):
        assert lr_at(50, 100, 0, 0.1) == pytest.approx(0.05)


class TestSoftmaxCrossEntropy:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        z = rng.normal(size=(4, 3))
        y = np.array([0, 2, 1])
        _, g = softmax_cross_entropy(z, y)
        step = 1e-6
        for i in range(4):
            for j in range(3):
                up = z.copy()
                down = z.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (softmax_cross_entropy(up, y)[0] - softmax_cross_entropy(down, y)[0]) / (2 * step)
                assert fd == pytest.approx(g[i, j], abs=1e-8)


class TestTrain:
    def test_vanilla_and_gapfree_bimask_share_trajectories(self):
        rng = np.random.default_rng(19)
        data = blob_data(rng)
        cfg = TrainConfig(
            epochs=3, batch_size=16, delta_t=10**9, k=1, warmup_epochs=1,
            peak_lr=1e-3, momentum=0.9, weight_decay=0.0, seed=7,
        )
        w1 = regular_support_weights(rng, 8, 8, P24)
        w2 = regular_support_weights(rng, 4, 8, P24)
        runs = {}
        for strategy in (Strategy.VANILLA, Strategy.BI_MASK):
            layers = [
                SparseLinearLayer(w1.copy(), P24, strategy, salt=0),
                SparseLinearLayer(w2.copy(), P24, strategy, salt=1),
            ]
            _, trace = train(layers, data, cfg)
            runs[strategy] = trace
        bi = runs[Strategy.BI_MASK]
        assert all(s.eligible_block_ratio == 1.0 for s in bi.steps)
        assert all(s.grad_gap_l2 <= 1e-12 for s in bi.steps)
        vanilla_losses = [s.loss for s in runs[Strategy.VANILLA].steps]
        bimask_losses = [s.loss for s in bi.steps]
        assert vanilla_losses == bimask_losses

    def test_zero_gap_whenever_ratio_is_one(self):
        rng = np.random.default_rng(20)
        data = blob_data(rng, classes=4, dim=8)
        cfg = TrainConfig(epochs=4, batch_size=16, delta_t=3, k=20, warmup_epochs=1,
                          peak_lr=0.05, weight_decay=0.0, seed=3)
        layers = init_layers([8, 8, 4], P24, Strategy.BI_MASK, seed=3)
        _, trace = train(layers, data, cfg)
        for s in trace:
            if s.eligible_block_ratio == 1.0:
                assert s.grad_gap_l2 <= 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        data = blob_data(rng)
        cfg = TrainConfig(epochs=2, batch_size=16, delta_t=5, k=10, warmup_epochs=1,
                          peak_lr=0.05, seed=11)
        traces = []
        for _ in range(2):
            layers = init_layers([8, 8, 4], P24, Strategy.BI_MASK, seed=11)
            _, trace = train(layers, data, cfg)
            traces.append([(s.loss, s.grad_gap_l2, s.mask_flip_count) for s in trace])
        assert traces[0] == traces[1]

    def test_divergence_aborts_with_iteration(self):
        rng = np.random.default_rng(22)
        data = blob_data(rng)
        cfg = TrainConfig(epochs=5, batch_size=16, delta_t=10**9, warmup_epochs=0,
                          peak_lr=1e25, momentum=0.9, seed=0)
        layers = init_layers([8, 8, 4], P24, Strategy.VANILLA, seed=0)
        with pytest.raises(DivergenceError) as err:
            train(layers, data, cfg)
        assert err.value.iteration >= 1

    def test_metrics_row_count(self):
        rng = np.random.default_rng(23)
        data = blob_data(rng, per_class=20)  # 80 samples
        cfg = TrainConfig(epochs=3, batch_size=32, delta_t=10**9, seed=0, warmup_epochs=0)
        layers = init_layers([8, 8, 4], P24, Strategy.VANILLA, seed=0)
        _, trace = train(layers, data, cfg)
        assert len(trace) == 3 * (80 // 32)

    def test_training_learns_blobs(self):
        rng = np.random.default_rng(24)
        data = blob_data(rng, per_class=32)
        cfg = TrainConfig(epochs=20, batch_size=16, delta_t=20, k=20, warmup_epochs=2,
                          peak_lr=0.1, weight_decay=1e-4, seed=1)
        layers = init_layers([8, 16, 4], P24, Strategy.BI_MASK, seed=1)
        layers, _ = train(layers, data, cfg)
        assert evaluate_accuracy(layers, data.x_train, data.y_train) >= 0.95


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"epochs": 1, "delta_t": 0},
            {"epochs": 1, "k": 0},
            {"epochs": 1, "peak_lr": 0.0},
            {"epochs": 1, "momentum": 1.0},
            {"epochs": 1, "weight_decay": -0.1},
            {"epochs": 1, "seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
