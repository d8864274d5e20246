import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nm_sparse_kit import training
from nm_sparse_kit.data import DatasetHandle
from nm_sparse_kit.masks import BinarizationCriterion, backward_mask, forward_mask, transposable_mask
from nm_sparse_kit.permute import count_eligible_blocks, search_permutation
from nm_sparse_kit.tensorops import NmPattern
from nm_sparse_kit.training import (
    DivergenceError,
    LayerStep,
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
    return DatasetHandle(dim, classes, np.concatenate(xs), np.concatenate(ys))


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

    @pytest.mark.parametrize("dims", [[0, 4], [4, 0], [8, 0, 4], [-4, 4]], ids=str)
    def test_init_layers_refuses_a_dimension_below_1(self, dims):
        # a zero fan-in would divide by zero in the He scale
        with pytest.raises(ValueError, match=r"layer dimensions must be at least 1, got \["):
            init_layers(dims, P24, Strategy.DENSE, seed=0)

    @pytest.mark.parametrize("dims", [[32], []], ids=str)
    def test_init_layers_needs_an_input_and_an_output_dimension(self, dims):
        with pytest.raises(ValueError, match="^need at least an input and an output dimension$"):
            init_layers(dims, P24, Strategy.DENSE, seed=0)

    @pytest.mark.parametrize(
        "strategy, shape, message",
        [
            (Strategy.VANILLA, (4, 6), "needs matrix cols divisible by 4, got 6"),
            (Strategy.BI_MASK, (6, 6), "needs matrix cols divisible by 4, got 6"),
            (Strategy.BI_MASK, (6, 8), "needs matrix rows divisible by 4, got 6"),
            (Strategy.TRANSPOSABLE, (6, 6), "needs matrix rows divisible by 4, got 6"),
            (Strategy.TRANSPOSABLE, (8, 6), "needs matrix cols divisible by 4, got 6"),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_shape_is_checked_once_at_construction(self, strategy, shape, message):
        # the constructor's first refresh raises it from the kernel that cuts the blocks
        with pytest.raises(ValueError) as err:
            SparseLinearLayer(np.zeros(shape), P24, strategy)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "shape, strategy, name, value, message",
        [
            ((4, 6), Strategy.DENSE, "strategy", Strategy.VANILLA, "needs matrix cols divisible by 4, got 6"),
            ((8, 12), Strategy.VANILLA, "pattern", NmPattern(1, 8), "needs matrix cols divisible by 8, got 12"),
        ],
        ids=["dense-to-vanilla", "2:4-to-1:8"],
    )
    def test_refresh_checks_a_reassigned_forward_geometry(self, shape, strategy, name, value, message):
        # the forward kernel refuses before it cuts a block that straddles rows
        layer = SparseLinearLayer(np.random.default_rng(8).normal(size=shape), P24, strategy)
        built = layer.fwd_mask
        setattr(layer, name, value)
        with pytest.raises(ValueError) as err:
            refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert str(err.value) == message
        assert layer.fwd_mask is built

    def test_refresh_checks_a_reassigned_backward_geometry(self):
        layer = SparseLinearLayer(np.random.default_rng(9).normal(size=(6, 8)), P24, Strategy.VANILLA)
        layer.strategy = Strategy.BI_MASK
        with pytest.raises(ValueError) as err:
            refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert str(err.value) == "needs matrix rows divisible by 4, got 6"

    @pytest.mark.parametrize("delta_t", [10**9, 1], ids=["no-search", "search"])
    def test_a_refresh_that_raises_leaves_the_layer_as_it_was(self, delta_t):
        layer = SparseLinearLayer(np.random.default_rng(9).normal(size=(6, 8)), P24, Strategy.VANILLA)
        built, perm = layer.fwd_mask, layer.perm
        layer.strategy = Strategy.BI_MASK
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=delta_t, k=4, seed=0)
        with pytest.raises(ValueError, match="needs matrix rows divisible by 4, got 6"):
            refresh_masks(layer, 1, cfg)
        assert layer.fwd_mask is built and not built.bits.flags.writeable
        assert layer.perm is perm and layer.bwd_mask is None and layer._bwd_weights is None

        # a bi-mask layer whose backward kernel raises keeps its masks and operand
        layer = SparseLinearLayer(np.random.default_rng(9).normal(size=(8, 8)), P24, Strategy.BI_MASK)
        built = (layer.fwd_mask, layer.bwd_mask, layer.perm, layer.masked_weights(), layer._bwd_weights)
        layer.prev_weight_grad = np.ones((8, 4))
        with pytest.raises(ValueError, match=r"gradient shape \(8, 4\)"):
            refresh_masks(layer, 1, cfg, BinarizationCriterion.GRADIENT_MAGNITUDE)
        after = (layer.fwd_mask, layer.bwd_mask, layer.perm, layer.masked_weights(), layer._bwd_weights)
        assert all(a is b for a, b in zip(after, built))
        g = np.random.default_rng(10).normal(size=(8, 3))
        assert np.array_equal(backward_bimask(g, layer), built[4].T @ g[built[2]])

    def test_a_refresh_to_dense_drops_the_forward_mask(self):
        rng = np.random.default_rng(10)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.VANILLA)
        layer.strategy = Strategy.DENSE
        layer.w = rng.normal(size=(8, 8))
        assert refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0)).mask_flip_count == 0
        assert layer.fwd_mask is None
        assert layer.masked_weights() is layer.w
        assert np.array_equal(sparse_forward(np.eye(8), layer), layer.w)

    @pytest.mark.parametrize("strategy", [Strategy.VANILLA, Strategy.TRANSPOSABLE], ids=lambda s: s.value)
    def test_a_refresh_away_from_bimask_drops_the_backward_mask(self, strategy):
        rng = np.random.default_rng(11)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        old_fwd = layer.fwd_mask
        layer.strategy = strategy
        layer.w = rng.normal(size=(8, 8))
        stats = refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert layer.bwd_mask is None
        # only the forward mask, which exists before and after, counts flips
        assert stats.mask_flip_count == int(np.count_nonzero(layer.fwd_mask.bits != old_fwd.bits))
        with pytest.raises(ValueError, match="needs a bimask layer"):
            backward_bimask(rng.normal(size=(8, 2)), layer)

    @pytest.mark.parametrize(
        "bad",
        [np.arange(7), np.array([0, 1, 2, 3, 4, 5, 6, 6]), np.array([-1, 1, 2, 3, 4, 5, 6, 7]),
         np.arange(8.0), None],
        ids=["wrong-length", "duplicate", "negative", "float", "none"],
    )
    def test_perm_is_checked_at_assignment(self, bad):
        layer = SparseLinearLayer(np.random.default_rng(3).normal(size=(8, 8)), P24, Strategy.BI_MASK)
        kept = layer.perm
        with pytest.raises(ValueError, match="^not a permutation of 8 row indices"):
            layer.perm = bad
        assert layer.perm is kept

    def test_perm_is_a_read_only_int64_copy(self):
        layer = SparseLinearLayer(np.random.default_rng(4).normal(size=(8, 8)), P24, Strategy.BI_MASK)
        source = np.arange(8, dtype=np.int32)[::-1]
        layer.perm = source
        assert layer.perm.dtype == np.int64 and not np.shares_memory(layer.perm, source)
        with pytest.raises(ValueError, match="read-only"):
            layer.perm[0] = 1
        source[:] = 0
        assert np.array_equal(layer.perm, np.arange(8)[::-1])

    def test_the_layers_own_permutations_are_read_only_int64(self):
        # the identity at construction and a search's choice skip the setter,
        # so the layer makes them read-only itself
        layer = SparseLinearLayer(np.random.default_rng(4).normal(size=(8, 8)), P24, Strategy.BI_MASK)
        config = TrainConfig(epochs=1, batch_size=1, delta_t=2, k=8, seed=0)
        for iteration in (None, 2):
            if iteration is not None:
                assert refresh_masks(layer, iteration, config).searched
            assert layer.perm.dtype == np.int64 and not layer.perm.flags.writeable
            kept = layer.perm.copy()
            with pytest.raises(ValueError, match="read-only"):
                layer.perm[0] = kept[1]
            assert np.array_equal(layer.perm, kept)

    def test_any_perm_assignment_leaves_the_backward_mask_stale(self):
        # any assignment drops the backward operand, so equal values count as a change
        rng = np.random.default_rng(5)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        g = rng.normal(size=(8, 2))
        before = backward_bimask(g, layer)
        layer.perm = layer.perm
        with pytest.raises(StaleMaskError, match="stale"):
            backward_bimask(g, layer)
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert np.array_equal(backward_bimask(g, layer), before)

    def test_bimask_invariant_holds_at_construction(self):
        rng = np.random.default_rng(0)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        assert (layer.bwd_mask.bits <= layer.fwd_mask.bits[layer.perm]).all()

    def test_strategy_given_by_its_value(self):
        layer = SparseLinearLayer(np.random.default_rng(0).normal(size=(8, 8)), P24, "bimask")
        assert layer.strategy is Strategy.BI_MASK
        assert layer.bwd_mask is not None
        with pytest.raises(ValueError, match="not a valid Strategy"):
            SparseLinearLayer(np.zeros((8, 8)), P24, "bi-mask")

    def test_forward_mask_is_replaced_only_by_a_refresh(self):
        rng = np.random.default_rng(0)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.VANILLA)
        built = layer.fwd_mask
        with pytest.raises(AttributeError):
            layer.fwd_mask = forward_mask(rng.normal(size=(8, 8)), P24)
        assert layer.fwd_mask is built
        layer.w = rng.normal(size=(8, 8))
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert layer.fwd_mask is not built
        assert np.array_equal(layer.fwd_mask.bits, forward_mask(layer.w, P24).bits)
        assert np.array_equal(layer.masked_weights(), layer.fwd_mask.bits * layer.w)

    def test_backward_mask_is_replaced_only_by_a_refresh(self):
        rng = np.random.default_rng(1)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        built = layer.bwd_mask
        with pytest.raises(AttributeError):
            layer.bwd_mask = forward_mask(rng.normal(size=(8, 8)), P24)
        assert layer.bwd_mask is built
        g = rng.normal(size=(8, 3))
        backward_bimask(g, layer)
        perm = rng.permutation(8)
        layer.perm = perm  # still assignable, but leaves the backward mask stale
        with pytest.raises(StaleMaskError, match="stale"):
            backward_bimask(g, layer)
        assert layer.bwd_mask is built
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        assert layer.bwd_mask is not built
        expected = backward_mask(layer.w, layer.fwd_mask, perm, P24, BinarizationCriterion.WEIGHT_MAGNITUDE)
        assert np.array_equal(layer.bwd_mask.bits, expected.bits)
        physical = (layer.bwd_mask.bits * layer.masked_weights()[perm]).T @ g[perm]
        assert np.array_equal(backward_bimask(g, layer), physical)

    @pytest.mark.parametrize("strategy", [Strategy.VANILLA, Strategy.TRANSPOSABLE, Strategy.BI_MASK])
    def test_masks_are_read_only_in_place(self, strategy):
        rng = np.random.default_rng(6)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, strategy)
        for refreshed in (False, True):
            if refreshed:
                layer.w = rng.normal(size=(8, 8))
                refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, delta_t=1, k=4, seed=0))
            masks = [m for m in (layer.fwd_mask, layer.bwd_mask) if m is not None]
            assert len(masks) == (2 if strategy is Strategy.BI_MASK else 1)
            for mask in masks:
                kept = mask.bits.copy()
                with pytest.raises(ValueError, match="read-only"):
                    mask.bits[:] = 1
                assert np.array_equal(mask.bits, kept)
        assert np.array_equal(layer.masked_weights(), layer.fwd_mask.bits * layer.w)

    def test_generated_masks_stay_writable(self):
        w = np.random.default_rng(7).normal(size=(8, 8))
        fwd = forward_mask(w, P24)
        masks = [fwd, transposable_mask(w, P24), backward_mask(w, fwd, None, P24, BinarizationCriterion.WEIGHT_MAGNITUDE)]
        assert all(mask.bits.flags.writeable for mask in masks)


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

    def test_shape_mismatch(self):
        layer = SparseLinearLayer(np.zeros((4, 4)), P24, Strategy.VANILLA)
        with pytest.raises(ValueError, match="^layer emits 4-dim outputs, got gradient 5$"):
            backward_exact(np.zeros((5, 2)), layer)


class TestBackwardBimask:
    def make_layer(self, rng, rows=8, cols=8):
        return SparseLinearLayer(rng.normal(size=(rows, cols)), P24, Strategy.BI_MASK)

    def test_zero_gradient(self):
        layer = self.make_layer(np.random.default_rng(6))
        assert np.array_equal(backward_bimask(np.zeros((8, 2)), layer), np.zeros((8, 2)))

    def test_shape_mismatch(self):
        layer = self.make_layer(np.random.default_rng(6))
        with pytest.raises(ValueError, match="^layer emits 8-dim outputs, got gradient 4$"):
            backward_bimask(np.zeros((4, 2)), layer)

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

    @pytest.mark.parametrize(
        "g_shape, x_shape, message",
        [
            ((5, 3), (4, 3), r"^gradient/input shapes \(5, 3\)/\(4, 3\) do not fit layer \(4, 4\)$"),
            ((4, 3), (5, 3), r"^gradient/input shapes \(4, 3\)/\(5, 3\) do not fit layer \(4, 4\)$"),
            ((4, 3), (4, 2), "^batch mismatch: gradient has 3 columns, input 2$"),
        ],
        ids=["outputs", "inputs", "batch"],
    )
    def test_shape_mismatch(self, g_shape, x_shape, message):
        layer = SparseLinearLayer(np.zeros((4, 4)), P24, Strategy.VANILLA)
        with pytest.raises(ValueError, match=message):
            weight_gradient(np.zeros(g_shape), np.zeros(x_shape), layer)

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

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("pattern", [NmPattern.parse(p) for p in ("2:4", "1:16", "2:8")], ids=str)
    def test_constant_weights_no_flips(self, pattern, strategy):
        """A fresh layer's masks are those a non-search refresh builds from the same weights."""
        rng = np.random.default_rng(13)
        layer = SparseLinearLayer(rng.normal(size=(32, 32)), pattern, strategy)
        built = (layer.fwd_mask, layer.bwd_mask)
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=0)
        for iteration in (1, 2):
            assert refresh_masks(layer, iteration, cfg).mask_flip_count == 0
            assert np.array_equal(layer.perm, np.arange(32))
            for got, want in zip((layer.fwd_mask, layer.bwd_mask), built):
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got.bits, want.bits)
        assert (built[0] is None) == (strategy is Strategy.DENSE)
        assert (built[1] is None) == (strategy is not Strategy.BI_MASK)

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

    @pytest.mark.parametrize("criterion", list(BinarizationCriterion), ids=lambda c: c.value)
    def test_criterion_given_by_its_value(self, criterion):
        rng = np.random.default_rng(18)
        w, grad = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=2, k=4, seed=3)
        layers = []
        for given in (criterion, criterion.value):
            layer = SparseLinearLayer(w, P24, Strategy.BI_MASK, salt=1)
            layer.prev_weight_grad = grad
            for iteration in (1, 2):  # the second one searches
                refresh_masks(layer, iteration, cfg, given)
            layers.append(layer)
        member, value = layers
        assert np.array_equal(value.perm, member.perm)
        assert np.array_equal(value.bwd_mask.bits, member.bwd_mask.bits)
        assert np.array_equal(value._bwd_weights, member._bwd_weights)

    def test_bogus_criterion_value_is_refused(self):
        layer = SparseLinearLayer(np.random.default_rng(19).normal(size=(8, 8)), P24, Strategy.BI_MASK)
        with pytest.raises(ValueError, match="'weight_magnitude' is not a valid BinarizationCriterion"):
            refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0), "weight_magnitude")

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
        initial = rng.normal(size=(8, 8))
        layer = SparseLinearLayer(initial, P24, strategy)
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
        before = layer.masked_weights()
        with pytest.raises(ValueError, match="read-only"):
            before[0, 0] = 1.0  # shared by every product until the next refresh
        with pytest.raises(ValueError, match="read-only"):
            layer.w[0, 0] = 1.0  # would leave the masked weights stale
        assert initial.flags.writeable  # the caller's own array is left as it was
        layer.w = rng.normal(size=(8, 8))
        assert np.array_equal(layer.masked_weights(), layer.fwd_mask.apply(layer.w))
        assert not np.array_equal(layer.masked_weights(), before)
        if strategy is Strategy.BI_MASK:
            # the backward operand is built only by a refresh, so until then the product refuses
            g = rng.normal(size=(8, 3))
            with pytest.raises(StaleMaskError, match="stale"):
                backward_bimask(g, layer)
            refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, seed=0))
            perm = layer.perm
            assert np.array_equal(backward_bimask(g, layer), (layer.bwd_mask.bits * layer.w[perm]).T @ g[perm])

    @pytest.mark.parametrize("delta_t", [10**9, 1], ids=["no-search", "search"])
    def test_the_backward_operand_is_read_only_and_its_own_array(self, delta_t):
        rng = np.random.default_rng(27)
        layer = SparseLinearLayer(rng.normal(size=(8, 8)), P24, Strategy.BI_MASK)
        layer.perm = rng.permutation(8)
        layer.w = rng.normal(size=(8, 8))
        refresh_masks(layer, 1, TrainConfig(epochs=1, batch_size=1, delta_t=delta_t, k=4, seed=0))
        operand, masked = layer._bwd_weights, layer.masked_weights()
        assert np.array_equal(operand, layer.bwd_mask.bits * masked[layer.perm])
        assert operand.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            operand[0, 0] = 1.0
        assert not np.shares_memory(operand, masked)
        assert not np.shares_memory(operand, layer.w)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_refresh_backward_mask_is_the_public_one(self, data):
        # the refresh builds the backward keys from the rows it gathered; the
        # public function gathers w again, and the two must agree bit for bit
        m = data.draw(st.integers(2, 16))
        n = data.draw(st.sampled_from([1, data.draw(st.integers(2, m))]))
        pattern = NmPattern(n, m)
        shape = (m * data.draw(st.integers(1, 2)), m * data.draw(st.integers(1, 2)))
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300])
        w = data.draw(hnp.arrays(np.float64, shape, elements=values))
        gradient = data.draw(hnp.arrays(np.float64, shape, elements=values))
        criterion = data.draw(st.sampled_from(list(BinarizationCriterion)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        layer = SparseLinearLayer(w, pattern, Strategy.BI_MASK, salt=int(rng.integers(100)))
        layer.perm = rng.permutation(shape[0])
        layer.prev_weight_grad = gradient
        cfg = TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=int(rng.integers(100)))
        refresh_masks(layer, 1, cfg, criterion)
        seed = int(np.random.SeedSequence([cfg.seed, 1, layer.salt]).generate_state(2)[1])
        public = backward_mask(w, layer.fwd_mask, layer.perm, pattern, criterion, gradient=gradient, seed=seed)
        bits = layer.bwd_mask.bits
        assert np.array_equal(bits, public.bits)
        assert bits.dtype == np.uint8 and bits.flags.c_contiguous and not bits.flags.writeable

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_callers_arrays_do_not_alias_the_weights(self, strategy):
        rng = np.random.default_rng(26)
        initial = rng.normal(size=(8, 8))
        layer = SparseLinearLayer(initial, P24, strategy)
        for source in (initial, rng.normal(size=(8, 8))):
            if source is not initial:
                layer.w = source
            w, masked = source.copy(), layer.masked_weights().copy()
            assert not np.shares_memory(layer.w, source)
            source[:] = 100.0
            assert np.array_equal(layer.w, w)
            assert np.array_equal(layer.masked_weights(), masked)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_masked_weights_check_assigned_weights(self, strategy):
        # the setter checks what it is given, so the products take it as it is
        layer = SparseLinearLayer(np.random.default_rng(28).normal(size=(8, 8)), P24, strategy)
        kept = layer.w
        with pytest.raises(ValueError, match="layer weights are"):
            layer.w = np.ones((1, 8))
        bad = np.ones((8, 8))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            layer.w = bad
        assert layer.w is kept

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_assigned_weights_are_stored_as_float64(self, strategy):
        rng = np.random.default_rng(29)
        values = rng.normal(size=(8, 8))
        layer = SparseLinearLayer(values.tolist(), P24, strategy)
        assert layer.w.dtype == np.float64 and np.array_equal(layer.w, values)
        single = rng.normal(size=(8, 8)).astype(np.float32)
        layer.w = single
        assert layer.w.dtype == np.float64 and np.array_equal(layer.w, single)
        layer.w = values.tolist()
        assert layer.w.dtype == np.float64 and np.array_equal(layer.w, values)
        assert np.array_equal(sparse_forward(np.eye(8), layer), layer.masked_weights())


def relu(z):
    return np.maximum(z, 0.0)


def train_oracle(layers, data, config, criterion):
    """train() as two phases: every layer's products first, then every update.

    Written over the public products, with the step metrics summed the
    direct way. Mutates the layers as train() does; returns the StepMetrics
    and, per step, each layer's (flips, eligible, total, searched, num, den),
    with num and den 0.0 off Bi-Mask.
    """
    features, labels = np.ascontiguousarray(data.x_train.T), data.y_train
    per_epoch = len(labels) // config.batch_size
    total_iterations = config.epochs * per_epoch
    warmup_iterations = config.warmup_epochs * per_epoch
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xDA7A]))
    velocities = [np.zeros_like(layer.w) for layer in layers]
    steps, layer_steps, t = [], [], 0
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
            nums, dens = [0.0] * len(layers), [0.0] * len(layers)
            num = den = 0.0
            for i in reversed(range(len(layers))):
                grads[i] = weight_gradient(g, hs[i], layers[i])
                if layers[i].strategy is Strategy.BI_MASK:
                    g_x, g_ideal = backward_bimask(g, layers[i]), backward_exact(g, layers[i])
                    nums[i], dens[i] = float(((g_x - g_ideal) ** 2).sum()), float((g_ideal**2).sum())
                    num += nums[i]
                    den += dens[i]
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
            searched = [layer.strategy is Strategy.BI_MASK and t % config.delta_t == 0 for layer in layers]
            layer_steps.append([
                (s.mask_flip_count, s.eligible_blocks, s.total_blocks, found, n, d)
                for s, found, n, d in zip(stats, searched, nums, dens)
            ])
    return steps, layer_steps


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
        want_steps, want_layer_steps = train_oracle(want, data, cfg, criterion)
        assert trace.steps == want_steps
        assert [
            [(r.mask_flip_count, r.eligible_blocks, r.total_blocks, r.searched, r.gap_num, r.gap_den) for r in records]
            for records in trace.layer_steps
        ] == want_layer_steps
        for a, b in zip(got, want):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.perm, b.perm)
            for mask_a, mask_b in ((a.fwd_mask, b.fwd_mask), (a.bwd_mask, b.bwd_mask)):
                assert (mask_a is None) == (mask_b is None)
                assert mask_a is None or np.array_equal(mask_a.bits, mask_b.bits)


class TestStepMetricsOf:
    def test_gap_terms_add_top_layer_first(self):
        # top layer first, 3.0 absorbs each 1.5e-16; added forward, or by a
        # compensated sum, the two reach one ulp of 3.0 (at 1.0 the square
        # root would round that ulp away)
        records = [LayerStep(gap_num=num, gap_den=den) for num, den in ((1.5e-16, 0.0), (1.5e-16, 0.0), (3.0, 3.0))]
        assert StepMetrics.of(7, 0.5, records).grad_gap_l2 == 1.0
        assert math.sqrt(math.fsum(r.gap_num for r in records)) / math.sqrt(3.0) == 1.0000000000000002
        assert StepMetrics.of(7, 0.5, records[::-1]).grad_gap_l2 == 1.0000000000000002

    def test_totals_over_the_layers(self):
        records = [LayerStep(mask_flip_count=3, eligible_blocks=1, total_blocks=4),
                   LayerStep(mask_flip_count=2, eligible_blocks=2, total_blocks=4, gap_num=1.0, gap_den=4.0)]
        assert StepMetrics.of(2, 0.25, records) == StepMetrics(2, 0.25, 0.5, 3 / 8, 5)
        no_blocks = [LayerStep(mask_flip_count=1), LayerStep()]
        assert StepMetrics.of(1, 0.5, no_blocks) == StepMetrics(1, 0.5, 0.0, 1.0, 1)
        assert no_blocks[0].eligible_block_ratio == 1.0


class TestSchedule:
    def test_warmup_then_cosine(self):
        peak = 0.1
        assert lr_at(1, 100, 10, peak) == pytest.approx(peak / 10)
        assert lr_at(10, 100, 10, peak) == pytest.approx(peak)
        assert lr_at(55, 100, 10, peak) == pytest.approx(0.5 * peak)
        assert lr_at(100, 100, 10, peak) == pytest.approx(0.0)

    def test_no_warmup(self):
        assert lr_at(50, 100, 0, 0.1) == pytest.approx(0.05)

    def test_no_decay_span_holds_the_peak(self):
        # warmup fills the whole schedule: past it there is no cosine to follow
        assert lr_at(5, 3, 3, 0.1) == 0.1


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


def softmax_cross_entropy_oracle(logits, labels):
    """The textbook form: new arrays at every step and np.mean for the loss."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=0, keepdims=True)
    batch = logits.shape[1]
    loss = float(-np.mean(np.log(probs[labels, np.arange(batch)] + 1e-300)))
    grad = probs.copy()
    grad[labels, np.arange(batch)] -= 1.0
    return loss, grad / batch


class TestSoftmaxInPlace:
    @pytest.mark.parametrize("shape", [(16, 32), (4, 1), (1, 5), (10, 7)])
    def test_bit_equal_to_the_textbook_form_and_leaves_logits_alone(self, shape):
        rng = np.random.default_rng(19)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            logits = rng.normal(size=shape) * scale
            labels = rng.integers(shape[0], size=shape[1])
            before = logits.copy()
            loss, grad = softmax_cross_entropy(logits, labels)
            want_loss, want_grad = softmax_cross_entropy_oracle(logits, labels)
            assert np.array_equal(logits, before)
            assert loss == want_loss or (math.isnan(loss) and math.isnan(want_loss))
            assert grad.tobytes() == want_grad.tobytes()


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

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize(
        "dims, overrides, iteration",
        [
            ([8, 8, 4], dict(peak_lr=1e25), 8),  # the loss overflows first
            # one layer: its weights overflow while the loss is still finite
            ([8, 4], dict(peak_lr=1e100, weight_decay=1.0), 4),
        ],
        ids=["hidden", "single-layer"],
    )
    def test_divergence_aborts_with_iteration(self, dims, overrides, iteration, strategy):
        rng = np.random.default_rng(22)
        data = blob_data(rng)
        cfg = TrainConfig(epochs=5, batch_size=16, delta_t=10**9, warmup_epochs=0,
                          momentum=0.9, seed=0, **overrides)
        layers = init_layers(dims, P24, strategy, seed=0)
        with pytest.raises(DivergenceError, match="diverged") as err:
            train(layers, data, cfg)
        assert err.value.iteration == iteration

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize(
        "dims, overrides",
        [([8, 8, 4], dict(peak_lr=1e25)), ([8, 4], dict(peak_lr=1e100, weight_decay=1.0))],
        ids=["hidden", "single-layer"],
    )
    def test_diverged_layers_keep_their_last_finite_weights(self, dims, overrides, strategy, monkeypatch):
        # in both cases no layer takes an update in the iteration that diverges,
        # so each still holds the weights its last refresh read
        seen = {}

        def recording_refresh(layer, *args):
            seen[id(layer)] = layer.w
            return refresh_masks(layer, *args)

        monkeypatch.setattr(training, "refresh_masks", recording_refresh)
        cfg = TrainConfig(epochs=5, batch_size=16, delta_t=10**9, warmup_epochs=0,
                          momentum=0.9, seed=0, **overrides)
        layers = init_layers(dims, P24, strategy, seed=0)
        with pytest.raises(DivergenceError):
            train(layers, blob_data(np.random.default_rng(22)), cfg)
        for layer in layers:
            assert layer.w is seen[id(layer)]
            assert np.isfinite(layer.w).all()

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_each_update_is_a_new_read_only_array(self, strategy, monkeypatch):
        # the weights every refresh reads are those the previous step installed
        seen = []

        def recording_refresh(layer, *args):
            seen.append((layer.w, layer.w.copy()))
            return refresh_masks(layer, *args)

        monkeypatch.setattr(training, "refresh_masks", recording_refresh)
        cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=1, seed=2)
        layers = init_layers([8, 8, 4], P24, strategy, seed=2)
        _, trace = train(layers, blob_data(np.random.default_rng(25)), cfg)
        assert len(seen) == len(layers) * len(trace)
        for i, (w, copy) in enumerate(seen):
            assert not w.flags.writeable
            assert np.array_equal(w, copy)
            assert not any(np.shares_memory(w, other) for other, _ in seen[i + 1 :])
        for layer in layers:
            assert not any(np.shares_memory(layer.w, w) for w, _ in seen[-len(layers) :])

    @pytest.mark.parametrize("criterion", list(BinarizationCriterion), ids=lambda c: c.value)
    def test_criterion_given_by_its_value(self, criterion):
        data = blob_data(np.random.default_rng(26))
        cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=1, seed=4)
        runs = [train(init_layers([8, 8, 4], P24, Strategy.BI_MASK, seed=4), data, cfg, given)
                for given in (criterion, criterion.value)]
        (member_layers, member_trace), (value_layers, value_trace) = runs
        assert value_trace.steps == member_trace.steps
        for a, b in zip(value_layers, member_layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.perm, b.perm)
            assert np.array_equal(a.bwd_mask.bits, b.bwd_mask.bits)

    def test_bogus_criterion_value_is_refused(self):
        layers = init_layers([8, 8, 4], P24, Strategy.BI_MASK, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(ValueError, match="'rand' is not a valid BinarizationCriterion"):
            train(layers, blob_data(np.random.default_rng(27)), cfg, "rand")

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


class TestTakeUpdate:
    """``train()``'s weight hand-off checks finiteness alone, in one read of the fresh array."""

    @staticmethod
    def layer():
        return SparseLinearLayer(np.random.default_rng(60).normal(size=(8, 12)), P24, Strategy.BI_MASK)

    @pytest.mark.parametrize("where", [0, 47, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_entry_raises_and_the_layer_keeps_its_weights(self, bad, where):
        layer = self.layer()
        kept = layer.w
        new = layer.w + 1.0
        new.flat[where] = bad
        with pytest.raises(DivergenceError) as err:
            layer._take_update(new, 17)
        assert err.value.iteration == 17
        assert layer.w is kept

    @pytest.mark.parametrize("values", [1e300, -1e300, 5e-324], ids=["1e300", "-1e300", "subnormal"])
    def test_extreme_finite_updates_are_taken_without_a_warning(self, values):
        layer = self.layer()
        new = np.full(layer.w.shape, values)
        new[0, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", under="ignore"):  # as train() calls it
                layer._take_update(new, 3)
        assert layer.w is new and not layer.w.flags.writeable

    def test_train_hands_updates_over_where_squares_may_leave_the_range(self, monkeypatch):
        settings = []
        take = SparseLinearLayer._take_update

        def recording(layer, new, iteration):
            settings.append(np.geterr())
            return take(layer, new, iteration)

        monkeypatch.setattr(SparseLinearLayer, "_take_update", recording)
        cfg = TrainConfig(epochs=1, batch_size=16, delta_t=10**9, warmup_epochs=0, seed=0)
        with np.errstate(all="raise"):
            train(init_layers([8, 8, 4], P24, Strategy.BI_MASK, seed=0), blob_data(np.random.default_rng(28)), cfg)
        assert settings and all(s["over"] == s["under"] == "ignore" for s in settings)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"epochs": 1, "delta_t": 0},
            {"epochs": 1, "k": 0},
            {"epochs": 1, "peak_lr": 0.0},
            {"epochs": 1, "peak_lr": float("nan")},
            {"epochs": 1, "peak_lr": float("inf")},
            {"epochs": 1, "momentum": 1.0},
            {"epochs": 1, "weight_decay": -0.1},
            {"epochs": 1, "weight_decay": float("nan")},
            {"epochs": 1, "weight_decay": float("inf")},
            {"epochs": 1, "seed": -1},
            {"epochs": 1, "batch_size": 0},
            {"epochs": 1, "warmup_epochs": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta_t", 2.5),  # would search at iterations 5, 10 and 15
            ("k", True),  # would run as k = 1
            ("warmup_epochs", 0.5),
            ("epochs", True),
            ("k", 3.5),  # would raise TypeError at the first search
            ("epochs", 1.5),
            ("batch_size", 8.0),
            ("seed", 1.5),
            ("seed", np.True_),
            ("k", "3"),
            ("delta_t", np.float64(2.0)),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"epochs": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            TrainConfig(**kwargs)

    def test_numpy_integer_counts_become_plain_ints(self):
        cfg = TrainConfig(
            epochs=np.int64(2), batch_size=np.uint16(8), delta_t=np.int32(3), k=np.uint8(4),
            warmup_epochs=np.int8(0), seed=np.int64(7),
        )
        counts = (cfg.epochs, cfg.batch_size, cfg.delta_t, cfg.k, cfg.warmup_epochs, cfg.seed)
        assert counts == (2, 8, 3, 4, 0, 7)
        assert all(type(c) is int for c in counts)
