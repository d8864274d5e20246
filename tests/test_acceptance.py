"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Everything is seeded; no network, no GPU.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

import nm_sparse_kit as kit
from nm_sparse_kit.training import lr_at, softmax_cross_entropy

PATTERNS = [kit.NmPattern.parse(p) for p in ("1:4", "2:4", "2:8", "4:8", "1:16")]


class Criterion:
    """Context manager that times a criterion and prints its verdict line."""

    def __init__(self, number, name, budget_seconds=None):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def block_shuffling_permutation(rng, rows, m):
    """A permutation that reorders whole M-row blocks and shuffles within
    them, which preserves every column block's multiset of entries."""
    blocks = rng.permutation(rows // m)
    perm = []
    for b in blocks:
        perm.extend(b * m + rng.permutation(m))
    return np.array(perm)


def regular_support_weights(rng, rows, cols, pattern):
    n, m = pattern.n, pattern.m
    support = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for b in range(cols // m):
            for k in range(n):
                support[i, b * m + (i + k) % m] = 1
    strong = rng.uniform(1.0, 2.0, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    weak = rng.uniform(0.01, 0.1, size=(rows, cols)) * rng.choice((-1, 1), size=(rows, cols))
    return np.where(support == 1, strong, weak)


def test_01_mask_validity_suite():
    with Criterion(1, "mask-validity", budget_seconds=10.0):
        rng = np.random.default_rng(101)
        for trial in range(1000):
            pattern = PATTERNS[trial % len(PATTERNS)]
            m = pattern.m
            rows = m * int(rng.integers(1, 4))
            cols = m * int(rng.integers(1, 4))
            w = rng.normal(size=(rows, cols))

            fwd = kit.forward_mask(w, pattern)
            assert kit.validate_mask(fwd) == []

            perm = rng.permutation(rows)
            bwd = kit.backward_mask(w, fwd, perm, pattern)
            assert kit.validate_mask(bwd) == []
            assert (bwd.bits <= fwd.bits[perm]).all()

            trans = kit.transposable_mask(w, pattern, kit.TransposableMethod.TWO_APPROX)
            assert kit.validate_mask(trans) == []


def test_02_permutation_equivalence():
    with Criterion(2, "permutation-equivalence", budget_seconds=5.0):
        rng = np.random.default_rng(202)
        pattern = kit.NmPattern(2, 4)
        cfg = kit.TrainConfig(epochs=1, batch_size=1, delta_t=10**9, seed=0)
        for trial in range(200):
            eligible_case = trial % 2 == 1
            w = (
                regular_support_weights(rng, 8, 8, pattern)
                if eligible_case
                else rng.normal(size=(8, 8))
            )
            g_y = rng.normal(size=(8, 5))
            layer = kit.SparseLinearLayer(w, pattern, kit.Strategy.BI_MASK)
            layer.perm = (
                block_shuffling_permutation(rng, 8, 4) if eligible_case else rng.permutation(8)
            )
            kit.refresh_masks(layer, 1, cfg)
            got = kit.backward_bimask(g_y, layer)

            # physically reorder the rows of the masked weights and the output
            # gradient by the same permutation: the product must not move
            perm = layer.perm
            physical = (layer.bwd_mask.bits * w[perm]).T @ g_y[perm]
            assert np.max(np.abs(got - physical)) <= 1e-12
            # and mapping the mask back to the unpermuted row order agrees
            inverse = np.argsort(perm)
            unpermuted = (layer.bwd_mask.bits[inverse] * w).T @ g_y
            assert np.max(np.abs(got - unpermuted)) <= 1e-12

            if eligible_case:
                masked = layer.fwd_mask.apply(w)
                eligible, total = kit.count_eligible_blocks(masked[perm], pattern)
                assert eligible == total
                ideal = kit.backward_exact(g_y, layer)
                assert np.max(np.abs(got - ideal)) <= 1e-12


def test_03_search_oracle_equivalence():
    with Criterion(3, "search-vs-brute-force-oracle", budget_seconds=30.0):
        rng = np.random.default_rng(303)
        cases = [
            (kit.NmPattern(2, 4), 4),
            (kit.NmPattern(1, 4), 4),
            (kit.NmPattern(1, 2), 6),
            (kit.NmPattern(1, 3), 6),
            (kit.NmPattern(2, 3), 6),
        ]
        for trial in range(50):
            pattern, rows = cases[trial % len(cases)]
            cols = int(rng.integers(2, 7))
            density = rng.uniform(0.2, 0.8)
            masked = rng.normal(size=(rows, cols)) * (rng.random(size=(rows, cols)) < density)
            exhaustive = kit.search_permutation(
                masked, pattern, k=math.factorial(rows), seed=trial
            )
            brute = kit.brute_force_best_permutation(masked, pattern)
            # both run the library's sweep and scorer; the oracle enumerates on its own
            best = max(
                kit.count_eligible_blocks(masked[list(p)], pattern)[0]
                for p in itertools.permutations(range(rows))
            )
            for report in (exhaustive, brute):
                assert report.eligible_blocks == best
                assert kit.count_eligible_blocks(masked[report.chosen], pattern)[0] == best


def test_04_two_approximation_bound():
    with Criterion(4, "transposable-2-approximation", budget_seconds=60.0):
        rng = np.random.default_rng(404)
        for text, trials in (("2:4", 200), ("1:8", 50), ("2:8", 50), ("4:8", 50), ("1:16", 50), ("3:4", 50)):
            pattern = kit.NmPattern.parse(text)
            for trial in range(trials):
                size = pattern.m if trial % 2 == 0 else 2 * pattern.m
                w = rng.normal(size=(size, size))
                exact = kit.transposable_mask(w, pattern, kit.TransposableMethod.EXACT)
                approx = kit.transposable_mask(w, pattern, kit.TransposableMethod.TWO_APPROX)
                exact_tiles = kit.tile_kept_magnitudes(w, exact, pattern)
                approx_tiles = kit.tile_kept_magnitudes(w, approx, pattern)
                assert (approx_tiles <= exact_tiles + 1e-12).all()
                assert (approx_tiles >= 0.5 * exact_tiles - 1e-12).all()


def test_05_diversity_ordering():
    with Criterion(5, "mask-diversity-ordering", budget_seconds=60.0):
        for pattern in PATTERNS:
            per_row = kit.mask_diversity(pattern, kit.MaskFamily.VANILLA, tile_rows=1)
            assert per_row == math.comb(pattern.m, pattern.n)
            vanilla = kit.mask_diversity(pattern, kit.MaskFamily.VANILLA, tile_rows=pattern.m)
            transposable = kit.mask_diversity(pattern, kit.MaskFamily.TRANSPOSABLE)
            assert transposable < vanilla
        assert kit.mask_diversity(kit.NmPattern(2, 4), kit.MaskFamily.VANILLA, 1) == 6
        assert kit.mask_diversity(kit.NmPattern(1, 4), kit.MaskFamily.VANILLA, 1) == 4


def test_06_weight_gradient_finite_differences():
    with Criterion(6, "weight-gradient-vs-finite-differences"):
        rng = np.random.default_rng(606)
        step = 1e-5
        for _ in range(20):
            layer = kit.SparseLinearLayer(rng.normal(size=(5, 5)), kit.NmPattern(2, 4), kit.Strategy.DENSE)
            frozen_mask = (rng.random(size=(5, 5)) < 0.6).astype(np.float64)
            v = frozen_mask * layer.w  # effective weights with the mask frozen
            x = rng.normal(size=(5, 8))
            labels = rng.integers(0, 5, size=8)

            _, g_y = softmax_cross_entropy(v @ x, labels)
            got = kit.weight_gradient(g_y, x, layer)

            fd = np.zeros_like(v)
            for i in range(5):
                for j in range(5):
                    up = v.copy()
                    up[i, j] += step
                    down = v.copy()
                    down[i, j] -= step
                    fd[i, j] = (
                        softmax_cross_entropy(up @ x, labels)[0]
                        - softmax_cross_entropy(down @ x, labels)[0]
                    ) / (2 * step)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            assert float(np.max(np.abs(fd - got))) <= 1e-6 * scale


TREND_SEEDS = (0, 1, 2, 3, 4)


def trend_run(strategy, pattern_text, seed, epochs=50):
    data = kit.generate_synthetic(classes=16, dim=32, per_class=40, spread=0.35, seed=seed)
    cfg = kit.TrainConfig(
        epochs=epochs, batch_size=32, delta_t=50, k=100, warmup_epochs=5,
        peak_lr=0.1, momentum=0.9, weight_decay=1e-3, seed=seed,
    )
    pattern = kit.NmPattern.parse(pattern_text)
    layers = kit.init_layers([32, 128, 16], pattern, strategy, seed=seed)
    layers, trace = kit.train(layers, data, cfg)
    return kit.evaluate_accuracy(layers, data.x_train, data.y_train), trace


def test_07_trend_reproduction():
    with Criterion(7, "desk-scale-trend-reproduction", budget_seconds=600.0):
        dense, bi24, t24, bi116, t116 = [], [], [], [], []
        for seed in TREND_SEEDS:
            dense.append(trend_run(kit.Strategy.DENSE, "2:4", seed)[0])
            bi24.append(trend_run(kit.Strategy.BI_MASK, "2:4", seed)[0])
            t24.append(trend_run(kit.Strategy.TRANSPOSABLE, "2:4", seed)[0])
            bi116.append(trend_run(kit.Strategy.BI_MASK, "1:16", seed)[0])
            t116.append(trend_run(kit.Strategy.TRANSPOSABLE, "1:16", seed)[0])
        med = statistics.median
        print(
            f"  medians: dense={med(dense):.4f} bimask2:4={med(bi24):.4f} "
            f"transposable2:4={med(t24):.4f} bimask1:16={med(bi116):.4f} "
            f"transposable1:16={med(t116):.4f}"
        )
        assert med(bi24) >= med(t24)
        assert med(bi116) - med(t116) >= 0.01
        assert med(dense) - med(bi24) <= 0.02


def test_08_gap_reduction_via_permutation():
    with Criterion(8, "gradient-gap-reduction"):
        def mean_gap(seed, delta_t):
            data = kit.generate_synthetic(classes=16, dim=32, per_class=40, spread=0.35, seed=seed)
            cfg = kit.TrainConfig(
                epochs=15, batch_size=32, delta_t=delta_t, k=100, warmup_epochs=2,
                peak_lr=0.1, momentum=0.9, weight_decay=1e-3, seed=seed,
            )
            layers = kit.init_layers([32, 128, 16], kit.NmPattern(2, 4), kit.Strategy.BI_MASK, seed=seed)
            _, trace = kit.train(layers, data, cfg)
            return float(np.mean([s.grad_gap_l2 for s in trace]))

        updating = [mean_gap(seed, delta_t=20) for seed in TREND_SEEDS]
        identity = [mean_gap(seed, delta_t=10**9) for seed in TREND_SEEDS]
        print(
            f"  mean gap with updating={statistics.mean(updating):.4f} "
            f"identity={statistics.mean(identity):.4f}"
        )
        assert statistics.mean(updating) <= statistics.mean(identity)


def test_09_search_efficiency_ordering():
    with Criterion(9, "search-efficiency-ordering"):
        rng = np.random.default_rng(909)
        pattern = kit.NmPattern(1, 16)
        w = rng.normal(size=(256, 256))
        masked = kit.forward_mask(w, pattern).apply(w)

        perm_seconds = min(
            _timed(lambda i=i: kit.search_permutation(masked, pattern, k=100, seed=i))
            for i in range(3)
        )
        transposable_seconds = min(
            _timed(lambda: kit.transposable_mask(w, pattern, kit.TransposableMethod.TWO_APPROX))
            for _ in range(3)
        )
        ratio = transposable_seconds / perm_seconds
        print(
            f"  per-refresh: permutation search {perm_seconds * 1e3:.1f} ms, "
            f"transposable search {transposable_seconds * 1e3:.1f} ms, ratio {ratio:.2f}x"
        )
        assert perm_seconds < transposable_seconds


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_10_train_determinism(tmp_path):
    with Criterion(10, "train-determinism"):
        def run(out):
            cfg = kit.ExperimentConfig(
                strategy=kit.Strategy.BI_MASK,
                pattern=kit.NmPattern(2, 4),
                dataset="synthetic",
                out_dir=str(out),
                hidden_dims=(32,),
                train=kit.TrainConfig(
                    epochs=5, batch_size=32, delta_t=10, k=50, warmup_epochs=1,
                    peak_lr=0.1, momentum=0.9, weight_decay=1e-3, seed=42,
                ),
                classes=8,
                dim=16,
                per_class=32,
                spread=0.4,
            )
            kit.run_experiment(cfg)
            return (out / "metrics.csv").read_bytes()

        assert run(tmp_path / "a") == run(tmp_path / "b")


def test_schedule_and_defaults_sanity():
    """Reference operating points: delta_t and k default to 100, momentum to
    0.9, batch size to 256, warmup covers five epochs up to lr 0.1."""
    cfg = kit.TrainConfig(epochs=1)
    assert cfg.delta_t == 100
    assert cfg.k == 100
    assert cfg.momentum == 0.9
    assert cfg.batch_size == 256
    assert cfg.warmup_epochs == 5
    assert cfg.peak_lr == 0.1
    assert lr_at(50, 1000, 50, cfg.peak_lr) == pytest.approx(0.1)
    layer = kit.SparseLinearLayer(
        np.random.default_rng(0).normal(size=(8, 8)), kit.NmPattern(2, 4), kit.Strategy.BI_MASK
    )
    assert kit.refresh_masks(layer, 100, cfg).searched
    assert not kit.refresh_masks(layer, 101, cfg).searched
