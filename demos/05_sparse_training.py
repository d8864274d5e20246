#!/usr/bin/env python3
"""Desk-scale sparse training comparison, plus the component ablation.

Trains a 32-128-16 MLP on synthetic Gaussian blobs under each masking
strategy at 2:4 and at the much harsher 1:16, then reruns the bi-mask
configuration as an ablation triple (vanilla baseline, +backward mask,
+permutation updating). Expect: bi-mask tracks the dense and vanilla
baselines while the transposable constraint falls behind as sparsity grows.
For bi-mask it also prints each layer's mean local gap, read from the
trace's per-layer step records: training discards layer 0's input gradient,
so only the gaps of the layers above it reach the weights.
Takes about half a minute.
"""

import numpy as np

import nm_sparse_kit as kit

SEED = 0
data = kit.generate_synthetic(classes=16, dim=32, per_class=40, spread=0.35, seed=SEED)
cfg = kit.TrainConfig(epochs=50, batch_size=32, delta_t=50, k=100, warmup_epochs=5,
                      peak_lr=0.1, momentum=0.9, weight_decay=1e-3, seed=SEED)


def run(strategy, pattern_text):
    pattern = kit.NmPattern.parse(pattern_text)
    layers = kit.init_layers([32, 128, 16], pattern, strategy, seed=SEED)
    layers, trace = kit.train(layers, data, cfg)
    acc = kit.evaluate_accuracy(layers, data.x_train, data.y_train)
    gap = float(np.mean([s.grad_gap_l2 for s in trace]))
    eligible = float(np.mean([s.eligible_block_ratio for s in trace]))
    return acc, gap, eligible, trace


def layer_gaps(trace):
    """Per layer: its local gap ||g_bimask - g_exact|| / ||g_exact|| averaged
    over steps, and its share of the run's squared gradient error."""
    columns = list(zip(*trace.layer_steps))
    errors = [sum(r.gap_num for r in column) for column in columns]
    return [
        (float(np.mean([r.gap_num**0.5 / r.gap_den**0.5 if r.gap_den > 0 else 0.0 for r in column])),
         error / sum(errors) if sum(errors) > 0 else 0.0)
        for column, error in zip(columns, errors)
    ]


print(f"{'strategy':>14} {'pattern':>8} {'train acc':>10} {'mean gap':>10} {'mean eligible':>14}")
for pattern_text in ("2:4", "1:16"):
    for strategy in (kit.Strategy.DENSE, kit.Strategy.VANILLA,
                     kit.Strategy.TRANSPOSABLE, kit.Strategy.BI_MASK):
        if strategy is kit.Strategy.DENSE and pattern_text != "2:4":
            continue  # the dense baseline does not depend on the pattern
        acc, gap, eligible, trace = run(strategy, pattern_text)
        print(f"{strategy.value:>14} {pattern_text:>8} {acc:>10.4f} {gap:>10.4f} {eligible:>14.4f}")
        if strategy is kit.Strategy.BI_MASK:
            for i, (layer_gap, share) in enumerate(layer_gaps(trace)):
                note = "  (input gradient discarded by training)" if i == 0 else ""
                print(f"{'layer ' + str(i):>23}: mean local gap {layer_gap:.4f}, "
                      f"{share:.1%} of the squared error{note}")

print("\ncomponent ablation at 2:4 (baseline / +backward mask / +permutation updating):")
ablate_cfg = kit.ExperimentConfig(
    strategy=kit.Strategy.BI_MASK,
    pattern=kit.NmPattern(2, 4),
    dataset="synthetic",
    out_dir="/tmp/nm_sparse_kit_demo_ablate",
    hidden_dims=(128,),
    train=cfg,
    classes=16, dim=32, per_class=40, spread=0.35,
)
for label, summary in kit.run_ablation(ablate_cfg):
    print(" ", summary.pretty(label=f"{label:<22}"))
