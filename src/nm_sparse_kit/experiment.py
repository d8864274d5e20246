"""Experiment orchestration: config files, metric persistence, ablation runs.

Configs are flat ``key = value`` text files (``#`` starts a comment), chosen
so experiment logs diff cleanly. ``metrics.csv`` carries one row per training
iteration under a versioned header comment; reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from .data import DatasetHandle, generate_synthetic, load_idx
from .masks import BinarizationCriterion, save_mask
from .tensorops import NmPattern, save_matrix
from .training import (
    StepMetrics,
    Strategy,
    TrainConfig,
    TrainingTrace,
    evaluate_accuracy,
    init_layers,
    train,
)

METRICS_VERSION_LINE = "# nm-sparse-kit metrics v1"
CONFIG_VERSION_LINE = "# nm-sparse-kit experiment config v1"


@dataclass
class ExperimentConfig:
    strategy: Strategy
    pattern: NmPattern
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE
    dataset: str = "synthetic"
    out_dir: str = "runs/experiment"
    hidden_dims: tuple = (64,)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=40, batch_size=32))
    # synthetic dataset knobs
    classes: int = 16
    dim: int = 32
    per_class: int = 50
    spread: float = 0.35


_TRAIN_KEYS = get_type_hints(TrainConfig)
# config.txt keys in file order with their types: the ExperimentConfig
# fields, with the TrainConfig fields in place of ``train``
_CONFIG_KEYS = {
    key: kind
    for name, hint in get_type_hints(ExperimentConfig).items()
    for key, kind in (_TRAIN_KEYS.items() if name == "train" else [(name, hint)])
}


def _text(value) -> str:
    """A config value or CSV cell: floats by repr (exact), None empty, enums by value,
    tuples comma-joined."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_config_value(key: str, text: str):
    """The value of config key ``key`` from its text, typed by its field."""
    kind = _CONFIG_KEYS[key]
    if kind is tuple:
        return tuple(int(d) for d in text.split(",") if d.strip())
    if kind is NmPattern:
        return NmPattern.parse(text)
    return kind(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """The config.txt text of ``cfg``; a value holding ``#`` raises ValueError.

    ``#`` starts a comment when the file is parsed, so such a value could not
    be read back.
    """
    lines = [CONFIG_VERSION_LINE]
    for key in _CONFIG_KEYS:
        text = _text(getattr(cfg.train if key in _TRAIN_KEYS else cfg, key))
        if "#" in text:
            raise ValueError(f"config key {key!r} cannot hold '#', which starts a comment: {text!r}")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = parse_config_value(key, value)
    if "strategy" not in values or "pattern" not in values:
        raise ValueError("config must declare at least 'strategy' and 'pattern'")
    train_values = {k: values.pop(k) for k in list(values) if k in _TRAIN_KEYS}
    cfg = ExperimentConfig(**values)
    return replace(cfg, train=replace(cfg.train, **train_values))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def save_config(path, cfg: ExperimentConfig) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))


def build_dataset(cfg: ExperimentConfig) -> DatasetHandle:
    if cfg.dataset == "synthetic":
        return generate_synthetic(cfg.classes, cfg.dim, cfg.per_class, cfg.spread, cfg.train.seed)
    if cfg.dataset.startswith("idx:"):
        root = cfg.dataset[len("idx:") :]
        train_set = load_idx(
            os.path.join(root, "train-images-idx3-ubyte"),
            os.path.join(root, "train-labels-idx1-ubyte"),
        )
        test_images = os.path.join(root, "t10k-images-idx3-ubyte")
        test_labels = os.path.join(root, "t10k-labels-idx1-ubyte")
        if os.path.exists(test_images) and os.path.exists(test_labels):
            test_set = load_idx(test_images, test_labels)
            if test_set.input_dim != train_set.input_dim:
                raise ValueError(
                    f"test images are {test_set.input_dim}-dim but train images are {train_set.input_dim}-dim"
                )
            return replace(
                train_set,
                num_classes=max(train_set.num_classes, test_set.num_classes),
                x_test=test_set.x_train,
                y_test=test_set.y_train,
            )
        return train_set
    raise ValueError(f"unknown dataset descriptor {cfg.dataset!r} (expected 'synthetic' or 'idx:<dir>')")


def csv_header(record_type) -> str:
    """The CSV header of a record dataclass: its field names in declaration order."""
    return ",".join(f.name for f in fields(record_type))


def csv_row(record) -> str:
    return ",".join(_text(getattr(record, f.name)) for f in fields(record))


def write_metrics_csv(path, trace: TrainingTrace) -> None:
    lines = [METRICS_VERSION_LINE, csv_header(StepMetrics), *(csv_row(s) for s in trace)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class ExperimentSummary:
    strategy: str
    pattern: str
    criterion: str
    final_train_accuracy: float
    final_test_accuracy: float | None
    mean_grad_gap_l2: float
    mean_eligible_block_ratio: float
    search_seconds_total: float

    def pretty(self, label: str | None = None) -> str:
        head = label if label is not None else f"{self.strategy} {self.pattern}"
        test = "" if self.final_test_accuracy is None else f" test_acc={self.final_test_accuracy:.4f}"
        return (
            f"{head}: train_acc={self.final_train_accuracy:.4f}{test} "
            f"mean_gap={self.mean_grad_gap_l2:.3e} "
            f"mean_eligible={self.mean_eligible_block_ratio:.4f} "
            f"search_s={self.search_seconds_total:.3f}"
        )


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Train one configuration, persist its artifacts, and summarize it.

    Writes metrics.csv, the final masked weights and masks (text formats),
    the resolved config, and summary.csv into cfg.out_dir.
    """
    serialize_config(cfg)  # a config that config.txt cannot record fails before training
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        data = build_dataset(cfg)
        dims = [data.input_dim, *cfg.hidden_dims, data.num_classes]
        layers = init_layers(dims, cfg.pattern, cfg.strategy, cfg.train.seed)
    except ValueError as exc:
        raise ValueError(f"[{cfg.strategy.value} {cfg.pattern} -> {cfg.out_dir}] {exc}") from exc
    layers, trace = train(layers, data, cfg.train, cfg.criterion)

    save_config(os.path.join(cfg.out_dir, "config.txt"), cfg)
    write_metrics_csv(os.path.join(cfg.out_dir, "metrics.csv"), trace)
    for i, layer in enumerate(layers):
        save_matrix(os.path.join(cfg.out_dir, f"layer{i}_weights.txt"), layer.masked_weights())
        if layer.fwd_mask is not None:
            save_mask(os.path.join(cfg.out_dir, f"layer{i}_forward_mask.txt"), layer.fwd_mask)
        if layer.bwd_mask is not None:
            save_mask(os.path.join(cfg.out_dir, f"layer{i}_backward_mask.txt"), layer.bwd_mask)

    train_acc = evaluate_accuracy(layers, data.x_train, data.y_train)
    test_acc = (
        evaluate_accuracy(layers, data.x_test, data.y_test) if data.test_count else None
    )
    steps = trace.steps
    summary = ExperimentSummary(
        strategy=cfg.strategy.value,
        pattern=str(cfg.pattern),
        criterion=cfg.criterion.value,
        final_train_accuracy=train_acc,
        final_test_accuracy=test_acc,
        mean_grad_gap_l2=float(np.mean([s.grad_gap_l2 for s in steps])),
        mean_eligible_block_ratio=float(np.mean([s.eligible_block_ratio for s in steps])),
        search_seconds_total=trace.search_seconds_total,
    )
    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as fh:
        fh.write(csv_header(ExperimentSummary) + "\n" + csv_row(summary) + "\n")
    return summary


ABLATION_LABELS = ("baseline", "+backward-mask", "+permutation-updating")


def run_ablation(cfg: ExperimentConfig) -> list[tuple[str, ExperimentSummary]]:
    """The component ablation triple on one config.

    baseline: vanilla forward mask, exact (dense) backward;
    +backward-mask: bi-mask with the permutation pinned to identity;
    +permutation-updating: full bi-mask with scheduled permutation search.
    """
    variants = [
        replace(cfg, strategy=Strategy.VANILLA, out_dir=os.path.join(cfg.out_dir, "baseline")),
        replace(
            cfg,
            strategy=Strategy.BI_MASK,
            train=replace(cfg.train, delta_t=10**9),
            out_dir=os.path.join(cfg.out_dir, "backward_mask"),
        ),
        replace(cfg, strategy=Strategy.BI_MASK, out_dir=os.path.join(cfg.out_dir, "permutation")),
    ]
    results = []
    for label, variant in zip(ABLATION_LABELS, variants):
        results.append((label, run_experiment(variant)))
    return results
