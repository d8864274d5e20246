"""Sparse training loop with per-direction masks and gap instrumentation.

The loop keeps a dense weight matrix per layer and refreshes its masks from
the current magnitudes every iteration: the forward mask constrains row
blocks, and (for the bi-mask strategy) a separately generated backward mask
constrains column blocks of the row-permuted weights. Weight gradients flow
dense through the straight-through estimator; only the propagated input
gradient is approximated by the backward mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .masks import (
    BinarizationCriterion,
    Mask,
    backward_mask,
    forward_mask,
    transposable_mask,
)
from .permute import count_eligible_blocks, identity_permutation, search_permutation
from .tensorops import NmPattern, matrix


class Strategy(Enum):
    """Masking strategy of a layer: dense is the unmasked baseline path."""

    DENSE = "dense"
    VANILLA = "vanilla"
    TRANSPOSABLE = "transposable"
    BI_MASK = "bimask"


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"training diverged: non-finite loss at iteration {iteration}")
        self.iteration = iteration


class StaleMaskError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Schedule constants; defaults follow the reference training recipe."""

    epochs: int
    batch_size: int = 256
    delta_t: int = 100
    k: int = 100
    warmup_epochs: int = 5
    peak_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.delta_t < 1:
            raise ValueError(f"delta_t must be >= 1, got {self.delta_t}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class StepMetrics:
    iteration: int
    loss: float
    grad_gap_l2: float
    eligible_block_ratio: float
    mask_flip_count: int


@dataclass
class RefreshStats:
    """Partial step metrics of one mask refresh, or summed over a step's layers."""

    mask_flip_count: int
    eligible_blocks: int
    total_blocks: int
    searched: bool = False
    search_seconds: float = 0.0

    @property
    def eligible_block_ratio(self) -> float:
        # strategies with an exact backward path report no blocks and lose nothing
        return self.eligible_blocks / self.total_blocks if self.total_blocks else 1.0


@dataclass
class TrainingTrace:
    """Per-iteration metrics plus aggregate permutation-search accounting."""

    steps: list[StepMetrics] = field(default_factory=list)
    search_seconds_total: float = 0.0

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


class SparseLinearLayer:
    """A bias-free linear layer (out x in weights) with strategy-owned masks.

    For the bi-mask strategy the layer also carries the current row
    permutation and the backward mask generated from it; the backward mask is
    indexed in the permuted row order.

    The masked weights and their permuted rows are built at most once per
    mask refresh and shared by every product and count that reads them.
    Assigning ``w`` drops them; mutating ``w`` in place does not, so always
    assign new weights.
    """

    def __init__(self, w, pattern: NmPattern, strategy: Strategy, salt: int = 0):
        self.w = matrix(w)
        self.pattern = pattern
        self.strategy = strategy
        self.salt = salt
        self.perm = identity_permutation(self.w.shape[0])
        self.prev_weight_grad: np.ndarray | None = None
        self.fwd_mask: Mask | None = _new_forward_mask(self)
        self.bwd_mask: Mask | None = None
        self._bwd_perm: np.ndarray | None = None
        if strategy is Strategy.BI_MASK:
            _rebuild_backward_mask(self, BinarizationCriterion.WEIGHT_MAGNITUDE, seed=None)

    @property
    def w(self) -> np.ndarray:
        return self._w

    @w.setter
    def w(self, value: np.ndarray) -> None:
        self._w = value
        self._drop_derived()

    def _drop_derived(self) -> None:
        self._masked = self._masked_perm = None

    def masked_weights(self) -> np.ndarray:
        """The effective forward weights W (x) B (plain W on the dense path).

        On a masked layer the array is cached until the next refresh or
        weight assignment, and read-only.
        """
        if self.fwd_mask is None:
            return self.w
        if self._masked is None:
            self._masked = _read_only(self.fwd_mask.apply(self.w))
        return self._masked

    def _permuted_masked(self) -> np.ndarray:
        """Rows of the masked weights in the backward mask's permuted order."""
        if self._masked_perm is None:
            self._masked_perm = _read_only(self.masked_weights()[self._bwd_perm])
        return self._masked_perm


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # cached on the layer and shared by every reader
    return a


def sparse_forward(x: np.ndarray, layer: SparseLinearLayer) -> np.ndarray:
    """Forward product (B (x) W) @ x; x holds one column per sample."""
    if layer.w.shape[1] != x.shape[0]:
        raise ValueError(f"layer takes {layer.w.shape[1]}-dim inputs, got {x.shape[0]}")
    return layer.masked_weights() @ x


def backward_exact(g_y: np.ndarray, layer: SparseLinearLayer) -> np.ndarray:
    """Ideal input gradient (B (x) W)^T @ g_y; reference for gap measurement."""
    if layer.w.shape[0] != g_y.shape[0]:
        raise ValueError(f"layer emits {layer.w.shape[0]}-dim outputs, got gradient {g_y.shape[0]}")
    return layer.masked_weights().T @ g_y


def backward_bimask(g_y: np.ndarray, layer: SparseLinearLayer) -> np.ndarray:
    """Bi-mask input gradient via the permuted backward mask.

    Permuting the weight rows and the output-gradient entries by the same
    permutation leaves the product identical to the unpermuted form, so the
    only approximation is the backward mask itself.
    """
    if layer.strategy is not Strategy.BI_MASK:
        raise ValueError(f"backward_bimask needs a bimask layer, got {layer.strategy.value}")
    if layer.w.shape[0] != g_y.shape[0]:
        raise ValueError(f"layer emits {layer.w.shape[0]}-dim outputs, got gradient {g_y.shape[0]}")
    if layer._bwd_perm is None or not np.array_equal(layer.perm, layer._bwd_perm):
        raise StaleMaskError("backward mask is stale: permutation changed without a mask refresh")
    return (layer.bwd_mask.bits * layer._permuted_masked()).T @ g_y[layer.perm]


def weight_gradient(g_y: np.ndarray, x: np.ndarray, layer: SparseLinearLayer) -> np.ndarray:
    """Dense straight-through weight gradient g_y @ x^T.

    The mask shapes the forward value, not the weight-gradient support, so
    masked-out weights keep receiving updates and can win back a slot.
    """
    if g_y.shape[0] != layer.w.shape[0] or x.shape[0] != layer.w.shape[1]:
        raise ValueError(
            f"gradient/input shapes {g_y.shape}/{x.shape} do not fit layer {layer.w.shape}"
        )
    if g_y.shape[1] != x.shape[1]:
        raise ValueError(f"batch mismatch: gradient has {g_y.shape[1]} columns, input {x.shape[1]}")
    return g_y @ x.T


def _new_forward_mask(layer: SparseLinearLayer) -> Mask | None:
    """The forward mask of the layer's strategy from its current weights."""
    if layer.strategy is Strategy.DENSE:
        return None
    if layer.strategy is Strategy.TRANSPOSABLE:
        return transposable_mask(layer.w, layer.pattern)
    return forward_mask(layer.w, layer.pattern)


def _rebuild_backward_mask(
    layer: SparseLinearLayer, criterion: BinarizationCriterion, seed: int | None
) -> None:
    """Rebuild a bi-mask layer's backward mask from its incumbent permutation.

    The gradient criterion falls back to weight magnitude until the layer
    has a weight gradient; only the sampling criteria read ``seed``.
    """
    if criterion is BinarizationCriterion.GRADIENT_MAGNITUDE and layer.prev_weight_grad is None:
        criterion = BinarizationCriterion.WEIGHT_MAGNITUDE
    layer.bwd_mask = backward_mask(
        layer.w,
        layer.fwd_mask,
        layer.perm,
        layer.pattern,
        criterion,
        gradient=layer.prev_weight_grad,
        seed=seed,
    )
    layer._bwd_perm = layer.perm.copy()


_SEEDED_CRITERIA = (BinarizationCriterion.MULTINOMIAL_SAMPLING, BinarizationCriterion.RANDOM)


def refresh_masks(
    layer: SparseLinearLayer,
    iteration: int,
    config: TrainConfig,
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE,
) -> RefreshStats:
    """Recompute the layer's masks for one (1-based) training iteration.

    The forward (or transposable) mask is rebuilt every call. On the bi-mask
    strategy the row permutation is re-searched only when
    ``iteration % delta_t == 0``, while the backward mask is rebuilt every
    call from the incumbent permutation. Deterministic given
    (config.seed, iteration, layer.salt).
    """
    old_masks = (layer.fwd_mask, layer.bwd_mask)
    layer.fwd_mask = _new_forward_mask(layer)
    layer._drop_derived()

    stats = RefreshStats(mask_flip_count=0, eligible_blocks=0, total_blocks=0)
    if layer.strategy is Strategy.BI_MASK:
        masked = layer.masked_weights()
        search = iteration % config.delta_t == 0
        # a seed sequence costs about a tenth of a small layer's refresh, so
        # only the search and the sampling criteria, which read one, draw it
        seeds = (
            np.random.SeedSequence([config.seed, iteration, layer.salt]).generate_state(2).tolist()
            if search or criterion in _SEEDED_CRITERIA
            else [None, None]
        )
        if search:
            report = search_permutation(
                masked, layer.pattern, config.k, current=layer.perm, seed=seeds[0]
            )
            layer.perm = report.chosen
            stats.searched = True
            stats.search_seconds = report.elapsed
        _rebuild_backward_mask(layer, criterion, seeds[1])
        stats.eligible_blocks, stats.total_blocks = count_eligible_blocks(
            layer._permuted_masked(), layer.pattern
        )

    for old, new in zip(old_masks, (layer.fwd_mask, layer.bwd_mask)):
        if old is not None:
            stats.mask_flip_count += int(np.count_nonzero(new.bits != old.bits))
    return stats


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    ``logits`` is (classes, batch); ``labels`` holds class indices.
    """
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=0, keepdims=True)
    batch = logits.shape[1]
    loss = float(-np.mean(np.log(probs[labels, np.arange(batch)] + 1e-300)))
    grad = probs.copy()
    grad[labels, np.arange(batch)] -= 1.0
    return loss, grad / batch


def lr_at(iteration: int, total_iterations: int, warmup_iterations: int, peak_lr: float) -> float:
    """Linear warmup from zero to peak, then cosine annealing to zero."""
    if warmup_iterations > 0 and iteration <= warmup_iterations:
        return peak_lr * iteration / warmup_iterations
    span = total_iterations - warmup_iterations
    if span <= 0:
        return peak_lr
    progress = (iteration - warmup_iterations) / span
    return 0.5 * peak_lr * (1.0 + math.cos(math.pi * progress))


def init_layers(
    dims,
    pattern: NmPattern,
    strategy: Strategy,
    seed: int,
) -> list[SparseLinearLayer]:
    """He-initialized layer chain for the dim sequence [in, hidden..., out]."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.normal(size=(fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
        layers.append(SparseLinearLayer(w, pattern, strategy, salt=i))
    return layers


def forward_pass(layers, x: np.ndarray) -> np.ndarray:
    """Masked forward through the chain, rectifier between layers."""
    h = x
    for i, layer in enumerate(layers):
        z = sparse_forward(h, layer)
        h = relu(z) if i < len(layers) - 1 else z
    return h


def evaluate_accuracy(layers, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (n, dim) samples classified correctly by the masked model."""
    logits = forward_pass(layers, features.T)
    return float(np.mean(np.argmax(logits, axis=0) == labels))


def train(
    layers,
    data,
    config: TrainConfig,
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE,
) -> tuple[list, TrainingTrace]:
    """Run the masked training loop and return the model and its trace.

    Each iteration refreshes masks (forward every time, permutation every
    delta_t on the bi-mask path), runs the sparse forward, propagates the
    strategy's backward gradient, and applies an SGD-with-momentum update to
    the dense weights. Fully deterministic given config.seed; a non-finite
    loss aborts with the iteration index.
    """
    layers = list(layers)
    features = np.ascontiguousarray(data.x_train.T)
    labels = data.y_train
    n = labels.shape[0]
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds training set size {n}")
    batches_per_epoch = n // config.batch_size
    total_iterations = config.epochs * batches_per_epoch
    warmup_iterations = config.warmup_epochs * batches_per_epoch

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xDA7A]))
    velocities = [np.zeros_like(layer.w) for layer in layers]
    trace = TrainingTrace()

    t = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for b in range(batches_per_epoch):
            t += 1
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            x0 = features[:, idx]
            y = labels[idx]

            step = RefreshStats(mask_flip_count=0, eligible_blocks=0, total_blocks=0)
            for layer in layers:
                stats = refresh_masks(layer, t, config, criterion)
                step.mask_flip_count += stats.mask_flip_count
                step.eligible_blocks += stats.eligible_blocks
                step.total_blocks += stats.total_blocks
                trace.search_seconds_total += stats.search_seconds

            lr = lr_at(t, total_iterations, warmup_iterations, config.peak_lr)
            gap_num = gap_den = 0.0
            # overflow here is the divergence guard's job, not a warning's
            with np.errstate(over="ignore", invalid="ignore"):
                inputs = [x0]
                for layer in layers[:-1]:
                    inputs.append(relu(sparse_forward(inputs[-1], layer)))
                loss, g = softmax_cross_entropy(sparse_forward(inputs[-1], layers[-1]), y)
                if not math.isfinite(loss):
                    raise DivergenceError(t)

                # each layer once, top down: its products read only its own
                # weights, so it can take its update right after them
                for i in reversed(range(len(layers))):
                    layer = layers[i]
                    g_w = weight_gradient(g, inputs[i], layer)
                    if layer.strategy is Strategy.BI_MASK:
                        g_x = backward_bimask(g, layer)
                        g_ideal = backward_exact(g, layer)
                        gap_num += float(((g_x - g_ideal) ** 2).sum())
                        gap_den += float((g_ideal**2).sum())
                    else:
                        g_x = backward_exact(g, layer)
                    if i > 0:
                        g = g_x * (inputs[i] > 0)  # relu(z) > 0 exactly where z > 0
                    layer.prev_weight_grad = g_w
                    v = velocities[i]
                    v *= config.momentum
                    v += g_w + config.weight_decay * layer.w
                    layer.w = layer.w - lr * v

            gap = math.sqrt(gap_num) / math.sqrt(gap_den) if gap_den > 0 else 0.0
            trace.steps.append(
                StepMetrics(
                    iteration=t,
                    loss=loss,
                    grad_gap_l2=gap,
                    eligible_block_ratio=step.eligible_block_ratio,
                    mask_flip_count=step.mask_flip_count,
                )
            )
    return layers, trace
