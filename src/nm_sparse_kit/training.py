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

# The refresh dispatches through the names forward_mask, backward_mask,
# transposable_mask and count_eligible_blocks to the unchecked entry points:
# SparseLinearLayer has already checked the weights and permutation they
# trust, and each kernel checks the block geometry it cuts.
from .masks import SEEDED_CRITERIA, BinarizationCriterion, Mask
from .masks import _backward_mask as backward_mask
from .masks import _forward_mask as forward_mask
from .masks import _transposable_mask as transposable_mask
from .permute import _count_eligible as count_eligible_blocks
from .permute import check_permutation, identity_permutation, search_permutation
from .tensorops import NmPattern, matrix


class Strategy(Enum):
    """Masking strategy of a layer: dense is the unmasked baseline path."""

    DENSE = "dense"
    VANILLA = "vanilla"
    TRANSPOSABLE = "transposable"
    BI_MASK = "bimask"


class DivergenceError(RuntimeError):
    """Raised when the training loss or a layer's updated weights stop being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"training diverged: non-finite loss or weights at iteration {iteration}")
        self.iteration = iteration


class StaleMaskError(RuntimeError):
    """Raised by a bi-mask backward product after an assignment dropped its operand."""


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
        if not 0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _eligible_ratio(eligible: int, total: int) -> float:
    # strategies with an exact backward path report no blocks and lose nothing
    return eligible / total if total else 1.0


@dataclass
class LayerStep:
    """One layer's record of one step: ``refresh_masks`` fills it, and on Bi-Mask ``train()``
    sets the squared error (``gap_num``) and squared exact norm (``gap_den``) of its input gradient.
    ``mask_flip_count`` compares the stored bits, a backward mask's in permuted row order,
    so after a search that changes the permutation it also counts the rows that moved."""

    mask_flip_count: int = 0
    eligible_blocks: int = 0
    total_blocks: int = 0
    searched: bool = False
    search_seconds: float = 0.0
    gap_num: float = 0.0
    gap_den: float = 0.0

    @property
    def eligible_block_ratio(self) -> float:
        return _eligible_ratio(self.eligible_blocks, self.total_blocks)


@dataclass
class StepMetrics:
    iteration: int
    loss: float
    grad_gap_l2: float
    eligible_block_ratio: float
    mask_flip_count: int

    @classmethod
    def of(cls, iteration: int, loss: float, records: list[LayerStep]) -> StepMetrics:
        """The step's totals over its layer records, given in layer order.

        The gap terms add by ``+=``, top layer first, as ``train()`` computes
        them; ``sum()`` compensates floats from Python 3.12 on.
        """
        num = den = 0.0
        flips = eligible = total = 0
        for r in reversed(records):
            num += r.gap_num
            den += r.gap_den
            flips += r.mask_flip_count
            eligible += r.eligible_blocks
            total += r.total_blocks
        return cls(
            iteration=iteration,
            loss=loss,
            grad_gap_l2=math.sqrt(num) / math.sqrt(den) if den > 0 else 0.0,
            eligible_block_ratio=_eligible_ratio(eligible, total),
            mask_flip_count=flips,
        )


@dataclass
class TrainingTrace:
    """``layer_steps``: each step's ``LayerStep`` records, in layer order; ``steps``: ``StepMetrics.of`` them."""

    steps: list[StepMetrics] = field(default_factory=list)
    layer_steps: list[list[LayerStep]] = field(default_factory=list)

    @property
    def search_seconds_total(self) -> float:
        """Wall-clock seconds of every permutation search of the run."""
        return sum((r.search_seconds for records in self.layer_steps for r in records), 0.0)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


class SparseLinearLayer:
    """A bias-free linear layer (out x in weights) with strategy-owned masks.

    For the bi-mask strategy the layer also carries the current row
    permutation, the backward mask generated from it (indexed in the
    permuted row order) and the backward operand B-bar (x) (W (x) B)[perm]
    that each refresh builds once. Only a refresh replaces ``fwd_mask``
    and ``bwd_mask``, and their bits are read-only. ``w`` and ``perm`` stay
    assignable; either assignment drops the backward operand, and a backward
    product raises ``StaleMaskError`` until a refresh rebuilds it. After
    ``layer.perm = ...``, ``bwd_mask`` stays indexed by the permutation it
    was built with until the next refresh.

    The layer checks its data once, where it enters, and its refresh runs
    the mask kernels without checking it again:
    - assigning ``w`` checks the weights (``matrix()``, then the layer's
      shape), keeps a read-only float64 copy and drops the masked weights,
      which are built at most once per refresh and shared by every product;
    - assigning ``perm`` checks a caller's permutation and keeps a read-only
      int64 copy.
    ``train()`` installs each SGD update through a private hand-off that
    checks only finiteness and keeps the step's fresh array without a copy,
    and the layer installs the permutations it makes itself (the identity,
    then a search's choice) read-only the same way; the setters keep every
    check and their copy for a caller's arrays. Block geometry is each
    kernel's own check, so a refresh, the first one in the constructor
    included, raises ValueError when the shape does not split into the
    blocks of the current ``strategy`` and ``pattern``. A refresh commits
    its masks and permutation only after every kernel has succeeded, so one
    that raises leaves the layer as it was, and it clears the mask slots its
    strategy does not build.
    ``prev_weight_grad`` is a plain attribute; the gradient criterion's
    kernel checks it on each refresh that ranks it.
    """

    def __init__(self, w, pattern: NmPattern, strategy: Strategy, salt: int = 0):
        self.w = w
        self.pattern = pattern
        self.strategy = Strategy(strategy)
        self.salt = salt
        self._perm = _read_only(identity_permutation(self.w.shape[0]))
        self.prev_weight_grad: np.ndarray | None = None
        self._fwd_mask: Mask | None = None
        self._bwd_mask: Mask | None = None
        _build_masks(self, BinarizationCriterion.WEIGHT_MAGNITUDE)

    @property
    def w(self) -> np.ndarray:
        return self._w

    @w.setter
    def w(self, value) -> None:
        w = matrix(value)
        if w.shape != getattr(self, "_w", w).shape:  # the first assignment sets the shape
            raise ValueError(f"layer weights are {self._w.shape}, got {w.shape}")
        self._install(w.copy())

    def _install(self, w: np.ndarray) -> None:
        """Hold ``w``, a checked array no one else writes, read-only as the weights."""
        self._w = _read_only(w)
        self._masked = self._bwd_weights = None

    def _take_update(self, new: np.ndarray, iteration: int) -> None:
        """``train()``'s hand-off of the weights its step computed, without a copy.

        ``new`` is a fresh float64 array of the layer's shape, made from the
        checked weights, so finiteness is the one check it can fail; then it
        raises ``DivergenceError(iteration)`` and the layer keeps its weights.
        """
        if not np.isfinite(new).all():
            raise DivergenceError(iteration)
        self._install(new)

    @property
    def perm(self) -> np.ndarray:
        return self._perm

    @perm.setter
    def perm(self, value) -> None:
        self._perm = _read_only(check_permutation(value, self.w.shape[0]).copy())
        self._bwd_weights = None

    @property
    def fwd_mask(self) -> Mask | None:
        return self._fwd_mask

    @property
    def bwd_mask(self) -> Mask | None:
        return self._bwd_mask

    def masked_weights(self) -> np.ndarray:
        """The effective forward weights W (x) B (plain W on the dense path).

        On a masked layer the array is cached until the next refresh or
        weight assignment, and read-only. The setter has checked the weights.
        """
        if self._fwd_mask is None:
            return self.w
        if self._masked is None:
            self._masked = _read_only(self._fwd_mask.bits * self.w)
        return self._masked


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # held by the layer and shared by every reader
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
    """Bi-mask input gradient (B-bar (x) (W (x) B)[perm])^T @ g_y[perm].

    Permuting the weight rows and the output-gradient entries by the same
    permutation leaves the product identical to the unpermuted form, so the
    only approximation is the backward mask itself. The operand is the one
    the last refresh built; after a weight or permutation assignment it is
    gone, and the product raises ``StaleMaskError``.
    """
    if layer.strategy is not Strategy.BI_MASK:
        raise ValueError(f"backward_bimask needs a bimask layer, got {layer.strategy.value}")
    if layer.w.shape[0] != g_y.shape[0]:
        raise ValueError(f"layer emits {layer.w.shape[0]}-dim outputs, got gradient {g_y.shape[0]}")
    if layer._bwd_weights is None:
        raise StaleMaskError("backward mask is stale: weights or permutation assigned without a mask refresh")
    return layer._bwd_weights.T @ g_y[layer.perm]


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


def _build_masks(
    layer: SparseLinearLayer,
    criterion: BinarizationCriterion,
    k: int | None = None,
    entropy: list[int] | None = None,
) -> LayerStep:
    """The strategy's masks from the layer's current weights, and the layer's step record.

    On bi-mask, a given ``k`` first re-searches the row permutation (seeded
    from ``entropy``), and the backward mask is built from the incumbent,
    which the commit installs read-only, uncopied; its gradient criterion
    falls back to weight magnitude until the layer has a weight gradient.
    The permuted rows of the masked weights are gathered once: the backward
    mask builds its keys from them (``masked_rows``), its eligible blocks
    are counted on them, and then its bits are multiplied into them in place
    as the backward operand. Everything is built into locals and committed
    only after every kernel and the search have succeeded; the slots the
    strategy does not build become None, and flips count only between masks
    that exist before and after. Blocks are counted on Bi-Mask only, and the
    record's gap terms stay 0.0.
    """
    fwd = bwd = masked = operand = None
    perm = layer.perm
    if layer.strategy is Strategy.TRANSPOSABLE:
        fwd = transposable_mask(layer.w, layer.pattern)
    elif layer.strategy is not Strategy.DENSE:
        fwd = forward_mask(layer.w, layer.pattern)

    record = LayerStep()
    if layer.strategy is Strategy.BI_MASK:
        masked = _read_only(fwd.bits * layer.w)
        # a seed sequence costs about a tenth of a small layer's refresh, so
        # only the search and the sampling criteria, which read one, draw it
        seeds = (
            np.random.SeedSequence(entropy).generate_state(2).tolist()
            if k is not None or criterion in SEEDED_CRITERIA
            else [None, None]
        )
        if k is not None:
            report = search_permutation(masked, layer.pattern, k, current=perm, seed=seeds[0])
            perm = report.chosen
            record = LayerStep(searched=True, search_seconds=report.elapsed)
        if criterion is BinarizationCriterion.GRADIENT_MAGNITUDE and layer.prev_weight_grad is None:
            criterion = BinarizationCriterion.WEIGHT_MAGNITUDE
        operand = masked[perm]
        bwd = backward_mask(
            layer.w, fwd, perm, layer.pattern, criterion,
            gradient=layer.prev_weight_grad, seed=seeds[1], masked_rows=operand
        )
        record.eligible_blocks, record.total_blocks = count_eligible_blocks(operand, layer.pattern)
        operand = _read_only(np.multiply(operand, bwd.bits, out=operand))  # fresh rows: bits * rows in place

    for old, new in ((layer.fwd_mask, fwd), (layer.bwd_mask, bwd)):
        if new is not None:
            _read_only(new.bits)
            if old is not None:
                record.mask_flip_count += int(np.count_nonzero(new.bits != old.bits))
    layer._perm, layer._fwd_mask, layer._bwd_mask = _read_only(perm), fwd, bwd
    layer._masked, layer._bwd_weights = masked, operand
    return record


def refresh_masks(
    layer: SparseLinearLayer,
    iteration: int,
    config: TrainConfig,
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE,
) -> LayerStep:
    """Recompute the layer's masks for one (1-based) training iteration.

    Every call rebuilds the masks; on the bi-mask strategy the row
    permutation is re-searched only when ``iteration % delta_t == 0``.
    Deterministic given (config.seed, iteration, layer.salt). ``criterion``
    may be a member or its value; anything else raises ValueError. Returns
    the layer's ``LayerStep`` record for the iteration, gap terms at 0.0.
    """
    k = config.k if iteration % config.delta_t == 0 else None
    return _build_masks(layer, BinarizationCriterion(criterion), k, [config.seed, iteration, layer.salt])


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    ``logits`` is (classes, batch); ``labels`` holds class indices.
    """
    batch = logits.shape[1]
    cols = np.arange(batch)
    probs = logits - logits.max(axis=0, keepdims=True)  # a new array; the caller's stays
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0, keepdims=True)
    picked = probs[labels, cols]
    loss = float(-(np.log(picked + 1e-300).sum() / batch))  # np.mean's sum and divide
    probs[labels, cols] = picked - 1.0  # the gradient, in the same buffer
    probs /= batch
    return loss, probs


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
    if min(dims) < 1:
        raise ValueError(f"layer dimensions must be at least 1, got {list(dims)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.normal(size=(fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
        layers.append(SparseLinearLayer(w, pattern, strategy, salt=i))
    return layers


def _layer_inputs(layers, x: np.ndarray) -> list[np.ndarray]:
    """The input of each layer in the chain: ``x``, then each hidden rectified output."""
    inputs = [x]
    for layer in layers[:-1]:
        z = sparse_forward(inputs[-1], layer)
        inputs.append(np.maximum(z, 0.0, out=z))  # the product is fresh, so rectify it in place
    return inputs


def forward_pass(layers, x: np.ndarray) -> np.ndarray:
    """Masked forward through the chain, rectifier between layers."""
    return sparse_forward(_layer_inputs(layers, x)[-1], layers[-1])


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
    loss or updated weight aborts with the iteration index.
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
    scratch = [np.empty_like(layer.w) for layer in layers]  # each layer's SGD temporaries
    trace = TrainingTrace()

    t = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for b in range(batches_per_epoch):
            t += 1
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            x0 = features[:, idx]
            y = labels[idx]

            records = [refresh_masks(layer, t, config, criterion) for layer in layers]
            lr = lr_at(t, total_iterations, warmup_iterations, config.peak_lr)
            # overflow here is the divergence guard's job, not a warning's
            with np.errstate(over="ignore", invalid="ignore"):
                inputs = _layer_inputs(layers, x0)
                loss, g = softmax_cross_entropy(sparse_forward(inputs[-1], layers[-1]), y)
                if not math.isfinite(loss):
                    raise DivergenceError(t)

                # each layer once, top down: its products read only its own
                # weights, so it can take its update right after them
                for i in reversed(range(len(layers))):
                    layer = layers[i]
                    g_w = weight_gradient(g, inputs[i], layer)
                    # the products are fresh and their callers done with them,
                    # so the gap and the gate work in place
                    if layer.strategy is Strategy.BI_MASK:
                        g_x = backward_bimask(g, layer)
                        g_ideal = backward_exact(g, layer)
                        err = g_x - g_ideal
                        records[i].gap_num = float(np.square(err, out=err).sum())
                        records[i].gap_den = float(np.square(g_ideal, out=g_ideal).sum())
                    else:
                        g_x = backward_exact(g, layer)
                    if i > 0:
                        g_x *= inputs[i] > 0  # relu(z) > 0 exactly where z > 0
                        g = g_x
                    layer.prev_weight_grad = g_w
                    # v = momentum v + (g_w + wd w); w - lr v, with one scratch array
                    v, buf = velocities[i], scratch[i]
                    np.multiply(layer.w, config.weight_decay, out=buf)
                    buf += g_w
                    v *= config.momentum
                    v += buf
                    np.multiply(v, lr, out=buf)
                    layer._take_update(layer.w - buf, t)

            trace.layer_steps.append(records)
            trace.steps.append(StepMetrics.of(t, loss, records))
    return layers, trace
