"""The benchmark's workloads.

A workload builds its inputs from the run seed in ``setup`` and then offers a
fixed list of operations; one pass of the workload runs each of them once.
Every operation returns an :class:`OpResult`: a digest of its output (equal
across passes of one seed), the work it did, and its timings.

The model and schedule follow the desk-scale recipe: 16-class Gaussian blobs
in 32 dimensions, an MLP [32, 128, 16], batch 32, delta_t 50, k 100. The
matrix workloads use single large matrices, where the per-matrix kernels and
not the training loop set the time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import nm_sparse_kit as kit
from nm_sparse_kit import experiment, masks, permute, training
from nm_sparse_kit.masks import TransposableMethod
from nm_sparse_kit.tensorops import NmPattern
from nm_sparse_kit.training import Strategy

from harness import Checker, digest, patched

# Untouched references for quality measurement; the benchmark patches the
# module bindings, never these package attributes.
_vanilla_mask = kit.forward_mask

# Probe gradients for the one-shot gap measurement have this many columns,
# the training batch size.
PROBE_BATCH = 32


@dataclass
class OpResult:
    digest: str
    units: int  # training iterations, or 1 for one matrix
    wall_s: float  # the library call, end to end
    busy_s: float  # time inside train(), or the whole call for a matrix
    outputs: object = None
    bytes_written: int = 0
    host_samples: list = field(default_factory=list)  # calibrations taken inside the operation
    host_s: float = 0.0  # mean calibration time around and inside the operation, see run.py


@dataclass(frozen=True)
class Sizes:
    epochs: int
    train_seeds: int
    per_class: int
    hidden: int
    delta_t: int
    k: int
    search_shapes: tuple
    transposable_ops: tuple
    setup_probes: int


FULL = Sizes(
    epochs=10,
    train_seeds=2,
    per_class=40,
    hidden=128,
    delta_t=50,
    k=100,
    search_shapes=(((512, 512), "2:8"), ((512, 512), "2:8"), ((256, 256), "1:16"), ((256, 256), "1:16")),
    # (shape, pattern, method); the last two share one matrix so approx and
    # exact can be compared tile by tile
    transposable_ops=(
        ((512, 512), "1:8", "approx"),
        ((512, 512), "2:8", "approx"),
        ((256, 256), "1:16", "approx"),
        ((128, 128), "2:4", "exact"),
        ((128, 128), "2:4", "approx"),
    ),
    setup_probes=11,
)

SMOKE = Sizes(
    epochs=2,
    train_seeds=1,
    per_class=4,
    hidden=32,
    delta_t=2,
    k=4,
    search_shapes=(((32, 32), "2:8"), ((32, 32), "1:16")),
    transposable_ops=(
        ((32, 32), "1:8", "approx"),
        ((32, 32), "2:8", "approx"),
        ((32, 32), "1:16", "approx"),
        ((8, 8), "2:4", "exact"),
        ((8, 8), "2:4", "approx"),
    ),
    setup_probes=1,
)


def _mean(values) -> float:
    """Mean, or 0.0 when no operation produced a value (the run then failed)."""
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _relative_gap(prop: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """(squared error, squared reference norm) of a propagated gradient."""
    return float(((prop - ref) ** 2).sum()), float((ref**2).sum())


class GradientProbe:
    """Per-iteration gradient gap against the vanilla-forward exact product.

    For every layer the propagated input gradient is compared with
    (W * vanilla forward mask)^T g_y, and one iteration's gap is
    sqrt(sum of squared errors) / sqrt(sum of squared reference norms) over
    its layers, the definition the library's own bimask trace uses. The
    library records 0 for transposable layers, whose exact backward matches
    their own (transposable) forward mask; measured against the vanilla mask
    of the same weights, the probe shows what the transposable constraint
    costs the backward product.
    """

    def __init__(self):
        self.gaps: list[float] = []
        self.final_layers: list = []
        self._iteration = None
        self._num = self._den = 0.0

    def _close(self):
        if self._iteration is not None:
            self.gaps.append(math.sqrt(self._num) / math.sqrt(self._den) if self._den > 0 else 0.0)
        self._iteration = None
        self._num = self._den = 0.0

    def _add(self, g_y, layer, propagated):
        ref = _vanilla_mask(layer.w, layer.pattern).apply(layer.w).T @ g_y
        num, den = _relative_gap(propagated, ref)
        self._num += num
        self._den += den

    def bindings(self):
        def refresh(fn):
            def probed(layer, iteration, *args, **kwargs):
                if iteration != self._iteration:
                    self._close()
                    self._iteration = iteration
                return fn(layer, iteration, *args, **kwargs)

            return probed

        def bimask(fn):
            def probed(g_y, layer):
                out = fn(g_y, layer)
                self._add(g_y, layer, out)
                return out

            return probed

        def exact(fn):
            def probed(g_y, layer):
                out = fn(g_y, layer)
                # on a bimask layer this is only the instrumentation path
                if layer.strategy is not Strategy.BI_MASK:
                    self._add(g_y, layer, out)
                return out

            return probed

        def train(fn):
            def probed(*args, **kwargs):
                layers, trace = fn(*args, **kwargs)
                self._close()
                self.final_layers.append(layers)
                return layers, trace

            return probed

        return [
            (training, "refresh_masks", refresh),
            (training, "backward_bimask", bimask),
            (training, "backward_exact", exact),
            (experiment, "train", train),
        ]


class TrainClock:
    """Time spent inside train(), and the iterations it ran, for one operation."""

    def __init__(self):
        self.seconds = 0.0
        self.iterations = 0

    def binding(self):
        def make(fn):
            def timed(*args, **kwargs):
                start = perf_counter()
                layers, trace = fn(*args, **kwargs)
                self.seconds += perf_counter() - start
                self.iterations += len(trace)
                return layers, trace

            return timed

        return [(experiment, "train", make)]


class HostSampler:
    """Runs the host calibration inside a long train() call.

    Before a mask refresh that starts at least ``INTERVAL_S`` after the
    last calibration (or after the start), the calibration runs again.
    ``spent`` is the time the calibrations took, which the operation's
    timings leave out.
    """

    INTERVAL_S = 0.3

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def binding(self):
        def make(fn):
            def sampled(*args, **kwargs):
                start = perf_counter()
                if start - self._last >= self.INTERVAL_S:
                    self.samples.append(self.calibrate())
                    self._last = perf_counter()
                    self.spent += self._last - start
                return fn(*args, **kwargs)

            return sampled

        return [(training, "refresh_masks", make)]


class TrainWorkload:
    """run_experiment on the desk-scale model, one operation per pattern."""

    def __init__(self, name, strategy: Strategy, patterns, seed: int, sizes: Sizes, out_dir: str):
        self.name = name
        self.sizes = sizes
        # several training seeds per run: accuracy and step cost both depend
        # on the data, and averaging over seeds keeps runs comparable
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(sizes.train_seeds)]
        self.configs = [
            self._config(strategy, NmPattern.parse(p), s, os.path.join(out_dir, f"{strategy.value}-{p.replace(':', 'of')}-{i}"))
            for i, s in enumerate(seeds)
            for p in patterns
        ]
        self.dense_config = self._config(Strategy.DENSE, NmPattern(2, 4), seeds[0], os.path.join(out_dir, "dense"))
        self.probe = GradientProbe()

    def _config(self, strategy, pattern, seed, out_dir):
        s = self.sizes
        return experiment.ExperimentConfig(
            strategy=strategy,
            pattern=pattern,
            out_dir=out_dir,
            hidden_dims=(s.hidden,),
            classes=16,
            dim=32,
            per_class=s.per_class,
            train=training.TrainConfig(epochs=s.epochs, batch_size=32, delta_t=s.delta_t, k=s.k, seed=seed),
        )

    @property
    def op_count(self) -> int:
        return len(self.configs)

    def setup(self) -> None:
        """What run_experiment does before train(): data and initial masks."""
        for cfg in self.configs:
            data = experiment.build_dataset(cfg)
            dims = [data.input_dim, *cfg.hidden_dims, data.num_classes]
            training.init_layers(dims, cfg.pattern, cfg.strategy, cfg.train.seed)

    def check_bindings(self):
        return self.probe.bindings()

    def run_op(self, i: int, calibrate=None) -> OpResult:
        """One training run; with ``calibrate``, the host is sampled inside it."""
        return self._run(self.configs[i], calibrate)

    def _run(self, cfg, calibrate=None) -> OpResult:
        clock = TrainClock()
        sampler = HostSampler(calibrate)
        with patched(clock.binding() + (sampler.binding() if calibrate else [])):
            start = perf_counter()
            summary = experiment.run_experiment(cfg)
            wall = perf_counter() - start - sampler.spent
        clock.seconds -= sampler.spent
        with open(os.path.join(cfg.out_dir, "metrics.csv"), "rb") as fh:
            metrics = fh.read()
        written = sum(e.stat().st_size for e in os.scandir(cfg.out_dir) if e.is_file())
        return OpResult(
            digest(np.frombuffer(metrics, dtype=np.uint8)), clock.iterations, wall, clock.seconds, summary, written, sampler.samples
        )

    def dense_reference(self, repeats: int) -> dict:
        """The same model trained dense: the floor the sparse strategies pay over."""
        runs = [self._run(self.dense_config) for _ in range(repeats)]
        busy = sorted(r.busy_s for r in runs)[len(runs) // 2]
        wall = sorted(r.wall_s for r in runs)[len(runs) // 2]
        return {"wall_s": wall, "ops_per_s": runs[0].units / busy, "train_acc": runs[0].outputs.final_train_accuracy}

    def check_op(self, i: int, results: list[OpResult], checker: Checker) -> None:
        """Every mask train() makes is checked through the checker's bindings."""

    def quality(self, results: list[OpResult]) -> dict:
        """Over the operations of the checked pass that ran to the end."""
        summaries = [r.outputs for r in results if r is not None]
        kept = base = 0.0
        for layers in self.probe.final_layers:
            for layer in layers:
                base += kit.kept_magnitude(layer.w, _vanilla_mask(layer.w, layer.pattern))
                if layer.strategy is Strategy.BI_MASK:
                    kept += float(np.abs(layer.bwd_mask.bits * layer.w[layer.perm]).sum())
                else:
                    kept += kit.kept_magnitude(layer.w, layer.fwd_mask)
        return {
            "train_acc": _mean([s.final_train_accuracy for s in summaries]),
            "grad_gap_mean": _mean(self.probe.gaps),
            "eligible_ratio": _mean([s.mean_eligible_block_ratio for s in summaries]),
            "kept_ratio": _ratio(kept, base),
        }


class MatrixWorkload:
    """Shared plumbing of the one-shot workloads on large random matrices."""

    dense_reference = None

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.items: list = []

    def check_bindings(self):
        return []

    @property
    def op_count(self) -> int:
        return len(self.items)

    def _matrices(self, shapes, salt: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, salt]))
        return [kit.matrix(rng.normal(size=shape)) for shape in shapes], rng

    def run_op(self, i: int, calibrate=None) -> OpResult:
        """One matrix; short enough that calibrating around it suffices."""
        start = perf_counter()
        outputs = self._op(*self.items[i])
        wall = perf_counter() - start
        return OpResult(self._digest(outputs), 1, wall, wall, outputs)

    def quality(self, results) -> dict:
        """Quality of the masks the backward product would use, over all matrices.

        Each matrix contributes through ``_backward_view``: the weights under
        the backward-product mask (rows in ``perm`` order), the weights under
        the vanilla forward mask, and the eligible and total column blocks.
        The gap uses one random probe gradient per matrix. A matrix whose
        operation raised in the checked pass is left out.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x6A9]))
        eligible = total = 0
        kept = base = 0.0
        gaps = []
        for item, r in zip(self.items, results):
            if r is None:
                continue
            backward_w, perm, vanilla_w, e, t = self._backward_view(item, r.outputs)
            eligible += e
            total += t
            kept += float(np.abs(backward_w).sum())
            base += float(np.abs(vanilla_w).sum())
            g = rng.normal(size=(vanilla_w.shape[0], PROBE_BATCH))
            num, den = _relative_gap(backward_w.T @ g[perm], vanilla_w.T @ g)
            gaps.append(math.sqrt(num / den))
        # no model is trained here; 1.0 keeps the metric defined on every workload
        return {"train_acc": 1.0, "grad_gap_mean": _mean(gaps), "eligible_ratio": _ratio(eligible, total), "kept_ratio": _ratio(kept, base)}


class SearchLarge(MatrixWorkload):
    """One bimask refresh per matrix: forward, permutation search, backward."""

    name = "search_large"

    def setup(self) -> None:
        shapes = [shape for shape, _ in self.sizes.search_shapes]
        mats, rng = self._matrices(shapes, 0x5EA2C4)
        self.items = [
            (w, NmPattern.parse(p), int(rng.integers(2**31)))
            for w, (_, p) in zip(mats, self.sizes.search_shapes)
        ]

    def _op(self, w, pattern, seed):
        fwd = masks.forward_mask(w, pattern)
        masked = fwd.apply(w)
        report = permute.search_permutation(masked, pattern, self.sizes.k, seed=seed)
        bwd = masks.backward_mask(w, fwd, report.chosen, pattern)
        eligible = permute.count_eligible_blocks(masked[report.chosen], pattern)
        return fwd, report, bwd, eligible

    def _digest(self, outputs) -> str:
        fwd, report, bwd, _ = outputs
        return digest(fwd.bits, report.chosen, bwd.bits)

    def check_op(self, i: int, results, checker: Checker) -> None:
        _, report, _, counted = results[i].outputs
        checker.expect(
            counted == (report.eligible_blocks, report.total_blocks),
            f"search_large op {i}: count_eligible_blocks disagrees with the search report",
        )

    def _backward_view(self, item, outputs):
        w = item[0]
        fwd, report, bwd, (eligible, total) = outputs
        return bwd.bits * w[report.chosen], report.chosen, fwd.apply(w), eligible, total


class TransposableLarge(MatrixWorkload):
    """transposable_mask on few, large tiles, plus the exact solver at 2:4."""

    name = "transposable_large"

    def setup(self) -> None:
        ops = self.sizes.transposable_ops
        mats, _ = self._matrices([shape for shape, _, _ in ops], 0x7A05)
        # the exact/approx pair at the end shares the exact op's matrix
        mats[-1] = mats[-2]
        self.items = [(w, NmPattern.parse(p), TransposableMethod(m)) for w, (_, p, m) in zip(mats, ops)]
        # the exact solver's candidate-tile table is a lazy cache
        masks.transposable_mask(np.ones((4, 4)), NmPattern(2, 4), TransposableMethod.EXACT)

    def _op(self, w, pattern, method):
        return masks.transposable_mask(w, pattern, method)

    def _digest(self, mask) -> str:
        return digest(mask.bits)

    def check_op(self, i: int, results, checker: Checker) -> None:
        if i == len(self.items) - 1 and results[i - 1] is not None:
            exact, approx = results[i - 1].outputs, results[i].outputs
            checker.approx_within_exact(self.items[i][0], approx, exact, "transposable_large 2:4")

    def _backward_view(self, item, mask):
        w, pattern, _ = item
        transposable_w = mask.apply(w)
        eligible, total = kit.count_eligible_blocks(transposable_w, pattern)
        return transposable_w, np.arange(w.shape[0]), _vanilla_mask(w, pattern).apply(w), eligible, total


def make(name: str, seed: int, smoke: bool, out_dir: str):
    sizes = SMOKE if smoke else FULL
    if name == "train_bimask":
        return TrainWorkload(name, Strategy.BI_MASK, ("2:4", "1:16"), seed, sizes, out_dir)
    if name == "train_transposable":
        return TrainWorkload(name, Strategy.TRANSPOSABLE, ("2:4",), seed, sizes, out_dir)
    if name == "search_large":
        return SearchLarge(seed, sizes)
    if name == "transposable_large":
        return TransposableLarge(seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
