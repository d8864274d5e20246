#!/usr/bin/env python3
"""Digest the deterministic artifacts of a fixed set of training runs.

    python3 tools/artifact_digests.py <src-dir> > digests.txt

Imports ``nm_sparse_kit`` from ``<src-dir>``, so one copy of this script
digests two checkouts; a change that should keep behaviour byte-identical
must print the same lines on both. Each line is ``sha256  name``:

* every ``Strategy`` at 2:4, 1:16 and 2:8, with all four criteria on bimask,
  at seeds 0 and 1 (10 epochs, delta_t 20, k 20, hidden layer 64), through
  ``run_experiment``: every file it writes, with ``summary.csv`` digested
  without the wall-clock ``search_seconds_total`` column;
* one more transposable run at 4:8, seed 0, a second greedy scan pattern
  beside 2:8 (1:16 takes the argmax rounds);
* the five configurations of the acceptance suite's trend criterion at
  seed 0: final accuracy, every ``StepMetrics``, and each layer's weights,
  permutation and masks;
* ``TWO_APPROX`` transposable masks of fixed random, tie-heavy and
  zero-heavy 48 x 48 matrices at patterns on both sides of the greedy's
  kernel choice: the scan at M <= 8 up to 4:8, and the argmax rounds at
  5:8 to 8:8, whose counters do not fit the scan's word, and at 1:16 and
  8:16, whose 256 tile indices do not fit its kept-bit word; and of a
  fixed near-tie 48 x 48 matrix at the same patterns: in each 2 x 2 block,
  which lies inside one tile at every even M, one row or column holds a
  random |w| and its ``nextafter`` in random order, so the two differ only
  in the scan's index bits, and the other two entries are random; a scan
  that let the index decide such a pair changes the mask at every scan
  pattern with N < M;
* ``TWO_APPROX`` transposable masks of fixed random and tie-heavy 512 x 512
  matrices at 1:4, 1:8, 2:8 and 4:8, whose tile stacks the scan takes in
  several chunks (the 48 x 48 stacks above fit one);
* forward masks of the 48 x 48 matrices, and backward masks under all four
  criteria (fixed permutation, gradient and seed), at patterns on both
  sides of the top-N kernel choice: one argmax at 1:M, 1:2 included, and
  pairwise ranks otherwise, (M-1):M and 4:4 (N = M) included;
* ``search_permutation`` of the same matrices, forward-masked, at 2:4, 2:8,
  3:8, 1:16 and 4:4 (k = 50), and of a random 512 x 512 matrix at 2:8
  (k = 100, whose 101 candidates the scorer takes in two batches): the
  chosen permutation, the eligible count and the number of candidates;
* ``EXACT`` transposable masks of the same matrices at the ``TWO_APPROX``
  patterns;
* the transposable ``mask_diversity`` count of every N:M with M <= 12;
* ``EXACT`` and ``TWO_APPROX`` transposable masks of random 32 x 96 and
  96 x 32 matrices at 2:4, 2:8 and 1:16, whose tile grids are not square,
  and one ``EXACT`` mask of a random 128 x 128 matrix at 2:4 (1 024 tiles);
* ``EXACT`` transposable masks of fixed random and tie-heavy 256 x 512
  matrices at 2:4 (8 192 tiles) and 1:16 (512 tiles), whose tile stacks
  the exact solver takes in four chunks each;
* ``MULTINOMIAL_SAMPLING`` backward masks at the top-N patterns, seeds 0 to
  2, of two fixed 48 x 48 matrices at the ends of the float range: one of
  |w| in [0.5, 1] x 1.7e308 with ~20% zeros, whose column-block totals
  overflow, and one mixing 1e300, 1e-30, 1e-320 and 0, where each entry's
  share of its block total is either normal or underflows to exactly 0;
* forward masks of the fixed random and tie-heavy 512 x 512 matrices at
  2:4, 2:8 and 4:8, whose keys span several of the forward kernel's
  blocks (the 48 x 48 keys above fit one), and backward masks of them
  under all four criteria (fixed permutation, gradient and seed).

Every section after the trend criterion's is a fixed-matrix section: it
calls no matmul, so its lines do not depend on the BLAS build, and
``tests/test_golden_digests.py`` checks them against a committed fixture
(``fixed_matrix_digests``). The training sections run only here.

Runs write into a temporary directory under relative ``out_dir`` names, so
``config.txt`` does not depend on where the script runs.
"""

import hashlib
import itertools
import os
import sys
import tempfile
from dataclasses import astuple, replace

import numpy as np

PATTERNS = ("2:4", "1:16", "2:8")
SEEDS = (0, 1)
TREND_CONFIGS = (("dense", "2:4"), ("bimask", "2:4"), ("transposable", "2:4"), ("bimask", "1:16"),
                 ("transposable", "1:16"))
WALL_CLOCK_COLUMNS = ("search_seconds_total",)
APPROX_PATTERNS = ("1:2", "2:2", "2:3", "1:4", "2:4", "3:4", "2:8", "4:8", "5:8", "6:8", "7:8", "8:8", "1:16",
                   "8:16")
TOP_N_PATTERNS = ("1:4", "2:4", "3:4", "2:8", "4:8", "7:8", "1:16", "8:16", "15:16", "1:2", "4:4")
SEARCH_PATTERNS = ("2:4", "2:8", "3:8", "1:16", "4:4")
DIVERSITY_MAX_M = 12
GRID_SHAPES = ((32, 96), (96, 32))
GRID_PATTERNS = ("2:4", "2:8", "1:16")
CHUNK_PATTERNS = ("1:4", "1:8", "2:8", "4:8")
LARGE_TOP_N_PATTERNS = ("2:4", "2:8", "4:8")
EXACT_CHUNK_PATTERNS = ("2:4", "1:16")
SAMPLING_SEEDS = (0, 1, 2)
NEAR_MAX = 1.7e308


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.csv":
        rows = [line.split(",") for line in data.decode().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name not in WALL_CLOCK_COLUMNS]
        data = "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    return hashlib.sha256(data).hexdigest()


def add_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype}{a.shape}".encode())
    h.update(a.tobytes())


def run_digests(kit, strategy, criterion, text, seed):
    name = f"{strategy.value}-{criterion.value}-{text.replace(':', 'of')}-s{seed}"
    cfg = kit.ExperimentConfig(
        strategy=strategy,
        pattern=kit.NmPattern.parse(text),
        criterion=criterion,
        out_dir=name,
        hidden_dims=(64,),
    )
    cfg = replace(cfg, train=replace(cfg.train, epochs=10, delta_t=20, k=20, seed=seed))
    kit.run_experiment(cfg)
    for file in sorted(os.listdir(name)):
        yield file_digest(os.path.join(name, file)), f"{name}/{file}"


def experiment_digests(kit):
    criteria = list(kit.BinarizationCriterion)
    for seed in SEEDS:
        for text in PATTERNS:
            for strategy in kit.Strategy:
                for criterion in criteria if strategy is kit.Strategy.BI_MASK else criteria[:1]:
                    yield from run_digests(kit, strategy, criterion, text, seed)
    yield from run_digests(kit, kit.Strategy.TRANSPOSABLE, criteria[0], "4:8", 0)


def trend_digests(kit, seed=0):
    """The acceptance suite's trend_run, digested instead of scored."""
    data = kit.generate_synthetic(classes=16, dim=32, per_class=40, spread=0.35, seed=seed)
    cfg = kit.TrainConfig(
        epochs=50, batch_size=32, delta_t=50, k=100, warmup_epochs=5,
        peak_lr=0.1, momentum=0.9, weight_decay=1e-3, seed=seed,
    )
    for strategy, text in TREND_CONFIGS:
        pattern = kit.NmPattern.parse(text)
        layers = kit.init_layers([32, 128, 16], pattern, kit.Strategy(strategy), seed=seed)
        layers, trace = kit.train(layers, data, cfg)
        h = hashlib.sha256()
        h.update(repr(kit.evaluate_accuracy(layers, data.x_train, data.y_train)).encode())
        for step in trace:
            h.update(repr(astuple(step)).encode())
        for layer in layers:
            add_array(h, layer.w)
            add_array(h, layer.perm)
            for mask in (layer.fwd_mask, layer.bwd_mask):
                if mask is not None:
                    add_array(h, mask.bits)
        yield h.hexdigest(), f"trend-{strategy}-{text.replace(':', 'of')}-s{seed}"


def fixed_matrices(seed=0):
    """Random, tie-heavy and zero-heavy 48 x 48 matrices; 48 is a multiple of every M used on them."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(48, 48))
    zero_heavy = np.where(rng.random(w.shape) < 0.5, 0.0, w)
    return ("random", w), ("ties", np.round(w, 1)), ("zeros", zero_heavy)


def near_tie_matrix(seed=5):
    """Random |w| with one 1-ulp pair in a row or column of every 2 x 2 block, random signs."""
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(0.5, 2.0, size=(24, 24, 4))  # each 2 x 2 block flat, row-major
    sides = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])[rng.integers(0, 4, size=(24, 24))]
    sides = rng.permuted(sides, axis=2)
    i, j = np.indices((24, 24))
    blocks[i, j, sides[..., 1]] = np.nextafter(blocks[i, j, sides[..., 0]], np.inf)
    w = blocks.reshape(24, 24, 2, 2).swapaxes(1, 2).reshape(48, 48)
    return w * rng.choice((-1.0, 1.0), size=(48, 48))


def mask_digest(mask) -> str:
    h = hashlib.sha256()
    add_array(h, mask.bits)
    return h.hexdigest()


def transposable_digests(kit, method):
    for kind, matrix in fixed_matrices():
        for text in APPROX_PATTERNS:
            mask = kit.transposable_mask(matrix, kit.NmPattern.parse(text), method)
            yield mask_digest(mask), f"{method.value}-{kind}-{text.replace(':', 'of')}"


def near_tie_digests(kit):
    method = kit.TransposableMethod.TWO_APPROX
    for text in APPROX_PATTERNS:
        mask = kit.transposable_mask(near_tie_matrix(), kit.NmPattern.parse(text), method)
        yield mask_digest(mask), f"{method.value}-near-ties-{text.replace(':', 'of')}"


def chunk_digests(kit, method, shape, patterns, seed):
    """Masks of a random matrix and its tie-heavy copy, large enough to span several chunks."""
    w = np.random.default_rng(seed).normal(size=shape)
    for kind, matrix in (("random", w), ("ties", np.round(w, 1))):
        for text in patterns:
            mask = kit.transposable_mask(matrix, kit.NmPattern.parse(text), method)
            yield mask_digest(mask), f"{method.value}-{shape[0]}x{shape[1]}-{kind}-{text.replace(':', 'of')}"


def top_n_digests(kit, seed=1):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(48)
    gradient = np.round(rng.normal(size=(48, 48)), 1)
    for kind, matrix in fixed_matrices():
        for text in TOP_N_PATTERNS:
            pattern, name = kit.NmPattern.parse(text), f"{kind}-{text.replace(':', 'of')}"
            fwd = kit.forward_mask(matrix, pattern)
            yield mask_digest(fwd), f"forward-{name}"
            for criterion in kit.BinarizationCriterion:
                bwd = kit.backward_mask(matrix, fwd, perm, pattern, criterion, gradient=gradient, seed=seed)
                yield mask_digest(bwd), f"backward-{criterion.value}-{name}"


def large_top_n_digests(kit, seed=8):
    """Forward and backward masks of ``chunk_digests``' 512 x 512 matrices."""
    w = np.random.default_rng(6).normal(size=(512, 512))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(512)
    gradient = np.round(rng.normal(size=(512, 512)), 1)
    for kind, matrix in (("random", w), ("ties", np.round(w, 1))):
        for text in LARGE_TOP_N_PATTERNS:
            pattern, name = kit.NmPattern.parse(text), f"512x512-{kind}-{text.replace(':', 'of')}"
            fwd = kit.forward_mask(matrix, pattern)
            yield mask_digest(fwd), f"forward-{name}"
            for criterion in kit.BinarizationCriterion:
                bwd = kit.backward_mask(matrix, fwd, perm, pattern, criterion, gradient=gradient, seed=seed)
                yield mask_digest(bwd), f"backward-{criterion.value}-{name}"


def search_digest(kit, matrix, text, k, seed):
    pattern = kit.NmPattern.parse(text)
    report = kit.search_permutation(kit.forward_mask(matrix, pattern).apply(matrix), pattern, k, seed=seed)
    h = hashlib.sha256()
    add_array(h, report.chosen)
    h.update(repr((report.eligible_blocks, report.total_blocks, report.candidates_evaluated)).encode())
    return h.hexdigest()


def search_digests(kit, seed=2):
    for kind, matrix in fixed_matrices():
        for text in SEARCH_PATTERNS:
            yield search_digest(kit, matrix, text, 50, seed), f"search-{kind}-{text.replace(':', 'of')}"
    large = np.random.default_rng(seed).normal(size=(512, 512))
    yield search_digest(kit, large, "2:8", 100, seed), "search-large-2of8"


def diversity_digests(kit):
    for m in range(2, DIVERSITY_MAX_M + 1):
        for n in range(1, m + 1):
            count = kit.mask_diversity(kit.NmPattern(n, m), kit.MaskFamily.TRANSPOSABLE)
            yield hashlib.sha256(str(count).encode()).hexdigest(), f"diversity-transposable-{n}of{m}"


def grid_digests(kit, seed=3):
    rng = np.random.default_rng(seed)
    methods = kit.TransposableMethod
    for rows, cols in GRID_SHAPES:
        w = rng.normal(size=(rows, cols))
        for method in (methods.EXACT, methods.TWO_APPROX):
            for text in GRID_PATTERNS:
                mask = kit.transposable_mask(w, kit.NmPattern.parse(text), method)
                yield mask_digest(mask), f"{method.value}-{rows}x{cols}-{text.replace(':', 'of')}"
    mask = kit.transposable_mask(rng.normal(size=(128, 128)), kit.NmPattern(2, 4), methods.EXACT)
    yield mask_digest(mask), f"{methods.EXACT.value}-128x128-2of4"


def extreme_sampling_digests(kit, seed=4):
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(48, 48))
    overflow = rng.uniform(0.5, 1.0, size=(48, 48)) * NEAR_MAX * signs * (rng.random((48, 48)) >= 0.2)
    mixed = rng.choice((1e300, 1e-30, 1e-320, 0.0), size=(48, 48)) * signs
    perm = rng.permutation(48)
    criterion = kit.BinarizationCriterion.MULTINOMIAL_SAMPLING
    for kind, matrix in (("overflow", overflow), ("mixed", mixed)):
        for text in TOP_N_PATTERNS:
            pattern = kit.NmPattern.parse(text)
            fwd = kit.forward_mask(matrix, pattern)
            for s in SAMPLING_SEEDS:
                bwd = kit.backward_mask(matrix, fwd, perm, pattern, criterion, seed=s)
                yield mask_digest(bwd), f"backward-{criterion.value}-{kind}-{text.replace(':', 'of')}-s{s}"


def fixed_matrix_digests(kit):
    """Every section that trains nothing, in the order the tool prints them."""
    methods = kit.TransposableMethod
    return itertools.chain(transposable_digests(kit, methods.TWO_APPROX), near_tie_digests(kit),
                           chunk_digests(kit, methods.TWO_APPROX, (512, 512), CHUNK_PATTERNS, seed=6),
                           top_n_digests(kit), search_digests(kit), transposable_digests(kit, methods.EXACT),
                           diversity_digests(kit), grid_digests(kit),
                           chunk_digests(kit, methods.EXACT, (256, 512), EXACT_CHUNK_PATTERNS, seed=7),
                           extreme_sampling_digests(kit), large_top_n_digests(kit))


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(argv[0]))
    import nm_sparse_kit as kit

    print(f"digesting {kit.__file__}", file=sys.stderr)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = itertools.chain(experiment_digests(kit), trend_digests(kit), fixed_matrix_digests(kit))
            for digest, name in digests:
                print(f"{digest}  {name}")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
