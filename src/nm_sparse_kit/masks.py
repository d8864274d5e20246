"""N:M sparsity masks: vanilla forward, transposable, and bi-directional backward.

Conventions used throughout:

* forward masks constrain *row-aligned* blocks: every M contiguous entries of
  a row hold at most N ones (generators produce exactly N, magnitude ties
  broken toward the lowest column index);
* backward masks constrain *column-aligned* blocks of M contiguous rows;
* transposable masks satisfy both constraints at once, which decomposes into
  independent M x M tiles.

Masks are dense uint8 matrices; the point is the block semantics, not a
compressed storage format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

import numpy as np

from .permute import check_permutation
from .tensorops import NmPattern, check_divisible, format_matrix, matrix, parse_matrix


class MaskDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    TRANSPOSABLE = "transposable"


class MaskFamily(Enum):
    VANILLA = "vanilla"
    TRANSPOSABLE = "transposable"


class TransposableMethod(Enum):
    EXACT = "exact"
    TWO_APPROX = "approx"


class BinarizationCriterion(Enum):
    """Statistic used to pick the surviving entries of each backward block."""

    WEIGHT_MAGNITUDE = "weight-magnitude"
    GRADIENT_MAGNITUDE = "gradient-magnitude"
    MULTINOMIAL_SAMPLING = "multinomial"
    RANDOM = "random"


@dataclass
class Mask:
    """A binary matrix tagged with its direction and N:M pattern."""

    direction: MaskDirection
    bits: np.ndarray
    pattern: NmPattern

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError(f"mask bits must form a non-empty 2-D matrix, got shape {b.shape}")
        # uint8, the dtype every generator emits, has no negatives to rule out
        binary = b.max() <= 1 if b.dtype == np.uint8 else ((b == 0) | (b == 1)).all()
        if not binary:
            raise ValueError("mask bits must all be 0 or 1")
        rows, cols = b.shape
        if self.direction is not MaskDirection.BACKWARD:
            check_divisible(cols, self.pattern.m, f"{self.direction.value} mask cols")
        if self.direction is not MaskDirection.FORWARD:
            check_divisible(rows, self.pattern.m, f"{self.direction.value} mask rows")
        self.bits = np.ascontiguousarray(b, dtype=np.uint8)

    @property
    def shape(self):
        return self.bits.shape

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Elementwise product of the mask with a same-shaped matrix."""
        if w.shape != self.bits.shape:
            raise ValueError(f"mask shape {self.bits.shape} does not match matrix {w.shape}")
        return self.bits * w


@dataclass(frozen=True)
class BlockViolation:
    """One N:M block whose ones-count exceeds the budget.

    ``row``/``col`` give the block's top-left coordinate; row blocks span
    columns, column blocks span rows.
    """

    direction: MaskDirection
    row: int
    col: int
    ones: int
    limit: int


def _top_n(keys: np.ndarray, n: int) -> np.ndarray:
    """The n largest keys of each row of (blocks, m) keys, as 0/1 uint8.

    Ties keep the lowest index, as in a stable descending sort: each of n
    argmax rounds takes the first maximum and sets it to -inf. A row left
    with only -inf keys gets its lowest free slots instead. For n > m / 2 the
    m - n dropped slots are picked from the negated, reversed keys. ``keys``
    may be overwritten.
    """
    blocks, m = keys.shape
    if 2 * n > m:
        return 1 - _top_n(-keys[:, ::-1], m - n)[:, ::-1]
    work = np.ascontiguousarray(keys, dtype=np.float64)
    has_neg_inf = work.min() == -np.inf
    bits = np.zeros((blocks, m), dtype=np.uint8)
    flat_work, flat_bits = work.reshape(-1), bits.reshape(-1)
    starts = np.arange(0, blocks * m, m)
    for _ in range(n):
        taken = starts + work.argmax(axis=1)
        flat_bits[taken] = 1
        flat_work[taken] = -np.inf
    if has_neg_inf:
        free = bits == 0
        short = n - m + free.sum(axis=1, keepdims=True)
        bits |= free & (free.cumsum(axis=1) <= short)
    return bits


def forward_mask(w: np.ndarray, pattern: NmPattern) -> Mask:
    """Row-blockwise top-N magnitude mask (the vanilla forward mask).

    Within each block of M contiguous columns of a row, the N largest |w|
    entries survive; magnitude ties keep the lowest column index (the first
    maximum of each argmax round), so the result is deterministic and has
    exactly N ones per block.
    """
    w = matrix(w)
    rows, cols = w.shape
    check_divisible(cols, pattern.m, "matrix cols")
    bits = _top_n(np.abs(w).reshape(-1, pattern.m), pattern.n)
    return Mask(MaskDirection.FORWARD, bits.reshape(rows, cols), pattern)


def _block_keep_positions(keys: np.ndarray, n: int, m: int) -> np.ndarray:
    """Keep the n highest-key positions in every column block of m rows.

    ``keys`` is (rows, cols); each block is copied into a contiguous row for
    ``_top_n``, so ties resolve to the lowest row index. Returns a uint8
    selection matrix with exactly n ones per column block.
    """
    rows, cols = keys.shape
    sel = _top_n(keys.reshape(rows // m, m, cols).swapaxes(1, 2).reshape(-1, m), n)
    return sel.reshape(rows // m, cols, m).swapaxes(1, 2).reshape(rows, cols)


def _sampling_keys(stat: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Gumbel-top-N keys for sampling blocks proportionally to ``stat``.

    Positive-statistic entries get log(p) + Gumbel noise, which drawn top-N
    is multinomial sampling without replacement. Zero entries sit in a band
    far below any positive key with uniform noise, so all-zero blocks fall
    back to a uniform draw. A block whose total overflows is first divided
    by its maximum; every other block's keys are unchanged by that. An entry
    is positive by its unscaled statistic x, and one whose share p
    underflows to zero takes log(x) - log(scale) - log(total / scale) for
    log(p), where scale is the block's divisor (1 unless its total overflows).
    """
    rows, cols = stat.shape
    raw = stat.reshape(rows // m, m, cols)
    with np.errstate(over="ignore"):
        totals = raw.sum(axis=1, keepdims=True)
    blocked, log_scale = raw, 0.0
    if np.isinf(totals).any():
        scale = np.where(np.isinf(totals), raw.max(axis=1, keepdims=True), 1.0)
        blocked, log_scale = raw / scale, np.log(scale)
        totals = blocked.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = blocked / totals
        logp = np.where(ratio > 0, np.log(ratio), np.log(raw) - log_scale - np.log(totals))
        gumbel = -np.log(-np.log(rng.random(raw.shape)))
    keys = np.where(raw > 0, logp + gumbel, -1e12 + rng.random(raw.shape))
    return keys.reshape(rows, cols)


def backward_mask(
    w: np.ndarray,
    fwd: Mask,
    perm,
    pattern: NmPattern,
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE,
    *,
    gradient: np.ndarray | None = None,
    seed: int | None = None,
) -> Mask:
    """Column-blockwise backward mask built from the permuted masked weights.

    Rows of the forward-masked weights are reordered by ``perm`` (identity
    when None); within each block of M contiguous (permuted) rows of a
    column, the N strongest entries of the selection statistic inherit the
    permuted forward bit and everything else is zeroed. The returned bits
    are therefore indexed in the *permuted* row order and never exceed the
    permuted forward mask.
    """
    w = matrix(w)
    n, m = pattern.n, pattern.m
    rows, cols = w.shape
    check_divisible(rows, m, "matrix rows")
    if fwd.direction is not MaskDirection.FORWARD:
        raise ValueError(f"backward_mask needs a forward mask, got {fwd.direction.value}")
    if fwd.shape != w.shape:
        raise ValueError(f"forward mask shape {fwd.shape} does not match matrix {w.shape}")
    if fwd.pattern != pattern:
        raise ValueError(f"forward mask pattern {fwd.pattern} does not match {pattern}")
    perm = np.arange(rows) if perm is None else check_permutation(perm, rows)

    fwd_perm = fwd.bits[perm]
    masked_perm = fwd_perm * w[perm]

    if criterion is BinarizationCriterion.WEIGHT_MAGNITUDE:
        keys = np.abs(masked_perm)
    elif criterion is BinarizationCriterion.GRADIENT_MAGNITUDE:
        if gradient is None:
            raise ValueError("gradient-magnitude criterion needs a gradient matrix")
        gradient = matrix(gradient)
        if gradient.shape != w.shape:
            raise ValueError(f"gradient shape {gradient.shape} does not match matrix {w.shape}")
        keys = np.abs(fwd_perm * gradient[perm])
    elif criterion is BinarizationCriterion.MULTINOMIAL_SAMPLING:
        if seed is None:
            raise ValueError("multinomial criterion needs an explicit seed")
        keys = _sampling_keys(np.abs(masked_perm), m, np.random.default_rng(seed))
    elif criterion is BinarizationCriterion.RANDOM:
        if seed is None:
            raise ValueError("random criterion needs an explicit seed")
        keys = np.random.default_rng(seed).random(w.shape)
    else:  # pragma: no cover
        raise ValueError(f"unknown criterion {criterion!r}")

    bits = _block_keep_positions(keys, n, m) * fwd_perm
    return Mask(MaskDirection.BACKWARD, bits, pattern)


def _greedy_tiles(abs_tiles: np.ndarray, n: int, m: int) -> np.ndarray:
    """Greedy masks for a (tiles, m, m) stack of |w| tiles, all solved at once.

    Per tile this is descending-magnitude insertion under the row and column
    budgets, the standard 1/2-approximation for this pair of partition
    constraints. Each round every tile takes its largest live entry; argmax
    returns the lowest flat index among equal maxima, which is the order a
    stable descending sort visits them in. A taken entry, and every entry of
    a row or column that reaches n ones, is set to -1 (below any |w|), so a
    tile is done once its maximum is negative. Each round adds a one to every
    tile still running, hence at most n * m rounds.
    """
    tiles = abs_tiles.shape[0]
    work = abs_tiles.copy()
    flat = work.reshape(tiles, m * m)
    bits = np.zeros((tiles, m, m), dtype=np.uint8)
    row_used = np.zeros((tiles, m), dtype=np.int64)
    col_used = np.zeros((tiles, m), dtype=np.int64)
    every = np.arange(tiles)
    for _ in range(n * m):
        best = flat.argmax(axis=1)
        t = every[flat[every, best] >= 0]
        if t.size == 0:
            break
        r, c = np.divmod(best[t], m)
        bits[t, r, c] = 1
        work[t, r, c] = -1.0
        row_used[t, r] += 1
        col_used[t, c] += 1
        full = row_used[t, r] == n
        work[t[full], r[full], :] = -1.0
        full = col_used[t, c] == n
        work[t[full], :, c[full]] = -1.0
    return bits


# below every reachable path sum; sums involving it stay inside int64
_UNREACHED = np.int64(-(1 << 61))


def _fold_max(keys: np.ndarray) -> np.ndarray:
    """Maximum over the last axis by halving folds.

    numpy's axis reductions are slow when that axis is as short as a tile
    side; log2(m) elementwise maxima are not. Odd halves overlap by one
    entry, which a maximum ignores.
    """
    while keys.shape[-1] > 1:
        half = (keys.shape[-1] + 1) // 2
        keys = np.maximum(keys[..., :half], keys[..., -half:])
    return keys[..., 0]


def _relax(dist: np.ndarray, pred: np.ndarray, best: np.ndarray, low: np.int64):
    """Adopt each node's best coded key where its value strictly beats ``dist``.

    Returns the new distances, the new predecessors and whether any changed.
    """
    value = best & ~low
    better = value > dist
    return np.where(better, value, dist), np.where(better, low - (best & low), pred), better.any()


def _exact_tiles(abs_tiles: np.ndarray, n: int, m: int) -> np.ndarray:
    """Maximum-|w| masks for a (tiles, m, m) stack of |w| tiles, all solved at once.

    A tile is a max-weight bipartite b-matching: rows and columns hold at
    most n ones each, and entry (i, j) is an edge of weight |w[i, j]|. Its LP
    is totally unimodular, so successive longest augmenting paths solve it
    exactly (min-cost flow, as in Hubara et al. 2021): the k-th augmentation
    leaves a heaviest mask with k ones, and a tile drops out once no path
    gains anything, after at most n * m rounds. Each round runs Bellman-Ford
    over every live tile's m rows and m columns at once: rows reach
    columns through unkept entries (+|w|), columns reach rows through kept
    ones (-|w|), and a path starts at a row and ends at a column with spare
    budget.

    Arithmetic and tolerance: each tile is scaled by its power of two 2**e
    (maximum in [2**(e-1), 2**e)) and rounded to integer multiples of
    2**(e - unit_bits). Path sums are then exact int64, so no rounding noise
    can make a zero-gain cycle look positive. A predecessor changes only on a
    strict improvement, which is at least one grid step, and the kept
    magnitude is within n * m grid steps of the optimum: under 8.9e-16 of it
    at 2:4 and 2.3e-13 at 8:16.

    Ties: every maximum takes the lowest index. A key carries its index in
    its low code bits (all ones minus the index, so the lowest index is the
    largest code), which makes one max per relaxation give both the distance
    and the predecessor. An augmenting path ends at the lowest-index column of
    largest gain. Bellman-Ford settles within m passes and the walk back
    along predecessors visits at most m rows; either bound exceeded raises.
    """
    tiles = abs_tiles.shape[0]
    code_bits = (m - 1).bit_length()
    low = np.int64((1 << code_bits) - 1)
    # leaves room for m forward edges and the code bits below 2**60
    unit_bits = 60 - (2 * m).bit_length() - code_bits
    exponent = np.frexp(abs_tiles.max(axis=(1, 2)))[1]
    grid = np.ldexp(abs_tiles, (unit_bits - exponent)[:, None, None])
    weight = np.rint(grid).astype(np.int64) << code_bits
    code = low - np.arange(m, dtype=np.int64)
    # forward[t, c, r]: row r -> column c while (r, c) is unkept;
    # backward[t, r, c]: column c -> row r while (r, c) is kept
    forward = np.ascontiguousarray(weight.swapaxes(1, 2)) + code
    backward = np.full((tiles, m, m), _UNREACHED) + code
    row_used = np.zeros((tiles, m), dtype=np.int64)
    col_used = np.zeros((tiles, m), dtype=np.int64)
    live = np.arange(tiles)
    for _ in range(n * m):
        fwd, bwd = (forward, backward) if live.size == tiles else (forward[live], backward[live])
        dist_r = np.where(row_used[live] < n, 0, _UNREACHED)
        dist_c = np.full(dist_r.shape, _UNREACHED)
        pred_r = np.full(dist_r.shape, -1)  # -1: the path starts at this row
        pred_c = np.zeros(dist_r.shape, dtype=np.int64)
        for _ in range(m):
            dist_c, pred_c, _ = _relax(dist_c, pred_c, _fold_max(dist_r[:, None, :] + fwd), low)
            dist_r, pred_r, changed = _relax(dist_r, pred_r, _fold_max(dist_c[:, None, :] + bwd), low)
            if not changed:
                break
        else:
            raise RuntimeError("exact transposable search found a positive cycle")
        end = _fold_max(np.where(col_used[live] < n, dist_c, _UNREACHED) + code)
        gains = end > low
        t = np.flatnonzero(gains)
        if t.size == 0:
            break
        g, c = live[t], low - (end[t] & low)
        col_used[g, c] += 1
        for _ in range(m):
            r = pred_c[t, c]
            forward[g, c, r] = _UNREACHED + code[r]
            backward[g, r, c] = code[c] - weight[g, r, c]
            c = pred_r[t, r]
            starts = c < 0
            row_used[g[starts], r[starts]] += 1
            g, t, c, r = g[~starts], t[~starts], c[~starts], r[~starts]
            forward[g, c, r] = weight[g, r, c] + code[r]
            backward[g, r, c] = _UNREACHED + code[c]
            if t.size == 0:
                break
        else:
            raise RuntimeError("exact transposable search found an augmenting path that does not end")
        live = live[gains]
    # an unkept entry's backward key is _UNREACHED plus its code
    return (backward > _UNREACHED + low).astype(np.uint8)


def transposable_mask(
    w: np.ndarray,
    pattern: NmPattern,
    method: TransposableMethod = TransposableMethod.TWO_APPROX,
) -> Mask:
    """One mask satisfying row and column N:M blocks simultaneously.

    Each M x M tile is solved independently for maximum kept |w|, and both
    methods view the matrix as a stack of tiles solved all at once. ``EXACT``
    finds the optimum by successive longest augmenting paths (see
    ``_exact_tiles``), at most N * M rounds, for any M. ``TWO_APPROX``
    greedily inserts entries by descending magnitude (ties to the lowest
    row-major index in the tile) and is guaranteed at least half the exact
    tile optimum, in at most N * M vectorized rounds.
    """
    w = matrix(w)
    n, m = pattern.n, pattern.m
    rows, cols = w.shape
    check_divisible(rows, m, "matrix rows")
    check_divisible(cols, m, "matrix cols")
    grid = (rows // m, cols // m)
    tiles = np.abs(w).reshape(grid[0], m, grid[1], m).swapaxes(1, 2).reshape(-1, m, m)
    if method is TransposableMethod.EXACT:
        tile_bits = _exact_tiles(tiles, n, m)
    else:
        tile_bits = _greedy_tiles(tiles, n, m)
    bits = tile_bits.reshape(*grid, m, m).swapaxes(1, 2).reshape(rows, cols)
    return Mask(MaskDirection.TRANSPOSABLE, bits, pattern)


def kept_magnitude(w: np.ndarray, mask: Mask) -> float:
    """Total |w| surviving the mask."""
    return float(np.abs(mask.apply(w)).sum())


def tile_kept_magnitudes(w: np.ndarray, mask: Mask, pattern: NmPattern) -> np.ndarray:
    """Kept |w| per M x M tile, as a (rows/M, cols/M) grid."""
    m = pattern.m
    rows, cols = w.shape
    check_divisible(rows, m, "matrix rows")
    check_divisible(cols, m, "matrix cols")
    kept = np.abs(mask.apply(w))
    return kept.reshape(rows // m, m, cols // m, m).sum(axis=(1, 3))


def _transposable_count_dp(n: int, m: int) -> int:
    """Count m x m masks with exactly n ones per row and at most n per column.

    Rows are placed one at a time; the state is how many columns still have
    each residual capacity 0..n, so the table stays tiny even at m = 16.
    """
    start = tuple([0] * n + [m])
    table = {start: 1}
    for _ in range(m):
        nxt: dict[tuple, int] = {}
        for state, ways in table.items():
            # distribute this row's n ones over capacity levels 1..n; demotions
            # apply only after the whole row is placed, so a row can never put
            # two ones into the same column
            picks = [0] * (n + 1)

            def place(level: int, remaining: int, mult: int):
                if remaining == 0:
                    new = list(state)
                    for j in range(1, n + 1):
                        new[j] -= picks[j]
                        new[j - 1] += picks[j]
                    key = tuple(new)
                    nxt[key] = nxt.get(key, 0) + ways * mult
                    return
                if level == 0:
                    return
                avail = state[level]
                for k in range(0, min(avail, remaining) + 1):
                    picks[level] = k
                    place(level - 1, remaining - k, mult * comb(avail, k))
                picks[level] = 0

            place(n, n, 1)
        table = nxt
    return sum(table.values())


def mask_diversity(pattern: NmPattern, family: MaskFamily, tile_rows: int | None = None) -> int:
    """Number of distinct masks a family admits on its reference tile.

    Vanilla counts exactly-N row blocks independently: C(M, N) ** tile_rows.
    Transposable counts M x M tiles with exactly N ones per row whose column
    sums stay within the N budget, via a column-capacity-profile dynamic
    program (m <= 16).
    """
    n, m = pattern.n, pattern.m
    if family is MaskFamily.VANILLA:
        if tile_rows is None or tile_rows < 1:
            raise ValueError("vanilla diversity needs tile_rows >= 1")
        return comb(m, n) ** tile_rows
    if tile_rows is not None and tile_rows != m:
        raise ValueError(f"transposable diversity is defined on the M x M tile; tile_rows must be {m} or omitted")
    if m > 16:
        raise ValueError(f"transposable diversity supported up to m = 16 (profile DP), got m = {m}")
    return _transposable_count_dp(n, m)


def validate_mask(mask: Mask) -> list[BlockViolation]:
    """All block-budget violations of a mask; empty means the mask is valid.

    Never raises: a mask that fails its direction's invariant comes back as
    a list of offending blocks with their coordinates and ones-counts.
    """
    n, m = mask.pattern.n, mask.pattern.m
    rows, cols = mask.bits.shape
    violations: list[BlockViolation] = []
    if mask.direction in (MaskDirection.FORWARD, MaskDirection.TRANSPOSABLE):
        sums = mask.bits.reshape(rows, cols // m, m).sum(axis=2)
        for i, bj in zip(*np.nonzero(sums > n)):
            violations.append(
                BlockViolation(MaskDirection.FORWARD, int(i), int(bj) * m, int(sums[i, bj]), n)
            )
    if mask.direction in (MaskDirection.BACKWARD, MaskDirection.TRANSPOSABLE):
        sums = mask.bits.reshape(rows // m, m, cols).sum(axis=1)
        for bi, j in zip(*np.nonzero(sums > n)):
            violations.append(
                BlockViolation(MaskDirection.BACKWARD, int(bi) * m, int(j), int(sums[bi, j]), n)
            )
    return violations


# Text format: "direction n m" header, then the matrix block of 0/1 entries.

def format_mask(mask: Mask) -> str:
    return f"{mask.direction.value} {mask.pattern.n} {mask.pattern.m}\n" + format_matrix(mask.bits)


def parse_mask(text: str) -> Mask:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("mask text needs a direction header")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"mask header must be 'direction n m', got {lines[0]!r}")
    try:
        direction = MaskDirection(head[0])
    except ValueError:
        raise ValueError(f"unknown mask direction {head[0]!r}") from None
    pattern = NmPattern(int(head[1]), int(head[2]))
    return Mask(direction, parse_matrix("\n".join(lines[1:])), pattern)


def save_mask(path, mask: Mask) -> None:
    with open(path, "w") as fh:
        fh.write(format_mask(mask))


def load_mask(path) -> Mask:
    with open(path) as fh:
        return parse_mask(fh.read())
