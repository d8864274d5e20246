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

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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
        m = self.pattern.m
        rows, cols = b.shape
        if self.direction in (MaskDirection.FORWARD, MaskDirection.TRANSPOSABLE) and cols % m:
            raise ValueError(f"{self.direction.value} mask needs cols divisible by {m}, got {cols}")
        if self.direction in (MaskDirection.BACKWARD, MaskDirection.TRANSPOSABLE) and rows % m:
            raise ValueError(f"{self.direction.value} mask needs rows divisible by {m}, got {rows}")
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


@lru_cache(maxsize=None)
def _feasible_tile_masks(n: int, m: int) -> np.ndarray:
    """All m x m binary masks with every row and column sum <= n, as (K, m * m) float64.

    Tiles are stacks of m feasible rows in ``itertools.product`` order; the
    table is built once per pattern, in the dtype it is scored in.
    """
    row_patterns = np.array([p for p in itertools.product((0, 1), repeat=m) if sum(p) <= n], dtype=np.float64)
    tiles = row_patterns[np.indices((len(row_patterns),) * m).reshape(m, -1).T]
    table = tiles[(tiles.sum(axis=1) <= n).all(axis=1)].reshape(-1, m * m)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


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


def transposable_mask(
    w: np.ndarray,
    pattern: NmPattern,
    method: TransposableMethod = TransposableMethod.TWO_APPROX,
) -> Mask:
    """One mask satisfying row and column N:M blocks simultaneously.

    Each M x M tile is solved independently for maximum kept |w|. ``EXACT``
    enumerates every feasible tile mask (guarded to m <= 4), one tile at a
    time. ``TWO_APPROX`` greedily inserts entries by descending magnitude
    (ties to the lowest row-major index in the tile) and is guaranteed at
    least half the exact tile optimum; it views the matrix as a stack of
    tiles and runs at most N * M vectorized rounds over all of them.
    """
    w = matrix(w)
    n, m = pattern.n, pattern.m
    rows, cols = w.shape
    check_divisible(rows, m, "matrix rows")
    check_divisible(cols, m, "matrix cols")
    if method is TransposableMethod.EXACT and m > 4:
        raise ValueError(
            f"exact transposable search enumerates all tile masks and is only "
            f"feasible for m <= 4 (got {pattern}); request the approx method"
        )
    grid = (rows // m, cols // m)
    tiles = np.abs(w).reshape(grid[0], m, grid[1], m).swapaxes(1, 2).reshape(-1, m, m)
    if method is TransposableMethod.EXACT:
        table = _feasible_tile_masks(n, m)
        # a power-of-two scale to a tile maximum below 1 is exact, and it keeps
        # the n * m-term candidate sums finite near the float maximum
        tiles = np.ldexp(tiles, -np.frexp(tiles.max(axis=(1, 2)))[1][:, None, None])
        best = [np.argmax(table @ tile.ravel()) for tile in tiles]
        tile_bits = table[best].reshape(-1, m, m).astype(np.uint8)
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
