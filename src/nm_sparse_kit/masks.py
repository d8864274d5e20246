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
from functools import cache
from math import comb

import numpy as np

from . import tensorops
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


SEEDED_CRITERIA = (BinarizationCriterion.MULTINOMIAL_SAMPLING, BinarizationCriterion.RANDOM)


@dataclass
class Mask:
    """A binary matrix tagged with its direction and N:M pattern."""

    direction: MaskDirection
    bits: np.ndarray
    pattern: NmPattern

    def __post_init__(self):
        self.direction = MaskDirection(self.direction)
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError(f"mask bits must form a non-empty 2-D matrix, got shape {b.shape}")
        if not ((b == 0) | (b == 1)).all():
            raise ValueError("mask bits must all be 0 or 1")
        _check_shape(b.shape, self.pattern.m, self.direction, f"{self.direction.value} mask")
        self.bits = np.ascontiguousarray(b, dtype=np.uint8)

    @property
    def shape(self):
        return self.bits.shape

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Elementwise product of the mask with a same-shaped finite matrix."""
        w = matrix(w)
        if w.shape != self.bits.shape:
            raise ValueError(f"mask shape {self.bits.shape} does not match matrix {w.shape}")
        return self.bits * w


def _built_mask(direction: MaskDirection, bits: np.ndarray, pattern: NmPattern, cls=Mask) -> Mask:
    """A generator's result, without ``Mask.__post_init__``'s checks.

    ``bits`` must already be C-contiguous uint8 holding only 0 and 1, in a
    shape the direction accepts, as every kernel here builds them after its
    own ``_check_shape``. The class is bound at definition, so rebinding the
    module's ``Mask`` name (a wrapper that counts public constructions, say)
    leaves this path alone.
    """
    mask = object.__new__(cls)
    mask.direction, mask.bits, mask.pattern = direction, bits, pattern
    return mask


def _check_shape(shape: tuple[int, int], m: int, direction: MaskDirection, what: str = "matrix") -> None:
    """Check that a ``what``'s dimensions split into the M-blocks of a ``direction`` mask.

    Forward blocks run along rows and need cols divisible by M, backward
    blocks need rows divisible by M, and transposable masks need both (rows
    checked first). Each mask kernel checks its own direction before it cuts
    a block, and ``Mask`` checks its bits the same way.
    """
    rows, cols = shape
    if direction is not MaskDirection.FORWARD:
        check_divisible(rows, m, f"{what} rows")
    if direction is not MaskDirection.BACKWARD:
        check_divisible(cols, m, f"{what} cols")


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


def _top_one(keys: np.ndarray) -> np.ndarray:
    """The largest key of every block of block-major (m, ...) keys, as 0/1 uint8.

    One argmax keeps each block's first maximum, the place of a stable
    descending sort, -inf included. The result has the layout of ``keys``;
    the compare runs in C order, so on the transposed rows of
    ``forward_mask`` its inner loop spans the blocks, not one block.
    """
    slot = np.arange(keys.shape[0]).reshape(-1, *[1] * (keys.ndim - 1))
    out = np.empty_like(keys, dtype=bool)
    np.equal(slot, keys.argmax(axis=0), out=out, order="C")
    return out.view(np.uint8)


def _top_n_ranks(keys: np.ndarray, n: int) -> np.ndarray:
    """The n largest keys of every block of block-major (m, ...) keys, as 0/1 uint8.

    An entry's rank is the number of block entries that beat it: strictly
    greater, or equal at a lower index. That is its place in a stable
    descending sort, -inf included, and rank < n keeps the top n. Rank i
    starts at m - 1 - i, as if every later entry beat it. The pass for
    offset d compares every pair (i, i + d) at once, one diagonal of the
    pair table: where entry i beats entry i + d, rank i + d gains one and
    rank i gives back one it was lent. That is m (m - 1) / 2 compares in
    all, in three elementwise calls per offset and no reductions. A rank
    gives back at most the m - 1 - i it was lent and gains at most i, so it
    stays in [0, m - 1] at every step and its counter never wraps. The
    compares run along the last axis, so that axis should be contiguous.
    The result has the layout of ``keys``.
    """
    m = keys.shape[0]
    rank = np.empty_like(keys, dtype=np.min_scalar_type(m - 1))
    rank[...] = np.arange(m - 1, -1, -1, dtype=rank.dtype).reshape(-1, *[1] * (keys.ndim - 1))
    for d in range(1, m):
        beaten = (keys[:-d] >= keys[d:]).view(np.uint8)  # as uint8, the adds need no cast
        rank[d:] += beaten
        rank[:-d] -= beaten
    return (rank < n).view(np.uint8)


def _top_n(keys: np.ndarray, n: int) -> np.ndarray:
    """The n largest keys of every block of block-major (m, ...) keys, as 0/1 uint8.

    Axis 0 runs along each block of m keys, and the result has the layout
    of ``keys``. Ties keep the lowest index, as in a stable descending sort.
    One argmax per block (``_top_one``) serves n = 1 in any layout; the
    ranks by offset diagonals (``_top_n_ranks``) serve every other n and
    want the last axis contiguous.
    """
    return _top_one(keys) if n == 1 else _top_n_ranks(keys, n)


def forward_mask(w: np.ndarray, pattern: NmPattern) -> Mask:
    """Row-blockwise top-N magnitude mask (the vanilla forward mask).

    Within each block of M contiguous columns of a row, the N largest |w|
    entries survive; magnitude ties keep the lowest column index (the place
    of a stable descending sort), so the result is deterministic and has
    exactly N ones per block. ``_top_n`` takes them by one argmax per block
    at 1:M and by pairwise ranks otherwise.
    """
    return _forward_mask(matrix(w), pattern)


def _forward_mask(w: np.ndarray, pattern: NmPattern) -> Mask:
    """``forward_mask`` of a matrix that already passed ``matrix()``.

    ``w`` must be a finite C-contiguous float64 matrix, as ``matrix()``
    leaves it; columns that do not split into blocks of M raise ValueError.
    The bits are the transpose of ``_top_n``'s block-major result, made
    C-ordered: one copy from the ranks, and none at 1:M, where the argmax
    result has the transposed layout of the keys and its transpose is
    already the rows.
    """
    n, m = pattern.n, pattern.m
    _check_shape(w.shape, m, MaskDirection.FORWARD)
    # |w| as (m, blocks): a block-major copy for the ranks, a transposed view
    # of the rows for _top_one, whose argmax reads each block contiguously
    keys = np.abs(w.reshape(-1, m).T, order="K" if n == 1 else "C")
    bits = np.ascontiguousarray(_top_n(keys, n).T).reshape(w.shape)
    return _built_mask(MaskDirection.FORWARD, bits, pattern)


def _sampling_keys(stat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gumbel-top-N keys for sampling blocks proportionally to ``stat``.

    ``stat`` and the keys are slot-major (m, blocks, cols), as ``backward_mask``
    ranks them; the draws fill (blocks, m, cols), the permuted row order.
    A positive entry x gets log(x) + Gumbel noise: the top N of a block's
    keys is a draw of N entries without replacement in proportion to x
    (Kool et al. 2019, Gumbel-top-k). Dividing x by its block's total would
    add the same -log(total) to every key of the block, which cannot change
    the top N, so no total is taken; log(x) is finite for every positive
    finite float64 (-744.4 at 5e-324, 709.8 at 1.7e308). Zero entries sit
    in a band at -1e12 with uniform noise, far below any positive key, so
    all-zero blocks fall back to a uniform draw.
    """
    m, blocks, cols = stat.shape
    with np.errstate(divide="ignore"):
        keys = np.log(stat) - np.log(-np.log(rng.random((blocks, m, cols)).swapaxes(0, 1)))
    return np.where(stat > 0, keys, -1e12 + rng.random((blocks, m, cols)).swapaxes(0, 1))


def _masked_magnitudes(a: np.ndarray, perm: np.ndarray, fwd_rows: np.ndarray) -> np.ndarray:
    """|a| where the forward bits are set, else 0, slot-major (m, blocks, cols), in one buffer.

    ``fwd_rows`` are the forward bits in permuted row order, (blocks, m,
    cols). The rows of ``a`` are gathered once straight into slot-major
    order, and the absolute value and the bits are applied in place.
    """
    blocks, m, cols = fwd_rows.shape
    keys = np.take(a, perm.reshape(blocks, m).T.ravel(), axis=0).reshape(m, blocks, cols)
    np.abs(keys, out=keys)
    keys *= fwd_rows.swapaxes(0, 1)
    return keys


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
    permuted forward mask. ``criterion`` may be a member or its value;
    anything else raises ValueError.

    The statistic is built slot-major, (M, blocks, cols) with row i of every
    block together, so ``_top_n`` reads each block along axis 0 of one
    buffer. The forward bits are gathered once, in permuted row order: the
    keys are gated through a swapped view of them, and the uint8 result is
    swapped back to permuted row order and multiplied by them.
    """
    w = matrix(w)
    if fwd.direction is not MaskDirection.FORWARD:
        raise ValueError(f"backward_mask needs a forward mask, got {fwd.direction.value}")
    if fwd.shape != w.shape:
        raise ValueError(f"forward mask shape {fwd.shape} does not match matrix {w.shape}")
    if fwd.pattern != pattern:
        raise ValueError(f"forward mask pattern {fwd.pattern} does not match {pattern}")
    rows = w.shape[0]
    perm = np.arange(rows) if perm is None else check_permutation(perm, rows)
    criterion = BinarizationCriterion(criterion)
    if criterion in SEEDED_CRITERIA and seed is None:
        raise ValueError(f"{criterion.value} criterion needs an explicit seed")
    return _backward_mask(w, fwd, perm, pattern, criterion, gradient=gradient, seed=seed)


def _backward_mask(
    w: np.ndarray,
    fwd: Mask,
    perm: np.ndarray,
    pattern: NmPattern,
    criterion: BinarizationCriterion = BinarizationCriterion.WEIGHT_MAGNITUDE,
    *,
    gradient: np.ndarray | None = None,
    seed: int | None = None,
    masked_rows: np.ndarray | None = None,
) -> Mask:
    """``backward_mask`` of arguments that already passed its checks.

    ``w`` must be a finite C-contiguous float64 matrix; ``fwd`` a forward
    mask of its shape and pattern; ``perm`` an int64 permutation of the
    rows, never None; ``criterion`` a member; ``seed`` given on a seeded
    criterion. Rows that do not split into blocks of M raise ValueError
    here, and the gradient criterion's ``gradient`` is checked here too,
    since no caller checks it.

    The forward bits are gathered once, in permuted row order. The weight
    keys come from ``masked_rows`` when a mask refresh passes the permuted
    masked weights ``(fwd.bits * w)[perm]`` it has gathered, C-contiguous:
    one absolute value, swapped into slot-major order. Otherwise, as from
    ``backward_mask``, ``_masked_magnitudes`` gathers the rows of ``w``.
    Either way the keys are the same numbers, and so are the bits.
    """
    n, m = pattern.n, pattern.m
    _check_shape(w.shape, m, MaskDirection.BACKWARD)
    rows, cols = w.shape
    blocks = rows // m
    fwd_rows = fwd.bits[perm].reshape(blocks, m, cols)

    if criterion in (BinarizationCriterion.WEIGHT_MAGNITUDE, BinarizationCriterion.MULTINOMIAL_SAMPLING):
        if masked_rows is None:
            keys = _masked_magnitudes(w, perm, fwd_rows)
        else:
            keys = np.abs(masked_rows.reshape(blocks, m, cols).swapaxes(0, 1), order="C")
        if criterion is BinarizationCriterion.MULTINOMIAL_SAMPLING:
            keys = _sampling_keys(keys, np.random.default_rng(seed))
    elif criterion is BinarizationCriterion.GRADIENT_MAGNITUDE:
        if gradient is None:
            raise ValueError("gradient-magnitude criterion needs a gradient matrix")
        gradient = matrix(gradient)
        if gradient.shape != w.shape:
            raise ValueError(f"gradient shape {gradient.shape} does not match matrix {w.shape}")
        keys = _masked_magnitudes(gradient, perm, fwd_rows)
    else:  # random
        keys = np.random.default_rng(seed).random((blocks, m, cols)).swapaxes(0, 1)

    bits = np.multiply(_top_n(keys, n).swapaxes(0, 1), fwd_rows, order="C")
    return _built_mask(MaskDirection.BACKWARD, bits.reshape(rows, cols), pattern)


@cache
def _scan_tables(n: int, m: int) -> tuple[np.ndarray, np.uint64, np.uint64] | None:
    """``_greedy_scan``'s read-only word table at n:m, built once per pattern.

    A counter is ceil(log2 n) + 1 bits wide and starts at 2**(width-1) - n,
    so its top bit sets exactly when its row or column holds n ones. The
    2 * m counter fields start at bit 7 - width, which puts every top bit at
    2**6 or above. None when the scan cannot run n:m: the m * m kept bits or
    the counters do not fit one uint64 (M >= 9, and 5:8 to 8:8). Otherwise
    ``one``, per flat tile index r * m + c a one in row r's and column c's
    counters; ``shift`` = width - 1, which lifts both ones to their top
    bits; and ``start``, the word with every counter at 2**(width-1) - n.
    """
    width = (n - 1).bit_length() + 1
    offset = 7 - width
    if m * m > 64 or offset + 2 * m * width > 64:
        return None
    field = np.uint64(1) << np.arange(offset, offset + 2 * m * width, width, dtype=np.uint64)
    r, c = np.divmod(np.arange(m * m), m)
    one = field[r] + field[m + c]
    one.flags.writeable = False
    return one, np.uint64(width - 1), np.uint64((1 << (width - 1)) - n) * field.sum()


def _greedy_tiles(abs_tiles: np.ndarray, n: int, m: int) -> np.ndarray:
    """Greedy masks for a (tiles, m, m) stack of |w| tiles, by argmax rounds.

    Per tile this is descending-magnitude insertion under the row and column
    budgets, the standard 1/2-approximation for this pair of partition
    constraints. Each round every tile takes its largest live entry; argmax
    returns the lowest flat index among equal maxima, which is the order a
    stable descending sort visits them in. A taken entry, and every entry of
    a row or column that reaches n ones, is set to -1 (below any |w|), so a
    tile is done once its maximum is negative. Each round adds a one to every
    tile still running, hence at most n * m rounds, each about a dozen
    fancy-indexed calls. It serves the patterns ``_greedy_scan`` cannot,
    those whose ``_scan_tables`` is None.

    Consumes its input: entries of ``abs_tiles`` are overwritten wherever
    its (tiles, m * m) reshape is a view, as for the C-ordered stack that
    ``transposable_mask`` passes. Pass a copy to keep the input.
    """
    tiles = abs_tiles.shape[0]
    flat = abs_tiles.reshape(tiles, m * m)
    work = flat.reshape(tiles, m, m)
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


def _greedy_scan(abs_tiles: np.ndarray, n: int, m: int) -> np.ndarray:
    """``_greedy_tiles``' masks, bit for bit, by one scan over each tile's sorted entries.

    ``abs_tiles`` must hold non-negative float64 values without -0.0
    (``np.abs`` output), whose uint64 bit patterns order like the values.
    Each entry's key is that pattern inverted, for descending order, with
    its low ``(m * m - 1).bit_length()`` bits replaced by the entry's flat
    tile index, so every key of a tile is distinct and one plain ``np.sort``
    per tile gives the rounds' order: magnitude descending, ties to the
    lowest flat index. That holds unless two entries of a tile differ only
    in the replaced bits, where the index would decide a near tie. Adjacent
    sorted keys that agree above those bits flag such tiles (exact ties
    too), and the flagged tiles are ordered by a stable argsort of -|w|
    instead.

    Step s then keeps every tile's s-th entry whose row and column both hold
    fewer than n ones, m * m vectorized steps in all. A tile's m row and m
    column counters share one uint64 (rows in the low fields; see
    ``_scan_tables``), and each top bit sets exactly when its budget fills.
    A step ANDs the counters with the entry's guard, its increment shifted
    up to the two top bits, shifts the increment right by that result, in
    place, and adds it. The fields start at bit 7 - width, so a hit is 2**6
    or more, and numpy shifts a uint64 by 64 or more to 0: a blocked entry
    adds nothing, and its increment, read back after the loop, is zero. The
    kept entries' index bits are ORed into one word per tile and unpacked
    into the mask. Runs only the patterns whose ``_scan_tables`` is not None.
    """
    tiles, cells = abs_tiles.shape[0], m * m
    one, shift, start = _scan_tables(n, m)
    low = np.uint64((1 << (cells - 1).bit_length()) - 1)
    keys = np.bitwise_or(abs_tiles.reshape(tiles, cells).view(np.uint64), low)
    keys ^= ~np.arange(cells, dtype=np.uint64)  # inverts the pattern, sets the index
    keys.sort(axis=1)
    flat = keys.reshape(-1)  # a cheap whole-call test first; it also pairs tile ends
    if (flat[1:] ^ flat[:-1]).min() <= low:
        near = np.flatnonzero(((keys[:, 1:] ^ keys[:, :-1]) <= low).any(axis=1))
        keys[near] = np.argsort(-abs_tiles.reshape(tiles, cells)[near], axis=1, kind="stable")
    # step-major and C-contiguous, so that every step reads contiguous rows
    order = np.empty((cells, tiles), dtype=np.int64)
    np.bitwise_and(keys.T, low, out=order.view(np.uint64))
    ones = one[order]  # (m * m, tiles)
    guards = ones << shift
    counters = np.full(tiles, start)
    hit = np.empty(tiles, dtype=np.uint64)
    for g, o in zip(guards, ones):
        np.bitwise_and(counters, g, out=hit)
        np.right_shift(o, hit, out=o)
        counters += o
    np.minimum(ones, 1, out=ones)
    np.left_shift(ones, order.view(np.uint64), out=ones)
    kept = np.bitwise_or.reduce(ones, axis=0).astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(kept.reshape(tiles, 8), axis=1, count=cells, bitorder="little")
    return bits.reshape(tiles, m, m)


# below every reachable path sum; sums involving it stay inside int64
_UNREACHED = np.int64(-(1 << 61))


def _relax(dist: np.ndarray, pred: np.ndarray, best: np.ndarray, low: np.int64) -> bool:
    """In place, adopt each node's best coded key where its value strictly beats ``dist``; True if any did."""
    value = best & ~low
    better = value > dist
    np.copyto(dist, value, where=better)
    np.copyto(pred, low - (best & low), where=better)
    return bool(better.any())


def _exact_tiles(abs_tiles: np.ndarray, n: int, m: int) -> np.ndarray:
    """Maximum-|w| masks for a (tiles, m, m) stack of |w| tiles, all solved at once.

    A tile is a max-weight bipartite b-matching: rows and columns hold at
    most n ones each, and entry (i, j) is an edge of weight |w[i, j]|. Its LP
    is totally unimodular, so successive longest augmenting paths solve it
    exactly (min-cost flow, as in Hubara et al. 2021): the k-th augmentation
    leaves a heaviest mask with k ones. Each round runs Bellman-Ford over
    every tile's m rows and m columns at once and augments every tile whose
    best path gains; a tile that gains nothing is left as it is, and so
    gains nothing in any later round. The loop stops at the first round in
    which no tile gains, after at most n * m rounds. Rows reach columns
    through unkept entries (+|w|), columns reach rows through kept ones
    (-|w|), and a path starts at a row and ends at a column with spare budget.

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

    Layout: whatever the input's strides, every int64 array is built
    C-contiguous with the tile axis last, so each maximum (a relaxation or
    the path-end choice) is one broadcast add and one ``max(axis=0)`` over
    the leading axis, elementwise across rows of ``tiles`` entries. The
    result is transposed back to (tiles, m, m).
    """
    code_bits = (m - 1).bit_length()
    low = np.int64((1 << code_bits) - 1)
    # leaves room for m forward edges and the code bits below 2**60
    unit_bits = 60 - (2 * m).bit_length() - code_bits
    exponent = np.frexp(abs_tiles.max(axis=(1, 2)))[1]
    grid = np.ldexp(abs_tiles.transpose(1, 2, 0), unit_bits - exponent, order="C")
    weight = np.rint(grid).astype(np.int64) << code_bits  # weight[r, c, t]
    code = low - np.arange(m, dtype=np.int64)
    # forward[r, c, t]: row r -> column c while (r, c) is unkept;
    # backward[c, r, t]: column c -> row r while (r, c) is kept
    forward = weight + code[:, None, None]
    backward = np.full(weight.shape, _UNREACHED) + code[:, None, None]
    row_used = np.zeros(weight.shape[1:], dtype=np.int64)  # [r, t]
    col_used = np.zeros(weight.shape[1:], dtype=np.int64)  # [c, t]
    for _ in range(n * m):
        dist_r = np.where(row_used < n, 0, _UNREACHED)
        dist_c = np.full(dist_r.shape, _UNREACHED)
        pred_r = np.full(dist_r.shape, -1)  # -1: the path starts at this row
        pred_c = np.zeros(dist_r.shape, dtype=np.int64)
        for _ in range(m):
            _relax(dist_c, pred_c, (dist_r[:, None] + forward).max(axis=0), low)
            if not _relax(dist_r, pred_r, (dist_c[:, None] + backward).max(axis=0), low):
                break
        else:
            raise RuntimeError("exact transposable search found a positive cycle")
        end = (np.where(col_used < n, dist_c, _UNREACHED) + code[:, None]).max(axis=0)
        t = np.flatnonzero(end > low)
        if t.size == 0:
            break
        c = low - (end[t] & low)
        col_used[c, t] += 1
        for _ in range(m):
            r = pred_c[c, t]
            forward[r, c, t] = _UNREACHED + code[r]
            backward[c, r, t] = code[c] - weight[r, c, t]
            c = pred_r[r, t]
            starts = c < 0
            row_used[r[starts], t[starts]] += 1
            t, c, r = t[~starts], c[~starts], r[~starts]
            forward[r, c, t] = weight[r, c, t] + code[r]
            backward[c, r, t] = _UNREACHED + code[c]
            if t.size == 0:
                break
        else:
            raise RuntimeError("exact transposable search found an augmenting path that does not end")
    # an unkept entry's backward key is _UNREACHED plus its code
    return (backward > _UNREACHED + low).astype(np.uint8).transpose(2, 1, 0)


def transposable_mask(
    w: np.ndarray,
    pattern: NmPattern,
    method: TransposableMethod = TransposableMethod.TWO_APPROX,
) -> Mask:
    """One mask satisfying row and column N:M blocks simultaneously.

    Each M x M tile is solved independently for maximum kept |w|, and both
    methods solve a C-ordered (tiles, M, M) stack of |w| tiles all at once,
    built in one pass by ``np.abs`` over the matrix's tile view. ``EXACT``
    finds the optimum by successive longest augmenting paths (see
    ``_exact_tiles``), at most N * M rounds, for any M. ``TWO_APPROX``
    greedily inserts entries by descending magnitude (ties to the lowest
    row-major index in the tile) and is guaranteed at least half the exact
    tile optimum. Two kernels give the same greedy bit for bit, chosen from
    (N, M) alone: where a tile's M * M kept bits and its 2M counters each
    fit one uint64, every N at M <= 7 and 1:8 to 4:8, one scan of M * M
    vectorized steps over the sorted entries, each an AND, a shift and an
    add of counter words (``_greedy_scan``); otherwise, at 5:8 to 8:8 and
    every M >= 9, at most N * M argmax rounds (``_greedy_tiles``).
    ``method`` may be a member or its value; anything else raises ValueError.
    """
    method = TransposableMethod(method)
    return _transposable_mask(matrix(w), pattern, method)


def _transposable_mask(
    w: np.ndarray,
    pattern: NmPattern,
    method: TransposableMethod = TransposableMethod.TWO_APPROX,
) -> Mask:
    """``transposable_mask`` of arguments that already passed its checks.

    ``w`` must be a finite C-contiguous float64 matrix and ``method`` a
    member; rows, then columns, that do not split into blocks of M raise
    ValueError. The scan and the exact solver take the stack in chunks, the
    rounds whole (see ``tensorops.SCRATCH_WORDS``); every chunk's bits go
    into one C-ordered tile buffer.
    """
    n, m = pattern.n, pattern.m
    _check_shape(w.shape, m, MaskDirection.TRANSPOSABLE)
    rows, cols = w.shape
    grid = (rows // m, cols // m)
    tiles = np.abs(w.reshape(grid[0], m, grid[1], m).swapaxes(1, 2), order="C").reshape(-1, m, m)
    step = max(1, tensorops.SCRATCH_WORDS // (m * m))
    if method is TransposableMethod.EXACT:
        kernel = _exact_tiles
    elif _scan_tables(n, m) is not None:
        kernel = _greedy_scan
    else:
        kernel, step = _greedy_tiles, len(tiles)
    tile_bits = np.empty(tiles.shape, dtype=np.uint8)
    for i in range(0, len(tiles), step):
        tile_bits[i : i + step] = kernel(tiles[i : i + step], n, m)
    bits = tile_bits.reshape(*grid, m, m).swapaxes(1, 2).reshape(rows, cols)
    return _built_mask(MaskDirection.TRANSPOSABLE, bits, pattern)


def kept_magnitude(w: np.ndarray, mask: Mask) -> float:
    """Total |w| surviving the mask."""
    return float(np.abs(mask.apply(w)).sum())


def tile_kept_magnitudes(w: np.ndarray, mask: Mask, pattern: NmPattern) -> np.ndarray:
    """Kept |w| per M x M tile, as a (rows/M, cols/M) grid."""
    kept = np.abs(mask.apply(w))
    m = pattern.m
    _check_shape(kept.shape, m, MaskDirection.TRANSPOSABLE)
    return kept.reshape(-1, m, kept.shape[1] // m, m).sum(axis=(1, 3))


def _transposable_count_dp(n: int, m: int) -> int:
    """Count m x m masks with exactly n ones per row and at most n per column.

    The m * n ones fill all m * n column slots, so every column holds exactly
    n: these are the n-regular 0/1 matrices. The state is how many columns
    still have each residual capacity 0..n. Each row places its n ones one
    capacity level at a time, lowest level first, on a table keyed by
    (profile, ones left) in which equal keys merge; a column picked at level
    L drops to L - 1, which is already done, so no row picks a column twice.
    """
    n = min(n, m - n)  # complementing maps the n-regular masks onto the (m - n)-regular ones
    table = {tuple([0] * n + [m]): 1}
    for _ in range(m):
        row = {(profile, n): ways for profile, ways in table.items()}
        for level in range(1, n + 1):
            nxt: dict[tuple, int] = {}
            for (profile, left), ways in row.items():
                free = profile[level]
                for k in range(min(free, left) + 1):
                    new = list(profile)
                    new[level] -= k
                    new[level - 1] += k
                    key = (tuple(new), left - k)
                    nxt[key] = nxt.get(key, 0) + ways * comb(free, k)
            row = nxt
        table = {profile: ways for (profile, left), ways in row.items() if left == 0}
    return sum(table.values())


def mask_diversity(pattern: NmPattern, family: MaskFamily, tile_rows: int | None = None) -> int:
    """Number of distinct masks a family admits on its reference tile.

    Vanilla counts exactly-N row blocks independently: C(M, N) ** tile_rows.
    Transposable counts M x M tiles with exactly N ones per row whose column
    sums stay within the N budget, via a column-capacity-profile dynamic
    program (m <= 16). Such a tile has exactly N ones in every column too, so
    complementing it is a bijection onto the (M - N):M tiles, and the two
    patterns have the same count. ``family`` may be a member or its value;
    anything else raises ValueError.
    """
    family = MaskFamily(family)
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
