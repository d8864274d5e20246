"""Row-permutation search that maximizes eligible N:M column blocks.

A column block is eligible when it already holds at most N non-zeros, so the
backward mask can match the forward mask there with no gradient loss. The
search evaluates the incumbent permutation plus K random candidates and keeps
the best, which makes the eligible count monotone across updates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import tensorops
from .tensorops import NmPattern, check_divisible, matrix

# brute force enumerates rows! candidates; 8! = 40320 is the practical ceiling
BRUTE_FORCE_MAX_ROWS = 8


def identity_permutation(rows: int) -> np.ndarray:
    return np.arange(rows, dtype=np.int64)


def check_permutation(perm, rows: int) -> np.ndarray:
    """Validate a bijection over {0, ..., rows-1} and return it as int64.

    Entries must have an integer dtype: floats and strings are rejected, not
    truncated. A range check comes first, so negative indices never wrap.
    """
    p = np.asarray(perm)
    if p.dtype.kind in "iu" and p.shape == (rows,):
        p = p.astype(np.int64, copy=False)
        if rows == 0 or (p.min() >= 0 and p.max() < rows):
            seen = np.zeros(rows, dtype=bool)
            seen[p] = True
            if seen.all():
                return p
    raise ValueError(f"not a permutation of {rows} row indices: {perm!r}")


@dataclass
class SearchReport:
    """Outcome of one permutation search, in the field order of its CSV row."""

    eligible_blocks: int
    total_blocks: int
    candidates_evaluated: int
    elapsed: float
    chosen: np.ndarray


def count_eligible_blocks(masked_w: np.ndarray, pattern: NmPattern) -> tuple[int, int]:
    """(eligible, total) column-aligned M-blocks of an already-masked matrix."""
    return _count_eligible(matrix(masked_w), pattern)


def _count_eligible(masked_w: np.ndarray, pattern: NmPattern) -> tuple[int, int]:
    """``count_eligible_blocks`` of a 2-D matrix; rows not in blocks of M raise ValueError."""
    n, m = pattern.n, pattern.m
    rows, cols = masked_w.shape
    check_divisible(rows, m, "matrix rows")
    # the narrowest type that holds m sums the middle axis fastest
    nonzeros = np.add.reduce((masked_w != 0).reshape(rows // m, m, cols), axis=1, dtype=np.min_scalar_type(m))
    return int(np.count_nonzero(nonzeros <= n)), int(nonzeros.size)


def _pack_nonzeros(masked_w: np.ndarray) -> np.ndarray:
    """Non-zero pattern packed along columns: (rows, ceil(cols / 64)) uint64.

    Padding bits are zero, so they never count as a non-zero.
    """
    rows, cols = masked_w.shape
    nonzero = np.zeros((rows, -(-cols // 64) * 64), dtype=bool)
    nonzero[:, :cols] = masked_w != 0
    return np.packbits(nonzero, axis=1).view(np.uint64)


def _ineligible_counts(packed: np.ndarray, perms: np.ndarray, n: int, m: int) -> np.ndarray:
    """Ineligible column blocks of the packed pattern under each row permutation.

    ``perms`` is (candidates, rows). Over the m rows of every block, bit plane
    i holds the columns with at least i + 1 non-zeros so far, so plane n
    marks the columns with more than n: its popcount is the count. Plane i
    is all zeros before the block's row i, so it is first written there.
    The planes are allocated zeroed: at n = m plane n is never written and
    counts no block.
    """
    rows, words = packed.shape
    planes = np.zeros((n + 1, len(perms), rows // m, words), dtype=np.uint64)
    planes[0] = np.take(packed, perms[:, 0::m], axis=0)
    for j in range(1, m):
        x = np.take(packed, perms[:, j::m], axis=0)
        if j <= n:
            np.bitwise_and(planes[j - 1], x, out=planes[j])
        for i in range(min(j - 1, n), 0, -1):
            planes[i] |= planes[i - 1] & x
        planes[0] |= x
    return np.bitwise_count(planes[n]).reshape(len(perms), -1).sum(axis=1, dtype=np.int64)


def _best_permutation(
    masked_w: np.ndarray, current: np.ndarray, draw, total: int, n: int, m: int
) -> tuple[np.ndarray, int]:
    """(first permutation with the most eligible blocks, its eligible count).

    The incumbent comes first, then ``total`` candidates that ``draw(count)``
    returns as (count, rows) arrays. They are scored in batches sized to
    ``tensorops.SCRATCH_WORDS``. Within a batch argmin keeps the earliest; a
    later batch wins only with strictly fewer ineligible blocks.
    """
    packed = _pack_nonzeros(masked_w)
    rows, words = packed.shape
    batch = max(1, tensorops.SCRATCH_WORDS // (rows // m * words))
    perms, left = current[None], total
    best, best_over = None, None
    while True:
        take = min(batch - len(perms), left)
        if take:
            perms, left = np.concatenate([perms, draw(take)]), left - take
        over = _ineligible_counts(packed, perms, n, m)
        i = int(np.argmin(over))
        if best_over is None or over[i] < best_over:
            best, best_over = perms[i].copy(), int(over[i])
        if not left:
            return best, (rows // m) * masked_w.shape[1] - best_over
        perms = perms[:0]


def search_permutation(
    masked_w: np.ndarray,
    pattern: NmPattern,
    k: int,
    current=None,
    seed: int | None = None,
) -> SearchReport:
    """Best of the incumbent plus k random row permutations.

    Ties go to the incumbent, then to the earlier candidate, so the chosen
    permutation never has fewer eligible blocks than ``current``. Passing
    k >= rows! (rows small enough to enumerate) switches the candidates to an
    exhaustive sweep of all permutations, which makes the search exact; it
    reports rows! candidates, since the incumbent is one of them.

    The candidates are k successive ``rng.permutation`` draws from ``seed``,
    drawn a batch at a time with ``rng.permuted``, which yields the same stream.
    They are scored together rather than one by one: the non-zero pattern is
    packed 64 columns to a uint64 word, each candidate's rows are gathered
    from it, and per column block N + 1 "at least i non-zeros" bit planes
    are updated over the block's M rows; the popcount of the last plane is
    the number of ineligible blocks.
    """
    if k < 1:
        raise ValueError(f"candidate count k must be >= 1, got {k}")
    masked_w = matrix(masked_w)
    n, m = pattern.n, pattern.m
    rows, cols = masked_w.shape
    check_divisible(rows, m, "matrix rows")
    current = identity_permutation(rows) if current is None else check_permutation(current, rows)

    start = time.perf_counter()
    if rows <= BRUTE_FORCE_MAX_ROWS and k >= factorial(rows):
        sweep = itertools.permutations(range(rows))
        total = evaluated = factorial(rows)
        draw = lambda count: np.array(list(itertools.islice(sweep, count)), dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        total, evaluated = k, k + 1
        draw = lambda count: rng.permuted(np.tile(np.arange(rows, dtype=np.int64), (count, 1)), axis=1)
    best, best_count = _best_permutation(masked_w, current, draw, total, n, m)
    elapsed = time.perf_counter() - start
    return SearchReport(best_count, (rows // m) * cols, evaluated, elapsed, best)


def brute_force_best_permutation(masked_w: np.ndarray, pattern: NmPattern) -> SearchReport:
    """Exact argmax over all rows! permutations; guarded to rows <= 8.

    This is ``search_permutation``'s exhaustive sweep from the identity, the
    first permutation in lexicographic order, so ties return the first
    maximizer in lexicographic enumeration order.
    """
    rows = matrix(masked_w).shape[0]
    if rows > BRUTE_FORCE_MAX_ROWS:
        raise ValueError(
            f"brute force enumerates rows! permutations and is only feasible "
            f"for rows <= {BRUTE_FORCE_MAX_ROWS}, got {rows}"
        )
    return search_permutation(masked_w, pattern, factorial(rows))
