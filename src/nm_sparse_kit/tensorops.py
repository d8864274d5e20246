"""Dense 2-D matrix utilities and the N:M pattern type.

Everything downstream (mask generation, permutation search, training)
works on plain float64 numpy arrays validated through :func:`matrix`.
Operations never mutate their inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Words per scratch array of the block kernels, read at call time. The greedy
# scan and the exact transposable solver keep several (m * m, tiles) arrays,
# so they take a tile stack in chunks of max(1, SCRATCH_WORDS // (m * m))
# tiles; the permutation scorer keeps (candidates, rows / m, words) bit
# planes, so it scores max(1, SCRATCH_WORDS // (rows / m * words)) candidates
# at a time. Scratch then stays a few MB however large the input. The argmax
# rounds take the whole stack: they work in place with O(tiles) scratch.
SCRATCH_WORDS = 1 << 15


def matrix(values) -> np.ndarray:
    """Validate ``values`` as a finite 2-D real matrix and return it as float64.

    Rejects complex, text (str or bytes) and datetime or timedelta input,
    also as the elements of an object array, anything that is not
    two-dimensional, has an empty axis, or contains NaN/Inf. Returns a
    C-contiguous (row-major) array. Finiteness is checked by ``all_finite``,
    in one read of the contiguous array; only a matrix it refuses is
    scanned again, to count the non-finite entries for the message.
    """
    a = np.asarray(values)
    if a.dtype.kind == "O":  # re-infer from the elements, so the kind test sees complex or text
        a = np.array(a.tolist())
    if a.dtype.kind in "cSUmM":
        raise ValueError(f"expected a real matrix, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    a = np.ascontiguousarray(a)
    if not _all_finite_quietly(a):
        bad = int(np.count_nonzero(~np.isfinite(a)))
        raise ValueError(f"matrix contains {bad} non-finite entries (NaN/Inf rejected)")
    return a


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a C-contiguous float64 array is finite.

    The dot product of the entries with themselves reads the array once and
    makes no temporary. A NaN or an infinity makes it NaN or +inf, so a
    finite dot accepts the array. It can also overflow to +inf with every
    entry finite (one |x| above 1.4e154 is enough), so only when it is not
    finite is every entry tested with ``np.isfinite``. The squares overflow
    there and underflow below 1.5e-154, so call it where ``np.errstate``
    ignores both, as ``matrix()`` and ``train()`` do. Setting that up on
    every call would cost a small matrix more than the check saves.
    """
    flat = a.reshape(-1)
    return math.isfinite(np.dot(flat, flat)) or bool(np.isfinite(flat).all())


# as a decorator, errstate builds no context manager per call
@np.errstate(over="ignore", under="ignore")
def _all_finite_quietly(a: np.ndarray) -> bool:
    """``all_finite`` with the overflow and underflow it may raise ignored."""
    return all_finite(a)


def check_divisible(dim: int, m: int, what: str) -> None:
    """Raise unless ``dim`` splits into whole blocks of ``m``."""
    if dim % m:
        raise ValueError(f"needs {what} divisible by {m}, got {dim}")


@dataclass(frozen=True)
class NmPattern:
    """An N:M sparsity pattern: keep at most ``n`` of every ``m`` consecutive entries."""

    n: int
    m: int

    def __post_init__(self):
        # any integer type (numpy's too) is stored as a plain int, so the pattern
        # prints as N:M; bools index like 0 and 1 but print as False and True
        not_integer = ValueError(f"pattern needs integer n and m, got ({self.n!r}, {self.m!r})")
        if isinstance(self.n, bool) or isinstance(self.m, bool):
            raise not_integer
        try:
            n, m = operator.index(self.n), operator.index(self.m)
        except TypeError:
            raise not_integer from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if self.m < 2:
            raise ValueError(f"pattern m must be >= 2, got {self.m}")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"pattern requires 1 <= n <= m, got {self.n}:{self.m}")

    @classmethod
    def parse(cls, text: str) -> "NmPattern":
        """Parse the ``N:M`` spelling used on the command line, e.g. ``2:4``."""
        parts = text.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"pattern must look like N:M, got {text!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"pattern must look like N:M with integers, got {text!r}") from None
        return cls(n, m)

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"


# Plain-text serialization: header line "rows cols", one whitespace-separated
# row per line. %.17g keeps float64 round-trips exact.

def format_matrix(a: np.ndarray) -> str:
    # tolist() yields Python floats and ints, which format as their numpy scalars do
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(" ".join(map("{:.17g}".format, row)) for row in a.tolist())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"matrix text declares {rows} rows but has {len(lines) - 1}")
    data = []
    for i, line in enumerate(lines[1:]):
        entries = line.split()
        if len(entries) != cols:
            raise ValueError(f"row {i} has {len(entries)} entries, expected {cols}")
        data.append([float(e) for e in entries])
    return matrix(data)


def save_matrix(path, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(a))


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())
