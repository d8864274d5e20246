"""Dataset handles: synthetic Gaussian blobs and IDX-format image/label pairs."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
_IDX_CONTENT = {IDX_IMAGE_MAGIC: "image", IDX_LABEL_MAGIC: "label"}


@dataclass
class DatasetHandle:
    input_dim: int
    num_classes: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    y_test: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        for x, y, split in ((self.x_train, self.y_train, "train"), (self.x_test, self.y_test, "test")):
            if y.dtype.kind not in "iu":  # class indices; a float label is refused, not truncated
                raise ValueError(f"{split} labels must be integers, got dtype {y.dtype}")
            if len(y) == 0:
                continue
            if x.shape != (len(y), self.input_dim):
                raise ValueError(f"{split} features have shape {x.shape}, expected ({len(y)}, {self.input_dim})")
            if y.min() < 0 or y.max() >= self.num_classes:
                raise ValueError(f"{split} labels fall outside [0, {self.num_classes})")

    @property
    def train_count(self) -> int:
        return len(self.y_train)

    @property
    def test_count(self) -> int:
        return len(self.y_test)


def generate_synthetic(
    classes: int, dim: int, per_class: int, spread: float, seed: int
) -> DatasetHandle:
    """Balanced isotropic Gaussian blobs around unit-norm random class centers.

    Produces equally sized train and test splits, bit-reproducible for a
    given seed.
    """
    if classes < 1 or dim < 1 or per_class < 1:
        raise ValueError("classes, dim and per_class must all be >= 1")
    if not 0 < spread < math.inf:
        raise ValueError(f"spread must be positive and finite, got {spread}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    def draw():
        xs, ys = [], []
        for c in range(classes):
            xs.append(centers[c] + spread * rng.normal(size=(per_class, dim)))
            ys.append(np.full(per_class, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    x_train, y_train = draw()
    x_test, y_test = draw()
    return DatasetHandle(dim, classes, x_train, y_train, x_test, y_test)


def _read_be32(data: bytes, offset: int, path, what: str) -> int:
    if len(data) < offset + 4:
        raise ValueError(f"{path}: truncated {what}: expected {offset + 4} bytes, file has {len(data)}")
    return struct.unpack_from(">i", data, offset)[0]


def _load_idx(path, magic: int) -> np.ndarray:
    """The uint8 array of an IDX ubyte file that must start with ``magic``.

    The magic's low byte is the rank: that many big-endian dimension sizes
    follow it, then the data.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    found = _read_be32(data, 0, path, "header")
    if found != magic:
        raise ValueError(f"{path}: magic number mismatch: expected {magic}, got {found}")
    shape = tuple(_read_be32(data, 4 + 4 * i, path, "header") for i in range(magic & 0xFF))
    offset = 4 + 4 * len(shape)
    expected = offset + math.prod(shape)
    if len(data) < expected:
        raise ValueError(
            f"{path}: truncated {_IDX_CONTENT[magic]} data: expected {expected} bytes, file has {len(data)}"
        )
    if len(data) > expected:
        raise ValueError(
            f"{path}: {_IDX_CONTENT[magic]} data too long: file has {len(data)} bytes, "
            f"{len(data) - expected} more than the {expected} its header declares"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(shape)


def _save_idx(path, array: np.ndarray, magic: int) -> None:
    """Write ``array`` as an IDX ubyte file under ``magic``, whose low byte is its rank.

    Every entry must be an integer in 0..255, in any dtype; an entry that a
    uint8 cast would wrap or truncate raises ValueError instead.
    """
    array = np.asarray(array)
    if array.ndim != magic & 0xFF:
        raise ValueError(f"IDX magic {magic} stores {magic & 0xFF}-D arrays, got shape {array.shape}")
    with np.errstate(invalid="ignore"):  # NaN and out-of-range floats are counted below
        data = array.astype(np.uint8)
    bad = int(np.count_nonzero(data != array))  # compared in a dtype that holds both
    if bad:
        raise ValueError(f"{path}: {bad} of {array.size} entries are not integers in 0..255")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + data.ndim}i", magic, *data.shape))
        fh.write(data.tobytes())


def load_idx_images(path) -> np.ndarray:
    """Images from an IDX3 ubyte file as a (count, rows, cols) uint8 array."""
    return _load_idx(path, IDX_IMAGE_MAGIC)


def load_idx_labels(path) -> np.ndarray:
    """Labels from an IDX1 ubyte file as a (count,) uint8 array."""
    return _load_idx(path, IDX_LABEL_MAGIC)


def save_idx_images(path, images: np.ndarray) -> None:
    _save_idx(path, images, IDX_IMAGE_MAGIC)


def save_idx_labels(path, labels: np.ndarray) -> None:
    _save_idx(path, labels, IDX_LABEL_MAGIC)


def load_idx(images_path, labels_path) -> DatasetHandle:
    """An IDX image/label pair as a flattened dataset with pixels in [0, 1]."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise ValueError(
            f"count mismatch: {images_path} has {len(images)} images but "
            f"{labels_path} has {len(labels)} labels"
        )
    flat = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return DatasetHandle(
        flat.shape[1],
        int(labels.max()) + 1 if len(labels) else 0,
        flat,
        labels.astype(np.int64),
    )
