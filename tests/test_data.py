import struct

import numpy as np
import pytest

from nm_sparse_kit.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    DatasetHandle,
    generate_synthetic,
    load_idx,
    load_idx_images,
    load_idx_labels,
    save_idx_images,
    save_idx_labels,
)
from nm_sparse_kit.training import Strategy, TrainConfig, evaluate_accuracy, init_layers, train
from nm_sparse_kit.tensorops import NmPattern


class TestGenerateSynthetic:
    def test_shapes_and_balance(self):
        data = generate_synthetic(classes=3, dim=8, per_class=10, spread=0.1, seed=0)
        assert data.x_train.shape == (30, 8)
        assert data.test_count == 30
        assert np.bincount(data.y_train).tolist() == [10, 10, 10]

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(2, 8, 100, 0.1, seed=5)
        b = generate_synthetic(2, 8, 100, 0.1, seed=5)
        assert a.x_train.tobytes() == b.x_train.tobytes()
        assert a.x_test.tobytes() == b.x_test.tobytes()

    def test_tight_blobs_are_learnable_by_dense_mlp(self):
        data = generate_synthetic(2, 8, 100, 0.1, seed=1)
        cfg = TrainConfig(epochs=15, batch_size=25, warmup_epochs=1, peak_lr=0.1,
                          weight_decay=0.0, seed=1, delta_t=10**9)
        layers = init_layers([8, 16, 2], NmPattern(2, 4), Strategy.DENSE, seed=1)
        layers, _ = train(layers, data, cfg)
        assert evaluate_accuracy(layers, data.x_train, data.y_train) >= 0.99

    def test_huge_spread_approaches_chance(self):
        data = generate_synthetic(4, 8, 50, spread=100.0, seed=2)
        cfg = TrainConfig(epochs=10, batch_size=25, warmup_epochs=1, peak_lr=0.05,
                          weight_decay=0.0, seed=2, delta_t=10**9)
        layers = init_layers([8, 16, 4], NmPattern(2, 4), Strategy.DENSE, seed=2)
        layers, _ = train(layers, data, cfg)
        assert evaluate_accuracy(layers, data.x_test, data.y_test) <= 0.25 + 0.1

    @pytest.mark.parametrize("kwargs", [
        {"classes": 0, "dim": 8, "per_class": 1, "spread": 0.1},
        {"classes": 1, "dim": 8, "per_class": 0, "spread": 0.1},
        {"classes": 1, "dim": 8, "per_class": 1, "spread": 0.0},
        {"classes": 1, "dim": 8, "per_class": 1, "spread": float("nan")},
        {"classes": 1, "dim": 8, "per_class": 1, "spread": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, **kwargs)


def make_fixture(tmp_path, count=4, rows=3, cols=2):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 3, size=count, dtype=np.uint8)
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    save_idx_images(images_path, images)
    save_idx_labels(labels_path, labels)
    return images_path, labels_path, images, labels


class TestIdx:
    def test_round_trip_exact_pixels(self, tmp_path):
        images_path, labels_path, images, labels = make_fixture(tmp_path)
        data = load_idx(images_path, labels_path)
        assert data.input_dim == 6
        expected = images.reshape(4, -1).astype(np.float64) / 255.0
        assert np.array_equal(data.x_train, expected)
        assert np.array_equal(data.y_train, labels)

    def test_reserialization_is_byte_exact(self, tmp_path):
        images_path, labels_path, images, labels = make_fixture(tmp_path)
        save_idx_images(tmp_path / "imgs2", load_idx_images(images_path))
        save_idx_labels(tmp_path / "labels2", load_idx_labels(labels_path))
        assert (tmp_path / "imgs2").read_bytes() == images_path.read_bytes()
        assert (tmp_path / "labels2").read_bytes() == labels_path.read_bytes()

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">iiii", 1234, 1, 1, 1) + b"\x00")
        with pytest.raises(ValueError, match="magic number mismatch"):
            load_idx_images(path)
        with pytest.raises(ValueError, match="magic number mismatch"):
            load_idx_labels(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(ValueError, match="truncated.*expected 4 bytes, file has 2"):
            load_idx_images(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(ValueError, match="truncated image data: expected 24 bytes"):
            load_idx_images(path)

    def test_truncated_label_data(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(struct.pack(">ii", IDX_LABEL_MAGIC, 3) + b"\x00")
        with pytest.raises(ValueError, match="truncated label data: expected 11 bytes, file has 9"):
            load_idx_labels(path)

    @pytest.mark.parametrize(
        "load, magic, header, message",
        [
            (load_idx_images, IDX_IMAGE_MAGIC, (2, 2, 2), "image data too long: file has 25 bytes, 1 more than the 24"),
            (load_idx_labels, IDX_LABEL_MAGIC, (3,), "label data too long: file has 12 bytes, 1 more than the 11"),
        ],
        ids=["images", "labels"],
    )
    def test_extra_bytes_are_not_called_truncated(self, tmp_path, load, magic, header, message):
        path = tmp_path / "long"
        path.write_bytes(struct.pack(f">{1 + len(header)}i", magic, *header) + b"\x00" * (int(np.prod(header)) + 1))
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: {message} its header declares"

    def test_header_follows_the_magic_rank(self, tmp_path):
        images_path, labels_path, _, _ = make_fixture(tmp_path, count=4, rows=3, cols=2)
        assert images_path.read_bytes()[:16] == struct.pack(">iiii", IDX_IMAGE_MAGIC, 4, 3, 2)
        assert labels_path.read_bytes()[:8] == struct.pack(">ii", IDX_LABEL_MAGIC, 4)

    def test_writer_rejects_the_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError, match="3-D"):
            save_idx_images(tmp_path / "flat", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="1-D"):
            save_idx_labels(tmp_path / "grid", np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "save, values, bad",
        [
            (save_idx_labels, np.array([300, -1, 2]), 2),  # a uint8 cast wraps these to 44 and 255
            (save_idx_labels, np.array([256, 0, 255]), 1),
            (save_idx_labels, np.array([-1, -256, 7]), 2),
            (save_idx_images, np.array([[[1.7, 255.9]]]), 2),  # a cast truncates these to 1 and 255
            (save_idx_images, np.array([[[0.5, 3.0], [np.nan, np.inf]]]), 3),
        ],
        ids=["wrap", "just-over", "negative", "fractional", "nan-inf"],
    )
    def test_writer_refuses_values_a_byte_cannot_hold(self, tmp_path, save, values, bad):
        path = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            save(path, values)
        assert str(err.value) == f"{path}: {bad} of {values.size} entries are not integers in 0..255"
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_writer_round_trips_valid_values_of_any_dtype(self, tmp_path, dtype):
        images = np.arange(2 * 16 * 8).reshape(2, 16, 8) % 256
        labels = np.array([0, 255, 3])
        save_idx_images(tmp_path / "imgs", images.astype(dtype))
        save_idx_labels(tmp_path / "labels", labels.astype(dtype))
        assert np.array_equal(load_idx_images(tmp_path / "imgs"), images)
        assert np.array_equal(load_idx_labels(tmp_path / "labels"), labels)
        assert load_idx_images(tmp_path / "imgs").dtype == np.uint8

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path, _, _ = make_fixture(tmp_path)
        bad_labels = tmp_path / "bad_labels"
        bad_labels.write_bytes(struct.pack(">ii", IDX_LABEL_MAGIC, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match="count mismatch"):
            load_idx(images_path, bad_labels)


class TestDatasetHandle:
    def test_validates_feature_dim(self):
        with pytest.raises(ValueError, match="features"):
            DatasetHandle(4, 2, np.zeros((3, 5)), np.zeros(3, dtype=int))

    def test_validates_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            DatasetHandle(4, 2, np.zeros((3, 4)), np.array([0, 1, 2]))

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize(
        "labels",
        [np.array([0.0, 1.5, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([True, False, True])],
        ids=["fractional", "whole-floats", "bool"],
    )
    def test_refuses_non_integer_labels(self, split, labels):
        x, y = np.zeros((3, 4)), np.array([0, 1, 1])
        splits = (x, labels, x, y) if split == "train" else (x, y, x, labels)
        with pytest.raises(ValueError, match=f"^{split} labels must be integers, got dtype {labels.dtype}$"):
            DatasetHandle(4, 2, *splits)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
    def test_accepts_integer_labels(self, dtype):
        data = DatasetHandle(4, 2, np.zeros((3, 4)), np.array([0, 1, 1], dtype=dtype))
        assert data.train_count == 3
