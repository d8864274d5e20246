"""Mutated config, matrix, mask and IDX files: a documented exit code or ValueError, never a traceback.

Each text case takes a small valid file and applies one mutation: drop or
duplicate a line, swap two values, or replace one value with a token from a
fixed list. No token is a larger size than the valid file holds, so every
run stays small; the huge sizes below are ones the program refuses before
it allocates or reads that much (numpy refuses a 10**12-entry array at once).
IDX cases rewrite one header field, truncate or extend a file, or pair
files of different counts.
"""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nm_sparse_kit.cli import main
from nm_sparse_kit.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from nm_sparse_kit.experiment import load_config, serialize_config
from nm_sparse_kit.masks import (
    TransposableMethod,
    format_mask,
    load_mask,
    parse_mask,
    transposable_mask,
    validate_mask,
)
from nm_sparse_kit.tensorops import NmPattern, format_matrix, parse_matrix

TOKENS = ["", "nan", "inf", "1e400", "-1", "0", "1.0", "x", "größe", "2:4", "bimask"]

# every number at most 16; bimask 2:4 needs every layer's rows and cols divisible by 4
VALID_CONFIG = """\
strategy = bimask
pattern = 2:4
criterion = weight-magnitude
dataset = synthetic
hidden_dims = 8
epochs = 2
batch_size = 8
delta_t = 2
k = 2
warmup_epochs = 1
peak_lr = 0.1
momentum = 0.9
weight_decay = 0.0001
seed = 3
classes = 4
dim = 8
per_class = 4
spread = 0.5
"""

VALID_MATRIX = format_matrix(np.random.default_rng(0).normal(size=(8, 8)).round(3))

VALID_MASK = format_mask(
    transposable_mask(np.random.default_rng(1).normal(size=(8, 8)), NmPattern(2, 4), TransposableMethod.TWO_APPROX)
)

MASK_FLAGS = [
    ["--family", "vanilla"],
    ["--family", "transposable", "--method", "approx"],
    ["--family", "transposable", "--method", "exact"],
    ["--family", "bimask", "--criterion", "weight-magnitude"],
    ["--family", "bimask", "--criterion", "multinomial", "--seed", "1"],
]


@st.composite
def mutations(draw, text: str, separator: str):
    """``text`` with one line dropped or duplicated, two values swapped, or one value replaced.

    A config line's value follows its ``separator``; a matrix line holds
    whitespace-separated values (``separator`` None).
    """
    lines = text.splitlines()
    values = [
        (i, j)
        for i, line in enumerate(lines)
        for j in range(1 if separator else len(line.split()))
    ]

    def get(i, j):
        return lines[i].partition(separator)[2].strip() if separator else lines[i].split()[j]

    def put(i, j, value):
        if separator:
            lines[i] = f"{lines[i].partition(separator)[0]}{separator} {value}"
        else:
            parts = lines[i].split()
            parts[j] = value
            lines[i] = " ".join(parts)

    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
    if kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "drop" else [lines[i], lines[i]]
    elif kind == "swap":
        a, b = draw(st.lists(st.sampled_from(values), min_size=2, max_size=2, unique=True))
        va, vb = get(*a), get(*b)
        put(*a, vb)
        put(*b, va)
    else:
        put(*draw(st.sampled_from(values)), draw(st.sampled_from(TOKENS)))
    return "\n".join(lines) + "\n"


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(mutations(VALID_CONFIG, "="))
def test_mutated_config_through_train(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.txt", Path(tmp) / "run"
        cfg.write_text(text, encoding="utf-8")
        rc, err = run_cli(["train", "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2, 3) and "Traceback" not in err
        if rc == 0:
            written = (out / "config.txt").read_text()
            assert serialize_config(load_config(out / "config.txt")) == written


@settings(max_examples=60, deadline=None)
@given(mutations(VALID_MATRIX, None), st.sampled_from(MASK_FLAGS + [["permute"], ["permute", "--oracle"]]))
def test_mutated_matrix_through_mask_and_permute(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        matrix, out = Path(tmp) / "w.txt", Path(tmp) / "mask.txt"
        matrix.write_text(text)
        if flags[0] == "permute":
            argv = ["permute", "--pattern", "2:4", "--k", "4", "--seed", "1", *flags[1:], str(matrix)]
        else:
            argv = ["mask", "--pattern", "2:4", *flags, str(matrix), str(out)]
        rc, err = run_cli(argv)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err
        if rc == 0 and flags[0] != "permute":
            assert validate_mask(load_mask(out)) == []


@settings(max_examples=60, deadline=None)
@given(mutations(VALID_MASK, None))
def test_mutated_mask_text_through_load_mask(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mask.txt"
        path.write_text(text, encoding="utf-8")
        try:
            mask = load_mask(path)
        except ValueError:
            return
        again = parse_mask(format_mask(mask))
        assert (again.direction, again.pattern) == (mask.direction, mask.pattern)
        assert np.array_equal(again.bits, mask.bits)


def test_matrix_header_declaring_1e9_rows_fails_on_its_line_count():
    with pytest.raises(ValueError, match="declares 1000000000 rows but has 1"):
        parse_matrix("1000000000 4\n1 2 3 4\n")


def config_text(**values) -> str:
    lines = VALID_CONFIG.splitlines()
    for i, line in enumerate(lines):
        key = line.partition("=")[0].strip()
        if key in values:
            lines[i] = f"{key} = {values[key]}"
    return "\n".join(lines) + "\n"


def run_train(tmp, text) -> tuple[int, str]:
    cfg = Path(tmp) / "cfg.txt"
    cfg.write_text(text, encoding="utf-8")
    return run_cli(["train", "--config", str(cfg), "--out", str(Path(tmp) / "run")])


@pytest.mark.parametrize("key", ["classes", "dim", "per_class", "hidden_dims", "batch_size"])
def test_huge_size_in_config_exit_2(tmp_path, key):
    # an array of 10**12 rows or columns is refused by numpy before it touches memory
    rc, err = run_train(tmp_path, config_text(**{key: 10**12}))
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err


IDX_IMAGES, IDX_LABELS = "train-images-idx3-ubyte", "train-labels-idx1-ubyte"
IDX_MAGIC = {IDX_IMAGES: IDX_IMAGE_MAGIC, IDX_LABELS: IDX_LABEL_MAGIC}
IDX_SHAPE = {IDX_IMAGES: (16, 4, 4), IDX_LABELS: (16,)}


def idx_bytes(name, shape, header=None) -> bytes:
    """A valid IDX file of ``shape`` (16 images of 4 x 4 pixels, or their labels of 4 classes).

    ``header`` replaces the dimension fields written before the data.
    """
    rng = np.random.default_rng(7)
    data = np.arange(16) % 4 if name == IDX_LABELS else rng.integers(0, 256, size=16 * 16)
    data = np.resize(data.astype(np.uint8), math.prod(shape))
    return struct.pack(f">{1 + len(shape)}i", IDX_MAGIC[name], *(header or shape)) + data.tobytes()


def idx_cases():
    """One mutated file each, as (name, file bytes); the other file of the pair stays valid."""
    for name, shape in IDX_SHAPE.items():
        valid, kind = idx_bytes(name, shape), name.split("-")[1]
        for magic in (0, IDX_MAGIC[IDX_LABELS if name == IDX_IMAGES else IDX_IMAGES], 0x7FFFFFFF, -1):
            yield pytest.param(name, struct.pack(">i", magic) + valid[4:], id=f"{kind}-magic={magic}")
        for field in range(len(shape)):
            for value in (0, 1, 15, 17, 10**9, -1):
                header = shape[:field] + (value,) + shape[field + 1:]
                yield pytest.param(name, idx_bytes(name, shape, header), id=f"{kind}-dim{field}={value}")
                if 0 <= value <= 17:  # the data resized to the header too
                    yield pytest.param(name, idx_bytes(name, header), id=f"{kind}-dim{field}={value}-resized")
        header_len = 4 + 4 * len(shape)
        for keep in (0, 3, 6, header_len, header_len + 1, len(valid) - 1):
            yield pytest.param(name, valid[:keep], id=f"{kind}-truncated-to-{keep}")
        yield pytest.param(name, valid + b"\0", id=f"{kind}-extended")
    yield pytest.param(IDX_LABELS, idx_bytes(IDX_LABELS, (15,)), id="labels-15-for-16-images")


def train_on_idx(tmp_path, **payloads) -> tuple[int, str]:
    """``train`` (1 epoch, batch 4, hidden 4) on the valid IDX pair with the named files replaced."""
    root = tmp_path / "idx"
    root.mkdir()
    for name, shape in IDX_SHAPE.items():
        (root / name).write_bytes(payloads[name] if name in payloads else idx_bytes(name, shape))
    text = config_text(dataset=f"idx:{root}", hidden_dims=4, epochs=1, batch_size=4, warmup_epochs=0)
    return run_train(tmp_path, text)


def test_valid_idx_pair_trains(tmp_path):
    assert train_on_idx(tmp_path) == (0, "")


@pytest.mark.parametrize("name, payload", idx_cases())
def test_mutated_idx_pair_through_train(tmp_path, name, payload):
    rc, err = train_on_idx(tmp_path, **{name: payload})
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
