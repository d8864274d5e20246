"""Mutated config, matrix, mask and IDX files: a documented exit code or ValueError, never a traceback.

Each text case takes a small valid file and applies one mutation: drop or
duplicate a line, swap two values, or replace one value with a token from a
fixed list. No token is a larger size than the valid file holds, so every
run stays small; the huge sizes below are ones the program refuses before
it allocates or reads that much (numpy refuses a 10**12-entry array at once).
IDX cases rewrite one header field of one file of the train pair or of
the optional ``t10k-*`` test pair, truncate or extend it, pair files of
different counts, or leave one test file alone. Config cases run through
``train`` and ``ablate``.
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


def check_config_run(command, text):
    """``command`` on a config of ``text``: a documented exit code, and on success
    every written config.txt reads back to the same text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.txt", Path(tmp) / "run"
        cfg.write_text(text, encoding="utf-8")
        rc, err = run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2, 3) and "Traceback" not in err
        if rc == 0:
            written = sorted(out.rglob("config.txt"))
            assert len(written) == (1 if command == "train" else 3)
            for path in written:
                assert serialize_config(load_config(path)) == path.read_text()


@settings(max_examples=40, deadline=None)
@given(mutations(VALID_CONFIG, "="))
def test_mutated_config_through_train(text):
    check_config_run("train", text)


@settings(max_examples=40, deadline=None)
@given(mutations(VALID_CONFIG, "="))
def test_mutated_config_through_ablate(text):
    check_config_run("ablate", text)


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


def run_train(tmp, text, command="train") -> tuple[int, str]:
    cfg = Path(tmp) / "cfg.txt"
    cfg.write_text(text, encoding="utf-8")
    return run_cli([command, "--config", str(cfg), "--out", str(Path(tmp) / "run")])


SIZE_KEYS = ["classes", "dim", "per_class", "hidden_dims", "batch_size"]


@pytest.mark.parametrize("key", SIZE_KEYS)
def test_huge_size_in_config_exit_2(tmp_path, key):
    # an array of 10**12 rows or columns is refused by numpy before it touches memory
    rc, err = run_train(tmp_path, config_text(**{key: 10**12}))
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key", SIZE_KEYS)
def test_huge_size_in_config_through_ablate_exit_2(tmp_path, key):
    rc, err = run_train(tmp_path, config_text(**{key: 10**12}), command="ablate")
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err


IDX_IMAGES, IDX_LABELS = "train-images-idx3-ubyte", "train-labels-idx1-ubyte"
TEST_IMAGES, TEST_LABELS = "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"
IDX_MAGIC = {name: IDX_LABEL_MAGIC if "labels" in name else IDX_IMAGE_MAGIC
             for name in (IDX_IMAGES, IDX_LABELS, TEST_IMAGES, TEST_LABELS)}
IDX_SHAPE = {name: (16,) if magic == IDX_LABEL_MAGIC else (16, 4, 4) for name, magic in IDX_MAGIC.items()}


def idx_bytes(name, shape, header=None) -> bytes:
    """A valid IDX file of ``shape`` (16 images of 4 x 4 pixels, or their labels of 4 classes).

    ``header`` replaces the dimension fields written before the data.
    """
    rng = np.random.default_rng(7)
    data = np.arange(16) % 4 if IDX_MAGIC[name] == IDX_LABEL_MAGIC else rng.integers(0, 256, size=16 * 16)
    data = np.resize(data.astype(np.uint8), math.prod(shape))
    return struct.pack(f">{1 + len(shape)}i", IDX_MAGIC[name], *(header or shape)) + data.tobytes()


def valid_idx(*names) -> dict:
    return {name: idx_bytes(name, IDX_SHAPE[name]) for name in names}


def file_mutations(name):
    """(bytes, id) of each mutation of the valid file ``name``."""
    valid, shape = idx_bytes(name, IDX_SHAPE[name]), IDX_SHAPE[name]
    kind = name.rsplit("-", 2)[0].removeprefix("train-")  # images, labels, t10k-images, t10k-labels
    other = IDX_IMAGE_MAGIC if IDX_MAGIC[name] == IDX_LABEL_MAGIC else IDX_LABEL_MAGIC
    for magic in (0, other, 0x7FFFFFFF, -1):
        yield struct.pack(">i", magic) + valid[4:], f"{kind}-magic={magic}"
    for field in range(len(shape)):
        for value in (0, 1, 15, 17, 10**9, -1):
            header = shape[:field] + (value,) + shape[field + 1:]
            yield idx_bytes(name, shape, header), f"{kind}-dim{field}={value}"
            if 0 <= value <= 17:  # the data resized to the header too
                yield idx_bytes(name, header), f"{kind}-dim{field}={value}-resized"
    header_len = 4 + 4 * len(shape)
    for keep in (0, 3, 6, header_len, header_len + 1, len(valid) - 1):
        yield valid[:keep], f"{kind}-truncated-to-{keep}"
    yield valid + b"\0", f"{kind}-extended"


def idx_cases():
    """IDX directories as {file name: bytes}, each a valid train pair, or a valid
    train and test pair, with one file mutated, or one test file left alone."""
    for pair, prefix in (((IDX_IMAGES, IDX_LABELS), ""), ((TEST_IMAGES, TEST_LABELS), "t10k-")):
        base = valid_idx(IDX_IMAGES, IDX_LABELS, *pair)
        for name in pair:
            for payload, case in file_mutations(name):
                yield pytest.param({**base, name: payload}, id=case)
        yield pytest.param({**base, pair[1]: idx_bytes(pair[1], (15,))}, id=f"{prefix}labels-15-for-16-images")
    for name in (TEST_IMAGES, TEST_LABELS):
        yield pytest.param(valid_idx(IDX_IMAGES, IDX_LABELS, name), id=f"{name.rsplit('-', 2)[0]}-alone")


def train_on_idx(tmp_path, files=None) -> tuple[int, str]:
    """``train`` (1 epoch, batch 4, hidden 4) on a directory of IDX ``files`` (default: the valid train pair)."""
    root = tmp_path / "idx"
    root.mkdir()
    for name, payload in (files or valid_idx(IDX_IMAGES, IDX_LABELS)).items():
        (root / name).write_bytes(payload)
    text = config_text(dataset=f"idx:{root}", hidden_dims=4, epochs=1, batch_size=4, warmup_epochs=0)
    return run_train(tmp_path, text)


def test_valid_idx_pair_trains(tmp_path):
    assert train_on_idx(tmp_path) == (0, "")


def test_valid_idx_pair_with_test_pair_trains(tmp_path):
    assert train_on_idx(tmp_path, valid_idx(*IDX_MAGIC)) == (0, "")


@pytest.mark.parametrize("files", idx_cases())
def test_mutated_idx_pair_through_train(tmp_path, files):
    rc, err = train_on_idx(tmp_path, files)
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
