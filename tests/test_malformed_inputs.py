"""Mutated config and matrix files through the CLI: a documented exit code, never a traceback.

Each case takes a small valid file and applies one mutation: drop or
duplicate a line, swap two values, or replace one value with a token from a
fixed list. No token is a larger size than the valid file holds, so every
run stays small.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nm_sparse_kit.cli import main
from nm_sparse_kit.experiment import load_config, serialize_config
from nm_sparse_kit.masks import load_mask, validate_mask
from nm_sparse_kit.tensorops import format_matrix

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
