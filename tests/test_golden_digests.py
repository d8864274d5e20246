"""The fixed-matrix sections of ``tools/artifact_digests.py`` against a committed fixture.

``data/fixed_matrix_digests.txt`` holds the ``sha256  name`` lines that the
tool's ``fixed_matrix_digests`` prints: transposable, forward and backward
masks, permutation searches and diversity counts of fixed matrices. None of
them goes through a matmul, so they do not depend on the BLAS build. A
change that keeps masks bit-identical keeps every line; a change that alters
lines is a change to this check and names them and the reason.

Multinomial backward keys go through ``np.log``, whose SIMD result can
differ by an ulp between CPUs. If only ``backward-multinomial`` lines
differ on another host, that is the likely cause: report it rather than
regenerate the fixture.
"""

import importlib.util
from pathlib import Path

import nm_sparse_kit as kit

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "fixed_matrix_digests.txt"
TOOL = HERE.parent / "tools" / "artifact_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def read_lines(text):
    """(name, digest) pairs of ``sha256  name`` lines, in order."""
    return [tuple(reversed(line.split("  ", 1))) for line in text.splitlines()]


def test_fixed_matrix_sections_match_the_fixture():
    expected = read_lines(FIXTURE.read_text())
    got = [(name, digest) for digest, name in load_tool().fixed_matrix_digests(kit)]
    assert len(dict(got)) == len(got), "duplicate digest names"
    assert [name for name, _ in got] == [name for name, _ in expected], "the sections list other artifacts"
    differ = [name for (name, digest), (_, want) in zip(got, expected) if digest != want]
    only_log = differ and all(name.startswith("backward-multinomial") for name in differ)
    note = " (only multinomial lines: np.log may differ by an ulp on this CPU)" if only_log else ""
    assert not differ, f"{len(differ)} of {len(expected)} digests differ{note}:\n" + "\n".join(differ)
