import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nm_sparse_kit.tensorops import (
    NmPattern,
    check_divisible,
    format_matrix,
    load_matrix,
    matrix,
    parse_matrix,
    save_matrix,
)


class TestMatrixConstructor:
    def test_accepts_plain_lists(self):
        a = matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float64
        assert a.shape == (2, 2)

    def test_accepts_object_array_of_reals(self):
        a = matrix(np.array([[1.5, 2], [np.float32(3), True]], dtype=object))
        assert a.dtype == np.float64
        assert a.tolist() == [[1.5, 2.0], [3.0, 1.0]]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            matrix([1.0, 2.0])

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="positive"):
            matrix(np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1 + 2j, 3]]),
            [["1.5", "2"]],
            np.array([[b"1", b"2"]]),
            np.array([[1, 2]], dtype="datetime64[s]"),
            np.array([[1, 2]], dtype="timedelta64[s]"),
            np.array([[1 + 2j, 3]], dtype=object),
            np.array([["1.5", 2]], dtype=object),
        ],
        ids=["complex", "str", "bytes", "datetime", "timedelta", "object-complex", "object-str"],
    )
    def test_rejects_complex_and_text(self, bad):
        with pytest.raises(ValueError, match="real matrix"):
            matrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            matrix([[1.0, bad]])


class TestNmPattern:
    def test_parse(self):
        assert NmPattern.parse("2:4") == NmPattern(2, 4)
        assert str(NmPattern(1, 16)) == "1:16"

    @pytest.mark.parametrize("n,m", [(0, 4), (5, 4), (1, 1), (2, 1)])
    def test_rejects_bad_patterns(self, n, m):
        with pytest.raises(ValueError):
            NmPattern(n, m)

    @pytest.mark.parametrize("n,m", [(True, 2), (1, True), (np.True_, 2), (2.0, 4), ("2", 4)])
    def test_rejects_non_integers_and_bools(self, n, m):
        # True:2 would build masks but print a pattern nothing can parse back
        with pytest.raises(ValueError, match="integer"):
            NmPattern(n, m)

    def test_numpy_integers_become_plain_ints(self):
        p = NmPattern(np.int64(2), np.uint8(4))
        assert type(p.n) is int and type(p.m) is int
        assert p == NmPattern(2, 4) and hash(p) == hash(NmPattern(2, 4))
        assert NmPattern.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        for text in ("24", "2:4:8", "a:b"):
            with pytest.raises(ValueError):
                NmPattern.parse(text)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(5, 7)) * np.exp(rng.normal(size=(5, 7)) * 10)
        path = tmp_path / "m.txt"
        save_matrix(path, a)
        back = load_matrix(path)
        assert back.tobytes() == a.tobytes()

    @pytest.mark.parametrize("value", [1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                                       2.2250738585072009e-308, 1e-310, 0.0, -0.0])
    def test_extreme_values_round_trip_bit_exact(self, value):
        a = np.array([[value, -value, 1.0]])
        assert parse_matrix(format_matrix(a)).tobytes() == a.tobytes()

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_property(self, a):
        assert parse_matrix(format_matrix(a)).tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[5e-324, -5e-324, 2.2250738585072009e-308, 1e-310], [-0.0, 0.0, 1.7e308, -1.7e308]]),
            np.array([[1e16, 2.0**53 + 2, 123456789012345678.0, -1e17]]),
            np.array([[10**16, 2**53 + 1, -(2**62)], [0, 1, -1]], dtype=np.int64),
            np.random.default_rng(5).integers(0, 2, size=(4, 8), dtype=np.uint8),
            np.random.default_rng(6).normal(size=(3, 5)) * 10.0 ** np.arange(-150, 150, 20).reshape(3, 5),
        ],
        ids=["subnormals-and-signed-zeros", "large-floats", "large-ints", "uint8-bits", "random"],
    )
    def test_format_matches_one_format_per_numpy_scalar(self, a):
        # the formatter reads Python scalars from tolist(); each must print as its numpy scalar
        rows = [" ".join(f"{v:.17g}" for v in row) for row in a]
        assert format_matrix(a) == f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n"

    def test_format_header(self):
        text = format_matrix(matrix([[1.5, -2.0]]))
        lines = text.splitlines()
        assert lines[0] == "1 2"
        assert len(lines) == 2

    def test_parse_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 2 rows"):
            parse_matrix("2 2\n1 2\n")

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="expected 2"):
            parse_matrix("1 2\n1 2 3\n")


class TestCheckDivisible:
    def test_message_names_the_dimension(self):
        check_divisible(8, 4, "matrix cols")
        with pytest.raises(ValueError, match="^needs matrix cols divisible by 4, got 6$"):
            check_divisible(6, 4, "matrix cols")
