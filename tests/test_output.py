"""Deterministic text output: float formatting, tables, hashing."""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab.core import BLOCK_ROWS
from decolab.output import (
    DELIMITED,
    FORMATS,
    STRUCTURED,
    config_hash,
    data_extension,
    format_float,
    write_sections,
    write_table,
)
from helpers import read_table, reference_float, reference_table_text


class TestFormatFloat:
    def test_fixed_width_scientific(self):
        assert format_float(1.0) == "1.0000000000000000e+00"
        assert format_float(-0.25) == "-2.5000000000000000e-01"

    def test_value_round_trip(self):
        rng = np.random.default_rng(2)
        samples = list(10.0 ** rng.uniform(-300.0, 300.0, size=200) * np.sign(rng.uniform(-1, 1, size=200)))
        samples += [0.0, 1e-320, 4.9e-324, 1.7976931348623157e308]
        for x in samples:
            assert float(format_float(x)) == x

    def test_seventeen_significant_digits(self):
        # 17 digits distinguish any two adjacent doubles
        x = 0.1
        y = np.nextafter(x, 1.0)
        assert format_float(x) != format_float(y)


class TestConfigHash:
    def test_stable(self):
        assert config_hash("abc") == config_hash("abc")
        assert len(config_hash("abc")) == 64

    def test_sensitive(self):
        assert config_hash("abc") != config_hash("abd")


class TestDataExtension:
    def test_known_formats(self):
        assert data_extension(DELIMITED) == ".csv"
        assert data_extension(STRUCTURED) == ".txt"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            data_extension("parquet")


class TestWriteTable:
    def rows(self):
        return [(0.0, 1.0), (0.5, 0.25), (1.0, 1.0 / 3.0)]

    def test_delimited_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_table(path, {"kind": "demo"}, ["t", "a"], self.rows(), DELIMITED)
        data = read_table(path)
        np.testing.assert_array_equal(data, np.array(self.rows()))

    def test_delimited_is_loadtxt_friendly(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_table(path, {"kind": "demo", "extra": 7}, ["t", "a"], self.rows(), DELIMITED)
        data = np.loadtxt(path, delimiter=",", comments="#")
        assert data.shape == (3, 2)

    def test_delimited_header_content(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_table(path, {"kind": "demo"}, ["t", "a"], self.rows(), DELIMITED)
        text = path.read_text()
        assert "# kind = demo" in text
        assert "# columns = t,a" in text
        # every non-comment line is bare numbers
        for line in text.splitlines():
            assert line.startswith("#") or line[0] in "-0123456789"

    def test_structured_layout(self, tmp_path):
        path = tmp_path / "curve.txt"
        write_table(path, {"kind": "demo"}, ["t", "a"], self.rows(), STRUCTURED)
        text = path.read_text()
        assert "[meta]" in text and "[data]" in text
        assert "columns = t,a" in text
        assert "rows = 3" in text
        assert "r0 = " in text and "r2 = " in text

    def test_row_width_must_match_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "bad.csv", {}, ["t", "a"], [(1.0,)], DELIMITED)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "bad.dat", {}, ["t"], [(1.0,)], "binary")

    def test_full_precision_survives(self, tmp_path):
        path = tmp_path / "pi.csv"
        value = np.pi / 7
        write_table(path, {}, ["v"], [(value,)], DELIMITED)
        assert read_table(path)[0, 0] == value

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            write_table(path, {"kind": "demo"}, ["t", "a"], self.rows(), DELIMITED)
        assert a.read_bytes() == b.read_bytes()


class TestWriteSections:
    def test_layout_and_order(self, tmp_path):
        path = tmp_path / "report.txt"
        write_sections(path, {"report": {"status": "pass", "n": 3}, "files": {"f0": "x.csv"}})
        text = path.read_text()
        assert text.index("[report]") < text.index("[files]")
        assert "status = pass" in text
        assert "n = 3" in text


SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
    1e300, -1e300, 1e-300, -1e-300, 1.0, 0.1, -2.0 / 3.0,
]


class TestBlockWriter:
    """write_table against the per-number formatter it replaced."""

    @staticmethod
    def table(n_rows: int, width: int) -> np.ndarray:
        rng = np.random.default_rng(n_rows)
        values = rng.standard_normal(n_rows * width) * 10.0 ** rng.integers(-300, 300, n_rows * width)
        values[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: values.size]
        return values.reshape(n_rows, width)

    @pytest.mark.parametrize("fmt", [DELIMITED, STRUCTURED])
    @pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_bytes_match_the_reference_formatter(self, tmp_path, fmt, n_rows):
        width = 3 if n_rows != 1 else len(SPECIAL_VALUES)
        columns = [f"c{i}" for i in range(width)]
        rows = self.table(n_rows, width)
        meta = {"kind": "demo", "time": reference_float(0.5)}
        path = tmp_path / "table.txt"
        write_table(path, meta, columns, rows, fmt)
        assert path.read_bytes() == reference_table_text(meta, columns, rows, fmt).encode()

    @pytest.mark.parametrize("fmt", [DELIMITED, STRUCTURED])
    def test_special_values_format_as_before(self, tmp_path, fmt):
        path = tmp_path / "special.txt"
        write_table(path, {}, ["v"], np.reshape(SPECIAL_VALUES, (-1, 1)), fmt)
        numbers = [line.split(" = ")[-1] for line in path.read_text().splitlines()[-len(SPECIAL_VALUES):]]
        assert numbers == [reference_float(x) for x in SPECIAL_VALUES]
        assert numbers[:4] == ["nan", "inf", "-inf", "-0.0000000000000000e+00"]

    @pytest.mark.parametrize("fmt", [DELIMITED, STRUCTURED])
    def test_empty_rows_write_a_header_only_table(self, tmp_path, fmt):
        flat, shaped = tmp_path / "flat.txt", tmp_path / "shaped.txt"
        write_table(flat, {"kind": "demo"}, ["t", "a"], [], fmt)
        write_table(shaped, {"kind": "demo"}, ["t", "a"], np.empty((0, 2)), fmt)
        expected = reference_table_text({"kind": "demo"}, ["t", "a"], np.empty((0, 2)), fmt)
        assert flat.read_text() == shaped.read_text() == expected
        assert "r0" not in expected and expected.endswith(("[data]\n", "# columns = t,a\n"))


def assert_writes_as_reference(tmp_path, values, width: int, fmt: str = DELIMITED):
    """write_table on `values`, filled row by row into `width` columns (the
    last row padded with zeros), equals the per-number reference byte for byte."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % width)]).reshape(-1, width)
    columns = [f"c{i}" for i in range(width)]
    path = tmp_path / "table.txt"
    write_table(path, {"kind": "sweep"}, columns, values, fmt)
    expected = reference_table_text({"kind": "sweep"}, columns, values, fmt)
    assert path.read_bytes() == expected.encode()


# row counts on both sides of the block boundary, and small ones
ROW_COUNTS = [0, 1, 2, 3, 17, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
ANY_FLOAT = st.one_of(
    st.floats(),  # NaN, +-inf, +-0 and subnormals included
    st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


class TestKernelMatchesPercentFormatting:
    """The vectorised writer against "%.16e", number by number."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(ANY_FLOAT, min_size=1, max_size=40),
        width=st.integers(1, 7),
        n_rows=st.sampled_from(ROW_COUNTS),
        fmt=st.sampled_from(FORMATS),
    )
    def test_any_floats_any_shape(self, values, width, n_rows, fmt):
        rows = np.resize(np.array(values, dtype=float), (n_rows, width))
        columns = [f"c{i}" for i in range(width)]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "table.txt"
            write_table(path, {"kind": "demo"}, columns, rows, fmt)
            expected = reference_table_text({"kind": "demo"}, columns, rows, fmt)
            assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_exact_decimal_ties_round_half_even(self, tmp_path, fmt):
        # m/4 above 2^50: the 18th significant digit is an exact 5, and
        # CPython rounds the tie to the even 17th digit
        assert reference_float(1234567890123456.25) == "1.2345678901234562e+15"
        assert reference_float(1234567890123456.75) == "1.2345678901234568e+15"
        base = np.arange(2 ** 50, 2 ** 50 + 2000, dtype=float)
        ties = np.concatenate([base + 0.25, base + 0.75, -(base + 0.25), [1234567890123456.25]])
        assert_writes_as_reference(tmp_path, ties, 4, fmt)

    def test_neighbours_of_powers_of_ten(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_writes_as_reference(tmp_path, np.concatenate([values, -values]), 3)

    def test_powers_of_two(self, tmp_path):
        values = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_writes_as_reference(tmp_path, np.concatenate([values, -values]), 5)

    def test_edges_of_the_fallback_domain(self, tmp_path):
        edges = np.array([1e290, 1e-290])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert_writes_as_reference(tmp_path, np.concatenate([values, -values]), 2)

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
    def test_any_memory_layout(self, tmp_path, layout):
        rng = np.random.default_rng(3)
        rows = {
            "fortran": lambda: np.asfortranarray(rng.standard_normal((BLOCK_ROWS + 5, 3))),
            "transposed": lambda: rng.standard_normal((3, 50)).T,
            "strided": lambda: rng.standard_normal((50, 6))[:, ::2],
        }[layout]()
        columns = ["a", "b", "c"]
        for fmt in FORMATS:
            path = tmp_path / "table.txt"
            write_table(path, {}, columns, rows, fmt)
            assert path.read_bytes() == reference_table_text({}, columns, rows, fmt).encode()

    def test_seeded_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(20261018).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        assert_writes_as_reference(tmp_path, bits.view(np.float64), 4)

    def test_percent_formats_only_the_fallback_domain(self):
        # inside [1e-290, 1e290) only values within 1e-6 of a decimal tie
        # reach "%.16e"; the +-1 correction of k keeps the neighbours of
        # every power of ten in the kernel
        from decolab.output import _decimal

        def near_tie(x: float) -> bool:
            exponent = int(reference_float(x).split("e")[1])
            scaled = abs(Fraction(x)) * Fraction(10) ** (16 - exponent)
            return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10 ** 6)

        powers = np.array([float(f"1e{k}") for k in range(-289, 290)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        near = np.concatenate([near, -near, [0.0, -0.0]])
        # the one exception is an exact tie: 999999999999999.875 has 18 digits
        assert set(np.abs(near[_decimal(near)[2]])) == {999999999999999.875}
        outside = np.array([math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, -1e290])
        assert _decimal(outside)[2].all()
        assert near_tie(1234567890123456.25) and _decimal(np.array([1234567890123456.25]))[2].all()
        bits = np.random.default_rng(7).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[(np.abs(values) >= 1e-290) & (np.abs(values) < 1e290)]
        fallen = values[_decimal(values)[2]].tolist()
        assert fallen and all(near_tie(x) for x in fallen)
