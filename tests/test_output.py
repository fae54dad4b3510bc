"""Deterministic text output: float formatting, tables, hashing."""

import numpy as np
import pytest

from decolab.output import (
    DELIMITED,
    STRUCTURED,
    config_hash,
    data_extension,
    format_float,
    write_sections,
    write_table,
)
from helpers import read_table


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
