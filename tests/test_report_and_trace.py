"""Tests for the report formatting helpers."""

import pytest

from repro.bench.report import Series, Table, format_bytes, format_us


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expect",
        [(1, "1"), (512, "512"), (1024, "1K"), (65536, "64K"),
         (1 << 20, "1M"), (4 << 20, "4M"), (1 << 30, "1G"), (1536, "1.5K")],
    )
    def test_format_bytes(self, n, expect):
        assert format_bytes(n) == expect

    def test_format_us_scales(self):
        assert format_us(3.14159) == "3.14"
        assert format_us(42.7) == "42.7"
        assert format_us(1234.5) == "1234"
        assert format_us(250_000) == "250ms"


class TestTable:
    def test_render_alignment(self):
        t = Table("demo", ["a", "bee"])
        t.add(1, 22222)
        t.add(33, 4)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[2] and "bee" in lines[2]
        assert len(lines) == 6

    def test_wrong_arity_rejected(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_series_points(self):
        s = Series("fig", "msg", ["x", "y"])
        s.add_point(65536, {"x": 1.5})
        out = s.render()
        assert "64K" in out
        assert "-" in out  # missing series rendered as dash

    def test_series_raw_labels(self):
        s = Series("fig", "readers", ["v"])
        s.add_raw_point("16", {"v": 2.0})
        assert "16" in s.render()
