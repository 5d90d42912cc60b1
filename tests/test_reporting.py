"""Tests for the benchmark reporting helpers (repro.reporting)."""

import pytest

from repro.reporting import Table, format_cell


class TestFormatCell:
    def test_none_renders_as_dash(self):
        assert format_cell(None) == "—"

    def test_booleans_render_as_yes_no(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_floats_get_fixed_precision(self):
        assert format_cell(3.14159) == "3.142"
        assert format_cell(3.14159, float_digits=1) == "3.1"

    def test_strings_and_ints_pass_through(self):
        assert format_cell("abc") == "abc"
        assert format_cell(42) == "42"


class TestTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Table([])

    def test_positional_rows(self):
        table = Table(["n", "time"])
        table.add_row(10, 0.5)
        assert len(table) == 1
        assert table.rows == [["10", "0.500"]]

    def test_named_rows(self):
        table = Table(["n", "time"])
        table.add_row(time=1.0, n=5)
        assert table.rows == [["5", "1.000"]]

    def test_rejects_mixed_rows(self):
        table = Table(["n", "time"])
        with pytest.raises(ValueError):
            table.add_row(1, time=2.0)

    def test_rejects_unknown_columns(self):
        table = Table(["n"])
        with pytest.raises(ValueError):
            table.add_row(bogus=1)

    def test_rejects_wrong_arity(self):
        table = Table(["n", "time"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_aligns_columns(self):
        table = Table(["name", "value"], title="demo")
        table.add_row("long-name-here", 1)
        table.add_row("x", 12345)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "demo"
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/rows aligned

    def test_markdown_rendering(self):
        table = Table(["a", "b"])
        table.add_row(1, 2)
        markdown = table.to_markdown()
        assert "| a | b |" in markdown
        assert "| 1 | 2 |" in markdown

    def test_str_matches_render(self):
        table = Table(["a"])
        table.add_row(1)
        assert str(table) == table.render()
