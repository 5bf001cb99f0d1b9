"""Tests for normalisation helpers and text-table rendering."""

from __future__ import annotations

from repro.analysis.metrics import normalize_to
from repro.analysis.tables import TextTable, format_cell


def test_normalize_to_baseline():
    values = {"base": 2.0, "fast": 3.0, "slow": 1.0}
    normalized = normalize_to(values, "base")
    assert normalized == {"base": 1.0, "fast": 1.5, "slow": 0.5}


def test_normalize_with_missing_or_zero_baseline_returns_zeros():
    assert normalize_to({"a": 2.0}, "missing") == {"a": 0.0}
    assert normalize_to({"a": 2.0, "b": 0.0}, "b") == {"a": 0.0, "b": 0.0}


def test_format_cell():
    assert format_cell(1.23456) == "1.235"
    assert format_cell("text") == "text"
    assert format_cell(7) == "7"


class TestTextTable:
    def test_renders_title_headers_and_rows(self):
        table = TextTable(["workload", "ipc"], title="Figure X")
        table.add_row(["apache", 0.5])
        table.add_row(["zeus", 0.25])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "Figure X"
        assert "workload" in lines[1] and "ipc" in lines[1]
        assert any("apache" in line and "0.500" in line for line in lines)

    def test_columns_are_aligned(self):
        table = TextTable(["a", "bbbbbb"], title="")
        table.add_row(["x", 1.0])
        table.add_row(["longer", 2.0])
        lines = table.render().splitlines()
        header_position = lines[0].index("bbbbbb")
        for line in lines[2:]:
            cell = line[header_position:].strip().split()[0]
            assert cell in ("1.000", "2.000")

    def test_str_equals_render(self):
        table = TextTable(["x"])
        table.add_row([1])
        assert str(table) == table.render()

    def test_short_rows_are_padded(self):
        table = TextTable(["a", "b", "c"])
        table.add_row(["only"])
        assert "only" in table.render()
