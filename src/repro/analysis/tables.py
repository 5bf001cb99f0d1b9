"""Plain-text table rendering for experiment reports.

The benchmark harness prints each reproduced table and figure as a text
table whose rows mirror the paper's presentation (workloads down the side,
configurations across the top), so a reader can compare shapes side by side
with the published figures.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class TextTable:
    """A very small fixed-width text table builder."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, cells: Iterable[object]) -> None:
        """Append one row; cells are converted with :func:`format_cell`."""
        self.rows.append([format_cell(cell) for cell in cells])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        columns = len(self.headers)
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index in range(columns):
                cell = row[index] if index < len(row) else ""
                widths[index] = max(widths[index], len(cell))

        def render_row(cells: Sequence[str]) -> str:
            padded = [
                (cells[i] if i < len(cells) else "").ljust(widths[i])
                for i in range(columns)
            ]
            return "  ".join(padded).rstrip()

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(render_row(self.headers))
        lines.append(render_row(["-" * w for w in widths]))
        for row in self.rows:
            lines.append(render_row(row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_cell(value: object) -> str:
    """Format one table cell (floats get three significant decimals)."""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
