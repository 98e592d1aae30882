"""Plain-text table rendering, in the style of the paper's Tables I/II."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["TextTable", "render_table"]


@dataclass
class TextTable:
    """A simple column-aligned table."""

    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        return render_table(self.title, self.headers, self.rows)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render an aligned monospace table with a title rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("ragged table row")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(widths[i]) for i, c in enumerate(cells))

    sep = "-" * (sum(widths) + 2 * (len(headers) - 1))
    out = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(line(headers))
    out.append(sep)
    for row in rows:
        out.append(line(row))
    out.append(sep)
    return "\n".join(out)
