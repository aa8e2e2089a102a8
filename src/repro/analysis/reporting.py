"""Tabular text reports shared by benchmarks and examples."""

from __future__ import annotations

from typing import Any, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str = "",
    align_right: Optional[Sequence[int]] = None,
) -> str:
    """Monospace table with auto-sized columns."""
    right = set(align_right or [])
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if i in right else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("")
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(fmt_row(row))
    return "\n".join(lines)
