"""Paper-style result formatting.

Benchmarks print their regenerated tables/series through these helpers
so the output reads like the paper's evaluation: one row per parameter
point, one column per service flavour.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table with a title banner."""
    header = [str(c) for c in columns]
    body = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = ["", "=" * max(len(title), 8), title, "=" * max(len(title), 8)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    if note:
        lines.append(f"note: {note}")
    lines.append("")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def series_table(
    title: str,
    x_name: str,
    xs: Sequence[Number],
    series: Mapping[str, Sequence[Optional[Number]]],
    unit: str = "",
    note: Optional[str] = None,
) -> str:
    """Render one x column plus one column per named series (figure shape)."""
    columns = [x_name] + [f"{name}{f' ({unit})' if unit else ''}" for name in series]
    rows: List[List[object]] = []
    for i, x in enumerate(xs):
        row: List[object] = [x]
        for name in series:
            value = series[name][i] if i < len(series[name]) else None
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(title, columns, rows, note=note)


def shape_check(
    description: str,
    condition: bool,
) -> str:
    """One-line pass/fail annotation for a paper-shape assertion."""
    marker = "PASS" if condition else "FAIL"
    return f"[{marker}] {description}"
