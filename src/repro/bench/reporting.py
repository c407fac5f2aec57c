"""Result rendering and persistence for the benchmark harness.

Every bench target prints the rows/series its paper table or figure reports
(ASCII, one table per experiment) and can persist the raw records as JSON
next to the benchmarks for later inspection.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["format_table", "save_records", "format_curve"]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_curve(label: str, values: Sequence[float], width: int = 50) -> str:
    """A one-line sparkline-ish rendering of a metric series."""
    if not values:
        return f"{label}: (empty)"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    blocks = " ▁▂▃▄▅▆▇█"
    chars = "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in list(values)[:width]
    )
    return f"{label:24s} [{chars}] {values[-1]:.4f}"


def save_records(records: object, path: str | Path) -> Path:
    """Persist benchmark records as JSON (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(records, f, indent=2, default=str)
    return path
