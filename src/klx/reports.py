"""Tabular output: CSV, JSON and aligned plain text.

Floats are rendered with 17 significant digits in the machine formats so
values round-trip exactly through text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_scalar(value) -> str:
    """format_value, except that JSON has no inf or nan and quotes strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return format_value(value)


def to_csv_text(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json_text(table: Table, extra: dict | None = None) -> str:
    """One JSON object with a "rows" array; extra top-level keys optional."""
    row_objects = []
    for row in table.rows:
        fields = ", ".join(
            f"{json.dumps(col)}: {_json_scalar(v)}" for col, v in zip(table.columns, row)
        )
        row_objects.append("{" + fields + "}")
    parts = ['"rows": [' + ", ".join(row_objects) + "]"]
    if extra:
        for key, value in extra.items():
            parts.append(f"{json.dumps(key)}: {_json_scalar(value)}")
    return "{" + ", ".join(parts) + "}\n"


def to_pretty_text(table: Table) -> str:
    cells = [[format_value(v) for v in row] for row in table.rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(table.columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(table.columns))
    lines = [header, "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(widths))))
    return "\n".join(lines) + "\n"


def render(table: Table, fmt: str, extra: dict | None = None) -> str:
    if fmt == "csv":
        return to_csv_text(table)
    if fmt == "json":
        return to_json_text(table, extra)
    if fmt == "pretty":
        return to_pretty_text(table)
    raise ValueError(f"unknown output format: {fmt!r}")
