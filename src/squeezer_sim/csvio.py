"""CSV emission with embedded parameter snapshots.

Every CSV starts with `# key = value` comment lines carrying the full
run configuration.  Stripping the leading `# ` turns the header back
into a valid config file, so a file documents exactly how to reproduce
itself; rerunning with identical seeds must reproduce it byte for byte.
Snapshot and report values use the shortest form that round-trips;
data cells write floats in scientific notation with 13 significant
digits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["format_exact", "format_value", "snapshot_lines", "write_csv"]


def format_exact(v) -> str:
    """Exact round-trip rendering for snapshot and report values."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # shortest exact form, plain for numpy scalars
    return str(v)


def format_value(v) -> str:
    """Data-cell rendering: floats with 13 significant digits."""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12e}"
    return format_exact(v)


def snapshot_lines(snapshot: dict) -> list[str]:
    """Render a config snapshot as `key = value` lines (ordered as given)."""
    return [f"{k} = {format_exact(v)}" for k, v in snapshot.items()]


def write_csv(path, columns: list[str], rows: list[list],
              comments: list[str] | None = None):
    """Write a list of rows (str/int/float cells) under a comment header.

    `"%.12e" %` equals `format_value` on every float, nan, inf and -0.0
    included, and `"%s" %` on every str.  When each column is all-float
    or all-str, every row is rendered by one format string made of
    those; otherwise cell by cell.
    """
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"every row needs {len(columns)} cells")
    lines = [f"# {c}" for c in comments or []]
    lines.append(",".join(columns))
    formats = [_column_format(col) for col in zip(*rows)]
    if None in formats:
        lines.extend(",".join(map(format_value, row)) for row in rows)
    else:
        fmt = ",".join(formats)
        lines.extend(fmt % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _column_format(col) -> str | None:
    """"%.12e" for an all-float column, "%s" for an all-str one, else None."""
    kinds = set(map(type, col))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.12e"
    if all(issubclass(k, str) for k in kinds):
        return "%s"
    return None
