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

    Cells are rendered column by column: an all-float column in one
    `"%.12e" %` pass, which equals `format_value` on every float, nan,
    inf and -0.0 included; any other column cell by cell.
    """
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"every row needs {len(columns)} cells")
    cells = [["%.12e" % v for v in col]
             if all(isinstance(v, (float, np.floating)) for v in col)
             else [format_value(v) for v in col]
             for col in zip(*rows)]
    lines = [f"# {c}" for c in comments or []]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*cells)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
