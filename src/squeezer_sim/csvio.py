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


# The format of a float or str ndarray column; `"%.12e" %` equals
# `format_value` on every float, nan, inf and -0.0 included, and `"%s" %`
# on every str.
_DTYPE_FORMATS = {"f": "%.12e", "U": "%s"}


def write_csv(path, header: list[str], columns: list,
              comments: list[str] | None = None):
    """Write equal-length columns under a comment header, one row per index.

    When every column is a float or str ndarray, each row is rendered by
    one format string made of their dtypes' formats; otherwise (a list
    or an ndarray of another dtype among them) cell by cell with
    `format_value`, to the same bytes.
    """
    if len(columns) != len(header):
        raise ValueError(f"need {len(header)} columns, got {len(columns)}")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"every column needs {n} cells")
    formats = [_DTYPE_FORMATS.get(col.dtype.kind) if isinstance(col, np.ndarray)
               else None for col in columns]
    cols = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    lines = [f"# {c}" for c in comments or []]
    lines.append(",".join(header))
    if None in formats:
        lines.extend(",".join(map(format_value, row)) for row in zip(*cols))
    else:
        lines.extend(map(",".join(formats).__mod__, zip(*cols)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
