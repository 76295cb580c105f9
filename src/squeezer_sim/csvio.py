"""CSV emission with embedded parameter snapshots.

Every CSV starts with `# key = value` comment lines carrying the full
run configuration.  Stripping the leading `# ` turns the header back
into a valid config file, so a file documents exactly how to reproduce
itself; rerunning with identical seeds must reproduce it byte for byte.
Snapshot and report values use the shortest form that round-trips;
data cells write floats in scientific notation with 13 significant
digits (`%.12e`).

When every column is a float (half, single or double) or str ndarray,
the body is rendered in numpy, to the bytes `format_value` gives cell
by cell:

- Exponent.  The decimal exponent E of a float cell x comes from
  `log10(|x|)`, which may miss the decade by one next to a power of
  ten.  The rounded significand N below is then compared with 1e12 and
  1e13: N = 1e13 carries into E + 1, and N = 1e12 reached from below
  stands only when ten times the value would also round up; any other
  miss goes to `format_value`.
- Significand.  |x|·10^(12-E) is formed as an unevaluated sum of two
  doubles.  10^k is held as hi + lo, each part correctly rounded from
  Python integers, and |x|·hi is Dekker's exact product (Numer. Math.
  18, 224, 1971), so the sum is within about 5e-19 of the true value.
  N is that sum rounded to the nearest integer, and the fraction left
  over is known to about 1e-16.  N is used only where the fraction is
  more than `_MARGIN` (1e-9) from ±1/2; true ties, and the rare cells
  that close to one, go to `format_value`, which rounds correctly
  (half to even).
- Bytes.  N and E go through small ASCII tables (4-digit groups packed
  as uint32) into fixed 24-byte NUL-padded cells.  A str column is
  copied as its code points when it is ASCII and otherwise encoded once
  per distinct label.  Separators are written into the cells, and the
  NULs are dropped on output.
- Fallbacks.  `format_value` renders, one cell at a time, NaN, ±inf,
  nonzero |x| outside [1e-280, 1e280] (where a part of the product
  could leave the normal range), and the cells near a tie or a decade
  named above.  A str label holding a NUL, a list column, or an ndarray
  of another dtype (longdouble included) sends the whole table cell by
  cell through `format_value`.
- Memory.  Rows are rendered in blocks of about `_BLOCK_CELLS` cells,
  each written to the file as it is made, so the temporaries stay near
  0.6 MB whatever the table's length.  The tables are built on first
  use, so importing the module builds nothing.
"""

from __future__ import annotations

import functools

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


# |x| in this range keeps every intermediate of the product normal and
# 12 - E inside [_KMIN, _KMAX], where the lo part of 10^(12-E) is normal.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_KMIN, _KMAX = -270, 295
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for 53-bit significands
# Far wider than the ~1e-16 error of the computed fraction.
_MARGIN = 1e-9
# Larger blocks were slower in a fresh process: their bigger arrays were
# mapped and unmapped by malloc, page-faulting on every block.
_BLOCK_CELLS = 4096
# A float cell is 3 uint64 words: [NUL, sign or NUL, digit, "."] and the
# first 4-digit group, two more groups, then the exponent, NUL-padded,
# with the separator in its last byte.
_FLOAT_CELL = 24


def _split(x):
    """Dekker's split: x = hi + lo exactly, each with at most 26 bits."""
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _powers_of_ten():
    """10^k for k in [_KMIN, _KMAX] as hi + lo (hi also split), built on
    first use; each part is correctly rounded from Python integers."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        t = 10 ** abs(k)
        if k >= 0:
            h = float(t)
            lo.append(float(t - int(h)))
        else:
            h = 1 / t  # int / int is correctly rounded
            num, den = h.as_integer_ratio()
            lo.append((den - num * t) / (den * t))
        hi.append(h)
    hi = np.array(hi)
    return hi, *_split(hi), np.array(lo)


@functools.cache
def _ascii_tables():
    """The lead word per (sign, digit), the 4-digit groups as uint32 and
    the exponent word per power-of-ten index, built on first use."""
    lead = np.zeros((2, 10, 4), np.uint8)
    lead[1, :, 1] = ord("-")
    lead[:, :, 2] = np.arange(10) + ord("0")
    lead[:, :, 3] = ord(".")
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    exps = b"".join(f"e{12 - k:+03d}".encode().ljust(8, b"\0")
                    for k in range(_KMIN, _KMAX + 1))
    return lead.view(np.uint32).ravel(), groups, np.frombuffer(exps, np.uint64)


def _decimal(x):
    """|x| rounded to 13 digits, as n·10^(E-12) with n integer-valued.

    Returns (n, i, ok), where i indexes the tables: 10^(12-E) is
    10^(i + _KMIN).  Zeros give n = 0 and E = 0.  Where ok is False
    (NaN, ±inf, |x| off the fast range, near a tie or a missed decade)
    n and i are meaningless.
    """
    hi, hi_hi, hi_lo, lo = _powers_of_ten()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # False on NaN
    a[~fast] = 1.0  # a stand-in: E = 0, as a zero cell prints
    i = ((12 - _KMIN) - np.floor(np.log10(a))).astype(np.intp)
    p = a * hi[i]
    # Dekker's exact error of a·hi, plus a·lo.
    a_hi, a_lo = _split(a)
    h_hi, h_lo = hi_hi[i], hi_lo[i]
    c = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    c += a * lo[i]
    n = np.rint(p)
    frac = (p - n) + c  # |x|·10^(12-E) - n, to about 1e-16
    step = np.rint(frac)
    n += step
    frac -= step
    # log10 may miss the decade by one.  n = 1e13 carries into E + 1 (also
    # right when the value was at or above 1e13, since it then lies below
    # 1e13 + 0.5); n = 1e12 from below is right only when ten times the
    # value rounds to 1e13, a fraction above -0.05; any other n outside
    # [1e12, 1e13] goes to format_value.
    ok = (fast & (np.abs(frac) < 0.5 - _MARGIN) & (n >= 1e12) & (n <= 1e13)
          & ((n != 1e12) | (frac > _MARGIN - 0.05)))
    carry = n == 1e13
    n[carry] = 1e12
    i -= carry
    n[~ok] = 0.0
    return n, i, ok | zero


def _float_cells(x, seps):
    """`format_value` of each cell of the float64 array x, as 24-byte cells.

    Returns x.shape + (3,) uint64 words.  seps holds, per column of x, a
    word that is NUL but for the separator in its last byte.
    """
    lead, groups, exps = _ascii_tables()
    n, i, ok = _decimal(x)
    digits = n.astype(np.int64)
    top = digits // 10**8
    rest = digits - top * 10**8
    first = top // 10**4
    mid = rest // 10**4
    cells = np.empty(x.shape + (3,), np.uint64)
    words = cells.view(np.uint32)
    words[..., 0] = lead[np.signbit(x) * 10 + first]
    words[..., 1] = groups[top - first * 10**4]
    words[..., 2] = groups[mid]
    words[..., 3] = groups[rest - mid * 10**4]
    cells[..., 2] = exps[i]
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = b"".join(format_value(v).encode().ljust(_FLOAT_CELL, b"\0")
                        for v in x.ravel()[slow].tolist())
        cells.reshape(-1, 3)[slow] = np.frombuffer(text, np.uint64).reshape(-1, 3)
    cells[..., 2] |= seps
    return cells


def _str_cells(col, sep):
    """Each cell of a str column as a NUL-padded byte row ending in sep,
    or None when a label holds a NUL, which dropping the NULs would lose.
    """
    col = np.ascontiguousarray(col, col.dtype.newbyteorder("="))
    codes = col.view(np.uint32).reshape(len(col), col.itemsize // 4)
    if ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any():
        return None
    if codes.max(initial=0) < 0x80:  # ASCII: each code point is its byte
        table, index = codes, slice(None)
    else:  # UTF-8, encoded once per distinct label
        labels, index = np.unique(col, return_inverse=True)
        encoded = [s.encode("utf-8") for s in labels.tolist()]
        table = np.zeros((len(encoded), max(map(len, encoded))), np.uint8)
        for row, b in zip(table, encoded):
            row[:len(b)] = np.frombuffer(b, np.uint8)
        index = index.reshape(-1)
    cells = np.zeros((len(col), -(-(table.shape[1] + 1) // 8) * 8), np.uint8)
    cells[:, :table.shape[1]] = table[index]
    cells[:, -1] = sep
    return cells


def _write_rows(f, columns, n):
    """Render float and str ndarray columns in numpy and write the rows.

    Returns False, writing nothing, when a str label holds a NUL.
    """
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    strs = {j: _str_cells(col, ord(seps[j]))
            for j, col in enumerate(columns) if col.dtype.kind == "U"}
    if any(table is None for table in strs.values()):
        return False
    widths = [_FLOAT_CELL if j in floats else strs[j].shape[1]
              for j in range(len(columns))]
    offsets = np.cumsum([0] + widths) // 8
    float_seps = np.frombuffer(b"".join(b"\0" * 7 + seps[j] for j in floats),
                               np.uint64)
    block = max(1, _BLOCK_CELLS // max(1, len(columns)))
    for start in range(0, n, block):
        stop = min(n, start + block)
        rows = np.empty((stop - start, offsets[-1]), np.uint64)
        x = np.empty((stop - start, len(floats)))
        for m, j in enumerate(floats):
            x[:, m] = columns[j][start:stop]
        cells = _float_cells(x, float_seps)
        for m, j in enumerate(floats):
            rows[:, offsets[j]:offsets[j + 1]] = cells[:, m]
        for j, table in strs.items():
            rows[:, offsets[j]:offsets[j + 1]] = table[start:stop].view(np.uint64)
        f.write(rows.tobytes().translate(None, b"\0"))
    return True


def write_csv(path, header: list[str], columns: list,
              comments: list[str] | None = None):
    """Write equal-length columns under a comment header, one row per index.

    When every column is a float (half, single or double) or str
    ndarray, the rows are rendered in numpy; otherwise (a list or an
    ndarray of another dtype among them) cell by cell with
    `format_value`, to the same bytes.
    """
    if len(columns) != len(header):
        raise ValueError(f"need {len(header)} columns, got {len(columns)}")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"every column needs {n} cells")
    head = [f"# {c}\n" for c in comments or []] + [",".join(header) + "\n"]
    vectorized = all(isinstance(col, np.ndarray)
                     and (col.dtype.kind == "U"
                          or col.dtype.kind == "f" and col.dtype.itemsize <= 8)
                     for col in columns)
    with open(path, "wb") as f:
        f.write("".join(head).encode("utf-8"))
        if vectorized and _write_rows(f, columns, n):
            return
        cols = [col.tolist() if isinstance(col, np.ndarray) else col
                for col in columns]
        f.write("".join(",".join(map(format_value, row)) + "\n"
                        for row in zip(*cols)).encode("utf-8"))
