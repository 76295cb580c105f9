"""CSV emission with embedded parameter snapshots.

Every CSV starts with `# key = value` comment lines carrying the full
run configuration.  Stripping the leading `# ` turns the header back
into a valid config file, so a file documents exactly how to reproduce
itself; rerunning with identical seeds must reproduce it byte for byte.
Snapshot and report values use the shortest form that round-trips;
data cells write floats in scientific notation with 13 significant
digits (`%.12e`).

Columns are 1-D float64 or ASCII str ndarrays, and the body is
rendered in numpy, to the bytes `format_value` gives cell by cell:

- Exponent.  The decimal exponent E of a float cell x comes from
  `log10(|x|)`, which may miss the decade by one next to a power of
  ten.  The rounded significand N below is then compared with 1e12 and
  1e13: N = 1e13 carries into E + 1, and N = 1e12 reached from below
  stands only when ten times the value would also round up; any other
  miss goes to `format_value`.
- Significand.  |x|·10^(12-E) is one product p = fl(|x|·t), where t
  is the table entry for 10^k, k = 12 - E, correctly rounded from
  Python integers.  With u = 2^-53 and P = |x|·10^k, the one-rounding
  model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
  ed., 2002, §2.2) gives |t - 10^k| <= u·10^k and, the product being
  normal, |p - |x|·t| <= u·|x|·t; together |p - P| <= (2 + u)·u·P.  A
  cell kept below has P < 1e13 + 1/2, so that error is under 2.23e-3.
  N is p rounded to the nearest integer; the fraction p - N is exact
  and lies in [-1/2, 1/2].  N is used only where that fraction is more
  than `_MARGIN` (5e-3, above the bound) from ±1/2, and the rule at
  1e12 keeps the same margin; true ties, and the cells that close to
  one, go to `format_value`, which rounds correctly (half to even).
- Bytes.  N and E go through small ASCII tables (4-digit groups packed
  as uint32) into fixed 24-byte NUL-padded cells.  A str column is
  copied as its code points, each an ASCII byte.  Separators are
  written into the cells, and the NULs are dropped on output.
- Fallbacks.  `format_value` renders, one cell at a time, NaN, ±inf,
  nonzero |x| outside [1e-280, 1e280] (where |x| or the table entry
  could leave the normal range), and the cells near a tie or a decade
  named above: about 1 float cell in 120 of the sweep tables.  A column
  outside float64 and ASCII str has no fallback: it raises before the
  file is opened (see `write_csv`).
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


# |x| in this range is normal and puts 12 - E inside [_KMIN, _KMAX],
# where 10^(12-E) is normal; the product then lies near 1e12 to 1e13.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_KMIN, _KMAX = -270, 295
# Twice the 2.23e-3 bound on the product's error (module docstring).
_MARGIN = 5e-3
# Larger blocks were slower in a fresh process: their bigger arrays were
# mapped and unmapped by malloc, page-faulting on every block.
_BLOCK_CELLS = 4096
# A float cell is 3 uint64 words: [NUL, sign or NUL, digit, "."] and the
# first 4-digit group, two more groups, then the exponent, NUL-padded,
# with the separator in its last byte.
_FLOAT_CELL = 24


@functools.cache
def _powers_of_ten():
    """10^k for k in [_KMIN, _KMAX], built on first use; each is correctly
    rounded from Python integers (int / int is correctly rounded)."""
    return np.array([float(10**k) if k >= 0 else 1 / 10**-k
                     for k in range(_KMIN, _KMAX + 1)])


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
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # False on NaN
    a[~fast] = 1.0  # a stand-in: E = 0, as a zero cell prints
    i = ((12 - _KMIN) - np.floor(np.log10(a))).astype(np.intp)
    p = a * _powers_of_ten()[i]  # within 2.23e-3 of |x|·10^(12-E)
    n = np.rint(p)
    frac = p - n  # exact
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
    """Each cell of a str column as a NUL-padded byte row ending in sep.

    Raises ValueError on a label that is not ASCII, or that holds a NUL,
    which dropping the NULs would lose.
    """
    col = np.ascontiguousarray(col, col.dtype.newbyteorder("="))
    codes = col.view(np.uint32).reshape(len(col), col.itemsize // 4)
    if codes.max(initial=0) >= 0x80:
        raise ValueError("str labels must be ASCII")
    if ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any():
        raise ValueError("str labels must not hold a NUL")
    cells = np.zeros((len(col), -(-(codes.shape[1] + 1) // 8) * 8), np.uint8)
    cells[:, :codes.shape[1]] = codes
    cells[:, -1] = sep
    return cells


def _write_rows(f, columns, strs, seps, n):
    """Render the float64 columns in numpy, a block of rows at a time,
    and write the rows with the str cells strs (keyed by column index)."""
    floats = [j for j in range(len(columns)) if j not in strs]
    widths = [strs[j].shape[1] if j in strs else _FLOAT_CELL
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


def write_csv(path, header: list[str], columns: list,
              comments: list[str] | None = None):
    """Write equal-length columns under a comment header, one row per index.

    Each column is a 1-D ndarray of float64 values or of ASCII str
    labels without a NUL; the rows are rendered in numpy, to the bytes
    `format_value` gives cell by cell.  Any other column raises before
    the file is opened: TypeError for its type or dtype, ValueError for
    its shape or a label outside that domain.
    """
    if len(columns) != len(header):
        raise ValueError(f"need {len(header)} columns, got {len(columns)}")
    for col in columns:
        if not (isinstance(col, np.ndarray)
                and (col.dtype == np.float64 or col.dtype.kind == "U")):
            raise TypeError(f"columns must be float64 or str ndarrays, not "
                            f"{getattr(col, 'dtype', type(col).__name__)}")
        if col.ndim != 1:
            raise ValueError(f"columns must be 1-D, not {col.ndim}-D")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"every column needs {n} cells")
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    strs = {j: _str_cells(col, ord(seps[j]))
            for j, col in enumerate(columns) if col.dtype.kind == "U"}
    head = [f"# {c}\n" for c in comments or []] + [",".join(header) + "\n"]
    with open(path, "wb") as f:
        f.write("".join(head).encode("utf-8"))
        _write_rows(f, columns, strs, seps, n)
