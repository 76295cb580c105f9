"""Minimal standalone SVG line plots.

CSV stays the canonical output; these plots exist so a sweep can be
eyeballed without any plotting stack installed.  One file per curve,
plain polyline on a framed axis box with a handful of ticks.

The axis range covers the finite points only; a curve with none, or
with a span that overflows or whose tick step underflows, raises
ValueError.  The polyline's points are rendered in numpy, to the bytes
`"%.2f,%.2f"` gives point by point:

- Digits.  Each mapped coordinate v becomes n = round(v·100), taken as
  rint of v·100 rounded to a double.  Rounding is monotone and every
  n + 1/2 below 10^6 is a double, so this is the n of the exact product
  wherever the double is not itself a half.
- Bytes.  n // 100 goes through a 4-digit ASCII table whose leading
  zeros are NUL, n % 100 through a ".dd" table, into one 8-byte cell
  per coordinate with "," or " " in its last byte; the NULs are dropped
  on output.  The tables are built on first use.
- Fallbacks.  `"%.2f"` renders, one coordinate at a time, the values
  whose v·100 rounds onto a half: true binary ties (0.125 prints "0.12")
  and those within rounding of one (0.005 prints "0.01").  It also
  renders NaN, ±inf, every value with its sign bit set (-0.0 prints
  "-0.00") and every n >= 10^6 (9999.996 prints "10000.00").  Their
  text is spliced in between the cells.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

__all__ = ["line_plot_svg"]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 80, 20, 40, 60
# A cell holds up to 4 integer digits, ".dd" and the separator.
_CELL = 8
_LIMIT = 10**6  # n from here on has a fifth integer digit
_TICKS = 5  # ticks an axis aims for


def _tick_step(span: float) -> float:
    """The first of 1, 2, 2.5, 5 and 10 times 10^floor(log10(raw)) that
    is at least raw = span / (_TICKS - 1); 0.0 where either underflows."""
    raw = span / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    return next((m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag), 0.0)


def _ticks(lo: float, hi: float, step: float) -> list[float]:
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(t)
        if t + step == t:  # step below the resolution of t
            break
        t += step
    return out or [lo]


@functools.cache
def _ascii_tables():
    """The integer part (0-9999, leading zeros NUL) and ".dd" as uint32
    words, built on first use."""
    k = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for j, d in enumerate((1000, 100, 10, 1)):
        digits[:, j] = k // d % 10 + ord("0")
    for j, d in enumerate((1000, 100, 10)):
        digits[k < d, j] = 0
    hundredths = np.zeros((100, 4), np.uint8)
    hundredths[:, 0] = ord(".")
    hundredths[:, 1] = k[:100] // 10 + ord("0")
    hundredths[:, 2] = k[:100] % 10 + ord("0")
    return digits.view(np.uint32).ravel(), hundredths.view(np.uint32).ravel()


def _points(xs, ys) -> str:
    """`" ".join("%.2f,%.2f" % p for p in zip(xs, ys))` of equal-length
    float64 arrays."""
    ints, hundredths = _ascii_tables()
    v = np.stack([xs, ys], axis=1)
    fast = (v < _LIMIT / 100) & ~np.signbit(v)  # False on NaN
    # v·100 rounded to a double.  Rounding is monotone and every n + 1/2
    # below 10^6 is a double, so where v·100 rounds onto no half, rint
    # gives the n of the exact v·100.  A true tie, or a value within
    # rounding of one, rounds onto the half and goes to "%.2f".
    p = np.where(fast, v, 0.0) * 100.0
    n = np.rint(p)
    ok = fast & (np.abs(p - n) != 0.5) & (n < _LIMIT)
    n = np.where(ok, n, 0.0).astype(np.intp)
    slow = np.flatnonzero(~ok)
    seps = np.frombuffer(b"\0\0\0,\0\0\0 ", np.uint32)
    words = np.empty(v.shape + (2,), np.uint32)
    whole, cents = np.divmod(n, 100)
    words[..., 0] = ints[whole]
    words[..., 1] = hundredths[cents] | seps
    text = words.tobytes()
    if slow.size:
        pieces, start = [], 0
        for k, value in zip(slow.tolist(), v.ravel()[slow].tolist()):
            pieces += [text[start:k * _CELL], b"%.2f" % value]
            start = (k + 1) * _CELL - 1  # from the cell's separator on
        pieces.append(text[start:])
        text = b"".join(pieces)
    return text.translate(None, b"\0")[:-1].decode("ascii")


def _axis_range(v, name, pad):
    """(lo, hi, tick step) over the finite values of v, each end moved
    out by `pad` times the span.

    A flat range is widened by 1, or where 1 is below its resolution by
    half its size towards zero, which cannot overflow.  A range whose
    span times the plot's width is not finite, or whose tick step
    underflows to 0, raises ValueError.
    """
    finite = v[np.isfinite(v)]
    if not finite.size:
        raise ValueError(f"{name} has no finite point to plot")
    first, last = lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        if lo + 1.0 > lo:
            hi = lo + 1.0
        elif lo > 0.0:
            lo = 0.5 * lo
        else:
            hi = 0.5 * hi
    if pad:
        pad *= hi - lo
        lo, hi = lo - pad, hi + pad
    # Mapping to pixels multiplies a span by up to the plot's width.
    if not math.isfinite(_W * (hi - lo)):
        raise ValueError(f"{name} values from {first!r} to {last!r} overflow "
                         f"the axis range")
    step = _tick_step(hi - lo)
    if not step:
        raise ValueError(f"{name} values from {first!r} to {last!r} underflow "
                         f"the tick step")
    return lo, hi, step


def line_plot_svg(path, x, y, title: str = "", xlabel: str = "",
                  ylabel: str = ""):
    """Write a single-polyline plot of y against x.

    NaN and ±inf points (unresolved sweep rows) are left out of the
    axis range; x or y with no finite point, or whose axis range is too
    wide to map to pixels in doubles or too narrow for a tick step,
    raises ValueError before the file is opened.
    """
    xs = np.asarray(x, float)
    ys = np.asarray(y, float)
    if xs.shape != ys.shape or xs.ndim != 1 or not len(xs):
        raise ValueError("x and y must be equal-length and nonempty")
    x0, x1, x_step = _axis_range(xs, "x", 0.0)
    y0, y1, y_step = _axis_range(ys, "y", 0.05)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + pw * (v - x0) / (x1 - x0)

    def py(v):
        return _MT + ph * (1.0 - (v - y0) / (y1 - y0))

    pts = _points(px(xs), py(ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black"/>',
    ]
    for t in _ticks(x0, x1, x_step):
        xp = px(t)
        parts.append(f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_MT + ph + 20}" font-size="12" '
                     f'text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(y0, y1, y_step):
        yp = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" '
                     f'y2="{yp:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{t:.3g}</text>')
    if title:
        parts.append(f'<text x="{_W / 2}" y="24" font-size="16" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 15}" font-size="13" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="20" y="{_MT + ph / 2}" font-size="13" '
                     f'text-anchor="middle" '
                     f'transform="rotate(-90 20 {_MT + ph / 2})">{ylabel}</text>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.5"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
