"""Minimal standalone SVG line plots.

CSV stays the canonical output; these plots exist so a sweep can be
eyeballed without any plotting stack installed.  One file per curve,
plain polyline on a framed axis box with a handful of ticks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["line_plot_svg"]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 80, 20, 40, 60


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(t)
        t += step
    return out or [lo]


def line_plot_svg(path, x, y, title: str = "", xlabel: str = "",
                  ylabel: str = ""):
    """Write a single-polyline plot of y against x.

    NaN points (unresolved sweep rows) are left out of the axis range.
    """
    xs = np.asarray(x, float)
    ys = np.asarray(y, float)
    if xs.shape != ys.shape or xs.ndim != 1 or not len(xs):
        raise ValueError("x and y must be equal-length and nonempty")
    x0, x1 = float(np.nanmin(xs)), float(np.nanmax(xs))
    y0, y1 = float(np.nanmin(ys)), float(np.nanmax(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + pw * (v - x0) / (x1 - x0)

    def py(v):
        return _MT + ph * (1.0 - (v - y0) / (y1 - y0))

    pts = " ".join(map("%.2f,%.2f".__mod__, zip(px(xs).tolist(), py(ys).tolist())))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black"/>',
    ]
    for t in _ticks(x0, x1):
        xp = px(t)
        parts.append(f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_MT + ph + 20}" font-size="12" '
                     f'text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(y0, y1):
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
