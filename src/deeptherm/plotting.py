"""Self-contained SVG rendering of deviation-vs-time data (log2 y-axis).

Input: figure3's (k, t, bc, method, value) point rows; one polyline per
(k, bc, method) series, circle markers for the replica route and squares
for Monte Carlo, plus 2^-t and 2^-2t guide lines anchored at the earliest
time.  Output bytes are deterministic for fixed input.
"""
from __future__ import annotations

import math

from .records import RecordError, atomic_write_text

_PALETTE = ["#1b6ca8", "#c23b22", "#2e8540", "#7d3c98", "#b7950b", "#117a8b"]
_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def emit_plot(points, out_path: str) -> None:
    series: dict = {}
    for k, t, bc, method, val in points:
        if val <= 0:
            continue
        series.setdefault((k, bc, method), []).append((float(t), math.log2(val)))
    series = {k: sorted(v) for k, v in series.items() if v}
    if not series:
        raise RecordError("no positive data points; nothing to plot")

    ts = [t for pts in series.values() for t, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    t_lo, t_hi = min(ts), max(ts)
    y_anchor = max(y for k, pts in series.items() for t, y in pts if t == t_lo)
    guide1 = [(t, y_anchor - (t - t_lo)) for t in (t_lo, t_hi)]
    guide2 = [(t, y_anchor - 2 * (t - t_lo)) for t in (t_lo, t_hi)]
    ys += [y for _, y in guide1 + guide2]
    y_lo, y_hi = min(ys) - 0.5, max(ys) + 0.5

    def X(t):
        return _scale(t, t_lo, t_hi, _MARGIN, _WIDTH - _MARGIN / 2)

    def Y(y):
        return _scale(y, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN / 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN / 2:.2f}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN / 2:.2f}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    for t in range(int(math.floor(t_lo)), int(math.ceil(t_hi)) + 1):
        parts.append(
            f'<text x="{X(t):.2f}" y="{_HEIGHT - _MARGIN + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{t}</text>'
        )
    for yy in range(int(math.floor(y_lo)), int(math.ceil(y_hi)) + 1, 2):
        parts.append(
            f'<text x="{_MARGIN - 8:.2f}" y="{Y(yy) + 4:.2f}" font-size="11" '
            f'text-anchor="end">2^{yy}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.2f}" y="{_HEIGHT - 12:.2f}" font-size="12" '
        f'text-anchor="middle">t</text>'
    )
    for guide, dash, label in ((guide1, "6,3", "2^-t"), (guide2, "2,3", "2^-2t")):
        (xa, ya), (xb, yb) = guide
        parts.append(
            f'<line x1="{X(xa):.2f}" y1="{Y(ya):.2f}" x2="{X(xb):.2f}" y2="{Y(yb):.2f}" '
            f'stroke="#888888" stroke-dasharray="{dash}"/>'
        )
        parts.append(
            f'<text x="{X(xb) + 4:.2f}" y="{Y(yb):.2f}" font-size="10" '
            f'fill="#888888">{label}</text>'
        )
    for idx, (key, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        path = " ".join(f"{X(t):.2f},{Y(y):.2f}" for t, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}"/>')
        k, bc, method = key
        for t, y in pts:
            if method == "mc":
                parts.append(
                    f'<rect x="{X(t) - 3:.2f}" y="{Y(y) - 3:.2f}" width="6" height="6" '
                    f'fill="{color}"/>'
                )
            else:
                parts.append(f'<circle cx="{X(t):.2f}" cy="{Y(y):.2f}" r="3.5" fill="{color}"/>')
        parts.append(
            f'<text x="{_WIDTH - _MARGIN / 2 + 2:.2f}" y="{_MARGIN / 2 + 14 * idx:.2f}" '
            f'font-size="10" fill="{color}" text-anchor="end">k={k} {bc} {method}</text>'
        )
    parts.append("</svg>")
    atomic_write_text(out_path, "\n".join(parts) + "\n")
