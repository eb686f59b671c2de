"""Minimal SVG chart emission, no plotting dependency.

Covers the shapes the report bundle needs: log-log scatter/line plots
(distribution tails), step histograms, and grid heatmaps.  Output is a
plain SVG string with fixed-precision coordinates, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot", "step_histogram", "heatmap_svg"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 30.0
_MARGIN_B = 46.0
# pixel sizes of the plots and of the heatmaps
_WIDTH = 640
_HEIGHT = 460
_HEATMAP_WIDTH = 520
# per-channel change from white (255) to the darkest shade (#08306b)
_SHADE_STEPS = np.array([8 - 255, 48 - 255, 107 - 255], dtype=np.float64)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """Text as XML character data, as xml.sax.saxutils.escape gives it
    (ampersand first); importing that module loads urllib, http, email
    and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Axes:
    """Data-to-pixel mapping, linear or log-log."""

    def __init__(self, xs, ys, log: bool):
        self.log = log
        xs = [math.log10(x) for x in xs] if log else list(xs)
        ys = [math.log10(y) for y in ys] if log else list(ys)
        self.x_lo, self.x_hi = self._pad(min(xs), max(xs))
        self.y_lo, self.y_hi = self._pad(min(ys), max(ys))

    @staticmethod
    def _pad(lo: float, hi: float) -> tuple[float, float]:
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        span = hi - lo
        return lo - 0.04 * span, hi + 0.04 * span

    def px(self, x: float) -> float:
        v = math.log10(x) if self.log else x
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        v = math.log10(y) if self.log else y
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def ticks(self, lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
        if log:
            out = []
            for k in range(math.floor(lo), math.ceil(hi) + 1):
                if lo <= k <= hi:
                    out.append((float(k), f"1e{k}"))
            return out
        span = hi - lo
        step = 10.0 ** math.floor(math.log10(span / 4.0))
        for mult in (1.0, 2.0, 5.0, 10.0):
            if span / (step * mult) <= 6:
                step *= mult
                break
        first = math.ceil(lo / step) * step
        out = []
        v = first
        while v <= hi + 1e-12:
            out.append((v, f"{v:g}"))
            v += step
        return out


def _frame(ax: _Axes, title: str, xlabel: str, ylabel: str) -> list[str]:
    w, h = _WIDTH, _HEIGHT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(w - _MARGIN_L - _MARGIN_R)}" '
        f'height="{_fmt(h - _MARGIN_T - _MARGIN_B)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt(w / 2)}" y="18" text-anchor="middle" font-size="13">'
        f"{_escape(title)}</text>",
        f'<text x="{_fmt(w / 2)}" y="{_fmt(h - 8)}" text-anchor="middle">'
        f"{_escape(xlabel)}</text>",
        f'<text x="14" y="{_fmt(h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(h / 2)})">{_escape(ylabel)}</text>',
    ]
    y0 = h - _MARGIN_B
    for v, label in ax.ticks(ax.x_lo, ax.x_hi, ax.log):
        x = ax.px(10.0**v if ax.log else v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y0 + 5)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 17)}" text-anchor="middle">'
            f"{_escape(label)}</text>"
        )
    for v, label in ax.ticks(ax.y_lo, ax.y_hi, ax.log):
        y = ax.py(10.0**v if ax.log else v)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(y)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end">{_escape(label)}</text>'
        )
    return parts


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Log-log polyline plot of (label, xs, ys) series; non-positive
    points are dropped.

    Series of at most 400 points also mark each point.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(np.asarray(xs).ravel(), np.asarray(ys).ravel())
            if x > 0 and y > 0
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise ValueError("nothing to plot")
    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [y for _, pts in cleaned for _, y in pts]
    ax = _Axes(all_x, all_y, log=True)
    parts = _frame(ax, title, xlabel, ylabel)
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(
            f"{'M' if k == 0 else 'L'}{_fmt(ax.px(x))},{_fmt(ax.py(y))}"
            for k, (x, y) in enumerate(pts)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        )
        if len(pts) <= 400:
            for x, y in pts:
                parts.append(
                    f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" '
                    f'r="2.2" fill="{color}"/>'
                )
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN_R - 6)}" '
            f'y="{_fmt(_MARGIN_T + 14 + 14 * i)}" text-anchor="end" '
            f'fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def step_histogram(
    edges: np.ndarray,
    counts_by_label: dict[str, np.ndarray],
    title: str = "",
    xlabel: str = "",
) -> str:
    """Outline histograms of counts over shared bin edges, one color per label."""
    edges = np.asarray(edges, dtype=np.float64)
    top = max((int(np.max(c)) if len(c) else 0) for c in counts_by_label.values())
    ax = _Axes([float(edges[0]), float(edges[-1])], [0.0, float(max(top, 1))], log=False)
    parts = _frame(ax, title, xlabel, "count")
    for i, (label, counts) in enumerate(counts_by_label.items()):
        color = PALETTE[i % len(PALETTE)]
        pieces = [f"M{_fmt(ax.px(float(edges[0])))},{_fmt(ax.py(0.0))}"]
        for b, c in enumerate(np.asarray(counts, dtype=np.float64)):
            pieces.append(f"L{_fmt(ax.px(float(edges[b])))},{_fmt(ax.py(float(c)))}")
            pieces.append(f"L{_fmt(ax.px(float(edges[b + 1])))},{_fmt(ax.py(float(c)))}")
        pieces.append(f"L{_fmt(ax.px(float(edges[-1])))},{_fmt(ax.py(0.0))}")
        parts.append(
            f'<path d="{" ".join(pieces)}" fill="none" stroke="{color}" '
            'stroke-width="1.3"/>'
        )
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN_R - 6)}" '
            f'y="{_fmt(_MARGIN_T + 14 + 14 * i)}" text-anchor="end" '
            f'fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _shades(frac: np.ndarray) -> list[list[str]]:
    """Colors white through blue to near-black, fractions clamped to [0, 1];
    each channel is rounded half to even, as round() does."""
    channels = 255 + _SHADE_STEPS * np.clip(frac, 0.0, 1.0)[..., None]
    codes = np.rint(channels).astype(np.int64) @ np.array([1 << 16, 1 << 8, 1])
    return [[f"#{code:06x}" for code in row] for row in codes.tolist()]


def heatmap_svg(
    matrix: np.ndarray,
    title: str = "",
    annotate: bool = False,
    flip_rows: bool = True,
) -> str:
    """Grid heatmap; with flip_rows the first matrix row draws at the bottom.

    annotate prints each value inside its cell (readable up to ~12x12).
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("heatmap needs a 2-d matrix")
    rows, cols = M.shape
    peak = float(np.nanmax(M)) if np.isfinite(M).any() else 0.0
    cell_px = max(2.0, (_HEATMAP_WIDTH - 40.0) / max(rows, cols))
    w = cols * cell_px + 40.0
    h = rows * cell_px + 50.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}" '
        'font-family="sans-serif" font-size="10">',
        f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
        f'<text x="{_fmt(w / 2)}" y="16" text-anchor="middle" font-size="13">'
        f"{_escape(title)}</text>",
    ]
    x0, y0 = 20.0, 30.0
    finite = np.isfinite(M)
    frac = np.zeros_like(M)
    if peak > 0:
        frac[finite] = M[finite] / peak
    fills = _shades(frac)
    size = _fmt(cell_px)
    xs = [x0 + j * cell_px for j in range(cols)]
    x_texts = [_fmt(x) for x in xs]
    for i in range(rows):
        draw_i = rows - 1 - i if flip_rows else i
        y = y0 + draw_i * cell_px
        y_text = _fmt(y)
        for j in range(cols):
            parts.append(
                f'<rect x="{x_texts[j]}" y="{y_text}" width="{size}" '
                f'height="{size}" fill="{fills[i][j]}"/>'
            )
            if annotate:
                text = f"{M[i, j]:.2f}" if finite[i, j] else "nan"
                color = "#ffffff" if frac[i, j] > 0.55 else "#222222"
                parts.append(
                    f'<text x="{_fmt(xs[j] + cell_px / 2)}" '
                    f'y="{_fmt(y + cell_px / 2 + 3)}" text-anchor="middle" '
                    f'fill="{color}">{_escape(text)}</text>'
                )
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cols * cell_px)}" '
        f'height="{_fmt(rows * cell_px)}" fill="none" stroke="#333333"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
