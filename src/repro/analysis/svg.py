"""Dependency-free SVG charts.

The environment has no plotting stack, but a paper reproduction should still
ship *figures*.  This module renders the two chart shapes the paper uses —
histograms (Figs. 2/4) and scatter plots (Figs. 3a/3b) — as self-contained
SVG documents, from pure Python.  The output opens in any browser and is
valid XML (tests parse it back with ``xml.etree``).

Only the features the figures need are implemented: linear axes with tick
labels, bars, points, a title, and axis captions.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["SvgCanvas", "histogram_svg", "scatter_svg"]


# Layout constants (pixels).
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 52


@dataclass
class SvgCanvas:
    """A tiny SVG document builder."""

    width: int = 640
    height: int = 400

    def __post_init__(self) -> None:
        if self.width < 100 or self.height < 80:
            raise ValueError("canvas too small")
        self._parts: List[str] = []

    # ------------------------------------------------------------ elements

    def rect(self, x: float, y: float, w: float, h: float, *, fill: str,
             opacity: float = 1.0) -> None:
        self._parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity:.2f}"/>'
        )

    def circle(self, cx: float, cy: float, r: float, *, fill: str,
               opacity: float = 0.8) -> None:
        self._parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity:.2f}"/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, *,
             stroke: str = "#444", width: float = 1.0) -> None:
        self._parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"/>'
        )

    def text(self, x: float, y: float, content: str, *, size: int = 12,
             anchor: str = "middle", rotate: Optional[float] = None) -> None:
        transform = (
            f' transform="rotate({rotate:.1f} {x:.2f} {y:.2f})"' if rotate else ""
        )
        self._parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}"{transform}>'
            f"{html.escape(content, quote=False)}</text>"
        )

    def render(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= n:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


class _Axes:
    """Maps data coordinates into the plot area and draws the frame."""

    def __init__(self, canvas: SvgCanvas, xlim: Tuple[float, float],
                 ylim: Tuple[float, float]) -> None:
        self.canvas = canvas
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.px0 = _MARGIN_LEFT
        self.px1 = canvas.width - _MARGIN_RIGHT
        self.py0 = canvas.height - _MARGIN_BOTTOM
        self.py1 = _MARGIN_TOP

    def x(self, v: float) -> float:
        frac = (v - self.x0) / (self.x1 - self.x0)
        return self.px0 + frac * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        frac = (v - self.y0) / (self.y1 - self.y0)
        return self.py0 + frac * (self.py1 - self.py0)

    def draw_frame(self, title: str, xlabel: str, ylabel: str) -> None:
        c = self.canvas
        c.text(c.width / 2, _MARGIN_TOP - 14, title, size=14)
        c.line(self.px0, self.py0, self.px1, self.py0)  # x axis
        c.line(self.px0, self.py0, self.px0, self.py1)  # y axis
        for t in _nice_ticks(self.x0, self.x1):
            px = self.x(t)
            c.line(px, self.py0, px, self.py0 + 4)
            c.text(px, self.py0 + 18, f"{t:g}", size=10)
        for t in _nice_ticks(self.y0, self.y1):
            py = self.y(t)
            c.line(self.px0 - 4, py, self.px0, py)
            c.text(self.px0 - 8, py + 4, f"{t:g}", size=10, anchor="end")
        c.text(c.width / 2, c.height - 12, xlabel, size=12)
        c.text(16, c.height / 2, ylabel, size=12, rotate=-90.0)


def histogram_svg(
    values: Sequence[float],
    *,
    n_bins: int = 40,
    title: str = "",
    xlabel: str = "execution time (s)",
    ylabel: str = "runs",
    color: str = "#3465a4",
    width: int = 640,
    height: int = 400,
) -> str:
    """Render a Fig. 2/4-style histogram as an SVG string."""
    from repro.analysis.histogram import build_histogram

    hist = build_histogram(values, n_bins=n_bins)
    canvas = SvgCanvas(width, height)
    axes = _Axes(
        canvas,
        xlim=(hist.edges[0], hist.edges[-1]),
        ylim=(0.0, max(hist.counts) * 1.08 or 1.0),
    )
    axes.draw_frame(title, xlabel, ylabel)
    for i, count in enumerate(hist.counts):
        if count == 0:
            continue
        x_left = axes.x(hist.edges[i])
        x_right = axes.x(hist.edges[i + 1])
        y_top = axes.y(count)
        canvas.rect(
            x_left, y_top, max(x_right - x_left - 0.5, 0.5), axes.py0 - y_top,
            fill=color, opacity=0.85,
        )
    return canvas.render()


def scatter_svg(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    color: str = "#cc3333",
    width: int = 640,
    height: int = 400,
    point_radius: float = 3.0,
) -> str:
    """Render a Fig. 3-style scatter plot as an SVG string."""
    if len(xs) != len(ys):
        raise ValueError("x/y length mismatch")
    if not xs:
        raise ValueError("nothing to plot")
    canvas = SvgCanvas(width, height)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    axes = _Axes(canvas, xlim=(x_lo - x_pad, x_hi + x_pad),
                 ylim=(y_lo - y_pad, y_hi + y_pad))
    axes.draw_frame(title, xlabel, ylabel)
    for x, y in zip(xs, ys):
        canvas.circle(axes.x(x), axes.y(y), point_radius, fill=color)
    return canvas.render()
