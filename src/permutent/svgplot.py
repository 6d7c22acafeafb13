"""Minimal deterministic SVG line/scatter charts of entropy against block size.

Hand-rolled on purpose: output must be byte-identical across runs and
machines, so no plotting library (with embedded timestamps, font probing or
version-dependent layout) is involved.  Styling is intentionally plain:
axes, ticks, curves, point markers, legend.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = ["Series", "render_chart"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
AXIS_COLOR = "#333333"
SANS = {"font_family": "sans-serif"}

WIDTH = 660
HEIGHT = 460
MARGIN_LEFT = 64
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 52


class Series(NamedTuple):
    """One chart series: its legend label, "line" or "points", and its (x, y) pairs."""

    label: str
    style: str
    points: Sequence[tuple[float, float]]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About seven ticks over [lo, hi], lo < hi, spaced 1, 2 or 5 times a power of ten."""
    raw_step = (hi - lo) / 7
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: object) -> str:
    """Floats (screen coordinates) to two decimals, anything else as str."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _element(tag: str, text: str | None = None, **attrs: object) -> str:
    """One SVG element with its attributes in order (an_attr written an-attr).

    Self-closes without text; attribute values go through _fmt.
    """
    fields = "".join(f' {name.replace("_", "-")}="{_fmt(value)}"' for name, value in attrs.items())
    return f"<{tag}{fields}/>" if text is None else f"<{tag}{fields}>{text}</{tag}>"


def render_chart(series: Sequence[Series], *, title: str) -> str:
    """S (bits) against block size n as an SVG document, one element per line."""
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    mid_x, mid_y = MARGIN_LEFT + plot_w // 2, MARGIN_TOP + plot_h // 2
    axis = {"stroke": AXIS_COLOR, "stroke_width": 1}
    small = {**SANS, "font_size": 11}  # tick labels and legend
    axis_label = {"text_anchor": "middle", **SANS, "font_size": 13}
    body = [
        _element("rect", width="100%", height="100%", fill="white"),
        _element("text", title, x=WIDTH // 2, y=22, text_anchor="middle", **SANS, font_size=15),
        _element("line", x1=x0, y1=y0, x2=x0 + plot_w, y2=y0, **axis),
        _element("line", x1=x0, y1=MARGIN_TOP, x2=x0, y2=y0, **axis),
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        body += [_element("line", x1=px, y1=y0, x2=px, y2=y0 + 5, **axis),
                 _element("text", f"{tick:g}", x=px, y=y0 + 18, text_anchor="middle", **small)]
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        body += [_element("line", x1=x0 - 5, y1=py, x2=x0, y2=py, **axis),
                 _element("text", f"{tick:g}", x=x0 - 8, y=py + 4, text_anchor="end", **small)]
    body.append(_element("text", "block size n", x=mid_x, y=HEIGHT - 12, **axis_label))
    body.append(_element("text", "S (bits)", x=18, y=mid_y, **axis_label,
                         transform=f"rotate(-90 18 {mid_y})"))

    legend_x = MARGIN_LEFT + plot_w + 14
    for index, (label, style, points) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        screen = [(sx(x), sy(y)) for x, y in points if math.isfinite(x) and math.isfinite(y)]
        if style == "line" and len(screen) >= 2:
            path = "M " + " L ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in screen)
            body.append(_element("path", d=path, fill="none", stroke=color, stroke_width="1.5"))
        else:
            body += [_element("circle", cx=px, cy=py, r="2.6", fill=color) for px, py in screen]
        marker_y = MARGIN_TOP + 8 + 18 * index
        if style == "line":
            body.append(_element("line", x1=legend_x, y1=marker_y - 4, x2=legend_x + 18,
                                 y2=marker_y - 4, stroke=color, stroke_width="1.5"))
        else:
            body.append(_element("circle", cx=legend_x + 9, cy=marker_y - 4, r="2.6", fill=color))
        body.append(_element("text", label, x=legend_x + 24, y=marker_y, **small))
    return _element("svg", "\n".join(["", *body, ""]), xmlns="http://www.w3.org/2000/svg",
                    width=WIDTH, height=HEIGHT, viewBox=f"0 0 {WIDTH} {HEIGHT}") + "\n"
