"""Minimal deterministic SVG line/scatter charts.

Hand-rolled on purpose: output must be byte-identical across runs and
machines, so no plotting library (with embedded timestamps, font probing or
version-dependent layout) is involved.  Styling is intentionally plain:
axes, ticks, curves, point markers, legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Series", "render_chart"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

WIDTH = 660
HEIGHT = 460
MARGIN_LEFT = 64
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 52


@dataclass
class Series:
    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    style: str = "line"  # "line" or "points"


def _nice_ticks(lo: float, hi: float, max_ticks: int = 7) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max_ticks
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


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _fmt_tick(value: float) -> str:
    return f"{value:g}"


def render_chart(
    series: list[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys if math.isfinite(y)]
    if not xs or not ys:
        xs = [0.0, 1.0]
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis_color = "#333333"
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
            f'stroke="{axis_color}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            f'stroke="{axis_color}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(tick)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{y_label}</text>'
    )

    legend_x = MARGIN_LEFT + plot_w + 14
    legend_y = MARGIN_TOP + 8
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = [
            (sx(x), sy(y)) for x, y in zip(s.xs, s.ys) if math.isfinite(x) and math.isfinite(y)
        ]
        if s.style == "line" and len(points) >= 2:
            path = "M " + " L ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
            out.append(
                f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            for px, py in points:
                out.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.6" fill="{color}"/>'
                )
        marker_y = legend_y + 18 * index
        if s.style == "line":
            out.append(
                f'<line x1="{legend_x}" y1="{marker_y - 4}" x2="{legend_x + 18}" '
                f'y2="{marker_y - 4}" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            out.append(
                f'<circle cx="{legend_x + 9}" cy="{marker_y - 4}" r="2.6" fill="{color}"/>'
            )
        out.append(
            f'<text x="{legend_x + 24}" y="{marker_y}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
