"""Self-contained SVG line charts for sweep results (no plotting dependency)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

PANEL_W = 460
PANEL_H = 260
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 45

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


@dataclass
class Series:
    name: str
    y: list[float]
    # a series with error bars is drawn as markers, one without as a line
    yerr: list[float] | None = None


@dataclass
class Panel:
    ylabel: str
    series: list[Series] = field(default_factory=list)


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo, lo + (hi - lo) / 2.0, hi]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_sweep_svg(
    fh: TextIO, title: str, xlabel: str, x: list[float], panels: list[Panel]
) -> None:
    """Write a static chart: one stacked panel per quantity, shared x axis."""
    log_x = all(v > 0 for v in x) and len(x) > 1 and max(x) / min(x) > 20.0
    xs = [math.log10(v) for v in x] if log_x else list(x)
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    width = MARGIN_L + PANEL_W + MARGIN_R
    height = MARGIN_T + len(panels) * (PANEL_H + MARGIN_B)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]

    def x_px(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * PANEL_W

    for p_idx, panel in enumerate(panels):
        top = MARGIN_T + p_idx * (PANEL_H + MARGIN_B)
        vals = [v for s in panel.series for v in s.y if math.isfinite(v)]
        if not vals:
            continue
        y_lo, y_hi = min(vals), max(vals)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def y_px(v: float) -> float:
            return top + PANEL_H - (v - y_lo) / (y_hi - y_lo) * PANEL_H

        out.append(
            f'<rect x="{MARGIN_L}" y="{top}" width="{PANEL_W}" height="{PANEL_H}" '
            f'fill="none" stroke="#333"/>'
        )
        for tick in _ticks(y_lo, y_hi):
            out.append(
                f'<text x="{MARGIN_L - 6}" y="{y_px(tick) + 4}" text-anchor="end">'
                f"{_fmt(tick)}</text>"
            )
        for tick_val, tick_pos in zip(_ticks(min(x), max(x)), _ticks(x_lo, x_hi)):
            out.append(
                f'<text x="{x_px(tick_pos)}" y="{top + PANEL_H + 16}" '
                f'text-anchor="middle">{_fmt(tick_val)}</text>'
            )
        out.append(
            f'<text x="{MARGIN_L + PANEL_W / 2}" y="{top + PANEL_H + 32}" '
            f'text-anchor="middle">{xlabel}{" (log)" if log_x else ""}</text>'
        )
        out.append(
            f'<text x="16" y="{top + PANEL_H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {top + PANEL_H / 2})">{panel.ylabel}</text>'
        )

        for s_idx, series in enumerate(panel.series):
            color = PALETTE[s_idx % len(PALETTE)]
            pts = [
                (x_px(xv), y_px(yv))
                for xv, yv in zip(xs, series.y)
                if math.isfinite(yv)
            ]
            if series.yerr is not None:
                for px, py in pts:
                    out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')
                for xv, yv, ev in zip(xs, series.y, series.yerr):
                    if not (math.isfinite(yv) and math.isfinite(ev)):
                        continue
                    px = x_px(xv)
                    out.append(
                        f'<line x1="{px:.2f}" y1="{y_px(yv - ev):.2f}" '
                        f'x2="{px:.2f}" y2="{y_px(yv + ev):.2f}" stroke="{color}"/>'
                    )
            elif len(pts) > 1:
                coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
                out.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
            out.append(
                f'<text x="{MARGIN_L + PANEL_W - 8}" y="{top + 16 + 14 * s_idx}" '
                f'text-anchor="end" fill="{color}">{series.name}</text>'
            )

    out.append("</svg>")
    fh.write("\n".join(out) + "\n")
