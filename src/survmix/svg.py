"""Minimal standalone SVG charts: step plots with axes and a legend.
Output is a pure function of the input — coordinates are formatted with
fixed precision and nothing environmental (time, ids, hashes) leaks in — so
re-rendering the same series yields identical bytes.
"""

import warnings

import numpy as np

from .errors import DomainError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 20, 34, 48
TICKS = 5


def _as_series(name, x, y) -> tuple:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError(f"series {name!r}: x and y must be equal-length vectors")
    if x.size == 0:
        raise DomainError(f"series {name!r} is empty")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError(f"series {name!r} contains non-finite values")
    return str(name), x, y


def _axis_range(lo: float, hi: float, label: str) -> tuple:
    if lo == hi:
        warnings.warn(f"degenerate {label} range [{lo}, {hi}]; padding axis")
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def render_svg(series, title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Render named series to SVG text.

    `series` is a sequence of (name, x, y) triples.  Each holds its y flat
    until the next x, then drops — the survival-curve convention.
    """
    named = [_as_series(*s) for s in series]
    if not named:
        raise DomainError("render_svg needs at least one series")

    x_lo, x_hi = _axis_range(min(x.min() for _, x, _ in named),
                             max(x.max() for _, x, _ in named), "x")
    y_lo, y_hi = _axis_range(min(y.min() for _, _, y in named),
                             max(y.max() for _, _, y in named), "y")
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')

    # axes box and ticks
    out.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="black"/>')
    for i in range(TICKS):
        fx = x_lo + (x_hi - x_lo) * i / (TICKS - 1)
        px = _fmt(sx(fx))
        out.append(f'<line x1="{px}" y1="{MARGIN_TOP + plot_h}" x2="{px}" '
                   f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{px}" y="{MARGIN_TOP + plot_h + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(fx)}</text>')
        fy = y_lo + (y_hi - y_lo) * i / (TICKS - 1)
        py = _fmt(sy(fy))
        out.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{py}" x2="{MARGIN_LEFT}" '
                   f'y2="{py}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_LEFT - 8}" y="{py}" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(fy)}</text>')
    if x_label:
        out.append(f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 10}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{_escape(x_label)}</text>')
    if y_label:
        cy = MARGIN_TOP + plot_h // 2
        out.append(f'<text x="16" y="{cy}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {cy})">{_escape(y_label)}</text>')

    for idx, (_, x, y) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        parts = [f"M {_fmt(sx(x[0]))} {_fmt(sy(y[0]))}"]
        for j in range(1, x.size):
            parts.append(f"H {_fmt(sx(x[j]))}")
            parts.append(f"V {_fmt(sy(y[j]))}")
        out.append(f'<path d="{" ".join(parts)}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if x.size == 1:  # a path with no segments is invisible; mark the point
            out.append(f'<circle cx="{_fmt(sx(x[0]))}" cy="{_fmt(sy(y[0]))}" '
                       f'r="3" fill="{color}"/>')

    # legend, top-right inside the plot box
    for idx, (name, _, _) in enumerate(named):
        lx = MARGIN_LEFT + plot_w - 150
        ly = MARGIN_TOP + 14 + idx * 16
        color = PALETTE[idx % len(PALETTE)]
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{_escape(name)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
