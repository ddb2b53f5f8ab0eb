"""Deterministic, dependency-free SVG line plots.

Input files are either risk-schema CSVs (kind,param,bias_sq,variance,risk)
or plain two-column (x, y) CSVs with an optional header line.  Rendering is
a pure function of the parsed series and options, so identical inputs give
byte-identical SVG documents: no timestamps, no dict-order hazards, fixed
palette, fixed coordinate formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .risk import RISK_CSV_HEADER

__all__ = ["PlotSchemaError", "Series", "load_plot_series", "render_line_plot"]

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98",
            "#b9770e", "#117a65", "#5d6d7e", "#a04000")

_WIDTH, _HEIGHT = 960, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 24, 56


class PlotSchemaError(ValueError):
    """The CSV does not match the risk schema or a two-column schema."""


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple
    y: tuple


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load_plot_series(path, column: str = "risk") -> tuple[Series, str, str]:
    """Parse one CSV into a series plus axis labels.

    Risk-schema files plot `column` against param; two-column files plot
    the second column against the first.
    """
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise PlotSchemaError(f"{path}: empty file")
    stem = Path(path).stem
    header = lines[0].split(",")
    if lines[0] == RISK_CSV_HEADER:
        names = RISK_CSV_HEADER.split(",")
        if column not in names[2:]:
            raise PlotSchemaError(f"{path}: unknown risk column {column!r}")
        idx = names.index(column)
        xs, ys = [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(names):
                raise PlotSchemaError(f"{path}: malformed row {ln!r}")
            xs.append(float(parts[1]))
            ys.append(float(parts[idx]))
        if not xs:
            raise PlotSchemaError(f"{path}: no data rows")
        return Series(label=stem, x=tuple(xs), y=tuple(ys)), "param", column
    has_header = not all(_is_number(tok) for tok in header)
    rows = lines[1:] if has_header else lines
    xs, ys = [], []
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != 2 or not all(_is_number(tok) for tok in parts):
            raise PlotSchemaError(f"{path}: expected two numeric columns, got {ln!r}")
        xs.append(float(parts[0]))
        ys.append(float(parts[1]))
    if not xs:
        raise PlotSchemaError(f"{path}: no data rows")
    x_label, y_label = (header[0], header[1]) if has_header and len(header) == 2 \
        else ("x", "y")
    return Series(label=stem, x=tuple(xs), y=tuple(ys)), x_label, y_label


def _nice_linear_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.ceil(math.log10(lo) - 1e-12)
    hi_e = math.floor(math.log10(hi) + 1e-12)
    return [10.0 ** e for e in range(lo_e, hi_e + 1)]


def _ticks(lo: float, hi: float, log: bool) -> list[tuple[float, float]]:
    """(position, value) per tick; lo, hi and positions are log10 on a log axis."""
    if log:
        return [(math.log10(v), v) for v in _decade_ticks(10.0 ** lo, 10.0 ** hi)]
    return [(v, v) for v in _nice_linear_ticks(lo, hi)]


def _fmt_tick(v: float) -> str:
    return format(v, ".6g")


def render_line_plot(series: list[Series], *, logx: bool = False,
                     logy: bool = False, x_label: str = "x",
                     y_label: str = "y", title: str | None = None) -> str:
    """Render series as a self-contained SVG document (inline styles only)."""
    if not series:
        raise PlotSchemaError("nothing to plot")
    pts = [(x, y) for s in series for x, y in zip(s.x, s.y)]
    if logx and any(x <= 0 for x, _ in pts):
        raise PlotSchemaError("log x-axis requires positive x values")
    if logy and any(y <= 0 for _, y in pts):
        raise PlotSchemaError("log y-axis requires positive y values")

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    xs = [tx(x) for x, _ in pts]
    ys = [ty(y) for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - ty(v)) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="16" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{title}</text>')

    axis_style = 'stroke="#444" stroke-width="1"'
    grid_style = 'stroke="#ddd" stroke-width="0.5"'
    for pos, value in _ticks(x_lo, x_hi, logx):
        x = _MARGIN_L + (pos - x_lo) / (x_hi - x_lo) * plot_w
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h}" {grid_style}/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(value)}</text>')
    for pos, value in _ticks(y_lo, y_hi, logy):
        y = _MARGIN_T + (y_hi - pos) / (y_hi - y_lo) * plot_h
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" '
                   f'x2="{_MARGIN_L + plot_w}" y2="{y:.2f}" {grid_style}/>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt_tick(value)}</text>')
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" {axis_style}/>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{x_label}</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>')

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * i
        lx = _MARGIN_L + plot_w - 160
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
