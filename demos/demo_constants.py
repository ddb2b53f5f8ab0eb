"""Certify every constant in the theory and render the inflation envelope.

Runs the certification table `bounds.CHECKS` (the same rows the CLI's
verify-constants reports), prints each certified value next to its paper
value and tolerance, then writes the heavy-ball inflation envelope h(kappa)
for kappa in [1, 100] as a two-column CSV and a log-x SVG plot.

Run:  python demos/demo_constants.py
"""

import math

import numpy as np

from flowrisk import h_kappa
from flowrisk.bounds import run_checks

_W, _H, _L, _R, _T, _B = 960, 600, 80, 24, 24, 56  # size and margins (px)
_FONT = 'font-family="sans-serif"'
_GRID = 'stroke="#ddd" stroke-width="0.5"'


def _linear_ticks(lo, hi):
    """About six ticks in [lo, hi], spaced 1, 2 or 5 times a power of 10."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    ticks, v = [], math.ceil(lo / step) * step
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


def _svg_logx(x, y, label, x_label, y_label, title):
    """One series as a deterministic SVG line plot: log10 x, linear y."""
    pw, ph = _W - _L - _R, _H - _T - _B
    log_x = [math.log10(v) for v in x]
    x_lo, x_hi = min(log_x), max(log_x)
    pad = 0.04 * (max(y) - min(y))
    y_lo, y_hi = min(y) - pad, max(y) + pad

    def px(pos):
        return _L + (pos - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return _T + (y_hi - v) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.1f}" y="16" text-anchor="middle" {_FONT} '
           f'font-size="14">{title}</text>']
    for e in range(math.ceil(x_lo - 1e-12), math.floor(x_hi + 1e-12) + 1):
        at = px(e)
        out.append(f'<line x1="{at:.2f}" y1="{_T}" x2="{at:.2f}" y2="{_T + ph}" {_GRID}/>')
        out.append(f'<text x="{at:.2f}" y="{_T + ph + 18}" text-anchor="middle" '
                   f'{_FONT} font-size="11">{10.0 ** e:.6g}</text>')
    for v in _linear_ticks(y_lo, y_hi):
        at = py(v)
        out.append(f'<line x1="{_L}" y1="{at:.2f}" x2="{_L + pw}" y2="{at:.2f}" {_GRID}/>')
        out.append(f'<text x="{_L - 6}" y="{at + 4:.2f}" text-anchor="end" '
                   f'{_FONT} font-size="11">{v:.6g}</text>')
    mid = _T + ph / 2
    coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(log_x, y))
    out += [f'<rect x="{_L}" y="{_T}" width="{pw}" height="{ph}" fill="none" '
            f'stroke="#444" stroke-width="1"/>',
            f'<text x="{_L + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
            f'{_FONT} font-size="13">{x_label}</text>',
            f'<text x="16" y="{mid:.1f}" text-anchor="middle" {_FONT} font-size="13" '
            f'transform="rotate(-90 16 {mid:.1f})">{y_label}</text>',
            f'<polyline points="{coords}" fill="none" stroke="#1b6ca8" '
            f'stroke-width="1.5"/>',
            f'<line x1="{_L + pw - 160}" y1="{_T + 12}" x2="{_L + pw - 138}" '
            f'y2="{_T + 12}" stroke="#1b6ca8" stroke-width="2"/>',
            f'<text x="{_L + pw - 132}" y="{_T + 16}" {_FONT} font-size="11">{label}</text>',
            "</svg>"]
    return "\n".join(out) + "\n"


for check, record, _ in run_checks():
    print(f"{check.name:<26} {record.value:<12.6g} paper {check.paper_value:.6g} "
          f"({check.mode}, tol {check.tolerance:g})  "
          f"{'PASS' if check.passes(record.value) else 'FAIL'}")
    if check.name == "crossover_case_structure":
        for case in record.at:
            where = "x = 0" if case.argmax_x == 0 else f"x = {case.argmax_x:.4f}"
            print(f"   z = {case.z:g}: case {case.case_index}, maximum at {where}")

kappas = np.linspace(1.0, 100.0, 400)
values = h_kappa(kappas)
with open("h_envelope.csv", "w") as fh:
    fh.write("kappa,h\n")
    for k, v in zip(kappas, values):
        fh.write(f"{k:.17g},{v:.17g}\n")
with open("h_envelope.svg", "w") as fh:
    fh.write(_svg_logx(kappas, values, "h(kappa)", "kappa", "h",
                       "heavy-ball inflation envelope"))
print("\nwrote h_envelope.csv and h_envelope.svg "
      f"(h(1) = {h_kappa(1.0):.4f}, h(100) = {h_kappa(100.0):.4f})")
