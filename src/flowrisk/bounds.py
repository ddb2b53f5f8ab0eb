"""Numerical certification of every constant and inequality in the theory.

The certified quantities:

* the two tuned risk-inflation constants, as nested min-max values

      gradient flow:    min_tau max_x (1+x) e^{-2 tau x} + (1+x)(1-e^{-tau x})^2/x
      accelerated flow: min_tau max_x (1+x)(R^2 + (1-R)^2/x),  R = 2 J1(u)/u,
                        u = tau sqrt(x)

  whose values are 1.0786 and 1.5991 to within 1e-3;

* the relative parameter-error constants: the accelerated coupling factor
  f(x) = (1 - 2J1(x)/x)(x^2+1)/x^2 has sup (f-1)^2 = 49/64, approached as
  x -> 0+, and the heavy-ball coupling factor satisfies f^2 <= 16 and
  (f-1)^2 <= 25 over the whole quarter-plane a, b >= 0 (below);

* the heavy-ball inflation envelope h(kappa), its bias piece
  h~(x) = (1+x^2)(x/z+1)^2 e^{-2x/z} maximized at x* = (z+sqrt(5z^2-4))/2,
  the crossover level z* ~= 0.907 where h~(x*) overtakes h~(0) = 1, and the
  variance piece max{8 tau^4, 2(1+(tau/sqrt(kappa)+1)e^{-tau/sqrt(kappa)})^2}
  = 8 kappa^{2/3} at tau = kappa^{1/6};

* the two pointwise kernel inequalities behind the heavy-ball bounds,
  checked on the same quarter-plane grid;

* the witness that no constant can couple the accelerated bias to the
  ridge bias uniformly: along the J1 envelope peaks the bias ratio grows
  like sqrt(x).

Grid protocol for min-max values: tau on a fixed log grid [1e-3, 10] with
200 points, x on a fixed log grid [1e-8, 1e6] with 2000 points, then three
rounds of local refinement (golden-section on tau, dense zoom on x), each
shrinking its bracket by 10x.  A golden-section tau is evaluated once per
certification: a round that starts on interior points an earlier round
already evaluated reads their values, which are bit for bit those a new
evaluation would give.  The x grid reaches 1e6 by construction, and
the x tail beyond it cannot host the inner maximum at the minimizing tau:
both objectives there are 1 + O(1/sqrt(x)) + O(1/(tau^3 sqrt(x))), below
the certified values, while at tiny tau the grid already sees inner maxima
far above them, steering the outer minimum away.  Smallest-tau
tie-breaking keeps results deterministic: the outer search starts at the
first tau whose coarse value (x scan plus the first zoom) is within 1e-12
of the smallest.

The coarse stage is pruned by witnesses.  Every tau is first scanned over
every 16th coarse x point only; the max there is a lower bound of its
coarse value, because those points are a subset of the coarse x grid, each
is evaluated exactly as in the full scan, and the zoom never lowers a
value.  The tau with the smallest bound gets a full coarse scan, whose
value is a ceiling on the minimum; then only the taus whose bound is not
above ceiling + 1e-12 are scanned in full.  A skipped tau lies above the
minimum plus 1e-12, so it can be neither the minimum nor its tie-break,
and the result is exactly that of scanning every tau (on these grids
one of 200 gradient-flow rows and five of 200 accelerated rows survive).
A NaN bound or ceiling compares false, so it skips nothing; a NaN coarse
value is an error naming its tau.  A tau whose witness points are finite
but whose other points include a NaN may be skipped unseen.

The scans are blocked: a few rows per objective call, and long scans go in
column chunks.  Every point is evaluated exactly as in a one-tau scan, and
each row keeps its first argmax, so values, optimizers and tie-breaks are
those of a one-tau-at-a-time scan.

Heavy-ball scans.  Every heavy-ball quantity certified here depends on
(mu, s, t) only through a = t sqrt(mu) and b = t sqrt(s - mu), because
x^2 = t^2 s = a^2 + b^2 and x/sqrt(kappa) = a.  So the scans run over the
closed quarter-plane a, b >= 0 on a polar grid, a = x sin(theta) and
b = x cos(theta), with theta in [0, pi/2] including both edges (a = 0 is
the undamped edge, b = 0 the s = mu edge) and x in [1e-5, 10^2.5].  A
bounded x range suffices: |kernel| <= (1 + a) e^{-a} <= 1, so
0 <= f <= 2(1 + 1/x^2); and f -> 1/2 as x -> 0.  The f^2 and (f-1)^2
scans stop at x = 10 and check their tails: past x = 10 that bound gives
f^2 <= 4(1 + 1/x^2)^2 = 4.0804 and (f-1)^2 <= (1 + 2/x^2)^2 = 1.0404, and a
tail bound not below the sup the scan finds is an error.  One evaluation
of the kernel complement on the whole grid serves every heavy-ball check:
the kernel inequalities read all 64 x 400 nodes, and both sups take f on
the x <= 10 columns (64 x 320 nodes), then dense x zooms per theta (the
min-max zoom), and the max over rows.

Bias-envelope cases, with no scan.  On x > 0,
h~'(x) = h~(x) 2x (z^2 - 1 + z x - x^2) / ((1 + x^2) z (x + z)) has the
sign of -(x - x_-)(x - x*), x_-+ = (z -+ sqrt(5z^2 - 4))/2.  So h~ is
nonincreasing when 5z^2 - 4 <= 0 (case 1, max h~(0) = 1), peaks at 0 and
at x* around a dip at x_- when x_- > 0 (case 2, 2/sqrt(5) < z < 1), and
else rises to x* and then falls (case 3, z >= 1).  The classifier
evaluates h~ only at x_- and x*, and checks the strict inequalities the
cases rest on: h~(x_-) < min(1, h~(x*)) in case 2, h~(x*) > 1 in case 3.

The 49/64 scan grid (144,983 points, 1.16 MB) is built on the first
certification in a process, not at import, and kept read-only for the
later ones.

Every certifier returns a Certified record, or a tuple of them: the name
of the CHECKS row it answers, the value, and where the value was found.
CHECKS, the certification table, holds the paper values and tolerances and
alone decides pass or fail.  A fact the values rest on but no row reports
(a tail bound below its scan maximum, the dominance of the variance
branch) is a guard: a RuntimeError when it fails.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .shrinkage import hb_kernel, hb_kernel_complement
from .special import _complement_series, j1_ratio, j1_ratio_complement

__all__ = [
    "Check",
    "CHECKS",
    "within",
    "run_checks",
    "Certified",
    "CrossoverCase",
    "gf_inflation_objective",
    "nest_inflation_objective",
    "gf_inflation_constant",
    "nest_inflation_constant",
    "nest_param_error_constant",
    "hb_quarter_plane",
    "h_kappa",
    "tilde_h",
    "tilde_h_maximizer",
    "tilde_h_crossover",
    "hb_variance_bound_check",
    "bias_ratio_unbounded_witness",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# golden-section rounds on tau, and points per dense x zoom (module docstring)
_REFINEMENT_DEPTH, _ZOOM_POINTS = 3, 240


# the min-max grids (module docstring)
_TAUS = np.logspace(-3.0, 1.0, 200)
_XS = np.logspace(-8.0, 6.0, 2000)


@dataclass(frozen=True)
class Certified:
    """One certified value: name is the CHECKS row it answers, and at is
    where the value was found, in the certifier's own variables: (tau*, x*)
    for the min-max constants, (x*,) for 49/64, the sampled CrossoverCases
    for the case structure, and () where no single point is the answer."""

    name: str
    value: float
    at: tuple = ()


# doubles per objective call in _scan_max: a block stays in cache
_SCAN_BLOCK = 1 << 14


def _scan_max(objective, taus, xs):
    """Per tau, the max of objective(tau, x) over its x row and the first argmax.

    xs is one 1-D grid shared by every tau, or a 2-D array with one row per
    tau.  The objective is called on blocks of about _SCAN_BLOCK doubles,
    objective(taus[rows, None], xs[rows or None, cols]): as many whole rows
    as fit, or column chunks of a longer row.  Every point is evaluated exactly as in
    a one-row call, and a tie (or a NaN) resolves to the first index, as in
    np.argmax over the whole row.  A scan that fits in one block, as every
    scan of the golden-section stage and every hb zoom does, returns that
    block's row maxima and argmaxes as they are; only a scan of several
    blocks, or of no rows, fills buffers, merging block by block.
    """
    n_rows, n_cols = taus.size, xs.shape[-1]
    row_step = max(1, _SCAN_BLOCK // n_cols)
    col_step = min(n_cols, _SCAN_BLOCK)
    one_block = 0 < n_rows <= row_step and n_cols <= col_step
    if not one_block:
        best = np.empty(n_rows)
        arg = np.empty(n_rows, dtype=np.intp)
    for r in range(0, n_rows, row_step):
        rows = slice(r, r + row_step)
        t = taus[rows, None]
        for c in range(0, n_cols, col_step):
            x = xs[None, c:c + col_step] if xs.ndim == 1 else xs[rows, c:c + col_step]
            vals = objective(t, x)
            k = vals.argmax(axis=1)
            v = vals[np.arange(k.size), k]
            if one_block:
                return v, k
            if c == 0:
                best[rows], arg[rows] = v, k
                continue
            cur = best[rows]
            better = (v > cur) | (np.isnan(v) & ~np.isnan(cur))
            best[rows] = np.where(better, v, cur)
            arg[rows] = np.where(better, k + c, arg[rows])
    return best, arg


# the zoom offsets 0, 1, ..., _ZOOM_POINTS - 1, as doubles
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)


def _zoom(objective, taus, x_coarse, best_v, k, zoom_rounds=3):
    """Dense x zooms per tau around its coarse maximizer x_coarse[k].

    best_v and k are each row's coarse max and first argmax, as _scan_max
    returns them.  Each round scans _ZOOM_POINTS points per row from lo to
    hi and keeps a strictly better max; every round but the last then sets
    the next window to the best x so far plus or minus a tenth of this
    window's width (lo clipped at x_coarse[0]).  Returns (values,
    maximizers), one entry per tau.
    """
    rows = np.arange(taus.size)
    best_x = x_coarse[k]
    lo = x_coarse[np.maximum(k - 1, 0)]
    hi = x_coarse[np.minimum(k + 1, x_coarse.size - 1)]
    for r in range(zoom_rounds):
        # rows equal to np.linspace(lo[i], hi[i], _ZOOM_POINTS) (same steps,
        # same rounding, last point hi) unless a step underflows to 0
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        xs = lo[:, None] + _ZOOM_STEPS * step[:, None]
        xs[:, -1] = hi
        vv, kk = _scan_max(objective, taus, xs)
        better = vv > best_v
        best_v = np.where(better, vv, best_v)
        best_x = np.where(better, xs[rows, kk], best_x)
        if r == zoom_rounds - 1:
            break
        width = (hi - lo) / 10.0
        lo = np.maximum(best_x - width, x_coarse[0])
        hi = best_x + width
    return best_v, best_x


def _inner_max(objective, taus, x_coarse, zoom_rounds=3):
    """Max over x of objective(tau, .) per tau: coarse scan plus dense zooms.

    Returns (values, maximizers), one entry per tau.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    best_v, k = _scan_max(objective, taus, x_coarse)
    return _zoom(objective, taus, x_coarse, best_v, k, zoom_rounds)


# every _WITNESS_STRIDE-th coarse x point is a witness (module docstring)
_WITNESS_STRIDE = 16


def _pruned_coarse(objective, taus, x_coarse):
    """Per tau, the coarse max (x_coarse scan plus one zoom), or +inf.

    A row is +inf only when its max over the witness points, a lower bound
    of its coarse value, exceeds the coarse value of the row with the
    smallest witness bound by more than the 1e-12 tie window; such a row
    can be neither the minimum nor its smallest-tau tie-break.
    """
    witness = np.ascontiguousarray(x_coarse[::_WITNESS_STRIDE])
    lower, _ = _scan_max(objective, taus, witness)
    first = int(np.argmin(lower))          # a NaN bound is picked first
    coarse = np.full(taus.size, np.inf)
    coarse[first] = _inner_max(objective, taus[first], x_coarse, zoom_rounds=1)[0][0]
    alive = ~(lower > coarse[first] + 1e-12)      # NaN on either side: alive
    alive[first] = False
    coarse[alive] = _inner_max(objective, taus[alive], x_coarse, zoom_rounds=1)[0]
    return coarse


def _certified_minimax(objective, taus=_TAUS, x_coarse=_XS):
    """(value, tau*, x*) of min over taus of max over x of objective.

    Each golden-section tau is evaluated once per call: its inner max is
    kept in a dict keyed on the exact double, and a round start whose
    interior points were already evaluated (on these grids, both points of
    rounds 2 and 3) reads them from there.  A kept value is the one a fresh
    evaluation would give, because every point is evaluated as in a
    one-row scan.  Nothing is kept across calls.
    """
    coarse = _pruned_coarse(objective, taus, x_coarse)
    nan = np.flatnonzero(np.isnan(coarse))
    if nan.size:
        raise RuntimeError(f"min-max objective is NaN at tau = {taus[nan[0]]:.6g}")
    vmin = float(coarse.min())
    i = int(np.flatnonzero(coarse <= vmin + 1e-12)[0])  # smallest-tau tie-break
    lo = float(taus[max(i - 1, 0)])
    hi = float(taus[min(i + 1, taus.size - 1)])
    seen = {}                                  # tau -> its inner max

    def outer(*points):
        new = [t for t in points if t not in seen]
        if new:                 # one call, of two rows when a round starts fresh
            seen.update(zip(new, _inner_max(objective, np.array(new),
                                            x_coarse)[0].tolist()))
        return [seen[t] for t in points]

    for _ in range(_REFINEMENT_DEPTH):
        target = (hi - lo) / 10.0
        c = hi - (hi - lo) * _GOLDEN
        d = lo + (hi - lo) * _GOLDEN
        f_c, f_d = outer(c, d)
        while hi - lo > target:
            if f_c < f_d:
                hi = d
                d, f_d = c, f_c
                c = hi - (hi - lo) * _GOLDEN
                f_c, = outer(c)
            else:
                lo = c
                c, f_c = d, f_d
                d = lo + (hi - lo) * _GOLDEN
                f_d, = outer(d)
    tau_star = float(0.5 * (lo + hi))
    value, x_star = (float(v[0]) for v in _inner_max(objective, tau_star, x_coarse))
    if not (x_coarse[1] < x_star < x_coarse[-2]):
        raise RuntimeError(
            f"inner maximizer x* = {x_star:.3g} landed at the scan boundary; "
            "widen the x grid")
    return value, tau_star, x_star


def gf_inflation_objective(tau, x):
    """Tuned gradient-flow/ridge risk ratio: (1+x)(e^{-2tx} + (1-e^{-tx})^2/x)."""
    x = np.asarray(x, dtype=float)
    resid = -np.expm1(-tau * x)
    return (1.0 + x) * (np.exp(-2.0 * tau * x) + resid * resid / x)


def nest_inflation_objective(tau, x):
    """Tuned accelerated/ridge risk ratio: (1+x)(R^2 + (1-R)^2/x)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(tau * np.sqrt(x))
    ratio = j1_ratio(u)
    resid = _complement_series(u, np.asarray(1.0 - ratio))  # one J1 per point
    return (1.0 + x) * (ratio * ratio + resid * resid / x)


def gf_inflation_constant() -> Certified:
    """Certified gradient-flow inflation constant (1.0786 to within 1e-3)."""
    value, tau_star, x_star = _certified_minimax(gf_inflation_objective)
    return Certified("gradient_flow_inflation", value, (tau_star, x_star))


def nest_inflation_constant() -> Certified:
    """Certified accelerated-flow inflation constant (1.5991 to within 1e-3).

    The tuning correspondence behind the objective is t = tau / sqrt(lambda).
    """
    value, tau_star, x_star = _certified_minimax(nest_inflation_objective)
    return Certified("accelerated_inflation", value, (tau_star, x_star))


def _check_tail(bound, value, name, tail):
    """RuntimeError unless a tail's bound on name lies below the scan maximum."""
    if not bound < value:
        raise RuntimeError(
            f"the bound {bound:.4g} on {name} past x = {tail:g} is not below "
            f"the scan maximum {value:.4g}")


# the 49/64 scan grid is the part of np.logspace(-8, 4, 200000) with
# x <= _PARAM_ERROR_TAIL; beyond it a checked bound covers the sup
_PARAM_ERROR_TAIL = 5.0


@functools.cache
def _param_error_grid() -> np.ndarray:
    """The points of np.logspace(-8, 4, 200000) up to _PARAM_ERROR_TAIL,
    built once per process and read-only."""
    xs = np.logspace(-8.0, 4.0, 200000)
    xs = xs[xs <= _PARAM_ERROR_TAIL]
    xs.flags.writeable = False
    return xs


def nest_param_error_constant() -> Certified:
    """Sup over x > 0 of (f(x)-1)^2 for the accelerated coupling factor.

    f(x) = (1 - 2J1(x)/x)(x^2+1)/x^2 tends to 1/8 as x -> 0+, so the sup
    49/64 = 0.765625 is approached (not attained) at the left end, where
    the record's x* lies.

    The scan covers x in [1e-8, _PARAM_ERROR_TAIL].  The tail beyond is
    checked: f - 1 = 1/x^2 - (2J1(x)/x)(1 + 1/x^2) and |J1| <= 1/sqrt(2)
    (Abramowitz & Stegun 9.1.60) give
    (f-1)^2 <= (sqrt(2)/x + (1 + sqrt(2)/x)/x^2)^2, decreasing in x and
    0.1117 at x = 5.  A tail bound not below the scan maximum is a
    RuntimeError.
    """
    def objective(_tau, x):
        return (j1_ratio_complement(x) * (x * x + 1.0) / (x * x) - 1.0) ** 2

    value, x_star = _inner_max(objective, 0.0, _param_error_grid())
    r = np.sqrt(2.0) / _PARAM_ERROR_TAIL
    _check_tail((r + (1.0 + r) / _PARAM_ERROR_TAIL ** 2) ** 2, value[0],
                "(f-1)^2", _PARAM_ERROR_TAIL)
    return Certified("accelerated_param_error", float(value[0]),
                     (float(x_star[0]),))


# the heavy-ball polar grid (module docstring): theta rows, x columns
_HB_THETAS = np.linspace(0.0, np.pi / 2.0, 64)
_HB_XS = np.logspace(-5.0, 2.5, 400)


def _hb_factor(a, b):
    """Heavy-ball coupling factor (1 - kernel(a, b))(x^2+1)/x^2, x^2 = a^2+b^2."""
    x_sq = a * a + b * b
    return hb_kernel_complement(a, b) * (x_sq + 1.0) / x_sq


def _hb_kernel_slacks(a, b, x_sq, comp):
    """lhs - rhs of the three kernel inequalities at (a, b), given
    x_sq = a^2 + b^2 and comp = hb_kernel_complement(a, b):

      bias:  kernel(a,b)^2      <= (a+1)^2 e^{-2a}
      var:   (1-kernel(a,b))^2  <= 4 x^4                     for x <= 1
             (1-kernel(a,b))^2  <= (1+(a+1)e^{-a})^2         for x >  1

    Each slack is returned at every point; the caller applies the x ranges.
    """
    kernel = hb_kernel(a, b)
    comp_sq = comp ** 2
    return (kernel * kernel - (a + 1.0) ** 2 * np.exp(-2.0 * a),
            comp_sq - 4.0 * x_sq * x_sq,
            comp_sq - (1.0 + (a + 1.0) * np.exp(-a)) ** 2)


# the f^2 and (f-1)^2 scans stop at x = _HB_TAIL; a checked bound covers
# the rest (module docstring)
_HB_TAIL = 10.0


def hb_quarter_plane() -> tuple[Certified, Certified, Certified]:
    """The heavy-ball checks on the (a, b) quarter-plane (module docstring).

    Returns the heavy_ball_f_sq and heavy_ball_param_error records, the
    sups of f^2 and (f-1)^2 (both on the undamped edge a = 0), and the
    kernel_inequalities record, the worst slack of the three kernel
    inequalities (0 when none is positive).  A tail bound, 4(1 + 1/x^2)^2
    for f^2 and (1 + 2/x^2)^2 for (f-1)^2 at x = _HB_TAIL, not below its
    sup is a RuntimeError.
    """
    theta = _HB_THETAS[:, None]
    a, b = _HB_XS * np.sin(theta), _HB_XS * np.cos(theta)
    x_sq, comp = a * a + b * b, hb_kernel_complement(a, b)
    xs = _HB_XS[_HB_XS <= _HB_TAIL]              # a prefix: the grid ascends
    factor = (comp * (x_sq + 1.0) / x_sq)[:, :xs.size]     # _hb_factor(a, b)
    inv_sq = 1.0 / (_HB_TAIL * _HB_TAIL)

    def sup(name, label, g, tail):
        vals = g(factor)
        k = np.argmax(vals, axis=1)

        def objective(theta, x):
            return g(_hb_factor(x * np.sin(theta), x * np.cos(theta)))

        zoomed, _ = _zoom(objective, _HB_THETAS, xs,
                          vals[np.arange(k.size), k], k)
        value = float(zoomed.max())
        _check_tail(tail, value, label, _HB_TAIL)
        return Certified(name, value)

    f_sq = sup("heavy_ball_f_sq", "f^2", np.square, 4.0 * (1.0 + inv_sq) ** 2)
    fm1_sq = sup("heavy_ball_param_error", "(f-1)^2", lambda f: (f - 1.0) ** 2,
                 (1.0 + 2.0 * inv_sq) ** 2)
    bias, var_small, var_large = _hb_kernel_slacks(a, b, x_sq, comp)
    small = _HB_XS <= 1.0
    slack = max(0.0, float(bias.max()), float(var_small[:, small].max()),
                float(var_large[:, ~small].max()))
    return f_sq, fm1_sq, Certified("kernel_inequalities", slack)


def h_kappa(kappa):
    """The heavy-ball inflation envelope h(kappa) for kappa >= 1.

    h(k) = 8 k^{2/3} + (1 + x*^2)(sqrt(5k^{2/3}-4)/(2k^{1/3}) + 3/2)^2
           exp(-(k^{1/3} + sqrt(5k^{2/3}-4))/k^{1/3})
    with x* = (k^{1/3} + sqrt(5k^{2/3}-4))/2.  h(inf) is its limit inf
    (h >= 8 k^{2/3}); a NaN kappa is refused.
    """
    k = np.asarray(kappa, dtype=float)
    if not (k >= 1.0).all():
        if np.isnan(k).any():
            raise ValueError("h_kappa is undefined at kappa = NaN")
        raise ValueError("h_kappa requires kappa >= 1")
    cube = np.cbrt(k)
    root = np.sqrt(5.0 * cube * cube - 4.0)
    x_star = (cube + root) / 2.0
    with np.errstate(invalid="ignore"):   # inf/inf at kappa = inf, set below
        out = (8.0 * cube * cube
               + (1.0 + x_star * x_star) * (root / (2.0 * cube) + 1.5) ** 2
               * np.exp(-(cube + root) / cube))
    out = np.where(k == np.inf, np.inf, out)
    return float(out) if np.ndim(kappa) == 0 else out


# tilde_h's direct form is exact to rounding, with no factor overflowing and
# e^{-2q} a normal double, while 0 <= x <= 1e75 and q = x/z <= 354; z >= 1e-200
# keeps x/z itself finite.  Past z = 1e150, the 4 of tilde_h_maximizer's
# 5 z^2 - 4 is far below its ulp, and x* is phi z to rounding.
_TILDE_H_X = 1e75
_TILDE_H_Q = 354.0
_TILDE_H_Z = 1e-200
_X_STAR_Z = 1e150
_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def tilde_h(x, z):
    """Bias envelope (1+x^2)(x/z+1)^2 e^{-2x/z} at inverse rate z.

    The domain is finite x >= 0 and z > 0 (z = inf gives 1 + x^2); other
    input, NaN included, is refused by name.  Past x = 1e75, x/z = 354 or
    below z = 1e-200, where a factor could overflow or e^{-2x/z} leave the
    normal range, the value is exp(2 log hypot(1, x) + 2 log1p(q) - 2q) at
    q = min(x/z, 1e300): it falls to its limit 0 as x/z grows, and a value
    past the largest double is refused.  Elsewhere, element by element, it
    keeps the bits of the direct form.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and isinstance(z, float):   # float checks for scalars
        xf, zf = float(x), float(z)
        if 0.0 <= xf <= _TILDE_H_X and zf >= _TILDE_H_Z and xf / zf <= _TILDE_H_Q:
            return _tilde_h_direct(x, z)
        return _tilde_h_log(x, np.asarray(z, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        direct = ((x >= 0.0) & (x <= _TILDE_H_X)
                  & np.greater_equal(z, _TILDE_H_Z) & (x / z <= _TILDE_H_Q))
    if direct.all():
        return _tilde_h_direct(x, z)
    z = np.asarray(z, dtype=float)
    out = _tilde_h_log(x, z)
    if direct.any():         # an array: the direct form where it applies
        x, z = np.broadcast_arrays(x, z)
        out[direct] = _tilde_h_direct(x[direct], z[direct])
    return out


def _tilde_h_direct(x, z):
    """tilde_h's direct form, where no factor over- or underflows."""
    q = np.asarray(x / z)    # a fresh array (0-d too), reused in place
    out = q + 1.0            # a numpy scalar for 0-d q
    out **= 2                # as before: np.square on arrays, pow on scalars
    out *= 1.0 + x * x       # (1 + x^2)(q + 1)^2: products commute exactly
    q *= -2.0                # -2 x / z bit for bit: doubling is exact
    out *= np.exp(q, out=q)
    return out[()]           # a numpy scalar for scalar input


def _tilde_h_log(x, z):
    """tilde_h in log space, where its direct form may over- or underflow."""
    if not ((x >= 0.0).all() and (x < np.inf).all() and (z > 0.0).all()):
        raise ValueError("tilde_h requires finite x >= 0 and z > 0")
    with np.errstate(over="ignore"):     # x/z is clamped; exp is checked
        q = np.minimum(x / z, 1e300)
        out = np.exp(2.0 * np.log(np.hypot(1.0, x)) + 2.0 * np.log1p(q)
                     - 2.0 * q)
    if np.isinf(out).any():
        raise ValueError("tilde_h exceeds the largest double")
    return out[()]


def tilde_h_maximizer(z):
    """Interior critical point x* = (z + sqrt(5 z^2 - 4))/2 (needs z >= 2/sqrt(5)).

    A NaN z is refused by name; so is any z below 2/sqrt(5), z <= 0 (where
    5 z^2 - 4 may be >= 0 again) before any arithmetic, and a finite z
    above 1e308, whose x* would pass the largest double.  Past z = 1e150,
    x* is phi z (phi the golden ratio), equal to rounding, where 5 z^2 may
    overflow; z = inf gives inf.  A scalar in (0, 1e150] is checked and
    evaluated in Python floats, the same doubles.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 and 0.0 < float(z) <= _X_STAR_Z:
        zf = float(z)
        disc = 5.0 * zf * zf - 4.0
        if disc >= 0.0:
            return (zf + math.sqrt(disc)) / 2.0
    elif (z > 0).all():
        if ((z > 1e308) & (z < np.inf)).any():
            raise ValueError("x* exceeds the largest double for z > 1e308")
        with np.errstate(over="ignore"):
            disc = 5.0 * z * z - 4.0
        if (disc >= 0).all():
            out = np.where(z > _X_STAR_Z, z * _PHI, (z + np.sqrt(disc)) / 2.0)
            return float(out) if out.ndim == 0 else out
    if np.isnan(z).any():
        raise ValueError("tilde_h_maximizer is undefined at z = NaN")
    raise ValueError("x* exists only for z >= 2/sqrt(5)")


@dataclass(frozen=True)
class CrossoverCase:
    """Maximizer structure of tilde_h at one sampled z."""

    z: float
    case_index: int          # 1: max at 0; 2: 0 and x* compete; 3: max at x*
    argmax_x: float
    x_star: float | None
    structure_ok: bool


def _classify_tilde_h(z: float) -> CrossoverCase:
    """The case of tilde_h at z, from the sign of tilde_h' (module docstring)."""
    disc = 5.0 * z * z - 4.0
    if disc <= 0:            # at most a double root: tilde_h is nonincreasing
        return CrossoverCase(z=z, case_index=1, argmax_x=0.0, x_star=None,
                             structure_ok=True)
    x_star = tilde_h_maximizer(z)
    x_minus = (z - np.sqrt(disc)) / 2.0
    peak = float(tilde_h(x_star, z))
    if x_minus > 0:
        # local maxima at 0 and x*, separated by the dip at x_minus
        dip = float(tilde_h(x_minus, z))
        return CrossoverCase(z=z, case_index=2,
                             argmax_x=0.0 if peak < 1.0 else x_star,
                             x_star=x_star, structure_ok=dip < min(1.0, peak))
    return CrossoverCase(z=z, case_index=3, argmax_x=x_star, x_star=x_star,
                         structure_ok=peak > 1.0)


_CROSSOVER_SAMPLE_Z = (0.5, 0.95, 2.0)    # one z per case of the structure


def tilde_h_crossover() -> tuple[Certified, Certified]:
    """Locate z* where tilde_h(x*) first reaches tilde_h(0) = 1.

    Bisection on z in (2/sqrt(5), 1); below z* the global maximum of
    tilde_h sits at 0, above it at x*.  Returns the crossover_z record and
    the crossover_case_structure record, 1.0 when every sampled case holds
    its structure, with the CrossoverCases at the sampled z values.
    """
    lo = 2.0 / np.sqrt(5.0) + 1e-12
    hi = 1.0 - 1e-12

    def gap(z):
        return float(tilde_h(tilde_h_maximizer(z), z)) - 1.0

    if gap(lo) >= 0 or gap(hi) <= 0:
        raise RuntimeError("crossover bracket failed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    cases = tuple(_classify_tilde_h(float(z)) for z in _CROSSOVER_SAMPLE_Z)
    return (Certified("crossover_z", float(0.5 * (lo + hi))),
            Certified("crossover_case_structure",
                      float(all(c.structure_ok for c in cases)), cases))


_RECOMPOSITION_KAPPAS = np.unique(np.concatenate([
    np.logspace(0.0, 4.0, 81), [1.0, 8.0, 1000.0]]))


def hb_variance_bound_check() -> tuple[Certified, Certified]:
    """At tau = kappa^{1/6}, the variance bound collapses to 8 kappa^{2/3}.

    There 8 tau^4 = 8 kappa^{2/3}, and the second branch
    2(1+(tau/sqrt(kappa)+1)e^{-tau/sqrt(kappa)})^2 must not exceed it: a
    kappa of the grid where it does is a RuntimeError.  Returns the
    h_recomposition record, the largest error of tilde_h(x*) + 8 kappa^{2/3}
    against h(kappa) on the grid, and the h_at_kappa_1 record, h(1).
    """
    kappas = _RECOMPOSITION_KAPPAS
    target = 8.0 * kappas ** (2.0 / 3.0)
    u = kappas ** (1.0 / 6.0) / np.sqrt(kappas)
    gap = 2.0 * (1.0 + (u + 1.0) * np.exp(-u)) ** 2 - target
    worst = int(np.argmax(gap))
    if not gap[worst] <= 0.0:
        raise RuntimeError(
            f"the second variance branch exceeds 8 kappa^(2/3) by "
            f"{gap[worst]:.4g} at kappa = {kappas[worst]:.6g}")
    z = np.cbrt(kappas)
    recomp = tilde_h(tilde_h_maximizer(z), z)
    return (Certified("h_recomposition",
                      float(np.abs(recomp + target - h_kappa(kappas)).max())),
            Certified("h_at_kappa_1", h_kappa(1.0)))


def bias_ratio_unbounded_witness(x_points) -> list[tuple[float, float]]:
    """Accelerated-vs-ridge bias ratio along the J1 envelope peaks.

    The ratio [(2 J1(sqrt(x)))^2 / x] / [1/(1+x)^2] oscillates with x, so
    each requested point is snapped to the nearest envelope peak of J1
    (u_k ~ 3 pi/4 + k pi in u = sqrt(x)); at the peaks the ratio grows like
    sqrt(x), which is the witness that no uniform bias coupling constant
    exists.  The input must be ascending, positive, and span at least four
    decades.
    """
    pts = np.asarray(x_points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("x_points must be a 1-D array with >= 2 points")
    if (pts <= 0).any() or (np.diff(pts) <= 0).any():
        raise ValueError("x_points must be positive and ascending")
    if pts[-1] < 1e4 * pts[0]:
        raise ValueError("x_points must span at least four decades")
    first_peak = 3.0 * np.pi / 4.0
    out = []
    for x in pts:
        u = np.sqrt(x)
        if u >= first_peak:
            k = int(np.round((u - first_peak) / np.pi))
            u = first_peak + k * np.pi
            x = u * u
        ratio = float(j1_ratio(u) ** 2 * (1.0 + x) ** 2)
        out.append((float(x), ratio))
    return out


def within(value, paper_value, tolerance, mode) -> bool:
    """The pass rule: |value - paper| <= tol ("eq") or value <= paper + tol ("le")."""
    return bool(abs(value - paper_value) <= tolerance if mode == "eq"
                else value <= paper_value + tolerance)


@dataclass(frozen=True, eq=False)
class Check:
    """A row of CHECKS: the value of the certifier's record of this name
    against paper_value."""

    name: str
    certifier: str               # a function of this module, found at run time
    paper_value: float
    tolerance: float
    mode: str = "eq"

    def passes(self, value) -> bool:
        return within(value, self.paper_value, self.tolerance, self.mode)


# name -> row, in report order
CHECKS = {c.name: c for c in (
    Check("gradient_flow_inflation", "gf_inflation_constant", 1.0786, 1e-3),
    Check("accelerated_inflation", "nest_inflation_constant", 1.5991, 1e-3),
    Check("accelerated_param_error", "nest_param_error_constant", 49.0 / 64.0,
          1e-4),
    Check("heavy_ball_f_sq", "hb_quarter_plane", 16.0, 1e-6, "le"),
    Check("heavy_ball_param_error", "hb_quarter_plane", 25.0, 1e-6, "le"),
    Check("crossover_z", "tilde_h_crossover", 0.907, 1e-3),
    Check("crossover_case_structure", "tilde_h_crossover", 1.0, 0.0),
    Check("h_recomposition", "hb_variance_bound_check", 0.0, 1e-10, "le"),
    Check("h_at_kappa_1", "hb_variance_bound_check",
          float(8.0 + 8.0 * np.exp(-2.0)), 1e-12),
    Check("kernel_inequalities", "hb_quarter_plane", 0.0, 1e-10, "le"),
)}


def run_checks(names=None) -> list[tuple]:
    """(check, record, runtime_ms) per row of CHECKS, or per named row.

    Each certifier runs once, for the first row that needs it, and keeps
    its records by name; a row whose record an earlier call made reports
    0 ms.
    """
    records = {}
    runs = []
    for check in CHECKS.values() if names is None else (CHECKS[n] for n in names):
        ms = 0.0
        if check.name not in records:
            t0 = time.perf_counter()
            out = globals()[check.certifier]()
            ms = (time.perf_counter() - t0) * 1e3
            records.update((r.name, r) for r in
                           (out if isinstance(out, tuple) else (out,)))
        runs.append((check, records[check.name], ms))
    return runs
