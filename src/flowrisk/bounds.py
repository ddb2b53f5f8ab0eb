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

Grid protocol for min-max values: tau on a log grid [1e-3, 10] with 200
points, x on a log grid [1e-8, 1e6] with 2000 points, then three rounds of
local refinement (golden-section on tau, dense zoom on x), each shrinking
its bracket by 10x.  The x tail beyond 1e6 cannot host the inner maximum at
the minimizing tau: both objectives there are 1 + O(1/sqrt(x)) +
O(1/(tau^3 sqrt(x))), below the certified values, while at tiny tau the
grid already sees inner maxima far above them, steering the outer minimum
away.  Smallest-tau tie-breaking keeps results deterministic: the outer
search starts at the first tau whose coarse value (x scan plus the first
zoom) is within 1e-12 of the smallest.

The coarse stage is pruned by witnesses.  Every tau is first scanned over
every 16th coarse x point only; the max there is a lower bound of its
coarse value, because those points are a subset of the coarse x grid, each
is evaluated exactly as in the full scan, and the zoom never lowers a
value.  The tau with the smallest bound gets a full coarse scan, whose
value is a ceiling on the minimum; then only the taus whose bound is not
above ceiling + 1e-12 are scanned in full.  A skipped tau lies above the
minimum plus 1e-12, so it can be neither the minimum nor its tie-break,
and the result is exactly that of scanning every tau (on the default grids
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
0 <= f <= 2(1 + 1/x^2), which keeps f^2 < 4.09 and (f-1)^2 < 1.05 for
x >= 10, below the values the scan finds; and f -> 1/2 as x -> 0.  The
f^2 and (f-1)^2 scans reuse the min-max scanner with theta as the row
variable (coarse x scan plus zooms per theta) and take the max over rows.

The certifiers report values.  CHECKS, the certification table, holds their
paper values and tolerances and alone decides pass or fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

import numpy as np

from .linalg import MAX_DOUBLES, Spectrum
from .risk import SignalModel, optimal_ridge_bayes_risk, risk_curve
from .shrinkage import FlowKind, hb_kernel, hb_kernel_complement
from .special import _complement_series, j1_ratio, j1_ratio_complement

__all__ = [
    "Check",
    "CHECKS",
    "within",
    "run_checks",
    "GridSpec",
    "MinMaxResult",
    "HbParamErrorReport",
    "KernelBoundReport",
    "CrossoverCase",
    "CrossoverResult",
    "VarianceBoundReport",
    "HbInflationResult",
    "gf_inflation_objective",
    "nest_inflation_objective",
    "gf_inflation_constant",
    "nest_inflation_constant",
    "nest_param_error_constant",
    "hb_param_error_sup",
    "h_kappa",
    "tilde_h",
    "tilde_h_maximizer",
    "tilde_h_crossover",
    "hb_variance_bound_check",
    "hb_inflation_check",
    "hb_kernel_slack",
    "bias_ratio_unbounded_witness",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """A 1-D scan grid: bounds, point count, and log or linear spacing."""

    lo: float
    hi: float
    count: int
    scale: str = "log"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        if self.count > MAX_DOUBLES:
            raise ValueError(f"grid of {self.count} points exceeds "
                             f"{MAX_DOUBLES} doubles")
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")
        if self.scale == "log" and (self.lo <= 0 or self.hi <= self.lo):
            raise ValueError("log grid requires 0 < lo < hi")
        if self.scale == "linear" and self.hi <= self.lo:
            raise ValueError("linear grid requires lo < hi")

    def points(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(np.log10(self.lo), np.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


DEFAULT_TAU_GRID = GridSpec(1e-3, 10.0, 200, "log")
# The x tail beyond this is bounded analytically (module docstring), so a
# min-max x grid must reach it.
_X_TAIL = 1e6
DEFAULT_X_GRID = GridSpec(1e-8, _X_TAIL, 2000, "log")


@dataclass(frozen=True, eq=False)
class MinMaxResult:
    """A certified min-over-tau of max-over-x value with its optimizers."""

    value: float
    tau_star: float
    x_star: float


# doubles per objective call in _scan_max: a block stays in cache
_SCAN_BLOCK = 1 << 14


def _scan_max(objective, taus, xs):
    """Per tau, the max of objective(tau, x) over its x row and the first argmax.

    xs is one 1-D grid shared by every tau, or a 2-D array with one row per
    tau.  The objective is called on blocks of about _SCAN_BLOCK doubles,
    objective(taus[rows, None], xs[rows or None, cols]): as many whole rows
    as fit, or column chunks of a longer row.  Every point is evaluated exactly as in
    a one-row call, and a tie (or a NaN) resolves to the first index, as in
    np.argmax over the whole row.
    """
    n_rows, n_cols = taus.size, xs.shape[-1]
    row_step = max(1, _SCAN_BLOCK // n_cols)
    col_step = min(n_cols, _SCAN_BLOCK)
    best = np.empty(n_rows)
    arg = np.empty(n_rows, dtype=np.intp)
    for r in range(0, n_rows, row_step):
        rows = slice(r, r + row_step)
        t = taus[rows, None]
        for c in range(0, n_cols, col_step):
            x = xs[None, c:c + col_step] if xs.ndim == 1 else xs[rows, c:c + col_step]
            vals = objective(t, x)
            k = np.argmax(vals, axis=1)
            v = vals[np.arange(k.size), k]
            if c == 0:
                best[rows], arg[rows] = v, k
                continue
            cur = best[rows]
            better = (v > cur) | (np.isnan(v) & ~np.isnan(cur))
            best[rows] = np.where(better, v, cur)
            arg[rows] = np.where(better, k + c, arg[rows])
    return best, arg


def _inner_max(objective, taus, x_coarse, zoom_rounds=3, zoom_points=240):
    """Max over x of objective(tau, .) per tau: coarse scan plus dense zooms.

    Returns (values, maximizers), one entry per tau.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    best_v, k = _scan_max(objective, taus, x_coarse)
    best_x = x_coarse[k]
    lo = x_coarse[np.maximum(k - 1, 0)]
    hi = x_coarse[np.minimum(k + 1, x_coarse.size - 1)]
    for _ in range(zoom_rounds):
        # rows equal to np.linspace(lo[i], hi[i], zoom_points) (same steps,
        # same rounding, last point hi) unless a step underflows to 0
        step = (hi - lo) / (zoom_points - 1)
        xs = lo[:, None] + np.arange(zoom_points) * step[:, None]
        xs[:, -1] = hi
        vv, kk = _scan_max(objective, taus, xs)
        better = vv > best_v
        best_v = np.where(better, vv, best_v)
        best_x = np.where(better, xs[np.arange(taus.size), kk], best_x)
        width = (hi - lo) / 10.0
        lo = np.maximum(best_x - width, x_coarse[0])
        hi = best_x + width
    return best_v, best_x


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


def _certified_minimax(objective, tau_spec=DEFAULT_TAU_GRID,
                       x_spec=DEFAULT_X_GRID, refinement_depth=3) -> MinMaxResult:
    if x_spec.hi < _X_TAIL:
        raise ValueError(f"x grid ends at {x_spec.hi:g}, below the tail "
                         "threshold x = 1e6 that the certificate assumes")
    x_coarse = x_spec.points()
    taus = tau_spec.points()
    coarse = _pruned_coarse(objective, taus, x_coarse)
    nan = np.flatnonzero(np.isnan(coarse))
    if nan.size:
        raise RuntimeError(f"min-max objective is NaN at tau = {taus[nan[0]]:.6g}")
    vmin = float(coarse.min())
    i = int(np.flatnonzero(coarse <= vmin + 1e-12)[0])  # smallest-tau tie-break
    lo = float(taus[max(i - 1, 0)])
    hi = float(taus[min(i + 1, taus.size - 1)])

    def outer(tau):
        return float(_inner_max(objective, tau, x_coarse)[0][0])

    for _ in range(refinement_depth):
        target = (hi - lo) / 10.0
        c = hi - (hi - lo) * _GOLDEN
        d = lo + (hi - lo) * _GOLDEN
        f_c, f_d = _inner_max(objective, np.array([c, d]), x_coarse)[0].tolist()
        while hi - lo > target:
            if f_c < f_d:
                hi = d
                d, f_d = c, f_c
                c = hi - (hi - lo) * _GOLDEN
                f_c = outer(c)
            else:
                lo = c
                c, f_c = d, f_d
                d = lo + (hi - lo) * _GOLDEN
                f_d = outer(d)
    tau_star = float(0.5 * (lo + hi))
    value, x_star = (float(v[0]) for v in _inner_max(objective, tau_star, x_coarse))
    if not (x_coarse[1] < x_star < x_coarse[-2]):
        raise RuntimeError(
            f"inner maximizer x* = {x_star:.3g} landed at the scan boundary; "
            "widen the x grid")
    return MinMaxResult(value=value, tau_star=tau_star, x_star=x_star)


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


def gf_inflation_constant(tau_spec=DEFAULT_TAU_GRID, x_spec=DEFAULT_X_GRID,
                          refinement_depth=3) -> MinMaxResult:
    """Certified gradient-flow inflation constant (1.0786 to within 1e-3)."""
    return _certified_minimax(gf_inflation_objective, tau_spec, x_spec,
                              refinement_depth)


def nest_inflation_constant(tau_spec=DEFAULT_TAU_GRID, x_spec=DEFAULT_X_GRID,
                            refinement_depth=3) -> MinMaxResult:
    """Certified accelerated-flow inflation constant (1.5991 to within 1e-3).

    The tuning correspondence behind the objective is t = tau / sqrt(lambda).
    """
    return _certified_minimax(nest_inflation_objective, tau_spec, x_spec,
                              refinement_depth)


_NEST_PARAM_X_GRID = GridSpec(1e-8, 1e4, 200000, "log")


def nest_param_error_constant() -> tuple[float, float]:
    """Sup over x > 0 of (f(x)-1)^2 for the accelerated coupling factor.

    f(x) = (1 - 2J1(x)/x)(x^2+1)/x^2 tends to 1/8 as x -> 0+, so the sup
    49/64 = 0.765625 is approached (not attained) at the left end.  Returns
    (sup_value, x_at_sup).
    """
    def objective(_tau, x):
        return (j1_ratio_complement(x) * (x * x + 1.0) / (x * x) - 1.0) ** 2

    value, x_star = _inner_max(objective, 0.0, _NEST_PARAM_X_GRID.points())
    return float(value[0]), float(x_star[0])


# the heavy-ball polar grid (module docstring): theta rows, x columns
_HB_THETAS = np.linspace(0.0, np.pi / 2.0, 64)
_HB_XS = np.logspace(-5.0, 2.5, 400)


def _hb_factor(a, b):
    """Heavy-ball coupling factor (1 - kernel(a, b))(x^2+1)/x^2, x^2 = a^2+b^2."""
    x_sq = a * a + b * b
    return hb_kernel_complement(a, b) * (x_sq + 1.0) / x_sq


@dataclass(frozen=True)
class HbParamErrorReport:
    """Sup of f^2 and (f-1)^2 for the heavy-ball coupling factor."""

    max_f_sq: float
    max_fm1_sq: float
    nodes_checked: int           # polar grid nodes per scan, before the x zooms


def hb_param_error_sup() -> HbParamErrorReport:
    """Scan f^2 and (f-1)^2 over the (a, b) quarter-plane (module docstring).

    These are the values CHECKS certifies against f^2 <= 16 and
    (f-1)^2 <= 25; both sups sit on the undamped edge a = 0.
    """
    def sup(g):
        def objective(theta, x):
            return g(_hb_factor(x * np.sin(theta), x * np.cos(theta)))
        return float(_inner_max(objective, _HB_THETAS, _HB_XS)[0].max())

    return HbParamErrorReport(max_f_sq=sup(np.square),
                              max_fm1_sq=sup(lambda f: (f - 1.0) ** 2),
                              nodes_checked=_HB_THETAS.size * _HB_XS.size)


def h_kappa(kappa):
    """The heavy-ball inflation envelope h(kappa) for kappa >= 1.

    h(k) = 8 k^{2/3} + (1 + x*^2)(sqrt(5k^{2/3}-4)/(2k^{1/3}) + 3/2)^2
           exp(-(k^{1/3} + sqrt(5k^{2/3}-4))/k^{1/3})
    with x* = (k^{1/3} + sqrt(5k^{2/3}-4))/2.
    """
    k = np.asarray(kappa, dtype=float)
    if (k < 1.0).any():
        raise ValueError("h_kappa requires kappa >= 1")
    cube = np.cbrt(k)
    root = np.sqrt(5.0 * cube * cube - 4.0)
    x_star = (cube + root) / 2.0
    out = (8.0 * cube * cube
           + (1.0 + x_star * x_star) * (root / (2.0 * cube) + 1.5) ** 2
           * np.exp(-(cube + root) / cube))
    return float(out) if np.ndim(kappa) == 0 else out


def tilde_h(x, z):
    """Bias envelope (1+x^2)(x/z+1)^2 e^{-2x/z} at inverse rate z."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) * (x / z + 1.0) ** 2 * np.exp(-2.0 * x / z)


def tilde_h_maximizer(z):
    """Interior critical point x* = (z + sqrt(5 z^2 - 4))/2 (needs z >= 2/sqrt(5))."""
    z = np.asarray(z, dtype=float)
    disc = 5.0 * z * z - 4.0
    if (disc < 0).any():
        raise ValueError("x* exists only for z >= 2/sqrt(5)")
    out = (z + np.sqrt(disc)) / 2.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CrossoverCase:
    """Maximizer structure of tilde_h at one sampled z."""

    z: float
    case_index: int          # 1: max at 0; 2: 0 and x* compete; 3: max at x*
    argmax_x: float
    x_star: float | None
    structure_ok: bool


@dataclass(frozen=True)
class CrossoverResult:
    z_star: float
    cases: tuple[CrossoverCase, ...]


def _classify_tilde_h(z: float) -> CrossoverCase:
    hi = 6.0 * max(z, 1.0)
    xs = np.linspace(0.0, hi, 240001)
    _, k = _scan_max(lambda zz, x: tilde_h(x, zz), np.array([z]), xs)
    argmax = float(xs[k[0]])
    disc = 5.0 * z * z - 4.0
    if disc <= 0:
        return CrossoverCase(z=z, case_index=1, argmax_x=argmax, x_star=None,
                             structure_ok=argmax == 0.0)
    x_star = tilde_h_maximizer(z)
    x_minus = (z - np.sqrt(disc)) / 2.0
    if z < 1.0:
        # both 0 and x* are local maxima, separated by the dip at x_minus
        dip = float(tilde_h(x_minus, z))
        both_peaks = dip < 1.0 and dip < float(tilde_h(x_star, z))
        expected = 0.0 if float(tilde_h(x_star, z)) < 1.0 else x_star
        ok = both_peaks and abs(argmax - expected) <= hi / (xs.size - 1) * 2
        return CrossoverCase(z=z, case_index=2, argmax_x=argmax, x_star=x_star,
                             structure_ok=ok)
    ok = abs(argmax - x_star) <= hi / (xs.size - 1) * 2
    return CrossoverCase(z=z, case_index=3, argmax_x=argmax, x_star=x_star,
                         structure_ok=ok)


_CROSSOVER_SAMPLE_Z = (0.5, 0.95, 2.0)    # one z per case of the structure


def tilde_h_crossover() -> CrossoverResult:
    """Locate z* where tilde_h(x*) first reaches tilde_h(0) = 1.

    Bisection on z in (2/sqrt(5), 1); below z* the global maximum of
    tilde_h sits at 0, above it at x*.  Also classifies the maximizer
    structure at the sampled z values.
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
    z_star = float(0.5 * (lo + hi))
    cases = tuple(_classify_tilde_h(float(z)) for z in _CROSSOVER_SAMPLE_Z)
    return CrossoverResult(z_star=z_star, cases=cases)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Variance-branch dominance and h recomposition along a kappa grid."""

    max_branch_gap: float        # max over grid of branch2 - 8 kappa^{2/3}
    max_equality_error: float    # max |8 tau^4 - 8 kappa^{2/3}| at tau = kappa^{1/6}
    max_recomposition_error: float


_RECOMPOSITION_KAPPAS = np.unique(np.concatenate([
    np.logspace(0.0, 4.0, 81), [1.0, 8.0, 1000.0]]))


def hb_variance_bound_check() -> VarianceBoundReport:
    """At tau = kappa^{1/6}, the variance bound collapses to 8 kappa^{2/3}.

    Checks that 8 tau^4 equals 8 kappa^{2/3} and dominates the second
    branch 2(1+(tau/sqrt(kappa)+1)e^{-tau/sqrt(kappa)})^2, and that
    tilde_h(x*) + 8 kappa^{2/3} recomposes h(kappa) exactly.
    """
    kappas = _RECOMPOSITION_KAPPAS
    tau = kappas ** (1.0 / 6.0)
    target = 8.0 * kappas ** (2.0 / 3.0)
    branch1 = 8.0 * tau ** 4
    u = tau / np.sqrt(kappas)
    branch2 = 2.0 * (1.0 + (u + 1.0) * np.exp(-u)) ** 2
    equality_err = float(np.abs(branch1 - target).max())
    branch_gap = float((branch2 - target).max())
    z = np.cbrt(kappas)
    recomp = tilde_h(tilde_h_maximizer(z), z)
    recomp_err = float(np.abs(recomp + target - h_kappa(kappas)).max())
    return VarianceBoundReport(max_branch_gap=branch_gap,
                               max_equality_error=equality_err,
                               max_recomposition_error=recomp_err)


@dataclass(frozen=True)
class HbInflationResult:
    """Tuned heavy-ball/ridge Bayes risk ratio against its envelope."""

    ratio: float
    bound: float
    t_star: float


_HB_T_GRID = np.logspace(-2, 3, 2000)


def hb_inflation_check(spectrum: Spectrum, prior: SignalModel) -> HbInflationResult:
    """inf_t hb Bayes risk / optimal ridge Bayes risk, with its bound h(kappa).

    The claim 1 <= ratio <= bound is checked by the caller through within.
    """
    if spectrum.mu <= 0:
        raise ValueError("heavy-ball inflation requires mu > 0")
    ridge_opt, _ = optimal_ridge_bayes_risk(spectrum, prior)
    curve = risk_curve(spectrum, prior, FlowKind.HEAVY_BALL_FLOW, _HB_T_GRID)
    risks = curve.risk
    k = int(np.argmin(risks))
    ratio = float(risks[k]) / ridge_opt
    return HbInflationResult(ratio=ratio, bound=h_kappa(spectrum.kappa),
                             t_star=float(_HB_T_GRID[k]))


@dataclass(frozen=True)
class KernelBoundReport:
    """Worst slack of the two pointwise kernel inequalities over a grid."""

    max_violation_bias: float
    max_violation_var_small_x: float
    max_violation_var_large_x: float
    nodes_checked: int


def _hb_kernel_slacks(a, b):
    """lhs - rhs of the three kernel inequalities at (a, b), x^2 = a^2 + b^2:

      bias:  kernel(a,b)^2      <= (a+1)^2 e^{-2a}
      var:   (1-kernel(a,b))^2  <= 4 x^4                     for x <= 1
             (1-kernel(a,b))^2  <= (1+(a+1)e^{-a})^2         for x >  1

    Each slack is returned at every point; the caller applies the x ranges.
    """
    x_sq = a * a + b * b
    kernel = hb_kernel(a, b)
    comp_sq = hb_kernel_complement(a, b) ** 2
    return (kernel * kernel - (a + 1.0) ** 2 * np.exp(-2.0 * a),
            comp_sq - 4.0 * x_sq * x_sq,
            comp_sq - (1.0 + (a + 1.0) * np.exp(-a)) ** 2)


def hb_kernel_slack() -> KernelBoundReport:
    """Worst slack of the kernel inequalities on the heavy-ball polar grid."""
    theta = _HB_THETAS[:, None]
    bias, var_small, var_large = _hb_kernel_slacks(_HB_XS * np.sin(theta),
                                                   _HB_XS * np.cos(theta))
    small = _HB_XS <= 1.0
    return KernelBoundReport(
        max_violation_bias=max(float(bias.max()), 0.0),
        max_violation_var_small_x=max(float(var_small[:, small].max()), 0.0),
        max_violation_var_large_x=max(float(var_large[:, ~small].max()), 0.0),
        nodes_checked=bias.size)


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
    """A row of CHECKS: value_of(certifier(*args)) against paper_value."""

    name: str
    certifier: str               # a function of this module, found at run time
    value_of: Callable
    paper_value: float
    tolerance: float
    mode: str = "eq"
    overridable: bool = False    # verify-constants --tol replaces tolerance
    args: tuple = ()

    def passes(self, value) -> bool:
        return within(value, self.paper_value, self.tolerance, self.mode)


# name -> row, in report order
CHECKS = {c.name: c for c in (
    Check("gradient_flow_inflation", "gf_inflation_constant",
          attrgetter("value"), 1.0786, 1e-3, overridable=True),
    Check("accelerated_inflation", "nest_inflation_constant",
          attrgetter("value"), 1.5991, 1e-3, overridable=True),
    Check("accelerated_param_error", "nest_param_error_constant",
          itemgetter(0), 49.0 / 64.0, 1e-4, overridable=True),
    Check("heavy_ball_f_sq", "hb_param_error_sup", attrgetter("max_f_sq"),
          16.0, 1e-6, "le"),
    Check("heavy_ball_param_error", "hb_param_error_sup",
          attrgetter("max_fm1_sq"), 25.0, 1e-6, "le"),
    Check("crossover_z", "tilde_h_crossover", attrgetter("z_star"), 0.907,
          1e-3, overridable=True),
    Check("crossover_case_structure", "tilde_h_crossover",
          lambda r: float(all(c.structure_ok for c in r.cases)), 1.0, 0.0),
    Check("h_recomposition", "hb_variance_bound_check",
          attrgetter("max_recomposition_error"), 0.0, 1e-10, "le"),
    Check("h_at_kappa_1", "h_kappa", float, float(8.0 + 8.0 * np.exp(-2.0)),
          1e-12, args=(1.0,)),
    Check("kernel_inequalities", "hb_kernel_slack",
          lambda r: max(r.max_violation_bias, r.max_violation_var_small_x,
                        r.max_violation_var_large_x), 0.0, 1e-10, "le"),
)}


def run_checks(names=None) -> list[tuple]:
    """(check, result, value, runtime_ms) per row of CHECKS, or per named row.

    Each certifier runs once: a row with the certifier of the row before it
    shares that call (and its args) and reports 0 ms.
    """
    runs = []
    for check in CHECKS.values() if names is None else (CHECKS[n] for n in names):
        shared = bool(runs) and runs[-1][0].certifier == check.certifier
        t0 = time.perf_counter()
        result = runs[-1][1] if shared else globals()[check.certifier](*check.args)
        ms = 0.0 if shared else (time.perf_counter() - t0) * 1e3
        runs.append((check, result, check.value_of(result), ms))
    return runs
