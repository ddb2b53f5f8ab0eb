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
  (f-1)^2 <= 25 on all admissible (mu, s, t);

* the heavy-ball inflation envelope h(kappa), its bias piece
  h~(x) = (1+x^2)(x/z+1)^2 e^{-2x/z} maximized at x* = (z+sqrt(5z^2-4))/2,
  the crossover level z* ~= 0.907 where h~(x*) overtakes h~(0) = 1, and the
  variance piece max{8 tau^4, 2(1+(tau/sqrt(kappa)+1)e^{-tau/sqrt(kappa)})^2}
  = 8 kappa^{2/3} at tau = kappa^{1/6};

* the two pointwise kernel inequalities behind the heavy-ball bounds,
  checked on dense grids;

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
away.  Smallest-tau tie-breaking keeps results deterministic.

The certifiers report values.  CHECKS, the certification table, holds their
paper values, tolerances and scan grids and alone decides pass or fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

import numpy as np

from .linalg import Spectrum
from .risk import SignalModel, optimal_ridge_bayes_risk, risk_curve
from .shrinkage import FlowKind, hb_kernel, hb_kernel_complement
from .special import j1_ratio, j1_ratio_complement

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
    "hb_param_error_check",
    "h_kappa",
    "tilde_h",
    "tilde_h_maximizer",
    "tilde_h_crossover",
    "hb_variance_bound_check",
    "hb_inflation_check",
    "hb_kernel_bound_checks",
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
DEFAULT_X_GRID = GridSpec(1e-8, 1e6, 2000, "log")


@dataclass(frozen=True, eq=False)
class MinMaxResult:
    """A certified min-over-tau of max-over-x value with its optimizers."""

    value: float
    tau_star: float
    x_star: float


def _inner_max(objective, tau, x_coarse, zoom_rounds=3, zoom_points=240):
    """Max over x of objective(tau, .): coarse scan plus local dense zooms."""
    vals = objective(tau, x_coarse)
    k = int(np.argmax(vals))
    best_v = float(vals[k])
    best_x = float(x_coarse[k])
    lo = float(x_coarse[max(k - 1, 0)])
    hi = float(x_coarse[min(k + 1, x_coarse.size - 1)])
    for _ in range(zoom_rounds):
        xs = np.linspace(lo, hi, zoom_points)
        vv = objective(tau, xs)
        kk = int(np.argmax(vv))
        if vv[kk] > best_v:
            best_v = float(vv[kk])
            best_x = float(xs[kk])
        width = (hi - lo) / 10.0
        lo = max(best_x - width, float(x_coarse[0]))
        hi = best_x + width
    return best_v, best_x


def _certified_minimax(objective, tau_spec=DEFAULT_TAU_GRID,
                       x_spec=DEFAULT_X_GRID, refinement_depth=3) -> MinMaxResult:
    x_coarse = x_spec.points()
    taus = tau_spec.points()
    coarse = np.array([_inner_max(objective, t, x_coarse, zoom_rounds=1)[0]
                       for t in taus])
    vmin = float(coarse.min())
    i = int(np.flatnonzero(coarse <= vmin + 1e-12)[0])  # smallest-tau tie-break
    lo = float(taus[max(i - 1, 0)])
    hi = float(taus[min(i + 1, taus.size - 1)])

    def outer(tau):
        return _inner_max(objective, tau, x_coarse)[0]

    for _ in range(refinement_depth):
        target = (hi - lo) / 10.0
        c = hi - (hi - lo) * _GOLDEN
        d = lo + (hi - lo) * _GOLDEN
        f_c, f_d = outer(c), outer(d)
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
    value, x_star = _inner_max(objective, tau_star, x_coarse)
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
    u = tau * np.sqrt(x)
    ratio = j1_ratio(u)
    resid = j1_ratio_complement(u)
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


def nest_param_error_constant(x_spec=GridSpec(1e-8, 1e4, 200000, "log"),
                              zoom_rounds=3) -> tuple[float, float]:
    """Sup over x > 0 of (f(x)-1)^2 for the accelerated coupling factor.

    f(x) = (1 - 2J1(x)/x)(x^2+1)/x^2 tends to 1/8 as x -> 0+, so the sup
    49/64 = 0.765625 is approached (not attained) at the left end.  Returns
    (sup_value, x_at_sup).
    """
    xs = x_spec.points()

    def objective(_tau, x):
        return (j1_ratio_complement(x) * (x * x + 1.0) / (x * x) - 1.0) ** 2

    value, x_star = _inner_max(objective, 0.0, xs, zoom_rounds=zoom_rounds)
    return float(value), float(x_star)


def _hb_scan(mu_grid, s_grid, t_grid, t_positive: bool):
    """Validated (mu, s, t) meshgrid for the heavy-ball scans.

    Returns the admissible-node mask s >= mu and, per node, the kernel
    arguments a = t sqrt(mu), b = t sqrt(s - mu), x = t sqrt(s) and
    sqrt(kappa) = sqrt(s/mu).  t_positive rejects t = 0, which the
    parameter-error scan needs because it divides by x^2.
    """
    mu = np.asarray(mu_grid, dtype=float)
    s = np.asarray(s_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if (mu <= 0).any():
        raise ValueError("mu grid must be positive")
    if t_positive and (t <= 0).any():
        raise ValueError("t grid must be positive")
    if (t < 0).any():
        raise ValueError("t grid must be nonnegative")
    if (s <= 0).any():
        raise ValueError("s grid must be positive")
    big_mu, big_s, big_t = np.meshgrid(mu, s, t, indexing="ij")
    mask = big_s >= big_mu
    if not mask.any():
        raise ValueError("grid has no nodes with s >= mu")
    a = big_t * np.sqrt(big_mu)
    b = big_t * np.sqrt(np.where(mask, big_s - big_mu, 0.0))
    x = big_t * np.sqrt(big_s)
    return mask, a, b, x, np.sqrt(big_s / big_mu)


@dataclass(frozen=True)
class HbParamErrorReport:
    """Grid maxima of f^2 and (f-1)^2 for the heavy-ball coupling factor."""

    max_f_sq: float
    max_fm1_sq: float
    nodes_checked: int


def hb_param_error_check(mu_grid, s_grid, t_grid) -> HbParamErrorReport:
    """Scan f(x) = (1 - kernel)(x^2+1)/x^2 over an admissible (mu, s, t) grid.

    kernel is the damped cosine at a = t sqrt(mu), b = t sqrt(s - mu), and
    x = t sqrt(s).  Nodes with s < mu are skipped; the remaining maxima are
    the values CHECKS certifies against f^2 <= 16 and (f-1)^2 <= 25.
    """
    mask, a, b, x, _ = _hb_scan(mu_grid, s_grid, t_grid, t_positive=True)
    comp = hb_kernel_complement(a, b)
    f = comp * (x * x + 1.0) / (x * x)
    return HbParamErrorReport(
        max_f_sq=float((f * f)[mask].max()),
        max_fm1_sq=float(((f - 1.0) ** 2)[mask].max()),
        nodes_checked=int(mask.sum()),
    )


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


def tilde_h_maximizer(z: float) -> float:
    """Interior critical point x* = (z + sqrt(5 z^2 - 4))/2 (needs z >= 2/sqrt(5))."""
    disc = 5.0 * z * z - 4.0
    if disc < 0:
        raise ValueError("x* exists only for z >= 2/sqrt(5)")
    return (z + np.sqrt(disc)) / 2.0


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
    vals = tilde_h(xs, z)
    argmax = float(xs[int(np.argmax(vals))])
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


def tilde_h_crossover(sample_z=(0.5, 0.95, 2.0), tol: float = 1e-10) -> CrossoverResult:
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    z_star = 0.5 * (lo + hi)
    cases = tuple(_classify_tilde_h(float(z)) for z in sample_z)
    return CrossoverResult(z_star=z_star, cases=cases)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Variance-branch dominance and h recomposition along a kappa grid."""

    max_branch_gap: float        # max over grid of branch2 - 8 kappa^{2/3}
    max_equality_error: float    # max |8 tau^4 - 8 kappa^{2/3}| at tau = kappa^{1/6}
    max_recomposition_error: float


def hb_variance_bound_check(kappas=None) -> VarianceBoundReport:
    """At tau = kappa^{1/6}, the variance bound collapses to 8 kappa^{2/3}.

    Checks that 8 tau^4 equals 8 kappa^{2/3} and dominates the second
    branch 2(1+(tau/sqrt(kappa)+1)e^{-tau/sqrt(kappa)})^2, and that
    tilde_h(x*) + 8 kappa^{2/3} recomposes h(kappa) exactly.
    """
    if kappas is None:
        kappas = np.unique(np.concatenate([
            np.logspace(0.0, 4.0, 81), [1.0, 8.0, 1000.0]]))
    kappas = np.asarray(kappas, dtype=float)
    tau = kappas ** (1.0 / 6.0)
    target = 8.0 * kappas ** (2.0 / 3.0)
    branch1 = 8.0 * tau ** 4
    u = tau / np.sqrt(kappas)
    branch2 = 2.0 * (1.0 + (u + 1.0) * np.exp(-u)) ** 2
    equality_err = float(np.abs(branch1 - target).max())
    branch_gap = float((branch2 - target).max())
    z = np.cbrt(kappas)
    recomp = np.array([float(tilde_h(tilde_h_maximizer(zz), zz)) for zz in z])
    recomp_err = float(np.abs(recomp + target - h_kappa(kappas)).max())
    return VarianceBoundReport(max_branch_gap=branch_gap,
                               max_equality_error=equality_err,
                               max_recomposition_error=recomp_err)


@dataclass(frozen=True)
class HbInflationResult:
    """Tuned heavy-ball/ridge Bayes risk ratio against its envelope."""

    ratio: float
    bound: float
    ok: bool
    t_star: float


def hb_inflation_check(spectrum: Spectrum, prior: SignalModel,
                       t_grid=None) -> HbInflationResult:
    """Check 1 <= inf_t hb Bayes risk / optimal ridge Bayes risk <= h(kappa)."""
    if spectrum.mu <= 0:
        raise ValueError("heavy-ball inflation requires mu > 0")
    if t_grid is None:
        t_grid = np.logspace(-2, 3, 2000)
    ridge_opt, _ = optimal_ridge_bayes_risk(spectrum, prior)
    t_grid = np.asarray(t_grid, dtype=float)
    curve = risk_curve(spectrum, prior, FlowKind.HEAVY_BALL_FLOW, t_grid)
    risks = np.array([dec.risk for _, dec in curve])
    k = int(np.argmin(risks))
    ratio = float(risks[k]) / ridge_opt
    bound = h_kappa(spectrum.kappa)
    ok = (1.0 - 1e-9) <= ratio <= bound + 1e-9
    return HbInflationResult(ratio=ratio, bound=bound, ok=ok,
                             t_star=float(t_grid[k]))


@dataclass(frozen=True)
class KernelBoundReport:
    """Worst slack of the two pointwise kernel inequalities over a grid."""

    max_violation_bias: float
    max_violation_var_small_x: float
    max_violation_var_large_x: float
    nodes_checked: int


def hb_kernel_bound_checks(mu_grid, s_grid, t_grid) -> KernelBoundReport:
    """Check the two pointwise kernel inequalities on every admissible node.

    With a = t sqrt(mu), b = t sqrt(s-mu), x = t sqrt(s), kappa = s/mu:

      bias:  kernel(a,b)^2            <= (x/sqrt(kappa)+1)^2 e^{-2x/sqrt(kappa)}
      var:   (1-kernel(a,b))^2        <= 4 x^4                    for x <= 1
             (1-kernel(a,b))^2        <= (1+(x/sqrt(kappa)+1)e^{-x/sqrt(kappa)})^2
                                                                  for x >  1
    """
    mask, a, b, x, root_kappa = _hb_scan(mu_grid, s_grid, t_grid,
                                         t_positive=False)
    kernel = hb_kernel(a, b)
    rhs_bias = (x / root_kappa + 1.0) ** 2 * np.exp(-2.0 * x / root_kappa)
    viol_bias = float(np.maximum(kernel * kernel - rhs_bias, 0.0)[mask].max())
    comp_sq = hb_kernel_complement(a, b) ** 2
    small = mask & (x <= 1.0)
    large = mask & (x > 1.0)
    viol_small = float(np.maximum(comp_sq - 4.0 * x ** 4, 0.0)[small].max()) \
        if small.any() else 0.0
    rhs_var = (1.0 + (x / root_kappa + 1.0) * np.exp(-x / root_kappa)) ** 2
    viol_large = float(np.maximum(comp_sq - rhs_var, 0.0)[large].max()) \
        if large.any() else 0.0
    return KernelBoundReport(max_violation_bias=viol_bias,
                             max_violation_var_small_x=viol_small,
                             max_violation_var_large_x=viol_large,
                             nodes_checked=int(mask.sum()))


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


_HB_GRIDS = (np.logspace(-3, 1, 50), np.logspace(-3, 1, 50),
             np.logspace(-3, 2, 50))

# name -> row, in report order
CHECKS = {c.name: c for c in (
    Check("gradient_flow_inflation", "gf_inflation_constant",
          attrgetter("value"), 1.0786, 1e-3, overridable=True),
    Check("accelerated_inflation", "nest_inflation_constant",
          attrgetter("value"), 1.5991, 1e-3, overridable=True),
    Check("accelerated_param_error", "nest_param_error_constant",
          itemgetter(0), 49.0 / 64.0, 1e-4, overridable=True),
    Check("heavy_ball_f_sq", "hb_param_error_check", attrgetter("max_f_sq"),
          16.0, 1e-6, "le", args=_HB_GRIDS),
    Check("heavy_ball_param_error", "hb_param_error_check",
          attrgetter("max_fm1_sq"), 25.0, 1e-6, "le", args=_HB_GRIDS),
    Check("crossover_z", "tilde_h_crossover", attrgetter("z_star"), 0.907,
          1e-3, overridable=True),
    Check("crossover_case_structure", "tilde_h_crossover",
          lambda r: float(all(c.structure_ok for c in r.cases)), 1.0, 0.0),
    Check("h_recomposition", "hb_variance_bound_check",
          attrgetter("max_recomposition_error"), 0.0, 1e-10, "le"),
    Check("h_at_kappa_1", "h_kappa", float, float(8.0 + 8.0 * np.exp(-2.0)),
          1e-12, args=(1.0,)),
    Check("kernel_inequalities", "hb_kernel_bound_checks",
          lambda r: max(r.max_violation_bias, r.max_violation_var_small_x,
                        r.max_violation_var_large_x), 0.0, 1e-10, "le",
          args=(np.logspace(-3, 1, 40), np.logspace(-3, 1, 40),
                np.logspace(-3, 2, 40))),
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
