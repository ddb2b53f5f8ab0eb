"""Exact estimation-risk decompositions along every optimization path.

For any of the four families, the estimator is coordinatewise in the
covariance eigenbasis and its estimation risk E||bhat - b0||^2 splits as

    bias^2    = sum_i (v_i' b0)^2 g_i^2
    variance  = (sigma^2/n) sum_i (1 - g_i)^2 / s_i

where g_i is the family's shrinkage factor at eigenvalue s_i.  Null
directions (s_i = 0) have g_i = 1 for every family, so they contribute
their full signal energy to the bias and exactly zero to the variance;
the (1-g)^2/s form is continued by 0 there.

Two signal models are supported.  A fixed model carries the rotated true
coefficients v_i' b0 and the noise level; a prior model replaces each
(v_i' b0)^2 with r^2/p, which turns the risk into the Bayes risk with
effective signal strength alpha = r^2 n / (sigma^2 p).  The optimally
tuned ridge Bayes risk (sigma^2/n) sum_i alpha/(alpha s_i + 1), attained
at lambda = 1/alpha, is the floor every family is compared against.

Curves are computed directly from the spectrum, a block of grid points at
a time, through the single reduction bias_variance; they never form
estimator vectors.  The estimators module plus Monte Carlo provides the
independent cross-check of these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum
from .shrinkage import FlowKind, factor_block

__all__ = [
    "SignalModel",
    "RiskDecomposition",
    "OscillationReport",
    "bias_variance",
    "bias_variance_curve",
    "fixed_risk",
    "bayes_risk",
    "optimal_ridge_bayes_risk",
    "risk_curve",
    "oscillation_report",
    "risk_csv_text",
    "write_risk_csv",
    "RISK_CSV_HEADER",
]

RISK_CSV_HEADER = "kind,param,bias_sq,variance,risk"
# Factors per block in bias_variance_curve: large enough to amortize the
# per-call overhead at p = 100, small enough that p = 10^4 curves add no
# measurable peak memory.
_BLOCK_DOUBLES = 1 << 16


@dataclass(frozen=True)
class RiskDecomposition:
    """Squared bias and variance at one path point; risk is their sum."""

    bias_sq: float
    variance: float

    def __post_init__(self):
        if self.bias_sq < 0 or self.variance < 0:
            raise ValueError("bias_sq and variance must be nonnegative")

    @property
    def risk(self) -> float:
        return self.bias_sq + self.variance


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Fixed-coefficient or prior signal model for risk evaluation.

    mode "fixed" carries beta0_rotated (the coordinates v_i' b0) and
    sigma_sq; mode "prior" carries (r_sq, sigma_sq).  n is the sample count
    entering the noise scale sigma^2/n.
    """

    mode: str
    sigma_sq: float
    n: int
    beta0_rotated: np.ndarray | None = None
    r_sq: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "prior"):
            raise ValueError("mode must be 'fixed' or 'prior'")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.mode == "fixed":
            if self.beta0_rotated is None:
                raise ValueError("fixed mode requires beta0_rotated")
            b = np.asarray(self.beta0_rotated, dtype=float)
            if b.ndim != 1 or not np.isfinite(b).all():
                raise ValueError("beta0_rotated must be a finite 1-D vector")
            object.__setattr__(self, "beta0_rotated", b)
        else:
            if self.r_sq is None or self.r_sq <= 0:
                raise ValueError("prior mode requires r_sq > 0")

    @classmethod
    def fixed(cls, beta0_rotated, sigma_sq: float, n: int) -> "SignalModel":
        return cls(mode="fixed", sigma_sq=float(sigma_sq), n=int(n),
                   beta0_rotated=np.asarray(beta0_rotated, dtype=float))

    @classmethod
    def prior(cls, r_sq: float, sigma_sq: float, n: int) -> "SignalModel":
        return cls(mode="prior", sigma_sq=float(sigma_sq), n=int(n),
                   r_sq=float(r_sq))

    def alpha(self, p: int) -> float:
        """Effective signal strength r^2 n / (sigma^2 p) of the prior."""
        if self.mode != "prior":
            raise ValueError("alpha is defined for prior-mode signals")
        return self.r_sq * self.n / (self.sigma_sq * p)

    @property
    def noise_scale(self) -> float:
        return self.sigma_sq / self.n


def bias_variance(factors, s: np.ndarray, weights: np.ndarray,
                  noise_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Bias^2 and variance of each row G of a factor matrix.

    bias = (G*G) @ w and variance = noise_scale * ((1-G)^2 / s) @ [s > 0]:
    null directions contribute exactly 0 to the variance.  Dividing by s,
    rather than multiplying by 1/s, keeps a subnormal eigenvalue from
    overflowing to an infinite weight.
    """
    live = s > 0
    bias = (factors * factors) @ weights
    resid_sq = (1.0 - factors) ** 2 / np.where(live, s, 1.0)
    return bias, noise_scale * (resid_sq @ live.astype(float))


def bias_variance_curve(spectrum: Spectrum, weights: np.ndarray,
                        noise_scale: float, kind: FlowKind,
                        grid) -> tuple[np.ndarray, np.ndarray]:
    """bias_variance of one family along a grid, a block of rows at a time.

    Each block holds about _BLOCK_DOUBLES factors, so memory stays flat in
    the grid length whatever the spectrum size.
    """
    s = spectrum.eigenvalues
    grid = np.asarray(grid, dtype=float)
    rows = max(1, _BLOCK_DOUBLES // s.size)
    bias = np.empty(grid.size)
    variance = np.empty(grid.size)
    for lo in range(0, grid.size, rows):
        g = factor_block(kind, s, grid[lo:lo + rows], spectrum.mu)
        bias[lo:lo + rows], variance[lo:lo + rows] = bias_variance(
            g, s, weights, noise_scale)
    return bias, variance


def fixed_risk(spectrum: Spectrum, signal: SignalModel, kind: FlowKind,
               param: float) -> RiskDecomposition:
    """Risk decomposition for a fixed true coefficient vector."""
    if signal.mode != "fixed":
        raise ValueError("fixed_risk requires a fixed-mode signal")
    return risk_curve(spectrum, signal, kind, [param])[0][1]


def bayes_risk(spectrum: Spectrum, signal: SignalModel, kind: FlowKind,
               param: float) -> RiskDecomposition:
    """Bayes risk decomposition: fixed_risk with (v_i' b0)^2 -> r^2/p."""
    if signal.mode != "prior":
        raise ValueError("bayes_risk requires a prior-mode signal")
    return risk_curve(spectrum, signal, kind, [param])[0][1]


def optimal_ridge_bayes_risk(spectrum: Spectrum,
                             signal: SignalModel) -> tuple[float, float]:
    """Optimally tuned ridge Bayes risk and its tuning parameter.

    Returns ((sigma^2/n) sum_i alpha/(alpha s_i + 1), 1/alpha); the second
    entry equals sigma^2 p / (r^2 n).
    """
    if signal.mode != "prior":
        raise ValueError("optimal_ridge_bayes_risk requires a prior-mode signal")
    alpha = signal.alpha(spectrum.p)
    s = spectrum.eigenvalues
    risk = signal.noise_scale * float(np.sum(alpha / (alpha * s + 1.0)))
    return risk, 1.0 / alpha


def risk_curve(spectrum: Spectrum, signal: SignalModel, kind: FlowKind,
               grid) -> list[tuple[float, RiskDecomposition]]:
    """Risk decomposition at every grid point, in grid order.

    The grid must be ascending and nonnegative.  Fixed signals weight the
    bias by (v_i' b0)^2, prior signals by r^2/p, so one call covers both
    fixed and Bayes curves.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if (grid < 0).any() or (np.diff(grid) < 0).any():
        raise ValueError("grid must be ascending and nonnegative")
    if signal.mode == "fixed":
        if signal.beta0_rotated.size != spectrum.p:
            raise ValueError("beta0_rotated length does not match the spectrum")
        weights = signal.beta0_rotated ** 2
    else:
        weights = np.full(spectrum.p, signal.r_sq / spectrum.p)
    bias, variance = bias_variance_curve(spectrum, weights, signal.noise_scale,
                                         kind, grid)
    return [(float(t), RiskDecomposition(bias_sq=float(b), variance=float(v)))
            for t, b, v in zip(grid, bias, variance)]


@dataclass(frozen=True)
class OscillationReport:
    """Count of strict interior risk maxima and the largest min-to-max rise."""

    num_local_maxima: int
    max_rebound: float


def oscillation_report(curve) -> OscillationReport:
    """Locate risk oscillations along a curve from risk_curve.

    A local maximum is a strict interior peak r[k-1] < r[k] > r[k+1]; the
    rebound of a peak is its height above the lowest point since the
    previous peak (or since the start).  Monotone curves report (0, 0).
    """
    if len(curve) < 3:
        raise ValueError("oscillation_report requires at least 3 points")
    r = np.array([dec.risk for _, dec in curve], dtype=float)
    interior = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
    max_rebound = 0.0
    prev = 0
    for k in interior:
        trough = float(r[prev:k + 1].min())
        max_rebound = max(max_rebound, float(r[k]) - trough)
        prev = int(k)
    return OscillationReport(num_local_maxima=int(interior.size),
                             max_rebound=max_rebound)


def _fmt(v: float) -> str:
    """A double with 17 significant digits, which round-trips it exactly."""
    return format(float(v), ".17g")


def risk_csv_text(kind: FlowKind, curve) -> str:
    """A curve as CSV text with the header kind,param,bias_sq,variance,risk."""
    rows = [RISK_CSV_HEADER] + [
        ",".join([kind.value, _fmt(param), _fmt(dec.bias_sq),
                  _fmt(dec.variance), _fmt(dec.risk)])
        for param, dec in curve]
    return "\n".join(rows) + "\n"


def write_risk_csv(path, kind: FlowKind, curve) -> None:
    """Write risk_csv_text(kind, curve) to path."""
    with open(path, "w") as fh:
        fh.write(risk_csv_text(kind, curve))
