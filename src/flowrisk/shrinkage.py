"""Per-eigenvalue shrinkage factors for the four estimator families.

Each estimator acts on a least-squares instance coordinatewise in the
covariance eigenbasis: coordinate i of the path equals (1 - g(s_i, .))
times the unregularized target, where g is the family's shrinkage factor,

    gradient flow     g = exp(-t s)
    accelerated flow  g = 2 J1(t sqrt(s)) / (t sqrt(s))
    heavy-ball flow   g = exp(-sqrt(mu) t) (cos(t b) + sqrt(mu) sin(t b)/b),
                      b = sqrt(s - mu)
    ridge             g = lambda / (s + lambda)

with g = 1 at s = 0 for every family: null directions are never moved.
The heavy-ball map keeps mu (the global damping level, normally the
smallest covariance eigenvalue) as an explicit argument so grid scans over
(s, mu, t) stay possible; it is only defined for 0 < mu <= s, and the
removable sin(t b)/b singularity at s = mu is evaluated by series.

factor_block is the one evaluator: it validates its input and looks the
family up in a single formula table.  profile and the *_shrink helpers are
views of it; a helper returns one factor per (parameter, eigenvalue) pair,
shaped param.shape + s.shape, and a float for two scalars.  Everything
here is pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import Spectrum
from .special import j1_ratio

__all__ = [
    "FlowKind",
    "ShrinkageProfile",
    "gf_shrink",
    "nest_shrink",
    "hb_shrink",
    "ridge_shrink",
    "factor_block",
    "hb_kernel",
    "hb_kernel_complement",
    "profile",
]

# sin(u)/u switches to its series below this; the design keeps the branch
# exact to ~1e-25 at the cutoff.
_SINC_CUTOFF = 1e-6


class FlowKind(Enum):
    """The four estimator families, keyed by their CLI/CSV tokens."""

    GRADIENT_FLOW = "gf"
    ACCELERATED_FLOW = "nest"
    HEAVY_BALL_FLOW = "hb"
    RIDGE = "ridge"

    @classmethod
    def parse(cls, token: str) -> "FlowKind":
        aliases = {
            "gf": cls.GRADIENT_FLOW,
            "gradientflow": cls.GRADIENT_FLOW,
            "nest": cls.ACCELERATED_FLOW,
            "acceleratedflow": cls.ACCELERATED_FLOW,
            "hb": cls.HEAVY_BALL_FLOW,
            "heavyballflow": cls.HEAVY_BALL_FLOW,
            "ridge": cls.RIDGE,
        }
        key = token.strip().lower().replace("_", "").replace("-", "")
        if key not in aliases:
            raise ValueError(f"unknown flow kind {token!r}")
        return aliases[key]


@dataclass(frozen=True, eq=False)
class ShrinkageProfile:
    """Shrinkage factors of one family across a whole spectrum."""

    kind: FlowKind
    t_or_lambda: float
    factors: np.ndarray


def _scalar_or_array(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _sinc(u):
    """sin(u)/u with the series 1 - u^2/6 + u^4/120 below the cutoff."""
    u = np.asarray(u, dtype=float)
    vec = np.atleast_1d(u)
    out = np.empty_like(vec)
    small = np.abs(vec) < _SINC_CUTOFF
    us = vec[small]
    out[small] = 1.0 - us * us / 6.0 + us ** 4 / 120.0
    ub = vec[~small]
    out[~small] = np.sin(ub) / ub
    return out.reshape(u.shape)


def hb_kernel(a, b):
    """The damped-cosine impulse response exp(-a) (cos b + a sin(b)/b).

    With a = t sqrt(mu) and b = t sqrt(s - mu) this is the heavy-ball
    shrinkage factor; the sin(b)/b factor continues through b = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.exp(-a) * (np.cos(b) + a * _sinc(b))
    return _scalar_or_array(out, a, b)


def hb_kernel_complement(a, b):
    """1 - hb_kernel(a, b), assembled without the leading cancellation.

    Computed as -expm1(-a) + exp(-a) (2 sin^2(b/2) - a sin(b)/b).  Each
    piece carries full relative precision, leaving an absolute error of
    order eps*max(a, b^2) where the a-sized pieces cancel; dividing by
    x^2 = a^2 + b^2 then costs only O(eps/x), versus O(eps/x^2) for naive
    subtraction, which is what the coupling and inflation objectives need.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = -np.expm1(-a) + np.exp(-a) * (2.0 * np.sin(b / 2.0) ** 2 - a * _sinc(b))
    return _scalar_or_array(out, a, b)


# The one map from a family to its closed form f(s, param, mu); every entry
# broadcasts s against param.
_FORMULAS = {
    FlowKind.GRADIENT_FLOW: lambda s, t, mu: np.exp(-t * s),
    FlowKind.ACCELERATED_FLOW: lambda s, t, mu: j1_ratio(t * np.sqrt(s)),
    FlowKind.HEAVY_BALL_FLOW:
        lambda s, t, mu: hb_kernel(t * np.sqrt(mu), t * np.sqrt(s - mu)),
    FlowKind.RIDGE: lambda s, lam, mu: lam / (s + lam),
}


def factor_block(kind: FlowKind, s, params, mu=None) -> np.ndarray:
    """Shrinkage factors, one row per path parameter, one column per eigenvalue.

    s and params are 1-D (scalars count as length 1); params are times for
    the flows and penalties for ridge.  mu is the heavy-ball damping level
    and is ignored by the other families.  Raises ValueError on non-finite
    or negative input, on heavy ball without 0 < mu <= s, and on ridge at
    s = lambda = 0 (naming the eigenvalue index).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if s.ndim != 1 or params.ndim != 1:
        raise ValueError("eigenvalues and path parameters must be 1-D")
    if not np.isfinite(params).all() or (params < 0).any():
        raise ValueError("path parameter must be finite and >= 0")
    if not np.isfinite(s).all() or (s < 0).any():
        raise ValueError("eigenvalues must be finite and >= 0")
    if kind is FlowKind.HEAVY_BALL_FLOW:
        if mu is None or not (np.isfinite(mu) and mu > 0.0):
            raise ValueError("heavy-ball flow requires a finite mu > 0")
        if (s < mu).any():
            raise ValueError("heavy-ball flow requires s >= mu")
    if kind is FlowKind.RIDGE and (params == 0.0).any():
        zero = np.flatnonzero(s == 0.0)
        if zero.size:
            raise ValueError(f"ridge factor undefined at eigenvalue index {zero[0]}: "
                             "s = 0 and lambda = 0")
    return _FORMULAS[kind](s[None, :], params[:, None], mu)


def _pointwise(kind, s, param, mu=None):
    out = factor_block(kind, np.ravel(s), np.ravel(param), mu)
    return _scalar_or_array(out.reshape(np.shape(param) + np.shape(s)), s, param)


def gf_shrink(s, t):
    """Gradient-flow factor exp(-t s); in [0, 1] for s, t >= 0."""
    return _pointwise(FlowKind.GRADIENT_FLOW, s, t)


def nest_shrink(s, t):
    """Accelerated-flow factor 2 J1(t sqrt(s)) / (t sqrt(s)).

    Equals 1 whenever t*sqrt(s) = 0, which covers both the start of the
    path and null directions.
    """
    return _pointwise(FlowKind.ACCELERATED_FLOW, s, t)


def hb_shrink(s, mu, t):
    """Heavy-ball factor exp(-sqrt(mu) t)(cos(t b) + sqrt(mu) sin(t b)/b).

    Requires 0 < mu <= s and t >= 0.  At s = mu the factor continues to
    (1 + sqrt(mu) t) exp(-sqrt(mu) t).  Hypothetical s < mu (a hyperbolic
    branch) is rejected rather than extended.
    """
    return _pointwise(FlowKind.HEAVY_BALL_FLOW, s, t, float(mu))


def ridge_shrink(s, lam):
    """Ridge factor lambda / (s + lambda); 1 at s = 0 when lambda > 0.

    The corner s = lambda = 0 is an undefined 0/0 and is rejected.
    """
    return _pointwise(FlowKind.RIDGE, s, lam)


def profile(spectrum: Spectrum, kind: FlowKind, t_or_lambda: float) -> ShrinkageProfile:
    """Shrinkage factors of one family on every eigenvalue of a spectrum."""
    param = float(t_or_lambda)
    factors = factor_block(kind, spectrum.eigenvalues, param, spectrum.mu)[0]
    return ShrinkageProfile(kind=kind, t_or_lambda=param, factors=factors)
