"""Per-eigenvalue shrinkage factors for the four estimator families.

Each estimator acts on a least-squares instance coordinatewise in the
covariance eigenbasis: coordinate i of the path equals (1 - g(s_i, .))
times the unregularized target, where g is the family's shrinkage factor,

    gradient flow     g = exp(-t s)
    accelerated flow  g = 2 J1(t sqrt(s)) / (t sqrt(s))
    heavy-ball flow   g = exp(-sqrt(mu) t) (cos(t b) + sqrt(mu) sin(t b)/b),
                      b = sqrt(s - mu)
    ridge             g = lambda / (s + lambda)

with g = 1 at s = 0 for every family, ridge at lambda = 0 included (its
0/0 takes that limit): null directions are never moved.
The heavy-ball map takes mu (the global damping level, normally the
smallest covariance eigenvalue) as an explicit argument and is only defined
for 0 < mu <= s.  Its kernels take a = t sqrt(mu) and b = t sqrt(s - mu),
the two variables the heavy-ball certificates in bounds scan over, and the
removable sin(b)/b singularity at b = 0 (s = mu) is evaluated by series.

One formula table gives every factor, one row per path parameter and one
column per eigenvalue; a single factor is the [0, 0] entry of a
one-by-one block.  Validation happens once, at the boundary.  factor_block
is the entry for raw arrays (in the package, only the shrink command calls
it): it checks each bound with one min/max pair and then calls
_factor_rows, the table behind it.  Callers that already hold valid input
(a Spectrum's eigenvalues are finite, >= 0 and ascending, so s >= mu, and
their parameters were checked by _path_params), risk.risk_curve and the
estimators, call _factor_rows directly; it keeps only the heavy-ball rule
mu > 0.  The table calls the public kernels j1_ratio and hb_kernel
through this module's globals, so a tracer that swaps them sees every
evaluation.  Below the table, j1_ratio still checks its own domain on
every call, and the heavy-ball kernels check nothing.  Everything here is
pure and stateless.

Finite input gives a finite factor, by one rule: each formula forms its
arguments with overflow ignored, evaluates, and takes its limit only where
an argument came out infinite, found by one mask test per call.  A flow
factor whose argument overflowed takes its limit 0: exp(-inf);
2 J1(u)/u, below the smallest subnormal once u > 1e243 by Landau's
|J1(u)| <= 0.7858 u^(-1/3); and the heavy-ball kernel, at most
(1 + a) e^{-a}, where exp(-a) == 0.  An overflowed b where exp(-a) > 0
has no limit and is refused by name.  A ridge factor whose s + lambda
overflows halves both terms, which is exact there (neither is subnormal).
Other entries keep their bits.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .special import j1_ratio

__all__ = [
    "FlowKind",
    "factor_block",
    "hb_kernel",
    "hb_kernel_complement",
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
        """A kind by its token or member name, in any case, - and _ ignored."""
        aliases = {alias.lower().replace("_", ""): kind
                   for kind in cls for alias in (kind.value, kind.name)}
        key = token.strip().lower().replace("_", "").replace("-", "")
        if key not in aliases:
            raise ValueError(f"unknown flow kind {token!r}")
        return aliases[key]


def _scalar_or_array(out):
    """A float for a 0-d result (both kernel inputs 0-d), else the array."""
    return float(out) if np.ndim(out) == 0 else out


def _sinc(u):
    """sin(u)/u with the series 1 - u^2/6 + u^4/120 below the cutoff.

    The division runs only where the series does not overwrite, so no 0/0
    forms at u = 0.  The result is an array of u's shape, 0-d for a scalar.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_CUTOFF
    out = np.sin(u, out=np.empty_like(u))  # an array even when u is 0-d
    np.divide(out, u, out=out, where=~small)
    if small.any():
        us = u[small]
        out[small] = 1.0 - us * us / 6.0 + us ** 4 / 120.0
    return out


def hb_kernel(a, b):
    """The damped-cosine impulse response exp(-a) (cos b + a sin(b)/b).

    With a = t sqrt(mu) and b = t sqrt(s - mu) this is the heavy-ball
    shrinkage factor; the sin(b)/b factor continues through b = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a * _sinc(b)  # already the broadcast shape; the rest is in place
    out += np.cos(b)
    out *= np.exp(-a)
    return _scalar_or_array(out)


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
    # the broadcast shape already; asarray keeps two 0-d inputs an array
    out = np.asarray(a * _sinc(b))
    np.subtract(2.0 * np.sin(b / 2.0) ** 2, out, out=out)
    out *= np.exp(-a)
    out -= np.expm1(-a)
    return _scalar_or_array(out)


def _nest(s, t, mu):
    """2 J1(u)/u at u = t sqrt(s), with its limit 0 wherever u overflows."""
    u = t * np.sqrt(s)
    over = np.isinf(u)
    if not np.count_nonzero(over):
        return j1_ratio(u)
    out = j1_ratio(np.where(over, 0.0, u))
    out[over] = 0.0
    return out


def _hb(s, t, mu):
    """The heavy-ball kernel, with its limit 0 wherever a or b overflows."""
    a, b = t * np.sqrt(mu), t * np.sqrt(s - mu)
    over = np.isinf(a) | np.isinf(b)
    if not np.count_nonzero(over):
        return hb_kernel(a, b)
    if (over & (np.exp(-a) > 0.0)).any():
        raise ValueError("heavy-ball argument t sqrt(s - mu) overflows "
                         "where exp(-t sqrt(mu)) > 0")
    out = hb_kernel(np.where(np.isinf(a), 0.0, a), np.where(over, 0.0, b))
    out[over] = 0.0
    return out


def _ridge_terms(num, s, lam):
    """num and s + lambda, both halved where s + lambda overflows (exact)."""
    den = s + lam
    over = np.isinf(den)
    if not np.count_nonzero(over):
        return num, den
    half = np.where(over, 0.5, 1.0)
    return num * half, s * half + lam * half


def _ridge(s, lam, mu):
    """lambda / (s + lambda), with its limit 1 where s = lambda = 0."""
    out = np.divide(*_ridge_terms(lam, s, lam))
    if np.count_nonzero(lam == 0.0):   # one test of the parameter column
        out[(lam == 0.0) & (s == 0.0)] = 1.0
    return out


# The one map from a family to its closed form f(s, param, mu); every entry
# broadcasts s against param and takes its own limit where an argument
# overflows (module docstring).
_FORMULAS = {
    FlowKind.GRADIENT_FLOW: lambda s, t, mu: np.exp(-t * s),
    FlowKind.ACCELERATED_FLOW: _nest,
    FlowKind.HEAVY_BALL_FLOW: _hb,
    FlowKind.RIDGE: _ridge,
}


def _path_params(params):
    """params as a 1-D float array; a scalar counts as length 1.

    The one rule for times and penalties of every family: ValueError unless
    each is finite and >= 0, checked by float comparisons for a scalar and
    by one min/max pair for an array (a NaN makes both NaN).
    """
    params = np.asarray(params, dtype=float)
    if params.ndim == 0:
        lo = hi = float(params)
        params = params.reshape(1)
    elif params.ndim != 1:
        raise ValueError("path parameters must be 1-D")
    elif params.size:
        lo, hi = float(params.min()), float(params.max())
    else:
        lo = hi = 0.0
    if not (lo >= 0.0 and hi < np.inf):
        raise ValueError("path parameter must be finite and >= 0")
    return params


def factor_block(kind: FlowKind, s, params, mu=None) -> np.ndarray:
    """Shrinkage factors, one row per path parameter, one column per eigenvalue.

    s and params are 1-D (scalars count as length 1); params are times for
    the flows and penalties for ridge.  mu is the heavy-ball damping level
    and is ignored by the other families.  Raises ValueError on non-finite
    or negative input and on heavy ball without 0 < mu <= s.  Ridge at
    s = lambda = 0 takes its limit 1, as every family does at s = 0.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    params = _path_params(params)
    if s.ndim != 1:
        raise ValueError("eigenvalues must be 1-D")
    lo, hi = (s.min(), s.max()) if s.size else (np.inf, 0.0)
    if not (lo >= 0.0 and hi < np.inf):
        raise ValueError("eigenvalues must be finite and >= 0")
    if kind is FlowKind.HEAVY_BALL_FLOW:
        if mu is None or not (np.isfinite(mu) and mu > 0.0):
            raise ValueError("heavy-ball flow requires a finite mu > 0")
        if lo < mu:
            raise ValueError("heavy-ball flow requires s >= mu")
    with np.errstate(over="ignore", invalid="ignore"):
        return _factor_rows(kind, s, params, mu)


def _factor_rows(kind: FlowKind, s: np.ndarray, params: np.ndarray,
                 mu) -> np.ndarray:
    """The formula table of factor_block, on input it need not check again.

    s and params are 1-D, finite and >= 0, with s >= mu for heavy ball, as
    with a Spectrum and checked parameters.  Only the heavy-ball rule
    mu > 0 is checked here (a Spectrum may have mu = 0).  The caller runs
    it with overflow and invalid operations ignored.
    """
    if kind is FlowKind.HEAVY_BALL_FLOW and not mu > 0.0:
        raise ValueError("heavy-ball flow requires a finite mu > 0")
    return _FORMULAS[kind](s[None, :], params[:, None], mu)
