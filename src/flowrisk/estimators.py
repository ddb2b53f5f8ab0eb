"""Closed-form coefficient paths and the flow-to-ridge coupling gap.

In spectral coordinates the path of every family is

    alpha_i(param) = (1 - g_i) c_i / s_i   for s_i > 0,
    alpha_i(param) = 0                     for s_i = 0,

with c_i = v_i' X' y / n the rotated response channel, mapped back through
V.  The zero on null directions is the pseudo-inverse convention: those
coordinates start at zero and the dynamics never move them.  Ridge replaces
(1 - g_i)/s_i by 1/(s_i + lambda), which agrees with its shrinkage factor,
and keeps the same zero: on a null direction c_i is only rounding noise,
which c_i / lambda would blow up for small lambda.  estimate evaluates a
whole parameter grid at once and rotates back with one matmul by V.

The coupling gap compares a flow at time t with ridge at lambda = 1/t^2 on
the same realized data.  Per coordinate the discrepancy is a bounded
multiple of the ridge coordinate itself, so the squared gap never exceeds a
universal constant times the squared ridge norm: 49/64 for the accelerated
family and 25 for heavy ball.  The bound holds for every realization, not
just in expectation, and the bounds module certifies the two constants.

Each value is validated once, where it enters: estimate checks its
parameters and coupling_gap its times, and a Spectrum's eigenvalues were
checked when it was built.  _spectral_rows therefore validates nothing and
calls shrinkage._factor_rows, the formula table behind factor_block, which
keeps only the heavy-ball rule mu > 0.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpectralDesign, Spectrum
from .shrinkage import FlowKind, _factor_rows, _path_params

__all__ = ["estimate", "coupling_gap"]


def _require_response(design: SpectralDesign) -> np.ndarray:
    if not design.has_response:
        raise ValueError("design has no attached response")
    return design.rotated_channel


def _spectral_rows(spectrum: Spectrum, c: np.ndarray, kind: FlowKind,
                   params: np.ndarray) -> np.ndarray:
    """Spectral coordinates of a family, one row per parameter.

    c is the channel per eigenvalue.  A flow row is (1 - g) c / s with g
    from the factor table, a ridge row c / (s + lambda); both are
    exactly 0 wherever s = 0, where c is rounding noise that c / lambda
    would otherwise amplify.  params are 1-D and not validated here: flow
    times were checked by the caller, and ridge may get lambda = 0 or inf,
    its intended limits.
    """
    s = spectrum.eigenvalues
    if kind is FlowKind.RIDGE:
        num, den = c, s + params[:, None]
    else:
        num = (1.0 - _factor_rows(kind, s, params, spectrum.mu, s[-1])) * c
        den = s
    return np.divide(num, den, out=np.zeros((params.size, s.size)),
                     where=s > 0)


def estimate(design: SpectralDesign, kind: FlowKind, params) -> np.ndarray:
    """Coefficient vectors of a family, one row per parameter.

    params are times for the flows and penalties for ridge, each finite and
    >= 0; ridge at lambda = 0 also needs a full-rank spectrum.  Returns a
    (len(params), p) array in the original basis; every flow row at t = 0
    is exactly zero.
    """
    params = _path_params(params)
    if (kind is FlowKind.RIDGE and (params == 0.0).any()
            and design.spectrum.mu == 0.0):
        raise ValueError("lambda = 0 requires a full-rank spectrum")
    rows = _spectral_rows(design.spectrum, _require_response(design), kind,
                          params)
    return (design.v_basis @ rows.T).T


def coupling_gap(design: SpectralDesign, kind: FlowKind, t):
    """Squared distance between a flow at t and ridge at 1/t^2.

    Returns (gap, ridge_norm_sq, ratio) for one realized response; ratio is
    defined as 0 when the ridge vector vanishes (the flow vector then
    vanishes too).  A scalar t gives three floats, a 1-D grid of t three
    arrays of its length.  Both vectors are compared in spectral
    coordinates, which V, being orthogonal, leaves the norms of unchanged.
    """
    if kind not in (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW):
        raise ValueError("coupling_gap is defined for the accelerated and "
                         "heavy-ball flows")
    t_arr = np.asarray(t, dtype=float)
    if (t_arr <= 0).any():
        raise ValueError("t must be > 0")
    c = _require_response(design)
    times = _path_params(t_arr)
    flow = _spectral_rows(design.spectrum, c, kind, times)
    # (1/t)^2 underflows to lambda = 0 for huge t and overflows to
    # lambda = inf for tiny t, where ridge is then exactly 0: both are the
    # intended limits
    with np.errstate(over="ignore"):
        lam = (1.0 / times) ** 2
    ridge = _spectral_rows(design.spectrum, c, FlowKind.RIDGE, lam)
    diff = flow - ridge
    gap = (diff * diff).sum(axis=1)
    ridge_norm_sq = (ridge * ridge).sum(axis=1)
    if t_arr.ndim == 0:
        gap, norm_sq = float(gap[0]), float(ridge_norm_sq[0])
        return gap, norm_sq, gap / norm_sq if norm_sq > 0 else 0.0
    ratio = np.divide(gap, ridge_norm_sq, out=np.zeros_like(gap),
                      where=ridge_norm_sq > 0)
    return gap, ridge_norm_sq, ratio
