"""Closed-form coefficient paths and the flow-to-ridge coupling gap.

In spectral coordinates the path of every family is

    alpha_i(param) = (1 - g_i) c_i / s_i   for s_i > 0,
    alpha_i(param) = 0                     for s_i = 0,

with c_i = v_i' X' y / n the rotated response channel, mapped back through
V.  The zero on null directions is the pseudo-inverse convention: those
coordinates start at zero and the dynamics never move them.  Ridge replaces
(1 - g_i)/s_i by 1/(s_i + lambda), which agrees with its shrinkage factor.

The coupling gap compares a flow at time t with ridge at lambda = 1/t^2 on
the same realized data.  Per coordinate the discrepancy is a bounded
multiple of the ridge coordinate itself, so the squared gap never exceeds a
universal constant times the squared ridge norm: 49/64 for the accelerated
family and 25 for heavy ball.  The bound holds for every realization, not
just in expectation, and the bounds module certifies the two constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDesign
from .shrinkage import FlowKind, factor_block, profile

__all__ = ["CoefficientPathPoint", "flow_estimate", "ridge_estimate",
           "coefficient_path", "coupling_gap"]

_FLOW_KINDS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
               FlowKind.HEAVY_BALL_FLOW)


@dataclass(frozen=True, eq=False)
class CoefficientPathPoint:
    """One sampled point of a coefficient path.

    Every flow starts from rest, so beta_hat is exactly the zero vector at
    param = 0.
    """

    param: float
    beta_hat: np.ndarray


def _require_response(design: SpectralDesign) -> np.ndarray:
    if not design.has_response:
        raise ValueError("design has no attached response")
    return design.rotated_channel


def flow_estimate(design: SpectralDesign, kind: FlowKind, t: float) -> np.ndarray:
    """Coefficient vector of a flow at time t, in the original basis."""
    if kind not in _FLOW_KINDS:
        raise ValueError("flow_estimate covers the three flows; use ridge_estimate")
    c = _require_response(design)
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    s = design.spectrum.eigenvalues
    g = profile(design.spectrum, kind, t).factors
    coords = np.zeros_like(c)
    live = s > 0
    coords[live] = (1.0 - g[live]) * c[live] / s[live]
    return design.v_basis @ coords


def ridge_estimate(design: SpectralDesign, lam: float) -> np.ndarray:
    """Ridge coefficient vector at penalty lambda, in the original basis."""
    c = _require_response(design)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    s = design.spectrum.eigenvalues
    if lam == 0.0 and design.spectrum.mu == 0.0:
        raise ValueError("lambda = 0 requires a full-rank spectrum")
    coords = c / (s + lam)
    return design.v_basis @ coords


def coefficient_path(design: SpectralDesign, kind: FlowKind,
                     params) -> list[CoefficientPathPoint]:
    """Sample a family's coefficient path at several parameter values."""
    out = []
    for p in np.asarray(params, dtype=float):
        if kind is FlowKind.RIDGE:
            beta = ridge_estimate(design, float(p))
        else:
            beta = flow_estimate(design, kind, float(p))
        out.append(CoefficientPathPoint(param=float(p), beta_hat=beta))
    return out


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
    s = design.spectrum.eigenvalues
    times = np.atleast_1d(t_arr)
    g = factor_block(kind, s, times, design.spectrum.mu)
    # g = 1 on null directions in every family, so the flow stays 0 there
    flow = (1.0 - g) * c / np.where(s > 0, s, 1.0)
    # (1/t)^2 underflows to lambda = 0 for huge t and overflows to
    # lambda = inf for tiny t, where ridge is then exactly 0: both are the
    # intended limits
    with np.errstate(over="ignore"):
        lam = (1.0 / times) ** 2
    ridge = c / (s + lam[:, None])
    diff = flow - ridge
    gap = (diff * diff).sum(axis=1)
    ridge_norm_sq = (ridge * ridge).sum(axis=1)
    if t_arr.ndim == 0:
        gap, norm_sq = float(gap[0]), float(ridge_norm_sq[0])
        return gap, norm_sq, gap / norm_sq if norm_sq > 0 else 0.0
    ratio = np.divide(gap, ridge_norm_sq, out=np.zeros_like(gap),
                      where=ridge_norm_sq > 0)
    return gap, ridge_norm_sq, ratio
