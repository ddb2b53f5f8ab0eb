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
checked when it was built.  _spectral_rows therefore validates nothing:
its flow rows call shrinkage._factor_rows, the formula table behind
factor_block, which keeps only the heavy-ball rule mu > 0 and takes each
formula's limit where an argument overflows, and its ridge rows call the
table's ridge rule, shrinkage._ridge_terms.  coupling_gap checks a scalar t by float comparisons and forms its
lambda = (1/t)(1/t) in Python floats, with no numpy reduction; past that
point a scalar is a one-point grid, and the flow and ridge rows share one
s > 0 mask.

coupling_gap follows estimate's rule for overflow and underflow: form,
then check what came out.  Its lambdas, flow-minus-ridge and ridge rows
and their sums of squares are formed with overflow ignored.  Where every
gap and every ridge norm lies in [2^-968, inf), the plain sums are the
answer.  Otherwise a coordinate past the largest double is refused
by name as estimate refuses it, and each failing t's diff and ridge rows
are divided by one power of two at their largest |entry|, summed again,
and gap and norm multiplied back by its square (J. L. Blue, ACM TOMS 4(1),
1978, the idea behind LAPACK's dnrm2).  The other rows keep their plain
sums, so a grid gives each t the bits of its own scalar call.  A gap below
2^-968 (a subnormal one has lost bits, and one whose squares underflowed
is 0) is rescaled too; a gap of exact zeros stays 0.  Only the gap and the
ridge norm, where they pass the largest double, are then inf, never the
ratio.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpectralDesign, Spectrum
from .shrinkage import FlowKind, _factor_rows, _path_params, _ridge_terms

__all__ = ["estimate", "coupling_gap"]

# 2^54 times the smallest normal double: a smaller gap or ridge norm is
# rescaled
_TINY_NORM_SQ = 2.0 ** -968


def _require_response(design: SpectralDesign) -> np.ndarray:
    if not design.has_response:
        raise ValueError("design has no attached response")
    return design.rotated_channel


def _spectral_rows(spectrum: Spectrum, c: np.ndarray, kind: FlowKind,
                   params: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Spectral coordinates of a family, one row per parameter.

    c is the channel per eigenvalue and positive the mask s > 0, which a
    caller building several rows computes once.  A flow row is
    (1 - g) c / s with g from the factor table, a ridge row c / (s + lambda);
    both are exactly 0 wherever s = 0, where c is rounding noise that
    c / lambda would otherwise amplify.  params are 1-D and not validated
    here: flow times were checked by the caller, and ridge may get
    lambda = 0 or inf, its intended limits.  Where s + lambda overflows,
    the ridge row follows shrinkage's one rule, _ridge_terms.  The caller
    runs it with overflow and invalid operations ignored.
    """
    s = spectrum.eigenvalues
    if kind is FlowKind.RIDGE:
        num, den = _ridge_terms(c, s, params[:, None])
    else:
        num = (1.0 - _factor_rows(kind, s, params, spectrum.mu)) * c
        den = s
    return np.divide(num, den, out=np.zeros((params.size, s.size)),
                     where=positive)


def estimate(design: SpectralDesign, kind: FlowKind, params) -> np.ndarray:
    """Coefficient vectors of a family, one row per parameter.

    params are times for the flows and penalties for ridge, each finite and
    >= 0; ridge at lambda = 0 also needs a full-rank spectrum.  Returns a
    (len(params), p) array in the original basis; every flow row at t = 0
    is exactly zero.  A coefficient past the largest double (where a
    |c_i| / s_i does) is a ValueError.
    """
    params = _path_params(params)
    if (kind is FlowKind.RIDGE and (params == 0.0).any()
            and design.spectrum.mu == 0.0):
        raise ValueError("lambda = 0 requires a full-rank spectrum")
    spectrum = design.spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _spectral_rows(spectrum, _require_response(design), kind,
                              params, spectrum.eigenvalues > 0)
        out = (design.v_basis @ rows.T).T
    if not np.isfinite(out).all():
        raise ValueError(f"a {kind.value} coefficient passes the largest double")
    return out


def coupling_gap(design: SpectralDesign, kind: FlowKind, t):
    """Squared distance between a flow at t and ridge at 1/t^2.

    Returns (gap, ridge_norm_sq, ratio) for one realized response; ratio is
    defined as 0 when the ridge vector vanishes (the flow vector then
    vanishes too).  A scalar t gives three floats, a 1-D grid of t three
    arrays of its length.  Both vectors are compared in spectral
    coordinates, which V, being orthogonal, leaves the norms of unchanged.

    Checks run in this order: the kind, t > 0, the response, then the shape
    and finiteness of t (_path_params), then heavy ball's mu > 0.  A scalar
    t (0-d) is checked by float comparisons and its lambda formed in Python
    floats; a grid is checked by numpy comparisons and one min/max pair.
    Past validation both take one path: one s > 0 mask, one reduction,
    one check of its sums (module docstring).  A flow or ridge coordinate
    past the largest double is a ValueError.
    """
    if kind not in (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW):
        raise ValueError("coupling_gap is defined for the accelerated and "
                         "heavy-ball flows")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if (float(t_arr) <= 0.0) if scalar else (t_arr <= 0).any():
        raise ValueError("t must be > 0")
    c = _require_response(design)
    times = _path_params(t_arr)
    spectrum = design.spectrum
    positive = spectrum.eigenvalues > 0
    with np.errstate(over="ignore", invalid="ignore"):
        # (1/t)^2 underflows to lambda = 0 for huge t and overflows to
        # lambda = inf for tiny t, where ridge is then exactly 0: both are
        # the intended limits.  A Python float overflows without a
        # warning, and (1/t)(1/t) is the double numpy's (1/t)**2 gives.
        if scalar:
            inv = 1.0 / float(t_arr)
            lam = np.array([inv * inv])
        else:
            lam = (1.0 / times) ** 2
        ridge = _spectral_rows(spectrum, c, FlowKind.RIDGE, lam, positive)
        diff = _spectral_rows(spectrum, c, kind, times, positive) - ridge
        gap, norm_sq = _sums_of_squares(diff, ridge)
        if scalar:
            gap, norm_sq = float(gap[0]), float(norm_sq[0])
        plain = ((gap >= _TINY_NORM_SQ) & (gap < np.inf)
                 & (norm_sq >= _TINY_NORM_SQ) & (norm_sq < np.inf))
        if (plain if scalar else plain.all()):
            return gap, norm_sq, gap / norm_sq
        # a coordinate past the largest double leaves diff non-finite
        if not np.isfinite(diff).all():
            raise ValueError(
                f"a {kind.value} coefficient passes the largest double")
        # the rows that passed keep w = 1, and so their plain sums
        w = np.where(np.reshape(plain, (-1, 1)), 1.0, _scale(diff, ridge))
        gap, norm_sq = _sums_of_squares(diff / w, ridge / w)
        ratio = np.divide(gap, norm_sq, out=np.zeros_like(gap),
                          where=norm_sq > 0)
        w = w[:, 0]   # gap and norm past the largest double are inf
        gap, norm_sq = gap * w * w, norm_sq * w * w
    if scalar:
        return float(gap[0]), float(norm_sq[0]), float(ratio[0])
    return gap, norm_sq, ratio


def _sums_of_squares(diff: np.ndarray, ridge: np.ndarray):
    """Per row, the squared norms of the diff and ridge rows."""
    return (diff * diff).sum(axis=1), (ridge * ridge).sum(axis=1)


def _scale(diff: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """A column of powers of two w, one per row pair, with every |entry| / w
    in [0, 2); w >= 2^-1022 keeps the division exact where it is normal."""
    top = np.maximum(np.abs(diff).max(axis=1), np.abs(ridge).max(axis=1))
    exponent = np.frexp(top)[1] - 1
    return np.ldexp(1.0, np.clip(exponent, -1022, 1023))[:, None]
