"""Bessel-kernel scalar functions underlying the spectral shrinkage maps.

The accelerated shrinkage factor is 2*J1(u)/u with u = t*sqrt(s), so the
whole library bottoms out in an accurate J1.  Evaluation delegates to
scipy.special.j1 (the Cephes rational approximations), which stays within a
few ulp of the local oscillation envelope sqrt(2/(pi*x)) on the entire real
line.  The wrappers here add domain validation and the cancellation-free
variants needed where the ratio is compared against 1 at tiny arguments and
then divided by x^2.

Each removable singularity has one path: J1 over the whole array, then
the series written over the entries below the cutoff.  j1_ratio does so
below 1e-4; j1_ratio_complement forms 1 - 2*J1(x)/x and hands it to
_complement_series, the rule bounds.nest_inflation_objective also uses,
unless the array's largest entry is below 1e-2, when the series alone
gives every entry.  The division 2*J1(x)/x enters an errstate guard for
its 0/0 only when the array's smallest entry, known from the domain
check, is 0.

All functions accept scalars or arrays, return matching shapes, and are
pure; they are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j1 as _cephes_j1

__all__ = ["bessel_j1", "j1_ratio", "j1_ratio_complement"]

# Switch points for the series branches.  Both series are alternating with
# rapidly shrinking terms, so the omitted tail is far below one ulp at the
# cutoff and the branches agree to full precision there.
_RATIO_CUTOFF = 1e-4
_COMPLEMENT_CUTOFF = 1e-2


def _checked(x, name, nonnegative=False):
    """x as a float array, with its smallest and largest entries (inf and
    -inf when empty).

    One min/max pair checks every entry: ValueError unless finite (a NaN
    makes both NaN) and, when nonnegative, >= 0; the finiteness message
    wins when both fail.
    """
    arr = np.asarray(x, dtype=float)
    if not arr.size:
        return arr, np.inf, -np.inf
    lo, hi = arr.min(), arr.max()
    if not (-np.inf < lo and hi < np.inf):
        raise ValueError(f"{name} requires finite input")
    if nonnegative and lo < 0:
        raise ValueError(f"{name} is defined for x >= 0")
    return arr, lo, hi


def _two_j1_over_x(vec, lo):
    """2*J1(x)/x over a whole array, computed in place in one buffer.

    lo is a lower bound of vec.  Only when it is 0 can a 0/0 form, and only
    then is the division guarded: the 0/0 at x = 0 gives NaN without a
    warning, and the caller overwrites it (and every other entry below its
    cutoff) with its series.
    """
    out = _cephes_j1(vec)
    out *= 2.0
    if lo > 0:
        out /= vec
        return out
    with np.errstate(invalid="ignore"):
        out /= vec
    return out


def bessel_j1(x):
    """Bessel function of the first kind of order one.

    Odd in x.  Non-finite input raises ValueError.  Scalars in, scalar out;
    arrays in, array out.
    """
    arr, _, _ = _checked(x, "bessel_j1")
    out = _cephes_j1(arr)
    return float(out) if arr.ndim == 0 else out


def j1_ratio(x):
    """The ratio 2*J1(x)/x on x >= 0, continuously extended to 1 at x = 0.

    Below 1e-4 the series 1 - x^2/8 + x^4/192 - x^6/9216 is used directly so
    the removable singularity never forms a 0/0.  |j1_ratio(x)| <= 1 for all
    x >= 0, with equality only at x = 0.
    """
    arr, lo, _ = _checked(x, "j1_ratio", nonnegative=True)
    vec = np.atleast_1d(arr)
    out = _two_j1_over_x(vec, lo)
    if lo < _RATIO_CUTOFF:
        small = vec < _RATIO_CUTOFF
        x2 = vec[small] ** 2
        out[small] = 1.0 - x2 / 8.0 + x2 * x2 / 192.0 - x2 * x2 * x2 / 9216.0
    return float(out[0]) if arr.ndim == 0 else out


def j1_ratio_complement(x):
    """1 - j1_ratio(x), computed without cancellation near x = 0.

    The parameter-error and risk-inflation objectives divide this quantity
    by x^2; plain subtraction carries an absolute error around 1e-16 which
    would destroy all digits below x ~ 1e-5.  Below 1e-2 the series
    x^2/8 - x^4/192 + x^6/9216 is exact to about 1e-17 relative (the next
    term is x^8/737280); above that, subtraction is safe.

    The largest entry, which the domain check takes, picks the branch: an
    array wholly below 1e-2 is the series alone, with no J1; any other is
    1 - 2J1(x)/x over the whole array, with the series written over the
    entries below the cutoff by _complement_series.
    """
    arr, lo, hi = _checked(x, "j1_ratio_complement", nonnegative=True)
    vec = np.atleast_1d(arr)
    if hi < _COMPLEMENT_CUTOFF:
        out = _series(vec)
    else:
        out = _two_j1_over_x(vec, lo)
        np.subtract(1.0, out, out=out)
        _complement_series(vec, out)
    return float(out[0]) if arr.ndim == 0 else out


def _series(x):
    """The complement series x^2/8 - x^4/192 + x^6/9216, for x < 1e-2."""
    x2 = x ** 2
    return x2 / 8.0 - x2 * x2 / 192.0 + x2 * x2 * x2 / 9216.0


def _complement_series(x, out):
    """Overwrite out with the complement series wherever x < 1e-2.

    At and above the cutoff j1_ratio_complement is plain 1 - j1_ratio, so a
    caller holding j1_ratio(x) passes out = 1 - j1_ratio(x) and gets
    j1_ratio_complement(x) without a second J1 evaluation.  x and out are
    arrays of one shape (0-d allowed); returns out.
    """
    small = x < _COMPLEMENT_CUTOFF
    if small.any():
        out[small] = _series(x[small])
    return out
