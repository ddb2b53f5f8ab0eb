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

risk_curve is the one evaluator, for both signal models and any grid: a
single point is a one-point grid.  Curves are computed directly from the
spectrum, a block of grid points at a time, through the single reduction
bias_variance; they never form estimator vectors.  A curve is a RiskCurve:
the grid plus its bias^2 and variance arrays, which reads as a sequence of
(param, RiskDecomposition) pairs built on access.  The estimators module
plus Monte Carlo provides the independent cross-check of these formulas.

risk_csv_text writes a curve as CSV text, every value exactly as "%.17g"
would.  The digits come from array passes over all four columns at once (a
double-double scaling by a table of powers of ten, rounded half-even) and
the characters from a memoized byte template per (exponent, digit count);
only -0.0, NaN, inf, negative values and values within 1e-9 of a rounding
tie go through "%" one at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum
from .shrinkage import FlowKind, factor_block

__all__ = [
    "SignalModel",
    "RiskDecomposition",
    "RiskCurve",
    "OscillationReport",
    "bias_variance",
    "bias_variance_curve",
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
class RiskCurve(Sequence):
    """Squared bias and variance along a grid, one array entry per point.

    Reads as a sequence of (param, RiskDecomposition) pairs in grid order,
    each built on access; risk is the elementwise sum, so curve.risk[k] is
    the same double as curve[k][1].risk.  The arrays are read-only copies.
    """

    grid: np.ndarray
    bias_sq: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        for name in ("grid", "bias_sq", "variance"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.grid.ndim != 1 or not (
                self.grid.shape == self.bias_sq.shape == self.variance.shape):
            raise ValueError("curve arrays must be 1-D and of equal length")
        # the RiskDecomposition rule: a NaN passes, a negative value does not
        if (self.bias_sq < 0).any() or (self.variance < 0).any():
            raise ValueError("bias_sq and variance must be nonnegative")

    @property
    def risk(self) -> np.ndarray:
        return self.bias_sq + self.variance

    def __len__(self) -> int:
        return self.grid.size

    def __getitem__(self, k) -> tuple[float, RiskDecomposition]:
        k = range(self.grid.size)[operator.index(k)]
        return float(self.grid[k]), RiskDecomposition(
            bias_sq=float(self.bias_sq[k]), variance=float(self.variance[k]))

    def __iter__(self):
        for t, b, v in zip(self.grid.tolist(), self.bias_sq.tolist(),
                           self.variance.tolist()):
            yield t, RiskDecomposition(bias_sq=b, variance=v)


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
        if not 0 < self.sigma_sq < np.inf:        # NaN fails too
            raise ValueError("sigma_sq must be positive and finite, "
                             f"got {self.sigma_sq!r}")
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
            if self.r_sq is None or not 0 < self.r_sq < np.inf:
                raise ValueError("prior mode requires a finite r_sq > 0, "
                                 f"got {self.r_sq!r}")

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
    sq = factors * factors
    bias = sq @ weights
    # (1 - G)^2 / s in the same buffer
    np.subtract(1.0, factors, out=sq)
    np.square(sq, out=sq)
    sq /= np.where(live, s, 1.0)
    return bias, noise_scale * (sq @ live.astype(float))


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
               grid) -> RiskCurve:
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
    return RiskCurve(grid=grid, bias_sq=bias, variance=variance)


@dataclass(frozen=True)
class OscillationReport:
    """Count of strict interior risk maxima and the largest min-to-max rise."""

    num_local_maxima: int
    max_rebound: float


def oscillation_report(curve: RiskCurve) -> OscillationReport:
    """Locate risk oscillations along a RiskCurve.

    A local maximum is a strict interior peak r[k-1] < r[k] > r[k+1]; the
    rebound of a peak is its height above the lowest point since the
    previous peak (or since the start).  Monotone curves report (0, 0).
    """
    r = curve.risk
    if r.size < 3:
        raise ValueError("oscillation_report requires at least 3 points")
    interior = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
    max_rebound = 0.0
    prev = 0
    for k in interior:
        trough = float(r[prev:k + 1].min())
        max_rebound = max(max_rebound, float(r[k]) - trough)
        prev = int(k)
    return OscillationReport(num_local_maxima=int(interior.size),
                             max_rebound=max_rebound)


# "%.17g" in a few array passes (see risk_csv_text).  A positive finite x
# with decimal exponent e is scaled as (x 2^s) (10^(16-e) 2^-s), where the
# exact power-of-two shift s = s(e) keeps x 2^s, the table entry and their
# splits in the normal range for every e from the smallest subnormal to the
# largest double, with the slack of a log10 estimate and its +-1 step.
_E_LO, _E_HI = -326, 310


def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^(16-e) 2^-s as hi + lo for each e in [_E_LO, _E_HI], and 2^s.

    Python's int / int division is correctly rounded, so hi is the nearest
    double and lo the nearest double to the exact remainder: hi + lo is
    the power to a relative 2^-106.
    """
    hi, lo, shift = [], [], []
    for e in range(_E_LO, _E_HI + 1):
        q, s = 16 - e, 600 if e < -280 else -600 if e > 280 else 0
        num = 10 ** max(q, 0) * 2 ** max(-s, 0)
        den = 10 ** max(-q, 0) * 2 ** max(s, 0)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
        shift.append(2.0 ** s)
    return np.array(hi), np.array(lo), np.array(shift)


def _split(a):
    """Veltkamp split: a = head + tail, each with at most 26 significant bits."""
    c = 134217729.0 * a          # 2^27 + 1
    head = c - (c - a)
    return head, a - head


_POW_HI, _POW_LO, _X_SHIFT = _pow10_table()
_POW_HEAD, _POW_TAIL = _split(_POW_HI)
# A computed scaled value whose fraction lies this close to one half may
# be a rounding tie (its error is below 1e-14): "%" decides it.
_TIE_WINDOW = 1e-9
# The ASCII of every 4-digit chunk 0000..9999, one 4-byte word each.
# (int16 keeps the temporaries, and so the import's peak memory, small.)
_QUADS = (np.arange(10_000, dtype=np.int16)[:, None]
          // np.array([1000, 100, 10, 1], np.int16) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# One source row per value: its 17 digits, then the literals a layout may
# need, a NUL that the final compaction drops, and the separator that ends
# the field.
_DIGIT0, _DOT, _EXP, _PLUS, _MINUS, _NUL, _SEP = 17, 27, 28, 29, 30, 31, 32
_FIELD = 24                      # the longest "%.17g" of a double
_SOURCE = np.zeros((4, _SEP + 1), np.uint8)
_SOURCE[:, _DIGIT0:_NUL] = np.frombuffer(b"0123456789.e+-", np.uint8)
_SOURCE[:, _SEP] = np.frombuffer(b",,,\n", np.uint8)
# Memoized layouts: row (e - _E_LO) * 17 + nsig - 1 holds the source
# indices of a value with decimal exponent e and nsig significant digits;
# the last two rows write 0 and copy a whole fallback field.
_LAYOUTS = np.zeros(((_E_HI - _E_LO + 1) * 17 + 2, _FIELD + 1), np.int8)
_ZERO, _FALLBACK = len(_LAYOUTS) - 2, len(_LAYOUTS) - 1
_LAYOUTS[_ZERO] = [_DIGIT0] + [_NUL] * (_FIELD - 1) + [_SEP]
_LAYOUTS[_FALLBACK] = [*range(_FIELD), _SEP]
_LAYOUT_READY = np.zeros(len(_LAYOUTS), bool)
_LAYOUT_READY[[_ZERO, _FALLBACK]] = True


def _layout(e: int, nsig: int) -> list[int]:
    """Source indices of "%.17g" for exponent e and nsig significant digits.

    Fixed notation for -4 <= e < 17, else d.ddde+XX with at least two
    exponent digits; trailing zeros and a bare point are dropped.
    """
    if 0 <= e < 17:
        idx = [*range(e + 1)]
        if nsig > e + 1:
            idx += [_DOT, *range(e + 1, nsig)]
    elif -4 <= e < 0:
        idx = [_DIGIT0, _DOT] + [_DIGIT0] * (-e - 1) + [*range(nsig)]
    else:
        idx = [0] + ([_DOT, *range(1, nsig)] if nsig > 1 else [])
        idx += [_EXP, _PLUS if e >= 0 else _MINUS]
        idx += [_DIGIT0 + int(c) for c in "%02d" % abs(e)]
    return idx + [_NUL] * (_FIELD - len(idx)) + [_SEP]


def _percent_g(values: np.ndarray) -> np.ndarray:
    """The fallback: "%.17g" of each value, NUL-padded to one field."""
    text = np.array(["%.17g" % v for v in values.tolist()], f"S{_FIELD}")
    return text.view(np.uint8).reshape(-1, _FIELD)


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10^(16-e) as hi + lo: Dekker's exact product of the shifted x
    with the table head, plus its product with the table tail; the error
    is about 1e-14 near 1e16."""
    k = e - _E_LO
    x = x * _X_SHIFT[k]
    b_head, b_tail = _POW_HEAD[k], _POW_TAIL[k]
    a_head, a_tail = _split(x)
    hi = x * _POW_HI[k]
    err = (((a_head * b_head - hi) + a_head * b_tail + a_tail * b_head)
           + a_tail * b_tail)
    return hi, err + x * _POW_LO[k]


def _fill_fields(values: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Write each value's characters into its source row; return its layout.

    A positive finite value gets its 17 rounded digits D * 10^(e-16): D is
    the scaled value x * 10^(16-e) in [1e16, 1e17), rounded half-even.  0.0
    has a layout of its own; every other value (-0.0, NaN, inf, negative,
    or within _TIE_WINDOW of a tie) is written whole by _percent_g.
    """
    fast = (values > 0) & (values < np.inf)
    x = np.where(fast, values, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _scaled(x, e)
    # the exponent estimate is off by one only next to a power of ten
    step = (((hi - 1e17) + lo >= 0).astype(np.int64)
            - ((hi - 1e16) + lo < 0))
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        hi[moved], lo[moved] = _scaled(x[moved], e[moved])
    fast &= np.abs(lo - np.floor(lo) - 0.5) >= _TIE_WINDOW
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    # a head digit and four 4-digit chunks; scalar divisors keep numpy's
    # integer division fast
    head = d // 10 ** 16
    d -= head * 10 ** 16
    quads = np.empty((d.size, 4), np.int64)
    quads[:, 0] = d // 10 ** 12
    quads[:, 1] = d // 10 ** 8 - quads[:, 0] * 10 ** 4
    lower = d % 10 ** 8
    quads[:, 2] = lower // 10 ** 4
    quads[:, 3] = lower - quads[:, 2] * 10 ** 4
    digits = src[:, :_DIGIT0]
    digits[:, 0] = head + ord("0")
    digits[:, 1:] = _QUADS.take(quads).view(np.uint8)
    nsig = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keys = np.where(fast, (e - _E_LO) * 17 + nsig - 1, _FALLBACK)
    keys[(values == 0) & ~np.signbit(values)] = _ZERO
    slow = np.flatnonzero(keys == _FALLBACK)
    if slow.size:
        src[slow, :_FIELD] = _percent_g(values[slow])
    return keys


def _layouts(keys: np.ndarray) -> np.ndarray:
    """The layout row of every key, building the ones not seen before."""
    new = keys[~_LAYOUT_READY[keys]]
    for k in np.unique(new).tolist() if new.size else ():
        _LAYOUTS[k] = _layout(k // 17 + _E_LO, k % 17 + 1)
        _LAYOUT_READY[k] = True
    return _LAYOUTS[keys]


def risk_csv_text(kind: FlowKind, curve: RiskCurve) -> str:
    """A curve as CSV text with the header kind,param,bias_sq,variance,risk.

    Every value is written exactly as "%.17g" writes it, which round-trips
    a double.  The text comes from array passes over all four columns at
    once: each value's 17 significant digits from a double-double product
    with a table of powers of ten, its layout (fixed or exponent form,
    point, dropped trailing zeros, exponent) from a memoized byte template
    per (exponent, digit count), then one gather and one compaction.
    -0.0, NaN, inf, negative values and values within 1e-9 of a rounding
    tie are formatted by "%" one by one.
    """
    values = np.stack([curve.grid, curve.bias_sq, curve.variance,
                       curve.risk], axis=1)
    src = np.tile(_SOURCE, (curve.grid.size, 1))
    keys = _fill_fields(values.reshape(-1), src)
    take = _layouts(keys) + np.arange(keys.size)[:, None] * (_SEP + 1)
    prefix = np.frombuffer(f"{kind.value},".encode(), np.uint8)
    rows = np.empty((curve.grid.size, prefix.size + 4 * (_FIELD + 1)),
                    np.uint8)
    rows[:, :prefix.size] = prefix
    rows[:, prefix.size:] = src.reshape(-1)[take].reshape(
        curve.grid.size, 4 * (_FIELD + 1))
    return f"{RISK_CSV_HEADER}\n" + rows[rows != 0].tobytes().decode("ascii")


def write_risk_csv(path, kind: FlowKind, curve: RiskCurve) -> bytes:
    """Write risk_csv_text(kind, curve) to path; return the bytes written."""
    text = risk_csv_text(kind, curve)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return text.encode("ascii")
