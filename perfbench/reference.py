"""The benchmark's own reference values, independent of the flowrisk code.

* ``CERTIFIED``: the paper's constants and bounds with their tolerances,
  one entry per check that ``flowrisk verify-constants`` must report.
* ``factors`` / ``curve``: a short reimplementation of the four shrinkage
  factors and the bias/variance sums, with ``scipy.special.j1`` called
  directly.
* ``splitmix_uniforms`` / ``splitmix_normals`` / ``stream_failure``: the
  documented SplitMix64 + polar recipe, one pair at a time in plain Python,
  to pin the first draws of a seeded stream.

Everything here is vectorised over a block of grid points at a time, so the
reference never holds a whole grid x p matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j1

# name -> (paper value, tolerance, mode); "eq" is |value - paper| <= tol,
# "le" is value <= paper + tol.
CERTIFIED = {
    "gradient_flow_inflation": (1.0786, 1e-3, "eq"),
    "accelerated_inflation": (1.5991, 1e-3, "eq"),
    "accelerated_param_error": (49.0 / 64.0, 1e-4, "eq"),
    "heavy_ball_f_sq": (16.0, 1e-6, "le"),
    "heavy_ball_param_error": (25.0, 1e-6, "le"),
    "crossover_z": (0.907, 1e-3, "eq"),
    "crossover_case_structure": (1.0, 0.0, "eq"),
    "h_recomposition": (0.0, 1e-10, "le"),
    "h_at_kappa_1": (8.0 + 8.0 * math.exp(-2.0), 1e-12, "eq"),
    "kernel_inequalities": (0.0, 1e-10, "le"),
}

# Curves may move at ulp level (summation order, series branches); a wrong
# factor or sum moves them by far more.
CURVE_RTOL = 1e-9

_BLOCK = 16


def certified_failure(name: str, value: float) -> str | None:
    """None when value meets the paper entry, else a one-line reason."""
    paper, tol, mode = CERTIFIED[name]
    ok = abs(value - paper) <= tol if mode == "eq" else value <= paper + tol
    return None if ok else f"{name} = {value!r} misses {paper!r} ({mode}, tol {tol:g})"


def factors(kind: str, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Shrinkage factors g, one row per entry of t, one column per s."""
    s = s[None, :]
    t = t[:, None]
    if kind == "gf":
        return np.exp(-t * s)
    if kind == "ridge":
        return t / (s + t)
    if kind == "nest":
        u = t * np.sqrt(s)
        safe = np.where(u < 1e-4, 1.0, u)
        u2 = u * u
        series = 1.0 - u2 / 8.0 + u2 * u2 / 192.0
        return np.where(u < 1e-4, series, 2.0 * j1(safe) / safe)
    if kind == "hb":
        mu = s.min()
        a = t * np.sqrt(mu)
        b = t * np.sqrt(s - mu)
        safe = np.where(b < 1e-6, 1.0, b)
        sinc = np.where(b < 1e-6, 1.0 - b * b / 6.0, np.sin(safe) / safe)
        return np.exp(-a) * (np.cos(b) + a * sinc)
    raise ValueError(f"unknown kind {kind!r}")


def curve(kind: str, s: np.ndarray, weights: np.ndarray, noise_scale: float,
          grid: np.ndarray) -> np.ndarray:
    """Columns (bias_sq, variance, risk) of one family along a grid."""
    live = s > 0
    out = np.empty((grid.size, 3))
    for lo in range(0, grid.size, _BLOCK):
        g = factors(kind, s, grid[lo:lo + _BLOCK])
        bias = (g * g) @ weights
        resid = 1.0 - g[:, live]
        var = noise_scale * ((resid * resid) @ (1.0 / s[live]))
        out[lo:lo + _BLOCK] = np.column_stack([bias, var, bias + var])
    return out


def ridge_floor(s: np.ndarray, r_sq: float, sigma_sq: float, n: int) -> float:
    """Optimally tuned ridge Bayes risk (sigma^2/n) sum alpha/(alpha s + 1)."""
    alpha = r_sq * n / (sigma_sq * s.size)
    return sigma_sq / n * float(np.sum(alpha / (alpha * s + 1.0)))


def curve_failure(label: str, got: np.ndarray, want: np.ndarray) -> str | None:
    """None when got matches want to CURVE_RTOL, else a one-line reason."""
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} != {want.shape}"
    scale = np.abs(want).max(axis=0, keepdims=True)
    err = np.abs(got - want) / (np.abs(want) + 1e-30 * scale)
    if not np.isfinite(got).all() or err.max() > CURVE_RTOL:
        return f"{label}: relative error {err.max():.3g} > {CURVE_RTOL:g}"
    return None


_MASK = (1 << 64) - 1


def _splitmix(seed: int, k: int) -> int:
    v = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & _MASK
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & _MASK
    return v ^ (v >> 31)


def _uniform(seed: int, k: int) -> float:
    return (_splitmix(seed, k) >> 11) * 2.0 ** -53


def splitmix_uniforms(seed: int, count: int) -> list[float]:
    """The first count top-53-bit uniforms of the documented stream."""
    return [_uniform(seed, k) for k in range(count)]


def splitmix_normals(seed: int, count: int) -> list[float]:
    """The first count polar normals of the documented SplitMix64 stream."""
    out: list[float] = []
    k = 0
    while len(out) < count:
        u1, u2 = _uniform(seed, k), _uniform(seed, k + 1)
        k += 2
        w1, w2 = 2.0 * u1 - 1.0, 2.0 * u2 - 1.0
        q = w1 * w1 + w2 * w2
        if 0.0 < q < 1.0:
            f = math.sqrt(-2.0 * math.log(q) / q)
            out.extend((w1 * f, w2 * f))
    return out[:count]


# The recipe fixes the uniforms bit for bit, but not the log of the polar
# method: libm and numpy's vector log differ by an ulp on some inputs.  A
# wrong pairing, rejection or order moves a normal by O(1).
NORMALS_RTOL = 8 * 2.0 ** -52


def stream_failure(stream_cls, seed: int, count: int = 64) -> str | None:
    """None when a fresh stream follows the recipe, else a one-line reason."""
    got = stream_cls(seed).uniforms(count).tolist()
    if got != splitmix_uniforms(seed, count):
        return "SeededStream.uniforms differs from the SplitMix64 recipe"
    want = np.array(splitmix_normals(seed, count))
    got = stream_cls(seed).normals(count)
    if got.shape != want.shape:
        return f"SeededStream.normals gave shape {got.shape} for {count}"
    err = np.abs(got - want) / np.abs(want)
    if not err.max() <= NORMALS_RTOL:
        return (f"SeededStream.normals differs from the SplitMix64 + polar "
                f"recipe (relative error {err.max():.3g})")
    return None
