"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: the Bessel
series uses explicit factorial terms, the eigenvalue oracle is power
iteration with deflation, and the linear solver is textbook Gaussian
elimination.  Slow is fine; independent is the point.
"""

from __future__ import annotations

import math

import numpy as np


def j1_series(x: float, terms: int = 30) -> float:
    """Ascending power series J1(x) = sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!)."""
    half = x / 2.0
    total = 0.0
    for m in range(terms):
        term = (-1.0) ** m * half ** (2 * m + 1) / (
            math.factorial(m) * math.factorial(m + 1))
        total += term
    return total


def bisect_root(fn, lo: float, hi: float, iterations: int = 200) -> float:
    f_lo = fn(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * fn(hi) > 0:
        raise ValueError("root not bracketed")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def power_iteration_eigenvalues(a: np.ndarray, iterations: int = 20000,
                                tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a symmetric PSD matrix, largest first, by
    power iteration with deflation."""
    a = np.array(a, dtype=float)
    p = a.shape[0]
    out = []
    for k in range(p):
        v = np.full(p, 1.0 / np.sqrt(p))
        lam = 0.0
        for _ in range(iterations):
            w = a @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                lam = 0.0
                break
            v_new = w / norm
            lam_new = float(v_new @ (a @ v_new))
            if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
                lam, v = lam_new, v_new
                break
            lam, v = lam_new, v_new
        out.append(lam)
        a = a - lam * np.outer(v, v)
    return np.array(sorted(out))


def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-300:
            raise ValueError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def grid_min(fn, grid: np.ndarray) -> tuple[float, float]:
    """(argmin, min) of fn over a dense grid."""
    vals = np.array([fn(g) for g in grid])
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


J1_ROOTS_BELOW_8 = (3.8317059702075123, 7.015586669815619)


def rk4_first_order(s, c, times):
    """Step-by-step RK4 on a' = c - s a from zero; the velocity row is a'."""
    m = times.size - 1
    pos = np.empty((m + 1, s.size))
    vel = np.empty((m + 1, s.size))
    u = np.zeros_like(c)
    pos[0], vel[0] = u, c - s * u
    for k in range(m):
        h = times[k + 1] - times[k]
        d1 = c - s * u
        d2 = c - s * (u + 0.5 * h * d1)
        d3 = c - s * (u + 0.5 * h * d2)
        d4 = c - s * (u + h * d3)
        u = u + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        pos[k + 1], vel[k + 1] = u, c - s * u
    return pos, vel


def rk4_second_order(s, c, damping, times, u0, v0):
    """Step-by-step RK4 on u'' + damping(t) u' + s u = c."""
    m = times.size - 1
    pos = np.empty((m + 1, s.size))
    vel = np.empty((m + 1, s.size))
    u, v = u0.copy(), v0.copy()
    pos[0], vel[0] = u, v
    for k in range(m):
        t = times[k]
        h = times[k + 1] - t
        a1 = c - s * u - damping(t) * v
        u2 = u + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = c - s * u2 - damping(t + 0.5 * h) * v2
        u3 = u + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = c - s * u3 - damping(t + 0.5 * h) * v3
        u4 = u + h * v3
        v4 = v + h * a3
        a4 = c - s * u4 - damping(t + h) * v4
        u = u + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        pos[k + 1], vel[k + 1] = u, v
    return pos, vel
