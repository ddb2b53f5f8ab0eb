"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: the Bessel
series uses explicit factorial terms, the eigenvalue oracle is power
iteration with deflation, and the linear solver is textbook Gaussian
elimination.  Slow is fine; independent is the point.

The RK4 step loops and per-flow step functions, the per-step-map RK4
scan, the whole-request batched polar normals, the masked kernel formulas,
the one-tau-at-a-time min-max scans, the untruncated 49/64 and heavy-ball
scans, the one-expression tilde_h, the scanned tilde_h case classifier,
the coupling gap that validated through factor_block and the per-row
"%.17g" CSV formatter are the library's earlier implementations, kept as
references for the forms that replaced them: the RK4 scan agrees with its
loop to rounding, and the rest (the one generic RK4 step rule included)
agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

from flowrisk.bounds import CrossoverCase, tilde_h_maximizer
from flowrisk.oracle import _chunk_steps, _compose_prefix, _rk4_step
from flowrisk.shrinkage import FlowKind, factor_block


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


def gf_step(s, c, t, h, u):
    """One RK4 step of a' = c - s a, its stages written out."""
    d1 = c - s * u
    d2 = c - s * (u + 0.5 * h * d1)
    d3 = c - s * (u + 0.5 * h * d2)
    d4 = c - s * (u + h * d3)
    return (u + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4),)


def damped_step(damping):
    """One RK4 step of u'' + damping(t) u' + s u = c, as (u, v) -> (u, v)."""
    def step(s, c, t, h, u, v):
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
        return (u + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4),
                v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
    return step


def per_step_rk4_scan(rhs, s, c, times, x0):
    """The chunked RK4 scan with the stage formulas evaluated on every step.

    Each chunk probes _rk4_step at its own (t, h) pairs, so a step length
    that recurs is evaluated again; the maps are composed and applied as
    in oracle._rk4_scan.  Returns the (d, m+1, p) record.
    """
    dim, p = len(x0), s.size
    m = times.size - 1
    out = np.empty((dim, m + 1, p))
    out[:, 0] = x0
    chunk = _chunk_steps(p)
    forcing = np.zeros((dim + 1, 1, p))
    forcing[dim] = c
    for k0 in range(0, m, chunk):
        k1 = min(k0 + chunk, m)
        t = times[k0:k1, None]
        h = times[k0 + 1:k1 + 1, None] - t
        probes = np.zeros((dim, dim + 1, k1 - k0, p))
        probes[range(dim), range(dim)] = 1.0
        maps = np.array(_rk4_step(rhs, s, forcing, t, h, tuple(probes)))
        a, b = maps[:, :dim], maps[:, dim]
        _compose_prefix(a, b)
        out[:, k0 + 1:k1 + 1] = b + np.einsum("ijnp,jp->inp", a, out[:, k0])
    return out


def coupling_gap_reference(design, kind, t):
    """The coupling gap as computed when every flow row went through
    factor_block, which re-validated the spectrum and the times."""
    if kind not in (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW):
        raise ValueError("coupling_gap is defined for the accelerated and "
                         "heavy-ball flows")
    t_arr = np.asarray(t, dtype=float)
    if (t_arr <= 0).any():
        raise ValueError("t must be > 0")
    times = np.atleast_1d(t_arr)
    if not design.has_response:
        raise ValueError("design has no attached response")
    c = design.rotated_channel
    s = design.spectrum.eigenvalues

    def rows(num, den):
        return np.divide(num, den, out=np.zeros((times.size, s.size)),
                         where=s > 0)

    flow = rows((1.0 - factor_block(kind, s, times, design.spectrum.mu)) * c, s)
    with np.errstate(over="ignore"):
        lam = (1.0 / times) ** 2
    ridge = rows(c, s + lam[:, None])
    diff = flow - ridge
    gap = (diff * diff).sum(axis=1)
    ridge_norm_sq = (ridge * ridge).sum(axis=1)
    if t_arr.ndim == 0:
        gap, norm_sq = float(gap[0]), float(ridge_norm_sq[0])
        return gap, norm_sq, gap / norm_sq if norm_sq > 0 else 0.0
    ratio = np.divide(gap, ridge_norm_sq, out=np.zeros_like(gap),
                      where=ridge_norm_sq > 0)
    return gap, ridge_norm_sq, ratio


def recipe_uniforms(seed: int, first: int, count: int) -> np.ndarray:
    """Draws first+1 .. first+count of the documented SplitMix64 recipe,
    one Python integer at a time."""
    mask = (1 << 64) - 1
    out = []
    for k in range(first + 1, first + count + 1):
        v = (seed + k * 0x9E3779B97F4A7C15) & mask
        v ^= v >> 30
        v = (v * 0xBF58476D1CE4E5B9) & mask
        v ^= v >> 27
        v = (v * 0x94D049BB133111EB) & mask
        v ^= v >> 31
        out.append((v >> 11) * 2.0 ** -53)
    return np.array(out, dtype=float)


def batched_normals(stream, count: int) -> np.ndarray:
    """Polar normals drawn from stream in whole-request batches.

    The batch covers the rest of the request plus a little slack, and the
    counter is rewound to the end of the pair that completes the request;
    every full-size temporary is materialized at once.
    """
    out = np.empty(count)
    filled = 0
    while filled < count:
        start = stream._counter
        batch_pairs = max((count - filled + 1) // 2 + 8, 16)
        u = stream.uniforms(2 * batch_pairs)
        w1 = 2.0 * u[0::2] - 1.0
        w2 = 2.0 * u[1::2] - 1.0
        q = w1 * w1 + w2 * w2
        keep = (q > 0.0) & (q < 1.0)
        produced = 2 * np.cumsum(keep)
        reached = np.flatnonzero(produced >= count - filled)
        pairs_used = int(reached[0]) + 1 if reached.size else batch_pairs
        stream._counter = start + 2 * pairs_used
        sel = keep[:pairs_used]
        if not sel.any():
            continue
        qs = q[:pairs_used][sel]
        factor = np.sqrt(-2.0 * np.log(qs) / qs)
        pairs = np.empty(2 * int(sel.sum()))
        pairs[0::2] = w1[:pairs_used][sel] * factor
        pairs[1::2] = w2[:pairs_used][sel] * factor
        take = min(pairs.size, count - filled)
        out[filled:filled + take] = pairs[:take]
        filled += take
    return out


def masked_j1_ratio(x):
    """2 J1(x)/x, each side of the 1e-4 cutoff gathered by a boolean mask."""
    arr = np.asarray(x, dtype=float)
    vec = np.atleast_1d(arr)
    out = np.empty_like(vec)
    small = vec < 1e-4
    x2 = vec[small] ** 2
    out[small] = 1.0 - x2 / 8.0 + x2 * x2 / 192.0 - x2 * x2 * x2 / 9216.0
    big = vec[~small]
    out[~small] = 2.0 * scipy.special.j1(big) / big
    return float(out[0]) if arr.ndim == 0 else out


def masked_j1_ratio_complement(x):
    """1 - 2 J1(x)/x, each side of the 1e-2 cutoff gathered by a mask."""
    arr = np.asarray(x, dtype=float)
    vec = np.atleast_1d(arr)
    out = np.empty_like(vec)
    small = vec < 1e-2
    x2 = vec[small] ** 2
    out[small] = x2 / 8.0 - x2 * x2 / 192.0 + x2 * x2 * x2 / 9216.0
    big = vec[~small]
    out[~small] = 1.0 - 2.0 * scipy.special.j1(big) / big
    return float(out[0]) if arr.ndim == 0 else out


def masked_sinc(u):
    """sin(u)/u, each side of the 1e-6 cutoff gathered by a boolean mask."""
    u = np.asarray(u, dtype=float)
    vec = np.atleast_1d(u)
    out = np.empty_like(vec)
    small = np.abs(vec) < 1e-6
    us = vec[small]
    out[small] = 1.0 - us * us / 6.0 + us ** 4 / 120.0
    ub = vec[~small]
    out[~small] = np.sin(ub) / ub
    return out.reshape(u.shape)


def masked_hb_kernel(a, b):
    """exp(-a) (cos b + a sin(b)/b) as one expression over masked_sinc."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.exp(-a) * (np.cos(b) + a * masked_sinc(b))


def masked_hb_kernel_complement(a, b):
    """-expm1(-a) + exp(-a) (2 sin^2(b/2) - a sin(b)/b) as one expression."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return -np.expm1(-a) + np.exp(-a) * (2.0 * np.sin(b / 2.0) ** 2
                                         - a * masked_sinc(b))


def inner_max_loop(objective, tau, x_coarse, zoom_rounds=3, zoom_points=240):
    """Max over x of objective(tau, .) at one tau: coarse scan, then zooms."""
    vals = objective(tau, x_coarse)
    k = int(np.argmax(vals))
    best_v = float(vals[k])
    best_x = float(x_coarse[k])
    lo = float(x_coarse[max(k - 1, 0)])
    hi = float(x_coarse[min(k + 1, x_coarse.size - 1)])
    for _ in range(zoom_rounds):
        xs = np.linspace(lo, hi, zoom_points)
        vv = objective(tau, xs)
        kk = int(np.argmax(vv))
        if vv[kk] > best_v:
            best_v = float(vv[kk])
            best_x = float(xs[kk])
        width = (hi - lo) / 10.0
        lo = max(best_x - width, float(x_coarse[0]))
        hi = best_x + width
    return best_v, best_x


def minimax_loop(objective, taus, x_coarse, refinement_depth=3):
    """(value, tau*, x*) of min over tau of max over x, one tau per scan.

    The coarse stage calls inner_max_loop once per tau; golden-section
    refinement on tau then shrinks the bracket 10x per round.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    coarse = np.array([inner_max_loop(objective, t, x_coarse, zoom_rounds=1)[0]
                       for t in taus])
    i = int(np.flatnonzero(coarse <= float(coarse.min()) + 1e-12)[0])
    lo = float(taus[max(i - 1, 0)])
    hi = float(taus[min(i + 1, taus.size - 1)])

    def outer(tau):
        return inner_max_loop(objective, tau, x_coarse)[0]

    for _ in range(refinement_depth):
        target = (hi - lo) / 10.0
        c = hi - (hi - lo) * golden
        d = lo + (hi - lo) * golden
        f_c, f_d = outer(c), outer(d)
        while hi - lo > target:
            if f_c < f_d:
                hi = d
                d, f_d = c, f_c
                c = hi - (hi - lo) * golden
                f_c = outer(c)
            else:
                lo = c
                c, f_c = d, f_d
                d = lo + (hi - lo) * golden
                f_d = outer(d)
    tau_star = float(0.5 * (lo + hi))
    value, x_star = inner_max_loop(objective, tau_star, x_coarse)
    return value, tau_star, x_star


def param_error_full_scan(complement):
    """(value, x*) of the former 49/64 scan: all of np.logspace(-8, 4, 200000).

    complement is 1 - 2 J1(x)/x; the scan has no tail cut.
    """
    def objective(_tau, x):
        return (complement(x) * (x * x + 1.0) / (x * x) - 1.0) ** 2
    return inner_max_loop(objective, 0.0, np.logspace(-8.0, 4.0, 200000))


def hb_sups_two_pass(factor, thetas, xs):
    """(sup f^2, sup (f-1)^2) of the former heavy-ball scans.

    One coarse-plus-zoom pass over the whole x grid per sup and per theta,
    with a = x sin(theta), b = x cos(theta); factor(a, b) is the coupling
    factor.
    """
    def sup(g):
        def objective(theta, x):
            return g(factor(x * np.sin(theta), x * np.cos(theta)))
        return max(inner_max_loop(objective, theta, xs)[0] for theta in thetas)
    return sup(np.square), sup(lambda f: (f - 1.0) ** 2)


def tilde_h_expression(x, z):
    """The former one-expression bias envelope (1+x^2)(x/z+1)^2 e^{-2x/z}."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) * (x / z + 1.0) ** 2 * np.exp(-2.0 * x / z)


SCAN_POINTS = 240001


def scan_classify_tilde_h(z: float) -> CrossoverCase:
    """The former case classifier: the argmax of tilde_h on a 240,001-point
    grid of [0, 6 max(z, 1)], checked against the case the roots imply to
    within two grid steps."""
    hi = 6.0 * max(z, 1.0)
    xs = np.linspace(0.0, hi, SCAN_POINTS)
    argmax = float(xs[int(np.argmax(tilde_h_expression(xs, z)))])
    disc = 5.0 * z * z - 4.0
    if disc <= 0:
        return CrossoverCase(z=z, case_index=1, argmax_x=argmax, x_star=None,
                             structure_ok=argmax == 0.0)
    x_star = tilde_h_maximizer(z)
    x_minus = (z - np.sqrt(disc)) / 2.0
    step_tol = hi / (SCAN_POINTS - 1) * 2
    if z < 1.0:
        # both 0 and x* are local maxima, separated by the dip at x_minus
        dip = float(tilde_h_expression(x_minus, z))
        peak = float(tilde_h_expression(x_star, z))
        expected = 0.0 if peak < 1.0 else x_star
        ok = dip < 1.0 and dip < peak and abs(argmax - expected) <= step_tol
        return CrossoverCase(z=z, case_index=2, argmax_x=argmax, x_star=x_star,
                             structure_ok=ok)
    ok = abs(argmax - x_star) <= step_tol
    return CrossoverCase(z=z, case_index=3, argmax_x=argmax, x_star=x_star,
                         structure_ok=ok)


def risk_csv_text_reference(kind, curve) -> str:
    """A risk curve as CSV text, one "%" row per grid point."""
    row = kind.value + ",%.17g,%.17g,%.17g,%.17g"
    columns = (curve.grid.tolist(), curve.bias_sq.tolist(),
               curve.variance.tolist(), curve.risk.tolist())
    return "\n".join(["kind,param,bias_sq,variance,risk"]
                     + [row % r for r in zip(*columns)]) + "\n"
