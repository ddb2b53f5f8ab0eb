"""Independent verification engines for the closed-form paths.

Two routes that share no code with the shrinkage maps:

* a classical fixed-step RK4 integrator for the three flow dynamics in
  decoupled (eigenbasis) coordinates, per eigenvalue

      gradient flow     a' = c - s a
      accelerated flow  a'' + (3/t) a' + s a = c
      heavy-ball flow   a'' + 2 sqrt(mu) a' + s a = c

  all started from rest at zero;

* the three discrete-time iterations (plain gradient descent, the
  momentum-scheduled accelerated iteration, and the constant-momentum
  heavy-ball iteration) run directly on (X, y).

The accelerated dynamics has a 3/t coefficient that is singular at t = 0,
so integration starts at t0 = 1e-6 from the series state
a(t0) = c t0^2/8, a'(t0) = c t0/4, which continues the rest start exactly
to O(t0^4).  The systems are linear and non-stiff at the scales used here,
so a fixed step is enough; the default step is 1e-3 and every step is
recorded.

Because the dynamics are linear, one RK4 step is an exact affine map of
the state, per coordinate.  The integrator evaluates the RK4 stage
formulas once per chunk of consecutive steps, vectorized over the chunk,
to get each step's map, composes the maps by prefix doubling (log2 of the
chunk length vectorized levels), and applies the running compositions to
the chunk's start state.  The iterates are those of the classical
fixed-step RK4 recurrence up to rounding (the order of the products
differs).  A chunk holds at most _SCAN_DOUBLES (steps x coordinates)
doubles per array, so memory beyond the recorded trajectory does not
grow with the horizon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, design_decompose
from .risk import bias_variance, bias_variance_curve
from .shrinkage import FlowKind, factor_block

__all__ = [
    "Trajectory",
    "IterateConfig",
    "integrate_flow",
    "discrete_iterates",
    "compare_closed_form",
    "nesterov_discrete_consistency",
]

DEFAULT_STEP = 1e-3
_ACCEL_T0 = 1e-6
# Doubles per (steps x coordinates) array of one scan chunk: the chunk is
# _SCAN_DOUBLES // p steps, so the scan's temporaries stay at a few megabytes
# whatever the horizon and p.
_SCAN_DOUBLES = 1 << 12
# Most doubles in one (steps x coordinates) array of a Trajectory (512 MiB);
# integrate_flow refuses longer records before allocating anything.
_MAX_TRAJECTORY_DOUBLES = 1 << 26
_FLOWS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
          FlowKind.HEAVY_BALL_FLOW)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A full integration record, one row per step."""

    kind: FlowKind
    times: np.ndarray        # (m+1,)
    positions: np.ndarray    # (m+1, p)
    velocities: np.ndarray   # (m+1, p)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class IterateConfig:
    """Step size, momentum (heavy ball only), and iteration count."""

    step_size: float
    iterations: int
    momentum: float = 0.0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.momentum < 0:
            raise ValueError("momentum must be >= 0")


def _validate_flow_inputs(kind, spectrum, forcing, t_end, step):
    if kind not in _FLOWS:
        raise ValueError("integrate_flow covers the three flows")
    c = np.asarray(forcing, dtype=float)
    if c.shape != (spectrum.p,):
        raise ValueError("forcing length does not match the spectrum")
    if not np.isfinite(c).all():
        raise ValueError("forcing must be finite")
    if not np.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    steps = np.ceil(t_end / step)
    if (steps + 1) * spectrum.p > _MAX_TRAJECTORY_DOUBLES:
        raise ValueError(f"t_end / step = {steps:.3g} steps x {spectrum.p} "
                         f"coordinates exceeds {_MAX_TRAJECTORY_DOUBLES} doubles")
    if kind is FlowKind.HEAVY_BALL_FLOW and spectrum.mu <= 0:
        raise ValueError("heavy-ball flow requires mu > 0")
    return c


def _gf_step(s, c, t, h, u):
    """One RK4 step of a' = c - s a."""
    d1 = c - s * u
    d2 = c - s * (u + 0.5 * h * d1)
    d3 = c - s * (u + 0.5 * h * d2)
    d4 = c - s * (u + h * d3)
    return (u + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4),)


def _damped_step(damping):
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


def _chunk_steps(p: int) -> int:
    return max(1, _SCAN_DOUBLES // max(p, 1))


def _compose_prefix(a, b):
    """Turn per-step maps x -> a[k] x + b[k] into their running compositions.

    a is (d, d, n, p) and b is (d, n, p): one affine map per step and
    coordinate.  Prefix doubling: after the level with offset o, row k holds
    the composition of maps max(0, k - 2o + 1) .. k, so ceil(log2 n) levels
    leave row k mapping the state before the first step to the state after
    step k.
    """
    n = b.shape[1]
    offset = 1
    while offset < n:
        later = a[:, :, offset:]
        new_b = b[:, offset:] + np.einsum("ijnp,jnp->inp", later, b[:, :-offset])
        a[:, :, offset:] = np.einsum("ijnp,jknp->iknp", later, a[:, :, :-offset])
        b[:, offset:] = new_b
        offset *= 2


def _rk4_scan(step, s, c, times, x0):
    """RK4 iterates of a linear system at every time, one chunk at a time.

    step(s, c, t, h, *x) is one RK4 step on a state tuple x of length d.
    It is affine in x, so evaluating it on the unit states with no forcing
    and on the zero state with the forcing gives each step's map; the maps
    of a chunk are composed by _compose_prefix and applied to the chunk's
    start state.  Returns the (d, m+1, p) record, row 0 being x0.
    """
    dim, p = len(x0), s.size
    m = times.size - 1
    out = np.empty((dim, m + 1, p))
    out[:, 0] = x0
    chunk = _chunk_steps(p)
    # probe j < d is the unit state e_j without forcing; probe d is the
    # zero state with the forcing
    forcing = np.zeros((dim + 1, 1, p))
    forcing[dim] = c
    for k0 in range(0, m, chunk):
        k1 = min(k0 + chunk, m)
        t = times[k0:k1, None]
        h = times[k0 + 1:k1 + 1, None] - t
        probes = np.zeros((dim, dim + 1, k1 - k0, p))
        probes[range(dim), range(dim)] = 1.0
        maps = np.array(step(s, forcing, t, h, *probes))
        a, b = maps[:, :dim], maps[:, dim]
        _compose_prefix(a, b)
        out[:, k0 + 1:k1 + 1] = b + np.einsum("ijnp,jp->inp", a, out[:, k0])
    return out


def integrate_flow(kind: FlowKind, spectrum: Spectrum, forcing, t_end: float,
                   step: float = DEFAULT_STEP) -> Trajectory:
    """RK4 trajectory of the decoupled dynamics, sampled at every step.

    For the accelerated flow the record starts at t0 = 1e-6 with the series
    state; the other kinds start at t = 0 from rest.  The last sample lands
    at or just past t_end.
    """
    c = _validate_flow_inputs(kind, spectrum, forcing, t_end, step)
    s = spectrum.eigenvalues
    accelerated = kind is FlowKind.ACCELERATED_FLOW
    t0 = min(_ACCEL_T0, t_end) if accelerated and t_end > 0 else 0.0
    times = t0 + step * np.arange(max(int(np.ceil((t_end - t0) / step)), 0) + 1)
    if accelerated:
        pos, vel = _rk4_scan(_damped_step(lambda t: 3.0 / t), s, c, times,
                             (c * t0 * t0 / 8.0, c * t0 / 4.0))
    elif kind is FlowKind.HEAVY_BALL_FLOW:
        zero = np.zeros_like(c)
        rate = 2.0 * np.sqrt(spectrum.mu)
        pos, vel = _rk4_scan(_damped_step(lambda t: rate), s, c, times,
                             (zero, zero))
    else:
        (pos,) = _rk4_scan(_gf_step, s, c, times, (np.zeros_like(c),))
        vel = c - s * pos
    return Trajectory(kind=kind, times=times, positions=pos, velocities=vel)


def discrete_iterates(kind: FlowKind, x, y, config: IterateConfig) -> list[np.ndarray]:
    """The exact discrete recurrences on (X, y), started from zero.

    Returns [b(1), ..., b(k)].  Gradient descent applies the plain update;
    the accelerated iteration keeps the auxiliary sequence with momentum
    weight (k-1)/(k+2); heavy ball adds momentum*(b(k-1) - b(k-2)) with
    b(-1) = b(0) = 0, so its first step is a pure gradient step.
    """
    if kind not in _FLOWS:
        raise ValueError("discrete_iterates covers the three flows")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("x must be n x p with y of length n")
    n, p = x.shape
    eps = config.step_size
    big_l = design_decompose(x).spectrum.big_l
    if big_l > 0 and eps > 1.0 / big_l:
        warnings.warn(
            f"step size {eps:.3g} exceeds 1/L = {1.0 / big_l:.3g}; "
            "the iteration may diverge", RuntimeWarning, stacklevel=2)

    def grad_at(b):
        return x.T @ (y - x @ b) / n

    iterates = []
    if kind is FlowKind.GRADIENT_FLOW:
        b = np.zeros(p)
        for _ in range(config.iterations):
            b = b + eps * grad_at(b)
            iterates.append(b.copy())
    elif kind is FlowKind.ACCELERATED_FLOW:
        b_prev = np.zeros(p)
        theta = np.zeros(p)
        for k in range(1, config.iterations + 1):
            b = theta + eps * grad_at(theta)
            theta = b + (k - 1.0) / (k + 2.0) * (b - b_prev)
            b_prev = b
            iterates.append(b.copy())
    else:
        b_prev2 = np.zeros(p)
        b_prev = np.zeros(p)
        for _ in range(config.iterations):
            b = b_prev + eps * grad_at(b_prev) + config.momentum * (b_prev - b_prev2)
            b_prev2, b_prev = b_prev, b
            iterates.append(b.copy())
    return iterates


def _closed_form_positions(kind, spectrum, forcing, times):
    s = spectrum.eigenvalues
    live = s > 0
    target = np.zeros_like(forcing)
    target[live] = forcing[live] / s[live]
    g = factor_block(kind, s, times, spectrum.mu)
    return np.where(live[None, :], (1.0 - g) * target[None, :], 0.0)


def _snap_to_lattice(times: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    right = np.searchsorted(times, t_grid).clip(1, times.size - 1)
    left = right - 1
    pick_left = np.abs(t_grid - times[left]) <= np.abs(times[right] - t_grid)
    return np.unique(np.where(pick_left, left, right))


def compare_closed_form(kind: FlowKind, spectrum: Spectrum, forcing, t_grid,
                        step: float = DEFAULT_STEP) -> float:
    """Sup-norm gap between the RK4 trajectory and the closed-form path.

    Each requested time is snapped to the nearest integration sample, and
    the closed form is evaluated at the snapped times, so the comparison is
    free of interpolation error.  On null coordinates the closed form is 0;
    the forcing must vanish there (it always does for a channel coming from
    real data) for the dynamics to agree.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if (t_grid < 0).any():
        raise ValueError("t_grid must be nonnegative")
    traj = integrate_flow(kind, spectrum, forcing, float(t_grid.max()), step)
    idx = _snap_to_lattice(traj.times, t_grid)
    times = traj.times[idx]
    closed = _closed_form_positions(kind, spectrum,
                                    np.asarray(forcing, dtype=float), times)
    return float(np.abs(traj.positions[idx] - closed).max())


def _discrete_nesterov_factors(s, eps, iterations):
    """Shrinkage factors of the discrete accelerated iteration.

    The factor sequence obeys the homogeneous recurrence
    gb(k) = (1 - eps s) gth(k-1), gth(k) = (1+m_k) gb(k) - m_k gb(k-1)
    with gb(0) = gth(0) = 1 and m_k = (k-1)/(k+2).
    """
    gb_prev = np.ones_like(s)
    gth = np.ones_like(s)
    out = np.empty((iterations, s.size))
    for k in range(1, iterations + 1):
        gb = (1.0 - eps * s) * gth
        m = (k - 1.0) / (k + 2.0)
        gth = (1.0 + m) * gb - m * gb_prev
        gb_prev = gb
        out[k - 1] = gb
    return out


def nesterov_discrete_consistency(spectrum: Spectrum, weights, noise_scale: float,
                                  eps: float = 1e-2,
                                  iterations: int = 2000) -> dict:
    """Soft report: discrete accelerated iterates against the flow clock.

    The discrete iteration at step eps is read at time t = k sqrt(eps).
    The report locates the first risk minimum of the discrete sequence and
    of the continuous path and returns their time ratio.  The
    correspondence is asymptotic, so this is a labeled diagnostic, never an
    assertion.
    """
    s = spectrum.eigenvalues
    weights = np.asarray(weights, dtype=float)
    factors = _discrete_nesterov_factors(s, eps, iterations)
    bias, variance = bias_variance(factors, s, weights, noise_scale)
    risk_disc = bias + variance
    k_min = int(np.argmin(risk_disc))
    t_disc = (k_min + 1) * np.sqrt(eps)

    t_grid = np.logspace(-2, np.log10(max(iterations * np.sqrt(eps), 1.0)), 2000)
    bias, variance = bias_variance_curve(spectrum, weights, noise_scale,
                                         FlowKind.ACCELERATED_FLOW, t_grid)
    risk_flow = bias + variance
    t_flow = float(t_grid[int(np.argmin(risk_flow))])
    return {
        "eps": eps,
        "discrete_min_time": float(t_disc),
        "flow_min_time": t_flow,
        "time_ratio": float(t_disc / t_flow) if t_flow > 0 else float("nan"),
        "discrete_min_risk": float(risk_disc[k_min]),
        "flow_min_risk": float(risk_flow.min()),
    }
