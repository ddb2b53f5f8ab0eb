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
the state, per coordinate.  The integrator gets each step's map from the
RK4 stage formulas, composes the maps of a chunk of consecutive steps by
prefix doubling (log2 of the chunk length vectorized levels), and applies
the running compositions to the chunk's start state.  The iterates are
those of the classical fixed-step RK4 recurrence up to rounding (the
order of the products differs).  A chunk holds at most _SCAN_DOUBLES
(steps x coordinates) doubles per array, so memory beyond the recorded
trajectory does not grow with the horizon.

Gradient and heavy-ball flow have right-hand sides that ignore t, so a
step's map depends on its length h alone.  Their stage formulas run once
per distinct h of the whole scan, and each chunk gathers its maps from
that table; the accelerated flow's 3/t damping depends on t, so its maps
are evaluated per step, one chunk at a time.  The table stays small
because these flows start at t = 0: the lattice is fl(step k), and the
difference of two neighbours is exact (Sterbenz), a multiple of the ulp
of t within one ulp of step.  That leaves one to three distinct h per
binade of t, so about log2(steps) of them: 15 for the 10,000 steps of
t in [0, 50] at step 5e-3, and 21 to 28 for 4 million steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import _spectral_rows
from .linalg import MAX_DOUBLES, Spectrum, design_decompose
from .shrinkage import FlowKind

__all__ = [
    "Trajectory",
    "IterateConfig",
    "integrate_flow",
    "discrete_iterates",
    "compare_closed_form",
]

DEFAULT_STEP = 1e-3
_ACCEL_T0 = 1e-6
# Doubles per (steps x coordinates) array of one scan chunk: the chunk is
# _SCAN_DOUBLES // p steps, so the scan's temporaries stay at a few megabytes
# whatever the horizon and p.
_SCAN_DOUBLES = 1 << 12
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
    """Step size, momentum (heavy ball only), and iteration count.

    step_size must be finite and > 0, momentum finite and >= 0, and
    iterations an integer >= 1; anything else is a ValueError naming the
    field.
    """

    step_size: float
    iterations: int
    momentum: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(
                f"step_size must be finite and > 0, got {self.step_size!r}")
        if (not isinstance(self.iterations, (int, np.integer))
                or self.iterations < 1):
            raise ValueError(
                f"iterations must be an integer >= 1, got {self.iterations!r}")
        if not (np.isfinite(self.momentum) and self.momentum >= 0):
            raise ValueError(
                f"momentum must be finite and >= 0, got {self.momentum!r}")


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
    # one (steps x coordinates) array of the Trajectory
    if (steps + 1) * spectrum.p > MAX_DOUBLES:
        raise ValueError(f"t_end / step = {steps:.3g} steps x {spectrum.p} "
                         f"coordinates exceeds {MAX_DOUBLES} doubles")
    if kind is FlowKind.HEAVY_BALL_FLOW and spectrum.mu <= 0:
        raise ValueError("heavy-ball flow requires mu > 0")
    return c


def _rk4_step(rhs, s, c, t, h, x):
    """One classical RK4 step of x' = rhs(s, c, t, x) on a state tuple x."""
    half = 0.5 * h
    k1 = rhs(s, c, t, x)
    k2 = rhs(s, c, t + half, tuple(xi + half * ki for xi, ki in zip(x, k1)))
    k3 = rhs(s, c, t + half, tuple(xi + half * ki for xi, ki in zip(x, k2)))
    k4 = rhs(s, c, t + h, tuple(xi + h * ki for xi, ki in zip(x, k3)))
    return tuple(xi + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                 for xi, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4))


def _gradient_rhs(s, c, t, x):
    """Gradient flow u' = c - s u on the state (u,)."""
    return (c - s * x[0],)


def _damped_rhs(damping):
    """u'' + damping(t) u' + s u = c on the state (u, v = u')."""
    return lambda s, c, t, x: (x[1], c - s * x[0] - damping(t) * x[1])


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


def _rk4_scan(rhs, s, c, times, x0, autonomous=False):
    """RK4 iterates of x' = rhs(s, c, t, x) at every time, one chunk at a time.

    The system is linear, so one _rk4_step on a state tuple x of length d is
    affine in x: evaluating it on the unit states with no forcing and on
    the zero state with the forcing gives each step's map; the maps
    of a chunk are composed by _compose_prefix and applied to the chunk's
    start state.  When autonomous (rhs ignores t), the maps are evaluated
    once per distinct step length and gathered per chunk.  Returns the
    (d, m+1, p) record, row 0 being x0.
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

    def step_maps(t, h):
        probes = np.zeros((dim, dim + 1, h.shape[0], p))
        probes[range(dim), range(dim)] = 1.0
        return np.array(_rk4_step(rhs, s, forcing, t, h, tuple(probes)))

    if autonomous:
        lengths, which = np.unique(np.diff(times), return_inverse=True)
        table = step_maps(0.0, lengths[:, None])
    for k0 in range(0, m, chunk):
        k1 = min(k0 + chunk, m)
        if autonomous:
            # take, not fancy indexing: einsum is slow on the strided view
            maps = np.take(table, which[k0:k1], axis=2)
        else:
            t = times[k0:k1, None]
            maps = step_maps(t, times[k0 + 1:k1 + 1, None] - t)
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
        pos, vel = _rk4_scan(_damped_rhs(lambda t: 3.0 / t), s, c, times,
                             (c * t0 * t0 / 8.0, c * t0 / 4.0))
    elif kind is FlowKind.HEAVY_BALL_FLOW:
        zero = np.zeros_like(c)
        rate = 2.0 * np.sqrt(spectrum.mu)
        pos, vel = _rk4_scan(_damped_rhs(lambda t: rate), s, c, times,
                             (zero, zero), autonomous=True)
    else:
        (pos,) = _rk4_scan(_gradient_rhs, s, c, times, (np.zeros_like(c),),
                           autonomous=True)
        vel = c - s * pos
    return Trajectory(kind=kind, times=times, positions=pos, velocities=vel)


def discrete_iterates(kind: FlowKind, x, y, config: IterateConfig) -> list[np.ndarray]:
    """The exact discrete recurrences on (X, y), started from zero.

    Returns [b(1), ..., b(k)] from one momentum recurrence with
    b(-1) = b(0) = 0: z = b(k-1) + beta_k (b(k-1) - b(k-2)), then
    b(k) = z + eps grad(z) + m (b(k-1) - b(k-2)).  Gradient descent has
    beta = m = 0, the accelerated iteration beta_k = (k-2)/(k+1) and m = 0,
    heavy ball beta = 0 and m = momentum (a term a family lacks is skipped,
    not added as 0).  A non-finite entry of x or y is a ValueError, and so
    is a run that diverges (the message names its first non-finite iterate).
    """
    if kind not in _FLOWS:
        raise ValueError("discrete_iterates covers the three flows")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("x must be n x p with y of length n")
    if not np.isfinite(y).all():
        raise ValueError("y has non-finite entries")
    n, p = x.shape
    eps = config.step_size
    big_l = design_decompose(x).spectrum.big_l
    if big_l > 0 and eps > 1.0 / big_l:
        warnings.warn(
            f"step size {eps:.3g} exceeds 1/L = {1.0 / big_l:.3g}; "
            "the iteration may diverge", RuntimeWarning, stacklevel=2)

    def grad_at(b):
        return x.T @ (y - x @ b) / n

    nesterov = kind is FlowKind.ACCELERATED_FLOW
    heavy = kind is FlowKind.HEAVY_BALL_FLOW
    iterates = []
    b_prev2 = b_prev = np.zeros(p)
    # a diverging run overflows to inf, then NaN, and stays there
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.iterations + 1):
            step = b_prev - b_prev2
            z = b_prev + (k - 2.0) / (k + 1.0) * step if nesterov else b_prev
            b = z + eps * grad_at(z)
            if heavy:
                b = b + config.momentum * step
            iterates.append(b)
            b_prev2, b_prev = b_prev, b
    if not np.isfinite(b_prev).all():
        first = int(np.isfinite(iterates).all(axis=1).argmin()) + 1
        raise ValueError(f"the {kind.value} iterates diverge: iterate {first} "
                         f"is not finite at step size {eps:.3g}")
    return iterates


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
    closed = _spectral_rows(spectrum, np.asarray(forcing, dtype=float), kind,
                            times, float(times.max()), spectrum.eigenvalues > 0)
    return float(np.abs(traj.positions[idx] - closed).max())
