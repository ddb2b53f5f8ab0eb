"""Validate the closed-form paths against independent dynamics.

Two cross-checks on one seeded instance:
  1. RK4 integration of the three flow dynamics versus the closed forms,
     including the fourth-order step-halving signature;
  2. the discrete iterations against their continuous limits, with the
     plain gradient iteration converging at rate O(step).

Run:  python demos/demo_oracle.py
"""

import numpy as np

from flowrisk import (
    FlowKind,
    IterateConfig,
    Spectrum,
    attach_response,
    compare_closed_form,
    design_decompose,
    discrete_iterates,
)

rng = np.random.default_rng(20)
spectrum = Spectrum(np.sort(rng.uniform(0.05, 3.0, 8)))
forcing = rng.standard_normal(8)

print("RK4 versus closed forms, t in [0, 30]:")
for kind, token in ((FlowKind.GRADIENT_FLOW, "gf"),
                    (FlowKind.ACCELERATED_FLOW, "nest"),
                    (FlowKind.HEAVY_BALL_FLOW, "hb")):
    grid = np.linspace(0.0, 30.0, 301)
    errs = [compare_closed_form(kind, spectrum, forcing, grid, step=h)
            for h in (0.04, 0.02)]
    order = np.log2(errs[0] / errs[1]) if errs[1] > 0 else float("inf")
    print(f"  {token:>5}: sup error {errs[1]:.2e} at step 0.02 "
          f"(halving gain 2^{order:.1f})")

n, p = 80, 8
x = rng.standard_normal((n, p))
y = x @ rng.standard_normal(p) + rng.standard_normal(n)
design = attach_response(design_decompose(x), x, y)
s, c = design.spectrum.eigenvalues, design.rotated_channel
t_end = 2.0
print("\ndiscrete gradient iteration versus gradient flow at t = 2:")
for eps in (1e-1, 1e-2, 1e-3):
    k = int(round(t_end / eps))
    last = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                             IterateConfig(step_size=eps, iterations=k))[-1]
    flow = design.v_basis @ ((c / s) * (1.0 - np.exp(-t_end * s)))
    print(f"  step {eps:g}: gap {np.abs(last - flow).max():.2e}")

print("\nheavy-ball discrete iteration with a conventional momentum level "
      "(labeled experiment; the clock constant is not pinned by theory):")
eps = 0.3 / design.spectrum.big_l
mu, big_l = design.spectrum.mu, design.spectrum.big_l
momentum = (1.0 - np.sqrt(mu * eps)) ** 2
iterates = discrete_iterates(FlowKind.HEAVY_BALL_FLOW, x, y,
                             IterateConfig(step_size=eps, iterations=400,
                                           momentum=momentum))
ols = np.linalg.lstsq(x, y, rcond=None)[0]
gaps = [np.linalg.norm(b - ols) for b in iterates]
print(f"  eps = {eps:.4f}, momentum = {momentum:.4f}: distance to the "
      f"least-squares solution falls {gaps[0]:.3f} -> {gaps[-1]:.2e} "
      f"over {len(gaps)} iterations")
