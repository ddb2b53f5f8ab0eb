"""The flow-to-ridge dictionary, per realization, along the whole path.

Pairs each flow at time t with ridge at penalty 1/t^2 on one realized data
set and tracks the relative parameter error.  The accelerated gap never
exceeds 49/64 of the squared ridge norm and the heavy-ball gap never
exceeds 25x; both bounds hold pointwise in t, not just at the optimum.
Also shows why no uniform *bias* coupling constant can exist: along the
Bessel envelope peaks the bias ratio grows without bound.

Run:  python demos/demo_coupling.py
"""

import numpy as np

from flowrisk import (
    FlowKind,
    attach_response,
    coupling_gap,
    design_decompose,
    j1_ratio,
)

rng = np.random.default_rng(7)
n, p = 60, 8
x = rng.standard_normal((n, p))
y = x @ rng.standard_normal(p) + rng.standard_normal(n)
design = attach_response(design_decompose(x), x, y)

print("relative parameter error gap/||ridge||^2 along the path:")
print(f"{'t':>10} {'accelerated':>14} {'heavy ball':>12}")
t_grid = np.logspace(-2, 3, 11)
_, _, r_nest = coupling_gap(design, FlowKind.ACCELERATED_FLOW, t_grid)
_, _, r_hb = coupling_gap(design, FlowKind.HEAVY_BALL_FLOW, t_grid)
for row in zip(t_grid, r_nest, r_hb):
    print("{:>10.3g} {:>14.6f} {:>12.6f}".format(*row))
print(f"\npath maxima: accelerated {r_nest.max():.6f} (bound 49/64 = "
      f"{49 / 64:.6f}), heavy ball {r_hb.max():.6f} (bound 25)")

print("\nbias ratio at the Bessel envelope peaks (no uniform constant):")
# each x snapped to the nearest J1 envelope peak, u = sqrt(x) = 3 pi/4 + k pi,
# where the ratio (2 J1(u)/u)^2 (1+x)^2 grows like (8/pi) sqrt(x)
first_peak = 3.0 * np.pi / 4.0
for x_val in np.logspace(2, 6, 5):
    k = int(np.round((np.sqrt(x_val) - first_peak) / np.pi))
    u = first_peak + k * np.pi
    x_val = u * u
    ratio = float(j1_ratio(u) ** 2 * (1.0 + x_val) ** 2)
    print(f"  x = {x_val:>12.1f}: ratio {ratio:>10.1f}")
