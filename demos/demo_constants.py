"""Certify every constant in the theory and render the inflation envelope.

Runs the certification table `bounds.CHECKS` (the same rows the CLI's
verify-constants reports), prints each certified value next to its paper
value and tolerance, then writes the heavy-ball inflation envelope h(kappa)
for kappa in [1, 100] as a two-column CSV and a log-x SVG plot.

Run:  python demos/demo_constants.py
"""

import numpy as np

from flowrisk import h_kappa
from flowrisk.bounds import run_checks
from flowrisk.plotting import Series, render_line_plot

for check, result, value, _ in run_checks():
    print(f"{check.name:<26} {value:<12.6g} paper {check.paper_value:.6g} "
          f"({check.mode}, tol {check.tolerance:g})  "
          f"{'PASS' if check.passes(value) else 'FAIL'}")
    if check.name == "crossover_case_structure":
        for case in result.cases:
            where = "x = 0" if case.argmax_x == 0 else f"x = {case.argmax_x:.4f}"
            print(f"   z = {case.z:g}: case {case.case_index}, maximum at {where}")

kappas = np.linspace(1.0, 100.0, 400)
values = h_kappa(kappas)
with open("h_envelope.csv", "w") as fh:
    fh.write("kappa,h\n")
    for k, v in zip(kappas, values):
        fh.write(f"{k:.17g},{v:.17g}\n")
series = Series(label="h(kappa)", x=tuple(kappas), y=tuple(values))
with open("h_envelope.svg", "w") as fh:
    fh.write(render_line_plot([series], logx=True, x_label="kappa",
                              y_label="h", title="heavy-ball inflation envelope"))
print("\nwrote h_envelope.csv and h_envelope.svg "
      f"(h(1) = {h_kappa(1.0):.4f}, h(100) = {h_kappa(100.0):.4f})")
