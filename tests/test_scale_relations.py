"""Exact scale relations of the paper's maps, checked bit for bit.

Every quantity flowrisk computes from a design X depends on X only through
the spectrum and basis of X'X/n, and each family's factor through a product
that a power-of-two rescaling leaves unchanged.  So X -> 2^k X must

- multiply the spectrum by 4^k and leave the basis unchanged;
- leave every risk curve's squared bias unchanged and divide its variance
  by 4^k, at t / 4^k for gradient flow, t / 2^k for the accelerated and
  heavy-ball flows and 4^k lambda for ridge, fixed and Bayes alike;
- divide estimate by 2^k at those parameters, and leave coupling_gap's
  ratios unchanged at t / 2^k.

A power of two scales a double exactly wherever no intermediate leaves the
normal range, so each relation is compared with np.array_equal.  They are
metamorphic relations: T. Y. Chen, S. C. Cheung and S. M. Yiu, "Metamorphic
testing: a new approach for generating next test cases", HKUST-CS98-01,
1998.  The table runs in well under a second.
"""

import numpy as np

from flowrisk.estimators import coupling_gap, estimate
from flowrisk.linalg import attach_response, design_decompose
from flowrisk.risk import SignalModel, risk_curve
from flowrisk.shrinkage import FlowKind

SPECTRUM_KS = (1, -1, 3, -3, 200, -200, 240, -240, 243, -243, 300, -300,
               480, -480)
CURVE_KS = (1, -1, 3, -3, 200, -200, 400, -400, 500)

GF, NEST, HB, RIDGE = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
                       FlowKind.HEAVY_BALL_FLOW, FlowKind.RIDGE)
# the power of 2^k that rescales each family's parameter
PARAM_POWER = {GF: -2, NEST: -1, HB: -1, RIDGE: 2}
GRID = np.array([0.0, 0.05, 0.3, 1.0, 4.0, 25.0])

# Relations that cannot hold bit for bit: at k = 500 part of heavy ball's
# rescaled variance falls below 2^-1022 and loses bits as a subnormal
INEXACT = {("variance", "hb", "fixed", 500), ("variance", "hb", "prior", 500)}


def _instance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 12))
    beta0 = rng.standard_normal(12)
    y = x @ beta0 + 0.5 * rng.standard_normal(60)
    return x, y, beta0


def _design(k):
    x, y, _ = _instance()
    x = np.ldexp(x, k)
    return attach_response(design_decompose(x), x, y)


def _curves(design, beta0, kind, grid):
    signals = {"fixed": SignalModel.fixed(design.v_basis.T @ beta0, 0.7, 60),
               "prior": SignalModel.prior(r_sq=1.3, sigma_sq=0.7, n=60)}
    return {mode: risk_curve(design.spectrum, signal, kind, grid)
            for mode, signal in signals.items()}


def _failures():
    """The name of every relation of the table that does not hold exactly,
    with the rescaled curves it was read from."""
    _, _, beta0 = _instance()
    base = _design(0)
    failed, curves = set(), {}
    for k in SPECTRUM_KS:
        design = _design(k)
        if not np.array_equal(design.spectrum.eigenvalues,
                              np.ldexp(base.spectrum.eigenvalues, 2 * k)):
            failed.add(("spectrum", k))
        if not np.array_equal(design.v_basis, base.v_basis):
            failed.add(("basis", k))
    for kind, power in PARAM_POWER.items():
        want = _curves(base, beta0, kind, GRID)
        want_beta = estimate(base, kind, GRID)
        for k in CURVE_KS:
            design = _design(k)
            grid = np.ldexp(GRID, power * k)
            for mode, curve in _curves(design, beta0, kind, grid).items():
                curves[kind.value, mode, k] = curve
                if not np.array_equal(curve.bias_sq, want[mode].bias_sq):
                    failed.add(("bias", kind.value, mode, k))
                if not np.array_equal(curve.variance,
                                      np.ldexp(want[mode].variance, -2 * k)):
                    failed.add(("variance", kind.value, mode, k))
            if not np.array_equal(estimate(design, kind, grid),
                                  np.ldexp(want_beta, -k)):
                failed.add(("estimate", kind.value, k))
            if kind in (NEST, HB) and not np.array_equal(
                    coupling_gap(design, kind, grid[1:])[2],
                    coupling_gap(base, kind, GRID[1:])[2]):
                failed.add(("coupling", kind.value, k))
    return failed, curves


def test_the_failing_relations_are_exactly_the_inexact_ones():
    failed, curves = _failures()
    assert failed == INEXACT
    # and each inexact case is a subnormal variance
    tiny = np.finfo(float).tiny
    for _, kind, mode, k in INEXACT:
        variance = curves[kind, mode, k].variance
        assert ((variance > 0) & (variance < tiny)).any()
