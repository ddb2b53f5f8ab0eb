import math

import numpy as np
import pytest
from scipy.special import j1

from flowrisk.estimators import flow_estimate, ridge_estimate
from flowrisk.linalg import Spectrum, attach_response, design_decompose
from flowrisk.risk import (
    _BLOCK_DOUBLES,
    OscillationReport,
    RiskDecomposition,
    SignalModel,
    bayes_risk,
    bias_variance_curve,
    fixed_risk,
    optimal_ridge_bayes_risk,
    oscillation_report,
    risk_curve,
)
from flowrisk.shrinkage import FlowKind

from oracles import j1_series

UNIT = Spectrum(np.array([1.0]))
# sigma_sq = n = 1 gives noise scale sigma^2/n = 1
FIXED_UNIT = SignalModel.fixed(np.array([1.0]), sigma_sq=1.0, n=1)
PRIOR_UNIT = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=1)  # alpha = 1 at p = 1


class TestFixedRisk:
    @pytest.mark.parametrize("kind", [FlowKind.GRADIENT_FLOW,
                                      FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_start_of_path(self, kind, simple_spectrum):
        signal = SignalModel.fixed(np.array([1.0, -2.0, 0.5, 3.0]),
                                   sigma_sq=2.0, n=10)
        dec = fixed_risk(simple_spectrum, signal, kind, 0.0)
        assert dec.bias_sq == pytest.approx(1 + 4 + 0.25 + 9, rel=1e-15)
        assert dec.variance == 0.0

    def test_ridge_scalar_substitution(self):
        dec = fixed_risk(UNIT, FIXED_UNIT, FlowKind.RIDGE, 1.0)
        assert dec.bias_sq == pytest.approx(0.25, abs=1e-15)
        assert dec.variance == pytest.approx(0.25, abs=1e-15)
        assert dec.risk == pytest.approx(0.5, abs=1e-15)

    def test_accelerated_scalar_via_series_oracle(self):
        g = j1_series(2.0)  # shrinkage factor at s = 1, t = 2
        dec = fixed_risk(UNIT, FIXED_UNIT, FlowKind.ACCELERATED_FLOW, 2.0)
        assert dec.bias_sq == pytest.approx(g * g, abs=1e-9)
        assert dec.variance == pytest.approx((1 - g) ** 2, abs=1e-9)
        assert dec.bias_sq == pytest.approx(0.33261, abs=1e-4)
        assert dec.variance == pytest.approx(0.17916, abs=1e-4)

    def test_null_directions_feed_bias_only(self):
        spec = Spectrum(np.array([0.0, 0.0, 1.0]))
        signal = SignalModel.fixed(np.array([2.0, -1.0, 0.3]), sigma_sq=1.0, n=4)
        for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW):
            for t in (0.5, 3.0, 50.0):
                dec = fixed_risk(spec, signal, kind, t)
                live = fixed_risk(Spectrum(np.array([1.0])),
                                  SignalModel.fixed(np.array([0.3]),
                                                    sigma_sq=1.0, n=4),
                                  kind, t)
                assert dec.bias_sq == pytest.approx(4 + 1 + live.bias_sq,
                                                    rel=1e-14)
                assert dec.variance == pytest.approx(live.variance, rel=1e-14)
        dec = fixed_risk(spec, signal, FlowKind.RIDGE, 2.0)
        assert dec.bias_sq >= 5.0

    def test_mode_mismatch(self, simple_spectrum):
        with pytest.raises(ValueError, match="fixed"):
            fixed_risk(simple_spectrum, PRIOR_UNIT, FlowKind.GRADIENT_FLOW, 1.0)


class TestBayesRisk:
    def test_gradient_flow_scalar(self):
        dec = bayes_risk(UNIT, PRIOR_UNIT, FlowKind.GRADIENT_FLOW, 1.0)
        expected = math.exp(-2.0) + (1 - math.exp(-1.0)) ** 2
        assert dec.risk == pytest.approx(expected, abs=1e-8)
        assert expected == pytest.approx(0.53492, abs=1e-5)

    @pytest.mark.parametrize("kind", [FlowKind.GRADIENT_FLOW,
                                      FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_prior_energy_at_start(self, kind, simple_spectrum):
        prior = SignalModel.prior(r_sq=2.5, sigma_sq=1.0, n=20)
        dec = bayes_risk(simple_spectrum, prior, kind, 0.0)
        assert dec.risk == pytest.approx(2.5, rel=1e-14)

    def test_accelerated_scalar(self):
        g = j1_series(2.0)
        dec = bayes_risk(UNIT, PRIOR_UNIT, FlowKind.ACCELERATED_FLOW, 2.0)
        assert dec.risk == pytest.approx(g * g + (1 - g) ** 2, abs=1e-6)
        assert dec.risk == pytest.approx(0.51177, abs=1e-5)

    def test_matches_average_of_fixed_risk(self, simple_spectrum):
        # Monte Carlo over the prior: 2000 coefficient draws, 3 sigma band
        rng = np.random.default_rng(99)
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=25)
        m, p = 2000, simple_spectrum.p
        draws = rng.standard_normal((m, p)) * np.sqrt(prior.r_sq / p)
        for kind, param in [(FlowKind.GRADIENT_FLOW, 1.3),
                            (FlowKind.ACCELERATED_FLOW, 2.0),
                            (FlowKind.RIDGE, 0.4)]:
            risks = np.array([
                fixed_risk(simple_spectrum,
                           SignalModel.fixed(b, sigma_sq=1.0, n=25),
                           kind, param).risk
                for b in draws])
            se = risks.std(ddof=1) / np.sqrt(m)
            target = bayes_risk(simple_spectrum, prior, kind, param).risk
            assert abs(risks.mean() - target) <= 3 * se


class TestOptimalRidge:
    def test_scalar_substitution(self):
        risk, lam = optimal_ridge_bayes_risk(UNIT, PRIOR_UNIT)
        assert risk == pytest.approx(0.5, abs=1e-15)
        assert lam == pytest.approx(1.0, abs=1e-15)

    def test_null_spectrum_returns_prior_energy(self):
        spec = Spectrum(np.zeros(3))
        prior = SignalModel.prior(r_sq=1.7, sigma_sq=1.0, n=12)
        risk, _ = optimal_ridge_bayes_risk(spec, prior)
        assert risk == pytest.approx(1.7, rel=1e-14)

    def test_matches_grid_minimization_oracle(self):
        rng = np.random.default_rng(21)
        spec = Spectrum(np.sort(rng.uniform(0.01, 3.0, 7)))
        prior = SignalModel.prior(r_sq=0.8, sigma_sq=1.5, n=30)
        opt, lam_star = optimal_ridge_bayes_risk(spec, prior)
        lams = np.logspace(-4, 3, 20000)
        grid_best = min(bayes_risk(spec, prior, FlowKind.RIDGE, lam).risk
                        for lam in lams)
        assert opt == pytest.approx(grid_best, rel=1e-6)
        assert opt <= grid_best + 1e-12

    def test_bayes_optimality_floor(self, simple_spectrum):
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=15)
        floor, _ = optimal_ridge_bayes_risk(simple_spectrum, prior)
        for kind in FlowKind:
            for param in np.logspace(-2, 2, 60):
                assert bayes_risk(simple_spectrum, prior, kind,
                                  param).risk >= floor - 1e-10


class TestRiskCurve:
    def test_single_point_grid(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        curve = risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW,
                           np.array([0.0]))
        assert len(curve) == 1
        assert curve[0][1].variance == 0.0

    def test_gradient_flow_monotone_components(self, simple_spectrum):
        signal = SignalModel.fixed(np.array([1.0, -0.5, 2.0, 0.25]),
                                   sigma_sq=1.0, n=10)
        curve = risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW,
                           np.logspace(-2, 3, 200))
        bias = np.array([d.bias_sq for _, d in curve])
        var = np.array([d.variance for _, d in curve])
        assert (np.diff(bias) <= 1e-12).all()
        assert (np.diff(var) >= -1e-12).all()

    def test_accelerated_curve_oscillates(self):
        signal = SignalModel.fixed(np.array([1.0]), sigma_sq=1.0, n=1)
        curve = risk_curve(UNIT, signal, FlowKind.ACCELERATED_FLOW,
                           np.linspace(0.01, 40.0, 2000))
        report = oscillation_report(curve)
        assert report.num_local_maxima >= 1
        assert report.max_rebound > 0

    def test_grid_validation(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        with pytest.raises(ValueError, match="ascending"):
            risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW,
                       np.array([1.0, 0.5]))

    def test_output_order_matches_grid(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        grid = np.array([0.1, 1.0, 10.0])
        curve = risk_curve(simple_spectrum, signal, FlowKind.RIDGE, grid)
        assert [p for p, _ in curve] == list(grid)


class TestOscillationReport:
    @staticmethod
    def _fake_curve(risks):
        return [(float(i), RiskDecomposition(bias_sq=r, variance=0.0))
                for i, r in enumerate(risks)]

    def test_monotone_curve(self):
        rep = oscillation_report(self._fake_curve([5, 4, 3, 2, 1]))
        assert rep == OscillationReport(0, 0.0)

    def test_single_rebound(self):
        rep = oscillation_report(self._fake_curve([3.0, 1.0, 2.0, 0.5]))
        assert rep.num_local_maxima == 1
        assert rep.max_rebound == pytest.approx(1.0)

    def test_two_peaks_takes_largest_rebound(self):
        rep = oscillation_report(
            self._fake_curve([3.0, 1.0, 1.5, 0.25, 2.25, 2.0]))
        assert rep.num_local_maxima == 2
        assert rep.max_rebound == pytest.approx(2.0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            oscillation_report(self._fake_curve([1.0, 2.0]))


def test_decomposition_identity_everywhere(simple_spectrum):
    signal = SignalModel.fixed(np.array([0.5, 1.0, -1.0, 2.0]),
                               sigma_sq=2.0, n=8)
    for kind in FlowKind:
        for param in (0.05, 0.9, 12.0):
            dec = fixed_risk(simple_spectrum, signal, kind, param)
            assert dec.risk == dec.bias_sq + dec.variance


def test_closed_forms_match_monte_carlo_estimators():
    # independent cross-check: realized estimators under resampled noise
    rng = np.random.default_rng(1234)
    n, p = 30, 4
    x = rng.standard_normal((n, p))
    base = design_decompose(x)
    beta0 = rng.standard_normal(p)
    sigma = 0.7
    signal = SignalModel.fixed(base.v_basis.T @ beta0,
                               sigma_sq=sigma ** 2, n=n)
    m = 3000
    cases = [(FlowKind.GRADIENT_FLOW, 0.8), (FlowKind.ACCELERATED_FLOW, 2.5),
             (FlowKind.HEAVY_BALL_FLOW, 1.5), (FlowKind.RIDGE, 0.25)]
    noise = rng.standard_normal((m, n)) * sigma
    for kind, param in cases:
        sq_errors = np.empty(m)
        for i in range(m):
            y = x @ beta0 + noise[i]
            d = attach_response(base, x, y)
            if kind is FlowKind.RIDGE:
                bhat = ridge_estimate(d, param)
            else:
                bhat = flow_estimate(d, kind, param)
            sq_errors[i] = np.sum((bhat - beta0) ** 2)
        se = sq_errors.std(ddof=1) / np.sqrt(m)
        target = fixed_risk(base.spectrum, signal, kind, param).risk
        assert abs(sq_errors.mean() - target) <= 3 * se


def _direct_factors(kind, s, t):
    """The four closed forms at one grid point, written out directly."""
    if kind is FlowKind.GRADIENT_FLOW:
        return np.exp(-t * s)
    if kind is FlowKind.RIDGE:
        return t / (s + t)
    if kind is FlowKind.ACCELERATED_FLOW:
        u = t * np.sqrt(s)
        safe = np.where(u > 0, u, 1.0)
        return np.where(u > 0, 2.0 * j1(safe) / safe, 1.0)
    a = t * np.sqrt(s[0])
    b = t * np.sqrt(s - s[0])
    safe = np.where(b > 0, b, 1.0)
    return np.exp(-a) * (np.cos(b) + a * np.where(b > 0, np.sin(safe) / safe, 1.0))


def test_block_reduction_matches_direct_sums():
    # more than three row blocks with a partial last one, null directions
    # in every family but heavy ball, and an eigenvalue repeated at mu
    rng = np.random.default_rng(11)
    positive = np.sort(rng.uniform(1e-4, 4.0, 4095))
    positive[1] = positive[0]
    grid = np.logspace(-2, 3, 52)
    for kind in FlowKind:
        s = positive if kind is FlowKind.HEAVY_BALL_FLOW else \
            np.concatenate([np.zeros(4), positive])
        rows = _BLOCK_DOUBLES // s.size
        assert grid.size > 3 * rows and grid.size % rows
        weights = rng.uniform(0.0, 1.0, s.size)
        bias, variance = bias_variance_curve(Spectrum(s), weights, 0.3, kind,
                                             grid)
        live = s > 0
        for k, t in enumerate(grid):
            g = _direct_factors(kind, s, t)
            want_bias = np.sum(weights * g * g)
            want_var = 0.3 * np.sum((1.0 - g[live]) ** 2 / s[live])
            assert bias[k] == pytest.approx(want_bias, rel=1e-13, abs=0)
            assert variance[k] == pytest.approx(want_var, rel=1e-13, abs=0)


def test_subnormal_eigenvalue_keeps_variance_finite():
    spec = Spectrum(np.array([0.0, 1e-310, 1.0]))
    signal = SignalModel.fixed(np.ones(3), sigma_sq=1.0, n=1)
    for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
                 FlowKind.RIDGE):
        for _, dec in risk_curve(spec, signal, kind, [0.5, 2.0]):
            assert np.isfinite(dec.variance)
