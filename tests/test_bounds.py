import math

import numpy as np
import pytest

from flowrisk.bounds import (
    CHECKS,
    GridSpec,
    bias_ratio_unbounded_witness,
    gf_inflation_constant,
    gf_inflation_objective,
    h_kappa,
    hb_inflation_check,
    hb_param_error_check,
    hb_variance_bound_check,
    hb_kernel_bound_checks,
    nest_inflation_constant,
    nest_inflation_objective,
    nest_param_error_constant,
    tilde_h,
    tilde_h_crossover,
    tilde_h_maximizer,
)
from flowrisk.linalg import Spectrum
from flowrisk.risk import SignalModel
from flowrisk.shrinkage import hb_kernel_complement


class TestInflationConstants:
    def test_gradient_flow_value(self):
        result = gf_inflation_constant()
        assert CHECKS["gradient_flow_inflation"].passes(result.value)
        assert result.value >= 1.0

    def test_inner_max_dominates_single_point(self):
        # at tau = 1, the max over x is at least the value at x = 1
        probe = 2 * math.exp(-2.0) + 2 * (1 - math.exp(-1.0)) ** 2
        xs = GridSpec(1e-8, 1e6, 2000, "log").points()
        assert gf_inflation_objective(1.0, xs).max() >= probe
        assert probe == pytest.approx(1.06982, abs=1e-4)

    def test_objective_limits(self):
        assert gf_inflation_objective(0.5, np.array([1e-8]))[0] == \
            pytest.approx(1.0, abs=1e-6)
        assert nest_inflation_objective(0.5, np.array([1e-8]))[0] == \
            pytest.approx(1.0, abs=1e-6)

    def test_accelerated_value(self):
        result = nest_inflation_constant()
        assert CHECKS["accelerated_inflation"].passes(result.value)

    def test_ordering(self):
        assert gf_inflation_constant().value < nest_inflation_constant().value

    def test_value_consistent_with_optimizers(self):
        r = gf_inflation_constant()
        assert type(r.tau_star) is float
        at_star = float(gf_inflation_objective(r.tau_star,
                                               np.array([r.x_star]))[0])
        assert abs(at_star - r.value) <= 1e-10
        r = nest_inflation_constant()
        at_star = float(nest_inflation_objective(r.tau_star,
                                                 np.array([r.x_star]))[0])
        assert abs(at_star - r.value) <= 1e-10

    def test_sandwich_refinement_stability(self):
        base = gf_inflation_constant()
        dense = gf_inflation_constant(
            tau_spec=GridSpec(1e-3, 10.0, 800, "log"),
            x_spec=GridSpec(1e-8, 1e6, 8000, "log"))
        assert abs(base.value - dense.value) < 1e-3


class TestNestParamError:
    def test_certified_value(self):
        sup, x_star = nest_param_error_constant()
        assert CHECKS["accelerated_param_error"].passes(sup)
        assert x_star <= 1e-6  # supremum approached at the left end

    def test_limit_monitor_near_zero(self):
        from flowrisk.special import j1_ratio_complement
        x = 1e-6
        f = j1_ratio_complement(x) * (x * x + 1.0) / (x * x)
        paper = CHECKS["accelerated_param_error"].paper_value
        assert (f - 1.0) ** 2 == pytest.approx(paper, abs=1e-6)

    def test_decay_at_large_arguments(self):
        from flowrisk.special import j1_ratio_complement
        x = 1e4
        f = j1_ratio_complement(x) * (x * x + 1.0) / (x * x)
        assert (f - 1.0) ** 2 <= 1e-3


class TestHbParamError:
    def test_grid_maxima_within_bounds(self):
        f_sq, fm1_sq = CHECKS["heavy_ball_f_sq"], CHECKS["heavy_ball_param_error"]
        rep = hb_param_error_check(*f_sq.args)
        assert f_sq.passes(rep.max_f_sq) and fm1_sq.passes(rep.max_fm1_sq)
        assert rep.nodes_checked > 0

    def test_degenerate_slice_uses_limit_kernel(self):
        # s = mu: kernel becomes (1 + a) e^{-a}
        mu, t = 0.7, 1.3
        a = t * math.sqrt(mu)
        comp = hb_kernel_complement(a, 0.0)
        assert comp == pytest.approx(1 - (1 + a) * math.exp(-a), abs=1e-14)

    def test_small_time_slice_is_second_order(self):
        mu, s, t = 1.0, 2.0, 1e-3
        a, b, x = t * math.sqrt(mu), t * math.sqrt(s - mu), t * math.sqrt(s)
        comp = hb_kernel_complement(a, b)
        assert comp ** 2 <= 4.0 * x ** 4 * (1 + 1e-9)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            hb_param_error_check(np.array([0.0, 1.0]), np.array([1.0]),
                                 np.array([1.0]))
        with pytest.raises(ValueError):
            hb_param_error_check(np.array([2.0]), np.array([1.0]),
                                 np.array([1.0]))  # no s >= mu nodes


class TestHKappa:
    def test_anchor_at_one(self):
        assert h_kappa(1.0) == pytest.approx(
            CHECKS["h_at_kappa_1"].paper_value, abs=1e-14)

    def test_monotone_on_grid(self):
        ks = np.linspace(1.0, 100.0, 400)
        assert (np.diff(h_kappa(ks)) >= 0).all()

    def test_growth_exponent_two_thirds(self):
        # h(kappa) = (8 + phi^6 e^{-2 phi}) kappa^{2/3(1 + o(1))}: the
        # variance part contributes 8, the bias envelope a constant ~0.707
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        limit = 8.0 + phi ** 6 * math.exp(-2.0 * phi)
        for kappa in (1e3, 1e6):
            ratio = h_kappa(kappa) / kappa ** (2.0 / 3.0)
            assert ratio == pytest.approx(limit, rel=1e-2)
        assert h_kappa(1e6) / 1e6 ** (2.0 / 3.0) == pytest.approx(limit,
                                                                  rel=1e-4)

    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError):
            h_kappa(0.5)


class TestCrossover:
    def test_z_star(self):
        result = tilde_h_crossover()
        assert CHECKS["crossover_z"].passes(result.z_star)
        assert tilde_h(tilde_h_maximizer(result.z_star), result.z_star) == \
            pytest.approx(1.0, abs=1e-9)

    def test_case_structure(self):
        result = tilde_h_crossover(sample_z=(0.5, 0.95, 2.0))
        by_z = {c.z: c for c in result.cases}
        assert by_z[0.5].case_index == 1
        assert by_z[0.5].argmax_x == 0.0
        assert by_z[0.95].case_index == 2
        assert by_z[0.95].argmax_x == pytest.approx(by_z[0.95].x_star,
                                                    abs=1e-3)
        assert by_z[2.0].case_index == 3
        assert by_z[2.0].x_star == pytest.approx(3.0, abs=1e-12)
        assert all(c.structure_ok for c in result.cases)

    def test_below_crossover_interior_peak_is_lower(self):
        z = 0.9  # in (2/sqrt(5), z*)
        assert tilde_h(tilde_h_maximizer(z), z) < 1.0


class TestVarianceBound:
    def test_report_ok(self):
        rep = hb_variance_bound_check()
        assert CHECKS["h_recomposition"].passes(rep.max_recomposition_error)
        assert rep.max_branch_gap <= 0.0
        # 8 tau^4 = 8 kappa^{2/3} to 1e-10 relative to the largest, 8 * 1e4^{2/3}
        assert rep.max_equality_error <= 1e-10 * 8.0 * 1e4 ** (2.0 / 3.0)

    def test_kappa_one_branch_values(self):
        # 8 tau^4 = 8 dominates 2 (1 + 2/e)^2 ~ 6.03
        second = 2.0 * (1.0 + 2.0 * math.exp(-1.0)) ** 2
        assert second < 8.0
        assert second == pytest.approx(6.0257, abs=1e-4)

    def test_kappa_64_substitution(self):
        tau = 64.0 ** (1.0 / 6.0)
        assert 8.0 * tau ** 4 == pytest.approx(8.0 * 64.0 ** (2.0 / 3.0),
                                               rel=1e-14)
        assert 8.0 * tau ** 4 == pytest.approx(128.0, rel=1e-14)

    def test_recomposition_at_anchor_kappas(self):
        for kappa in (1.0, 8.0, 1000.0):
            z = kappa ** (1.0 / 3.0)
            recomp = float(tilde_h(tilde_h_maximizer(z), z)) \
                + 8.0 * kappa ** (2.0 / 3.0)
            assert CHECKS["h_recomposition"].passes(abs(recomp - h_kappa(kappa)))


class TestHbInflation:
    def test_single_eigenvalue_ratio_at_least_one(self):
        spec = Spectrum(np.array([1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=1)  # alpha = 1
        result = hb_inflation_check(spec, prior)
        assert result.ratio >= 1.0 - 1e-9
        assert result.ok

    def test_power_law_spectra(self):
        for nu in (0.5, 1.0, 2.0):
            vals = np.sort(1.0 / np.arange(1, 41, dtype=float) ** nu)
            spec = Spectrum(vals)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=200)
            result = hb_inflation_check(spec, prior)
            assert result.ok, (nu, result)

    def test_condition_one_design(self):
        spec = Spectrum(np.ones(10))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=50)
        result = hb_inflation_check(spec, prior)
        assert result.ratio <= h_kappa(1.0) + 1e-9
        assert result.ok

    def test_rejects_singular_spectrum(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=10)
        with pytest.raises(ValueError):
            hb_inflation_check(spec, prior)


class TestKernelBounds:
    def test_zero_violations_dense_grid(self):
        kernel = CHECKS["kernel_inequalities"]  # worst of the three violations
        assert kernel.passes(kernel.value_of(hb_kernel_bound_checks(*kernel.args)))

    def test_degenerate_slice_is_equality(self):
        # s = mu makes the bias inequality an identity
        rep = hb_kernel_bound_checks(np.array([0.8]), np.array([0.8]),
                                  np.array([0.0, 0.5, 2.0]))
        assert rep.max_violation_bias <= 1e-14

    def test_time_zero_slice(self):
        rep = hb_kernel_bound_checks(np.array([0.5]), np.array([1.0]),
                                  np.array([0.0]))
        kernel = CHECKS["kernel_inequalities"]
        assert kernel.passes(kernel.value_of(rep))


class TestBiasRatioWitness:
    def test_growth_over_four_decades(self):
        pts = np.logspace(2, 6, 40)
        out = bias_ratio_unbounded_witness(pts)
        assert out[-1][1] > 10.0 * out[0][1]

    def test_small_argument_limit(self):
        out = bias_ratio_unbounded_witness(np.logspace(-6, -2, 10))
        assert out[0][1] == pytest.approx(1.0, abs=1e-3)

    def test_peaks_snapped_to_envelope(self):
        out = bias_ratio_unbounded_witness(np.logspace(2, 6, 10))
        for x, ratio in out:
            u = math.sqrt(x)
            k = round((u - 3 * math.pi / 4) / math.pi)
            assert u == pytest.approx(3 * math.pi / 4 + k * math.pi, abs=1e-9)
            assert ratio > 0

    def test_requires_four_decades(self):
        with pytest.raises(ValueError, match="decades"):
            bias_ratio_unbounded_witness(np.logspace(0, 2, 5))
