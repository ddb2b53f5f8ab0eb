import math

import numpy as np
import pytest

from flowrisk.linalg import Spectrum
from flowrisk.oracle import (
    IterateConfig,
    compare_closed_form,
    discrete_iterates,
    integrate_flow,
    nesterov_discrete_consistency,
)
from flowrisk.shrinkage import FlowKind
from flowrisk.special import j1_ratio

UNIT = Spectrum(np.array([1.0]))


class TestIntegrateFlow:
    def test_gradient_flow_scalar_exponential(self):
        traj = integrate_flow(FlowKind.GRADIENT_FLOW, UNIT, np.array([1.0]),
                              5.0, step=1e-3)
        for t in (1.0, 5.0):
            k = traj.nearest_index(t)
            assert traj.positions[k, 0] == pytest.approx(
                1.0 - math.exp(-traj.times[k]), abs=1e-8)

    def test_accelerated_scalar_matches_bessel_form(self):
        traj = integrate_flow(FlowKind.ACCELERATED_FLOW, UNIT, np.array([1.0]),
                              2.0, step=1e-3)
        k = traj.nearest_index(2.0)
        expected = 1.0 - j1_ratio(traj.times[k])
        assert traj.positions[k, 0] == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.42328, abs=1e-4)

    def test_null_coordinate_stays_exactly_zero(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        forcing = np.array([0.0, 0.7])
        traj = integrate_flow(FlowKind.ACCELERATED_FLOW, spec, forcing,
                              10.0, step=5e-3)
        assert (traj.positions[:, 0] == 0.0).all()

    def test_initial_state_at_rest(self):
        spec = Spectrum(np.array([0.5, 2.0]))
        forcing = np.array([1.0, -1.0])
        for kind in (FlowKind.GRADIENT_FLOW, FlowKind.HEAVY_BALL_FLOW):
            traj = integrate_flow(kind, spec, forcing, 1.0, step=1e-2)
            assert traj.times[0] == 0.0
            assert np.array_equal(traj.positions[0], np.zeros(2))
        traj = integrate_flow(FlowKind.ACCELERATED_FLOW, spec, forcing,
                              1.0, step=1e-2)
        assert traj.times[0] == pytest.approx(1e-6)
        assert np.abs(traj.positions[0]).max() <= 1e-12

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            integrate_flow(FlowKind.GRADIENT_FLOW, UNIT, np.array([1.0]),
                           1.0, step=0.0)

    def test_heavy_ball_needs_positive_mu(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="mu > 0"):
            integrate_flow(FlowKind.HEAVY_BALL_FLOW, spec,
                           np.array([0.0, 1.0]), 1.0, step=1e-2)

    def test_heavy_ball_energy_dissipates(self):
        spec = Spectrum(np.array([0.3, 1.0, 2.5]))
        forcing = np.array([0.5, -1.0, 2.0])
        traj = integrate_flow(FlowKind.HEAVY_BALL_FLOW, spec, forcing,
                              20.0, step=5e-3)
        target = forcing / spec.eigenvalues
        kinetic = 0.5 * (traj.velocities ** 2).sum(axis=1)
        potential = 0.5 * ((traj.positions - target) ** 2
                           @ spec.eigenvalues)
        energy = kinetic + potential
        assert (np.diff(energy) <= 1e-8 * max(1.0, energy[0])).all()


class TestCompareClosedForm:
    def test_gradient_flow_tight(self):
        rng = np.random.default_rng(0)
        spec = Spectrum(np.sort(rng.uniform(0.05, 3.0, 5)))
        forcing = rng.standard_normal(5)
        err = compare_closed_form(FlowKind.GRADIENT_FLOW, spec, forcing,
                                  np.linspace(0, 5, 100), step=1e-3)
        assert err <= 1e-8

    @pytest.mark.parametrize("kind", [FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_second_order_flows(self, kind):
        rng = np.random.default_rng(1)
        spec = Spectrum(np.sort(rng.uniform(0.05, 3.0, 5)))
        forcing = rng.standard_normal(5)
        err = compare_closed_form(kind, spec, forcing,
                                  np.linspace(0, 20, 200), step=2e-3)
        assert err <= 1e-6

    def test_heavy_ball_with_degenerate_eigenvalue(self):
        spec = Spectrum(np.array([0.4, 0.4, 1.7]))
        forcing = np.array([1.0, -0.5, 0.25])
        err = compare_closed_form(FlowKind.HEAVY_BALL_FLOW, spec, forcing,
                                  np.linspace(0, 20, 200), step=2e-3)
        assert err <= 1e-6

    def test_step_halving_fourth_order(self):
        rng = np.random.default_rng(2)
        spec = Spectrum(np.sort(rng.uniform(0.2, 2.5, 4)))
        forcing = rng.standard_normal(4)
        grid = np.linspace(0, 10, 50)
        for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
                     FlowKind.HEAVY_BALL_FLOW):
            e_coarse = compare_closed_form(kind, spec, forcing, grid, step=0.08)
            e_fine = compare_closed_form(kind, spec, forcing, grid, step=0.04)
            if e_fine <= 1e-10:  # at the accuracy floor, the ratio saturates
                continue
            assert e_coarse / e_fine >= 8.0


class TestDiscreteIterates:
    def test_single_gd_step(self, small_instance):
        _, x, y, _ = small_instance
        iterates = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                                     IterateConfig(step_size=0.1, iterations=1))
        assert np.allclose(iterates[0], 0.1 * x.T @ y / 40, atol=1e-14)

    def test_first_accelerated_step_is_plain_gradient(self, small_instance):
        _, x, y, _ = small_instance
        cfg = IterateConfig(step_size=0.05, iterations=1)
        nest = discrete_iterates(FlowKind.ACCELERATED_FLOW, x, y, cfg)
        gd = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y, cfg)
        assert np.array_equal(nest[0], gd[0])

    def test_first_heavy_ball_step_is_plain_gradient(self, small_instance):
        _, x, y, _ = small_instance
        cfg = IterateConfig(step_size=0.05, iterations=1, momentum=0.9)
        hb = discrete_iterates(FlowKind.HEAVY_BALL_FLOW, x, y, cfg)
        gd = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                               IterateConfig(step_size=0.05, iterations=1))
        assert np.array_equal(hb[0], gd[0])

    def test_gd_matches_geometric_contraction_oracle(self, small_instance):
        design, x, y, _ = small_instance
        eps, k = 0.05, 200
        iterates = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                                     IterateConfig(step_size=eps, iterations=k))
        s = design.spectrum.eigenvalues
        c = design.rotated_channel
        coords = (c / s) * (1.0 - (1.0 - eps * s) ** k)
        oracle = design.v_basis @ coords
        assert np.abs(iterates[-1] - oracle).max() <= 1e-10

    def test_gd_converges_to_least_squares(self, small_instance):
        design, x, y, _ = small_instance
        eps = 0.5 / design.spectrum.big_l
        iterates = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                                     IterateConfig(step_size=eps,
                                                   iterations=10000))
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.abs(iterates[-1] - ols).max() <= 1e-6

    def test_discrete_to_continuous_consistency(self, small_instance):
        design, x, y, _ = small_instance
        t_end = 2.0
        errors = []
        for eps in (1e-2, 1e-3, 1e-4):
            k = int(round(t_end / eps))
            last = discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                                     IterateConfig(step_size=eps,
                                                   iterations=k))[-1]
            s = design.spectrum.eigenvalues
            c = design.rotated_channel
            flow = design.v_basis @ ((c / s) * (1.0 - np.exp(-t_end * s)))
            errors.append(np.abs(last - flow).max())
        assert errors[0] > errors[1] > errors[2]

    def test_warns_on_large_step(self, small_instance):
        design, x, y, _ = small_instance
        eps = 2.0 / design.spectrum.big_l
        with pytest.warns(RuntimeWarning, match="step size"):
            discrete_iterates(FlowKind.GRADIENT_FLOW, x, y,
                              IterateConfig(step_size=eps, iterations=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterateConfig(step_size=0.0, iterations=1)
        with pytest.raises(ValueError):
            IterateConfig(step_size=0.1, iterations=0)
        with pytest.raises(ValueError):
            IterateConfig(step_size=0.1, iterations=1, momentum=-0.1)


def test_nesterov_consistency_report_structure():
    spec = Spectrum(np.sort(1.0 / np.arange(1, 21, dtype=float)))
    weights = np.full(20, 1.0 / 20.0)
    report = nesterov_discrete_consistency(spec, weights, noise_scale=1e-2,
                                           eps=1e-2, iterations=800)
    assert set(report) >= {"discrete_min_time", "flow_min_time", "time_ratio"}
    assert report["discrete_min_time"] > 0
    assert report["flow_min_time"] > 0
    assert np.isfinite(report["time_ratio"])
