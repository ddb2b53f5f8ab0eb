import math

import numpy as np
import pytest

from flowrisk.linalg import Spectrum
from flowrisk.oracle import (
    IterateConfig,
    _chunk_steps,
    compare_closed_form,
    discrete_iterates,
    integrate_flow,
    nesterov_discrete_consistency,
)
from flowrisk.shrinkage import FlowKind
from flowrisk.special import j1_ratio

from oracles import rk4_first_order, rk4_second_order

UNIT = Spectrum(np.array([1.0]))
FLOWS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
         FlowKind.HEAVY_BALL_FLOW)


def _nearest(times, t):
    return int(np.argmin(np.abs(times - t)))


def _reference_trajectory(kind, spectrum, forcing, times):
    """The step-by-step RK4 loop on the scan's own time lattice."""
    s = spectrum.eigenvalues
    if kind is FlowKind.GRADIENT_FLOW:
        return rk4_first_order(s, forcing, times)
    if kind is FlowKind.ACCELERATED_FLOW:
        t0 = times[0]
        return rk4_second_order(s, forcing, lambda t: 3.0 / t, times,
                                forcing * t0 * t0 / 8.0, forcing * t0 / 4.0)
    rate = 2.0 * np.sqrt(spectrum.mu)
    zero = np.zeros_like(forcing)
    return rk4_second_order(s, forcing, lambda t: rate, times, zero, zero)


class TestIntegrateFlow:
    def test_gradient_flow_scalar_exponential(self):
        traj = integrate_flow(FlowKind.GRADIENT_FLOW, UNIT, np.array([1.0]),
                              5.0, step=1e-3)
        for t in (1.0, 5.0):
            k = _nearest(traj.times, t)
            assert traj.positions[k, 0] == pytest.approx(
                1.0 - math.exp(-traj.times[k]), abs=1e-8)

    def test_accelerated_scalar_matches_bessel_form(self):
        traj = integrate_flow(FlowKind.ACCELERATED_FLOW, UNIT, np.array([1.0]),
                              2.0, step=1e-3)
        k = _nearest(traj.times, 2.0)
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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_step_and_t_end(self, value):
        with pytest.raises(ValueError, match="step must be finite"):
            integrate_flow(FlowKind.GRADIENT_FLOW, UNIT, np.array([1.0]),
                           1.0, step=value)
        with pytest.raises(ValueError, match="t_end must be finite"):
            integrate_flow(FlowKind.ACCELERATED_FLOW, UNIT, np.array([1.0]),
                           value, step=1e-2)

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


class TestScanMatchesStepLoop:
    """The chunked scan against the step-by-step RK4 loop of tests/oracles.

    p = 8 fixes the chunk length; a step of 2^-6 makes t_end / step exact,
    so each horizon below is exactly the intended number of steps.
    """

    P = 8
    STEP = 2.0 ** -6

    def _instance(self):
        rng = np.random.default_rng(17)
        spec = Spectrum(np.sort(rng.uniform(0.05, 3.0, self.P)))
        return spec, rng.standard_normal(self.P)

    def _assert_matches(self, kind, spec, forcing, t_end, steps):
        traj = integrate_flow(kind, spec, forcing, t_end, step=self.STEP)
        assert len(traj) == steps + 1
        pos, vel = _reference_trajectory(kind, spec, forcing, traj.times)
        for got, want in ((traj.positions, pos), (traj.velocities, vel)):
            assert got.shape == want.shape
            scale = max(np.abs(want).max(), np.finfo(float).tiny)
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", FLOWS)
    @pytest.mark.parametrize("chunks, extra", [(0, 300), (1, 0), (2, 1)])
    def test_chunk_boundaries(self, kind, chunks, extra):
        # less than one chunk, exactly one chunk, two chunks plus one step
        spec, forcing = self._instance()
        steps = chunks * _chunk_steps(self.P) + extra
        self._assert_matches(kind, spec, forcing, steps * self.STEP, steps)

    @pytest.mark.parametrize("kind", FLOWS)
    def test_zero_horizon_is_one_row(self, kind):
        spec, forcing = self._instance()
        self._assert_matches(kind, spec, forcing, 0.0, 0)

    def test_accelerated_horizon_below_start_time(self):
        spec, forcing = self._instance()
        traj = integrate_flow(FlowKind.ACCELERATED_FLOW, spec, forcing,
                              5e-7, step=self.STEP)
        assert len(traj) == 1 and traj.times[0] == 5e-7
        self._assert_matches(FlowKind.ACCELERATED_FLOW, spec, forcing,
                             5e-7, 0)

    @pytest.mark.parametrize("kind", [FlowKind.GRADIENT_FLOW,
                                      FlowKind.ACCELERATED_FLOW])
    def test_null_coordinate_exactly_zero_across_chunks(self, kind):
        spec, forcing = self._instance()
        s = spec.eigenvalues.copy()
        s[0], forcing[0] = 0.0, 0.0
        spec = Spectrum(s)
        steps = 2 * _chunk_steps(self.P) + 1
        traj = integrate_flow(kind, spec, forcing, steps * self.STEP,
                              step=self.STEP)
        assert (traj.positions[:, 0] == 0.0).all()
        assert (traj.velocities[:, 0] == 0.0).all()
        self._assert_matches(kind, spec, forcing, steps * self.STEP, steps)


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            compare_closed_form(FlowKind.GRADIENT_FLOW, UNIT, np.array([1.0]),
                                np.array([0.0, 1.0, bad]), step=1e-2)

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
