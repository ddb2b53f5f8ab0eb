import math
import re

import numpy as np
import pytest

from flowrisk.linalg import Spectrum, design_decompose
from flowrisk.oracle import (
    IterateConfig,
    _chunk_steps,
    _damped_rhs,
    _gradient_rhs,
    _rk4_step,
    compare_closed_form,
    discrete_iterates,
    integrate_flow,
)
from flowrisk.shrinkage import FlowKind
from flowrisk.special import j1_ratio

from oracles import (damped_step, gf_step, per_step_rk4_scan, rk4_first_order,
                     rk4_second_order)

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

    @pytest.mark.parametrize(("kind", "forcing", "t_end", "message"), [
        (FlowKind.RIDGE, [1.0], 1.0, "integrate_flow covers the three flows"),
        (FlowKind.GRADIENT_FLOW, [1.0, 2.0], 1.0,
         "forcing length does not match the spectrum"),
        (FlowKind.ACCELERATED_FLOW, [math.nan], 1.0, "forcing must be finite"),
        (FlowKind.HEAVY_BALL_FLOW, [math.inf], 1.0, "forcing must be finite"),
        (FlowKind.GRADIENT_FLOW, [1.0], -1e-300, "t_end must be >= 0"),
    ])
    def test_refusals(self, kind, forcing, t_end, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate_flow(kind, UNIT, np.array(forcing), t_end, step=1e-2)

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


class TestStepRule:
    """The one RK4 step rule against the per-flow stage formulas it replaced."""

    @staticmethod
    def _draws(seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, 3.0, 7)
        c, u, v = rng.standard_normal((3, 5, 7))
        t = rng.uniform(1e-6, 20.0, (5, 1))
        h = rng.uniform(1e-4, 0.5, (5, 1))
        return s, c, t, h, u, v

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_flow(self, seed):
        s, c, t, h, u, _ = self._draws(seed)
        got = _rk4_step(_gradient_rhs, s, c, t, h, (u,))
        want = gf_step(s, c, t, h, u)
        assert len(got) == 1 and np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("damping", [lambda t: 3.0 / t, lambda t: 0.7],
                             ids=["3/t", "constant"])
    def test_damped_flows(self, seed, damping):
        s, c, t, h, u, v = self._draws(seed)
        got = _rk4_step(_damped_rhs(damping), s, c, t, h, (u, v))
        want = damped_step(damping)(s, c, t, h, u, v)
        assert len(got) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestDistinctStepMaps:
    """Gradient and heavy-ball flow take each step's map from one table per
    distinct step length; the trajectories equal the per-step-map scan's
    bit for bit.  A step of 5e-3 gives several distinct lengths."""

    STEP = 5e-3

    def _instance(self, p, null):
        rng = np.random.default_rng(100 + p)
        s = np.sort(rng.uniform(0.05, 3.0, p))
        forcing = rng.standard_normal(p)
        if null:
            s[0], forcing[0] = 0.0, 0.0
        return Spectrum(s), forcing

    def _reference(self, kind, spec, forcing, times):
        s = spec.eigenvalues
        zero = np.zeros_like(forcing)
        if kind is FlowKind.GRADIENT_FLOW:
            (pos,) = per_step_rk4_scan(_gradient_rhs, s, forcing, times, (zero,))
            return pos, forcing - s * pos
        rate = 2.0 * np.sqrt(spec.mu)
        return per_step_rk4_scan(_damped_rhs(lambda t: rate), s, forcing,
                                 times, (zero, zero))

    @pytest.mark.parametrize("kind, null", [
        (FlowKind.GRADIENT_FLOW, False), (FlowKind.HEAVY_BALL_FLOW, False),
        (FlowKind.GRADIENT_FLOW, True)], ids=["gf", "hb", "gf-null"])
    @pytest.mark.parametrize("p", [1, 3, 7])
    @pytest.mark.parametrize("steps", ["none", "part", "one", "two_plus_one"])
    def test_equals_per_step_maps(self, kind, null, p, steps):
        chunk = _chunk_steps(p)
        m = {"none": 0, "part": chunk // 3, "one": chunk,
             "two_plus_one": 2 * chunk + 1}[steps]
        spec, forcing = self._instance(p, null)
        # half a step short of m steps, so the ceiling is m whatever the
        # rounding of m * step
        t_end = max(m - 0.5, 0.0) * self.STEP
        traj = integrate_flow(kind, spec, forcing, t_end, step=self.STEP)
        assert len(traj) == m + 1
        pos, vel = self._reference(kind, spec, forcing, traj.times)
        assert np.array_equal(traj.positions, pos)
        assert np.array_equal(traj.velocities, vel)
        if null:
            assert (traj.positions[:, 0] == 0.0).all()

    @pytest.mark.parametrize("kind, evaluated", [
        (FlowKind.GRADIENT_FLOW, 15), (FlowKind.HEAVY_BALL_FLOW, 15),
        (FlowKind.ACCELERATED_FLOW, 10_000)])
    def test_step_lengths_evaluated_on_the_acceptance_lattice(
            self, monkeypatch, kind, evaluated):
        # t in [0, 50] at step 5e-3, as acceptance test 07 integrates:
        # 10,000 steps but only 15 distinct lengths; the accelerated flow's
        # 3/t damping keeps one map per step
        counted = []

        def counting_step(rhs, s, c, t, h, x):
            counted.append(np.size(h))
            return _rk4_step(rhs, s, c, t, h, x)

        monkeypatch.setattr("flowrisk.oracle._rk4_step", counting_step)
        spec = Spectrum(np.array([0.3, 1.0, 2.5]))
        integrate_flow(kind, spec, np.array([0.5, -1.0, 2.0]), 50.0,
                       step=self.STEP)
        assert sum(counted) == evaluated


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

    @pytest.mark.parametrize("fields, message", [
        ({"step_size": math.nan}, "step_size must be finite and > 0, got nan"),
        ({"step_size": math.inf}, "step_size must be finite and > 0, got inf"),
        ({"momentum": math.nan}, "momentum must be finite and >= 0, got nan"),
        ({"momentum": math.inf}, "momentum must be finite and >= 0, got inf"),
        ({"iterations": 2.5}, "iterations must be an integer >= 1, got 2.5"),
        ({"iterations": 3.0}, "iterations must be an integer >= 1, got 3.0"),
        ({"iterations": "3"}, "iterations must be an integer >= 1, got '3'"),
    ])
    def test_config_refuses_a_non_finite_or_non_integral_field(self, fields,
                                                               message):
        with pytest.raises(ValueError) as info:
            IterateConfig(**{"step_size": 0.1, "iterations": 1, **fields})
        assert str(info.value) == message

    def test_config_takes_a_numpy_integer_count(self, small_instance):
        _, x, y, _ = small_instance
        cfg = IterateConfig(step_size=0.05, iterations=np.int64(3))
        assert len(discrete_iterates(FlowKind.GRADIENT_FLOW, x, y, cfg)) == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", FLOWS)
    def test_refuses_a_diverging_run_naming_its_first_bad_iterate(self, kind):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
        eps = 50.0 / design_decompose(x).spectrum.big_l
        cfg = IterateConfig(step_size=eps, iterations=2000, momentum=0.5)
        with pytest.warns(RuntimeWarning, match="step size"), \
                pytest.raises(ValueError, match=f"^the {kind.value} iterates "
                              r"diverge: iterate \d+ is not finite") as info:
            discrete_iterates(kind, x, y, cfg)
        # (gf 183, nest 157, hb 184 with OpenBLAS on x86-64)
        first = int(str(info.value).split()[5])
        assert 1 < first < 2000
        # the iterate before it is finite: one fewer iteration returns
        with pytest.warns(RuntimeWarning, match="step size"):
            kept = discrete_iterates(kind, x, y,
                                     IterateConfig(eps, first - 1, 0.5))
        assert np.isfinite(kept[-1]).all()

    @pytest.mark.parametrize("kind", FLOWS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_non_finite_response(self, kind, bad):
        x = np.eye(3)
        with pytest.raises(ValueError, match="^y has non-finite entries$"):
            discrete_iterates(kind, x, [1.0, bad, 2.0],
                              IterateConfig(step_size=0.1, iterations=2))

