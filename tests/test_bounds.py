import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from flowrisk import bounds
from flowrisk.bounds import (
    CHECKS,
    DEFAULT_TAU_GRID,
    DEFAULT_X_GRID,
    GridSpec,
    bias_ratio_unbounded_witness,
    gf_inflation_constant,
    gf_inflation_objective,
    h_kappa,
    hb_inflation_check,
    hb_kernel_slack,
    hb_param_error_sup,
    hb_variance_bound_check,
    nest_inflation_constant,
    nest_inflation_objective,
    nest_param_error_constant,
    run_checks,
    tilde_h,
    tilde_h_crossover,
    tilde_h_maximizer,
    within,
)
from flowrisk.linalg import MAX_DOUBLES, Spectrum
from flowrisk.risk import SignalModel
from flowrisk.shrinkage import hb_kernel_complement
from oracles import inner_max_loop, minimax_loop


def test_grid_count_is_capped_before_allocating():
    assert GridSpec(1e-3, 1.0, MAX_DOUBLES).count == MAX_DOUBLES
    for scale in ("log", "linear"):
        with pytest.raises(ValueError, match=f"exceeds {MAX_DOUBLES} doubles"):
            GridSpec(0.1, 1.0, MAX_DOUBLES + 1, scale)


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

    def test_truncated_x_grid_is_refused(self):
        # a grid stopping short of the analytic tail would certify ~1.0
        for certifier in (gf_inflation_constant, nest_inflation_constant):
            with pytest.raises(ValueError, match="threshold x = 1e6"):
                certifier(x_spec=GridSpec(1e-8, 1e-2, 50))

    def test_sandwich_refinement_stability(self):
        base = gf_inflation_constant()
        dense = gf_inflation_constant(
            tau_spec=GridSpec(1e-3, 10.0, 800, "log"),
            x_spec=GridSpec(1e-8, 1e6, 8000, "log"))
        assert abs(base.value - dense.value) < 1e-3


def _counting(monkeypatch, name):
    """Wrap bounds.<name> so that its calls and evaluated points are counted."""
    fn = getattr(bounds, name)
    seen = {"calls": 0, "points": 0}

    def wrapper(tau, x):
        out = fn(tau, x)
        seen["calls"] += 1
        seen["points"] += np.size(out)
        return out

    monkeypatch.setattr(bounds, name, wrapper)
    return seen


def _whole_row_scan(objective, taus, xs):
    """Row max and first argmax of the unblocked objective matrix."""
    vals = objective(taus[:, None], xs if xs.ndim == 2 else xs[None, :])
    k = np.argmax(vals, axis=1)
    return vals[np.arange(taus.size), k], k


def _spikes(*at):
    """An objective that is 1 at the listed x indices and 0 elsewhere."""
    return lambda tau, x: np.isin(x, at).astype(float) + 0.0 * tau


class TestBlockedScan:
    BLOCK = bounds._SCAN_BLOCK

    @pytest.mark.parametrize("objective",
                             [gf_inflation_objective, nest_inflation_objective])
    def test_coarse_stage_matches_the_per_tau_loop(self, objective):
        taus, xs = DEFAULT_TAU_GRID.points(), DEFAULT_X_GRID.points()
        values, maximizers = bounds._inner_max(objective, taus, xs,
                                               zoom_rounds=1)
        loop = [inner_max_loop(objective, t, xs, zoom_rounds=1) for t in taus]
        assert values.tolist() == [v for v, _ in loop]       # bit for bit
        assert maximizers.tolist() == [x for _, x in loop]

    @pytest.mark.parametrize("certifier, objective", [
        (gf_inflation_constant, gf_inflation_objective),
        (nest_inflation_constant, nest_inflation_objective)])
    def test_constants_match_the_loop_minimax(self, certifier, objective):
        r = certifier()
        assert (r.value, r.tau_star, r.x_star) == minimax_loop(
            objective, DEFAULT_TAU_GRID.points(), DEFAULT_X_GRID.points())

    def test_first_of_equal_maxima_wins_inside_a_block(self):
        xs = np.arange(100.0)
        best, arg = bounds._scan_max(_spikes(7.0, 3.0, 90.0), np.ones(4), xs)
        assert best.tolist() == [1.0] * 4 and arg.tolist() == [3] * 4

    def test_first_of_equal_maxima_wins_across_a_block_boundary(self):
        xs = np.arange(3.0 * self.BLOCK)
        for at in ([5.0, self.BLOCK + 5.0], [self.BLOCK - 1.0, self.BLOCK],
                   [self.BLOCK + 2.0, 2 * self.BLOCK + 1.0]):
            best, arg = bounds._scan_max(_spikes(*at), np.ones(1), xs)
            assert best[0] == 1.0 and arg[0] == int(at[0])

    def test_first_nan_wins_as_in_argmax(self):
        xs = np.arange(2.0 * self.BLOCK + 10)

        def objective(tau, x):
            return np.where(np.isin(x, [self.BLOCK + 3.0, 2 * self.BLOCK]),
                            np.nan, x) + 0.0 * tau

        best, arg = bounds._scan_max(objective, np.ones(1), xs)
        assert np.isnan(best[0]) and arg[0] == self.BLOCK + 3

    @pytest.mark.parametrize("n_taus, n_x", [
        (1, 50),                  # a single row in a single block
        (13, 3000),               # 5 rows per block, the last block partial
        (3, 2 * 16384 + 123),     # rows longer than a block, a partial chunk
    ])
    def test_matches_the_whole_row_scan(self, n_taus, n_x):
        taus = np.logspace(-2, 1, n_taus)
        xs = np.logspace(-8, 6, n_x)
        for objective in (gf_inflation_objective, nest_inflation_objective):
            best, arg = bounds._scan_max(objective, taus, xs)
            ref_best, ref_arg = _whole_row_scan(objective, taus, xs)
            assert best.tolist() == ref_best.tolist()
            assert arg.tolist() == ref_arg.tolist()

    def test_per_row_grids_match_the_whole_row_scan(self):
        taus = np.array([0.3, 1.0, 3.0])
        xs = np.ascontiguousarray(np.linspace([1e-3, 1.0, 10.0],
                                              [1.0, 10.0, 1e3], 500, axis=1))
        best, arg = bounds._scan_max(gf_inflation_objective, taus, xs)
        ref_best, ref_arg = _whole_row_scan(gf_inflation_objective, taus, xs)
        assert best.tolist() == ref_best.tolist()
        assert arg.tolist() == ref_arg.tolist()

    def test_one_constant_is_few_calls_on_the_same_points(self, monkeypatch):
        # 25,000 witness points, 2240 per fully scanned coarse row (1 row for
        # gf, 5 for nest), 59,840 in the golden-section stage
        for certifier, name, points in (
                (gf_inflation_constant, "gf_inflation_objective", 87_080),
                (nest_inflation_constant, "nest_inflation_objective", 96_040)):
            seen = _counting(monkeypatch, name)
            certifier()
            assert seen["calls"] <= 150
            assert seen["points"] == points

    @pytest.mark.parametrize("tau_spec, x_spec", [
        (GridSpec(1e-3, 10.0, 50), DEFAULT_X_GRID),
        (GridSpec(1e-3, 10.0, 400), DEFAULT_X_GRID),
        (DEFAULT_TAU_GRID, GridSpec(1e-8, 1e7, 3000)),
    ], ids=["50-taus", "400-taus", "3000-x-to-1e7"])
    @pytest.mark.parametrize("certifier, objective", [
        (gf_inflation_constant, gf_inflation_objective),
        (nest_inflation_constant, nest_inflation_objective)])
    def test_constants_match_the_loop_minimax_on_other_grids(
            self, certifier, objective, tau_spec, x_spec):
        r = certifier(tau_spec=tau_spec, x_spec=x_spec)
        assert (r.value, r.tau_star, r.x_star) == minimax_loop(
            objective, tau_spec.points(), x_spec.points())


def _levels(levels, bump=True):
    """objective(tau, x) = levels[nearest grid tau] times a bump in x.

    The bump, exp(-(ln x - 1)^2), peaks at x = e, inside the default x grid,
    and is missed by the witness points by about 2 %; bump=False makes each
    row constant in x, so a row's witness bound is its coarse value.
    """
    taus = DEFAULT_TAU_GRID.points()
    edges = np.sqrt(taus[1:] * taus[:-1])

    def objective(tau, x):
        shape = np.exp(-(np.log(x) - 1.0) ** 2) if bump else np.ones_like(x)
        return levels[np.searchsorted(edges, tau)] * shape
    return objective


class TestPrunedCoarse:
    TAUS, XS = DEFAULT_TAU_GRID.points(), DEFAULT_X_GRID.points()

    def _coarse(self, objective):
        return bounds._pruned_coarse(objective, self.TAUS, self.XS)

    @pytest.mark.parametrize("objective",
                             [gf_inflation_objective, nest_inflation_objective])
    def test_only_rows_above_the_tie_window_are_pruned(self, objective):
        coarse = self._coarse(objective)
        full, _ = bounds._inner_max(objective, self.TAUS, self.XS, zoom_rounds=1)
        kept = np.isfinite(coarse)
        assert coarse[kept].tolist() == full[kept].tolist()     # bit for bit
        assert (full[~kept] > full.min() + 1e-12).all()
        assert (~kept).sum() >= 190

    def _first_row_is_kept(self, levels, first):
        objective = _levels(levels)
        kept = np.isfinite(self._coarse(objective))
        assert kept.sum() == 2                           # the rest are pruned
        r = bounds._certified_minimax(objective)
        assert (r.value, r.tau_star, r.x_star) == minimax_loop(
            objective, self.TAUS, self.XS)
        assert self.TAUS[first - 1] <= r.tau_star <= self.TAUS[first + 1]

    def test_exact_tie_keeps_the_first_row(self):
        levels = np.full(self.TAUS.size, 1.5)
        levels[[60, 140]] = 1.0
        self._first_row_is_kept(levels, 60)

    def test_later_row_within_the_tie_window_keeps_the_first(self):
        levels = np.full(self.TAUS.size, 1.5)
        levels[60], levels[140] = 1.0, 1.0 - 5e-13
        self._first_row_is_kept(levels, 60)

    def test_witness_exactly_at_the_window_edge_stays_alive(self):
        levels = np.full(self.TAUS.size, 2.0)
        edge = 1.0 + 1e-12
        levels[[30, 90, 150]] = 1.0, edge, np.nextafter(edge, np.inf)
        kept = np.isfinite(self._coarse(_levels(levels, bump=False)))
        assert np.flatnonzero(kept).tolist() == [30, 90]

    def test_nan_witness_stays_alive(self):
        levels = np.full(self.TAUS.size, 2.0)
        levels[100] = 1.0
        level_objective = _levels(levels)

        def objective(tau, x):
            # NaN at one witness point of the row of tau = TAUS[50]
            nan = (tau == self.TAUS[50]) & (x == self.XS[16])
            return np.where(nan, np.nan, level_objective(tau, x))

        coarse = self._coarse(objective)
        # the NaN bound is the smallest (argmin), so the NaN ceiling keeps
        # every row alive: the coarse stage is the unpruned one
        assert np.isnan(coarse[50]) and not np.isinf(coarse).any()
        with pytest.raises(RuntimeError, match=f"tau = {self.TAUS[50]:.6g}$"):
            bounds._certified_minimax(objective)

    def test_nan_objective_names_the_first_nan_tau(self):
        first = self.TAUS[self.TAUS > 0.5][0]

        def objective(tau, x):
            return np.where(tau > 0.5, np.nan, gf_inflation_objective(tau, x))

        with pytest.raises(RuntimeError, match=f"NaN at tau = {first:.6g}$"):
            bounds._certified_minimax(objective)


def test_certifier_results_are_plain_floats():
    values = [value for _, _, value, _ in run_checks()]
    assert values and all(type(v) is float for v in values)
    for r in (gf_inflation_constant(), nest_inflation_constant()):
        assert all(type(getattr(r, f.name)) is float for f in fields(r))
    crossover = tilde_h_crossover()
    assert type(crossover.z_star) is float
    for case in crossover.cases:
        assert type(case.z) is float and type(case.argmax_x) is float
        assert case.x_star is None or type(case.x_star) is float
        assert type(case.structure_ok) is bool


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


def _old_hb_nodes(count):
    """(a, b, x) at the admissible nodes s >= mu of the former (mu, s, t) grids."""
    mu, s, t = np.meshgrid(np.logspace(-3, 1, count), np.logspace(-3, 1, count),
                           np.logspace(-3, 2, count), indexing="ij")
    keep = s >= mu
    mu, s, t = mu[keep], s[keep], t[keep]
    return t * np.sqrt(mu), t * np.sqrt(s - mu), t * np.sqrt(s)


def _undamped_sup(objective):
    """The max over b of objective((1 - cos b)(1 + 1/b^2)), the factor at a = 0."""
    res = minimize_scalar(
        lambda b: -objective((1.0 - np.cos(b)) * (1.0 + 1.0 / (b * b))),
        bracket=(2.5, 3.0, 3.5), tol=1e-12)
    return -res.fun


class TestHbParamError:
    def test_grid_maxima_within_bounds(self):
        f_sq, fm1_sq = CHECKS["heavy_ball_f_sq"], CHECKS["heavy_ball_param_error"]
        rep = hb_param_error_sup()
        assert f_sq.passes(rep.max_f_sq) and fm1_sq.passes(rep.max_fm1_sq)
        assert rep.nodes_checked > 0

    def test_old_nodes_are_reproduced(self):
        # the former 50^3 (mu, s, t) scan, evaluated through (a, b)
        a, b, _ = _old_hb_nodes(50)
        f = bounds._hb_factor(a, b)
        assert (f * f).max() == pytest.approx(4.7093730888261796, rel=1e-12)
        assert ((f - 1.0) ** 2).max() == pytest.approx(1.3691550810177335,
                                                       rel=1e-12)

    def test_values_are_the_undamped_edge_suprema(self):
        rep = hb_param_error_sup()
        assert rep.max_f_sq == pytest.approx(_undamped_sup(lambda f: f * f),
                                             rel=1e-9)
        assert rep.max_fm1_sq == pytest.approx(
            _undamped_sup(lambda f: (f - 1.0) ** 2), rel=1e-9)
        # above the former grid maxima 4.709 and 1.369, which missed a = 0
        assert rep.max_f_sq == pytest.approx(4.88918, abs=1e-5)
        assert rep.max_fm1_sq == pytest.approx(1.46688, abs=1e-5)

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
        result = tilde_h_crossover()
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


def _inflation_within(result):
    """1 - 1e-9 <= ratio <= bound + 1e-9, through the one pass rule."""
    return (within(1.0, result.ratio, 1e-9, "le")
            and within(result.ratio, result.bound, 1e-9, "le"))


class TestHbInflation:
    def test_single_eigenvalue_ratio_at_least_one(self):
        spec = Spectrum(np.array([1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=1)  # alpha = 1
        result = hb_inflation_check(spec, prior)
        assert result.ratio >= 1.0 - 1e-9
        assert _inflation_within(result)

    def test_power_law_spectra(self):
        for nu in (0.5, 1.0, 2.0):
            vals = np.sort(1.0 / np.arange(1, 41, dtype=float) ** nu)
            spec = Spectrum(vals)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=200)
            result = hb_inflation_check(spec, prior)
            assert _inflation_within(result), (nu, result)

    def test_condition_one_design(self):
        spec = Spectrum(np.ones(10))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=50)
        result = hb_inflation_check(spec, prior)
        assert result.ratio <= h_kappa(1.0) + 1e-9
        assert _inflation_within(result)

    def test_rejects_singular_spectrum(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=10)
        with pytest.raises(ValueError):
            hb_inflation_check(spec, prior)


class TestKernelBounds:
    def test_zero_violations_dense_grid(self):
        kernel = CHECKS["kernel_inequalities"]  # worst of the three violations
        assert kernel.passes(kernel.value_of(hb_kernel_slack()))

    def test_old_nodes_are_reproduced(self):
        # the former 40^3 (mu, s, t) scan: worst slacks 3.3e-16, 0 and 0
        a, b, x = _old_hb_nodes(40)
        bias, var_small, var_large = bounds._hb_kernel_slacks(a, b)
        worst = [max(float(v.max()), 0.0)
                 for v in (bias, var_small[x <= 1.0], var_large[x > 1.0])]
        assert worst == pytest.approx([3.3306690738754696e-16, 0.0, 0.0],
                                      rel=1e-12, abs=1e-16)

    def test_degenerate_slice_is_equality(self):
        # s = mu (b = 0) makes the bias inequality an identity
        a = math.sqrt(0.8) * np.array([0.0, 0.5, 2.0])
        bias, _, _ = bounds._hb_kernel_slacks(a, np.zeros(3))
        assert bias.max() <= 1e-14

    def test_time_zero_slice(self):
        # t = 0 is a = b = 0 (x <= 1): bias and small-x variance slacks
        bias, var_small, _ = bounds._hb_kernel_slacks(0.0, 0.0)
        kernel = CHECKS["kernel_inequalities"]
        assert kernel.passes(max(bias, var_small, 0.0))


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
