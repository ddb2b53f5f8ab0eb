import ast
import math
import re
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from flowrisk import bounds, special
from flowrisk.bounds import (
    CHECKS,
    bias_ratio_unbounded_witness,
    gf_inflation_constant,
    gf_inflation_objective,
    h_kappa,
    hb_quarter_plane,
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
from flowrisk.cli import run
from flowrisk.linalg import Spectrum
from flowrisk.risk import SignalModel, optimal_ridge_bayes_risk, risk_curve
from flowrisk.shrinkage import FlowKind, hb_kernel_complement
from flowrisk.special import j1_ratio_complement
from oracles import (
    SCAN_POINTS,
    hb_sups_two_pass,
    inner_max_loop,
    minimax_loop,
    param_error_full_scan,
    scan_classify_tilde_h,
    tilde_h_expression,
)


class TestInflationConstants:
    def test_gradient_flow_value(self):
        result = gf_inflation_constant()
        assert CHECKS["gradient_flow_inflation"].passes(result.value)
        assert result.value >= 1.0

    def test_inner_max_dominates_single_point(self):
        # at tau = 1, the max over x is at least the value at x = 1
        probe = 2 * math.exp(-2.0) + 2 * (1 - math.exp(-1.0)) ** 2
        assert gf_inflation_objective(1.0, bounds._XS).max() >= probe
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
        tau_star, x_star = r.at
        assert type(tau_star) is float
        at_star = float(gf_inflation_objective(tau_star, np.array([x_star]))[0])
        assert abs(at_star - r.value) <= 1e-10
        r = nest_inflation_constant()
        tau_star, x_star = r.at
        at_star = float(nest_inflation_objective(tau_star, np.array([x_star]))[0])
        assert abs(at_star - r.value) <= 1e-10

    def test_sandwich_refinement_stability(self):
        base = gf_inflation_constant()
        dense, _, _ = bounds._certified_minimax(gf_inflation_objective,
                                                np.logspace(-3.0, 1.0, 800),
                                                np.logspace(-8.0, 6.0, 8000))
        assert abs(base.value - dense) < 1e-3


@pytest.fixture(scope="module")
def certified_inflation():
    return {FlowKind.GRADIENT_FLOW: gf_inflation_constant(),
            FlowKind.ACCELERATED_FLOW: nest_inflation_constant()}


# t in terms of the certifier's tau and the ridge-optimal lambda: the
# objectives are the Bayes risk ratios at x = s / lambda under these maps
TUNING = {FlowKind.GRADIENT_FLOW: lambda tau, lam: tau / lam,
          FlowKind.ACCELERATED_FLOW: lambda tau, lam: tau / math.sqrt(lam)}


@pytest.mark.parametrize("kind", list(TUNING), ids=lambda k: k.value)
@pytest.mark.parametrize("p, n, r_sq", [(1, 10, 1.0), (7, 50, 2.0),
                                        (40, 100, 0.5)])
def test_certified_witness_is_the_programs_own_risk_ratio(
        certified_inflation, kind, p, n, r_sq):
    # p equal eigenvalues at x* lambda*: the flow's Bayes risk at the tuned
    # time over the optimal ridge risk is the certified objective at
    # (tau*, x*), so it must equal the certified value to rounding
    record = certified_inflation[kind]
    tau, x = record.at
    prior = SignalModel.prior(r_sq=r_sq, sigma_sq=1.0, n=n)
    _, lam = optimal_ridge_bayes_risk(Spectrum(np.ones(p)), prior)  # 1/alpha
    spectrum = Spectrum(np.full(p, x * lam))
    floor, _ = optimal_ridge_bayes_risk(spectrum, prior)
    t = TUNING[kind](tau, lam)
    ratio = risk_curve(spectrum, prior, kind, [t]).risk[0] / floor
    assert abs(ratio - record.value) <= 4 * np.spacing(record.value)


def _random_bayes_instances(count, seed):
    """Seeded spectra of 1 to 59 eigenvalues, log-uniform on [e^-12, e^6],
    with an isotropic prior of random r^2 and n."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(1, 60))
        s = np.sort(np.exp(rng.uniform(-12.0, 6.0, p)))
        yield Spectrum(s), SignalModel.prior(
            r_sq=float(rng.uniform(0.2, 5.0)), sigma_sq=1.0,
            n=int(rng.integers(p + 1, 400)))


def test_certified_constants_bind_the_risk_ratio_on_random_spectra(
        certified_inflation):
    # coupled at t = TUNING(tau*, lambda*), each coordinate's ratio is the
    # objective at (tau*, s / lambda*), at most the certified max over x;
    # tuned over a grid the flow can only do better.  The optimal ridge is
    # the Bayes estimator here, so no ratio falls below 1.
    grid = np.logspace(-8, 8, 2000)
    for spectrum, prior in _random_bayes_instances(40, seed=11):
        floor, lam = optimal_ridge_bayes_risk(spectrum, prior)
        for kind, tune in TUNING.items():
            record = certified_inflation[kind]
            t = tune(record.at[0], lam)
            coupled = risk_curve(spectrum, prior, kind, [t]).risk[0] / floor
            tuned = risk_curve(spectrum, prior, kind, grid).risk.min() / floor
            assert 1.0 <= coupled <= record.value
            assert 1.0 <= tuned <= record.value


def _hb_inflation(spectrum, prior):
    """inf_t heavy-ball Bayes risk / optimal ridge Bayes risk, over a fixed
    log grid of t in [1e-2, 1e3]."""
    grid = np.logspace(-2, 3, 2000)
    return (risk_curve(spectrum, prior, FlowKind.HEAVY_BALL_FLOW, grid).risk.min()
            / optimal_ridge_bayes_risk(spectrum, prior)[0])


def test_heavy_ball_inflation_lies_under_h_kappa_on_random_spectra():
    for spectrum, prior in _random_bayes_instances(40, seed=12):
        kappa = spectrum.big_l / spectrum.mu
        assert 1.0 <= _hb_inflation(spectrum, prior) <= h_kappa(kappa)


def test_bounds_imports_only_special_and_shrinkage_from_the_package():
    # the certifiers run on the kernels alone: no risk, linalg or rng layer
    tree = ast.parse(Path(bounds.__file__).read_text())
    relative = {"." * node.level + (node.module or "")
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {".special", ".shrinkage"}


def _counting(monkeypatch, name):
    """Wrap bounds.<name> so that its calls and evaluated points are counted."""
    fn = getattr(bounds, name)
    seen = {"calls": 0, "points": 0}

    def wrapper(*args):
        out = fn(*args)
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
        taus, xs = bounds._TAUS, bounds._XS
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
        assert (r.value, *r.at) == minimax_loop(objective, bounds._TAUS,
                                                bounds._XS)

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
        # gf, 5 for nest), 48,960 in the golden-section stage
        for certifier, name, points in (
                (gf_inflation_constant, "gf_inflation_objective", 76_200),
                (nest_inflation_constant, "nest_inflation_objective", 85_160)):
            seen = _counting(monkeypatch, name)
            certifier()
            assert seen["calls"] <= 150
            assert seen["points"] == points

    @pytest.mark.parametrize("certifier",
                             [gf_inflation_constant, nest_inflation_constant])
    def test_the_golden_section_evaluates_each_tau_once(self, certifier,
                                                        monkeypatch):
        inner_max, taus = bounds._inner_max, []

        def spy(objective, tau, x_coarse, zoom_rounds=3):
            if zoom_rounds == 3:        # not the coarse stage's one-round zooms
                taus.extend(np.atleast_1d(tau).tolist())
            return inner_max(objective, tau, x_coarse, zoom_rounds)

        monkeypatch.setattr(bounds, "_inner_max", spy)
        certifier()
        # 18 x 2720 = 48,960 points: 17 golden-section taus and tau*
        assert len(taus) == len(set(taus)) == 18

    @pytest.mark.parametrize("taus, xs", [
        (np.logspace(-3.0, 1.0, 50), bounds._XS),
        (np.logspace(-3.0, 1.0, 400), bounds._XS),
        (bounds._TAUS, np.logspace(-8.0, 7.0, 3000)),
    ], ids=["50-taus", "400-taus", "3000-x-to-1e7"])
    @pytest.mark.parametrize("objective",
                             [gf_inflation_objective, nest_inflation_objective])
    def test_constants_match_the_loop_minimax_on_other_grids(
            self, objective, taus, xs):
        assert bounds._certified_minimax(objective, taus, xs) == \
            minimax_loop(objective, taus, xs)


def _levels(levels, bump=True):
    """objective(tau, x) = levels[nearest grid tau] times a bump in x.

    The bump, exp(-(ln x - 1)^2), peaks at x = e, inside the min-max x grid,
    and is missed by the witness points by about 2 %; bump=False makes each
    row constant in x, so a row's witness bound is its coarse value.
    """
    taus = bounds._TAUS
    edges = np.sqrt(taus[1:] * taus[:-1])

    def objective(tau, x):
        shape = np.exp(-(np.log(x) - 1.0) ** 2) if bump else np.ones_like(x)
        return levels[np.searchsorted(edges, tau)] * shape
    return objective


class TestPrunedCoarse:
    TAUS, XS = bounds._TAUS, bounds._XS

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
        assert r == minimax_loop(objective, self.TAUS, self.XS)
        assert self.TAUS[first - 1] <= r[1] <= self.TAUS[first + 1]

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
    records = [record for _, record, _ in run_checks()]
    assert records and all(type(r.value) is float for r in records)
    for r in (gf_inflation_constant(), nest_inflation_constant(),
              nest_param_error_constant()):
        assert r.at and all(type(v) is float for v in r.at)
    _, structure = tilde_h_crossover()
    for case in structure.at:
        assert type(case.z) is float and type(case.argmax_x) is float
        assert case.x_star is None or type(case.x_star) is float
        assert type(case.structure_ok) is bool


class TestRunChecks:
    def test_each_certifier_answers_exactly_its_rows(self):
        for certifier in {c.certifier for c in CHECKS.values()}:
            out = getattr(bounds, certifier)()
            records = out if isinstance(out, tuple) else (out,)
            assert {r.name for r in records} == {
                c.name for c in CHECKS.values() if c.certifier == certifier}

    def test_rows_sharing_a_certifier_run_it_once_in_any_order(self,
                                                                monkeypatch):
        full = {c.name: record for c, record, _ in run_checks()}
        assert all(record.name == name for name, record in full.items())
        seen = _counting(monkeypatch, "hb_quarter_plane")
        runs = run_checks(["kernel_inequalities", "heavy_ball_f_sq"])
        assert seen["calls"] == 1
        assert [(c.name, record) for c, record, _ in runs] == [
            ("kernel_inequalities", full["kernel_inequalities"]),
            ("heavy_ball_f_sq", full["heavy_ball_f_sq"])]
        assert runs[0][2] > 0.0 and runs[1][2] == 0.0

    def test_one_record_shape(self):
        assert {f.name for f in fields(bounds.Certified)} == {"name", "value", "at"}
        assert {f.name for f in fields(bounds.Check)} == {
            "name", "certifier", "paper_value", "tolerance", "mode"}
        classes = [n for n in bounds.__all__ if isinstance(getattr(bounds, n), type)]
        assert sorted(classes) == ["Certified", "Check", "CrossoverCase"]


class TestNestParamError:
    def test_certified_value(self):
        r = nest_param_error_constant()
        assert CHECKS["accelerated_param_error"].passes(r.value)
        assert r.at[0] <= 1e-6  # supremum approached at the left end

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
        f_sq, fm1_sq, _ = hb_quarter_plane()
        assert (f_sq.name, fm1_sq.name) == ("heavy_ball_f_sq",
                                            "heavy_ball_param_error")
        assert CHECKS[f_sq.name].passes(f_sq.value)
        assert CHECKS[fm1_sq.name].passes(fm1_sq.value)

    def test_old_nodes_are_reproduced(self):
        # the former 50^3 (mu, s, t) scan, evaluated through (a, b)
        a, b, _ = _old_hb_nodes(50)
        f = bounds._hb_factor(a, b)
        assert (f * f).max() == pytest.approx(4.7093730888261796, rel=1e-12, abs=0)
        assert ((f - 1.0) ** 2).max() == pytest.approx(1.3691550810177335,
                                                       rel=1e-12, abs=0)

    def test_values_are_the_undamped_edge_suprema(self):
        f_sq, fm1_sq, _ = (r.value for r in hb_quarter_plane())
        assert f_sq == pytest.approx(_undamped_sup(lambda f: f * f), rel=1e-9, abs=0)
        assert fm1_sq == pytest.approx(_undamped_sup(lambda f: (f - 1.0) ** 2),
                                       rel=1e-9, abs=0)
        # above the former grid maxima 4.709 and 1.369, which missed a = 0
        assert f_sq == pytest.approx(4.88918, abs=1e-5)
        assert fm1_sq == pytest.approx(1.46688, abs=1e-5)

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


def _param_error_tail_bound(x):
    """(sqrt(2)/x + (1 + sqrt(2)/x)/x^2)^2, the 49/64 tail bound at x."""
    r = np.sqrt(2.0) / x
    return (r + (1.0 + r) / (x * x)) ** 2


class TestTailCuts:
    """The shortened 49/64 and heavy-ball scans and their checked tails."""

    def test_param_error_matches_the_full_grid_scan(self):
        r = nest_param_error_constant()
        ref_value, ref_x = param_error_full_scan(j1_ratio_complement)
        assert (r.value.hex(), r.at[0].hex()) == (ref_value.hex(), ref_x.hex())

    def test_param_error_grid_is_the_logspace_prefix(self):
        xs = bounds._param_error_grid()
        full = np.logspace(-8.0, 4.0, 200000)
        assert xs.size == 144_983
        assert np.array_equal(xs, full[:xs.size])
        assert full[xs.size - 1] <= bounds._PARAM_ERROR_TAIL < full[xs.size]

    def test_param_error_grid_is_built_once_and_read_only(self):
        bounds._param_error_grid.cache_clear()
        first = nest_param_error_constant()
        assert nest_param_error_constant() == first
        info = bounds._param_error_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        xs = bounds._param_error_grid()
        assert not xs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            xs[0] = 1.0

    def test_hb_sups_match_the_two_pass_scan(self):
        got_f_sq, got_fm1_sq, _ = hb_quarter_plane()
        f_sq, fm1_sq = hb_sups_two_pass(bounds._hb_factor, bounds._HB_THETAS,
                                        bounds._HB_XS)
        assert got_f_sq.value.hex() == float(f_sq).hex()
        assert got_fm1_sq.value.hex() == float(fm1_sq).hex()

    def test_tilde_h_matches_the_one_expression_form(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0.0, 30.0, (200, 40))
        z = rng.uniform(0.2, 4.0, (200, 1))
        for args in ((x, z), (x, 0.95), (1.5, z[:, 0]), (x[0], z[:40, 0])):
            new, old = tilde_h(*args), tilde_h_expression(*args)
            assert new.shape == old.shape and np.array_equal(new, old)
        for xi, zi in zip(rng.uniform(0.0, 20.0, 2000), rng.uniform(0.3, 5.0, 2000)):
            new, old = tilde_h(float(xi), float(zi)), tilde_h_expression(xi, zi)
            assert type(new) is type(old) and new.hex() == old.hex()
        new = tilde_h(np.float64(2.0), 0.9)
        assert new.hex() == tilde_h_expression(2.0, 0.9).hex()

    def test_param_error_tail_is_below_its_bound(self):
        tail = bounds._PARAM_ERROR_TAIL
        xs = np.concatenate([np.linspace(tail, 200.0, 200_001),
                             np.logspace(np.log10(200.0), 8.0, 200_000)])
        f = j1_ratio_complement(xs) * (xs * xs + 1.0) / (xs * xs)
        fm1_sq = (f - 1.0) ** 2
        assert (fm1_sq <= _param_error_tail_bound(xs)).all()
        assert fm1_sq.max() == pytest.approx(0.031, abs=1e-3)
        assert _param_error_tail_bound(tail) == pytest.approx(0.1117, abs=1e-4)

    def test_hb_tail_is_below_its_bounds(self):
        xs = np.concatenate([np.linspace(bounds._HB_TAIL, 100.0, 9001),
                             np.logspace(2.0, 5.0, 3000)[1:]])
        theta = bounds._HB_THETAS[:, None]
        f = bounds._hb_factor(xs * np.sin(theta), xs * np.cos(theta))
        inv_sq = 1.0 / (xs * xs)
        assert (f * f <= 4.0 * (1.0 + inv_sq) ** 2).all()
        assert ((f - 1.0) ** 2 <= (1.0 + 2.0 * inv_sq) ** 2).all()
        assert (f * f).max() == pytest.approx(4.032, abs=1e-3)      # < 4.0804
        assert ((f - 1.0) ** 2).max() == pytest.approx(1.016, abs=1e-3)  # < 1.0404

    @pytest.mark.parametrize("constant, certifier, message", [
        ("_PARAM_ERROR_TAIL", nest_param_error_constant,
         r"\(f-1\)\^2 past x = 1 "),
        ("_HB_TAIL", hb_quarter_plane, r"f\^2 past x = 1 "),
    ])
    def test_a_failing_tail_bound_is_an_error(self, monkeypatch, capsys,
                                              constant, certifier, message):
        monkeypatch.setattr(bounds, constant, 1.0)
        with pytest.raises(RuntimeError, match=message):
            certifier()
        assert run(["verify-constants"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and "not below" in lines[0]

    def test_evaluated_points_are_pinned(self, monkeypatch):
        # 144,983 grid points plus 3 zooms of 240; the 64 x 400 polar nodes,
        # shared by the kernel slack and the two sups, plus 2 sups x 3 zooms
        # x 64 rows x 240
        seen = _counting(monkeypatch, "j1_ratio_complement")
        nest_param_error_constant()
        assert seen["points"] == 145_703
        seen = _counting(monkeypatch, "hb_kernel_complement")
        hb_quarter_plane()
        assert seen["points"] == 117_760

    def test_j1_is_evaluated_only_above_the_series_cutoff(self, monkeypatch):
        # the blocks wholly below 1e-2 (every zoom point among them) take
        # the series alone; the one block straddling the cutoff takes J1
        # whole, 1,696 of its points below 1e-2 among them
        cephes = special._cephes_j1
        seen = {"elems": 0}

        def counting(x):
            seen["elems"] += np.size(x)
            return cephes(x)

        monkeypatch.setattr(special, "_cephes_j1", counting)
        nest_param_error_constant()
        assert seen["elems"] == 46_679


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
            assert ratio == pytest.approx(limit, rel=1e-2, abs=0)
        assert h_kappa(1e6) / 1e6 ** (2.0 / 3.0) == pytest.approx(limit,
                                                                  rel=1e-4, abs=0)

    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError):
            h_kappa(0.5)

    @pytest.mark.parametrize("fn, arg, message", [
        (h_kappa, np.nan, "h_kappa is undefined at kappa = NaN"),
        (h_kappa, [2.0, np.nan], "h_kappa is undefined at kappa = NaN"),
        (tilde_h_maximizer, np.nan, "tilde_h_maximizer is undefined at z = NaN"),
        (tilde_h_maximizer, [1.0, np.nan],
         "tilde_h_maximizer is undefined at z = NaN"),
    ])
    def test_rejects_nan(self, fn, arg, message):
        with pytest.raises(ValueError, match=message):
            fn(arg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [-1.0, -5.0, -np.inf, 0.0, -0.0, 0.5,
                                   [1.0, -5.0]])
    def test_maximizer_refuses_z_below_its_domain(self, z):
        # 5 z^2 - 4 >= 0 again at z <= -2/sqrt(5): a sign check comes first
        with pytest.raises(ValueError,
                           match=r"x\* exists only for z >= 2/sqrt\(5\)"):
            tilde_h_maximizer(z)

    def test_maximizer_keeps_its_bits(self):
        zs = np.array([2.0 / np.sqrt(5.0), 0.9, 0.907, 1.0, 3.0, np.inf])
        want = (zs + np.sqrt(5.0 * zs * zs - 4.0)) / 2.0
        assert np.array_equal(tilde_h_maximizer(zs), want)
        for z, w in zip(zs.tolist(), want.tolist()):
            assert tilde_h_maximizer(z).hex() == w.hex()

    @pytest.mark.filterwarnings("error")
    def test_infinite_kappa_takes_the_limit(self):
        # a valid spectrum whose condition number overflows
        assert Spectrum([1e-300, 1e10]).kappa == np.inf
        assert h_kappa(np.inf) == np.inf
        kappas = np.array([1.0, 8.0, np.inf, 1000.0])
        got = h_kappa(kappas)
        assert got[2] == np.inf
        assert [h_kappa(k) for k in kappas[[0, 1, 3]]] == list(got[[0, 1, 3]])


def tilde_h_mp(x, z):
    """tilde_h in 40-digit arithmetic, rounded once."""
    with mpmath.workdps(40):
        x, q = mpmath.mpf(x), mpmath.mpf(x) / mpmath.mpf(z)
        return float((1 + x * x) * (q + 1) ** 2 * mpmath.exp(-2 * q))


class TestTildeHDomain:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, z", [
        (1.0, 1e-300), (1e300, 1e200), (1e160, 1e-160), (1e10, 1e-300),
        (1.0, 1e-5), (1e160, 1e158), (1e150, 2.5e147), (0.0, 1e-300),
        (1e-10, 1e-250), (1e80, 1e78), (1e75, 1e75 / 354.5), (1e200, 1e-100),
    ])
    def test_takes_its_limits_where_a_factor_overflows(self, x, z):
        got = tilde_h(x, z)
        assert np.isfinite(got)
        assert got == pytest.approx(tilde_h_mp(x, z), rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_log_form_agrees_with_the_direct_form(self):
        rng = np.random.default_rng(8)
        x = 10.0 ** rng.uniform(-5.0, 75.0, 4000)
        z = x / 10.0 ** rng.uniform(-5.0, np.log10(354.0), 4000)
        direct = tilde_h(x, z)
        assert np.allclose(bounds._tilde_h_log(x, z), direct, rtol=2e-13, atol=0)
        for i in range(0, 4000, 400):
            assert direct[i] == pytest.approx(tilde_h_mp(x[i], z[i]), rel=1e-13, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, z", [
        (-1.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, -1.0), (np.inf, 1.0),
        (np.nan, 1.0), (1.0, np.nan), ([1.0, -1e-300], 1.0), (2e100, -np.inf),
    ])
    def test_refuses_input_outside_its_domain(self, x, z):
        with pytest.raises(ValueError,
                           match=r"tilde_h requires finite x >= 0 and z > 0"):
            tilde_h(x, z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, z", [(1e200, np.inf), (1e300, 1e300),
                                      ([1.0, 1e160], 1e200)])
    def test_refuses_a_value_past_the_largest_double(self, x, z):
        with pytest.raises(ValueError, match="tilde_h exceeds the largest double"):
            tilde_h(x, z)

    @pytest.mark.filterwarnings("error")
    def test_an_array_mixing_both_forms(self):
        x = np.array([[0.5, 2.0, 1e160], [3.0, 1e300, 0.0]])
        z = np.array([[0.9], [1e-300]])
        got = tilde_h(x, z)
        assert got.shape == (2, 3) and np.isfinite(got).all()
        want = [[tilde_h_mp(xi, zi[0]) for xi in row] for row, zi in zip(x, z)]
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_each_element_picks_its_own_form(self):
        # an entry past x = 1e75 leaves the others on the direct form
        got = tilde_h(np.array([0.5, 2.0, 1e80]), 0.95)
        alone = tilde_h(np.array([0.5, 2.0]), 0.95)
        assert got[:2].view(np.uint64).tolist() == alone.view(np.uint64).tolist()
        assert alone.tolist() == [tilde_h(0.5, 0.95), tilde_h(2.0, 0.95)]
        assert got[2] == 0.0
        x = np.array([[0.5, 2.0, 1e160], [3.0, 1e300, 0.0]])
        z = np.array([[0.9], [1e-300]])
        got = tilde_h(x, z)
        for (i, j), value in np.ndenumerate(got):
            one = tilde_h(np.array([x[i, j]]), z[i])[0]
            assert value.view(np.uint64) == one.view(np.uint64)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [1e150, 1.0000000000000002e150, 1e154, 1e200,
                                   1e308])
    def test_maximizer_is_phi_z_for_huge_z(self, z):
        with mpmath.workdps(40):
            want = float((mpmath.mpf(z) + mpmath.sqrt(5 * mpmath.mpf(z) ** 2 - 4))
                         / 2)
        assert tilde_h_maximizer(z) == pytest.approx(want, rel=4e-16, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_maximizer_of_a_mixed_array(self):
        zs = np.array([1.0, 3.0, 1e200, np.inf])
        got = tilde_h_maximizer(zs)
        assert got[:2].tolist() == [tilde_h_maximizer(1.0), tilde_h_maximizer(3.0)]
        assert got[2] == pytest.approx(1.618033988749895e200, rel=4e-16, abs=0)
        assert got[3] == np.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [1.2e308, np.finfo(float).max, [1.0, 1.5e308]])
    def test_maximizer_refuses_a_z_whose_x_star_overflows(self, z):
        with pytest.raises(ValueError, match="x\\* exceeds the largest double"):
            tilde_h_maximizer(z)


class TestCrossover:
    def test_z_star(self):
        crossover, _ = tilde_h_crossover()
        z_star = crossover.value
        assert CHECKS["crossover_z"].passes(z_star)
        assert tilde_h(tilde_h_maximizer(z_star), z_star) == \
            pytest.approx(1.0, abs=1e-9)

    def test_case_structure(self):
        _, structure = tilde_h_crossover()
        assert structure.value == 1.0
        by_z = {c.z: c for c in structure.at}
        assert by_z[0.5].case_index == 1
        assert by_z[0.5].argmax_x == 0.0
        assert by_z[0.95].case_index == 2
        assert by_z[0.95].argmax_x == pytest.approx(by_z[0.95].x_star,
                                                    abs=1e-3)
        assert by_z[2.0].case_index == 3
        assert by_z[2.0].x_star == pytest.approx(3.0, abs=1e-12)
        assert all(c.structure_ok for c in structure.at)

    def test_below_crossover_interior_peak_is_lower(self):
        z = 0.9  # in (2/sqrt(5), z*)
        assert tilde_h(tilde_h_maximizer(z), z) < 1.0

    def test_cases_match_the_scan_classifier(self):
        zs = np.random.default_rng(7).uniform(0.3, 3.0, 80)
        edges = [2.0 / np.sqrt(5.0), 0.9, 1.0]   # 0.9: case 2 with its max at 0
        for z in map(float, np.concatenate([zs, edges])):
            got, scanned = bounds._classify_tilde_h(z), scan_classify_tilde_h(z)
            assert got.case_index == scanned.case_index
            assert got.x_star == scanned.x_star
            step = 6.0 * max(z, 1.0) / (SCAN_POINTS - 1)
            assert abs(got.argmax_x - scanned.argmax_x) <= 2 * step
            assert got.structure_ok and scanned.structure_ok
        assert {bounds._classify_tilde_h(float(z)).case_index
                for z in zs} == {1, 2, 3}

    def test_case_edges(self):
        z = 2.0 / np.sqrt(5.0)
        assert 5.0 * z * z - 4.0 == 0.0        # a double root: still case 1
        assert bounds._classify_tilde_h(z) == bounds.CrossoverCase(
            z=z, case_index=1, argmax_x=0.0, x_star=None, structure_ok=True)
        above = float(np.nextafter(z, 1.0))
        assert bounds._classify_tilde_h(above).case_index == 2
        # at z = 1, x_- = 0: tilde_h rises from 0 to x* = 1
        assert bounds._classify_tilde_h(1.0) == bounds.CrossoverCase(
            z=1.0, case_index=3, argmax_x=1.0, x_star=1.0, structure_ok=True)

    def test_structure_ok_reads_tilde_h(self, monkeypatch):
        # cases 2 and 3 rest on values of tilde_h, case 1 on the sign alone
        monkeypatch.setattr(bounds, "tilde_h", lambda x, z: np.float64(0.5))
        assert [bounds._classify_tilde_h(z).structure_ok
                for z in (0.5, 0.95, 2.0)] == [True, False, False]

    @pytest.mark.parametrize("z", [0.5, 0.907, 0.95, 2.0])
    def test_derivative_factorization(self, z):
        with mpmath.workdps(40):
            zz = mpmath.mpf(z)

            def h(x):
                return (1 + x * x) * (x / zz + 1) ** 2 * mpmath.exp(-2 * x / zz)

            root = mpmath.sqrt(5 * zz * zz - 4) if 5 * z * z > 4 else None
            for x in map(mpmath.mpf, (0.01, 0.3, 0.9, 1.7, 4.0, 11.0)):
                quad = zz * zz - 1 + zz * x - x * x
                want = h(x) * 2 * x * quad / ((1 + x * x) * zz * (x + zz))
                assert abs(mpmath.diff(h, x) - want) <= 1e-30 * abs(want)
                if root is not None:
                    x_minus, x_plus = (zz - root) / 2, (zz + root) / 2
                    assert abs(quad + (x - x_minus) * (x - x_plus)) <= 1e-35


class TestVarianceBound:
    def test_records(self):
        recomposition, at_one = hb_variance_bound_check()
        assert recomposition.name == "h_recomposition"
        assert CHECKS["h_recomposition"].passes(recomposition.value)
        assert at_one.name == "h_at_kappa_1" and at_one.value == h_kappa(1.0)

    def test_branches_on_the_grid(self):
        kappas = bounds._RECOMPOSITION_KAPPAS
        tau = kappas ** (1.0 / 6.0)
        target = 8.0 * kappas ** (2.0 / 3.0)
        # 8 tau^4 = 8 kappa^{2/3} to 1e-10 relative to the largest, 8 * 1e4^{2/3}
        assert np.abs(8.0 * tau ** 4 - target).max() <= \
            1e-10 * 8.0 * 1e4 ** (2.0 / 3.0)
        u = tau / np.sqrt(kappas)
        assert (2.0 * (1.0 + (u + 1.0) * np.exp(-u)) ** 2 < target).all()

    @pytest.mark.parametrize("kappas, where", [
        ([0.1, 1.0, 8.0], "by 2.007 at kappa = 0.1"),   # 3.731 - 1.724
        ([1.0, np.nan], "by nan at kappa = nan"),
    ])
    def test_a_dominating_second_branch_is_an_error(self, monkeypatch, capsys,
                                                    kappas, where):
        monkeypatch.setattr(bounds, "_RECOMPOSITION_KAPPAS", np.array(kappas))
        with pytest.raises(RuntimeError,
                           match=rf"exceeds 8 kappa\^\(2/3\) {where}$"):
            hb_variance_bound_check()
        assert run(["verify-constants"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: the second variance branch exceeds")

    def test_kappa_one_branch_values(self):
        # 8 tau^4 = 8 dominates 2 (1 + 2/e)^2 ~ 6.03
        second = 2.0 * (1.0 + 2.0 * math.exp(-1.0)) ** 2
        assert second < 8.0
        assert second == pytest.approx(6.0257, abs=1e-4)

    def test_kappa_64_substitution(self):
        tau = 64.0 ** (1.0 / 6.0)
        assert 8.0 * tau ** 4 == pytest.approx(8.0 * 64.0 ** (2.0 / 3.0),
                                               rel=1e-14, abs=0)
        assert 8.0 * tau ** 4 == pytest.approx(128.0, rel=1e-14, abs=0)

    def test_recomposition_at_anchor_kappas(self):
        for kappa in (1.0, 8.0, 1000.0):
            z = kappa ** (1.0 / 3.0)
            recomp = float(tilde_h(tilde_h_maximizer(z), z)) \
                + 8.0 * kappa ** (2.0 / 3.0)
            assert CHECKS["h_recomposition"].passes(abs(recomp - h_kappa(kappa)))


def _inflation_within(ratio, spectrum):
    """1 - 1e-9 <= ratio <= h(kappa) + 1e-9, through the one pass rule."""
    return (within(1.0, ratio, 1e-9, "le")
            and within(ratio, h_kappa(spectrum.kappa), 1e-9, "le"))


class TestHbInflation:
    def test_single_eigenvalue_ratio_at_least_one(self):
        spec = Spectrum(np.array([1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=1)  # alpha = 1
        ratio = _hb_inflation(spec, prior)
        assert ratio >= 1.0 - 1e-9
        assert _inflation_within(ratio, spec)

    def test_power_law_spectra(self):
        for nu in (0.5, 1.0, 2.0):
            vals = np.sort(1.0 / np.arange(1, 41, dtype=float) ** nu)
            spec = Spectrum(vals)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=200)
            ratio = _hb_inflation(spec, prior)
            assert _inflation_within(ratio, spec), (nu, ratio)

    def test_condition_one_design(self):
        spec = Spectrum(np.ones(10))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=50)
        ratio = _hb_inflation(spec, prior)
        assert ratio <= h_kappa(1.0) + 1e-9
        assert _inflation_within(ratio, spec)

    def test_rejects_singular_spectrum(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=10)
        with pytest.raises(ValueError, match="mu > 0"):
            risk_curve(spec, prior, FlowKind.HEAVY_BALL_FLOW, [1.0])


class TestKernelBounds:
    def test_zero_violations_dense_grid(self):
        *_, worst = hb_quarter_plane()      # worst of the three violations
        assert worst.name == "kernel_inequalities"
        assert CHECKS["kernel_inequalities"].passes(worst.value)

    def test_old_nodes_are_reproduced(self):
        # the former 40^3 (mu, s, t) scan: worst slacks 3.3e-16, 0 and 0
        a, b, x = _old_hb_nodes(40)
        bias, var_small, var_large = bounds._hb_kernel_slacks(
            a, b, a * a + b * b, hb_kernel_complement(a, b))
        worst = [max(float(v.max()), 0.0)
                 for v in (bias, var_small[x <= 1.0], var_large[x > 1.0])]
        assert worst == pytest.approx([3.3306690738754696e-16, 0.0, 0.0],
                                      rel=1e-12, abs=1e-16)

    def test_degenerate_slice_is_equality(self):
        # s = mu (b = 0) makes the bias inequality an identity
        a = math.sqrt(0.8) * np.array([0.0, 0.5, 2.0])
        bias, _, _ = bounds._hb_kernel_slacks(a, np.zeros(3), a * a,
                                              hb_kernel_complement(a, 0.0))
        assert bias.max() <= 1e-14

    def test_time_zero_slice(self):
        # t = 0 is a = b = 0 (x <= 1): bias and small-x variance slacks
        bias, var_small, _ = bounds._hb_kernel_slacks(
            0.0, 0.0, 0.0, hb_kernel_complement(0.0, 0.0))
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

    @pytest.mark.parametrize(("x_points", "message"), [
        ([1.0], "x_points must be a 1-D array with >= 2 points"),
        ([[1.0, 1e5]], "x_points must be a 1-D array with >= 2 points"),
        ([0.0, 1e5], "x_points must be positive and ascending"),
        ([1e5, 1.0], "x_points must be positive and ascending"),
        ([1.0, 1.0, 1e5], "x_points must be positive and ascending"),
    ])
    def test_refusals(self, x_points, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bias_ratio_unbounded_witness(x_points)
