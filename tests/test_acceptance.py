"""Acceptance gate: every certified value, bound, and qualitative claim.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them) and
enforces its runtime budget.  Criteria 01-06 and 11 run rows of the
certification table `bounds.CHECKS`, which holds their paper values,
tolerances and scan grids; the other criteria pin their tolerances here.
"""

import time
from contextlib import contextmanager

import numpy as np

from flowrisk import bounds
from flowrisk.estimators import coupling_gap
from flowrisk.experiments import (
    DesignSpec,
    ExperimentConfig,
    build_design,
    figure_sweep,
)
from flowrisk.linalg import Spectrum, attach_response, design_decompose
from flowrisk.oracle import compare_closed_form
from flowrisk.risk import SignalModel, optimal_ridge_bayes_risk
from flowrisk.shrinkage import FlowKind
from flowrisk.special import bessel_j1, j1_ratio

from oracles import J1_ROOTS_BELOW_8, bisect_root, j1_series


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"{name}: PASS ({elapsed:.2f} s, budget {budget_s:g} s)")
    assert elapsed <= budget_s, f"{name} exceeded its runtime budget"


def _certified(*names):
    """Run the named rows of bounds.CHECKS, assert each passes, return results."""
    runs = bounds.run_checks(names)
    assert not [(c.name, v) for c, _, v, _ in runs if not c.passes(v)]
    return [result for _, result, _, _ in runs]


def test_01_gradient_flow_inflation_constant():
    with criterion("01 gradient-flow inflation constant", 10.0):
        _certified("gradient_flow_inflation")


def test_02_accelerated_inflation_constant():
    with criterion("02 accelerated inflation constant", 30.0):
        _certified("accelerated_inflation")


def test_03_accelerated_parameter_error_constant():
    with criterion("03 accelerated parameter-error constant", 5.0):
        [(_sup, x_star)] = _certified("accelerated_param_error")
        assert x_star <= 1e-6  # supremum approached as x -> 0+
        from flowrisk.special import j1_ratio_complement
        x = 1e-6
        f = j1_ratio_complement(x) * (x * x + 1.0) / (x * x)
        paper = bounds.CHECKS["accelerated_param_error"].paper_value
        assert abs((f - 1.0) ** 2 - paper) <= 1e-6


def test_04_heavy_ball_parameter_error_bounds():
    with criterion("04 heavy-ball parameter-error bounds", 20.0):
        _certified("heavy_ball_f_sq", "heavy_ball_param_error")


def test_05_crossover_certification():
    with criterion("05 bias-envelope crossover", 5.0):
        result, _ = _certified("crossover_z", "crossover_case_structure")
        assert [case.case_index for case in result.cases] == [1, 2, 3]


def test_06_h_kappa_recomposition():
    with criterion("06 heavy-ball envelope recomposition", 1.0):
        # the recomposition kappa grid includes 1, 8 and 1000
        _certified("h_recomposition", "h_at_kappa_1")


def test_07_oracle_equivalence():
    with criterion("07 integrator vs closed forms", 60.0):
        rng = np.random.default_rng(20250811)
        t_grid = np.linspace(0.0, 50.0, 501)
        worst = 0.0
        for instance in range(20):
            p = 3 + instance % 8
            eigs = np.sort(rng.uniform(0.05, 3.0, p))
            if instance == 5:
                eigs[1] = eigs[0]  # an eigenvalue exactly at mu
            zero_eig = instance == 9
            if zero_eig:
                eigs[0] = 0.0
            forcing = rng.standard_normal(p)
            if zero_eig:
                forcing[0] = 0.0
            spectrum = Spectrum(eigs)
            kinds = [FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW]
            if spectrum.mu > 0:
                kinds.append(FlowKind.HEAVY_BALL_FLOW)
            for kind in kinds:
                err = compare_closed_form(kind, spectrum, forcing, t_grid,
                                          step=5e-3)
                worst = max(worst, err)
        assert worst <= 1e-6


def test_08_coupling_bounds_per_realization():
    with criterion("08 per-realization coupling bounds", 60.0):
        rng = np.random.default_rng(88)
        t_grid = np.logspace(-2, 3, 40)
        worst_nest = 0.0
        worst_hb = 0.0
        for instance in range(500):
            p = 1 + instance % 8
            n = p + 6
            x = rng.standard_normal((n, p))
            y = x @ rng.standard_normal(p) + rng.standard_normal(n)
            design = attach_response(design_decompose(x), x, y)
            assert design.spectrum.mu > 0
            for t in t_grid:
                _, _, r_nest = coupling_gap(design, FlowKind.ACCELERATED_FLOW,
                                            float(t))
                _, _, r_hb = coupling_gap(design, FlowKind.HEAVY_BALL_FLOW,
                                          float(t))
                worst_nest = max(worst_nest, r_nest)
                worst_hb = max(worst_hb, r_hb)
        paper = {name: c.paper_value for name, c in bounds.CHECKS.items()}
        assert worst_nest <= paper["accelerated_param_error"] + 1e-9
        assert worst_hb <= paper["heavy_ball_param_error"] + 1e-9


def _standard_design_specs():
    specs = [DesignSpec(family="PowerLaw", n=500, p=100, seed=101 + k,
                        c=1.0, nu=nu)
             for k, nu in enumerate((0.1, 0.5, 1.0, 2.0))]
    specs.append(DesignSpec(family="IidGaussian", n=500, p=100, seed=201))
    specs.append(DesignSpec(family="IidStudentT", n=500, p=100, seed=202,
                            df=5.0))
    specs.append(DesignSpec(family="Orthogonal", n=500, p=100, seed=203,
                            s=0.1))
    specs.append(DesignSpec(family="Orthogonal", n=500, p=100, seed=204,
                            s=1.0))
    return specs


def test_09_ridge_bayes_domination():
    with criterion("09 optimal ridge dominates every flow", 30.0):
        from flowrisk.risk import bayes_risk
        t_grid = np.logspace(-2, 3, 400)
        ridge_grid = np.logspace(-6, 3, 400)
        for spec in _standard_design_specs():
            design = build_design(spec)
            prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=spec.n)
            floor, _ = optimal_ridge_bayes_risk(design.spectrum, prior)
            ridge_best = min(bayes_risk(design.spectrum, prior, FlowKind.RIDGE,
                                        float(g)).risk for g in ridge_grid)
            assert floor <= ridge_best + 1e-10, spec.label
            for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
                         FlowKind.HEAVY_BALL_FLOW):
                best = min(bayes_risk(design.spectrum, prior, kind,
                                      float(g)).risk for g in t_grid)
                assert floor <= best + 1e-10, (spec.label, kind)
                assert ridge_best <= best + 1e-10, (spec.label, kind)


def test_10_power_law_sweep_qualitative_claims():
    with criterion("10 power-law sweep qualitative claims", 120.0):
        config = ExperimentConfig.from_json({
            "design": [{"family": "PowerLaw", "C": 1.0, "nu": nu, "n": 500,
                        "p": 100, "seed": 101 + k}
                       for k, nu in enumerate((0.1, 0.5, 1.0, 2.0))],
            "snr": 1.0,
            "flows": ["gf", "nest", "hb", "ridge"],
            "t_grid": {"lo": 1e-2, "hi": 1e3, "count": 400, "log": True},
            "ridge_grid": {"lo": 1e-6, "hi": 1e3, "count": 400, "log": True},
        })
        dataset = figure_sweep(config)

        def risks(label, token):
            return np.array([dec.risk for _, dec in dataset[label][token]])

        # (a) accelerated and heavy-ball risks are non-monotone for the
        # ill-conditioned spectra: they both strictly fall and strictly rise
        for nu in ("powerlaw-nu1", "powerlaw-nu2"):
            for token in ("nest", "hb"):
                r = risks(nu, token)
                assert (np.diff(r) < 0).any() and (np.diff(r) > 0).any(), \
                    (nu, token)
        # (b) gradient-flow bias never increases, variance never decreases
        for label in dataset:
            curve = dataset[label]["gf"]
            bias = np.array([dec.bias_sq for _, dec in curve])
            var = np.array([dec.variance for _, dec in curve])
            assert (np.diff(bias) <= 1e-12).all(), label
            assert (np.diff(var) >= -1e-12).all(), label
        # (c) under nu = 2 the accelerated variance overshoots gradient flow
        nest_var = np.array([dec.variance
                             for _, dec in dataset["powerlaw-nu2"]["nest"]])
        gf_var = np.array([dec.variance
                           for _, dec in dataset["powerlaw-nu2"]["gf"]])
        assert (nest_var >= 2.0 * gf_var).any()


def test_11_helper_inequality_suite():
    with criterion("11 kernel inequalities on a dense grid", 10.0):
        _certified("kernel_inequalities")


def test_12_bessel_quality_gate():
    with criterion("12 Bessel quality gate", 5.0):
        grid = np.unique(np.concatenate([
            np.logspace(-6, np.log10(8.0), 2000),
            np.linspace(1e-3, 8.0, 4001)]))
        near_root = np.zeros(grid.size, dtype=bool)
        for root in J1_ROOTS_BELOW_8:
            near_root |= np.abs(grid - root) <= 0.1
        impl = bessel_j1(grid)
        series = np.array([j1_series(float(v)) for v in grid])
        away = ~near_root
        rel = np.abs(impl[away] - series[away]) / np.abs(series[away])
        assert rel.max() <= 1e-12
        assert np.abs(impl[near_root] - series[near_root]).max() <= 5e-14

        root = bisect_root(bessel_j1, 3.0, 4.0)
        assert abs(root - 3.8317059702) <= 1e-8

        ratio_grid = np.linspace(0.0, 1e4, 100001)
        vals = j1_ratio(ratio_grid)
        assert (vals <= 1.0).all()
