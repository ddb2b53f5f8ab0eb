import numpy as np
import pytest

from flowrisk.estimators import (
    coefficient_path,
    coupling_gap,
    flow_estimate,
    ridge_estimate,
)
from flowrisk.linalg import attach_response, design_decompose
from flowrisk.oracle import integrate_flow
from flowrisk.shrinkage import FlowKind

from oracles import gauss_solve

FLOWS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
         FlowKind.HEAVY_BALL_FLOW)


@pytest.mark.parametrize("kind", FLOWS)
def test_paths_start_at_zero(kind, small_instance):
    design, _, _, _ = small_instance
    assert np.array_equal(flow_estimate(design, kind, 0.0), np.zeros(6))


def test_gradient_flow_reaches_least_squares(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    bhat = flow_estimate(design, FlowKind.GRADIENT_FLOW, 1e6)
    assert np.abs(bhat - ols).max() <= 1e-6 * np.abs(ols).max()


def test_ridge_zero_penalty_is_least_squares(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.allclose(ridge_estimate(design, 0.0), ols, atol=1e-10)


def test_ridge_huge_penalty_kills_coefficients(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    bhat = ridge_estimate(design, 1e12)
    assert np.linalg.norm(bhat) <= 1e-10 * np.linalg.norm(ols)


def test_ridge_matches_gaussian_elimination_oracle(small_instance):
    design, x, y, _ = small_instance
    lam = 0.3
    direct = gauss_solve(x.T @ x / 40 + lam * np.eye(6), x.T @ y / 40)
    assert np.abs(ridge_estimate(design, lam) - direct).max() <= 1e-10


def test_ridge_zero_penalty_rejected_when_rank_deficient():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal(3)
    design = attach_response(design_decompose(x), x, y)
    with pytest.raises(ValueError, match="full-rank"):
        ridge_estimate(design, 0.0)


def test_accelerated_path_matches_rk4_trajectory():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 5))
    beta0 = rng.standard_normal(5)
    y = x @ beta0 + rng.standard_normal(50)
    design = attach_response(design_decompose(x), x, y)
    traj = integrate_flow(FlowKind.ACCELERATED_FLOW, design.spectrum,
                          design.rotated_channel, 20.0, step=2e-3)
    for t in (1.0, 5.0, 20.0):
        bhat = flow_estimate(design, FlowKind.ACCELERATED_FLOW, t)
        k = int(np.argmin(np.abs(traj.times - t)))
        rk4 = design.v_basis @ traj.positions[k]
        assert np.abs(bhat - rk4).max() <= 1e-6


def test_null_space_components_exactly_zero():
    # diagonal design with an exact null direction; V = I so the spectral
    # coordinates are the output coordinates
    n = 8
    s = np.array([0.0, 0.5, 2.0])
    cols = np.zeros((n, 3))
    cols[1, 1] = np.sqrt(n * s[1])
    cols[2, 2] = np.sqrt(n * s[2])
    y = np.ones(n)
    design = attach_response(design_decompose(cols), cols, y)
    assert design.spectrum.eigenvalues[0] == 0.0
    for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW):
        for t in (0.5, 3.0, 100.0):
            beta = flow_estimate(design, kind, t)
            assert beta[np.argmax(np.abs(design.v_basis[:, 0]))] == 0.0
    assert flow_estimate(design, FlowKind.GRADIENT_FLOW, 1.0)[0] == 0.0


def test_heavy_ball_requires_positive_mu():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal(3)
    design = attach_response(design_decompose(x), x, y)
    with pytest.raises(ValueError, match="mu > 0"):
        flow_estimate(design, FlowKind.HEAVY_BALL_FLOW, 1.0)


def test_response_required():
    rng = np.random.default_rng(5)
    design = design_decompose(rng.standard_normal((10, 3)))
    with pytest.raises(ValueError, match="response"):
        flow_estimate(design, FlowKind.GRADIENT_FLOW, 1.0)


@pytest.mark.parametrize("kind", FLOWS)
def test_coefficient_path_starts_at_exact_zero(kind, small_instance):
    design, _, _, _ = small_instance
    path = coefficient_path(design, kind, [0.0, 0.5, 2.0])
    assert [pt.param for pt in path] == [0.0, 0.5, 2.0]
    assert np.array_equal(path[0].beta_hat, np.zeros(6))
    assert np.abs(path[2].beta_hat).max() > 0


def test_coefficient_path_ridge_uses_penalty(small_instance):
    design, _, _, _ = small_instance
    path = coefficient_path(design, FlowKind.RIDGE, [0.3])
    assert np.array_equal(path[0].beta_hat, ridge_estimate(design, 0.3))


class TestCouplingGap:
    def test_zero_response_convention(self, small_instance):
        design, x, _, _ = small_instance
        d0 = attach_response(design, x, np.zeros(40))
        gap, norm_sq, ratio = coupling_gap(d0, FlowKind.ACCELERATED_FLOW, 2.0)
        assert (gap, norm_sq, ratio) == (0.0, 0.0, 0.0)

    def test_rejects_nonpositive_time(self, small_instance):
        design, _, _, _ = small_instance
        with pytest.raises(ValueError):
            coupling_gap(design, FlowKind.ACCELERATED_FLOW, 0.0)

    def test_rejects_gradient_flow(self, small_instance):
        design, _, _, _ = small_instance
        with pytest.raises(ValueError):
            coupling_gap(design, FlowKind.GRADIENT_FLOW, 1.0)

    def test_per_realization_bounds_small_sample(self):
        rng = np.random.default_rng(77)
        t_grid = np.logspace(-2, 3, 25)
        for trial in range(60):
            p = 1 + trial % 6
            n = p + 5
            x = rng.standard_normal((n, p))
            y = x @ rng.standard_normal(p) + rng.standard_normal(n)
            design = attach_response(design_decompose(x), x, y)
            for t in t_grid:
                _, _, r_nest = coupling_gap(design,
                                            FlowKind.ACCELERATED_FLOW, t)
                assert r_nest <= 49.0 / 64.0 + 1e-9
                if design.spectrum.mu > 0:
                    _, _, r_hb = coupling_gap(design,
                                              FlowKind.HEAVY_BALL_FLOW, t)
                    assert r_hb <= 25.0 + 1e-9

    def test_rank_deficient_instance_stays_bounded(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 7))
        y = rng.standard_normal(4)
        design = attach_response(design_decompose(x), x, y)
        for t in np.logspace(-2, 3, 30):
            _, _, ratio = coupling_gap(design, FlowKind.ACCELERATED_FLOW, t)
            assert ratio <= 49.0 / 64.0 + 1e-9
