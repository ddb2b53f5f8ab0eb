import numpy as np
import pytest

from flowrisk.estimators import coupling_gap, estimate
from flowrisk.linalg import (SpectralDesign, Spectrum, attach_response,
                             design_decompose)
from flowrisk.oracle import integrate_flow
from flowrisk.shrinkage import FlowKind, factor_block

from oracles import coupling_gap_reference, gauss_solve

FLOWS = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
         FlowKind.HEAVY_BALL_FLOW)


def one(design, kind, param):
    """The coefficient vector of a one-point grid."""
    beta = estimate(design, kind, [param])
    assert beta.shape == (1, design.p)
    return beta[0]


@pytest.mark.parametrize("kind", FLOWS)
def test_paths_start_at_zero(kind, small_instance):
    design, _, _, _ = small_instance
    assert np.array_equal(one(design, kind, 0.0), np.zeros(6))


def test_gradient_flow_reaches_least_squares(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    bhat = one(design, FlowKind.GRADIENT_FLOW, 1e6)
    assert np.abs(bhat - ols).max() <= 1e-6 * np.abs(ols).max()


def test_ridge_zero_penalty_is_least_squares(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.allclose(one(design, FlowKind.RIDGE, 0.0), ols, atol=1e-10)


def test_ridge_huge_penalty_kills_coefficients(small_instance):
    design, x, y, _ = small_instance
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    bhat = one(design, FlowKind.RIDGE, 1e12)
    assert np.linalg.norm(bhat) <= 1e-10 * np.linalg.norm(ols)


def test_ridge_matches_gaussian_elimination_oracle(small_instance):
    design, x, y, _ = small_instance
    lam = 0.3
    direct = gauss_solve(x.T @ x / 40 + lam * np.eye(6), x.T @ y / 40)
    assert np.abs(one(design, FlowKind.RIDGE, lam) - direct).max() <= 1e-10


def test_ridge_zero_penalty_is_the_minimum_norm_fit_when_rank_deficient():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal(3)
    design = attach_response(design_decompose(x), x, y)
    assert design.spectrum.mu == 0.0
    pinv = np.linalg.pinv(x) @ y
    bhat = one(design, FlowKind.RIDGE, 0.0)
    assert np.linalg.norm(bhat - pinv) <= 1e-12 * np.linalg.norm(pinv)


@pytest.mark.filterwarnings("error")
def test_ridge_zero_penalty_is_gradient_flow_at_1e300_when_rank_deficient(
        rank_deficient_instance):
    # both reach the minimum-norm least-squares fit, bit for bit
    design, _, _, _ = rank_deficient_instance
    assert (design.spectrum.eigenvalues == 0.0).sum() == 4
    assert np.array_equal(one(design, FlowKind.RIDGE, 0.0),
                          one(design, FlowKind.GRADIENT_FLOW, 1e300))


def test_accelerated_path_matches_rk4_trajectory():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 5))
    beta0 = rng.standard_normal(5)
    y = x @ beta0 + rng.standard_normal(50)
    design = attach_response(design_decompose(x), x, y)
    traj = integrate_flow(FlowKind.ACCELERATED_FLOW, design.spectrum,
                          design.rotated_channel, 20.0, step=2e-3)
    for t in (1.0, 5.0, 20.0):
        bhat = one(design, FlowKind.ACCELERATED_FLOW, t)
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
            beta = one(design, kind, t)
            assert beta[np.argmax(np.abs(design.v_basis[:, 0]))] == 0.0
    assert one(design, FlowKind.GRADIENT_FLOW, 1.0)[0] == 0.0


def test_heavy_ball_requires_positive_mu():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal(3)
    design = attach_response(design_decompose(x), x, y)
    with pytest.raises(ValueError, match="mu > 0"):
        one(design, FlowKind.HEAVY_BALL_FLOW, 1.0)


def test_response_required():
    rng = np.random.default_rng(5)
    design = design_decompose(rng.standard_normal((10, 3)))
    with pytest.raises(ValueError, match="response"):
        one(design, FlowKind.GRADIENT_FLOW, 1.0)


@pytest.mark.parametrize("kind", FLOWS)
def test_coefficient_path_starts_at_exact_zero(kind, small_instance):
    design, _, _, _ = small_instance
    path = estimate(design, kind, [0.0, 0.5, 2.0])
    assert path.shape == (3, 6)
    assert np.array_equal(path[0], np.zeros(6))
    assert np.abs(path[2]).max() > 0
    for k, t in enumerate([0.0, 0.5, 2.0]):
        assert np.allclose(path[k], one(design, kind, t), rtol=1e-14, atol=0)


def test_coefficient_path_ridge_uses_penalty(small_instance):
    design, _, _, _ = small_instance
    lams = np.array([0.3, 2.0])
    path = estimate(design, FlowKind.RIDGE, lams)
    # a larger penalty shrinks the whole vector
    assert np.linalg.norm(path[1]) < np.linalg.norm(path[0])
    assert np.allclose(path[0], one(design, FlowKind.RIDGE, 0.3), rtol=1e-14,
                       atol=0)


@pytest.mark.parametrize("kind", list(FlowKind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_every_family_refuses_a_bad_parameter(kind, bad, small_instance):
    design, _, _, _ = small_instance
    with pytest.raises(ValueError, match="finite and >= 0"):
        estimate(design, kind, [1.0, bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", FLOWS)
def test_a_flow_whose_argument_overflows_reaches_least_squares(kind):
    # s = 1e10 and 4e20 at t = 1e300: t s, t sqrt(s) and t sqrt(s - mu)
    # overflow for s = 4e20, so the largest time picks the limit formulas
    # and every factor is 0 (exp(-t sqrt(mu)) == 0 for heavy ball)
    x = np.diag(np.sqrt([2e10, 8e20]))
    design = attach_response(design_decompose(x), x, np.ones(2))
    s, c = design.spectrum.eigenvalues, design.rotated_channel
    path = estimate(design, kind, [1.0, 1e300])
    assert np.array_equal(path[1], design.v_basis @ (c / s))


class TestCouplingGap:
    def test_zero_response_convention(self, small_instance):
        design, x, _, _ = small_instance
        d0 = attach_response(design, x, np.zeros(40))
        gap, norm_sq, ratio = coupling_gap(d0, FlowKind.ACCELERATED_FLOW, 2.0)
        assert (gap, norm_sq, ratio) == (0.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_nan_response(self, small_instance):
        design, x, y, _ = small_instance
        y = y.copy()
        y[1] = np.nan
        with pytest.raises(ValueError, match="response has non-finite entries"):
            coupling_gap(attach_response(design, x, y),
                         FlowKind.ACCELERATED_FLOW, 1.0)

    def test_rejects_nonpositive_time(self, small_instance):
        design, _, _, _ = small_instance
        with pytest.raises(ValueError):
            coupling_gap(design, FlowKind.ACCELERATED_FLOW, 0.0)

    def test_rejects_gradient_flow(self, small_instance):
        design, _, _, _ = small_instance
        with pytest.raises(ValueError):
            coupling_gap(design, FlowKind.GRADIENT_FLOW, 1.0)

    def test_rejects_nonpositive_time_in_a_grid(self, small_instance):
        design, _, _, _ = small_instance
        with pytest.raises(ValueError, match="t must be > 0"):
            coupling_gap(design, FlowKind.HEAVY_BALL_FLOW,
                         np.array([0.5, 1.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_huge_time_reaches_least_squares(self, small_instance):
        # lambda = (1/t)^2 underflows to 0: ridge is least squares, and the
        # flow has reached it
        design, _, _, _ = small_instance
        _, norm_sq, ratio = coupling_gap(design, FlowKind.ACCELERATED_FLOW,
                                         1e200)
        beta_ls = one(design, FlowKind.RIDGE, 0.0)
        assert norm_sq == pytest.approx(np.sum(beta_ls ** 2), rel=1e-13, abs=0)
        assert ratio <= 1e-20

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_tiny_time_reaches_the_start_silently(self, kind, small_instance):
        # lambda = (1/t)^2 overflows to inf: ridge is exactly 0, and the
        # flow has not left its rest start
        design, _, _, _ = small_instance
        assert coupling_gap(design, kind, 1e-200) == (0.0, 0.0, 0.0)
        for out in coupling_gap(design, kind, np.array([5e-324, 1e-200])):
            assert np.array_equal(out, [0.0, 0.0])

    @pytest.mark.parametrize("kind", [FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_grid_matches_original_basis_reference(self, kind, small_instance):
        # reference: both estimators rotated back through V, one t at a time;
        # the spectral form differs from it only by rounding
        design, _, _, _ = small_instance
        t_grid = np.logspace(-2, 3, 40)
        gap, norm_sq, ratio = coupling_gap(design, kind, t_grid)
        assert gap.shape == norm_sq.shape == ratio.shape == (40,)
        for k, t in enumerate(t_grid):
            beta_ridge = one(design, FlowKind.RIDGE, 1.0 / (t * t))
            want_norm = float(np.sum(beta_ridge ** 2))
            want_gap = float(np.sum((one(design, kind, t)
                                     - beta_ridge) ** 2))
            assert abs(gap[k] - want_gap) <= 1e-13 * want_norm
            assert norm_sq[k] == pytest.approx(want_norm, rel=1e-13, abs=0)
            scalar = coupling_gap(design, kind, float(t))
            assert all(type(v) is float for v in scalar)
            assert scalar == (gap[k], norm_sq[k], ratio[k])

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

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_instance_stays_bounded(self):
        # rotated_channel on the three null directions is rounding noise;
        # ridge must leave it at 0 instead of dividing it by a tiny lambda
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 7))
        y = rng.standard_normal(4)
        design = attach_response(design_decompose(x), x, y)
        assert (design.spectrum.eigenvalues == 0.0).sum() == 3
        t_grid = np.append(np.logspace(-2, 12, 57), 1e200)
        gaps, norms_sq, ratios = coupling_gap(design, FlowKind.ACCELERATED_FLOW,
                                              t_grid)
        assert np.isfinite(gaps).all() and np.isfinite(norms_sq).all()
        assert (ratios <= 49.0 / 64.0).all()
        for k, t in enumerate(t_grid):
            _, _, ratio = coupling_gap(design, FlowKind.ACCELERATED_FLOW, t)
            assert ratio == ratios[k]


COUPLED = (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW)


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _realizations():
    """Seeded full-rank realizations, then rank-deficient ones (n < p or a
    repeated column), whose spectra start at mu = 0."""
    rng = np.random.default_rng(2024)
    full, deficient = [], []
    for k in range(12):
        p = 1 + k % 6
        x = rng.standard_normal((p + 4, p))
        y = x @ rng.standard_normal(p) + rng.standard_normal(p + 4)
        full.append(attach_response(design_decompose(x), x, y))
    for n, p in ((3, 6), (2, 5), (6, 4)):
        x = rng.standard_normal((n, p))
        if n > p:
            x[:, 0] = x[:, 1]
        y = rng.standard_normal(n)
        deficient.append(attach_response(design_decompose(x), x, y))
    return full, deficient


class TestCouplingMatchesReference:
    """coupling_gap validates each value once; its values, messages and
    their precedence are those of the reference that re-validated through
    factor_block."""

    T_GRID = np.concatenate([np.logspace(-3, 4, 36), [1e-200, 1e200]])

    @staticmethod
    def _assert_bit_for_bit(design, kind, t_grid):
        """The grid form and the scalar form at each t against the reference."""
        got = coupling_gap(design, kind, t_grid)
        want = coupling_gap_reference(design, kind, t_grid)
        assert [_hex(g) for g in got] == [_hex(w) for w in want]
        for t in t_grid:
            got = coupling_gap(design, kind, float(t))
            want = coupling_gap_reference(design, kind, float(t))
            assert all(type(v) is float for v in got)
            assert _hex(got) == _hex(want)

    @pytest.mark.filterwarnings("error")
    def test_values_bit_for_bit(self):
        full, deficient = _realizations()
        cases = [(d, kind) for d in full for kind in COUPLED]
        cases += [(d, FlowKind.ACCELERATED_FLOW) for d in deficient]
        for design, kind in cases:
            self._assert_bit_for_bit(design, kind, self.T_GRID)

    @pytest.mark.filterwarnings("error")
    def test_values_bit_for_bit_on_the_oracle_benchmark_shapes(self):
        # realizations of q = 1..8 columns and q + 6 rows, as the benchmark's
        # oracle workload draws them (perfbench/workloads.py), at its 40 times
        rng = np.random.default_rng(4)
        for q in range(1, 9):
            x = rng.standard_normal((q + 6, q))
            y = x @ rng.standard_normal(q) + rng.standard_normal(q + 6)
            design = attach_response(design_decompose(x), x, y)
            for kind in COUPLED:
                self._assert_bit_for_bit(design, kind, np.logspace(-2, 3, 40))

    def test_rank_deficient_realizations_have_a_null_direction(self):
        _, deficient = _realizations()
        assert all(d.spectrum.mu == 0.0 for d in deficient)

    @staticmethod
    def _message(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return str(info.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, which, t, message", [
        # one refusal each
        ("nest", "full", 0.0, "t must be > 0"),
        ("hb", "full", -1.0, "t must be > 0"),
        ("nest", "full", -np.inf, "t must be > 0"),
        ("nest", "full", np.nan, "path parameter must be finite and >= 0"),
        ("hb", "full", np.inf, "path parameter must be finite and >= 0"),
        ("nest", "full", [[1.0, 2.0]], "path parameters must be 1-D"),
        ("nest", "bare", 1.0, "design has no attached response"),
        ("gf", "full", 1.0, "coupling_gap is defined for the accelerated"),
        ("ridge", "full", 1.0, "coupling_gap is defined for the accelerated"),
        ("hb", "deficient", 1.0, "heavy-ball flow requires a finite mu > 0"),
        # precedence: the kind, then t <= 0, then the response, then the
        # shape and finiteness of t, then mu
        ("gf", "bare", -1.0, "coupling_gap is defined for the accelerated"),
        ("nest", "bare", [1.0, -1.0], "t must be > 0"),
        ("nest", "full", [np.nan, -1.0], "t must be > 0"),
        ("nest", "full", [[1.0, -2.0]], "t must be > 0"),
        ("nest", "bare", np.nan, "design has no attached response"),
        ("hb", "bare", [[1.0]], "design has no attached response"),
        ("nest", "full", [[np.nan]], "path parameters must be 1-D"),
        ("hb", "deficient", np.nan, "path parameter must be finite and >= 0"),
        ("hb", "deficient", [[1.0]], "path parameters must be 1-D"),
        # 0-d forms, checked by float comparisons
        ("nest", "full", -0.0, "t must be > 0"),
        ("hb", "full", 0, "t must be > 0"),
        ("nest", "full", np.array(np.nan), "path parameter must be finite and >= 0"),
        ("hb", "full", np.array(np.inf), "path parameter must be finite and >= 0"),
        ("hb", "deficient", np.array(np.nan), "path parameter must be finite and >= 0"),
        ("hb", "deficient", np.array(np.inf), "path parameter must be finite and >= 0"),
        ("nest", "bare", np.float64(-1.0), "t must be > 0"),
    ])
    def test_refusals(self, kind, which, t, message):
        full, deficient = _realizations()
        design = {"full": full[3], "deficient": deficient[0],
                  "bare": design_decompose(np.eye(3))}[which]
        kind = FlowKind.parse(kind)
        got = self._message(coupling_gap, design, kind, t)
        assert got.startswith(message)
        assert got == self._message(coupling_gap_reference, design, kind, t)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", COUPLED)
    def test_an_overflowing_argument_takes_its_limit(self, kind):
        # s = 1e10 and 4e20: t sqrt(s) overflows at t = 1e308, and for
        # s = 4e20 alone at t = 1e298 and 1e300; the flow factor is then
        # its limit 0
        x = np.diag(np.sqrt([2e10, 8e20]))
        design = attach_response(design_decompose(x), x, np.ones(2))
        assert design.spectrum.eigenvalues == pytest.approx([1e10, 4e20],
                                                            rel=1e-12, abs=0)
        for t in (1e298, 1e300, 1e308):
            got = coupling_gap(design, kind, t)
            assert all(np.isfinite(v) for v in got)
            assert _hex(got) == _hex(coupling_gap_reference(design, kind, t))



@pytest.mark.filterwarnings("error")
def test_a_ridge_row_whose_s_plus_lambda_overflows_is_halved():
    # s = [0, 1.69e308]: s + lambda overflows at lambda = 1e308, and at
    # lambda = (1/t)^2 for t = 1e-154; the ridge coordinate is then
    # (c/2) / (s/2 + lambda/2), exactly half of each term
    x = np.array([[1.3e154, 0.0]])
    design = attach_response(design_decompose(x), x, np.ones(1))
    s, c = design.spectrum.eigenvalues, design.rotated_channel
    assert s[0] == 0.0 and float(s[1]) + 1e308 == np.inf

    def halved(lam):
        return np.array([0.0, (0.5 * c[1]) / (0.5 * s[1] + 0.5 * lam)])

    got = estimate(design, FlowKind.RIDGE, [1e308])[0]
    assert np.isfinite(got).all() and got.any()
    assert np.array_equal(got, design.v_basis @ halved(1e308))

    t = 1e-154
    ridge = halved((1.0 / t) ** 2)[1]
    g = factor_block(FlowKind.ACCELERATED_FLOW, s[1], t)[0, 0]
    gap = ((1.0 - g) * c[1] / s[1] - ridge) ** 2
    # the ridge norm (2.3e-309) is below 2^-968, so the ratio comes from
    # rows scaled by a power of two: 2 ulp from the 60-digit value
    # 0.47143510540898509 on these doubles, where the plain quotient of
    # the subnormal squares, 0x1.e2bfe25fabee6p-2, is 9 ulp off
    want = (gap, ridge * ridge, float.fromhex("0x1.e2bfe25fabef1p-2"))
    got = coupling_gap(design, FlowKind.ACCELERATED_FLOW, t)
    assert all(np.isfinite(v) for v in got) and got[1] > 0.0
    assert [v.hex() for v in got] == [float(v).hex() for v in want]
    grid = coupling_gap(design, FlowKind.ACCELERATED_FLOW, np.array([t, 1.0]))
    assert [float(v[0]).hex() for v in grid] == [v.hex() for v in got]


def tiny_design(shift: int):
    """A 4 x 2 design with entries near 1e-122 (eigenvalues near 1e-244)
    and a response near 2^shift 1e33: |c| / s is near 2^shift 1e154."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2)) * 1e-122
    y = np.ldexp(rng.standard_normal(4) * 1e33, shift)
    return attach_response(design_decompose(x), x, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", (FlowKind.ACCELERATED_FLOW,
                                  FlowKind.HEAVY_BALL_FLOW))
def test_coupling_gap_scales_rows_whose_squares_would_overflow(kind):
    design = tiny_design(0)
    # the same channel times 2^-200 exactly, whose squares cannot overflow
    # (nor, on this grid, underflow)
    small = tiny_design(-200)
    assert np.array_equal(small.rotated_channel,
                          np.ldexp(design.rotated_channel, -200))
    ts = np.array([1e-130, 1.0, 1e5, 1e130, 1e200])
    gap, norm_sq, ratio = coupling_gap(design, kind, ts)
    want = coupling_gap(small, kind, ts)
    assert np.isfinite(ratio).all() and ratio[3] > 0.0
    assert np.array_equal(ratio, want[2])
    with np.errstate(over="ignore"):
        assert np.array_equal(gap, np.ldexp(want[0], 400))
        assert np.array_equal(norm_sq, np.ldexp(want[1], 400))
    assert norm_sq[3] == np.inf    # the ridge norm passes the largest double
    one = coupling_gap(design, kind, 1e130)
    assert [v.hex() for v in one] == [float(v[3]).hex()
                                      for v in (gap, norm_sq, ratio)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", COUPLED)
def test_coupling_gap_scales_rows_whose_ridge_norm_would_underflow(kind):
    # times 2^-600 the ridge squares underflow, and the plain ridge norm
    # (below 2^-968) would give the ratio 0; the scaled rows give the
    # ratio of the same channel at shifts 0 and -200
    ts = np.array([1e-5, 1.0])
    for shift in (0, -200, -600):
        design = tiny_design(shift)
        assert np.array_equal(coupling_gap(design, kind, ts)[2], [1.0, 1.0])
        for t in ts:
            assert coupling_gap(design, kind, float(t))[2] == 1.0
    assert (coupling_gap(tiny_design(-600), kind, ts)[1] < 2.0 ** -968).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", COUPLED)
def test_a_grid_mixing_plain_and_rescaled_rows_keeps_each_rows_bits(
        kind, small_instance):
    # at t = 1e-200 lambda is inf and the ridge row exactly 0, so the grid
    # takes the rescaled rows; t = 1 alone takes the plain sums.  With the
    # response times 2^-484 the gap at t = 1e7 is subnormal, so that t takes
    # the rescaled rows alone too, and a plain row beside it in the grid
    # keeps its plain sums
    design, x, y, _ = small_instance
    ts = np.array([1e-200, 1.0, 1e7])
    for shift in (0, -484):
        d = attach_response(design, x, np.ldexp(y, shift))
        grid = coupling_gap(d, kind, ts)
        assert grid[1][0] == 0.0 and (grid[1][1:] >= 2.0 ** -968).all()
        for i, t in enumerate(ts):
            assert _hex(coupling_gap(d, kind, float(t))) == \
                [float(v[i]).hex() for v in grid]


@pytest.mark.filterwarnings("error")
def test_a_subnormal_gap_is_rescaled(small_instance):
    # times 2^-484 the heavy-ball gap at t = 5.62e7 is subnormal while the
    # ridge norm is not: its plain sums gave 0x1.05020eae71677p-102, 2.7e-3
    # off; the rescaled rows give the unshifted instance's ratio
    design, x, y, _ = small_instance
    hb, t = FlowKind.HEAVY_BALL_FLOW, 5.62e7
    want = "0x1.05b5ad001dc08p-102"
    assert coupling_gap(design, hb, t)[2].hex() == want
    shifted = attach_response(design, x, np.ldexp(y, -484))
    gap, norm_sq, ratio = coupling_gap(shifted, hb, t)
    assert 0.0 < gap < np.finfo(float).tiny <= 2.0 ** -968 <= norm_sq
    assert ratio.hex() == want
    grid = coupling_gap(shifted, hb, np.array([1.0, t]))
    assert [float(v[1]).hex() for v in grid] == _hex([gap, norm_sq, ratio])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", COUPLED)
def test_coupling_gap_refuses_a_coordinate_past_the_largest_double(kind):
    # c_3 / s_3 = 1.1e382: estimate refuses the flow vector, and so does
    # coupling_gap, with the same message (heavy ball needs s_1 > 0)
    s_1 = 0.0 if kind is FlowKind.ACCELERATED_FLOW else 1e-190
    design = SpectralDesign(
        n=3, p=3, spectrum=Spectrum(np.array([s_1, 8.3e-189, 7.4e-188])),
        v_basis=np.eye(3), rotated_channel=np.array([1e-3, 2e190, 8.1e194]))
    message = f"^a {kind.value} coefficient passes the largest double$"
    with pytest.raises(ValueError, match=message):
        estimate(design, kind, [1e90])
    for t in (1e90, np.array([1e-300, 1.0, 1e90])):
        with pytest.raises(ValueError, match=message):
            coupling_gap(design, kind, t)


@pytest.mark.filterwarnings("error")
def test_coupling_gap_sweep_over_extreme_scales():
    # design and response scales log-uniform over 1e-300..1e300: every
    # call refuses by name or returns a finite ratio; gap and ridge norm
    # are nonnegative, and inf only where they pass the largest double
    rng = np.random.default_rng(12)
    finite = 0
    for _ in range(300):
        n, p = (int(v) for v in rng.integers(1, [7, 5]))
        x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-300, 300)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300)
        try:
            design = attach_response(design_decompose(x), x, y)
        except ValueError:
            continue
        ts = 10.0 ** rng.uniform(-300, 300, 4)
        for kind in COUPLED:
            for t in (*ts.tolist(), np.sort(ts)):
                try:
                    gap, norm_sq, ratio = coupling_gap(design, kind, t)
                except ValueError:
                    continue
                assert np.isfinite(ratio).all()
                assert (np.asarray(gap) >= 0).all()
                assert (np.asarray(norm_sq) >= 0).all()
                finite += bool(np.isfinite([gap, norm_sq]).all())
    assert finite > 1000
