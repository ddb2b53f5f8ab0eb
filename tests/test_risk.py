import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from scipy.special import j1

from flowrisk import risk
from flowrisk.estimators import estimate
from flowrisk.experiments import ExperimentConfig, figure_sweep
from flowrisk.linalg import Spectrum, attach_response, design_decompose
from flowrisk.risk import (
    _BLOCK_DOUBLES,
    OscillationReport,
    RiskCurve,
    RiskDecomposition,
    SignalModel,
    optimal_ridge_bayes_risk,
    oscillation_report,
    risk_csv_text,
    risk_curve,
    write_risk_csv,
)
from flowrisk.shrinkage import FlowKind

from oracles import j1_series, risk_csv_text_reference

UNIT = Spectrum(np.array([1.0]))
# sigma_sq = n = 1 gives noise scale sigma^2/n = 1
FIXED_UNIT = SignalModel.fixed(np.array([1.0]), sigma_sq=1.0, n=1)
PRIOR_UNIT = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=1)  # alpha = 1 at p = 1


def point_curve(spectrum, signal, kind, param):
    """A one-point risk_curve (fixed or Bayes), read as arrays."""
    return risk_curve(spectrum, signal, kind, [param])


class TestFixedRisk:
    @pytest.mark.parametrize("kind", [FlowKind.GRADIENT_FLOW,
                                      FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_start_of_path(self, kind, simple_spectrum):
        signal = SignalModel.fixed(np.array([1.0, -2.0, 0.5, 3.0]),
                                   sigma_sq=2.0, n=10)
        point = point_curve(simple_spectrum, signal, kind, 0.0)
        assert point.bias_sq[0] == pytest.approx(1 + 4 + 0.25 + 9, rel=1e-15, abs=0)
        assert point.variance[0] == 0.0

    def test_ridge_scalar_substitution(self):
        point = point_curve(UNIT, FIXED_UNIT, FlowKind.RIDGE, 1.0)
        assert point.bias_sq[0] == pytest.approx(0.25, abs=1e-15)
        assert point.variance[0] == pytest.approx(0.25, abs=1e-15)
        assert point.risk[0] == pytest.approx(0.5, abs=1e-15)

    def test_accelerated_scalar_via_series_oracle(self):
        g = j1_series(2.0)  # shrinkage factor at s = 1, t = 2
        point = point_curve(UNIT, FIXED_UNIT, FlowKind.ACCELERATED_FLOW, 2.0)
        assert point.bias_sq[0] == pytest.approx(g * g, abs=1e-9)
        assert point.variance[0] == pytest.approx((1 - g) ** 2, abs=1e-9)
        assert point.bias_sq[0] == pytest.approx(0.33261, abs=1e-4)
        assert point.variance[0] == pytest.approx(0.17916, abs=1e-4)

    def test_null_directions_feed_bias_only(self):
        spec = Spectrum(np.array([0.0, 0.0, 1.0]))
        signal = SignalModel.fixed(np.array([2.0, -1.0, 0.3]), sigma_sq=1.0, n=4)
        for kind in (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW):
            for t in (0.5, 3.0, 50.0):
                point = point_curve(spec, signal, kind, t)
                live = point_curve(Spectrum(np.array([1.0])),
                                   SignalModel.fixed(np.array([0.3]),
                                                     sigma_sq=1.0, n=4),
                                   kind, t)
                assert point.bias_sq[0] == pytest.approx(
                    4 + 1 + live.bias_sq[0], rel=1e-14, abs=0)
                assert point.variance[0] == pytest.approx(live.variance[0],
                                                          rel=1e-14, abs=0)
        point = point_curve(spec, signal, FlowKind.RIDGE, 2.0)
        assert point.bias_sq[0] >= 5.0

    def test_mode_mismatch(self, simple_spectrum):
        # the prior-only quantities refuse a fixed signal
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        with pytest.raises(ValueError, match="prior"):
            optimal_ridge_bayes_risk(simple_spectrum, signal)
        with pytest.raises(ValueError, match="prior"):
            signal.alpha(simple_spectrum.p)


@pytest.mark.parametrize(("fields", "message"), [
    ({"mode": "bayes"}, "mode must be 'fixed' or 'prior'"),
    ({"sigma_sq": 0.0}, "sigma_sq must be positive and finite, got 0.0"),
    ({"sigma_sq": math.nan}, "sigma_sq must be positive and finite, got nan"),
    ({"n": 0}, "n must be a positive integer"),
    ({"beta0_rotated": None}, "fixed mode requires beta0_rotated"),
    ({"beta0_rotated": [[1.0, 2.0]]}, "beta0_rotated must be a finite 1-D vector"),
    ({"beta0_rotated": [1.0, math.inf]},
     "beta0_rotated must be a finite 1-D vector"),
    ({"mode": "prior"}, "prior mode requires a finite r_sq > 0, got None"),
    ({"mode": "prior", "r_sq": math.inf},
     "prior mode requires a finite r_sq > 0, got inf"),
])
def test_signal_model_refusals(fields, message):
    base = {"mode": "fixed", "sigma_sq": 1.0, "n": 3,
            "beta0_rotated": [1.0, 2.0], "r_sq": None}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SignalModel(**(base | fields))


@pytest.mark.parametrize("n", [2.7, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("build", [
    lambda n: SignalModel.prior(1.0, 1.0, n),
    lambda n: SignalModel.fixed([1.0, 2.0], 1.0, n),
    lambda n: SignalModel(mode="prior", sigma_sq=1.0, n=n, r_sq=1.0),
], ids=["prior", "fixed", "constructor"])
def test_signal_model_n_follows_the_integer_rule(build, n):
    message = f"n must be an integer, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(n)
    # a NumPy integer is kept as the int it is
    signal = build(np.int64(3))
    assert type(signal.n) is int and signal.noise_scale == 1.0 / 3


@pytest.mark.parametrize(("call", "message"), [
    (lambda: RiskDecomposition(-1.0, 0.0),
     "bias_sq and variance must be nonnegative"),
    (lambda: RiskDecomposition(0.0, -1e-300),
     "bias_sq and variance must be nonnegative"),
    (lambda: RiskCurve([1.0, 2.0], [0.5], [0.5]),
     "curve arrays must be 1-D and of equal length"),
    (lambda: RiskCurve([[1.0]], [[0.5]], [[0.5]]),
     "curve arrays must be 1-D and of equal length"),
    (lambda: RiskCurve([1.0], [0.5], [-0.5]),
     "bias_sq and variance must be nonnegative"),
], ids=["point-bias", "point-variance", "curve-lengths", "curve-2d",
        "curve-variance"])
def test_decomposition_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestBayesRisk:
    def test_gradient_flow_scalar(self):
        point = point_curve(UNIT, PRIOR_UNIT, FlowKind.GRADIENT_FLOW, 1.0)
        expected = math.exp(-2.0) + (1 - math.exp(-1.0)) ** 2
        assert point.risk[0] == pytest.approx(expected, abs=1e-8)
        assert expected == pytest.approx(0.53492, abs=1e-5)

    @pytest.mark.parametrize("kind", [FlowKind.GRADIENT_FLOW,
                                      FlowKind.ACCELERATED_FLOW,
                                      FlowKind.HEAVY_BALL_FLOW])
    def test_prior_energy_at_start(self, kind, simple_spectrum):
        prior = SignalModel.prior(r_sq=2.5, sigma_sq=1.0, n=20)
        point = point_curve(simple_spectrum, prior, kind, 0.0)
        assert point.risk[0] == pytest.approx(2.5, rel=1e-14, abs=0)

    def test_accelerated_scalar(self):
        g = j1_series(2.0)
        point = point_curve(UNIT, PRIOR_UNIT, FlowKind.ACCELERATED_FLOW, 2.0)
        assert point.risk[0] == pytest.approx(g * g + (1 - g) ** 2, abs=1e-6)
        assert point.risk[0] == pytest.approx(0.51177, abs=1e-5)

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
                point_curve(simple_spectrum,
                            SignalModel.fixed(b, sigma_sq=1.0, n=25),
                            kind, param).risk[0]
                for b in draws])
            se = risks.std(ddof=1) / np.sqrt(m)
            target = point_curve(simple_spectrum, prior, kind, param).risk[0]
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
        assert risk == pytest.approx(1.7, rel=1e-14, abs=0)

    def test_matches_grid_minimization_oracle(self):
        rng = np.random.default_rng(21)
        spec = Spectrum(np.sort(rng.uniform(0.01, 3.0, 7)))
        prior = SignalModel.prior(r_sq=0.8, sigma_sq=1.5, n=30)
        opt, lam_star = optimal_ridge_bayes_risk(spec, prior)
        lams = np.logspace(-4, 3, 20000)
        grid_best = float(risk_curve(spec, prior, FlowKind.RIDGE,
                                     lams).risk.min())
        assert opt == pytest.approx(grid_best, rel=1e-6, abs=0)
        assert opt <= grid_best + 1e-12

    def test_bayes_optimality_floor(self, simple_spectrum):
        prior = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=15)
        floor, _ = optimal_ridge_bayes_risk(simple_spectrum, prior)
        for kind in FlowKind:
            for param in np.logspace(-2, 2, 60):
                assert point_curve(simple_spectrum, prior, kind,
                                   param).risk[0] >= floor - 1e-10


class TestRiskCurve:
    def test_single_point_grid(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        curve = risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW,
                           np.array([0.0]))
        assert len(curve) == 1
        assert curve.variance[0] == 0.0

    def test_gradient_flow_monotone_components(self, simple_spectrum):
        signal = SignalModel.fixed(np.array([1.0, -0.5, 2.0, 0.25]),
                                   sigma_sq=1.0, n=10)
        curve = risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW,
                           np.logspace(-2, 3, 200))
        assert (np.diff(curve.bias_sq) <= 1e-12).all()
        assert (np.diff(curve.variance) >= -1e-12).all()

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

    # the checks run in this order: the grid's shape, then its order and
    # sign, then the length of beta0, then the grid's finiteness, then the
    # family's rule (heavy ball's mu > 0); ridge at lambda = 0 on a null
    # eigenvalue is not refused
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(("kind", "s", "beta0", "grid", "message"), [
        ("gf", [0.5, 2.0], None, [[0.1, 1.0]],
         "grid must be a nonempty 1-D array"),
        ("gf", [0.5, 2.0], None, [], "grid must be a nonempty 1-D array"),
        ("gf", [0.5, 2.0], [1.0, 2.0], [-1.0, 1.0],
         "grid must be ascending and nonnegative"),
        ("gf", [0.5, 2.0], [1.0, 2.0, 3.0], [0.1, np.nan],
         "beta0_rotated length does not match the spectrum"),
        ("gf", [0.5, 2.0], [1.0, 2.0], [np.nan, 0.1],
         "path parameter must be finite and >= 0"),
        ("nest", [0.5, 2.0], None, [0.1, np.inf],
         "path parameter must be finite and >= 0"),
        ("ridge", [0.0, 2.0], None, [0.0, np.inf],
         "path parameter must be finite and >= 0"),
        ("ridge", [0.0, 2.0], [1.0, 2.0], [0.0, np.nan],
         "path parameter must be finite and >= 0"),
        ("hb", [0.0, 2.0], None, [0.1, 1.0],
         "heavy-ball flow requires a finite mu > 0"),
    ])
    def test_grid_refusals(self, kind, s, beta0, grid, message):
        signal = (SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=5)
                  if beta0 is None else SignalModel.fixed(beta0, 1.0, 5))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            risk_curve(Spectrum(np.array(s)), signal, FlowKind.parse(kind), grid)

    def test_ridge_at_lambda_zero_on_a_full_rank_spectrum(self, simple_spectrum):
        curve = risk_curve(simple_spectrum, PRIOR_UNIT, FlowKind.RIDGE,
                           [0.0, 1.0])
        assert np.isfinite(curve.risk).all() and curve.bias_sq[0] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["fixed", "prior"])
    def test_ridge_at_lambda_zero_is_gradient_flow_at_1e300_when_rank_deficient(
            self, rank_deficient_instance, mode):
        # both reach the minimum-norm fit: each null direction keeps its
        # full signal energy in the bias and adds nothing to the variance
        design, _, _, beta0 = rank_deficient_instance
        signal = (SignalModel.fixed(design.v_basis.T @ beta0, 1.0, 6)
                  if mode == "fixed" else SignalModel.prior(1.0, 1.0, 6))
        ridge = risk_curve(design.spectrum, signal, FlowKind.RIDGE, [0.0])
        flow = risk_curve(design.spectrum, signal, FlowKind.GRADIENT_FLOW,
                          [1e300])
        assert ridge.bias_sq[0] == flow.bias_sq[0] > 0.0
        assert ridge.variance[0] == flow.variance[0] > 0.0

    def test_output_order_matches_grid(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        grid = np.array([0.1, 1.0, 10.0])
        curve = risk_curve(simple_spectrum, signal, FlowKind.RIDGE, grid)
        assert [p for p, _ in curve] == list(grid)

    def test_sequence_protocol(self, simple_spectrum):
        signal = SignalModel.fixed(np.array([1.0, -0.5, 2.0, 0.25]),
                                   sigma_sq=1.0, n=10)
        grid = np.logspace(-2, 2, 7)
        curve = risk_curve(simple_spectrum, signal, FlowKind.ACCELERATED_FLOW,
                           grid)
        assert isinstance(curve, RiskCurve) and len(curve) == 7
        pairs = list(curve)
        assert len(pairs) == 7
        for k, (t, dec) in enumerate(pairs):
            assert type(t) is float and t == grid[k]
            assert dec == RiskDecomposition(float(curve.bias_sq[k]),
                                            float(curve.variance[k]))

    def test_risk_array_is_the_per_point_sum_bit_for_bit(self, simple_spectrum):
        prior = SignalModel.prior(r_sq=1.3, sigma_sq=0.7, n=9)
        for kind in FlowKind:
            curve = risk_curve(simple_spectrum, prior, kind,
                               np.logspace(-3, 3, 301))
            pairs = list(curve)
            per_point = np.array([dec.risk for _, dec in pairs])
            assert np.array_equal(per_point.view(np.uint64),
                                  curve.risk.view(np.uint64))
            for k in (0, 150, -1):
                assert pairs[k][1].risk == curve.risk[k]

    def test_nonnegativity_rule_matches_decomposition(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            RiskCurve(grid, np.array([1.0, -1e-300]), np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            RiskCurve(grid, np.zeros(2), np.array([-1.0, 0.0]))
        # NaN compares false against 0, as in RiskDecomposition
        curve = RiskCurve(grid, np.array([np.nan, 1.0]), np.zeros(2))
        (_, first), _ = curve
        assert np.isnan(first.bias_sq)
        assert np.isnan(RiskDecomposition(np.nan, 0.0).bias_sq)

    def test_arrays_are_read_only_copies(self, simple_spectrum):
        signal = SignalModel.fixed(np.ones(4), sigma_sq=1.0, n=5)
        grid = np.array([0.1, 1.0, 10.0])
        curve = risk_curve(simple_spectrum, signal, FlowKind.GRADIENT_FLOW, grid)
        grid[0] = 5.0
        assert curve.grid[0] == 0.1 and grid.flags.writeable
        with pytest.raises(ValueError):
            curve.bias_sq[0] = 0.0


def test_csv_text_matches_per_value_format():
    bias = np.array([0.0, 5e-324, 1.2345678901234567e298, 0.1])
    variance = np.array([0.0, 2.5e-310, 7e297, 0.2])
    curve = RiskCurve(np.array([0.0, 1e-5, 3.0, 1e300]), bias, variance)
    want = ["kind,param,bias_sq,variance,risk"]
    for row in zip(curve.grid.tolist(), curve.bias_sq.tolist(),
                   curve.variance.tolist(), curve.risk.tolist()):
        want.append(",".join(["nest"] + [format(v, ".17g") for v in row]))
    text = risk_csv_text(FlowKind.ACCELERATED_FLOW, curve)
    assert text == "\n".join(want) + "\n"
    assert ",4.9406564584124654e-324," in text  # the subnormal round-trips


def csv_curve(values):
    """A curve whose grid holds the values as given; the bias and variance
    columns hold their magnitudes, quartered so that the risk column stays
    finite, in reverse and forward order."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v) / 4
    return RiskCurve(v, a[::-1], a)


def ten_powers():
    """10^k and its two ulp neighbours for k in [-300, 300]."""
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


CSV_VALUES = {
    "bit_patterns": np.random.default_rng(19).integers(
        1, 0x7FF0000000000000, 20_000, dtype=np.int64).view(np.float64),
    "ten_powers": ten_powers(),
    # exact ties, then two doubles within 1e-15 of a tie, closer than the
    # double-double scaling can resolve
    "ties": [1234567890123456.25, 1234567890123456.75, 0.5, 2.5,
             98765432109876.125, float.fromhex("0x1.e18596be30fe5p-23"),
             float.fromhex("0x1.a5ca9080b933ep-25")],
    "extremes": [5e-324, 2.5e-310, np.finfo(float).tiny,
                 np.finfo(float).max, 1e-280, 1e280,
                 np.nextafter(1e280, 0.0), 9.9999999999999995e22],
    "specials": [0.0, -0.0, np.nan, np.inf, -np.inf, -1.5, -1e-300],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(CSV_VALUES))
def test_csv_text_is_the_reference_on_values(case):
    curve = csv_curve(CSV_VALUES[case])
    text = risk_csv_text(FlowKind.RIDGE, curve)
    assert text == risk_csv_text_reference(FlowKind.RIDGE, curve)


def test_csv_text_is_the_reference_on_one_long_curve():
    # every case in one 5,000-row curve, so the specials, ties and extremes
    # are formatted in the same array passes as ordinary values
    cases = [CSV_VALUES[case] for case in sorted(CSV_VALUES)
             if case != "bit_patterns"]
    rest = 5_000 - sum(len(c) for c in cases)
    curve = csv_curve(np.concatenate([CSV_VALUES["bit_patterns"][:rest],
                                      *cases]))
    assert curve.grid.size == 5_000
    assert (risk_csv_text(FlowKind.RIDGE, curve)
            == risk_csv_text_reference(FlowKind.RIDGE, curve))


def test_csv_ties_round_half_even():
    curve = csv_curve([1234567890123456.25, 1234567890123456.75])
    params = [row.split(",")[1] for row in
              risk_csv_text(FlowKind.RIDGE, curve).splitlines()[1:]]
    assert params == ["1234567890123456.2", "1234567890123456.8"]


@pytest.mark.parametrize("kind", list(FlowKind))
@pytest.mark.parametrize("mode", ["fixed", "prior"])
def test_csv_text_is_the_reference_on_curves(kind, mode):
    rng = np.random.default_rng(7)
    spec = Spectrum(np.sort(rng.uniform(0.01, 4.0, 50)))
    if mode == "fixed":
        signal = SignalModel.fixed(rng.standard_normal(50), sigma_sq=1.0, n=80)
    else:
        signal = SignalModel.prior(r_sq=2.0, sigma_sq=1.0, n=80)
    grid = np.concatenate([[0.0], np.logspace(-3, 3, 300), [1e300]])
    curve = risk_curve(spec, signal, kind, grid)
    assert risk_csv_text(kind, curve) == risk_csv_text_reference(kind, curve)


def test_write_risk_csv_returns_the_bytes_written(tmp_path):
    curve = csv_curve([0.0, 0.1, 2.5e-310, 1e300])
    path = tmp_path / "c.csv"
    data = write_risk_csv(path, FlowKind.HEAVY_BALL_FLOW, curve)
    assert data == path.read_bytes() == risk_csv_text(
        FlowKind.HEAVY_BALL_FLOW, curve).encode()


def test_write_risk_csv_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"x" * 5000)
    inode = path.stat().st_ino
    data = write_risk_csv(path, FlowKind.RIDGE, csv_curve([0.5, 2.0]))
    assert len(data) < 5000
    assert path.read_bytes() == data
    assert path.stat().st_ino == inode


def test_write_risk_csv_never_opens_with_o_trunc(tmp_path, monkeypatch):
    flags = []
    real_open = risk.os.open

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(risk.os, "open", recording_open)
    path = tmp_path / "c.csv"
    for _ in range(2):     # a fresh file, then a rerun over it
        write_risk_csv(path, FlowKind.RIDGE, csv_curve([0.5, 2.0]))
    assert len(flags) == 2
    assert all(f & os.O_CREAT and f & os.O_WRONLY and not f & os.O_TRUNC
               for f in flags)


def test_write_risk_csv_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"y" * 3000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    data = write_risk_csv(link, FlowKind.GRADIENT_FLOW, csv_curve([1.0]))
    assert link.is_symlink()
    assert target.read_bytes() == data


def test_write_risk_csv_keeps_an_existing_files_mode(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"old")
    path.chmod(0o640)
    write_risk_csv(path, FlowKind.GRADIENT_FLOW, csv_curve([1.0]))
    assert path.stat().st_mode & 0o777 == 0o640


def test_write_risk_csv_creates_a_file_as_open_w_does(tmp_path):
    made = tmp_path / "made.csv"
    opened = tmp_path / "opened.csv"
    data = write_risk_csv(made, FlowKind.GRADIENT_FLOW, csv_curve([1.0]))
    with open(opened, "w"):
        pass
    assert made.read_bytes() == data
    assert made.stat().st_mode == opened.stat().st_mode


@pytest.fixture
def fallback_count(monkeypatch):
    """The number of values risk_csv_text hands to its "%" fallback."""
    seen = []
    fallback = risk._percent_g

    def counted(values):
        seen.append(values.size)
        return fallback(values)

    monkeypatch.setattr(risk, "_percent_g", counted)
    return lambda: sum(seen)


def test_csv_fallback_takes_only_the_special_values(fallback_count):
    curve = csv_curve(CSV_VALUES["specials"] + [0.1, 3.0, 5e-324])
    assert (risk_csv_text(FlowKind.GRADIENT_FLOW, curve)
            == risk_csv_text_reference(FlowKind.GRADIENT_FLOW, curve))
    columns = (curve.grid, curve.bias_sq, curve.variance, curve.risk)
    assert fallback_count() == sum(
        np.count_nonzero(np.signbit(c) | ~np.isfinite(c)) for c in columns)


@pytest.mark.parametrize("config", ["power_law_sweep.json",
                                    "matrix_family_sweep.json"])
@pytest.mark.parametrize("bayes", [False, True])
def test_demo_sweeps_take_the_fast_path(config, bayes, tmp_path,
                                        fallback_count):
    demos = pathlib.Path(__file__).parent.parent / "demos"
    raw = json.loads((demos / config).read_text())
    raw["output_dir"] = str(tmp_path)
    dataset = figure_sweep(ExperimentConfig.from_json(raw), bayes=bayes)
    assert fallback_count() == 0
    for label, curves in dataset.items():
        for token, curve in curves.items():
            written = (tmp_path / f"{label}_{token}.csv").read_text()
            assert written == risk_csv_text_reference(FlowKind(token), curve)


# Extreme but well-posed spectra: t or lambda up to 1e308, an eigenvalue of
# 1e-300 or 1e300, and the heavy-ball damping level mu repeated (s = mu,
# b = 0).  Underflow to 0 is expected there; so is a product t s that
# overflows, whose factor takes its limit.  Other overflow, 0/0 and x/0
# are not.
EDGE_SPECTRA = {
    "huge_param": [0.25, 0.5, 1.0, 2.0],
    "tiny_eigenvalue": [1e-300, 0.5, 1.0, 2.0],
    "huge_eigenvalue": [0.25, 1.0, 4.0, 1e300],
    "repeated_mu": [0.3, 0.3, 0.3, 1.0],
}


@pytest.mark.parametrize("case", sorted(EDGE_SPECTRA))
@pytest.mark.parametrize("kind", list(FlowKind))
def test_edge_spectra_stay_finite_and_nonnegative(case, kind):
    spec = Spectrum(np.array(EDGE_SPECTRA[case]))
    grid = np.append(np.logspace(-2, 300, 61), 1e308)
    signals = (SignalModel.fixed(np.array([1.0, -2.0, 0.5, 3.0]), 1.0, 4),
               SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=4))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for signal in signals:
            curve = risk_curve(spec, signal, kind, grid)
            for arr in (curve.bias_sq, curve.variance, curve.risk):
                assert np.isfinite(arr).all() and (arr >= 0).all()


class TestOscillationReport:
    @staticmethod
    def _fake_curve(risks):
        return RiskCurve(grid=np.arange(len(risks), dtype=float),
                         bias_sq=np.array(risks, dtype=float),
                         variance=np.zeros(len(risks)))

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
            point = point_curve(simple_spectrum, signal, kind, param)
            assert point.risk[0] == point.bias_sq[0] + point.variance[0]


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
            bhat = estimate(d, kind, [param])[0]
            sq_errors[i] = np.sum((bhat - beta0) ** 2)
        se = sq_errors.std(ddof=1) / np.sqrt(m)
        target = point_curve(base.spectrum, signal, kind, param).risk[0]
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
        beta = rng.uniform(0.0, 1.0, s.size)
        weights = beta ** 2
        curve = risk_curve(Spectrum(s), SignalModel.fixed(beta, 0.3, 1), kind,
                           grid)
        bias, variance = curve.bias_sq, curve.variance
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
        curve = risk_curve(spec, signal, kind, [0.5, 2.0])
        assert np.isfinite(curve.variance).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, grid", [("gf", [1e-3, 1e300]),
                                        ("ridge", [1e-300, 1.0])])
def test_a_variance_past_the_largest_double_is_refused(kind, grid):
    # (sigma^2/n) (1 - g)^2 / s overflows at s = 1e-300; it once came back inf
    signal = SignalModel.prior(r_sq=1.0, sigma_sq=1e100, n=1)
    with pytest.raises(ValueError,
                       match=f"^a {kind} variance passes the largest double$"):
        risk_curve(Spectrum(np.array([1e-300, 1.0])), signal,
                   FlowKind.parse(kind), grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [[0.0], [1e300]], ids=["factor-1", "factor-0"])
def test_a_weight_past_the_largest_double_is_refused(grid):
    # (1e200)^2 is inf: an inf bias where the factor is 1, NaN where it is 0
    signal = SignalModel.fixed(np.array([1e200, 1.0]), sigma_sq=1.0, n=1)
    with pytest.raises(ValueError,
                       match="^a gf squared bias passes the largest double$"):
        risk_curve(Spectrum(np.array([1.0, 2.0])), signal,
                   FlowKind.GRADIENT_FLOW, grid)
