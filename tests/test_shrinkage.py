import ast
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from flowrisk import shrinkage
from flowrisk.estimators import coupling_gap
from flowrisk.linalg import Spectrum, attach_response, design_decompose
from flowrisk.risk import SignalModel, risk_curve
from flowrisk.shrinkage import (
    FlowKind,
    _sinc,
    factor_block,
    hb_kernel,
    hb_kernel_complement,
)

from oracles import (
    j1_series,
    masked_hb_kernel,
    masked_hb_kernel_complement,
    masked_sinc,
)

mpmath.mp.dps = 40

GF, NEST, HB, RIDGE = (FlowKind.GRADIENT_FLOW, FlowKind.ACCELERATED_FLOW,
                       FlowKind.HEAVY_BALL_FLOW, FlowKind.RIDGE)


def g(kind, s, param, mu=None):
    """The single factor of a one-by-one factor_block."""
    return float(factor_block(kind, s, param, mu)[0, 0])


class TestGfShrink:
    def test_time_zero(self):
        assert g(GF, 1.0, 0.0) == 1.0

    def test_unit_point(self):
        assert g(GF, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_null_direction(self):
        assert g(GF, 0.0, 5.0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g(GF, -1.0, 1.0)
        with pytest.raises(ValueError):
            g(GF, 1.0, -1.0)

    def test_monotone_in_time(self):
        t = np.linspace(0, 20, 200)
        vals = factor_block(GF, 0.7, t)[:, 0]
        assert (np.diff(vals) <= 0).all()


class TestNestShrink:
    def test_time_zero_any_eigenvalue(self):
        for s in (0.0, 0.3, 5.0):
            assert g(NEST, s, 0.0) == 1.0

    def test_null_direction_any_time(self):
        for t in (0.0, 1.0, 100.0):
            assert g(NEST, 0.0, t) == 1.0

    def test_unit_eigenvalue_t_two(self):
        assert g(NEST, 1.0, 2.0) == pytest.approx(j1_series(2.0), abs=1e-9)

    def test_small_time_taylor(self):
        # |g - (1 - t^2 s / 8)| <= 1e-6 * t^2 s when t sqrt(s) <= 1e-2
        for s, t in [(1e-4, 1.0), (1.0, 1e-2), (1e-2, 0.05)]:
            u2 = t * t * s
            assert u2 <= 1e-4 + 1e-12
            assert abs(g(NEST, s, t) - (1.0 - u2 / 8.0)) <= 1e-6 * u2

    def test_dominated_by_gf_in_ill_conditioned_tail(self):
        # for s <= 1e-3, t >= 100 with t sqrt(s) >= 20 the Bessel kernel is
        # far below the exponential one
        for s in (1e-3, 5e-4):
            for t in (650.0, 900.0, 1500.0):
                if t * math.sqrt(s) < 20 or t < 100:
                    continue
                assert abs(g(NEST, s, t)) < g(GF, s, t)

    def test_decay_envelope(self):
        u = np.linspace(10.0, 2000.0, 4000)
        vals = np.abs(factor_block(NEST, 1.0, u)[:, 0])  # t sqrt(s) = u
        assert (vals <= 2.0 * u ** -1.5).all()


class TestHbShrink:
    def test_degenerate_eigenvalue_limit(self):
        assert g(HB, 1.0, 1.0, 1.0) == pytest.approx(2.0 / math.e, abs=1e-10)

    def test_time_zero(self):
        for s, mu in [(1.0, 1.0), (2.0, 0.5), (10.0, 1e-3)]:
            assert g(HB, s, 0.0, mu) == 1.0

    def test_direct_value(self):
        expected = math.exp(-1.0) * (math.cos(1.0) + math.sin(1.0))
        assert g(HB, 2.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.508326, abs=1e-5)

    def test_continuity_at_degenerate_eigenvalue(self):
        base = g(HB, 1.0, 3.0, 1.0)
        gaps = [abs(g(HB, 1.0 + d, 3.0, 1.0) - base)
                for d in (1e-4, 1e-6, 1e-8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="mu > 0"):
            g(HB, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="s >= mu"):
            g(HB, 0.5, 1.0, 1.0)


class TestRidgeShrink:
    def test_examples(self):
        assert g(RIDGE, 1.0, 1.0) == 0.5
        assert g(RIDGE, 1.0, 0.0) == 0.0
        assert g(RIDGE, 0.0, 3.0) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_double_zero_takes_the_limit(self):
        assert g(RIDGE, 0.0, 0.0) == 1.0

    def test_monotone_in_lambda(self):
        lam = np.linspace(0.0, 50.0, 300)
        vals = factor_block(RIDGE, 1.3, lam)[:, 0]
        assert (np.diff(vals) >= 0).all()


class TestHbKernelComplement:
    def test_matches_subtraction_at_moderate_arguments(self):
        a = np.linspace(0.2, 4.0, 40)
        b = np.linspace(0.0, 6.0, 40)
        aa, bb = np.meshgrid(a, b)
        direct = 1.0 - hb_kernel(aa, bb)
        assert np.abs(hb_kernel_complement(aa, bb) - direct).max() <= 1e-14

    def test_high_precision_at_tiny_arguments(self):
        # achievable absolute accuracy is O(eps * max(a, b^2)): the expm1
        # and a*sinc pieces each carry ~eps*a and cancel to order x^2
        for a, b in [(1e-6, 2e-6), (1e-4, 0.0), (0.0, 1e-5), (1e-7, 1e-7)]:
            ref = float(1 - mpmath.e ** (-mpmath.mpf(a))
                        * (mpmath.cos(mpmath.mpf(b))
                           + (mpmath.mpf(a) * mpmath.sinc(mpmath.mpf(b)))))
            got = hb_kernel_complement(a, b)
            assert abs(got - ref) <= 1e-15 * (a + b * b) + 1e-300


class TestInPlaceKernels:
    """The in-place kernels against the masked formulas they replaced."""

    @staticmethod
    def _args():
        near = [0.0, 5e-324]
        for c in (1e-6, 1e-4, 1e-2):
            near += [np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)]
        return np.concatenate([near, np.linspace(0.0, 40.0, 801)])

    @pytest.mark.filterwarnings("error")
    def test_sinc_bit_for_bit(self):
        u = self._args()
        for arg in (u, -u, u.reshape(-1, 4)):
            assert np.array_equal(_sinc(arg), masked_sinc(arg))
        for x in u[:11]:
            got = _sinc(x)
            assert got.shape == () and got == masked_sinc(x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn, ref", [
        (hb_kernel, masked_hb_kernel),
        (hb_kernel_complement, masked_hb_kernel_complement)])
    def test_hb_kernels_bit_for_bit(self, fn, ref):
        v = self._args()
        grids = [(v[:, None], v[None, ::7]), (v[None, ::7], v[:, None])]
        for scalar in (0.0, 1e-6, 0.3, 7.0):
            grids += [(scalar, v), (v, scalar), (np.array(scalar), v),
                      (v, np.array(scalar))]
        for a, b in grids:
            got = fn(a, b)
            assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
            assert np.array_equal(got, ref(a, b))
        for a, b in [(0.0, 0.0), (1e-6, 1e-6), (0.3, 2.0)]:
            for args in ((a, b), (np.array(a), np.array(b))):
                got = fn(*args)
                assert isinstance(got, float) and got == ref(*args)


class TestProfile:
    """factor_block over a whole spectrum: one row per parameter."""

    def test_all_ones_at_zero(self, simple_spectrum):
        for kind in FlowKind:
            if kind is FlowKind.RIDGE:
                continue  # lambda = 0 is the unregularized limit, not a start
            factors = factor_block(kind, simple_spectrum.eigenvalues, 0.0,
                                   simple_spectrum.mu)
            assert np.array_equal(factors, np.ones((1, 4)))

    def test_componentwise_gf(self):
        factors = factor_block(GF, [0.0, 1.0], 1.0)[0]
        assert factors[0] == 1.0
        assert factors[1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_componentwise_nest_series_oracle(self):
        factors = factor_block(NEST, [1.0, 4.0], 2.0)[0]
        assert factors[0] == pytest.approx(j1_series(2.0), abs=1e-9)
        assert factors[1] == pytest.approx(2 * j1_series(4.0) / 4.0, abs=1e-9)

    def test_unit_factor_exactly_at_null_directions(self):
        s = [0.0, 0.5]
        for kind in (GF, NEST):
            assert factor_block(kind, s, 7.5)[0, 0] == 1.0
        assert factor_block(RIDGE, s, 2.0)[0, 0] == 1.0

    def test_bounded_factors(self, simple_spectrum):
        for kind in (GF, NEST, RIDGE):
            factors = factor_block(kind, simple_spectrum.eigenvalues,
                                   [0.1, 1.0, 10.0, 500.0])
            assert factors.shape == (4, 4)
            assert (np.abs(factors) <= 1.0 + 1e-12).all()

    @pytest.mark.filterwarnings("error")
    def test_ridge_at_lambda_zero_keeps_null_directions(self):
        # 1 on the null direction, lambda / s = 0 on the others; rows with
        # lambda > 0 keep the formula's bits
        block = factor_block(RIDGE, [0.0, 1.0, 4.0], [0.0, 1.0])
        assert np.array_equal(block, [[1.0, 0.0, 0.0], [1.0, 0.5, 0.2]])
        assert not np.signbit(block).any()

    def test_heavy_ball_requires_positive_mu(self):
        with pytest.raises(ValueError, match="mu > 0"):
            factor_block(HB, [0.0, 1.0], 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, s, params, mu, message", [
        # one refusal each
        (GF, [1.0, np.nan], 1.0, None, "eigenvalues must be finite and >= 0"),
        (GF, [np.inf], 1.0, None, "eigenvalues must be finite and >= 0"),
        (NEST, [-1.0, 2.0], 1.0, None, "eigenvalues must be finite and >= 0"),
        (GF, [[1.0]], 1.0, None, "eigenvalues must be 1-D"),
        (GF, 1.0, [0.5, np.nan], None, "path parameter must be finite and >= 0"),
        (NEST, 1.0, np.inf, None, "path parameter must be finite and >= 0"),
        (RIDGE, 1.0, -1.0, None, "path parameter must be finite and >= 0"),
        (GF, 1.0, [[1.0]], None, "path parameters must be 1-D"),
        (HB, [1.0, 2.0], 1.0, None, "heavy-ball flow requires a finite mu > 0"),
        (HB, [1.0, 2.0], 1.0, np.nan, "heavy-ball flow requires a finite mu > 0"),
        (HB, [1.0, 2.0], 1.0, np.inf, "heavy-ball flow requires a finite mu > 0"),
        (HB, [0.5, 2.0], 1.0, 1.0, "heavy-ball flow requires s >= mu"),
        (RIDGE, [1.0, 0.0], [0.0, -1.0], None,
         "path parameter must be finite and >= 0"),
        # precedence: params, then the shape and values of s, then mu
        (GF, [[np.nan]], [[1.0]], None, "path parameters must be 1-D"),
        (GF, [-1.0], np.nan, None, "path parameter must be finite and >= 0"),
        (HB, [[1.0]], 1.0, 0.0, "eigenvalues must be 1-D"),
        (HB, [np.nan, 1.0], 1.0, 0.0, "eigenvalues must be finite and >= 0"),
        (HB, [-1.0, np.inf], 1.0, None, "eigenvalues must be finite and >= 0"),
        (HB, [0.5, 2.0], 1.0, 0.0, "heavy-ball flow requires a finite mu > 0"),
        # b = t sqrt(s - mu) overflows where exp(-t sqrt(mu)) > 0
        (HB, 1e308, 1e155, 5e-324, "heavy-ball argument t sqrt(s - mu) overflows"),
    ])
    def test_refusals_and_their_precedence(self, kind, s, params, mu, message):
        with pytest.raises(ValueError) as info:
            factor_block(kind, s, params, mu)
        assert str(info.value).startswith(message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [GF, NEST, HB])
    @pytest.mark.parametrize("s, t", [(1e300, 1e300), (9.0, 1e308)])
    def test_an_overflowing_argument_takes_its_limit(self, kind, s, t):
        # heavy ball at mu = 4: b overflows at (1e300, 1e300), and a as well
        # at t = 1e308
        eigenvalues = [4.0, s]
        block = factor_block(kind, eigenvalues, [0.5, t], 4.0)
        assert block[1, 1] == 0.0 and not np.signbit(block[1, 1])
        assert np.isfinite(block).all()
        # entries whose arguments stay finite keep their values
        assert np.array_equal(block[0], factor_block(kind, eigenvalues, 0.5, 4.0)[0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [GF, NEST, RIDGE])
    @pytest.mark.parametrize("param", [0.0, 5e-324, 1e-300, 1.0, 1e300,
                                       1.7976931348623157e308])
    def test_a_null_direction_keeps_factor_one(self, kind, param):
        # g = 1 at s = 0 for every family, ridge at lambda = 0 included
        block = factor_block(kind, [0.0, 0.0, 2.0], [param, 0.0])
        assert block[0, 0] == block[0, 1] == block[1, 0] == 1.0

    @pytest.mark.filterwarnings("error")
    def test_ridge_halves_where_s_plus_lambda_overflows(self):
        s = np.array([0.0, 1.0, 1e200, 1e308, 1.7976931348623157e308])
        lam = np.array([1e-300, 1.0, 1e200, 1e292, 1e308, 1.7e308])
        block = factor_block(RIDGE, s, lam)
        exact = [[float(Fraction(l) / (Fraction(si) + Fraction(l))) for si in s]
                 for l in lam]
        assert block == pytest.approx(np.array(exact), rel=3e-16, abs=0.0)
        # where the sum is finite, every factor is the formula's, bit for bit
        with np.errstate(over="ignore"):
            total = s[None, :] + lam[:, None]
        finite = np.isfinite(total)
        assert (~finite).sum() == 5
        assert np.array_equal(block[finite], (lam[:, None] / total)[finite])

    def test_empty_input_gives_an_empty_block(self):
        assert factor_block(GF, [], [1.0, 2.0]).shape == (2, 0)
        assert factor_block(HB, [1.0, 2.0], [], 1.0).shape == (0, 2)

    def test_kind_parse_tokens(self):
        assert FlowKind.parse("gf") is FlowKind.GRADIENT_FLOW
        assert FlowKind.parse("AcceleratedFlow") is FlowKind.ACCELERATED_FLOW
        assert FlowKind.parse("heavy_ball_flow") is FlowKind.HEAVY_BALL_FLOW
        with pytest.raises(ValueError):
            FlowKind.parse("sgd")
        # the whole accepted set: each token and each member name, in any
        # case and with - and _ ignored
        for token, kind in (("gf", GF), ("gradientflow", GF), ("nest", NEST),
                            ("acceleratedflow", NEST), ("hb", HB),
                            ("heavyballflow", HB), ("ridge", RIDGE)):
            for spelling in (token, token.upper(), f" {token} ", kind.name,
                             kind.name.lower().replace("_", "-")):
                assert FlowKind.parse(spelling) is kind
        for token in ("", "g", "gfx", "nesterov", "heavyball", "ridgeflow",
                      "RIDGE_FLOW", "gf nest", "hb.", "GRADIENT FLOW"):
            with pytest.raises(ValueError, match="^unknown flow kind"):
                FlowKind.parse(token)


class TestTracedKernels:
    """The formula table calls the public J1 and heavy-ball kernels through
    the shrinkage module's globals, so a tracer that swaps those globals
    sees every evaluation of factor_block, coupling_gap and risk_curve."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"j1_ratio": 0, "hb_kernel": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(shrinkage, name,
                                counting(name, getattr(shrinkage, name)))
        return calls

    # t = 1e300 makes t sqrt(s) overflow, which takes the limit formulas
    @pytest.mark.parametrize("t", [2.0, 1e300])
    def test_factor_block(self, monkeypatch, t):
        calls = self._count(monkeypatch)
        factor_block(NEST, [0.5, 1e10], t)
        factor_block(HB, [0.5, 1.0], 2.0, mu=0.5)
        assert calls == {"j1_ratio": 1, "hb_kernel": 1}

    def test_coupling_gap(self, monkeypatch):
        x = np.random.default_rng(3).standard_normal((8, 3))
        design = attach_response(design_decompose(x), x, np.ones(8))
        calls = self._count(monkeypatch)
        coupling_gap(design, NEST, 1.5)
        coupling_gap(design, HB, [0.5, 1.5])
        assert calls == {"j1_ratio": 1, "hb_kernel": 1}

    def test_risk_curve(self, monkeypatch):
        spectrum = Spectrum([0.5, 1.0, 2.0])
        signal = SignalModel.prior(r_sq=1.0, sigma_sq=1.0, n=10)
        calls = self._count(monkeypatch)
        risk_curve(spectrum, signal, NEST, [0.5, 1.0])
        risk_curve(spectrum, signal, HB, [0.5, 1.0])
        assert calls == {"j1_ratio": 1, "hb_kernel": 1}


def test_only_cli_calls_factor_block_in_the_package():
    # factor_block validates raw arrays for the shrink command; callers that
    # hold a Spectrum, whose eigenvalues need no second check, call the
    # table behind it, _factor_rows
    callers = {}
    for path in Path(shrinkage.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                callers.setdefault(name, set()).add(path.stem)
    assert callers["factor_block"] == {"cli"}
    assert {"risk", "estimators"} <= callers["_factor_rows"]
