"""Finite input gives finite output or a named refusal: a seeded sweep.

Every public entry point below is fed draws log-uniform over [1e-300, 1e308]
(eigenvalues, times, penalties, noise levels, design and response entries,
kappa, x and z), about a tenth of them exactly 0, with warnings raised as
errors.  Each call must return finite output or raise ValueError.
coupling_gap's gap and ridge norm may be inf where they pass the largest
double (its docstring); its ratio must be finite.  Whether the ratio also
stays under its certified bound is not asserted here: at tiny t the flow
rows lose that bound to cancellation in 1 - G (ROADMAP item 13).
"""

import contextlib
import io

import numpy as np
import pytest

from flowrisk import cli
from flowrisk.bounds import h_kappa, tilde_h, tilde_h_maximizer
from flowrisk.estimators import coupling_gap, estimate
from flowrisk.linalg import Spectrum, attach_response, design_decompose
from flowrisk.risk import SignalModel, risk_curve
from flowrisk.shrinkage import FlowKind, factor_block

pytestmark = pytest.mark.filterwarnings("error")

KINDS = tuple(FlowKind)
COUPLED = (FlowKind.ACCELERATED_FLOW, FlowKind.HEAVY_BALL_FLOW)
DRAWS = 400


def _draw(rng, size=None, signed=False):
    """Log-uniform over [1e-300, 1e308], about a tenth exactly 0."""
    v = 10.0 ** rng.uniform(-300.0, 308.0, size)
    v = np.where(rng.random(size) < 0.1, 0.0, v)
    if signed:
        v = v * rng.choice([-1.0, 1.0], size)
    return v


def _refused_or(fn, *args):
    """fn(*args), or None when it raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return None


def _assert_finite(out, where):
    for v in out if isinstance(out, tuple) else (out,):
        assert np.isfinite(v).all(), where


def _spectrum(rng, p):
    return np.sort(_draw(rng, p))


def _design(rng):
    n, p = rng.integers(1, 6, size=2)
    x = _draw(rng, (n, p), signed=True)
    y = _draw(rng, n, signed=True)
    design = _refused_or(design_decompose, x)
    if design is None:
        return None
    _assert_finite((design.spectrum.eigenvalues, design.v_basis), x)
    design = _refused_or(attach_response, design, x, y)
    if design is not None:
        _assert_finite(design.rotated_channel, (x, y))
    return design


def test_factor_block():
    rng = np.random.default_rng(20)
    for _ in range(DRAWS):
        s = _spectrum(rng, rng.integers(1, 5))
        params = _draw(rng, rng.integers(1, 4))
        mu = s[0] if rng.random() < 0.7 else _draw(rng)
        for kind in KINDS:
            out = _refused_or(factor_block, kind, s, params, mu)
            if out is not None:
                _assert_finite(out, (kind, s, params, mu))


@pytest.mark.parametrize("bayes", (False, True))
def test_risk_curve(bayes):
    rng = np.random.default_rng(21 + bayes)
    for _ in range(DRAWS):
        p = rng.integers(1, 5)
        s = _spectrum(rng, p)
        spectrum = _refused_or(Spectrum, s)
        if spectrum is None:
            continue
        sigma_sq, n = _draw(rng), int(rng.integers(1, 1000))
        if bayes:
            signal = _refused_or(SignalModel.prior, _draw(rng), sigma_sq, n)
        else:
            signal = _refused_or(SignalModel.fixed,
                                 _draw(rng, p, signed=True), sigma_sq, n)
        grid = np.sort(_draw(rng, rng.integers(1, 4)))
        for kind in KINDS if signal is not None else ():
            curve = _refused_or(risk_curve, spectrum, signal, kind, grid)
            if curve is not None:
                _assert_finite((curve.bias_sq, curve.variance, curve.risk),
                               (kind, s, signal, grid))


def test_design_estimate_and_coupling_gap():
    rng = np.random.default_rng(23)
    for _ in range(DRAWS):
        design = _design(rng)
        if design is None or not design.has_response:
            continue
        params = _draw(rng, rng.integers(1, 4))
        for kind in KINDS:
            out = _refused_or(estimate, design, kind, params)
            if out is not None:
                _assert_finite(out, (kind, params))
        for kind in COUPLED:
            for t in (params, float(params[0])):
                out = _refused_or(coupling_gap, design, kind, t)
                if out is None:
                    continue
                gap, norm_sq, ratio = map(np.asarray, out)
                assert (gap >= 0).all() and (norm_sq >= 0).all(), (kind, t)
                _assert_finite(ratio, (kind, t))


def test_h_kappa_tilde_h_and_its_maximizer():
    rng = np.random.default_rng(24)
    for _ in range(DRAWS):
        kappa, x, z = _draw(rng, 3)
        for out in (_refused_or(h_kappa, kappa),
                    _refused_or(tilde_h, x, z),
                    _refused_or(tilde_h, np.array([x, 0.0]), z),
                    _refused_or(tilde_h_maximizer, z),
                    _refused_or(tilde_h_maximizer, np.array([z, 2.0]))):
            if out is not None:
                _assert_finite(out, (kappa, x, z))


def _cli(argv):
    """(exit code, stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 0 or (code == 2 and err.getvalue().startswith("error: ")), \
        (argv, code, err.getvalue())
    return code, out.getvalue()


def test_cli_shrink_and_special_eval():
    rng = np.random.default_rng(25)
    for _ in range(DRAWS):
        s, t, mu = (repr(float(v)) for v in _draw(rng, 3))
        for kind in ("gf", "nest", "hb", "ridge"):
            code, text = _cli(["shrink", "--kind", kind, f"--s={s}",
                               f"--t={t}", f"--mu={mu}"])
            if code == 0:
                assert np.isfinite(float(text)), (kind, s, t, mu)
        x = repr(float(_draw(rng, signed=True)))
        for fn in ("j1", "j1-ratio"):
            code, text = _cli(["special-eval", "--fn", fn, f"--x={x}"])
            if code == 0:
                assert np.isfinite(float(text)), (fn, x)
