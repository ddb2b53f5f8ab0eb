import mpmath
import numpy as np
import pytest

from flowrisk.special import bessel_j1, j1_ratio, j1_ratio_complement

from oracles import (
    J1_ROOTS_BELOW_8,
    bisect_root,
    j1_series,
    masked_j1_ratio,
    masked_j1_ratio_complement,
)

mpmath.mp.dps = 40


def test_j1_zero_is_exact():
    assert bessel_j1(0.0) == 0.0


def test_j1_matches_series_at_one():
    expected = j1_series(1.0)
    assert expected == pytest.approx(0.4400505857449335, abs=1e-15)
    assert bessel_j1(1.0) == pytest.approx(expected, rel=1e-12, abs=0)


def test_j1_first_root_by_bisection():
    root = bisect_root(bessel_j1, 3.0, 4.0)
    assert abs(bessel_j1(root)) <= 1e-10
    assert root == pytest.approx(3.8317059702075123, abs=1e-10)


def test_j1_odd_extension():
    xs = np.array([0.3, 1.7, 5.0, 42.0])
    assert np.array_equal(bessel_j1(-xs), -bessel_j1(xs))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_j1_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        bessel_j1(bad)


def test_j1_series_agreement_below_eight():
    # relative agreement away from the J1 zeros; absolute agreement near
    # them, where relative error against an oscillatory zero is undefined
    grid = np.unique(np.concatenate([
        np.logspace(-6, np.log10(8.0), 3000),
        np.linspace(1e-3, 8.0, 4001),
    ]))
    near_root = np.zeros(grid.size, dtype=bool)
    for r in J1_ROOTS_BELOW_8:
        near_root |= np.abs(grid - r) <= 0.1
    impl = bessel_j1(grid)
    series = np.array([j1_series(float(v)) for v in grid])
    away = ~near_root
    rel = np.abs(impl[away] - series[away]) / np.abs(series[away])
    assert rel.max() <= 1e-12
    assert np.abs(impl[near_root] - series[near_root]).max() <= 5e-14


def test_j1_against_high_precision_to_1e4():
    # error is a few ulps of the oscillation envelope sqrt(2/(pi x)); the
    # pointwise relative check is restricted to the well-conditioned half
    # of the oscillation (relative error at the zeros is meaningless)
    grid = np.unique(np.concatenate([
        np.logspace(-6, 4, 500), np.linspace(0.5, 60.0, 301)]))
    ref = np.array([float(mpmath.besselj(1, mpmath.mpf(float(v)))) for v in grid])
    impl = bessel_j1(grid)
    envelope = np.sqrt(2.0 / (np.pi * grid))
    assert (np.abs(impl - ref) <= 1e-12 * envelope).all()
    conditioned = np.abs(ref) >= 0.5 * envelope
    rel = np.abs(impl[conditioned] - ref[conditioned]) / np.abs(ref[conditioned])
    assert rel.max() <= 1e-12


def test_j1_ode_residual_small():
    # x^2 J'' + x J' + (x^2 - 1) J = 0, derivatives by central differences;
    # the step balances truncation (h^2/12) against roundoff (4 eps / h^2)
    xs = np.linspace(0.1, 50.0, 2000)
    h = 3e-4
    j = bessel_j1(xs)
    jp = (bessel_j1(xs + h) - bessel_j1(xs - h)) / (2 * h)
    jpp = (bessel_j1(xs + h) - 2 * j + bessel_j1(xs - h)) / (h * h)
    residual = xs ** 2 * jpp + xs * jp + (xs ** 2 - 1.0) * j
    assert (np.abs(residual) <= 1e-8 * (1.0 + xs ** 2)).all()


def test_ratio_at_zero_is_one():
    assert j1_ratio(0.0) == 1.0


def test_ratio_at_two_equals_j1_of_two():
    assert j1_ratio(2.0) == pytest.approx(j1_series(2.0), abs=1e-9)
    assert j1_ratio(2.0) == pytest.approx(0.5767248078, abs=1e-9)


def test_ratio_near_zero_taylor():
    assert j1_ratio(1e-8) == pytest.approx(1.0, abs=1e-15)


def test_ratio_rejects_negative():
    with pytest.raises(ValueError):
        j1_ratio(-0.5)
    with pytest.raises(ValueError):
        j1_ratio(np.array([0.5, -1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, name, nonnegative", [
    (bessel_j1, "bessel_j1", False),
    (j1_ratio, "j1_ratio", True),
    (j1_ratio_complement, "j1_ratio_complement", True)])
def test_refusals_and_their_precedence(fn, name, nonnegative):
    for x in (np.nan, np.inf, -np.inf, [1.0, np.nan], [-1.0, np.inf],
              [np.nan, -1.0]):
        with pytest.raises(ValueError, match=f"^{name} requires finite input$"):
            fn(x)
    if nonnegative:
        for x in (-0.5, [2.0, -1e-300]):
            with pytest.raises(ValueError, match=f"^{name} is defined for x >= 0$"):
                fn(x)
    assert fn(np.empty(0)).shape == (0,)


def test_ratio_bounded_by_one_dense_grid():
    xs = np.linspace(0.0, 1e4, 100001)
    vals = j1_ratio(xs)
    assert vals[0] == 1.0
    assert (vals <= 1.0).all()
    assert (np.abs(vals) <= 1.0).all()
    assert vals[1:].max() < 1.0  # equality only at zero


def test_ratio_branches_join_smoothly():
    xs = np.array([9.9e-5, 1e-4, 1.0000001e-4, 1.1e-4])
    vals = j1_ratio(xs)
    assert np.all(np.diff(vals) < 0)
    assert abs(vals[1] - vals[2]) < 1e-12


def test_complement_matches_subtraction_above_cutoff():
    xs = np.linspace(0.05, 20.0, 500)
    direct = 1.0 - j1_ratio(xs)
    assert np.abs(j1_ratio_complement(xs) - direct).max() <= 1e-15


def test_complement_accurate_for_tiny_arguments():
    for x in (1e-8, 1e-5, 1e-3):
        ref = float(1 - 2 * mpmath.besselj(1, mpmath.mpf(x)) / mpmath.mpf(x))
        assert j1_ratio_complement(x) == pytest.approx(ref, rel=1e-12, abs=0)


def test_scalar_and_array_shapes():
    assert isinstance(bessel_j1(1.0), float)
    assert bessel_j1(np.ones(3)).shape == (3,)
    assert isinstance(j1_ratio(1.0), float)
    assert j1_ratio(np.ones((2, 2))).shape == (2, 2)


def _around(*cutoffs):
    """0, each cutoff and its neighbours one ulp away, and a spread grid."""
    near = [0.0, 5e-324]
    for c in cutoffs:
        near += [np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)]
    return np.concatenate([near, np.logspace(-9, 4, 2001)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, ref", [(j1_ratio, masked_j1_ratio),
                                     (j1_ratio_complement,
                                      masked_j1_ratio_complement)])
def test_ratios_equal_the_masked_formulas_bit_for_bit(fn, ref):
    # the whole-array formula, with the series written over the entries
    # below the cutoff, is the two masked branches exactly
    xs = _around(1e-4, 1e-2)
    assert np.array_equal(fn(xs), ref(xs))
    assert np.array_equal(fn(xs.reshape(-1, 1)), ref(xs.reshape(-1, 1)))
    for x in xs[:8]:
        for arg in (float(x), np.array(x)):
            got = fn(arg)
            assert isinstance(got, float) and got == ref(arg)


_CUT = 1e-2
_BELOW, _ABOVE = np.nextafter(_CUT, 0.0), np.nextafter(_CUT, np.inf)


def _hex(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs", [
    np.linspace(1e-9, _BELOW, 513),            # wholly below: the series alone
    np.linspace(6e-3, _BELOW, 257),            # below, close under the cutoff
    np.linspace(_CUT, 30.0, 513),              # wholly at or above: 1 - 2J1/x
    np.linspace(_ABOVE, 2e-2, 257),            # above, close over the cutoff
    np.logspace(-9, 4, 1001),                  # straddling, ascending
    np.logspace(4, -9, 1001),                  # straddling, descending
    np.array([0.0, _CUT, 5e-3, _ABOVE, 0.0, _BELOW]),
    np.empty(0),
], ids=["below", "just-below", "at-or-above", "just-above", "straddle",
        "straddle-descending", "straddle-mixed", "empty"])
def test_complement_blocks_equal_the_two_mask_form(xs):
    # each branch of j1_ratio_complement gives the two-mask reference's bits
    for arg in (xs, xs.reshape(-1, 1)):
        got = j1_ratio_complement(arg)
        assert got.shape == arg.shape
        assert _hex(got) == _hex(masked_j1_ratio_complement(arg))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [_BELOW, _CUT, _ABOVE, 0.0])
def test_complement_at_the_cutoff_and_zero_equals_the_two_mask_form(x):
    ref = masked_j1_ratio_complement(x)
    for arg in (float(x), np.array(x)):         # a Python float, a 0-d array
        got = j1_ratio_complement(arg)
        assert isinstance(got, float) and got.hex() == ref.hex()
    got = j1_ratio_complement(np.array([x]))
    assert got.shape == (1,) and _hex(got) == [ref.hex()]
