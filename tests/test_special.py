"""The numpy special functions of ``dcgof._special`` against mpmath at 50
digits, against scipy.special, and on their identities."""

import warnings

import numpy as np
import pytest
from scipy import special

from dcgof import _special

mp = pytest.importorskip("mpmath")

N = 5000  # points per sampling scheme; two schemes per function
TINY = np.finfo(float).tiny
MAX_ULPS = 4.0


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def uniform_and_log_spaced(lo, hi, seed, signed=False):
    """``N`` uniform points in [lo, hi] and ``N`` log-spaced ones in
    [1e-300, hi], the latter with alternating signs if ``signed``."""
    logs = np.geomspace(1e-300, hi, N)
    if signed:
        logs[::2] *= -1.0
    return np.concatenate([np.random.default_rng(seed).uniform(lo, hi, N), logs])


def unit_points(seed):
    """Points of [1e-300, 1 - 2^-53]: uniform, log-spaced towards 0, and
    log-spaced towards 1."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(0.0, 1.0, N), np.geomspace(1e-300, 0.5, N // 2),
        1.0 - np.geomspace(2.0**-53, 0.5, N // 2),
    ])


def ulps(got, refs):
    """Distance of each double of ``got`` from its mpmath value, in units of
    the last place of the value; 0 where the value is not a normal double."""
    hi = np.array([float(r) for r in refs])
    lo = np.array([float(r - mp.mpf(h)) for r, h in zip(refs, hi)])
    normal = np.abs(hi) >= TINY
    return np.where(normal, np.abs((got - hi) - lo) / np.spacing(np.abs(hi)), 0.0)


def test_normal_pair_against_mpmath():
    x = uniform_and_log_spaced(-38.5, 38.5, seed=1, signed=True)
    cdf, tail = _special.ndtr_pair(x)
    assert ulps(cdf, [mp.ncdf(v) for v in x]).max() <= MAX_ULPS
    assert ulps(tail, [mp.ncdf(-v) for v in x]).max() <= MAX_ULPS


def test_chi2_pair_against_mpmath():
    # P(1/2, v) = erf(sqrt v) and Q(1/2, v) = erfc(sqrt v), Q normal up to v ~ 705
    v = uniform_and_log_spaced(0.0, 740.0, seed=2)
    lower, upper = _special.gammainc_half_pair(v)
    roots = [mp.sqrt(mp.mpf(t)) for t in v]
    assert ulps(lower, [mp.erf(r) for r in roots]).max() <= MAX_ULPS
    assert ulps(upper, [mp.erfc(r) for r in roots]).max() <= MAX_ULPS


def test_logistic_pair_against_mpmath():
    x = uniform_and_log_spaced(-745.0, 745.0, seed=3, signed=True)
    cdf, tail = _special.expit_pair(x)
    assert ulps(cdf, [1 / (1 + mp.exp(-mp.mpf(v))) for v in x]).max() <= MAX_ULPS
    assert ulps(tail, [1 / (1 + mp.exp(mp.mpf(v))) for v in x]).max() <= MAX_ULPS


def test_logit_against_mpmath():
    u = unit_points(seed=4)
    assert ulps(_special.logit(u), [mp.log(t / (1 - mp.mpf(t))) for t in u]).max() <= MAX_ULPS


def test_ndtri_against_mpmath():
    u = unit_points(seed=5)
    x = _special.ndtri(u)
    # one Newton step at 50 digits from x gives the quantile of u to far
    # below an ulp; above 1/2 through the upper tail, as 1 - u is exact there
    refs = [
        t - (mp.ncdf(-t) - (1 - mp.mpf(w))) / -mp.npdf(t) if w > 0.5
        else t - (mp.ncdf(t) - mp.mpf(w)) / mp.npdf(t)
        for w, t in zip(u, map(mp.mpf, x))
    ]
    err = ulps(x, refs)
    # near u = 1/2 the quantile is near 0, and an absolute bound applies
    near_half = np.abs(u - 0.5) < 0.05
    absolute = np.abs(x - np.array([float(r) for r in refs]))
    assert np.all((err <= MAX_ULPS) | (near_half & (absolute <= 1e-16)))


def test_against_scipy_on_a_dense_grid():
    # relative where the values are normal doubles, absolute below
    x = np.linspace(-38.5, 38.5, 200_001)
    cdf, tail = _special.ndtr_pair(x)
    # scipy's ndtr forms exp(-x^2/2) unsplit: about 2000 ulp off at |x| = 38
    np.testing.assert_allclose(cdf, special.ndtr(x), rtol=1e-12, atol=TINY)
    np.testing.assert_allclose(tail, special.ndtr(-x), rtol=1e-12, atol=TINY)
    cdf, tail = _special.expit_pair(x * 20)
    np.testing.assert_allclose(cdf, special.expit(x * 20), rtol=1e-15, atol=TINY)
    np.testing.assert_allclose(tail, special.expit(-x * 20), rtol=1e-15, atol=TINY)
    v = np.linspace(0.0, 700.0, 200_001)
    lower, upper = _special.gammainc_half_pair(v)
    np.testing.assert_allclose(lower, special.gammainc(0.5, v), rtol=1e-14, atol=TINY)
    np.testing.assert_allclose(upper, special.gammaincc(0.5, v), rtol=1e-12, atol=TINY)
    u = np.linspace(0.0, 1.0, 200_001)[1:-1]
    np.testing.assert_allclose(_special.ndtri(u), special.ndtri(u), rtol=1e-14, atol=TINY)
    np.testing.assert_allclose(_special.logit(u), special.logit(u), rtol=1e-14, atol=TINY)


def test_identities_and_monotonicity():
    x = np.linspace(-40.0, 40.0, 400_001)
    for pair in (_special.ndtr_pair, _special.expit_pair):
        cdf, tail = pair(x)
        assert np.all(np.abs(cdf + tail - 1.0) <= 2.0**-52)
        np.testing.assert_array_equal(cdf, pair(-x)[1])
        assert np.all(np.diff(cdf) >= 0.0) and np.all(np.diff(tail) <= 0.0)
    v = np.linspace(0.0, 800.0, 400_001)
    lower, upper = _special.gammainc_half_pair(v)
    assert np.all(np.abs(lower + upper - 1.0) <= 2.0**-52)
    assert np.all(np.diff(lower) >= 0.0) and np.all(np.diff(upper) <= 0.0)
    u = np.concatenate([np.geomspace(1e-300, 0.25, 10_000), np.linspace(0.25, 0.75, 100_001),
                        1.0 - np.geomspace(0.25, 2.0**-53, 10_000)])
    assert np.all(np.diff(_special.ndtri(u)) >= 0.0)
    assert np.all(np.diff(_special.logit(u)) >= 0.0)


def test_ndtr_inverts_ndtri():
    u = unit_points(seed=6)
    x = _special.ndtri(u)
    lower, upper = _special.ndtr_pair(x)
    # a quantile off by 4 ulp moves the tail by about |x| 4 ulp(x) relative
    below = u <= 0.5
    np.testing.assert_allclose(lower[below], u[below], rtol=2e-12)
    np.testing.assert_allclose(upper[~below], 1.0 - u[~below], rtol=2e-12)


def test_limits_and_nan_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, tail = _special.ndtr_pair(np.array([-np.inf, np.inf, np.nan, 0.0, -0.0]))
        np.testing.assert_array_equal(cdf, [0.0, 1.0, np.nan, 0.5, 0.5])
        np.testing.assert_array_equal(tail, [1.0, 0.0, np.nan, 0.5, 0.5])
        cdf, tail = _special.expit_pair(np.array([-np.inf, np.inf, np.nan, 0.0, -800.0]))
        np.testing.assert_array_equal(cdf, [0.0, 1.0, np.nan, 0.5, np.exp(-800.0)])
        np.testing.assert_array_equal(tail, [1.0, 0.0, np.nan, 0.5, 1.0])
        lower, upper = _special.gammainc_half_pair(np.array([0.0, np.inf, np.nan, 1e-320]))
        np.testing.assert_array_equal(lower[:3], [0.0, 1.0, np.nan])
        np.testing.assert_array_equal(upper, [1.0, 0.0, np.nan, 1.0])
        assert 0.0 < lower[3] < 1e-159
        u = np.array([0.0, 1.0, np.nan, -0.5, 1.5, 0.5])
        np.testing.assert_array_equal(_special.ndtri(u), [-np.inf, np.inf, np.nan, np.nan, np.nan, 0.0])
        np.testing.assert_array_equal(_special.logit(u), [-np.inf, np.inf, np.nan, np.nan, np.nan, 0.0])
        # a scalar gives a 0-d result of the same value as in an array
        assert _special.ndtr_pair(-7.0)[0].shape == ()
        assert _special.ndtri(0.3) == _special.ndtri(np.array([0.3]))[0]
