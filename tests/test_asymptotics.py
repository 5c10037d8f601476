"""Saddle-point constants, Tracy-Widom F2, and the convergence experiment."""

import math

import mpmath
import numpy as np
import pytest
import scipy.optimize

from tschur import asymptotics, tracy_widom
from tschur.airy import airy_ai, airy_ai_prime
from tschur.asymptotics import (
    constants,
    convergence_experiment,
    saddle_point,
    saddle_root_function,
    scaled_cdf,
    sigma_prime,
    sigma_second,
)
from tschur.measure import MeasureParams
from tschur.tracy_widom import NonConvergedError, tw_f2, tw_f2_mean


def test_saddle_point_brackets_and_root():
    for (a, tau, t) in ((0.5, 1.0, 0.0), (0.4, 1.0, -1.0), (0.3, 2.0, -0.5)):
        z0 = saddle_point(a, tau, t)
        assert a < z0 < 1 / a
        assert abs(saddle_root_function(a, tau, t)(z0)) < 1e-8


def test_bisection_matches_scipy_bit_for_bit():
    # 200 (alpha, tau, t) triples, the bracket and tolerances of saddle_point
    for a in np.linspace(0.05, 0.95, 10):
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
            for t in (0.0, -0.5, -1.0, -3.0):
                f = saddle_root_function(a, tau, t)
                lo, hi = a, 1.0 / a
                eps = 1e-12 * (hi - lo)
                args = (f, lo + eps, hi - eps)
                kw = dict(xtol=1e-15, rtol=8.9e-16)
                ref = scipy.optimize.bisect(*args, **kw)
                assert asymptotics._bisect(*args, **kw) == ref
                assert saddle_point(a, tau, t) == ref
    with pytest.raises(ValueError):
        asymptotics._bisect(lambda x: x, 1.0, 2.0, 1e-15, 8.9e-16)
    with pytest.raises(RuntimeError):
        asymptotics._bisect(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0, 0.0, 0.0)
    assert asymptotics._bisect(lambda x: x, 0.0, 1.0, 1e-15, 8.9e-16) == 0.0


def test_sigma_derivatives_vanish_at_saddle():
    for (a, tau, t) in ((0.5, 1.0, 0.0), (0.4, 1.0, -1.0), (0.6, 0.5, -2.0)):
        data = constants(a, tau, t)
        assert abs(sigma_prime(data.z0, a, tau, t, data.c)) < 1e-9
        assert abs(sigma_second(data.z0, a, tau, t, data.c)) < 1e-8


def _sigma_derivative_residuals(alpha, tau, t, step=1e-5):
    """Residuals of the closed-form sigma derivatives against central finite
    differences of sigma(z) = tau log((z-a)/(z-ta)) - log(1-a z) - c log z.

    The differences are taken at 50-digit working precision so that the
    third-derivative stencil is not drowned by rounding (in doubles its
    floor sits near 1e-4).
    """
    data = constants(alpha, tau, t)
    z0, c = data.z0, data.c
    with mpmath.workdps(50):
        za, zt, zc = mpmath.mpf(alpha), mpmath.mpf(t), mpmath.mpf(c)

        def sigma(z):
            return (
                mpmath.mpf(tau) * mpmath.log((z - za) / (z - zt * za))
                - mpmath.log(1 - za * z)
                - zc * mpmath.log(z)
            )

        h = mpmath.mpf(step) * min(z0 - alpha, 1.0 / alpha - z0)
        z = mpmath.mpf(z0)
        fd1 = (sigma(z + h) - sigma(z - h)) / (2 * h)
        fd2 = (sigma(z + h) - 2 * sigma(z) + sigma(z - h)) / (h * h)
        fd3 = (
            sigma(z + 2 * h) - 2 * sigma(z + h) + 2 * sigma(z - h) - sigma(z - 2 * h)
        ) / (2 * h ** 3)
        return {
            "first": float(abs(fd1 - sigma_prime(z0, alpha, tau, t, c))),
            "second": float(abs(fd2 - sigma_second(z0, alpha, tau, t, c))),
            "third": float(abs(fd3 - data.sigma3)),
            "first_at_saddle": abs(sigma_prime(z0, alpha, tau, t, c)),
        }


def test_sigma_derivative_finite_differences():
    res = _sigma_derivative_residuals(0.4, 1.0, -1.0)
    assert res["first"] < 1e-8
    assert res["second"] < 1e-8
    assert res["third"] < 1e-8
    assert res["first_at_saddle"] < 1e-10


def test_special_point_c1():
    data = constants(0.5, 1.0, 0.0)
    assert abs(data.c1 - 2.0) < 1e-12
    assert data.sigma3 > 0 and data.g > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        constants(1.2, 1.0, 0.0)
    with pytest.raises(ValueError):
        constants(0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        constants(0.5, 1.0, 0.5)


def test_tw_f2_known_values():
    # values pinned by quadrature self-convergence (refinement-stable to 1e-8)
    assert abs(tw_f2(0.0) - 0.9693728) < 1e-6
    assert abs(tw_f2(-2.0) - 0.4132241) < 1e-6
    assert tw_f2(9.5) > 1 - 1e-10


def test_tw_f2_monotone_and_bounded():
    grid = np.linspace(-7, 5, 25)
    vals = [tw_f2(float(s)) for s in grid]
    assert all(0 <= v <= 1 for v in vals)
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_tw_f2_refinement_stability():
    for s in (-6.0, -3.0, 0.0, 2.0, 4.0):
        base = tw_f2(s)
        refined = tw_f2(s, check=True)
        assert abs(base - refined) < 1e-8


def test_tw_f2_range_check():
    with pytest.raises(ValueError):
        tw_f2(-11.0)


def test_tw_f2_raises_outside_unit_interval(monkeypatch):
    monkeypatch.setattr(tracy_widom, "_f2_once", lambda s, order: 1.0 + 1e-6)
    with pytest.raises(NonConvergedError):
        tw_f2(0.0)
    with pytest.raises(NonConvergedError):
        tw_f2(0.0, check=True)


def _nystrom_from_scratch(s, order):
    """A fresh Gauss-Legendre rule on every call, as before the rule was cached."""
    u, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    scale = tracy_widom.CUT / math.expm1(tracy_widom.KAPPA)
    xs = s + scale * np.expm1(tracy_widom.KAPPA * u)
    dx = scale * tracy_widom.KAPPA * np.exp(tracy_widom.KAPPA * u)
    ai, aip = airy_ai(xs), airy_ai_prime(xs)
    diff = xs[:, None] - xs[None, :]
    np.fill_diagonal(diff, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(K, aip ** 2 - xs * ai ** 2)
    sq = np.sqrt(w * dx)
    return float(np.linalg.det(np.eye(order) - sq[:, None] * K * sq[None, :]))


def test_tw_f2_equals_uncached_nystrom_bit_for_bit():
    for s in np.linspace(-10.0, 10.0, 41):
        s = float(s)
        assert tw_f2(s) == _nystrom_from_scratch(s, tracy_widom.ORDER)
        assert tw_f2(s, check=True) == _nystrom_from_scratch(s, 2 * tracy_widom.ORDER)


def test_cached_rule_is_read_only():
    offsets, sq = tracy_widom._rule(tracy_widom.ORDER)
    for arr in (offsets, sq):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert tracy_widom._rule(tracy_widom.ORDER)[0] is offsets


def test_tw_mean():
    assert abs(tw_f2_mean() - (-1.771087)) < 1e-3


def test_scaled_cdf_shift_conventions():
    params = MeasureParams(10, 10, 0.5, 0.0)
    data = constants(0.5, 1.0, 0.0)
    strict = scaled_cdf(params, data, 0.0, shift=-1)
    weak = scaled_cdf(params, data, 0.0, shift=0)
    assert 0 <= strict <= weak <= 1
    # a grid: points below the support read 0 without a CDF evaluation
    assert scaled_cdf(params, data, [-100.0, 0.0]) == [0.0, strict]


def test_convergence_experiment_small():
    rows, summary = convergence_experiment(
        0.5, 1.0, 0.0, [10, 30], [-2.0, 0.0, 2.0]
    )
    assert [s["n"] for s in summary] == [10, 30]
    assert all(np.isfinite(s["sup_distance"]) for s in summary)
    assert summary[1]["sup_distance"] < summary[0]["sup_distance"] + 0.05
    assert len(rows) == 6
    # one grid call per n gives exactly the per-s values
    data = constants(0.5, 1.0, 0.0)
    for n in (10, 30):
        params = MeasureParams(n, n, 0.5, 0.0)
        got = [r["empirical_cdf"] for r in rows if r["n"] == n]
        assert got == [scaled_cdf(params, data, s) for s in (-2.0, 0.0, 2.0)]


def test_convergence_experiment_rejects_fractional_m():
    with pytest.raises(ValueError):
        convergence_experiment(0.5, 0.33, 0.0, [10], [0.0])
