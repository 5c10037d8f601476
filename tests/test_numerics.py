"""Symbol coefficients, Toeplitz determinants, the Gessel identity, and the
Hankel-product (Borodin-Okounkov) route."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.measure import MeasureParams, lambda1_cdf_exact, z_norm
from tschur import numerics
from tschur.series import TruncatedSeries, det_gauss

F = Fraction


def params(m=2, n=2, a=F(1, 2), t=F(-1)):
    return MeasureParams(m, n, a, t)


def test_symbol_window_validation():
    with pytest.raises(ValueError):
        numerics.symbol_phi(params(), 1, 3)
    with pytest.raises(ValueError):
        numerics.symbol_phi(params(), -3, -1)
    sym = numerics.symbol_phi(params(), -2, 2)
    with pytest.raises(IndexError):
        sym.coeff(3)


def test_symbol_exact_vs_float():
    p = params(3, 3, F(2, 5), F(-1, 2))
    ex = numerics.symbol_phi(p, -4, 4, exact=True)
    fl = numerics.symbol_phi(p, -4, 4, exact=False)
    for k in range(-4, 5):
        assert math.isclose(float(ex.coeff(k)), fl.coeff(k), rel_tol=1e-13, abs_tol=1e-15)


def test_symbol_constant_term_t0_single():
    # m=n=1, t=0: phi = (1 + a/z)(1 + a z); phi_0 = 1 + a^2, phi_{+-1} = a
    p = MeasureParams(1, 1, F(1, 2), F(0))
    sym = numerics.symbol_phi(p, -1, 1, exact=True)
    assert sym.coeff(0) == 1 + F(1, 4)
    assert sym.coeff(1) == F(1, 2) and sym.coeff(-1) == F(1, 2)


def test_toeplitz_det_cdf_normalizes():
    for p, h, tail in (
        (params(2, 2, F(1, 2), F(-1)), 25, 1e-9),  # h -> large: det T_h / Z -> 1
        (params(10, 10, F(4, 5), F(-1)), 20, 1),
        (params(25, 25, F(1, 2), F(-1, 2)), 20, 1),
    ):
        sym = numerics.symbol_phi(p, -(h - 1), h - 1, exact=True)
        det = numerics.toeplitz_det(sym, h)
        assert det == det_gauss(numerics._toeplitz_rows(sym, h))
        assert 0 < 1 - det / z_norm(p) < tail


@st.composite
def toeplitz_symbols(draw):
    """(symbol, h) with small rational entries; `vanish` zeroes the leading
    minor of order 1 (phi_0 = 0) or 2 (phi_0^2 = phi_1 phi_-1)."""
    h = draw(st.integers(0, 12))
    k = max(h - 1, 1)
    coeffs = draw(st.lists(st.fractions(max_denominator=6, min_value=-4, max_value=4),
                           min_size=2 * k + 1, max_size=2 * k + 1))
    vanish = draw(st.sampled_from([None, 1, 2]))
    if vanish == 1:
        coeffs[k] = F(0)
    elif vanish == 2:
        coeffs[k - 1] = coeffs[k + 1] = coeffs[k]
    scale = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    return numerics.SymbolCoefficients(-k, k, coeffs, scale), h


@settings(max_examples=100, deadline=None)
@given(toeplitz_symbols())
def test_toeplitz_det_matches_gauss(case):
    sym, h = case
    gauss = [det_gauss(numerics._toeplitz_rows(sym, hh)) for hh in range(h + 1)]
    assert numerics.toeplitz_det(sym, h) == gauss[h]
    assert numerics.toeplitz_det(sym, range(h + 1)) == gauss


def test_levinson_division_is_checked():
    assert numerics._exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        numerics._exact_div(7, 2)


def test_exact_grid_matches_single_calls(monkeypatch):
    p = params(5, 5, F(2, 5), F(-1, 2))
    hs = [9, 0, 4, 12, 4, 1]
    single = [lambda1_cdf_exact(p, h, mode="exact") for h in hs]
    auto = [lambda1_cdf_exact(p, h) for h in hs]
    passes = []
    minors = numerics._leading_minors

    def counted(sym, h):
        passes.append(h)
        return minors(sym, h)

    monkeypatch.setattr(numerics, "_leading_minors", counted)
    assert lambda1_cdf_exact(p, hs, mode="exact") == single  # bit for bit
    assert lambda1_cdf_exact(p, hs) == auto
    assert passes == [12, 4]  # one pass per grid, at its largest exact h


def test_toeplitz_h0():
    sym = numerics.symbol_phi(params(), 0, 0, exact=True)
    assert numerics.toeplitz_det(sym, 0) == 1
    assert numerics.toeplitz_det(sym, []) == []
    with pytest.raises(ValueError):
        numerics.toeplitz_det(sym, [0, -1])


def test_gessel_identity_degreewise():
    for (m, n) in ((2, 2), (3, 2)):
        for t in (F(0), F(-1)):
            for h in range(4):
                lhs = numerics.gessel_lhs_alpha_series(m, n, t, h, 20)
                sym = numerics.symbol_phi_alpha_series(
                    m, n, t, -(max(h, 1) - 1), max(h - 1, 0), 20
                )
                rhs = numerics.toeplitz_det_series(sym, h)
                assert lhs == rhs, (m, n, t, h)


def test_alpha_series_symbol_consistency():
    # evaluating the alpha-polynomial coefficients at a rational alpha must
    # reproduce symbol_phi
    m, n, t = 2, 3, F(-1, 2)
    a = F(1, 3)
    series = numerics.symbol_phi_alpha_series(m, n, t, -2, 2, 14)
    direct = numerics.symbol_phi(MeasureParams(m, n, a, t), -2, 2, exact=True)
    for k in range(-2, 3):
        poly = series.coeff(k)
        val = sum(poly.coeff(d) * a ** d for d in range(15))
        # the alpha-truncation cuts the tail; compare within its reach
        assert abs(float(val - direct.coeff(k))) < float(a) ** 13


def test_hankel_symbols_leading_coefficient():
    # m=n=1, t=0: psi1 = (1 + a/z)/(1 + a z); coefficient of z is
    # a(1 - ... ) -> -a + a^3 - ... = -a/(1+a^2) + ... check numerically
    a = 0.3
    p = MeasureParams(1, 1, a, 0.0)
    psi1, psi2 = numerics.hankel_symbols(p, 30)
    # psi1_1 = [z^1] (1+a z^{-1}) sum (-a)^k z^k = -a + a*(a^2)... = -a(1 - a^2)
    assert math.isclose(psi1[1], -a * (1 - a * a), rel_tol=1e-12)
    # psi2 is the reflected symbol with x and y swapped: same value here
    assert math.isclose(psi2[1], psi1[1], rel_tol=1e-12)


def test_hankel_symbols_mp_matches_float_when_safe():
    p = MeasureParams(5, 5, F(2, 5), F(-1, 2))
    f1, f2 = numerics.hankel_symbols(p, 80)
    m1, m2 = numerics.hankel_symbols_mp(p, 1, 80)
    np.testing.assert_allclose(f1[1:], m1, rtol=1e-12, atol=1e-290)
    np.testing.assert_allclose(f2[1:], m2, rtol=1e-12, atol=1e-290)


def test_hankel_symbols_mp_validation():
    with pytest.raises(ValueError):
        numerics.hankel_symbols_mp(params(), 0, 5)
    with pytest.raises(ValueError):
        numerics.hankel_symbols_mp(params(), 5, 4)


def test_bo_cdf_agrees_with_exact_toeplitz():
    p = MeasureParams(5, 5, F(2, 5), F(-1, 2))
    for h in range(3, 11):
        exact = float(lambda1_cdf_exact(p, h, mode="exact"))
        assert abs(numerics.bo_cdf(p, h, N=h + 60) - exact) < 1e-8


def test_bo_cdf_tail_and_degenerate_limits():
    p = MeasureParams(2, 2, F(1, 2), F(0))
    assert numerics.bo_cdf(p, 40) > 1 - 1e-10
    tiny = MeasureParams(2, 2, F(1, 1000), F(0))
    for h in range(3):
        # as alpha -> 0 the measure concentrates on the empty partition
        assert numerics.bo_cdf(tiny, h) >= float((1 - tiny.rho) ** 4) - 1e-12


def test_bo_cdf_precise_matches_float_at_moderate_size():
    p = MeasureParams(10, 10, F(2, 5), F(-1))
    hs = (8, 12, 16)
    for h in hs:
        lo = numerics.bo_cdf(p, h, precise=False)
        hi = numerics.bo_cdf(p, h, precise=True)
        assert abs(lo - hi) < 1e-9
    for precise in (False, True):
        assert numerics.bo_cdf(p, hs, precise=precise) == [
            numerics.bo_cdf(p, h, precise=precise) for h in hs
        ]


@pytest.mark.parametrize(
    "p, hs, mp_window",
    [
        # every h on the mp route
        (MeasureParams(60, 60, F(1, 2), F(0)), range(100, 141, 4), (101, 405)),
        # h <= 14 on the mp route, the rest on the float route
        (MeasureParams(25, 25, F(1, 2), F(-1, 2)), range(7, 59), (8, 147)),
        # h = 60, 62 alone would work at one more mp digit than the union
        (MeasureParams(44, 44, F(17, 20), F(0)), range(60, 100, 2), (61, 319)),
        # t != 0: the e_j(x;t) series runs past 2N-1 of every h before it decays
        (MeasureParams(40, 40, F(4, 5), F(-1, 2)), range(40, 57, 4), (41, 231)),
    ],
)
def test_bo_cdf_grid_matches_single_calls(monkeypatch, p, hs, mp_window):
    single = [numerics.bo_cdf(p, h) for h in hs]
    windows = []
    build = numerics.hankel_symbols_mp

    def counted(params, kmin, kmax):
        windows.append((kmin, kmax))
        return build(params, kmin, kmax)

    monkeypatch.setattr(numerics, "hankel_symbols_mp", counted)
    assert numerics.bo_cdf(p, hs) == single  # bit for bit
    assert windows == [mp_window]  # one mp build for the whole grid


def test_bo_cdf_large_size_is_stable():
    # the regime where double-precision coefficient recurrences are pure noise
    p = MeasureParams(60, 60, F(1, 2), F(0))
    h = 120  # center of the distribution, c1 = 2
    v1 = numerics.bo_cdf(p, h)
    v2 = numerics.bo_cdf(p, h, N=h + numerics.default_section(p) + 40)
    assert 0.4 < v1 < 1.0
    assert abs(v1 - v2) < 1e-9


def test_bo_cdf_section_warning():
    p = MeasureParams(5, 5, F(2, 5), F(-1, 2))
    with pytest.warns(RuntimeWarning):
        numerics.bo_cdf(p, 4, N=4 + 4, warn_tol=1e-12)
    with pytest.warns(RuntimeWarning):
        numerics.bo_cdf(p, [3, 4], N=4 + 4, warn_tol=1e-12)


def toeplitz_slogdet(params, h):
    """(sign, log|det T_h(phi)|) of the float Toeplitz matrix, by LU."""
    if h == 0:
        return 1.0, 0.0
    sym = numerics.symbol_phi(params, -(h - 1), h - 1, exact=False)
    mat = np.array([[sym.coeff(i - j) for j in range(h)] for i in range(h)])
    sign, logdet = np.linalg.slogdet(mat)
    if not np.isfinite(logdet):
        raise ArithmeticError("Toeplitz determinant is singular in float mode")
    return float(sign), float(logdet)


def e_phi_fft(params, grid=4096):
    """E(phi) = exp(sum_k k (log phi)_k (log phi)_{-k}) via FFT on the circle,
    an independent route to the closed-form normalization Z_t."""
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    alpha, t = float(params.alpha), float(params.t)
    # summing factor logs keeps every argument in the right half plane,
    # so the principal branch never jumps along the circle
    logphi = (
        params.m * (np.log(1 + alpha / z) - np.log(1 + t * alpha / z))
        + params.n * np.log(1 + alpha * z)
    )
    fk = np.fft.fft(logphi) / grid  # fk[k] ~ (log phi)_k for small |k|
    k = np.arange(1, grid // 4)
    return math.exp(float(np.sum(k * (fk[k] * fk[-k]).real)))


def test_toeplitz_slogdet_small_sizes():
    p = MeasureParams(5, 5, F(2, 5), F(-1, 2))
    for h in (3, 6, 9):
        sign, logdet = toeplitz_slogdet(p, h)
        exact = lambda1_cdf_exact(p, h, mode="exact") * z_norm(p)
        assert sign == 1.0
        assert math.isclose(logdet, math.log(float(exact)), rel_tol=1e-11)


def test_e_phi_equals_z_norm():
    for p in (
        MeasureParams(2, 3, F(1, 2), F(-1)),
        MeasureParams(4, 4, F(2, 5), F(-1, 2)),
        MeasureParams(3, 3, F(3, 10), F(0)),
    ):
        e = e_phi_fft(p)
        assert math.isclose(e, float(z_norm(p)), rel_tol=1e-10)


def test_symbol_rejects_divergent_params():
    with pytest.raises(ValueError):
        numerics.symbol_phi(MeasureParams(1, 1, F(1, 2), F(-3)), -1, 1)
