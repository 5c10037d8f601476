"""Symbol coefficients, Toeplitz determinants, the Gessel identity, and the
Hankel-product (Borodin-Okounkov) route."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.measure import MeasureParams, lambda1_cdf_exact, lambda1_cdf_exact_oracle, z_norm
from tschur import numerics
from tschur.series import TruncatedSeries, det_gauss

F = Fraction


def params(m=2, n=2, a=F(1, 2), t=F(-1)):
    return MeasureParams(m, n, a, t)


def toeplitz_rows(sym, h):
    return [[sym.coeff(i - j) for j in range(h)] for i in range(h)]


def test_symbol_window_validation():
    with pytest.raises(ValueError):
        numerics.symbol_phi(params(), 1, 3)
    with pytest.raises(ValueError):
        numerics.symbol_phi(params(), -3, -1)
    with pytest.raises(ValueError):
        numerics.symbol_phi(params(), -2, 2, exact=False)
    sym = numerics.symbol_phi(params(), -2, 2)
    with pytest.raises(IndexError):
        sym.coeff(3)


def test_symbol_at_a_float_alpha_is_exact_at_its_binary_value():
    # alpha = 0.4 is read as its binary value, 2/5 to 2e-17: both symbols are
    # exact, and they agree to about that distance
    ex = numerics.symbol_phi(params(3, 3, F(2, 5), F(-1, 2)), -4, 4)
    fl = numerics.symbol_phi(MeasureParams(3, 3, 0.4, -0.5), -4, 4)
    assert fl.coeffs == numerics.symbol_phi(params(3, 3, F(0.4), F(-1, 2)), -4, 4).coeffs
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
        assert det == det_gauss(toeplitz_rows(sym, h))
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
    # the Levinson pass divides by the leading minors below h - 1: a zero one
    # raises ValueError, and it used to send h to a Gaussian elimination
    sym, h = case
    gauss = [det_gauss(toeplitz_rows(sym, hh)) for hh in range(h + 1)]
    if 0 in gauss[1 : max(h - 1, 0)]:
        for arg in (h, range(h + 1)):
            with pytest.raises(ValueError, match="leading minor below h - 1"):
                numerics.toeplitz_det(sym, arg)
    else:
        assert numerics.toeplitz_det(sym, h) == gauss[h]
        assert numerics.toeplitz_det(sym, range(h + 1)) == gauss


def test_toeplitz_det_zero_constant_coefficient_raises():
    # phi_0 = 0 makes det T_1 = 0, a divisor of the pass at h = 3
    sym = numerics.SymbolCoefficients(-2, 2, [F(1), F(2), F(0), F(3), F(1, 2)])
    assert numerics.toeplitz_det(sym, [1, 2]) == [0, -6]
    with pytest.raises(ValueError, match="leading minor below h - 1"):
        numerics.toeplitz_det(sym, 3)


def test_levinson_division_is_checked():
    assert numerics._exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        numerics._exact_div(7, 2)
    # (2 + X)(1 + X) = 2 + 3X + X^2 over integer series; 1 + X over 2 leaves 1/2
    q = numerics._exact_series_div(TruncatedSeries([2, 3, 1]), TruncatedSeries([1, 1, 0]))
    assert q == TruncatedSeries([2, 1, 0])
    with pytest.raises(ArithmeticError):
        numerics._exact_series_div(TruncatedSeries([1, 1]), TruncatedSeries([2, 0]))


def test_exact_grid_matches_single_calls(monkeypatch):
    p = params(5, 5, F(2, 5), F(-1, 2))
    hs = [9, 0, 4, 12, 4, 1]
    single = [lambda1_cdf_exact(p, h, mode="exact") for h in hs]
    auto = [lambda1_cdf_exact(p, h) for h in hs]
    passes = []
    levinson = numerics._levinson

    def counted(c, h, div):
        passes.append(h)
        return levinson(c, h, div)

    monkeypatch.setattr(numerics, "_levinson", counted)
    assert lambda1_cdf_exact(p, hs, mode="exact") == single  # bit for bit
    assert lambda1_cdf_exact(p, hs) == auto
    assert passes == [12, 4]  # one pass per grid, at its largest exact h


def test_toeplitz_h0():
    sym = numerics.symbol_phi(params(), 0, 0, exact=True)
    assert numerics.toeplitz_det(sym, 0) == 1
    assert numerics.toeplitz_det(sym, []) == []
    with pytest.raises(ValueError):
        numerics.toeplitz_det(sym, [0, -1])


def test_exact_route_refuses_float_parameters():
    # a float symbol built by hand; `symbol_phi` itself is always rational
    with pytest.raises(ValueError, match="rational"):
        numerics.toeplitz_det(numerics.SymbolCoefficients(-3, 3, [0.1] * 7), 4)


def test_gessel_check_reads_a_float_t_at_its_binary_value():
    # the partition side used to run in rounded doubles, the Toeplitz side in
    # the Fractions of the binary -0.3, so the check failed at h = 2
    assert numerics.gessel_check(2, 2, -0.3, 3, 12) == (True, None)


def test_gessel_identity_degreewise():
    # one Levinson pass per (m, n, t) gives every det T_h, h <= 8
    for (m, n) in ((2, 2), (3, 2)):
        for t in (F(0), F(-1)):
            ok, mismatch = numerics.gessel_check(m, n, t, 8, 20)
            assert ok, (m, n, t, mismatch)


def test_gessel_check_names_the_failing_h(monkeypatch):
    lhs = numerics.gessel_lhs_alpha_series
    monkeypatch.setattr(numerics, "gessel_lhs_alpha_series",
                        lambda m, n, t, h, degree: lhs(m, n, t, h, degree) + (1 if h == 3 else 0))
    ok, mismatch = numerics.gessel_check(2, 2, F(-1), 5, 10)
    assert not ok and mismatch[:2] == (3, 0)


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
    psi1, psi2 = numerics.hankel_symbols(p, 1, 30)
    # psi1_1 = [z^1] (1+a z^{-1}) sum (-a)^k z^k = -a + a*(a^2)... = -a(1 - a^2)
    assert math.isclose(psi1[0], -a * (1 - a * a), rel_tol=1e-12)
    # psi2 is the reflected symbol with x and y swapped: same value here
    assert math.isclose(psi2[0], psi1[0], rel_tol=1e-12)


def _mp_series(c, e, count):
    """[w^0..w^(count-1)] of (1 + c w)^e."""
    out = [mpmath.mpf(1)]
    for i in range(count - 1):
        out.append(out[-1] * c * (e - i) / (i + 1))
    return out


def _mp_product(*factors):
    out = factors[0]
    for s in factors[1:]:
        out = [mpmath.fsum(out[i] * s[l - i] for i in range(l + 1)) for l in range(len(out))]
    return out


def hankel_oracle(p, ks, dps):
    """psi1_k and psi2_k at `dps` digits: the Taylor coefficients of f and g
    as Cauchy products of binomial series, then the sums
    (-alpha)^k sum_r y_{d-r} C(k+r-1, r-1) term by term."""
    m, n = p.m, p.n
    with mpmath.workdps(dps):
        a, t = (mpmath.mpf(F(x).numerator) / F(x).denominator for x in (p.alpha, p.t))
        A, B = 1 - a * a, 1 - t * a * a
        # f = ((w-A)/(w-B))^m and g = ((1-t)+tw)^m ((w-A)/(w-1))^n
        f = _mp_product(_mp_series(-1 / A, m, n), _mp_series(-1 / B, -m, n))
        g = _mp_product(_mp_series(t / (1 - t), m, m), _mp_series(-1 / A, n, m),
                        _mp_series(-1, -n, m))
        out = []
        for y, y0, d in ((f, (A / B) ** m, n), (g, (1 - t) ** m * A ** n, m)):
            vals = []
            for k in ks:
                acc, binom = mpmath.mpf(0), mpmath.mpf(1)  # binom = C(k+r-1, r-1)
                for r in range(1, d + 1):
                    acc += y[d - r] * binom
                    binom = binom * (k + r) / r
                vals.append(float((-a) ** k * y0 * acc))
            out.append(np.array(vals))
    return out


@pytest.mark.parametrize(
    "p, ks, dps",
    [
        (MeasureParams(7, 5, F(2, 5), F(0)), range(1, 41), 60),
        (MeasureParams(5, 7, F(2, 5), F(-3, 2)), range(1, 41), 60),
        (MeasureParams(12, 9, F(3, 5), F(-1, 2)), range(5, 61), 60),
        (MeasureParams(9, 12, F(3, 5), F(-1)), range(5, 61), 60),
        # a binary float alpha is taken at its exact value
        (MeasureParams(20, 30, 0.4, F(-1, 2)), range(30, 121), 60),
        # criterion 9's window at n = 200: the sums there cancel about 90
        # digits, so the oracle runs 60 digits beyond that
        (MeasureParams(200, 200, 0.4, -1.0), [*range(324, 834, 10), 833], 150),
    ],
)
def test_hankel_symbols_match_mpmath_oracle(p, ks, dps):
    psi = numerics.hankel_symbols(p, ks[0], ks[-1])
    ref = hankel_oracle(p, ks, dps)
    # the oracle's own digits: 40 more change no bit
    for got, want, check in zip(psi, ref, hankel_oracle(p, ks, dps + 40)):
        assert np.array_equal(want, check)
        assert np.array_equal(got[np.asarray(ks) - ks[0]], want)  # bit for bit


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2 ** 3000), 2 ** 3000), st.integers(-(2 ** 2000), 2 ** 2000),
       st.integers(-1070, 1020), st.integers(1, 2 ** 80))
def test_rounded_quotient_is_int_division(a, b, log2_quotient, low):
    # operands below 2048 bits in all take the exact division, larger ones
    # the bounds; d puts the quotient near 2^log2_quotient, inside the
    # range of doubles
    prod = abs(a * b)
    d = low + (prod >> log2_quotient if log2_quotient >= 0 else prod << -log2_quotient)
    want = a * b / d
    got = numerics._rounded(a, b, d)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


@pytest.mark.parametrize("scale", [60, 1100, 3000])
def test_rounded_quotient_at_and_near_ties(scale):
    # (2^53 + 1)/2 and (2^53 + 3)/2 lie halfway between two doubles: the
    # bounds straddle them, and the exact division rounds each to even
    for odd, even in ((1, 0), (3, 2)):
        tie = numerics._rounded(3 * (2 ** 53 + odd) << scale, -(2 ** scale), 3 << 2 * scale + 1)
        assert tie == -(2.0 ** 52 + even)
    # just above the first tie and just below the second, closer than the
    # bounds resolve: they round away from the even neighbour
    above = numerics._rounded(((2 ** 53 + 1) << scale) + 1, 1, 1 << scale + 1)
    below = numerics._rounded((2 ** 53 + 3) << scale, 1, (1 << scale + 1) + 1)
    assert above == below == 2.0 ** 52 + 1


def test_hankel_symbols_validation():
    with pytest.raises(ValueError):
        numerics.hankel_symbols(params(), 0, 5)
    with pytest.raises(ValueError):
        numerics.hankel_symbols(params(), 5, 4)
    # |t alpha| >= 1 is no error: the entries decay like alpha^k on all t <= 0
    psi1, psi2 = numerics.hankel_symbols(MeasureParams(1, 1, F(1, 2), F(-3)), 1, 5)
    assert len(psi1) == len(psi2) == 5


def test_bo_cdf_tail_and_degenerate_limits():
    p = MeasureParams(2, 2, F(1, 2), F(0))
    assert numerics.bo_cdf(p, 40) > 1 - 1e-10
    tiny = MeasureParams(2, 2, F(1, 1000), F(0))
    for h in range(3):
        # as alpha -> 0 the measure concentrates on the empty partition
        assert numerics.bo_cdf(tiny, h) >= float((1 - tiny.rho) ** 4) - 1e-12


def test_bo_cdf_raises_outside_unit_interval(monkeypatch):
    # flipping psi2 turns det(I - H1 H2) into det(I + H1 H2) > 1: the value
    # must be refused, not clamped to 1
    build = numerics.hankel_symbols

    def flipped(params, kmin, kmax):
        psi1, psi2 = build(params, kmin, kmax)
        return psi1, -psi2

    monkeypatch.setattr(numerics, "hankel_symbols", flipped)
    with pytest.raises(ArithmeticError, match=r"outside \[0, 1\]"):
        numerics.bo_cdf(MeasureParams(2, 2, F(1, 2), F(0)), [0, 1])


@pytest.mark.parametrize(
    "p, hs",
    [
        (MeasureParams(60, 60, F(1, 2), F(0)), range(100, 141, 4)),
        (MeasureParams(25, 25, F(1, 2), F(-1, 2)), range(7, 59)),
        (MeasureParams(44, 44, F(17, 20), F(0)), range(60, 100, 2)),
        (MeasureParams(40, 40, F(4, 5), F(-1, 2)), range(40, 57, 4)),
        (MeasureParams(25, 25, 0.4, -1.0), [44, 24, 32, 24]),
    ],
)
def test_bo_cdf_grid_matches_single_calls(monkeypatch, p, hs):
    single = [numerics.bo_cdf(p, h) for h in hs]
    windows = []
    build = numerics.hankel_symbols

    def counted(params, kmin, kmax):
        windows.append((kmin, kmax))
        return build(params, kmin, kmax)

    monkeypatch.setattr(numerics, "hankel_symbols", counted)
    assert numerics.bo_cdf(p, hs) == single  # bit for bit
    end = max(hs) + numerics.default_section(p)
    assert windows == [(min(hs) + 1, 2 * end - 1)]  # one build for the whole grid


@pytest.mark.parametrize(
    "p, hs",
    [
        (MeasureParams(25, 25, F(1, 2), F(-1, 2)), [54]),
        (MeasureParams(25, 25, F(1, 2), F(-1)), [58]),
        # the converge points of (0.4, 1, -1) at n = 25
        (MeasureParams(25, 25, 0.4, -1.0), range(24, 45)),
    ],
)
def test_bo_cdf_matches_exact_at_moderate_n(p, hs):
    # the reference takes alpha = 2/5 where p has the double 0.4: 2e-17 apart
    exact = lambda1_cdf_exact(MeasureParams(p.m, p.n, F(p.alpha).limit_denominator(10), F(p.t)),
                              hs, mode="exact")
    for h, val, ref in zip(hs, numerics.bo_cdf(p, hs), exact):
        assert abs(val - float(ref)) < 1e-10, h


def test_bo_cdf_large_size_is_stable(monkeypatch):
    # the regime where double-precision coefficient recurrences are pure noise
    p = MeasureParams(60, 60, F(1, 2), F(0))
    h = 120  # center of the distribution, c1 = 2
    v1 = numerics.bo_cdf(p, h)
    section = numerics.default_section
    monkeypatch.setattr(numerics, "default_section", lambda params: section(params) + 40)
    v2 = numerics.bo_cdf(p, h)
    assert 0.4 < v1 < 1.0
    assert abs(v1 - v2) < 1e-9


def toeplitz_slogdet(params, h):
    """(sign, log|det T_h(phi)|) of the float Toeplitz matrix, by LU."""
    if h == 0:
        return 1.0, 0.0
    sym = numerics.symbol_phi(params, -(h - 1), h - 1)
    mat = np.array([[float(sym.coeff(i - j)) for j in range(h)] for i in range(h)])
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


# |t alpha| >= 1: outside the Wiener-Hopf split on the unit circle, inside the
# measure's domain and the Borodin-Okounkov identity's (by analytic continuation
# in t of det T_h / Z_t = det(I - H1 H2) from |t alpha| < 1)
BEYOND_BO = [MeasureParams(2, 2, F(1, 2), F(-3)), MeasureParams(3, 2, F(1, 2), F(-4)),
             MeasureParams(2, 3, F(2, 3), F(-5)), MeasureParams(3, 3, F(1, 2), F(-3))]


def test_exact_route_beyond_bo_domain_equals_oracle():
    hs = range(5)
    for p in BEYOND_BO:
        assert lambda1_cdf_exact(p, hs, mode="exact") == [lambda1_cdf_exact_oracle(p, h)
                                                           for h in hs]


def test_float_route_beyond_bo_domain_equals_exact():
    hs = range(13)
    for p in BEYOND_BO + [MeasureParams(6, 6, F(1, 2), F(-6))]:
        exact = lambda1_cdf_exact(p, hs, mode="exact")
        for h, x, y in zip(hs, exact, lambda1_cdf_exact(p, hs, mode="float")):
            assert abs(float(x) - y) < 1e-12, (p, h)


def test_auto_route_beyond_bo_domain_matches_exact():
    # `auto` splits at h = 6 there as everywhere: exact below, float above;
    # float parameters too, taken at their binary values
    hs = range(13)
    exact = lambda1_cdf_exact(BEYOND_BO[0], hs, mode="exact")
    auto = lambda1_cdf_exact(BEYOND_BO[0], hs)
    assert auto[:7] == exact[:7] and not any(isinstance(v, F) for v in auto[7:])
    floats = lambda1_cdf_exact(MeasureParams(2, 2, 0.5, -3.0), hs)
    for x, y, z in zip(exact, auto, floats):
        assert abs(float(x) - y) < 1e-12 and abs(float(x) - z) < 1e-12
