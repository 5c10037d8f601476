"""Symbol coefficients, Toeplitz determinants, the Gessel identity, and the
Hankel-product (Borodin-Okounkov) route."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tschur.measure import MeasureParams, lambda1_cdf_exact, lambda1_cdf_exact_oracle, z_norm
from tschur import numerics
from tschur.series import det_gauss

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
    # a float symbol built by hand; `symbol_phi` itself is always rational.
    # An alpha-series symbol is refused too: `toeplitz_det` runs over one ring
    series = numerics.symbol_phi_alpha_series(2, 2, F(-1), -3, 3, 8)
    for sym in (numerics.SymbolCoefficients(-3, 3, [0.1] * 7), series):
        with pytest.raises(ValueError, match="rational"):
            numerics.toeplitz_det(sym, 4)


def test_gessel_check_reads_a_float_t_at_its_binary_value():
    # the partition side used to run in rounded doubles, the Toeplitz side in
    # the Fractions of the binary -0.3, so the check failed at h = 2
    assert numerics.gessel_check(2, 2, -0.3, 3) == (True, None)


def test_gessel_identity_degreewise():
    # every det T_h, h <= 8, as a whole polynomial in alpha^2, from one
    # Levinson pass per point
    for (m, n) in ((2, 2), (3, 2)):
        for t in (F(0), F(-1)):
            ok, mismatch = numerics.gessel_check(m, n, t, 8)
            assert ok, (m, n, t, mismatch)


def _perturbed_weights(monkeypatch, h, k):
    """Make `weights_by_size` capped at h add 1 to its coefficient of rho^k."""
    weights = numerics.weights_by_size

    def perturbed(m, n, t, size, max_part=None):
        w = weights(m, n, t, size, max_part)
        if max_part == h:
            w[k] += 1
        return w

    monkeypatch.setattr(numerics, "weights_by_size", perturbed)


def test_gessel_check_names_the_failing_h(monkeypatch):
    _perturbed_weights(monkeypatch, 3, 0)
    ok, (h, a, lhs, rhs) = numerics.gessel_check(2, 2, F(-1), 5)
    assert not ok and (h, a, lhs - rhs) == (3, F(1, 2), 1)


def test_gessel_check_sees_the_top_coefficient(monkeypatch):
    # the top coefficient, rho^(h n) = alpha^20 at h = 5, n = 2
    _perturbed_weights(monkeypatch, 5, 10)
    ok, (h, a, lhs, rhs) = numerics.gessel_check(2, 2, F(-1), 5)
    assert not ok and (h, a, lhs - rhs) == (5, F(1, 2), F(1, 2) ** 20)


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
    # m = n = 1: lambda_1 is one matrix entry, P(lambda_1 <= h) =
    # 1 - x^(h+1) (1-t)/(1-tx) with x = alpha^2, and k = 1 leaves the single
    # product f1_0 f2_0 = x^(h+1) (1-t)/(1-tx); at t = 0, f1_0 = f2_0 = alpha^(h+1)
    hs = range(0, 60, 7)
    for a, t in ((0.3, 0.0), (F(1, 2), F(-3)), (F(9, 10), F(-1, 2))):
        p = MeasureParams(1, 1, a, t)
        x = p.alpha ** 2
        f1, f2 = numerics.hankel_symbols(p, hs)
        assert f1.shape == f2.shape == (len(hs), 1)
        for h, r1, r2, cdf in zip(hs, f1, f2, numerics.bo_cdf(p, hs)):
            tail = x ** (h + 1) * (1 - p.t) / (1 - p.t * x)
            assert math.isclose(r1[0] * r2[0], tail, rel_tol=1e-14)
            assert abs(cdf - float(1 - tail)) < 1e-15
            if p.t == 0:
                assert math.isclose(r1[0], float(p.alpha ** (h + 1)), rel_tol=1e-15)
                assert r1[0] == r2[0]


def _hankel_factors(m, n, a, t, one, total):
    """(y, y0, d) of p1 and of p2 over the scalars of `one` (mpf or
    Fraction), p(k) = y0 sum_{r=1..d} y_{d-r} C(k+r-1, r-1): y holds the
    Taylor coefficients of f = ((w-A)/(w-B))^m and
    g = ((1-t)+tw)^m ((w-A)/(w-1))^n over their values at 0, as Cauchy
    products of binomial series summed by `total`."""
    A, B = 1 - a * a, 1 - t * a * a

    def series(c, e, count):  # (1 + c w)^e
        out = [one]
        for i in range(count - 1):
            out.append(out[-1] * c * (e - i) / (i + 1))
        return out

    def product(*factors):
        out = factors[0]
        for s in factors[1:]:
            out = [total(out[i] * s[l - i] for i in range(l + 1)) for l in range(len(out))]
        return out

    f = product(series(-1 / A, m, n), series(-1 / B, -m, n))
    g = product(series(t / (1 - t), m, m), series(-1 / A, n, m), series(-one, -n, m))
    return (f, (A / B) ** m, n), (g, (1 - t) ** m * A ** n, m)


def rank_k_cdf(p, h):
    """`numerics.bo_cdf`'s det(I_k - F1 F2) in exact rationals, from its
    definition: d_s = Δ^s p(h+1) = y0 sum_r y_{d-r} C(h+r, r-1-s),
    mu_j = (-1)^j sum_{s>=j} C(s+1, j+1) y^s d_s with y = x/(1-x), x = alpha^2,
    f_j = alpha^(h+1-j) mu_j / (1-x) for j < 2k - 1, F[a, b] = f_{a+b}."""
    m, n, a = p.m, p.n, p.alpha
    x, k = a * a, min(m, n)
    mats = []
    for y, y0, d in _hankel_factors(m, n, a, p.t, F(1), sum):
        diffs = [y0 * sum(y[d - r] * math.comb(h + r, r - 1 - s) for r in range(s + 1, d + 1))
                 for s in range(d)]
        mu = [(-1) ** j * sum(math.comb(s + 1, j + 1) * (x / (1 - x)) ** s * diffs[s]
                              for s in range(j, d)) for j in range(2 * k - 1)]
        f = [a ** (h + 1 - j) * mu[j] / (1 - x) for j in range(2 * k - 1)]
        mats.append([[f[i + j] for j in range(k)] for i in range(k)])
    F1, F2 = mats
    return det_gauss([[(i == j) - sum(F1[i][l] * F2[l][j] for l in range(k)) for j in range(k)]
                      for i in range(k)])


def differences_oracle(p, hs, dps):
    """alpha^(h+1) q^s Δ^s p(h+1), s < degree + 1, q = alpha/(1-alpha^2), for
    p = p1 and p2 at `dps` digits, with
    Δ^s p(h+1) = y0 sum_r y_{d-r} C(h+r, r-1-s) term by term."""
    with mpmath.workdps(dps):
        a, t = (mpmath.mpf(F(x).numerator) / F(x).denominator for x in (p.alpha, p.t))
        q = a / (1 - a * a)
        return [np.array([[float(a ** (h + 1) * q ** s * y0 * mpmath.fsum(
            y[d - r] * math.comb(h + r, r - 1 - s) for r in range(s + 1, d + 1)))
            for s in range(d)] for h in hs])
            for y, y0, d in _hankel_factors(p.m, p.n, a, t, mpmath.mpf(1), mpmath.fsum)]


@pytest.mark.parametrize(
    "p, ks, dps",  # ks: the grid of h
    [
        (MeasureParams(7, 5, F(2, 5), F(0)), range(0, 41, 5), 60),
        (MeasureParams(5, 7, F(2, 5), F(-3, 2)), range(0, 41, 5), 60),
        (MeasureParams(12, 9, F(3, 5), F(-1, 2)), range(5, 61, 5), 60),
        (MeasureParams(9, 12, F(3, 5), F(-1)), range(5, 61, 5), 60),
        # a binary float alpha is taken at its exact value
        (MeasureParams(20, 30, 0.4, F(-1, 2)), range(30, 121, 10), 60),
        # the first and last h of criterion 9's grid at n = 200: the sums
        # there cancel about 90 digits, so the oracle runs 60 digits beyond
        (MeasureParams(200, 200, 0.4, -1.0), [290, 347], 150),
    ],
)
def test_hankel_symbols_match_mpmath_oracle(p, ks, dps):
    # the exact build: each row of `_differences` is one correctly rounded
    # quotient of integers times a correctly rounded 2^e alpha^(h+1), so
    # within 2 ulp of the oracle
    ref = differences_oracle(p, ks, dps)
    # the oracle's own digits: 40 more change no bit
    for factor, want, check in zip(numerics._factors(p), ref, differences_oracle(p, ks, dps + 40)):
        assert np.array_equal(want, check)
        got = numerics._differences(*factor, p.alpha, list(ks))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


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
        numerics.hankel_symbols(params(), -1)
    with pytest.raises(ValueError):
        numerics.hankel_symbols(params(), [3, -1])
    with pytest.raises(TypeError):
        numerics.hankel_symbols(params(), 2.0)
    # one row of 2k - 1 entries per h, k = min(m, n), whatever the rest of
    # the grid; |t alpha| >= 1 is no error (the entries decay like alpha^k
    # on all t <= 0)
    p = MeasureParams(3, 5, F(1, 2), F(-3))
    f1, f2 = numerics.hankel_symbols(p, [4, 1, 4])
    assert f1.shape == f2.shape == (3, 5)
    assert all(map(np.array_equal, numerics.hankel_symbols(p, 1), (f1[1], f2[1])))
    assert np.array_equal(f1[0], f1[2]) and np.array_equal(f2[0], f2[2])
    # f1 comes from p1 of degree n - 1 = 4, f2 from p2 of degree m - 1 = 2
    assert np.all(f1[:, 4] != 0) and np.all(f2[:, 3:] == 0) and np.all(f2[:, 2] != 0)
    assert [a.shape for a in numerics.hankel_symbols(p, [])] == [(0, 5), (0, 5)]


def test_bo_cdf_tail_and_degenerate_limits():
    p = MeasureParams(2, 2, F(1, 2), F(0))
    assert numerics.bo_cdf(p, 40) > 1 - 1e-10
    tiny = MeasureParams(2, 2, F(1, 1000), F(0))
    for h in range(3):
        # as alpha -> 0 the measure concentrates on the empty partition
        assert numerics.bo_cdf(tiny, h) >= float((1 - tiny.rho) ** 4) - 1e-12


def test_bo_cdf_raises_outside_unit_interval(monkeypatch):
    # flipping f2 turns det(I - F1 F2) into det(I + F1 F2) > 1: the value
    # must be refused, not clamped to 1
    build = numerics.hankel_symbols

    def flipped(params, h):
        f1, f2 = build(params, h)
        return f1, -f2

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
    grids = []
    build = numerics.hankel_symbols

    def counted(params, h):
        grids.append(list(h))
        return build(params, h)

    monkeypatch.setattr(numerics, "hankel_symbols", counted)
    assert numerics.bo_cdf(p, hs) == single  # bit for bit
    assert grids == [list(hs)]  # one build for the whole grid


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


def test_bo_cdf_large_size_is_stable():
    # the regime where double-precision coefficient recurrences are pure
    # noise: n = 60 at the centre of its law (c1 = 2), against the exact
    # rank-k determinant (`rank_k_cdf`, floor(10^30 P), committed because it
    # takes seconds)
    p = MeasureParams(60, 60, F(1, 2), F(0))
    assert abs(numerics.bo_cdf(p, 120) - 970598317371201282569063272980 / 10 ** 30) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.fractions(F(1, 20), F(19, 20), max_denominator=20),
       st.fractions(-6, 0, max_denominator=4), st.integers(0, 10))
@example(3, 5, F(1, 2), F(-3), 7)  # m != n and |t alpha| >= 1
@example(5, 2, F(9, 10), F(-2), 10)
def test_rank_k_determinant_is_exact(m, n, alpha, t, h):
    # the identity behind `bo_cdf`, as rationals, against the Toeplitz route
    p = MeasureParams(m, n, alpha, t)
    exact = lambda1_cdf_exact(p, h, mode="exact")
    assert rank_k_cdf(p, h) == exact
    assert abs(numerics.bo_cdf(p, h) - float(exact)) < 1e-12


# The float route's regression grid, over the hard corners (alpha near 1,
# t = -1, n in the tens): m = n, h = round(c n) with c from
# `asymptotics.constants`.  A reference of None is the exact Toeplitz route,
# run here (h <= 100); the others are the exact rank-k determinant
# (`rank_k_cdf`) as floor(10^30 P), committed because each takes seconds to
# minutes.
REGRESSION_GRID = {
    15: [("1/5", "0", 8, None), ("1/5", "-1/2", 9, None), ("1/5", "-1", 10, None),
         ("1/5", "-3", 13, None), ("1/2", "0", 30, None), ("1/2", "-1/2", 33, None),
         ("1/2", "-1", 35, None), ("1/2", "-3", 39, None),
         ("4/5", "0", 120, 971920412109612660488600625938),
         ("4/5", "-1/2", 124, 970601170533699805412382880290),
         ("4/5", "-1", 127, 973401335767499504741151462299),
         ("4/5", "-3", 131, 973738335245019681419414298732),
         ("9/10", "0", 270, 971878419265538183199826041264),
         ("9/10", "-1/2", 275, 972609045521550027581517788980),
         ("9/10", "-1", 277, 971652280079257933200383697471),
         ("9/10", "-3", 281, 971994355689281294921174680771)],
    25: [("1/5", "0", 12, None), ("1/5", "-1/2", 15, None), ("1/5", "-1", 16, None),
         ("1/5", "-3", 21, None), ("1/2", "0", 50, None), ("1/2", "-1/2", 55, None),
         ("1/2", "-1", 58, None), ("1/2", "-3", 65, None),
         ("4/5", "0", 200, 971208111339090751529014801846),
         ("4/5", "-1/2", 207, 970652473691014944048076317134),
         ("4/5", "-1", 211, 970780956478363525694262534882),
         ("4/5", "-3", 218, 972559291377305117711673455431),
         ("9/10", "0", 450, 971178196248064316619417709815),
         ("9/10", "-1/2", 458, 971619210550173389650100294889),
         ("9/10", "-1", 462, 971467604111391858242874267824),
         ("9/10", "-3", 468, 970728277718089969865270678983)],
    40: [("1/5", "0", 20, None), ("1/5", "-1/2", 24, None), ("1/5", "-1", 26, None),
         ("1/5", "-3", 34, None), ("1/2", "0", 80, None), ("1/2", "-1/2", 88, None),
         ("1/2", "-1", 93, None),
         ("1/2", "-3", 104, 971959123530574862179356042183),
         ("4/5", "0", 320, 970725842313864752072242466185),
         ("4/5", "-1/2", 331, 969260150633352312307655027926),
         ("4/5", "-1", 338, 971476120214362699470849833376),
         ("4/5", "-3", 348, 969933469526765043184850833297),
         ("9/10", "0", 720, 970703959281829371192388151508),
         ("9/10", "-1/2", 732, 970040151622767229737622250305),
         ("9/10", "-1", 739, 970788075662618602067898736242),
         ("9/10", "-3", 749, 970402318811992616743685782207)],
}


@pytest.mark.parametrize("n", sorted(REGRESSION_GRID))
def test_float_route_meets_the_regression_grid(n):
    for alpha, t, h, ref in REGRESSION_GRID[n]:
        p = MeasureParams(n, n, F(alpha), F(t))
        want = lambda1_cdf_exact(p, h, mode="exact") if ref is None else F(ref, 10 ** 30)
        assert abs(lambda1_cdf_exact(p, h, mode="float") - float(want)) < 1e-10, (alpha, t, h)


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
