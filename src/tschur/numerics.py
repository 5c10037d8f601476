"""Symbol coefficients, Toeplitz determinants, and the Borodin-Okounkov route.

The symbol is phi(z) = E~_{x,t}(z) E_y(z) specialized at x = alpha^m,
y = alpha^n; its Fourier coefficients reduce to the finite sum
phi_k = sum_j e_j(x;t) e_{j+k}(y), because e_l(y) vanishes beyond l = n.
det T_h(phi)/Z_t is the lambda_1 CDF (Gessel identity); the same quantity is
recovered as a finite-section Fredholm determinant of a Hankel product
(Borodin-Okounkov), which serves as an independent cross-check.  The exact
det T_h is computed in integers by fraction-free Levinson, O(h^2)
operations, and a grid of h shares one pass: its leading minors.  The
Hankel entries psi_k are (-alpha)^k times a polynomial in k of degree n-1
or m-1 with rational coefficients; they are built in integer arithmetic
and each is rounded once to a double.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import TruncatedSeries, det_expansion, det_gauss, first_mismatch
from .symfunc import SpecializedVars, gen_e_coeffs, weights_by_size

_CDF_TOL = 1e-8  # largest excursion outside [0, 1] that `bo_cdf` accepts


@dataclass
class SymbolCoefficients:
    """Fourier coefficients phi_k for kmin <= k <= kmax.

    `scale` is a nonzero a for which the a^k phi_k have small denominators;
    `toeplitz_det` conjugates by diag(a^i), which leaves every leading
    minor unchanged.
    """

    kmin: int
    kmax: int
    coeffs: list  # coeffs[i] = phi_{kmin + i}
    scale: object = 1

    def coeff(self, k):
        if not (self.kmin <= k <= self.kmax):
            raise IndexError(f"coefficient index {k} outside [{self.kmin}, {self.kmax}]")
        return self.coeffs[k - self.kmin]


def _check_params(params):
    if abs(params.t * params.alpha) >= 1:
        raise ValueError("|t*alpha| must be below 1 for the symbol to converge")


def symbol_phi(params, kmin, kmax, exact=True):
    """Coefficients of phi = E~_{x,t} E_y on the index window [kmin, kmax].

    The sums run in the scalars of `params`: exact rationals for rational
    parameters.  `exact=False`, the former double-precision route, is no
    longer offered.
    """
    if kmin > 0 or kmax < 0:
        raise ValueError("window must contain 0")
    if not exact:
        raise ValueError("symbol_phi has only the exact route")
    _check_params(params)
    jmax = params.n - kmin
    ext = gen_e_coeffs(SpecializedVars(params.m, params.alpha), params.t, jmax)
    ey = gen_e_coeffs(SpecializedVars(params.n, params.alpha), 0, params.n)
    coeffs = []
    for k in range(kmin, kmax + 1):
        acc = Fraction(0)
        for j in range(max(0, -k), params.n - k + 1):
            acc += ext.coeff(j) * ey.coeff(j + k)
        coeffs.append(acc)
    # e_j(x;t) is alpha^j times a polynomial of degree j in t, and e_l(y)
    # is alpha^l C(n, l), so alpha^k phi_k is a polynomial in alpha^2,
    # and dividing the scale by den(t) also keeps the powers of den(t)
    # in the denominators from growing with |k|
    scale = Fraction(params.alpha) / Fraction(params.t).denominator
    return SymbolCoefficients(kmin, kmax, coeffs, scale)


def symbol_phi_alpha_series(m, n, t, kmin, kmax, degree):
    """phi_k as exact polynomials in alpha, truncated at alpha-degree `degree`.

    Uses homogeneity: e_j(alpha^m;t) = e_j(1^m;t) alpha^j, so
    phi_k = sum_j e_j(1^m;t) e_{j+k}(1^n) alpha^(2j+k).
    """
    one = Fraction(1)
    jmax = n - kmin
    ext = gen_e_coeffs(SpecializedVars(m, one), t, jmax)
    ey = gen_e_coeffs(SpecializedVars(n, one), 0, n)
    coeffs = []
    for k in range(kmin, kmax + 1):
        poly = [Fraction(0)] * (degree + 1)
        for j in range(max(0, -k), n - k + 1):
            d = 2 * j + k
            if d <= degree:
                poly[d] += ext.coeff(j) * ey.coeff(j + k)
        coeffs.append(TruncatedSeries(poly, 0, degree))
    return SymbolCoefficients(kmin, kmax, coeffs)


def _toeplitz_rows(sym, h):
    return [[sym.coeff(i - j) for j in range(h)] for i in range(h)]


def toeplitz_det(sym, h):
    """Exact determinant of the h x h Toeplitz slice T_h(phi).

    `h` may be an int or a sequence of ints (returns a list with one value
    per h); every det T_k is a prefix value of one pass at the largest h.
    The symbol must be rational: the fraction-free Levinson pass of
    `_leading_minors` takes O(h^2) integer operations, and an h beyond a
    vanishing leading minor takes `det_gauss`.
    """
    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if any(hh < 0 for hh in hs):
        raise ValueError("h must be nonnegative")
    minors = _leading_minors(sym, max(hs, default=0))
    vals = [minors[hh] if hh < len(minors) else det_gauss(_toeplitz_rows(sym, hh)) for hh in hs]
    return vals[0] if single else vals


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division by {den} in the fraction-free Levinson pass")
    return q


def _leading_minors(sym, h):
    """[det T_0, ..., det T_k] as Fractions, with k = h unless a leading
    minor below h - 1 vanishes (then k is its order plus one).  Every entry
    must be rational.

    After the conjugation phi_k -> a^k phi_k (a = `sym.scale`) the entries
    are cleared to integers c_k = D a^k phi_k.  With d_k = det C_k and the
    adjugate columns A, B of C_k (C_k A = d_k e_1, C_k B = d_k e_k), the
    step to order k+1 with g = sum_j c_{k-j} A_j and e = sum_j c_{-1-j} B_j
    is

        d_{k+1} = (d_k^2 - g e) / d_{k-1}
        A' = (d_k [A; 0] - g [0; B]) / d_{k-1}
        B' = (d_k [0; B] - e [A; 0]) / d_{k-1},

    every division exact (Bareiss, Numer. Math. 1969); then
    det T_k = d_k / D^k.
    """
    entries = [sym.coeff(k) for k in range(1 - h, h)]
    if not all(isinstance(v, (int, Fraction)) for v in entries):
        raise ValueError("the exact Toeplitz determinant needs rational symbol coefficients")
    a = Fraction(sym.scale)
    entries = [Fraction(v) * a ** k for k, v in zip(range(1 - h, h), entries)]
    den = math.lcm(*(v.denominator for v in entries))
    c = [v.numerator * (den // v.denominator) for v in entries]  # c[h - 1 + k] = c_k
    dets = [1, c[h - 1]] if h else [1]
    A = B = [1]
    for k in range(1, h):
        dk, dk1 = dets[k], dets[k - 1]
        if dk1 == 0:
            break
        g = sum(map(operator.mul, reversed(c[h : h + k]), A))
        e = sum(map(operator.mul, reversed(c[h - 1 - k : h - 1]), B))
        dets.append(_exact_div(dk * dk - g * e, dk1))
        if k + 1 < h:
            A0, B0 = A + [0], [0] + B
            A = [_exact_div(dk * x - g * y, dk1) for x, y in zip(A0, B0)]
            B = [_exact_div(dk * y - e * x, dk1) for x, y in zip(A0, B0)]
    return [Fraction(dk, den ** k) for k, dk in enumerate(dets)]


def toeplitz_det_series(sym, h):
    """Toeplitz determinant with truncated-series entries (degreewise work)."""
    return det_expansion(_toeplitz_rows(sym, h))


def gessel_lhs_alpha_series(m, n, t, h, degree):
    """Gessel's partition sum of S_lambda(alpha^m;t) s_lambda(alpha^n) over
    lambda_1 <= h as an exact alpha-series through `degree`:
    `symfunc.weights_by_size` placed on the even degrees."""
    w = weights_by_size(m, n, t, degree // 2, max_part=h)
    return TruncatedSeries([c for wk in w for c in (wk, Fraction(0))], 0, degree)


def gessel_check(m, n, t, h, degree):
    """Degreewise verification of Gessel's identity through alpha^degree:
    the partition sum over lambda_1 <= h equals det T_h of the alpha-series
    symbol.  Returns (ok, mismatch) as `symfunc.cauchy_check` does."""
    lhs = gessel_lhs_alpha_series(m, n, t, h, degree)
    sym = symbol_phi_alpha_series(m, n, t, -(max(h, 1) - 1), max(h - 1, 0), degree)
    mismatch = first_mismatch(lhs, toeplitz_det_series(sym, h), degree)
    return mismatch is None, mismatch


def _taylor_ode(P, Q, count):
    """Integers Y_0..Y_{count-1} with y_l = y_0 Y_l / (P_0^l l!), where
    y = sum_l y_l w^l solves P(w) y' = Q(w) y.

    P and Q are integer coefficient lists, P_0 != 0.  The coefficients obey
    P_0 (l+1) y_{l+1} = sum_i Q_i y_{l-i} - sum_{i>=1} P_i (l+1-i) y_{l+1-i};
    scaled by P_0^l l! every step stays in integers, so no gcd runs.
    """
    Y = [1]
    for l in range(count - 1):
        acc, fall, power = 0, 1, 1  # fall = l!/(l-i)!, power = P_0^i
        for i in range(min(l + 1, max(len(P), len(Q)))):
            if i:
                fall *= l - i + 1
                if i < len(P):
                    acc -= P[i] * power * fall * Y[l + 1 - i]
                power *= P[0]
            if i < len(Q):
                acc += Q[i] * power * fall * Y[l - i]
        Y.append(acc)
    return Y


def _hankel_entries(P, Q, y0, deg, alpha, kmin, kmax):
    """(-alpha)^k sum_{s<=deg} y_s C(k+deg-s, deg-s) for kmin <= k <= kmax,
    each correctly rounded to a double, where y solves P y' = Q y, y(0) = y0
    (alpha and y0 Fractions).

    With Y from `_taylor_ode`, the sum is y0 U_0(k) / (P_0^deg deg!^2), and
    the integer U_0(k) comes from Horner's rule
    U_j = Y_{deg-j} P_0^j deg!^2 / ((deg-j)! j!) + (k+j+1) U_{j+1}
    on the first deg+1 points of the window.  U_0 has degree deg, so the
    rest follow by additions from the backward differences at the last of
    them.
    """
    Y = _taylor_ode(P, Q, deg + 1)
    fd = math.factorial(deg)
    coef, lead = [], 1  # lead = P_0^j deg!/(deg-j)!
    for j in range(deg + 1):
        coef.append(Y[deg - j] * lead * (fd // math.factorial(j)))
        lead *= P[0] * (deg - j)

    def horner(k):
        u = 0
        for j in range(deg, -1, -1):
            u = u * (k + j + 1) + coef[j]
        return u

    vals = [horner(k) for k in range(kmin, min(kmax, kmin + deg) + 1)]
    diffs = []  # backward differences at the last value, highest order first
    row = vals
    while row:
        diffs.insert(0, row[-1])
        row = [y - x for x, y in zip(row, row[1:])]
    for _ in range(kmin + len(vals), kmax + 1):
        # the highest difference is constant; each lower one adds the next
        diffs = list(itertools.accumulate(diffs))
        vals.append(diffs[-1])

    scale = y0 / (P[0] ** deg * fd * fd)
    num = scale.numerator * (-alpha.numerator) ** kmin
    den = scale.denominator * alpha.denominator ** kmin
    out = []
    for u in vals:
        out.append(_rounded(num, u, den))
        num *= -alpha.numerator
        den *= alpha.denominator
    return np.array(out)


def _rounded(a, b, d):
    """a * b / d correctly rounded to a double, for ints a, b and d > 0.

    The leading 96 bits of |a|, |b| and d bound the quotient to a relative
    width of about 2^-94.  Rounding is monotone, so when both bounds round
    to the same double (CPython's int / int rounds correctly), so does the
    quotient; otherwise, as at a tie, the full product is divided.  The
    2048-bit threshold is the measured crossover (CPython 3.11, Xeon): the
    bounds cost about 2.5-3.9 us at any size, the full product 0.8 us at
    512 bits, 2.5 us at 2048 and 10.6 us at 4096.  On converge's windows
    they make the build 1.5-3 times faster than `a * b / d` alone.
    """
    if a.bit_length() + b.bit_length() < 2048 or not (a and b):
        return a * b / d
    x, y = abs(a), abs(b)
    cx, cy, cd = (max(v.bit_length() - 96, 0) for v in (x, y, d))
    xt, yt, dt = x >> cx, y >> cy, d >> cd
    xh, yh, dh = xt + (cx > 0), yt + (cy > 0), dt + (cd > 0)
    shift = cx + cy - cd  # x y / d lies in [xt yt, xh yh] 2^shift / [dt, dh]
    if shift >= 0:
        lo, hi = (xt * yt << shift) / dh, (xh * yh << shift) / dt
    else:
        lo, hi = xt * yt / (dh << -shift), xh * yh / (dt << -shift)
    if lo != hi:
        return a * b / d
    return -lo if (a < 0) != (b < 0) else lo


def _integers(coeffs):
    """Rational coefficients scaled by their least common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


def hankel_symbols(params, kmin, kmax):
    """psi1_k and psi2_k for kmin <= k <= kmax, correctly rounded doubles.

    psi1 = E~_{x,t} E_y^{-1} and psi2 = E_{x,t}^{-1} E~_y.  With
    w = 1 + alpha z, A = 1 - alpha^2 and B = 1 - t alpha^2,
    psi1 = f(w) w^{-n} with f = ((w-A)/(w-B))^m and psi2 = g(w) w^{-m} with
    g = ((1-t)+tw)^m ((w-A)/(w-1))^n; the other poles of psi1 and psi2 add
    only nonpositive powers of z, so for k >= 1

        psi1_k = (-alpha)^k sum_{r=1..n} f_{n-r} C(k+r-1, r-1)
        psi2_k = (-alpha)^k sum_{r=1..m} g_{m-r} C(k+r-1, r-1),

    polynomials in k of degree n-1 and m-1 times (-alpha)^k.  Everything is
    computed exactly from Fraction(alpha) and Fraction(t) (a float is taken
    at its binary value), and each entry is rounded once.
    """
    if kmin < 1 or kmax < kmin:
        raise ValueError("need 1 <= kmin <= kmax")
    _check_params(params)
    m, n = params.m, params.n
    alpha, t = Fraction(params.alpha), Fraction(params.t)
    A, B = 1 - alpha * alpha, 1 - t * alpha * alpha
    # (w-A)(w-B) f' = m (A-B) f
    pq = _integers([A * B, -(A + B), 1, m * (A - B)])
    psi1 = _hankel_entries(pq[:3], pq[3:], (A / B) ** m, n - 1, alpha, kmin, kmax)
    # ((1-t)+tw)(w-A)(w-1) g' = (m t (w-A)(w-1) + n (A-1) ((1-t)+tw)) g
    c0, r0, r1 = 1 - t, A, -(A + 1)
    pq = _integers([c0 * r0, c0 * r1 + t * r0, c0 + t * r1, t,
                    m * t * r0 + n * (A - 1) * c0, m * t * r1 + n * (A - 1) * t, m * t])
    psi2 = _hankel_entries(pq[:4], pq[4:], (1 - t) ** m * A ** n, m - 1, alpha, kmin, kmax)
    return psi1, psi2


def bo_cdf(params, h, N=None):
    """P(lambda_1 <= h) by the finite-section Fredholm determinant
    det(I - H1 H2) restricted to indices h..N-1.

    `h` may be an int (returns a float) or a sequence of ints (returns a
    list with one float per h).  The Hankel entries come from one
    `hankel_symbols` build over [min h + 1, max 2N - 1]; every section is a
    slice of it, and the entries do not depend on the window, so the values
    match single calls bit for bit.  `N`, if given, is the section end for
    every h.  The sign-diagonal conjugation by J leaves the determinant
    unchanged, so it is not applied explicitly.  A determinant outside
    [0, 1] by more than _CDF_TOL raises ArithmeticError; inside, the value
    is returned as computed, not clamped.
    """
    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if not hs:
        return []
    section = default_section(params) if N is None else None
    ends = [N if N is not None else hh + section for hh in hs]
    if any(end <= hh for hh, end in zip(hs, ends)):
        raise ValueError("N must exceed h")
    base = min(hs) + 1
    psi1, psi2 = hankel_symbols(params, base, max(2 * end - 1 for end in ends))
    vals = []
    for hh, end in zip(hs, ends):
        rows = np.arange(hh, end)
        inner = np.arange(end)
        hank1 = psi1[rows[:, None] + inner[None, :] + 1 - base]
        hank2 = psi2[inner[:, None] + rows[None, :] + 1 - base]
        block = hank1 @ hank2
        val = float(np.linalg.det(np.eye(end - hh) - block))
        if not -_CDF_TOL <= val <= 1.0 + _CDF_TOL:
            raise ArithmeticError(f"bo_cdf at h={hh}, N={end}: {val!r} lies outside [0, 1] "
                                  f"by more than {_CDF_TOL}")
        vals.append(val)
    return vals[0] if single else vals


def default_section(params):
    """Tail size keeping the neglected Hankel block below ~1e-12.

    Two regimes: geometric decay of the coefficients (rate alpha, or
    t*alpha), and the Airy transition window of width ~ n^(1/3) that the
    section must clear before that decay kicks in.
    """
    a = float(params.alpha) * max(1.0, abs(float(params.t)))
    if a >= 1:
        raise ValueError("invalid decay rate")
    tail = max(60, math.ceil(10 / math.log(1 / a)))
    return int(max(tail, math.ceil(16 * max(params.m, params.n) ** (1.0 / 3.0))))
