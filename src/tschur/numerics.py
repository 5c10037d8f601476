"""Symbol coefficients, Toeplitz determinants, and the Borodin-Okounkov route.

The symbol is phi(z) = E~_{x,t}(z) E_y(z) specialized at x = alpha^m,
y = alpha^n; its Fourier coefficients reduce to the finite sum
phi_k = sum_j e_j(x;t) e_{j+k}(y), because e_l(y) vanishes beyond l = n.
det T_h(phi)/Z_t is the lambda_1 CDF (Gessel identity); the same quantity is
recovered as a finite-section Fredholm determinant of a Hankel product
(Borodin-Okounkov), which serves as an independent cross-check.  One
fraction-free Levinson recurrence, O(h^2) ring operations, computes det T_h
over the rationals and over alpha-series (for the degreewise Gessel check),
each cleared to integer coefficients; a grid of h shares one pass: its
leading minors.  The Hankel entries psi_k are (-alpha)^k times a polynomial
in k of degree n-1 or m-1 with rational coefficients; they are built in
integer arithmetic (by `series._taylor_ode`) and each is rounded once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .series import TruncatedSeries, _taylor_ode, det_gauss, first_mismatch
from .symfunc import SpecializedVars, gen_e_coeffs, on_even_degrees, weights_by_size

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


def _phi_terms(m, n, x, t, kmin, kmax):
    """For each k in [kmin, kmax], the terms e_j(x^m;t) e_{j+k}(x^n) of phi_k
    for j = max(0, -k) .. n - k: e_l(x^n) vanishes beyond l = n, so the sum
    is finite for every alpha and t."""
    ext = gen_e_coeffs(SpecializedVars(m, x), t, n - kmin)
    ey = gen_e_coeffs(SpecializedVars(n, x), 0, n)
    return [[ext.coeff(j) * ey.coeff(j + k) for j in range(max(0, -k), n - k + 1)]
            for k in range(kmin, kmax + 1)]


def symbol_phi(params, kmin, kmax, exact=True):
    """Coefficients of phi = E~_{x,t} E_y on the index window [kmin, kmax].

    The sums run in the scalars of `params`: exact rationals for rational
    parameters, on the whole domain t <= 0 (each phi_k is a finite sum).
    `exact=False`, the former double-precision route, is no longer offered.
    """
    if kmin > 0 or kmax < 0:
        raise ValueError("window must contain 0")
    if not exact:
        raise ValueError("symbol_phi has only the exact route")
    coeffs = [sum(row, Fraction(0))
              for row in _phi_terms(params.m, params.n, params.alpha, params.t, kmin, kmax)]
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
    rows = _phi_terms(m, n, Fraction(1), t, kmin, kmax)
    # the terms sit on every other degree from alpha^|k| (j starts at max(0, -k))
    return SymbolCoefficients(kmin, kmax, [
        TruncatedSeries([Fraction(0)] * abs(k) + on_even_degrees(row, degree).coeffs, degree)
        for k, row in zip(range(kmin, kmax + 1), rows)])


def _toeplitz_rows(sym, h):
    return [[sym.coeff(i - j) for j in range(h)] for i in range(h)]


def toeplitz_det(sym, h):
    """Exact determinant of the h x h Toeplitz slice T_h(phi).

    `h` may be an int or a sequence of ints (returns a list with one value
    per h); every det T_k is a prefix value of one pass at the largest h.
    The symbol must be rational or an alpha-series one: the fraction-free
    Levinson pass of `_leading_minors` takes O(h^2) ring operations, and an
    h beyond a vanishing leading minor takes `det_gauss` (for a rational
    symbol; `toeplitz_det_series` states the alpha-series precondition).
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


def _exact_series_div(num, den):
    """num / den for series with integer coefficients (den may be an int),
    by truncated long division; each coefficient goes through `_exact_div`."""
    d = den.coeffs if isinstance(den, TruncatedSeries) else [den]
    q = []
    for j, nj in enumerate(num.coeffs):
        q.append(_exact_div(nj - sum(map(operator.mul, d[1 : j + 1], reversed(q))), d[0]))
    return TruncatedSeries(q, num.order)


def _leading_minors(sym, h):
    """[det T_0, ..., det T_k] as Fractions (alpha-series for such a symbol),
    with k = h unless a leading minor below h - 1 vanishes (then k is its
    order plus one).

    After the conjugation phi_k -> a^k phi_k (a = `sym.scale`) the entries
    are cleared with one denominator D, to integers or to series with integer
    coefficients, and `_levinson` runs with that ring's exact division; then
    det T_k = d_k / D^k.  Over alpha-series the divisors, the minors below
    h - 1, need constant terms (the minors of T_h mod alpha) that do not
    vanish; T_h = I mod alpha gives D^k, and long division by it is exact.
    """
    a = Fraction(sym.scale)
    entries = [sym.coeff(k) * a ** k for k in range(1 - h, h)]
    if entries and all(isinstance(v, TruncatedSeries) for v in entries):
        w = min(v.order for v in entries) + 1
        flat, den = _integers([Fraction(x) for v in entries for x in v.coeffs[:w]])
        c = [TruncatedSeries(flat[i : i + w]) for i in range(0, len(flat), w)]
        if 0 in _levinson([v.coeffs[0] for v in c], h, _exact_div)[: h - 1]:
            raise ValueError("alpha-series minors below h - 1 need a nonzero constant term")
        div = _exact_series_div
    elif all(isinstance(v, Rational) for v in entries):
        c, den = _integers(entries)
        div = _exact_div
    else:
        raise ValueError("the exact Toeplitz determinant needs rational (or alpha-series) "
                         "symbol coefficients")
    return [dk * Fraction(1, den ** k) for k, dk in enumerate(_levinson(c, h, div))]


def _levinson(c, h, div):
    """[d_0, ..., d_k], the leading minors of the h x h Toeplitz matrix with
    entries c[h - 1 + k] = c_k in an integral domain whose exact division is
    `div(num, den)`; k = h unless a minor below h - 1 vanishes (then k is
    its order plus one).

    With the adjugate columns A, B of C_k (C_k A = d_k e_1, C_k B = d_k e_k),
    the step to order k+1 with g = sum_j c_{k-j} A_j and
    e = sum_j c_{-1-j} B_j is

        d_{k+1} = (d_k^2 - g e) / d_{k-1}
        A' = (d_k [A; 0] - g [0; B]) / d_{k-1}
        B' = (d_k [0; B] - e [A; 0]) / d_{k-1},

    every division exact (Bareiss, Numer. Math. 1969).
    """
    dets = [1, c[h - 1]] if h else [1]
    A = B = [1]
    for k in range(1, h):
        dk, dk1 = dets[k], dets[k - 1]
        if dk1 == 0:
            break
        g = sum(map(operator.mul, reversed(c[h : h + k]), A))
        e = sum(map(operator.mul, reversed(c[h - 1 - k : h - 1]), B))
        dets.append(div(dk * dk - g * e, dk1))
        if k + 1 < h:
            A0, B0 = A + [0], [0] + B
            A = [div(dk * x - g * y, dk1) for x, y in zip(A0, B0)]
            B = [div(dk * y - e * x, dk1) for x, y in zip(A0, B0)]
    return dets


def toeplitz_det_series(sym, h):
    """det T_h of an alpha-series symbol (`symbol_phi_alpha_series`), as a
    series through the entries' truncation order; `h` an int or a sequence,
    as in `toeplitz_det`, whose pass it is.  Every leading minor below h - 1
    must have a nonzero constant term, as T_h = I mod alpha ensures, or it
    raises ValueError."""
    return toeplitz_det(sym, h)


def gessel_lhs_alpha_series(m, n, t, h, degree):
    """Gessel's partition sum of S_lambda(alpha^m;t) s_lambda(alpha^n) over
    lambda_1 <= h as an exact alpha-series through `degree`:
    `symfunc.weights_by_size` placed on the even degrees."""
    return on_even_degrees(weights_by_size(m, n, t, degree // 2, max_part=h), degree)


def gessel_check(m, n, t, h, degree):
    """Degreewise verification of Gessel's identity through alpha^degree at
    every h' <= h: the partition sum over lambda_1 <= h' equals det T_h' of
    the alpha-series symbol, all det T_h' from one pass.  Returns (ok,
    mismatch) as `symfunc.cauchy_check` does, with the mismatch
    (h', k, lhs_k, rhs_k) at the first h' that fails."""
    sym = symbol_phi_alpha_series(m, n, t, -(max(h, 1) - 1), max(h - 1, 0), degree)
    for hh, det in enumerate(toeplitz_det_series(sym, range(h + 1))):
        mismatch = first_mismatch(gessel_lhs_alpha_series(m, n, t, hh, degree), det, degree)
        if mismatch is not None:
            return False, (hh, *mismatch)
    return True, None


def _hankel_entries(P, Q, y0, deg, alpha, kmin, kmax):
    """(-alpha)^k sum_{s<=deg} y_s C(k+deg-s, deg-s) for kmin <= k <= kmax,
    each correctly rounded to a double, where y solves P y' = Q y, y(0) = y0
    (alpha and y0 Fractions).

    With Y from `_taylor_ode`, the sum is y0 T_0(k) / (P_0^deg deg!), where
    T_j(k) = sum_{r>=j} c_r C(k+r-j, r-j) with the integers
    c_r = Y_{deg-r} P_0^r deg!/(deg-r)!.  T_j(-1) = c_j, and Pascal's rule
    gives T_j(k) = T_j(k-1) + T_{j+1}(k), so every T_0(k) follows from
    k = -1 by additions alone.
    """
    Y = _taylor_ode(P, Q, deg + 1)
    sums, lead = [], 1  # lead = P_0^r deg!/(deg-r)!
    for r in range(deg + 1):
        sums.insert(0, Y[deg - r] * lead)  # T_deg first, T_0 last
        lead *= P[0] * (deg - r)
    scale = y0 / (P[0] ** deg * math.factorial(deg))
    num = scale.numerator * (-alpha.numerator) ** kmin
    den = scale.denominator * alpha.denominator ** kmin
    out = []
    for k in range(kmax + 1):
        sums = list(itertools.accumulate(sums))
        if k >= kmin:
            out.append(_rounded(num, sums[-1], den))
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
    """(ints, den): rational coefficients scaled by their least common
    denominator den, so ints[i] = den * coeffs[i]."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
    m, n = params.m, params.n
    alpha, t = Fraction(params.alpha), Fraction(params.t)
    A, B = 1 - alpha * alpha, 1 - t * alpha * alpha
    # (w-A)(w-B) f' = m (A-B) f
    pq, _ = _integers([A * B, -(A + B), 1, m * (A - B)])
    psi1 = _hankel_entries(pq[:3], pq[3:], (A / B) ** m, n - 1, alpha, kmin, kmax)
    # ((1-t)+tw)(w-A)(w-1) g' = (m t (w-A)(w-1) + n (A-1) ((1-t)+tw)) g
    c0, r0, r1 = 1 - t, A, -(A + 1)
    pq, _ = _integers([c0 * r0, c0 * r1 + t * r0, c0 + t * r1, t,
                       m * t * r0 + n * (A - 1) * c0, m * t * r1 + n * (A - 1) * t, m * t])
    psi2 = _hankel_entries(pq[:4], pq[4:], (1 - t) ** m * A ** n, m - 1, alpha, kmin, kmax)
    return psi1, psi2


def bo_cdf(params, h):
    """P(lambda_1 <= h) by the finite-section Fredholm determinant
    det(I - H1 H2) restricted to indices h..N-1, N = h + `default_section`.

    `h` may be an int (returns a float) or a sequence of ints (returns a
    list with one float per h).  The Hankel entries come from one
    `hankel_symbols` build over [min h + 1, max 2N - 1]; every section is a
    slice of it, and the entries do not depend on the window, so the values
    match single calls bit for bit.  The sign-diagonal conjugation by J
    leaves the determinant unchanged, so it is not applied explicitly.  A
    determinant outside [0, 1] by more than _CDF_TOL raises ArithmeticError;
    inside, the value is returned as computed, not clamped.
    """
    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if not hs:
        return []
    section = default_section(params)
    base = min(hs) + 1
    psi1, psi2 = hankel_symbols(params, base, 2 * (max(hs) + section) - 1)
    vals = []
    for hh in hs:
        end = hh + section
        rows = np.arange(hh, end)
        inner = np.arange(end)
        hank1 = psi1[rows[:, None] + inner[None, :] + 1 - base]
        hank2 = psi2[inner[:, None] + rows[None, :] + 1 - base]
        block = hank1 @ hank2
        val = float(np.linalg.det(np.eye(section) - block))
        if not -_CDF_TOL <= val <= 1.0 + _CDF_TOL:
            raise ArithmeticError(f"bo_cdf at h={hh}, N={end}: {val!r} lies outside [0, 1] "
                                  f"by more than {_CDF_TOL}")
        vals.append(val)
    return vals[0] if single else vals


def default_section(params):
    """Tail size max(60, ceil(10 / log(1/a)), ceil(16 max(m,n)^(1/3))), with
    a = alpha: the decay rate of the Hankel entries (-alpha)^k P(k) on all
    t <= 0, then the Airy window of width ~ n^(1/3) that the section must
    clear before that decay sets in.  It carries no certified bound:
    a^(10/log(1/a)) = e^-10 for one neglected entry, before a factor
    polynomial in k of degree n - 1.
    """
    a = float(params.alpha)
    tail = max(60, math.ceil(10 / math.log(1 / a)))
    return int(max(tail, math.ceil(16 * max(params.m, params.n) ** (1.0 / 3.0))))
