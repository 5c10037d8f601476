"""Symbol coefficients, Toeplitz determinants, and the Borodin-Okounkov route.

The symbol is phi(z) = E~_{x,t}(z) E_y(z) specialized at x = alpha^m,
y = alpha^n; phi_k = sum_j e_j(x;t) e_{j+k}(y) is a finite sum, and
det T_h(phi)/Z_t is the lambda_1 CDF (Gessel identity).  One fraction-free
Levinson recurrence, O(h^2) integer operations, computes det T_h of a
rational symbol cleared to integers; a grid of h shares one pass (its
leading minors, each below the largest h - 1 a divisor that must not
vanish).  Both sides of Gessel's identity are polynomials in alpha^2, so
`gessel_check` compares exact values at enough points.  The float route
evaluates the same CDF as the Borodin-Okounkov determinant det(I - H1 H2),
exactly reduced to a min(m, n) x min(m, n) determinant in the Meixner
basis: no section.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .series import TruncatedSeries, _taylor_ode, det_gauss
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

    The sums run in exact rationals, on the whole domain t <= 0 (each phi_k
    is a finite sum).
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
    scale = params.alpha / params.t.denominator
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


def _grid(h):
    """(single, hs) for an int h or a sequence of them, each read through
    `operator.index` (a NumPy integer would overflow) and checked nonnegative."""
    single = np.ndim(h) == 0
    hs = [operator.index(hh) for hh in ([h] if single else h)]
    if any(hh < 0 for hh in hs):
        raise ValueError("h must be nonnegative")
    return single, hs


def toeplitz_det(sym, h):
    """Exact determinant of the h x h Toeplitz slice T_h(phi), phi rational.

    `h` may be an int or a sequence of ints (returns a list with one value
    per h): the leading minors of one fraction-free `_levinson` pass at the
    largest h, O(h^2) integer operations.  The entries, conjugated by
    phi_k -> a^k phi_k (a = `sym.scale`), are cleared with one denominator D
    to integers, so det T_k = d_k / D^k.  The pass divides by every d_k
    below the largest h - 1: each must be nonzero, or ValueError is raised.
    The measure's d_k are D^k Z_t P(lambda_1 <= k) > 0.  A float or series
    entry raises ValueError.
    """
    single, hs = _grid(h)
    top = max(hs, default=0)
    a = Fraction(sym.scale)
    entries = [sym.coeff(k) * a ** k for k in range(1 - top, top)]
    if not all(isinstance(v, Rational) for v in entries):
        raise ValueError("the exact Toeplitz determinant needs rational symbol coefficients")
    c, den = _integers(entries)
    minors = _levinson(c, top, _exact_div)
    vals = [minors[hh] * Fraction(1, den ** hh) for hh in hs]
    return vals[0] if single else vals


def _exact_div(num, den):
    if not den:
        raise ValueError("the Levinson pass divides by every leading minor below h - 1: "
                         "each must be nonzero")
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division by {den} in the fraction-free Levinson pass")
    return q


def _levinson(c, h, div):
    """[d_0, ..., d_h], the leading minors of the h x h Toeplitz matrix with
    entries c[h - 1 + k] = c_k in an integral domain whose exact division is
    `div(num, den)`, which must raise on a zero divisor d_k, k < h - 1.

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
        g = sum(map(operator.mul, reversed(c[h : h + k]), A))
        e = sum(map(operator.mul, reversed(c[h - 1 - k : h - 1]), B))
        dets.append(div(dk * dk - g * e, dk1))
        if k + 1 < h:
            A0, B0 = A + [0], [0] + B
            A = [div(dk * x - g * y, dk1) for x, y in zip(A0, B0)]
            B = [div(dk * y - e * x, dk1) for x, y in zip(A0, B0)]
    return dets


def toeplitz_det_series(sym, h):
    """det T_h of an alpha-series symbol (`symbol_phi_alpha_series`), for an
    int h, as a series through the entries' truncation order: `det_gauss`
    over the series entries.  Every pivot it meets must have a nonzero
    constant term; T_h = I mod alpha provides them for the measure's symbol."""
    return det_gauss([[sym.coeff(i - j) for j in range(h)] for i in range(h)])


def gessel_lhs_alpha_series(m, n, t, h, degree):
    """Gessel's partition sum of S_lambda(alpha^m;t) s_lambda(alpha^n) over
    lambda_1 <= h as an exact alpha-series through `degree`:
    `symfunc.weights_by_size` placed on the even degrees."""
    return on_even_degrees(weights_by_size(m, n, t, degree // 2, max_part=h), degree)


def gessel_check(m, n, t, h):
    """Gessel's identity at every h' <= h, t <= 0, as polynomials in
    rho = alpha^2: the partition sum over lambda_1 <= h' equals det T_h'(phi).

    Both sides have rho-degree at most h n: a partition in the h' x n box
    has |lambda| <= h' n, and each conjugated entry alpha^k phi_k =
    sum_j e_j(1^m;t) e_{j+k}(1^n) rho^(j+k) has rho-degree at most n, as
    e_l(1^n) vanishes beyond l = n.  So exact values at the h n + 1 points
    alpha = 1/(j+2) settle it: one `toeplitz_det` pass per point gives every
    det T_h', and the partition side is `weights_by_size` in Horner form.
    Returns (ok, mismatch) as `symfunc.cauchy_check` does, the mismatch
    (h', alpha, lhs, rhs) at the first h' that fails, lhs the partition sum.
    """
    from .measure import MeasureParams  # measure imports this module

    top = max(h - 1, 0)
    alphas = [Fraction(1, j + 2) for j in range(h * n + 1)]
    dets = [toeplitz_det(symbol_phi(MeasureParams(m, n, a, t), -top, top), range(h + 1))
            for a in alphas]
    for hh in range(h + 1):
        weights = weights_by_size(m, n, t, hh * n, max_part=hh)
        for a, det in zip(alphas, dets):
            lhs = 0
            for wk in reversed(weights):
                lhs = lhs * a * a + wk
            if lhs != det[hh]:
                return False, (hh, a, lhs, det[hh])
    return True, None


def _differences(P, Q, y0, deg, alpha, hs):
    """Rows g_s = alpha^(h+1) q^s Δ^s p(h+1), s <= deg, q = alpha/(1-alpha^2),
    for the sorted, distinct `hs`; p(k) = sum_s y_s C(k+deg-s, deg-s) with
    P y' = Q y, y(0) = y0.  With Y from `_taylor_ode`, p = y0 T_0 / (P_0^deg
    deg!), T_j(k) = sum_{r>=j} c_r C(k+r-j, r-j), c_r = Y_{deg-r} P_0^r
    deg!/(deg-r)!, and D_s(h) = Δ^s T_0(h+1) = T_s(h+1+s): Pascal's rule from
    T_j(-1) = c_j gives D_s(-2) = T_s(s-1), then D_s(h+1) = D_s(h) + D_{s+1}(h),
    integer additions only.  g_s is w = 2^e alpha^(h+1) in [1/2, 2) times
    D_s q^s y0 / (P_0^deg deg! 2^e) rounded once: all within double range."""
    leads = itertools.accumulate([1] + [P[0] * (deg - r) for r in range(deg)], operator.mul)
    tail = list(map(operator.mul, _taylor_ode(P, Q, deg + 1), reversed(list(leads))))
    diffs = []
    while tail:  # tail = T_deg .. T_s at k = s - 1
        diffs.append(tail.pop())
        tail = list(itertools.accumulate(tail))
    scale = y0 / (P[0] ** deg * math.factorial(deg))
    q = alpha / (1 - alpha * alpha)
    nums = list(itertools.accumulate([scale.numerator] + [q.numerator] * deg, operator.mul))
    dens = list(itertools.accumulate([scale.denominator] + [q.denominator] * deg, operator.mul))
    rows, at = [], -2
    for h in hs:
        for _ in range(h - at):
            diffs = [*map(operator.add, diffs, diffs[1:]), diffs[-1]]
        at = h
        an, ad = alpha.numerator ** (h + 1), alpha.denominator ** (h + 1)
        e = ad.bit_length() - an.bit_length()
        w = (an << e) / ad
        rows.append([w * _rounded(d, a, b << e) for d, a, b in zip(diffs, nums, dens)])
    return np.array(rows).reshape(len(hs), deg + 1)


def _transform(alpha, deg, size):
    """The (deg+1) x size matrix R[s, j] = (-1)^j C(s+1, j+1) alpha^(s-j) / (1 - alpha^2),
    zero for s < j, in doubles: f = g R.  Its binomials come by Pascal's rule
    in integers, each rounded once, as is each alpha^p."""
    binoms, row = np.zeros((deg + 1, size)), [1]
    for s in range(deg + 1):
        row = [1, *map(operator.add, row, row[1:]), 1]  # C(s+1, .)
        binoms[s, :s + 1] = row[1:size + 1]
    powers = np.array([float(alpha ** p) for p in range(deg + 1)])
    s, j = np.arange(deg + 1)[:, None], np.arange(size)[None, :]
    return binoms * powers[np.maximum(s - j, 0)] * ((-1.0) ** j / float(1 - alpha * alpha))


def _rounded(a, b, d):
    """a * b / d correctly rounded to a double, for ints a, b and d > 0.

    The leading 96 bits of |a|, |b| and d bound the quotient to a relative
    width of about 2^-94.  Rounding is monotone, so when both bounds round
    to the same double (CPython's int / int rounds correctly), so does the
    quotient; otherwise, as at a tie, the full product is divided.  The
    2048-bit threshold is the measured crossover (CPython 3.11, Xeon): the
    bounds cost about 2.5-3.9 us at any size, the full product 0.8 us at
    512 bits, 2.5 us at 2048 and 10.6 us at 4096.  Float parameters are
    the workload that needs the bounds: at the binary (alpha, t) = (0.4, -1),
    n = 50, on criterion 9's 8-point grid, all 800 calls take them, and
    `bo_cdf` runs in 14.7 ms against 40.3 ms with `a * b / d` alone (median
    of 15, 2-core Xeon); at alpha = 2/5 none of the 800 does.
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


def _factors(params):
    """(P, Q, y0, degree) of p1 and p2 (`hankel_symbols`): y = f or g solves
    P(w) y' = Q(w) y, P and Q integer lists, y(0) = y0."""
    m, n, alpha, t = params.m, params.n, params.alpha, params.t
    A, B = 1 - alpha * alpha, 1 - t * alpha * alpha
    # (w-A)(w-B) f' = m (A-B) f
    pq, _ = _integers([A * B, -(A + B), 1, m * (A - B)])
    p1 = (pq[:3], pq[3:], (A / B) ** m, n - 1)
    # ((1-t)+tw)(w-A)(w-1) g' = (m t (w-A)(w-1) + n (A-1) ((1-t)+tw)) g
    c0, r0, r1 = 1 - t, A, -(A + 1)
    pq, _ = _integers([c0 * r0, c0 * r1 + t * r0, c0 + t * r1, t,
                       m * t * r0 + n * (A - 1) * c0, m * t * r1 + n * (A - 1) * t, m * t])
    return p1, (pq[:4], pq[4:], (1 - t) ** m * A ** n, m - 1)


def hankel_symbols(params, h):
    """The rows f1, f2 of `bo_cdf`'s determinant at h: for j < 2 min(m, n) - 1,
    f_j = alpha^(h+1-j) mu_j / (1-x), mu_j = (-1)^j sum_{s>=j} C(s+1, j+1) y^s d_s,
    d_s = Δ^s p(h+1), x = alpha^2, y = x/(1-x); p = p1 (degree n-1) for f1
    and p2 (degree m-1) for f2.  psi1 = E~_{x,t} E_y^{-1} and psi2 =
    E_{x,t}^{-1} E~_y have entries psi_k = (-alpha)^k p(k), k >= 1: with
    w = 1 + alpha z, A = 1 - alpha^2, B = 1 - t alpha^2, psi1 = f(w) w^-n,
    f = ((w-A)/(w-B))^m, and psi2 = g(w) w^-m, g = ((1-t)+tw)^m ((w-A)/(w-1))^n,
    so p1(k) = sum_{r=1..n} f_{n-r} C(k+r-1, r-1), p2 alike.  The d_s are
    exact, each rounded once (`_differences`); the transform does not depend
    on h.  `h` is an int (two rows) or a sequence (a row per h, each
    independent of the rest of the grid)."""
    single, hs = _grid(h)
    m, n, alpha = params.m, params.n, params.alpha
    grid, size = sorted(set(hs)), 2 * min(m, n) - 1
    g1, g2 = (_differences(*factor, alpha, grid) for factor in _factors(params))
    R = _transform(alpha, max(m, n) - 1, size)
    at = {hh: i for i, hh in enumerate(grid)}
    f1, f2 = (np.array([row @ R[:d] for row in g]).reshape(len(grid), size)[[at[hh] for hh in hs]]
              for g, d in ((g1, n), (g2, m)))
    return (f1[0], f2[0]) if single else (f1, f2)


def bo_cdf(params, h):
    """P(lambda_1 <= h) = det(I - H1 H2) on l^2({h, h+1, ...}) (Borodin-Okounkov),
    exactly as det(I_k - F1 F2), k = min(m, n), F[a, b] = f_{a+b} from
    `hankel_symbols`: no section, no truncation.  Newton's expansion at h+1
    and Vandermonde's identity give H1[h+a, l] = (-alpha)^(h+1) (U C1 U^T)[a, l],
    U[a, i] = (-alpha)^a C(a, i), C1[a, b] = d_{a+b} (zero beyond n x n), and
    H2 alike, so det(I - H1 H2) = det(I - x^(h+1) C1 G C2 G), G = U^T U.  The
    Meixner polynomials (beta = 1) give B G B^T = diag(x^-a / (1-x)) for
    B[a, j] = C(a, j) (1 - 1/x)^j, and B^-T C1 B^-1 = (mu_{a+b}) since
    sum_{i+j=s} C(i, a) C(j, b) = C(s+1, a+b+1).  `h` is an int (a float
    returns) or a sequence (a list); one `hankel_symbols` build serves the
    grid, each value equal to a single call's bit for bit.  A value outside
    [0, 1] by more than _CDF_TOL raises ArithmeticError, not clamped.
    """
    single, hs = _grid(h)
    f1, f2 = hankel_symbols(params, hs)
    k = min(params.m, params.n)
    hankel = np.add.outer(np.arange(k), np.arange(k))
    vals = []
    for hh, r1, r2 in zip(hs, f1, f2):
        val = float(np.linalg.det(np.eye(k) - r1[hankel] @ r2[hankel]))
        if not -_CDF_TOL <= val <= 1.0 + _CDF_TOL:
            raise ArithmeticError(f"bo_cdf at h={hh}: {val!r} lies outside [0, 1] "
                                  f"by more than {_CDF_TOL}")
        vals.append(val)
    return vals[0] if single else vals
