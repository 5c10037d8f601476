"""Symbol coefficients, Toeplitz determinants, and the Borodin-Okounkov route.

The symbol is phi(z) = E~_{x,t}(z) E_y(z) specialized at x = alpha^m,
y = alpha^n; its Fourier coefficients reduce to the finite sum
phi_k = sum_j e_j(x;t) e_{j+k}(y), because e_l(y) vanishes beyond l = n.
det T_h(phi)/Z_t is the lambda_1 CDF (Gessel identity); the same quantity is
recovered as a finite-section Fredholm determinant of a Hankel product
(Borodin-Okounkov), which serves as an independent cross-check.  The exact
det T_h is computed in integers by fraction-free Levinson, O(h^2)
operations, and a grid of h shares one pass: its leading minors.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .series import TruncatedSeries, det_expansion, det_gauss
from .symfunc import SpecializedVars, gen_e_coeffs


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


def symbol_phi(params, kmin, kmax, exact=None):
    """Coefficients of phi = E~_{x,t} E_y on the index window [kmin, kmax]."""
    if kmin > 0 or kmax < 0:
        raise ValueError("window must contain 0")
    _check_params(params)
    if exact is None:
        exact = params.exact
    if exact:
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
    ext = _e_xt_float(params.m, float(params.alpha), float(params.t), params.n - kmin)
    ey = _e_y_float(params.n, float(params.alpha))
    coeffs = []
    for k in range(kmin, kmax + 1):
        j0 = max(0, -k)
        j1 = params.n - k
        if j1 < j0:
            coeffs.append(0.0)
        else:
            coeffs.append(float(np.dot(ext[j0 : j1 + 1], ey[j0 + k : j1 + k + 1])))
    return SymbolCoefficients(kmin, kmax, coeffs)


def _e_y_float(n, alpha):
    """e_l(alpha^n) = C(n, l) alpha^l for l = 0..n."""
    out = np.empty(n + 1)
    out[0] = 1.0
    for l in range(1, n + 1):
        out[l] = out[l - 1] * alpha * (n - l + 1) / l
    return out


def _e_xt_float(m, alpha, t, length):
    """Float coefficients of ((1+alpha z)/(1+t alpha z))^m through degree `length`."""
    a = np.zeros(length + 1)
    top = _e_y_float(m, alpha)
    a[: min(m, length) + 1] = top[: min(m, length) + 1]
    if t == 0:
        return a
    # (1 + t alpha z)^(-m): b_{l+1} = -b_l * t*alpha * (m+l)/(l+1)
    b = np.empty(length + 1)
    b[0] = 1.0
    ta = t * alpha
    for l in range(length):
        b[l + 1] = -b[l] * ta * (m + l) / (l + 1)
    return np.convolve(a, b)[: length + 1]


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
    Rational symbols take the fraction-free Levinson pass of
    `_leading_minors`, O(h^2) integer operations; an h beyond a vanishing
    leading minor, and a symbol with other scalars, take `det_gauss`.
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
    minor below h - 1 vanishes (then k is its order plus one), or [1] when
    an entry is not rational.

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
        return [Fraction(1)]
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
    if h == 0:
        return Fraction(1)
    return det_expansion(_toeplitz_rows(sym, h))


def gessel_lhs_alpha_series(m, n, t, h, degree):
    """sum over {lambda_1 <= h} of S_lambda s_lambda as an exact alpha-series."""
    from .partitions import partitions
    from .symfunc import schur_S_t, schur_s

    one = Fraction(1)
    coeffs = [Fraction(0)] * (degree + 1)
    for lam in partitions(degree // 2, max_part=h, max_rows=n):
        s = schur_s(lam, SpecializedVars(n, one))
        if s == 0:
            continue
        val = schur_S_t(lam, SpecializedVars(m, one), t) * s
        coeffs[2 * lam.size()] += val
    return TruncatedSeries(coeffs, 0, degree)


def hankel_symbols(params, order):
    """Positive Fourier coefficients of psi1 = E~_{x,t} E_y^{-1} and
    psi2 = E_{x,t}^{-1} E~_y, through index `order` (floats).

    Both coefficient sequences decay geometrically like alpha^k.
    """
    if order < 1:
        raise ValueError("order >= 1")
    _check_params(params)
    m, n = params.m, params.n
    alpha, t = float(params.alpha), float(params.t)
    # truncation of the z^{-1}-direction sums: terms fall off at least like
    # (alpha * max(|t|, alpha))^j
    ratio = alpha * max(abs(t), alpha)
    jcut = max(40, int(math.ceil(-46 / math.log(ratio))) if ratio > 0 else 40)

    ext = _e_xt_float(m, alpha, t, jcut)  # e_j(x;t), z^{-j} side of E~_{x,t}
    ey_inv = np.empty(order + jcut + 1)  # (1 + alpha z)^{-n}
    ey_inv[0] = 1.0
    for l in range(order + jcut):
        ey_inv[l + 1] = -ey_inv[l] * alpha * (n + l) / (l + 1)
    psi1 = np.array(
        [float(np.dot(ext[: jcut + 1], ey_inv[k : k + jcut + 1])) for k in range(order + 1)]
    )

    # E_{x,t}^{-1} = ((1 + t alpha z)/(1 + alpha z))^m
    d = _e_inverse_float(m, alpha, t, order + n)
    ey_tilde = _e_y_float(n, alpha)  # finite: coefficients of (1 + alpha z^{-1})^n
    psi2 = np.array(
        [float(np.dot(ey_tilde, d[k : k + n + 1])) for k in range(order + 1)]
    )
    return psi1, psi2


def _e_inverse_float(m, alpha, t, length):
    """Coefficients of ((1 + t alpha z)/(1 + alpha z))^m through `length`."""
    a = np.zeros(length + 1)
    if t != 0:
        # C(m, l) (t alpha)^l
        top = np.empty(min(m, length) + 1)
        top[0] = 1.0
        for l in range(min(m, length)):
            top[l + 1] = top[l] * t * alpha * (m - l) / (l + 1)
        a[: len(top)] = top
    else:
        a[0] = 1.0
    b = np.empty(length + 1)
    b[0] = 1.0
    for l in range(length):
        b[l + 1] = -b[l] * alpha * (m + l) / (l + 1)
    return np.convolve(a, b)[: length + 1]


def _lg_binom(a, b):
    """log10 C(a, b) for possibly huge integer arguments."""
    if b < 0 or b > a:
        return -math.inf
    return (
        math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    ) / math.log(10)


def _mp_scale_digits(params, kmax):
    """Decimal digits spanned by the largest intermediate term of the
    coefficient sums (the cancellation budget)."""
    m, n = params.m, params.n
    alpha = abs(float(params.alpha))
    lga = math.log10(alpha)
    # |g_l| = alpha^l C(n+l-1, l) peaks near l* = alpha n/(1-alpha)
    peak = 0.0
    lstar = int(alpha * n / (1 - alpha)) + 1
    for l in {lstar, lstar + 1, max(0, lstar - 1), kmax}:
        peak = max(peak, l * lga + _lg_binom(n + l - 1, l))
    # the short-factor maxima: (1+alpha)^m for psi1, (1+alpha)^n for psi2,
    # and the same binomial profile with m in place of n for d_l
    dpeak = 0.0
    lstar_m = int(alpha * m / (1 - alpha)) + 1
    for l in {lstar_m, lstar_m + 1, max(0, lstar_m - 1), kmax}:
        dpeak = max(dpeak, l * lga + _lg_binom(m + l - 1, l))
    lg1 = peak + m * math.log10(1 + alpha)
    lg2 = dpeak + n * math.log10(1 + alpha)
    return max(lg1, lg2, 0.0)


def hankel_symbols_mp(params, kmin, kmax, extra_dps=45):
    """psi1_k and psi2_k for kmin <= k <= kmax at extended working precision.

    The real-axis recurrences behind `hankel_symbols` cancel catastrophically
    once the interior binomial growth alpha^l C(n+l-1,l) spans more digits
    than a double carries; here the same sums are run in mpmath with the
    precision chosen from that growth, and the (moderate-sized) results are
    returned as floats.
    """
    if kmin < 1 or kmax < kmin:
        raise ValueError("need 1 <= kmin <= kmax")
    _check_params(params)
    m, n = params.m, params.n
    dps = int(_mp_scale_digits(params, kmax)) + extra_dps
    fa, ft = Fraction(params.alpha), Fraction(params.t)
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(fa.numerator) / fa.denominator
        t = mpmath.mpf(ft.numerator) / ft.denominator
        tiny = mpmath.mpf(10) ** (-dps + 5)

        # e_j(x;t): coefficients of ((1+alpha w)/(1+t alpha w))^m
        if t == 0:
            ext = [mpmath.binomial(m, j) * alpha ** j for j in range(m + 1)]
        else:
            # the Cauchy product of (1+alpha w)^m with the binomial series
            # b_l of (1+t alpha w)^{-m}, run until its terms are tiny
            top = [mpmath.binomial(m, i) * alpha ** i for i in range(m + 1)]
            b = [mpmath.mpf(1)]
            ext = []
            for j in itertools.count():
                if j:
                    b.append(-b[-1] * t * alpha * (m + j - 1) / j)
                acc = mpmath.mpf(0)
                for i in range(min(j, m) + 1):
                    acc += top[i] * b[j - i]
                ext.append(acc)
                if j > m and abs(acc) < tiny:
                    break

        # g_l = (-alpha)^l C(n+l-1, l): coefficients of (1+alpha z)^{-n}
        L1 = kmax + len(ext)
        g = [mpmath.mpf(1)]
        for l in range(L1):
            g.append(-g[-1] * alpha * (n + l) / (l + 1))
        psi1 = []
        for k in range(kmin, kmax + 1):
            acc = mpmath.mpf(0)
            for j, ej in enumerate(ext):
                acc += ej * g[k + j]
            psi1.append(float(acc))

        # d_l: coefficients of ((1+t alpha z)/(1+alpha z))^m, by the
        # first-order ODE recurrence of the symbol
        L2 = kmax + n
        d = [mpmath.mpf(1), m * alpha * (t - 1)]
        for l in range(1, L2):
            nxt = ((m * alpha * (t - 1) - (1 + t) * alpha * l) * d[l]
                   - t * alpha ** 2 * (l - 1) * d[l - 1]) / (l + 1)
            d.append(nxt)
        ey = [mpmath.binomial(n, j) * alpha ** j for j in range(n + 1)]
        psi2 = []
        for k in range(kmin, kmax + 1):
            acc = mpmath.mpf(0)
            for j, cj in enumerate(ey):
                acc += cj * d[k + j]
            psi2.append(float(acc))
    return np.array(psi1), np.array(psi2)


def bo_cdf(params, h, N=None, warn_tol=None, precise=None):
    """P(lambda_1 <= h) by the finite-section Fredholm determinant
    det(I - H1 H2) restricted to indices h..N-1.

    `h` may be an int (returns a float) or a sequence of ints (returns a
    list with one float per h).  A grid builds the double-precision Hankel
    coefficients once, and the mp ones once over the union of the windows
    of the h that need them; every section is a slice of these, and each h
    takes the route a call with that h alone takes, so the values match
    single calls bit for bit.  `N`, if given, is the section end for every
    h.

    The sign-diagonal conjugation by J leaves the determinant unchanged, so
    it is not applied explicitly.  With `precise=None` the Hankel
    coefficients of an h are recomputed at extended precision whenever the
    double-precision magnitudes on its window [h+1, 2N-1] betray
    catastrophic cancellation; True/False force the choice.
    """
    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    section = default_section(params) if N is None else None
    ends = [N if N is not None else hh + section for hh in hs]
    if any(end <= hh for hh, end in zip(hs, ends)):
        raise ValueError("N must exceed h")
    routes = [precise] * len(hs)
    # per h: (index of entry 0, psi1, psi2) of the build its route uses
    coeffs = [None] * len(hs)
    if precise is not True and hs:
        psi1, psi2 = hankel_symbols(params, max(2 * end - 1 for end in ends))
        for i, (hh, end) in enumerate(zip(hs, ends)):
            coeffs[i] = (0, psi1, psi2)
            if precise is None:
                window = slice(hh + 1, 2 * end)
                peak = np.max(np.abs(psi1[window])) * np.max(np.abs(psi2[window]))
                routes[i] = bool(not np.isfinite(peak) or peak > 1e6)
    mp = [i for i, route in enumerate(routes) if route]
    if mp:
        kmin = min(hs[i] for i in mp) + 1
        built = (kmin,) + hankel_symbols_mp(params, kmin, max(2 * ends[i] - 1 for i in mp))
        for i in mp:
            coeffs[i] = built
    vals = []
    for hh, end, route, (base, psi1, psi2) in zip(hs, ends, routes, coeffs):
        rows = np.arange(hh, end)
        inner = np.arange(end)
        hank1 = psi1[rows[:, None] + inner[None, :] + 1 - base]
        hank2 = psi2[inner[:, None] + rows[None, :] + 1 - base]
        block = hank1 @ hank2
        val = float(np.linalg.det(np.eye(end - hh) - block))
        if warn_tol is not None:
            ref = bo_cdf(params, hh, end + 32, precise=route)
            if abs(ref - val) > warn_tol:
                warnings.warn(
                    f"bo_cdf finite section not converged: |delta| = {abs(ref - val):.3e}",
                    RuntimeWarning,
                )
        vals.append(min(max(val, 0.0), 1.0))
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
