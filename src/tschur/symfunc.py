"""Generalized symmetric functions e_n(x;t), S_lambda(x;t) and s_lambda.

Everything here is exact: scalars are Fractions (a float at its binary
value), determinants come from Gaussian elimination, and a brute-force
marked-tableau enumeration is an independent oracle for the determinantal
S_lambda.  The e- and h-coefficients of x_1 = ... = x_m = x come from
`series._taylor_ode`, the one Taylor recurrence, for ((1+xz)/(1+txz))^m and
((1-txz)/(1-xz))^m in O(nmax) integer operations; an explicit list is the
product of one such specialization per distinct value.  Each Jacobi-Trudi
determinant is taken in the smaller of its two forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real

from .partitions import partitions
from .rsk import Entry, MarkedTableau, _col_step, _row_step, validate_marked_tableau
from .series import TruncatedSeries, _taylor_ode, det_gauss


def exact_scalar(v, name):
    """v as a Fraction of ints: a rational exactly, another finite real at its
    binary value; NaN, an infinity or a non-real (a str too) raises ValueError."""
    if isinstance(v, Rational):
        return Fraction(int(v.numerator), int(v.denominator))
    if isinstance(v, Real) and math.isfinite(v):
        return Fraction(float(v))
    raise ValueError(f"{name} must be finite and real, not {v!r}")


@dataclass(frozen=True)
class SpecializedVars:
    """x_1 = ... = x_count = value (read by `exact_scalar`), later ones zero."""

    count: int
    value: object

    def __post_init__(self):
        object.__setattr__(self, "count", operator.index(self.count))
        if self.count < 0:
            raise ValueError("variable count must be nonnegative")
        object.__setattr__(self, "value", exact_scalar(self.value, "value"))


def gen_e_coeffs(variables, t, nmax):
    """Coefficients e_0(x;t), ..., e_nmax(x;t) of E(z) = prod (1+x_i z)/(1+t x_i z).

    `variables` is a SpecializedVars or an explicit list of scalars, taken
    as one SpecializedVars per distinct value.  At x_1 = ... = x_m = x,
    f = ((1+xz)/(1+txz))^m solves (1+xz)(1+txz) f' = m x (1-t) f, whose
    Taylor coefficients `_taylor_ode` gives exactly in O(nmax) integer
    operations, a float x or t taken at its binary value."""
    return _series(variables, t, nmax, 1)


def gen_h_coeffs(variables, t, nmax):
    """Coefficients h_0(x;t), ..., h_nmax(x;t) of H(z) = 1/E(-z) =
    prod (1-t x_i z)/(1-x_i z), the entries of the h-form Jacobi-Trudi
    determinant: (1-xz)(1-txz) H' = m x (1-t) H is `gen_e_coeffs`'s equation
    with the sign of the (1+t) x z term flipped, and a list is read alike.
    """
    return _series(variables, t, nmax, -1)


def _series(variables, t, nmax, sign):
    """E (sign 1) or H (sign -1) of a SpecializedVars or an explicit list."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if isinstance(variables, SpecializedVars):
        return _specialized_coeffs(variables, t, nmax, sign)
    return math.prod((_specialized_coeffs(SpecializedVars(count, x), t, nmax, sign)
                      for x, count in Counter(variables).items()),
                     start=TruncatedSeries([1], nmax))


def _specialized_coeffs(variables, t, nmax, sign):
    """E (sign 1) or H (sign -1) at x_1 = ... = x_m = x = a/b, with t = c/d.
    At Dz, D = bd, the series solves P y' = Q y for the integers P = [1,
    sign (1+t) x D, t x^2 D^2] = [1, sign a (c+d), a^2 c d] and Q = [m x (1-t) D]
    = [m a (d-c)], so `_taylor_ode` gives Y_l = l! D^l e_l, and each e_l is
    the Fraction Y_l / (l! D^l); a float x or t is taken at its binary value."""
    m = variables.count
    (a, b), (c, d) = (map(int, Fraction(v).as_integer_ratio()) for v in (variables.value, t))
    Y = _taylor_ode([1, sign * a * (c + d), c * a * a * d], [m * a * (d - c)], nmax + 1)
    scales = itertools.accumulate((l * b * d for l in range(1, nmax + 1)), operator.mul)
    return TruncatedSeries([1, *map(Fraction, Y[1:], scales)], nmax)


def _jt_minor(shape, coeffs):
    """det(c_{shape_i - i + j}) with c_k = 0 for k < 0; the empty det is 1."""
    size = len(shape)
    return det_gauss([[coeffs.coeff(shape[i] - i + j) for j in range(size)] for i in range(size)])


def _jacobi_trudi_form(lam):
    """The smaller form of the Jacobi-Trudi determinant of lambda, as (shape,
    h_form): (lambda, True) for det(h_{lambda_i-i+j}), l(lambda) x l(lambda),
    when lambda has fewer rows than columns, else (lambda', False) for the
    dual det(e_{lambda'_i-i+j}), lambda_1 x lambda_1.  The two agree because
    H(z) E(-z) = 1."""
    if len(lam) < lam.first_row():
        return lam.parts, True
    return lam.conjugate().parts, False


def schur_s(lam, variables):
    """Classical Schur function s_lambda via the Jacobi-Trudi identity."""
    return schur_S_t(lam, variables, 0)


def schur_S_t(lam, variables, t):
    """Generalized Schur function S_lambda(x;t) = det(e_{lambda'_i-i+j}(x;t))
    = det(h_{lambda_i-i+j}(x;t)).

    On m variables it vanishes outside the (m|m) hook, lambda_{m+1} > m
    (at t = 0, outside the m rows, lambda_{m+1} > 0); that exact zero is
    returned without computing a determinant."""
    count = variables.count if isinstance(variables, SpecializedVars) else len(variables)
    if len(lam) > count and lam[count] > (count if t != 0 else 0):
        return Fraction(0)
    shape, h_form = _jacobi_trudi_form(lam)
    nmax = lam.size() + lam.first_row() + 1
    return _jt_minor(shape, (gen_h_coeffs if h_form else gen_e_coeffs)(variables, t, nmax))


def enumerate_marked_tableaux(lam, m):
    """All fillings of shape lam by {1',1,...,m',m} satisfying T1 and T2."""
    if m < 1:
        raise ValueError("alphabet bound m must be >= 1")
    shape = list(lam.parts)
    alphabet = [Entry(k, marked) for k in range(1, m + 1) for marked in (True, False)]
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]
    rows = [[None] * p for p in shape]
    out = []

    def feasible(r, c, e):
        return ((c == 0 or _row_step(rows[r][c - 1], e))
                and (r == 0 or _col_step(rows[r - 1][c], e)))

    def fill(idx):
        if idx == len(cells):
            out.append(MarkedTableau([list(row) for row in rows]))
            return
        r, c = cells[idx]
        for e in alphabet:
            if feasible(r, c, e):
                rows[r][c] = e
                fill(idx + 1)
                rows[r][c] = None

    fill(0)
    assert all(validate_marked_tableau(t) for t in out)
    return out


def schur_S_t_oracle(lam, m, t, alpha):
    """Tableau-sum evaluation of S_lambda at x_1=...=x_m=alpha.

    Sums (-t)^mark(T) * alpha^|lambda| over all marked tableaux of the shape;
    independent of the determinant route.
    """
    if lam.size() == 0:
        return Fraction(1)
    weight = Fraction(0)
    for tab in enumerate_marked_tableaux(lam, m):
        weight += (-t) ** tab.mark()
    return weight * alpha ** lam.size()


def weights_by_size(m, n, t, size, max_part=None):
    """w[k] = sum of S_lambda(1^m;t) s_lambda(1^n) over |lambda| = k, for
    k = 0..size, over partitions with at most n rows (s_lambda(1^n) vanishes
    beyond) and lambda_1 <= max_part.

    At x = alpha^m, y = alpha^n a summand is alpha^(2k) times its value at
    alpha = 1, so this one partition sum is the left side of the Cauchy
    identity, Gessel's sum over lambda_1 <= h, and the exact law of
    lambda_1.  The e- and h-series of both specializations are built once,
    long enough for every Jacobi-Trudi entry.
    """
    nmax = size + (size if max_part is None else max_part) + 1
    x, y = SpecializedVars(m, 1), SpecializedVars(n, 1)
    series_xt = gen_e_coeffs(x, t, nmax), gen_h_coeffs(x, t, nmax)
    series_y = gen_e_coeffs(y, 0, nmax), gen_h_coeffs(y, 0, nmax)
    w = [Fraction(0)] * (size + 1)
    for lam in partitions(size, max_part=max_part, max_rows=n):
        shape, h_form = _jacobi_trudi_form(lam)
        w[lam.size()] += _jt_minor(shape, series_xt[h_form]) * _jt_minor(shape, series_y[h_form])
    return w


def on_even_degrees(coeffs, degree):
    """The alpha-series through `degree` with c_k on alpha^(2k): a series in
    rho = alpha^2, such as the weights by size, read in alpha."""
    return TruncatedSeries([c for ck in coeffs for c in (ck, Fraction(0))], degree)


def cauchy_check(m, n, t, degree):
    """Verification of the Cauchy identity
    sum_lambda S_lambda(alpha^m;t) s_lambda(alpha^n) = ((1-t alpha^2)/(1-alpha^2))^(mn)
    through alpha^degree, as exact coefficient lists in rho = alpha^2: the
    left side is `weights_by_size`, the right side the h-series H(rho) of mn
    variables equal to 1 (`gen_h_coeffs`).  Returns (ok, mismatch):
    `mismatch` is None on success, else the first (exponent, lhs, rhs)
    triple that disagrees, exponent = 2k for the coefficient of rho^k.
    """
    lhs = weights_by_size(m, n, t, degree // 2)
    rhs = gen_h_coeffs(SpecializedVars(m * n, 1), t, degree // 2).coeffs
    mismatch = next(((2 * k, l, r) for k, (l, r) in enumerate(zip(lhs, rhs)) if l != r), None)
    return mismatch is None, mismatch
