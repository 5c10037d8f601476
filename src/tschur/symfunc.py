"""Generalized symmetric functions e_n(x;t), S_lambda(x;t) and s_lambda.

Everything here is exact: scalars are Fractions (or anything supporting
field arithmetic), determinants are evaluated by Gaussian elimination, and a
brute-force marked-tableau enumeration serves as an independent oracle for
the determinantal S_lambda.  The e-coefficients of a specialization
x_1 = ... = x_m = x come from the first-order recurrence of
((1+xz)/(1+txz))^m, O(nmax) scalar operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import partitions
from .rsk import Entry, MarkedTableau, validate_marked_tableau
from .series import TruncatedSeries, det_gauss, first_mismatch


@dataclass(frozen=True)
class SpecializedVars:
    """x_1 = ... = x_count = value, all later variables zero."""

    count: int
    value: object

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("variable count must be nonnegative")


def gen_e_coeffs(variables, t, nmax):
    """Coefficients e_0(x;t), ..., e_nmax(x;t) of prod (1+x_i z)/(1+t x_i z).

    `variables` is a SpecializedVars or an explicit list of scalars.  For a
    SpecializedVars, f = ((1+xz)/(1+txz))^m solves the first-order equation
    (1+xz)(1+txz) f' = m x (1-t) f, whose coefficients give the O(nmax)
    recurrence

        (l+1) e_{l+1} = (m x (1-t) - (1+t) x l) e_l - t x^2 (l-1) e_{l-1}.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if isinstance(variables, SpecializedVars):
        m, x = variables.count, variables.value
        if isinstance(x, int):
            x = Fraction(x)  # keep the divisions by l+1 exact
        a, b, c = m * x * (1 - t), (1 + t) * x, t * x * x
        e = [1, a]
        for l in range(1, nmax):
            e.append(((a - b * l) * e[l] - c * (l - 1) * e[l - 1]) / (l + 1))
        return TruncatedSeries(e, 0, nmax)
    result = TruncatedSeries([1], 0, nmax)
    for x in variables:
        result = result * TruncatedSeries([1, x], 0, nmax)
        if t != 0:
            result = result * TruncatedSeries([1, t * x], 0, nmax).inverse()
    return result


def _jacobi_trudi_det(lam, e_coeffs):
    """det(e_{lambda'_i - i + j}) over the conjugate shape; empty det is 1."""
    conj = lam.conjugate()
    size = len(conj)

    def e(k):
        if k < 0:
            return Fraction(0)
        return e_coeffs.coeff(k)

    rows = [[e(conj[i] - i + j) for j in range(size)] for i in range(size)]
    return det_gauss(rows)


def schur_s(lam, variables, nmax=None):
    """Classical Schur function s_lambda via the dual Jacobi-Trudi identity."""
    return schur_S_t(lam, variables, 0, nmax)


def schur_S_t(lam, variables, t, nmax=None):
    """Generalized Schur function S_lambda(x;t) = det(e_{lambda'_i-i+j}(x;t))."""
    if nmax is None:
        nmax = lam.size() + lam.first_row() + 1
    return _jacobi_trudi_det(lam, gen_e_coeffs(variables, t, nmax))


def enumerate_marked_tableaux(lam, m):
    """All fillings of shape lam by {1',1,...,m',m} satisfying T1 and T2."""
    if m < 1:
        raise ValueError("alphabet bound m must be >= 1")
    shape = list(lam.parts)
    alphabet = []
    for k in range(1, m + 1):
        alphabet.append(Entry(k, True))
        alphabet.append(Entry(k, False))
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]
    rows = [[None] * p for p in shape]
    out = []

    def feasible(r, c, e):
        if c > 0 and rows[r][c - 1].key > e.key:
            return False
        if r > 0 and rows[r - 1][c].key > e.key:
            return False
        if e.marked:
            if any(x is not None and x == e for x in rows[r][:c]):
                return False
        else:
            if any(rows[rr][c] == e for rr in range(r)):
                return False
        return True

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
    lambda_1.  Both e-series are built once, long enough for every
    Jacobi-Trudi entry.
    """
    nmax = size + (size if max_part is None else max_part) + 1
    e_xt = gen_e_coeffs(SpecializedVars(m, 1), t, nmax)
    e_y = gen_e_coeffs(SpecializedVars(n, 1), 0, nmax)
    w = [Fraction(0)] * (size + 1)
    for lam in partitions(size, max_part=max_part, max_rows=n):
        w[lam.size()] += _jacobi_trudi_det(lam, e_xt) * _jacobi_trudi_det(lam, e_y)
    return w


def cauchy_rhs_series(m, n, t, degree):
    """((1 - t alpha^2)/(1 - alpha^2))^(mn) expanded through `degree`."""
    num = TruncatedSeries([Fraction(1), Fraction(0), Fraction(-t)], 0, degree)
    den = TruncatedSeries([Fraction(1), Fraction(0), Fraction(-1)], 0, degree)
    return (num * den.inverse()) ** (m * n)


def cauchy_check(m, n, t, degree):
    """Degreewise verification of the Cauchy identity
    sum_lambda S_lambda(alpha^m;t) s_lambda(alpha^n) = ((1-t alpha^2)/(1-alpha^2))^(mn)
    through alpha^degree; the left side is `weights_by_size` placed on the
    even degrees.  Returns (ok, mismatch): `mismatch` is None on success,
    else the first (exponent, lhs, rhs) triple that disagrees.
    """
    w = weights_by_size(m, n, t, degree // 2)
    lhs = TruncatedSeries([c for wk in w for c in (wk, Fraction(0))], 0, degree)
    mismatch = first_mismatch(lhs, cauchy_rhs_series(m, n, t, degree), degree)
    return mismatch is None, mismatch
