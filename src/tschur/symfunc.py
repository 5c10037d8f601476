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

from .partitions import Partition, partitions
from .rsk import Entry, MarkedTableau, validate_marked_tableau
from .series import TruncatedSeries, det_gauss


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
    if size == 0:
        return Fraction(1)

    def e(k):
        if k < 0:
            return Fraction(0)
        return e_coeffs.coeff(k)

    rows = [[e(conj[i] - i + j) for j in range(size)] for i in range(size)]
    return det_gauss(rows)


def schur_s(lam, variables, nmax=None):
    """Classical Schur function s_lambda via the dual Jacobi-Trudi identity."""
    if nmax is None:
        nmax = lam.size() + lam.first_row() + 1
    return _jacobi_trudi_det(lam, gen_e_coeffs(variables, 0, nmax))


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


def cauchy_lhs_series(m, n, t, degree):
    """Sum over partitions of S_lambda(alpha^m;t) s_lambda(alpha^n) as an alpha-series.

    Each summand is homogeneous of alpha-degree 2|lambda|, so the truncated sum
    over |lambda| <= degree/2 is exact through `degree`.
    """
    one = Fraction(1)
    ones_m = SpecializedVars(m, one)
    ones_n = SpecializedVars(n, one)
    coeffs = [Fraction(0)] * (degree + 1)
    for lam in partitions(degree // 2, max_rows=n):
        s = schur_s(lam, ones_n)
        if s == 0:
            continue
        val = schur_S_t(lam, ones_m, t) * s
        if val != 0:
            coeffs[2 * lam.size()] += val
    return TruncatedSeries(coeffs, 0, degree)


def cauchy_rhs_series(m, n, t, degree):
    """((1 - t alpha^2)/(1 - alpha^2))^(mn) expanded through `degree`."""
    num = TruncatedSeries([Fraction(1), Fraction(0), Fraction(-t)], 0, degree)
    den = TruncatedSeries([Fraction(1), Fraction(0), Fraction(-1)], 0, degree)
    return (num * den.inverse()) ** (m * n)


def cauchy_check(m, n, t, degree):
    """Degreewise verification of the Cauchy identity; returns (ok, mismatch).

    `mismatch` is None on success, else the first (exponent, lhs, rhs) triple
    that disagrees.
    """
    lhs = cauchy_lhs_series(m, n, t, degree)
    rhs = cauchy_rhs_series(m, n, t, degree)
    for k in range(degree + 1):
        if lhs.coeff(k) != rhs.coeff(k):
            return False, (k, lhs.coeff(k), rhs.coeff(k))
    return True, None
