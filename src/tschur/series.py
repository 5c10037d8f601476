"""Truncated power/Laurent series arithmetic over exact or floating scalars.

Coefficients live in any field Python can compute with (Fraction for exact
identity work, float elsewhere).  A series is stored as a contiguous
coefficient block ``coeffs[k] * X**(offset + k)`` and is considered exact
through the exponent ``order``; everything above is unknown, everything
below ``offset`` is zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


class TruncatedSeries:
    """A Laurent series truncated above exponent ``order`` (inclusive)."""

    __slots__ = ("offset", "order", "coeffs")

    def __init__(self, coeffs, offset=0, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = offset + len(coeffs) - 1
        if order < offset - 1:
            raise ValueError("order below offset")
        want = order - offset + 1
        if len(coeffs) < want:
            coeffs = coeffs + [0] * (want - len(coeffs))
        elif len(coeffs) > want:
            coeffs = coeffs[:want]
        self.offset = offset
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, c, order):
        return cls([c], 0, order)

    def coeff(self, k):
        """Coefficient of X**k; raises if k exceeds the truncation order."""
        if k > self.order:
            raise IndexError(f"exponent {k} beyond truncation order {self.order}")
        if k < self.offset:
            return 0
        return self.coeffs[k - self.offset]

    def truncate(self, order):
        if order >= self.order:
            return TruncatedSeries(self.coeffs, self.offset, order) if order == self.order else \
                TruncatedSeries(self.coeffs + [0] * (order - self.order), self.offset, order)
        return TruncatedSeries(self.coeffs[: order - self.offset + 1], self.offset, order)

    def _strip(self):
        """Index of first nonzero coefficient, or None if identically zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.offset, self.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], 0, self.order)
        off = min(self.offset, other.offset)
        order = min(self.order, other.order)
        out = [0] * (order - off + 1)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.offset + i
                if k <= order:
                    out[k - off] = out[k - off] + c
        return TruncatedSeries(out, off, order)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], 0, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.offset, self.order)
        # product is reliable through min(f.order + g.offset, g.order + f.offset)
        order = min(self.order + other.offset, other.order + self.offset)
        off = self.offset + other.offset
        out = [0] * (order - off + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ka = self.offset + i
            jmax = min(len(other.coeffs), order - ka - other.offset + 1)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != 0:
                    out[ka + other.offset + j - off] += a * b
        return TruncatedSeries(out, off, order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the lowest retained coefficient must be a unit."""
        i0 = self._strip()
        if i0 is None:
            raise ZeroDivisionError("cannot invert the zero series")
        if i0 != 0:
            shifted = TruncatedSeries(self.coeffs[i0:], self.offset + i0, self.order)
            return shifted.inverse()
        c0 = self.coeffs[0]
        n = self.order - self.offset  # number of correction terms
        inv0 = 1 / c0 if not isinstance(c0, (int, Fraction)) else Fraction(1, 1) / c0
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -acc * inv0
        return TruncatedSeries(out, -self.offset, self.order - 2 * self.offset)

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = TruncatedSeries([1], 0, self.order - self.offset if self.offset >= 0 else self.order)
        base = self
        e = exponent
        # keep the running truncation compatible with self's order
        result = result.truncate(self.order)
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], 0, self.order)
        order = min(self.order, other.order)
        lo = min(self.offset, other.offset)
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, order + 1))

    def __repr__(self):
        terms = [f"{c}*X^{self.offset + i}" for i, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries({body} + O(X^{self.order + 1}))"


def first_mismatch(lhs, rhs, degree):
    """The first (k, lhs_k, rhs_k), k <= degree, at which two series differ,
    or None; a scalar stands for a constant series."""
    lhs, rhs = (s if isinstance(s, TruncatedSeries) else TruncatedSeries.constant(s, degree)
                for s in (lhs, rhs))
    for k in range(degree + 1):
        if lhs.coeff(k) != rhs.coeff(k):
            return k, lhs.coeff(k), rhs.coeff(k)
    return None


def det_gauss(rows):
    """Determinant of a square matrix over a field, by Gaussian elimination.

    Works for Fraction or float entries.  The 0x0 determinant is 1.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    det = None
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return a[0][0] * 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        det = p if det is None else det * p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / p
                for c in range(col, n):
                    a[r][c] = a[r][c] - factor * a[col][c]
    return det if sign > 0 else -det


def det_expansion(rows):
    """Determinant by signed permutation expansion.

    Valid over any commutative ring (e.g. TruncatedSeries entries), O(n!·n);
    intended for the small matrices that arise in degreewise identity checks.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j = i
                length = 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total
