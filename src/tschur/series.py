"""Truncated power series, Gaussian elimination, and the one Taylor recurrence.

A series holds the coefficients of X^0, ..., X^order in a field (the library
builds every series exactly, in ints and Fractions); everything above
``order`` is unknown.  The e/h-coefficients of a specialization are such
series, and an explicit variable list multiplies them.  `det_gauss` takes
determinants over a field, or over series when every pivot is a unit.
`_taylor_ode`, the one Taylor recurrence of P y' = Q y, gives the
e/h-coefficients and the Hankel factors.
"""

from __future__ import annotations

from fractions import Fraction


class TruncatedSeries:
    """A power series known through exponent ``order`` (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self.order = order
        self.coeffs = (coeffs + [0] * (order + 1 - len(coeffs)))[: order + 1]

    def coeff(self, k):
        """Coefficient of X**k; raises if k exceeds the truncation order."""
        if k > self.order:
            raise IndexError(f"exponent {k} beyond truncation order {self.order}")
        return self.coeffs[k] if k >= 0 else 0

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], self.order)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                               min(self.order, other.order))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs[: order + 1 - i], i):
                if b != 0:
                    out[k] += a * b
        return TruncatedSeries(out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        """Multiplicative inverse; the coefficient of X^0 must be a unit."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("cannot invert a series whose X^0 coefficient is zero")
        inv0 = Fraction(1, 1) / c0 if isinstance(c0, (int, Fraction)) else 1 / c0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out.append(-acc * inv0)
        return TruncatedSeries(out, self.order)

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base = TruncatedSeries([1], self.order), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], self.order)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        terms = [f"{c}*X^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries({body} + O(X^{self.order + 1}))"


def det_gauss(rows):
    """Determinant of a square matrix over a field, by Gaussian elimination.

    Works for Fraction or float entries, and for TruncatedSeries entries when
    every pivot it meets has a nonzero constant term (`inverse` raises
    otherwise).  The 0x0 determinant is 1.
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


def _taylor_ode(P, Q, count):
    """Integers Y_0..Y_{count-1} with y_l = y_0 Y_l / (P_0^l l!), where
    y = sum_l y_l w^l solves P(w) y' = Q(w) y.

    P and Q are integer coefficient lists, P_0 != 0.  The coefficients obey
    P_0 (l+1) y_{l+1} = sum_j Q_j y_{l-j} - sum_{j>=1} P_j (l+1-j) y_{l+1-j};
    scaled by P_0^l l! and grouped by Y index, with (l)_j = l!/(l-j)!,

        Y_{l+1} = sum_j P_0^j (l)_j (Q_j - (l-j) P_{j+1}) Y_{l-j},

    all in integers (no gcd runs), one big product per term.
    """
    width = max(len(P) - 1, len(Q))
    P1, Q = [*P[1:], *[0] * width][:width], [*Q, *[0] * width][:width]
    Y = [1]
    for l in range(count - 1):
        acc, w = 0, 1  # w = P_0^j (l)_j
        for j in range(min(l + 1, width)):
            acc += w * (Q[j] - (l - j) * P1[j]) * Y[l - j]
            w *= P[0] * (l - j)
        Y.append(acc)
    return Y
