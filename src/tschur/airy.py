"""Airy function Ai and its derivative, in numpy alone (DLMF section 9.7).

A table holds DEG Taylor coefficients of Ai and Ai', from Ai'' = x Ai, at the
knots every 1/4 on [-12, 44], which cover every node of `tracy_widom.tw_f2`: a
point takes one Horner pass about its nearest knot. The knot values come from
DLMF 9.7.5-6 on [12, 44], and from Taylor steps down from 12 (Ai grows as x
falls) and from the exact Ai(0), Ai'(0) (Ai oscillates below 0). Outside the
table DLMF 9.7.5-6 and 9.7.9-10 serve. Against mpmath on [-12, 44], the relative
error is below 3e-14 for x >= 0, and the absolute error below 2e-15 for x < 0."""

import math
from functools import lru_cache

import numpy as np

LO, HI, STEP = -12.0, 44.0, 0.25
DEG = 18  # Taylor terms per knot: 16 leave 6e-14 on [-12, 0), 18 reach rounding
AI0, AIP0 = 0.35502805388781723926, -0.25881940379280679840  # Ai(0), Ai'(0)
CUTOFF = 103.892  # Ai(x) < smallest normal double beyond it; cephes returns 0 there too
FLOOR = -1e6  # the phase zeta keeps under 8 digits below it; NaN there, as AMOS gives

_K = np.arange(24)  # DLMF 9.7.2 u_k and v_k; at |x| = 12 the last term is below 1e-19
_U = np.cumprod([1.0] + [(6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k)
                         for k in _K[1:]])
_UV = np.stack([_U, -_U * (6 * _K + 1) / (6 * _K - 1)], axis=1)


def _asymptotic(x):
    """DLMF 9.7.5-6 (x > 0) and 9.7.9-10 (x < 0), for |x| >= 12."""
    z = np.abs(x)
    zeta = z ** 1.5 / 1.5
    neg = x < 0
    su, sv = np.polynomial.polynomial.polyval(np.where(neg, 1j, -1.0) / zeta, _UV)
    f = np.where(neg, np.exp(-1j * (zeta - math.pi / 4)), 0.5 * np.exp(-zeta))
    r = np.sqrt(np.sqrt(z))
    return ((f * su).real / (r * math.sqrt(math.pi)),
            -r / math.sqrt(math.pi) * (np.where(neg, -1j, 1.0) * f * sv).real)


def _coeffs(x0, ai, aip):
    """Taylor coefficients at x0, shape (DEG, 2, ...): row 0 of Ai, row 1 of Ai'."""
    a = [ai, aip, 0.5 * x0 * ai]
    for k in range(1, DEG - 1):
        a.append((x0 * a[k] + a[k - 1]) / ((k + 1) * (k + 2)))
    return np.array([(a[k], (k + 1) * a[k + 1]) for k in range(DEG)])


def _horner(c, d):
    acc = c[-1].copy()  # in place: 1.7x as fast as polyval on the F2 nodes
    for ck in c[-2::-1]:
        acc *= d
        acc += ck
    return acc


@lru_cache(maxsize=None)
def _table():
    """Coefficients of every knot, shape (DEG, 2, knots)."""
    xs = np.arange(LO, HI + STEP / 2, STEP)
    ai, aip = np.empty((2, len(xs)))
    i0, i12 = np.searchsorted(xs, [0.0, 12.0])
    ai[i12:], aip[i12:] = _asymptotic(xs[i12:])
    ai[i0], aip[i0] = AI0, AIP0
    for i in range(i12, i0, -1):  # steps down from 12 and from 0: i12 - i0 == i0 knots each
        j = np.array([i, i - i0])
        ai[j - 1], aip[j - 1] = _horner(_coeffs(xs[j], ai[j], aip[j]), -STEP)
    ai[i0], aip[i0] = AI0, AIP0  # exact again: the chain from 12 ends on this knot
    return _coeffs(xs, ai, aip)


def airy_ai(x):
    """(Ai(x), Ai'(x)) as two floats, or two arrays for an array; NaN at inf and below FLOOR."""
    x = np.asarray(x, dtype=float)
    y, c = np.atleast_1d(x), _table()
    inside = np.abs(y - (LO + HI) / 2) <= (HI - LO + STEP) / 2
    k = np.rint((np.where(inside, y, LO) - LO) / STEP)
    ai, aip = _horner(c[:, :, k.astype(np.intp)], np.where(inside, y - (LO + STEP * k), 0.0))
    if not inside.all():
        ai[~inside] = aip[~inside] = np.where((y > CUTOFF) & (y < np.inf), 0.0, np.nan)[~inside]
        far = ~inside & (y >= FLOOR) & (y <= CUTOFF)
        ai[far], aip[far] = _asymptotic(y[far])
    return (float(ai[0]), float(aip[0])) if x.ndim == 0 else (ai, aip)
