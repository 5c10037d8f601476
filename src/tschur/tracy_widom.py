"""Tracy-Widom F2 via Nystrom discretization of the Airy-kernel Fredholm
determinant on (s, infinity), with the closed-form kernel (Bornemann, "On the
numerical evaluation of Fredholm determinants", Math. Comp. 2010).

The quadrature rule is built once per order: the exponential map's Jacobian
does not depend on s, so a value of F2 only shifts the cached nodes, builds
the kernel and takes one determinant."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .airy import airy_ai

ORDER = 80  # Gauss-Legendre nodes on the mapped interval
CUT = 30.0  # the interval is (s, s + CUT); K(x, x) < 1e-54 beyond x = 20
KAPPA = 3.0  # clustering of the exponential map towards s
TOL = 1e-8  # largest change under doubling that `check` accepts


class NonConvergedError(ArithmeticError):
    """Raised when quadrature refinement fails to stabilize the determinant."""


@lru_cache(maxsize=None)
def _rule(order):
    """Gauss-Legendre rule of `order` nodes under the exponential change of
    variables [0,1] -> [0, CUT] clustering at 0: the offsets x - s of the
    nodes and the weights sqrt(w dx), both read-only."""
    u, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    scale = CUT / math.expm1(KAPPA)
    offsets = scale * np.expm1(KAPPA * u)
    sq = np.sqrt(w * (scale * KAPPA * np.exp(KAPPA * u)))
    offsets.flags.writeable = False
    sq.flags.writeable = False
    return offsets, sq


def _kernel_matrix(xs):
    """K_Airy(x_i, x_j) = (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y) on distinct nodes,
    with the diagonal Ai'(x)^2 - x Ai(x)^2."""
    ai, aip = airy_ai(xs)
    diff = xs[:, None] - xs[None, :]
    np.fill_diagonal(diff, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(K, aip ** 2 - xs * ai ** 2)
    return K


def _f2_once(s, order):
    offsets, sq = _rule(order)
    K = _kernel_matrix(s + offsets)
    M = np.eye(order) - sq[:, None] * K * sq[None, :]
    return float(np.linalg.det(M))


def tw_f2(s, check=False):
    """F2(s) = det(I - K_Airy) on L^2(s, infinity).

    With `check` the quadrature order is doubled and the refined value is
    returned; a discrepancy above TOL raises NonConvergedError, and so does
    a determinant outside [-TOL, 1 + TOL].
    """
    if not -10.0 <= s <= 10.0:
        raise ValueError("s outside supported range [-10, 10]")
    val = _f2_once(s, ORDER)
    if check:
        refined = _f2_once(s, 2 * ORDER)
        if abs(refined - val) > TOL:
            raise NonConvergedError(
                f"F2({s}) changed by {abs(refined - val):.3e} under refinement"
            )
        val = refined
    if not -TOL <= val <= 1.0 + TOL:
        raise NonConvergedError(f"F2({s}) = {val!r} lies outside [0, 1] by more than {TOL}")
    return val


def tw_f2_mean(order=120):
    """Mean of the F2 law: int_0^inf (1 - F2) ds - int_-inf^0 F2 ds.

    Tails beyond [-10, 10] are below 1e-20 and are dropped.
    """
    u, w = np.polynomial.legendre.leggauss(order)
    lo = -0.5 * 10.0 * (u + 1.0)  # [-10, 0]
    acc = 0.0
    for s, wt in zip(lo, w * 5.0):
        acc -= wt * tw_f2(float(s))
    hi = 0.5 * 10.0 * (u + 1.0)
    for s, wt in zip(hi, w * 5.0):
        acc += wt * (1.0 - tw_f2(float(s)))
    return acc
