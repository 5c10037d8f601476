"""Saddle-point constants for the first-row fluctuations, and the desk-scale
convergence experiment against Tracy-Widom.

With psi(z) = ((z-alpha)/(z-t*alpha))^m (1-alpha z)^{-n} z^{-cn} and
sigma = n^{-1} log psi, the centering constant c makes sigma' vanish to
second order at the unique saddle z0 in (alpha, 1/alpha); the scaling
constant is g = z0^{-1} (2/sigma'''(z0))^{1/3}.  The limit law of
(lambda_1 - c n)/(g^{-1} n^{1/3}) is F2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MeasureParams, lambda1_cdf_exact
from .tracy_widom import tw_f2


def _check_ranges(alpha, tau, t):
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t > 0:
        raise ValueError("t must be nonpositive")


def saddle_root_function(alpha, tau, t):
    """LHS of the saddle equation; strictly decreasing on (alpha, 1/alpha)."""

    def f(z):
        return tau * (1 - t) * (z * z - t * alpha * alpha) / (
            (z - alpha) ** 2 * (z - t * alpha) ** 2
        ) - 1.0 / (1.0 - alpha * z) ** 2

    return f


def saddle_point(alpha, tau, t):
    """Unique root z0 of the saddle equation in (alpha, 1/alpha), by bisection."""
    _check_ranges(alpha, tau, t)
    lo, hi = alpha, 1.0 / alpha
    eps = 1e-12 * (hi - lo)
    return _bisect(
        saddle_root_function(alpha, tau, t), lo + eps, hi - eps,
        xtol=1e-15, rtol=8.9e-16,
    )


def _bisect(f, xa, xb, xtol, rtol):
    """Root of f in [xa, xb] by the iteration of `scipy.optimize.bisect`:
    halve the step dm from xa, keep the midpoint xm as xa while f(xm) f(xa)
    >= 0, and stop when f(xm) = 0 or |dm| < xtol + rtol |xm|, within
    scipy's default of 100 steps."""
    fa, fb = f(xa), f(xb)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError("bisection did not converge in 100 iterations")


def sigma_prime(z, alpha, tau, t, c):
    # partial fractions: tau*alpha*(1-t)/((z-a)(z-ta)) = tau/(z-a) - tau/(z-ta)
    return tau / (z - alpha) - tau / (z - t * alpha) + alpha / (1 - alpha * z) - c / z


def sigma_second(z, alpha, tau, t, c):
    return (
        -tau / (z - alpha) ** 2
        + tau / (z - t * alpha) ** 2
        + alpha ** 2 / (1 - alpha * z) ** 2
        + c / z ** 2
    )


def sigma_third(z, alpha, tau, t, c):
    return (
        2 * tau / (z - alpha) ** 3
        - 2 * tau / (z - t * alpha) ** 3
        + 2 * alpha ** 3 / (1 - alpha * z) ** 3
        - 2 * c / z ** 3
    )


@dataclass(frozen=True)
class SaddleData:
    z0: float
    c: float
    sigma3: float
    g: float

    @property
    def c1(self):
        return self.c

    @property
    def c2(self):
        return 1.0 / self.g


def constants(alpha, tau, t):
    """Centering c and scaling g from the saddle point."""
    z0 = saddle_point(alpha, tau, t)
    c = alpha * z0 * (
        tau * (1 - t) / ((z0 - alpha) * (z0 - t * alpha)) + 1.0 / (1.0 - alpha * z0)
    )
    s3 = sigma_third(z0, alpha, tau, t, c)
    if c <= 0 or s3 <= 0:
        raise ArithmeticError("saddle data violates positivity")
    g = (2.0 / s3) ** (1.0 / 3.0) / z0
    return SaddleData(z0=z0, c=c, sigma3=s3, g=g)


def t0_closed_forms(alpha, tau):
    """Closed forms of z0, c1, c2 at t = 0."""
    rt = math.sqrt(tau)
    z0 = (alpha + rt) / (1.0 + rt * alpha)
    c1 = (1.0 + rt * alpha) ** 2 / (1.0 - alpha * alpha) - 1.0
    c2 = (
        alpha ** (1.0 / 3.0)
        * tau ** (-1.0 / 6.0)
        / (1.0 - alpha * alpha)
        * (alpha + rt) ** (2.0 / 3.0)
        * (1.0 + rt * alpha) ** (2.0 / 3.0)
    )
    return z0, c1, c2


def scaled_cdf(params, data, s, shift=-1):
    """P(lambda_1 <= h + shift) at h = ceil(c n + g^{-1} n^{1/3} s), by the
    float route of `lambda1_cdf_exact` (the Borodin-Okounkov determinant,
    with correctly rounded Hankel entries built in integer arithmetic).

    `s` may be a number (returns a float) or a sequence (returns a list with
    one float per s, all from one `lambda1_cdf_exact` call).  The default
    shift -1 reads the theorem's strict inequality "< s" on the integer
    lattice; shift 0 gives the weak-inequality convention.
    """
    single = np.ndim(s) == 0
    n = params.n
    hs = [math.ceil(data.c * n + n ** (1.0 / 3.0) * x / data.g) + shift
          for x in ([s] if single else s)]
    cdf = iter(lambda1_cdf_exact(params, [h for h in hs if h >= 0], mode="float"))
    vals = [float(next(cdf)) if h >= 0 else 0.0 for h in hs]
    return vals[0] if single else vals


def convergence_experiment(alpha, tau, t, n_list, s_grid, shift=-1):
    """Sup-distance between the scaled lambda_1 law and F2 for each n.

    The CDF values come from the float route of `lambda1_cdf_exact`, one
    `scaled_cdf` call per n over the whole s-grid, so the Hankel
    coefficients are built once per n.  Returns (rows, summary): rows are
    dicts with n, s, empirical_cdf, f2 and abs_diff (or n, s and error if
    the call for that n raised ArithmeticError); summary pairs each n with
    its sup-distance over the grid.
    """
    f2_vals = {float(s): tw_f2(float(s)) for s in s_grid}
    data = constants(alpha, tau, t)
    rows = []
    summary = []
    for n in n_list:
        m = tau * n
        if abs(m - round(m)) > 1e-9:
            raise ValueError(f"tau * n must be an integer; got {m}")
        params = MeasureParams(int(round(m)), int(n), float(alpha), float(t))
        sup = 0.0
        try:
            cdfs = scaled_cdf(params, data, [float(s) for s in s_grid], shift=shift)
        except ArithmeticError as exc:
            rows.extend({"n": int(n), "s": float(s), "error": str(exc)} for s in s_grid)
            cdfs = []
        for s, cdf in zip(s_grid, cdfs):
            f2 = f2_vals[float(s)]
            diff = abs(cdf - f2)
            sup = max(sup, diff)
            rows.append(
                {
                    "n": int(n),
                    "s": float(s),
                    "empirical_cdf": cdf,
                    "f2": f2,
                    "abs_diff": diff,
                }
            )
        summary.append({"n": int(n), "sup_distance": sup})
    return rows, summary
