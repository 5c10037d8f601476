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
    """Each check fails for a NaN or infinite value, as a comparison with NaN is false."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if not (0 < tau < math.inf):
        raise ValueError("tau must be positive and finite")
    if not (-math.inf < t <= 0):
        raise ValueError("t must be nonpositive and finite")


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


def sigma_derivative(order, z, alpha, tau, t, c):
    """The k-th derivative of sigma at z, k = order >= 1, from the partial
    fractions sigma' = tau/(z-alpha) - tau/(z-t*alpha) + alpha/(1-alpha*z) - c/z
    (tau*alpha*(1-t)/((z-alpha)(z-t*alpha)) splits into the first two)."""
    k = order
    fk = math.factorial(k - 1)
    s = (-1) ** (k - 1) * fk
    return (
        s * tau / (z - alpha) ** k
        - s * tau / (z - t * alpha) ** k
        + fk * alpha ** k / (1 - alpha * z) ** k
        - s * c / z ** k
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
    s3 = sigma_derivative(3, z0, alpha, tau, t, c)
    if not (0 < c < math.inf and 0 < s3 < math.inf):
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
    float route of `lambda1_cdf_exact` (the Borodin-Okounkov determinant as
    one min(m, n) x min(m, n) determinant, its Newton differences built in
    integer arithmetic and each rounded once).

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

    `alpha` and `t` reach `MeasureParams` as given, so a rational is the
    measure at that rational and a float the measure at its binary value;
    only the saddle-point constants take their nearest doubles.  The CDF
    values come from the float route of `lambda1_cdf_exact`, one
    `scaled_cdf` call per n over the whole s-grid, so the integer Newton
    differences are built once per n.  Returns (rows, summary): rows are
    dicts with n, s, empirical_cdf, f2 and abs_diff (or n, s and error if
    the call for that n raised ArithmeticError); summary pairs each n with
    its sup-distance over the grid, NaN for an n whose call raised.  An
    empty `n_list` or `s_grid` measures nothing and raises ValueError.
    """
    if not len(n_list) or not len(s_grid):
        raise ValueError("n_list and s_grid must be nonempty")
    f2_vals = {float(s): tw_f2(float(s)) for s in s_grid}
    data = constants(float(alpha), float(tau), float(t))
    rows = []
    summary = []
    for n in n_list:
        m = tau * n
        if abs(m - round(m)) > 1e-9:
            raise ValueError(f"tau * n must be an integer; got {m}")
        params = MeasureParams(int(round(m)), int(n), alpha, t)
        sup = 0.0
        try:
            cdfs = scaled_cdf(params, data, [float(s) for s in s_grid], shift=shift)
        except ArithmeticError as exc:
            rows.extend({"n": int(n), "s": float(s), "error": str(exc)} for s in s_grid)
            cdfs, sup = [], math.nan
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
