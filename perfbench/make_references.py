"""Regenerate perfbench/references.json from the exact Toeplitz route.

    python3 perfbench/make_references.py

P(lambda_1 <= h) = det T_h(phi) / Z_t for every h the workloads use, in exact
rational arithmetic: one Gaussian elimination of the largest Toeplitz matrix
of a parameter set yields all its leading principal minors, that is det T_h
for every smaller h at once.  The symbol coefficients come from
`numerics.symbol_phi(exact=True)`.  Each table is cross-checked against
`lambda1_cdf_exact(mode="exact")` and, on small boxes, against the
partition-sum oracle.

Independent of the library: F2 by Nystrom quadrature of the closed-form Airy
kernel with scipy's Airy function, and the saddle constants by an mpmath root
of the saddle equation at 40 digits.  Takes a few minutes.
"""

from __future__ import annotations

import decimal
import json
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)  # the exact CDF rationals run to thousands of digits

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
from scipy.special import airy  # noqa: E402

import workloads as W  # noqa: E402

measure, numerics, MeasureParams = W.measure, W.numerics, W.MeasureParams
SAMPLE_TAIL = F(1, 10**6)  # sample tables run until 1 - F(H) is below this
DIGITS = 30
F2_MEAN = "-1.7710868074116"  # Tracy-Widom GUE mean (Bornemann, Math. Comp. 2010)


def cdf_table(params, h_max, stop_tail=None):
    """[P(lambda_1 <= h) for h = 0..H] from one elimination of T_{h_max}.

    Gaussian elimination over the rationals needs no row exchange here (every
    leading minor is a positive probability times Z_t), so the running
    product of the first h pivots is det T_h.  With `stop_tail`, the table is
    cut at the first H with 1 - F(H) < stop_tail.
    """
    sym = numerics.symbol_phi(params, -(h_max - 1), h_max - 1, exact=True)
    a = [[sym.coeff(i - j) for j in range(h_max)] for i in range(h_max)]
    z = measure.z_norm(params)
    cdf = [F(1) / z]  # det T_0 = 1
    det = F(1)
    for k in range(h_max):
        pivot = a[k][k]
        if pivot == 0:
            raise ArithmeticError("singular leading minor")
        det *= pivot
        cdf.append(det / z)
        if stop_tail is not None and 1 - cdf[-1] < stop_tail:
            return cdf
        row_k = a[k]
        for i in range(k + 1, h_max):
            f = a[i][k] / pivot
            if f:
                row_i = a[i]
                for j in range(k + 1, h_max):
                    row_i[j] -= f * row_k[j]
    if stop_tail is not None:
        raise ValueError(f"{W.key(params)}: tail still above {stop_tail} at h={h_max}")
    return cdf


def sample_table(params):
    """CDF table through the first H with 1 - F(H) < SAMPLE_TAIL."""
    h_max = 40
    while True:
        try:
            return cdf_table(params, h_max, stop_tail=SAMPLE_TAIL)
        except ValueError:
            h_max = h_max * 3 // 2


def cross_check(params, cdf, toeplitz_h=(), oracle_h=()):
    for h in toeplitz_h:
        if measure.lambda1_cdf_exact(params, h, mode="exact") != cdf[h]:
            raise AssertionError(f"{W.key(params)} h={h}: leading minor != lambda1_cdf_exact")
    for h in oracle_h:
        if measure.lambda1_cdf_exact_oracle(params, h) != cdf[h]:
            raise AssertionError(f"{W.key(params)} h={h}: Toeplitz != partition-sum oracle")


def f2_reference(s, order):
    """F2(s) = det(I - K_Ai) on (s, s + L) by Gauss-Legendre Nystrom, with the
    closed-form kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y)."""
    hi = max(s, 0.0) + 16.0  # Ai(16)^2 ~ 1e-37: the kernel vanishes beyond
    u, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (hi - s) * (u + 1.0) + s
    w = 0.5 * (hi - s) * w
    ai, aip, _, _ = airy(x)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    k = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / dx
    np.fill_diagonal(k, aip ** 2 - x * ai ** 2)
    sw = np.sqrt(w)
    return float(np.linalg.det(np.eye(order) - sw[:, None] * k * sw[None, :]))


def saddle_constants(alpha, tau, t):
    """z0, c, sigma''' and g at 40 digits, from the saddle equation."""
    with mpmath.workdps(40):
        a, tau, t = (mpmath.mpf(x.numerator) / x.denominator for x in (alpha, tau, t))

        def lhs(z):
            return tau * (1 - t) * (z * z - t * a * a) / ((z - a) ** 2 * (z - t * a) ** 2) \
                - 1 / (1 - a * z) ** 2

        lo, hi = a, 1 / a  # lhs falls strictly from +inf to -inf in between
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if lhs(mid) > 0 else (lo, mid)
        z0 = (lo + hi) / 2
        c = a * z0 * (tau * (1 - t) / ((z0 - a) * (z0 - t * a)) + 1 / (1 - a * z0))
        s3 = 2 * tau / (z0 - a) ** 3 - 2 * tau / (z0 - t * a) ** 3 \
            + 2 * a ** 3 / (1 - a * z0) ** 3 - 2 * c / z0 ** 3
        g = (2 / s3) ** (mpmath.mpf(1) / 3) / z0
        return {k: mpmath.nstr(v, 30) for k, v in (("z0", z0), ("c", c), ("sigma3", s3), ("g", g))}


def rounded(x, digits=DIGITS, rounding=decimal.ROUND_HALF_EVEN):
    """Decimal string of the rational x, rounded once to `digits` significant digits."""
    ctx = decimal.Context(prec=digits, rounding=rounding, Emin=-10**6)
    return str(ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))


def main():
    refs = {"cdf": {}, "gessel": {}, "f2": {}, "constants": {}, "f2_mean": F2_MEAN}
    # rationals where the benchmark compares exactly; elsewhere the exact
    # value rounded to DIGITS digits, far below the 1e-8 tolerance
    exact = {(W.key(W.DIST_SMALL), h) for h in W.DIST_SMALL_H}
    exact |= {(W.key(W.DIST_HARD), h) for h in W.DIST_HARD_EXACT_H}
    exact |= {(W.key(p), h) for p, hs in W.ORACLE_CASES for h in range(max(hs) + 1)}

    def store(params, cdf, hs):
        k = W.key(params)
        entry = refs["cdf"].setdefault(k, {"values": {}})
        entry["values"].update({str(h): str(cdf[h]) if (k, h) in exact else rounded(cdf[h])
                                for h in hs})
        return entry

    def save():
        with open(W.REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {W.REFERENCES} ({W.REFERENCES.stat().st_size} bytes)", flush=True)

    def report(params, h_max):
        print(f"cdf {W.key(params)} through h={h_max}", flush=True)

    # dist tables; the hard table doubles as a sample table below
    for params, hs, oracle_h in (
        (W.DIST_SMALL, W.DIST_SMALL_H, (0, 1, 2, 3)),
        (W.DIST_MID, W.DIST_MID_AUTO_H, ()),
    ):
        report(params, max(hs))
        cdf = cdf_table(params, max(hs))
        cross_check(params, cdf, (max(hs) // 2, max(hs)) if params.n <= 5 else (12,), oracle_h)
        store(params, cdf, hs)
    for params, hs in W.ORACLE_CASES:
        report(params, max(hs))
        cdf = cdf_table(params, max(hs))
        cross_check(params, cdf, hs, hs[:2])
        store(params, cdf, range(len(cdf)))  # h <= 4 also checks the dist CLI set-up

    # sample tables: every h until the tail is negligible next to the DKW radius
    for params in W.SAMPLE_PARAMS:
        report(params, "tail")
        cdf = sample_table(params)
        cross_check(params, cdf, (5, 20), (0, 1, 2) if params.n <= 10 else (0, 1))
        entry = store(params, cdf, range(len(cdf)))
        entry["tail_bound"] = rounded(1 - cdf[-1], 3, decimal.ROUND_CEILING)
    hard = refs["cdf"][W.key(W.DIST_HARD)]["values"]
    if not all(str(h) in hard for h in W.DIST_HARD_EXACT_H + W.DIST_HARD_AUTO_H):
        raise AssertionError("sample table of the dist hard case is too short")

    # degreewise Gessel identity: the Toeplitz side as an exact alpha-series
    for m, n, t, h in W.GESSEL_CASES:
        sym = numerics.symbol_phi_alpha_series(m, n, t, -(max(h, 1) - 1), max(h - 1, 0),
                                               W.GESSEL_DEGREE)
        series = numerics.toeplitz_det_series(sym, h)
        refs["gessel"][f"{m},{n},{t},{h},{W.GESSEL_DEGREE}"] = [
            str(series.coeff(k)) for k in range(W.GESSEL_DEGREE + 1)]

    for s in sorted(set(W.CONVERGE_S_GRID) | set(W.TW_GRID)):
        lo, hi = f2_reference(s, 120), f2_reference(s, 200)
        if abs(lo - hi) > 1e-13:
            raise AssertionError(f"F2({s}) reference not converged: {abs(lo - hi):.1e}")
        refs["f2"][repr(float(s))] = repr(hi)
    save()

    # converge: exact CDF at each lattice point of the scaled grid (the slow part)
    for config, n_list in W.CONVERGE_CONFIGS:
        consts = saddle_constants(*config)
        refs["constants"][",".join(str(F(x)) for x in config)] = consts
        c, g = float(consts["c"]), float(consts["g"])
        for n in sorted(n_list):
            params = MeasureParams(int(config[1] * n), n, config[0], config[2])
            hs = [W.converge_h(c, g, n, s) for s in W.CONVERGE_S_GRID]
            report(params, max(hs))
            cdf = cdf_table(params, max(hs))
            cross_check(params, cdf, (min(hs),) if n <= 25 else ())
            store(params, cdf, hs)
            save()


if __name__ == "__main__":
    main()
