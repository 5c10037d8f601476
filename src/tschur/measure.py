"""The alpha-specialized t-Schur measure and its first-row distribution.

Partition probabilities are exact rational numbers; the matrix model gives a
seeded sampler whose lambda_1 statistic (via the longest increasing
subsequence of the biword) can be compared against the Toeplitz-determinant
CDF computed in `numerics`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import partitions_in_box
from .rsk import Entry, PMatrix
from .symfunc import SpecializedVars, schur_S_t, schur_s

_TAIL_EPS = 1e-15


def _is_exactish(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class MeasureParams:
    """Parameter tuple (m, n, alpha, t) of the specialized measure."""

    m: int
    n: int
    alpha: object
    t: object

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive integers")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.t > 0:
            raise ValueError("t must be nonpositive")

    @property
    def tau(self):
        return self.m / self.n

    @property
    def rho(self):
        return self.alpha * self.alpha

    @property
    def exact(self):
        return _is_exactish(self.alpha) or isinstance(self.alpha, Fraction)


@dataclass(frozen=True)
class EntryDistribution:
    """Law of a single matrix entry, parameterized by rho = x_i y_j."""

    rho: object
    t: object

    def __post_init__(self):
        if not (0 <= self.rho < 1):
            raise ValueError("rho must lie in [0, 1)")
        if self.t > 0:
            raise ValueError("t must be nonpositive")

    @property
    def p0(self):
        return (1 - self.rho) / (1 - self.t * self.rho)

    def p_unmarked(self, k):
        if k < 1:
            raise ValueError("k >= 1")
        return self.p0 * self.rho ** k

    def p_marked(self, k):
        if k < 1:
            raise ValueError("k >= 1")
        return self.p0 * (-self.t) * self.rho ** k

    def cumulative_table(self, tail_eps=_TAIL_EPS):
        """Cumulative masses of |a| = 0, 1, 2, ..., renormalized after the
        geometric tail drops below `tail_eps`."""
        rho = float(self.rho)
        t = float(self.t)
        p0 = (1 - rho) / (1 - t * rho)
        masses = [p0]
        k = 1
        while 1 - sum(masses) > tail_eps:
            masses.append(p0 * (1 - t) * rho ** k)
            k += 1
        cum = np.cumsum(masses)
        return cum / cum[-1]


def entry_pmf(rho, t):
    return EntryDistribution(rho, t)


def z_norm(params):
    """Normalization Z_t = ((1 - t alpha^2)/(1 - alpha^2))^(mn)."""
    rho = params.rho
    return ((1 - params.t * rho) / (1 - rho)) ** (params.m * params.n)


def log_z_norm(params):
    rho = float(params.rho)
    return params.m * params.n * (math.log1p(-float(params.t) * rho) - math.log1p(-rho))


def partition_prob(lam, params):
    """P_t({lambda}) = S_lambda(alpha^m;t) s_lambda(alpha^n) / Z_t."""
    s = schur_s(lam, SpecializedVars(params.n, params.alpha))
    if s == 0:
        return Fraction(0) if params.exact else 0.0
    big = schur_S_t(lam, SpecializedVars(params.m, params.alpha), params.t)
    return big * s / z_norm(params)


def _mark_prob(t):
    t = float(t)
    return (-t) / (1 - t) if t != 0 else 0.0


def _sample_rng(params, rng):
    """One matrix draw as (sizes, marks) integer arrays of shape (m, n)."""
    cum = entry_pmf(params.rho, params.t).cumulative_table()
    u = rng.random(params.m * params.n)
    sizes = np.searchsorted(cum, u, side="right").reshape(params.m, params.n)
    marks = (rng.random(params.m * params.n).reshape(params.m, params.n) < _mark_prob(params.t)) & (
        sizes > 0
    )
    return sizes, marks


def sample_matrix(params, seed):
    """Draw an m x n matrix with i.i.d. entries from the entrywise law."""
    rng = np.random.default_rng(seed)
    sizes, marks = _sample_rng(params, rng)
    entries = [
        [
            Entry(int(sizes[i, j]), bool(marks[i, j])) if sizes[i, j] > 0 else None
            for j in range(params.n)
        ]
        for i in range(params.m)
    ]
    return PMatrix(entries)


def _lambda1_from_arrays(sizes, marks):
    """First-row length via patience sorting on the biword keys (Theorem 3)."""
    tails = []
    m, n = sizes.shape
    for i in range(m):
        row_sizes = sizes[i]
        row_marks = marks[i]
        for j in range(n):
            v = row_sizes[j]
            if v == 0:
                continue
            key = 2 * (j + 1)
            if row_marks[j]:
                pos = bisect_left(tails, key - 1)
                if pos == len(tails):
                    tails.append(key - 1)
                else:
                    tails[pos] = key - 1
                v -= 1
            for _ in range(v):
                pos = bisect_right(tails, key)
                if pos == len(tails):
                    tails.append(key)
                else:
                    tails[pos] = key
    return len(tails)


def sample_lambda1(params, samples, seed):
    """Array of lambda_1 values from `samples` independent seeded draws.

    Each sample uses its own child stream of `seed` (SeedSequence spawning),
    so results do not depend on evaluation order or worker partitioning.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    streams = np.random.SeedSequence(seed).spawn(samples)
    out = np.empty(samples, dtype=np.int64)
    for idx, ss in enumerate(streams):
        sizes, marks = _sample_rng(params, np.random.default_rng(ss))
        out[idx] = _lambda1_from_arrays(sizes, marks)
    return out


def lambda1_cdf_exact(params, h, mode="auto"):
    """P(lambda_1 <= h), exactly in rationals or in floating point.

    The exact route evaluates the Toeplitz determinant det T_h(phi)/Z_t over
    the rationals; the float route evaluates the same quantity as the
    finite-section Fredholm determinant of the Hankel product, which stays
    numerically meaningful at sizes where the raw Toeplitz determinant
    drowns in cancellation.  `mode` may force "exact" or "float"; "auto"
    takes the exact route for exact parameters and h <= 6.

    `h` may be an int or a sequence of ints; a sequence returns a list with
    the value of each h, its route chosen per h as for a single call.  All
    float-routed h share one `bo_cdf` call.
    """
    from . import numerics

    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if any(hh < 0 for hh in hs):
        raise ValueError("h must be nonnegative")
    exact_ok = params.exact and _is_exactish(params.t)
    exact = [mode == "exact" or (mode == "auto" and exact_ok and hh <= 6) for hh in hs]
    floats = [hh for hh, ex in zip(hs, exact) if not ex]
    float_vals = iter(numerics.bo_cdf(params, floats) if floats else [])
    vals = []
    for hh, ex in zip(hs, exact):
        if ex:
            sym = numerics.symbol_phi(params, -(max(hh, 1) - 1), max(hh - 1, 0), exact=True)
            vals.append(numerics.toeplitz_det(sym, hh) / z_norm(params))
        else:
            vals.append(next(float_vals))
    return vals[0] if single else vals


def lambda1_cdf_exact_oracle(params, h):
    """Gessel-sum oracle: direct sum of partition probabilities over the
    finite box {lambda : lambda_1 <= h, rows <= n}.  Exact; slow."""
    total = Fraction(0)
    for lam in partitions_in_box(h, params.n):
        total += partition_prob(lam, params)
    return total


def lambda1_cdf_mc(params, h, samples, seed):
    """Monte-Carlo estimate of P(lambda_1 <= h) with its binomial std error."""
    vals = sample_lambda1(params, samples, seed)
    p = float(np.mean(vals <= h))
    se = math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return p, se


def empirical_cdf(values, h_grid):
    values = np.sort(np.asarray(values))
    return np.searchsorted(values, h_grid, side="right") / len(values)


def ks_distance(values, params, h_max=None, mode="float"):
    """sup_h |empirical CDF - exact CDF| over the integer support."""
    values = np.asarray(values)
    if h_max is None:
        h_max = int(values.max()) + 2
    grid = np.arange(h_max + 1)
    emp = empirical_cdf(values, grid)
    exact = np.array([float(v) for v in lambda1_cdf_exact(params, range(h_max + 1), mode=mode)])
    return float(np.max(np.abs(emp - exact)))
