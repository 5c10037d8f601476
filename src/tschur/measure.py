"""The alpha-specialized t-Schur measure and its first-row distribution.

Partition probabilities are exact rational numbers; the matrix model gives a
seeded sampler whose lambda_1 statistic (the longest increasing subsequence
of the biword, as a marked last-passage time) can be compared against the
Toeplitz-determinant CDF computed in `numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import partitions_in_box  # noqa: F401 (looked up by perfbench's tests)
from .rsk import Entry, PMatrix
from .symfunc import SpecializedVars, schur_S_t, schur_s, weights_by_size

_TAIL_EPS = 1e-15
_BLOCK_ENTRIES = 1 << 18  # matrix entries drawn at once by `sample_lambda1`


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
        return _is_exactish(self.alpha)


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

    def cumulative_table(self):
        """Cumulative masses of |a| = 0, 1, 2, ..., renormalized after the
        geometric tail drops below _TAIL_EPS."""
        rho = float(self.rho)
        t = float(self.t)
        p0 = (1 - rho) / (1 - t * rho)
        masses = [p0]
        k = 1
        while 1 - sum(masses) > _TAIL_EPS:
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


def _entry_law(params):
    """(cumulative table of |a|, probability that a nonzero entry is marked)."""
    return entry_pmf(params.rho, params.t).cumulative_table(), _mark_prob(params.t)


def _draw(law, seeds, cells):
    """(sizes, marks) arrays of shape (len(seeds), cells), one row per seed:
    each row takes its own generator and two `random(cells)` calls."""
    cum, mark_prob = law
    u = np.empty((len(seeds), 2, cells))
    for row, seed in zip(u, seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=row[0])
        rng.random(out=row[1])
    sizes = np.searchsorted(cum, u[:, 0], side="right")
    marks = (u[:, 1] < mark_prob) & (sizes > 0)
    return sizes, marks


def sample_matrix(params, seed):
    """Draw an m x n matrix with i.i.d. entries from the entrywise law.

    RSK marks the column letters, so the shape of this matrix follows the law
    of MeasureParams(n, m, ...); `sample_lambda1` draws the n x m layout,
    whose shape follows `params`.  At m = n the two coincide.
    """
    sizes, marks = _draw(_entry_law(params), [seed], params.m * params.n)
    sizes = sizes.reshape(params.m, params.n)
    marks = marks.reshape(params.m, params.n)
    entries = [
        [
            Entry(int(sizes[i, j]), bool(marks[i, j])) if sizes[i, j] > 0 else None
            for j in range(params.n)
        ]
        for i in range(params.m)
    ]
    return PMatrix(entries)


def _first_rows(sizes, marks):
    """lambda_1 of each matrix in a (draws, rows, cols) stack of entry sizes
    and marks, by the marked last-passage recursion over the cells:

        S(i,j) = max(S(i-1,j) + v_ij - b_ij, F(i,j-1) + v_ij)
        F(i,j) = max(F(i,j-1), F(i-1,j), S(i,j)),   lambda_1 = F(rows, cols)

    F is the longest increasing subsequence of the biword read from the cells
    up to (i,j), and S the longest that ends in cell (i,j): a column gives its
    marked letter at most once, and only before its unmarked ones (Theorem 3;
    Johansson, CMP 2000, for t = 0).  Along a row, F(i,j) = max(F(i,j-1) +
    v_ij, F(i-1,j), S(i-1,j) + v_ij - b_ij) is a (max, +) prefix scan, so
    the loop runs over rows only.
    """
    draws, rows, cols = sizes.shape
    s = np.zeros((draws, cols), dtype=np.int64)
    f = np.zeros((draws, cols), dtype=np.int64)
    left = np.zeros((draws, cols), dtype=np.int64)
    for i in range(rows):
        v = sizes[:, i]
        down = s + v - marks[:, i]  # S(i-1,j) + v_ij - b_ij
        prefix = np.cumsum(v, axis=1)
        f = prefix + np.maximum.accumulate(np.maximum(np.maximum(f, down) - prefix, 0), axis=1)
        left[:, 1:] = f[:, :-1]  # F(i,j-1), with F(i,0) = 0
        s = np.maximum(down, left + v)
    return f[:, -1]


def sample_lambda1(params, samples, seed):
    """Array of lambda_1 values from `samples` independent seeded draws.

    Each sample uses its own child stream of `seed` (SeedSequence spawning),
    so results do not depend on evaluation order or block size.  A draw is an
    n x m matrix: RSK marks its column letters, which carry S_lambda(alpha^m;
    t), and its rows carry s_lambda(alpha^n).  Draws are taken in blocks of
    about `_BLOCK_ENTRIES` entries, so memory stays bounded.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    law = _entry_law(params)
    cells = params.m * params.n
    block = max(1, _BLOCK_ENTRIES // cells)
    parent = np.random.SeedSequence(seed)
    out = np.empty(samples, dtype=np.int64)
    for start in range(0, samples, block):
        streams = parent.spawn(min(block, samples - start))
        sizes, marks = _draw(law, streams, cells)
        shape = (len(streams), params.n, params.m)
        out[start:start + len(streams)] = _first_rows(sizes.reshape(shape), marks.reshape(shape))
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
    float-routed h share one `bo_cdf` call, and all exact-routed h one
    `toeplitz_det` pass, whose leading minors are the determinants of the
    smaller h.
    """
    from . import numerics

    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if any(hh < 0 for hh in hs):
        raise ValueError("h must be nonnegative")
    exact_ok = params.exact and _is_exactish(params.t)
    if mode == "exact" and not exact_ok:
        raise ValueError("the exact route (Toeplitz determinant over the rationals) "
                         "needs rational alpha and t; pass Fractions")
    exact = [mode == "exact" or (mode == "auto" and exact_ok and hh <= 6) for hh in hs]
    floats = [hh for hh, ex in zip(hs, exact) if not ex]
    exacts = [hh for hh, ex in zip(hs, exact) if ex]
    float_vals = iter(numerics.bo_cdf(params, floats) if floats else [])
    exact_vals = iter([])
    if exacts:
        top = max(exacts)
        sym = numerics.symbol_phi(params, -(max(top, 1) - 1), max(top - 1, 0))
        z = z_norm(params)
        exact_vals = iter([det / z for det in numerics.toeplitz_det(sym, exacts)])
    vals = [next(exact_vals) if ex else next(float_vals) for ex in exact]
    return vals[0] if single else vals


def lambda1_cdf_exact_oracle(params, h):
    """Gessel-sum oracle: P(lambda_1 <= h) as the direct sum of the partition
    weights over the finite box {lambda : lambda_1 <= h, rows <= n}.  Exact;
    slow.

    The weights come from `weights_by_size` at alpha = 1, by size up to h n;
    a partition of size k weighs rho^k times as much at alpha.
    """
    total = 0
    for wk in reversed(weights_by_size(params.m, params.n, params.t, h * params.n, max_part=h)):
        total = total * params.rho + wk
    return total / z_norm(params)


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
