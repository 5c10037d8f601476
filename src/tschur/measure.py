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
from numbers import Rational

import numpy as np

from . import numerics
from .partitions import partitions_in_box  # noqa: F401 (looked up by perfbench's tests)
from .rsk import Entry, PMatrix
from .symfunc import SpecializedVars, schur_S_t, schur_s, weights_by_size

_BLOCK_ENTRIES = 1 << 18  # matrix entries drawn at once by `sample_lambda1`


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
        """Whether alpha and t are rational, as the exact routes need."""
        return isinstance(self.alpha, Rational) and isinstance(self.t, Rational)


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


def z_norm(params):
    """Normalization Z_t = ((1 - t alpha^2)/(1 - alpha^2))^(mn)."""
    rho = params.rho
    return ((1 - params.t * rho) / (1 - rho)) ** (params.m * params.n)


def partition_prob(lam, params):
    """P_t({lambda}) = S_lambda(alpha^m;t) s_lambda(alpha^n) / Z_t."""
    s = schur_s(lam, SpecializedVars(params.n, params.alpha))
    if s == 0:
        return Fraction(0) if params.exact else 0.0
    big = schur_S_t(lam, SpecializedVars(params.m, params.alpha), params.t)
    return big * s / z_norm(params)


def _entry_law(params):
    """(p0, log rho, probability that a nonzero entry is marked) in floats:
    |a| = 0 with probability p0, and P(|a| <= k) = 1 - (1 - p0) rho^k."""
    rho, t = float(params.rho), float(params.t)
    return (1 - rho) / (1 - t * rho), math.log(rho), -t / (1 - t)


# numpy's SeedSequence hash (O'Neill's seed_seq design) on 32-bit words:
# `_child_seeds` computes for a whole block what `SeedSequence.spawn`
# computes one child at a time
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1


def _hashmix(value, init, mult, k):
    """The k-th hashmix of a hash constant that starts at `init`, on uint32 values."""
    const = init * pow(mult, k, 1 << 32) & _M32
    value = (value ^ np.uint32(const)) * np.uint32(const * mult & _M32)
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    """SeedSequence's mix of the pool word x (an int) with uint32 values y."""
    value = np.uint32(_MIX_L * x & _M32) - np.uint32(_MIX_R) * y
    return value ^ (value >> np.uint32(16))


def _child_seeds(parent, start, count):
    """`parent.spawn(...)[i].generate_state(4, np.uint64)` for the children
    i = start .. start+count-1 of a fresh SeedSequence, as a (count, 4)
    uint64 array.

    A child hashes the parent's entropy and then its spawn key i as one more
    32-bit word.  `parent.pool` already holds the first part; by then the
    hash constant has made 16 + 4 max(0, w - 4) steps, for w entropy words
    (each int of the entropy gives its own words, at least one).
    """
    entropy = parent.entropy
    ints = [entropy] if isinstance(entropy, (int, np.integer)) else entropy
    words = sum(max(1, -(-int(x).bit_length() // 32)) for x in ints)
    steps = 16 + 4 * max(0, words - 4)
    key = np.arange(start, start + count, dtype=np.uint32)
    pool = [_mix(int(x), _hashmix(key, _INIT_A, _MULT_A, steps + d))
            for d, x in enumerate(parent.pool)]
    state = [_hashmix(pool[j % 4], _INIT_B, _MULT_B, j).astype(np.uint64) for j in range(8)]
    return np.stack([state[j] | state[j + 1] << np.uint64(32) for j in range(0, 8, 2)], axis=1)


class _ChildWords:
    """A child's four seed words as numpy's PCG64 reads a seed sequence: it
    asks only for `generate_state(4, np.uint64)`."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def _draw(law, seeds, cells):
    """(sizes, marks) arrays of shape (len(seeds), cells), one row for each
    row of `seeds`, the four words of a `generate_state(4, np.uint64)`.

    Row r holds what `default_rng` seeded from those words gives in two
    `random(cells)` calls, taken as one `random` call on a PCG64 seeded
    from the row's words.  A size inverts the law's CDF at the first u: 0
    if u < p0, else the least k with 1 - (1 - p0) rho^k > u; the second u
    marks a nonzero entry.
    """
    p0, log_rho, mark_prob = law
    # imported on first use: cold `tschur dist` needs none of numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_ChildWords)  # a no-op once registered
    u = np.empty((len(seeds), 2 * cells))
    for row, words in zip(u, seeds):
        np.random.Generator(np.random.PCG64(_ChildWords(words))).random(out=row)
    size_u, mark_u = u[:, :cells], u[:, cells:]
    tail = np.floor((np.log1p(-size_u) - math.log1p(-p0)) / log_rho).astype(np.int64)
    sizes = np.where(size_u < p0, 0, 1 + tail)
    marks = (mark_u < mark_prob) & (sizes > 0)
    return sizes, marks


def sample_matrix(params, seed):
    """Draw an m x n matrix with i.i.d. entries from the entrywise law.

    RSK marks the column letters, so the shape of this matrix follows the law
    of MeasureParams(n, m, ...); `sample_lambda1` draws the n x m layout,
    whose shape follows `params`.  At m = n the two coincide.
    """
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    sizes, marks = _draw(_entry_law(params), words[None], params.m * params.n)
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

    Draw i takes its own stream: `default_rng` of child i of
    `SeedSequence(seed)`, so results do not depend on evaluation order or
    block size.  The children's seeds are computed a block at a time
    (`_child_seeds`), with the same bytes as `spawn`.  A draw is an n x m
    matrix: RSK marks its column letters, which carry S_lambda(alpha^m; t),
    and its rows carry s_lambda(alpha^n).  Draws are taken in blocks of
    about `_BLOCK_ENTRIES` entries, so memory stays bounded.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    if samples >= 1 << 32:
        raise ValueError("samples must be below 2**32: each draw's spawn key is "
                         "hashed as one 32-bit word")
    law = _entry_law(params)
    cells = params.m * params.n
    block = max(1, _BLOCK_ENTRIES // cells)
    parent = np.random.SeedSequence(seed)
    out = np.empty(samples, dtype=np.int64)
    for start in range(0, samples, block):
        count = min(block, samples - start)
        sizes, marks = _draw(law, _child_seeds(parent, start, count), cells)
        shape = (count, params.n, params.m)
        out[start:start + count] = _first_rows(sizes.reshape(shape), marks.reshape(shape))
    return out


def lambda1_cdf_exact(params, h, mode="auto"):
    """P(lambda_1 <= h), exactly in rationals or in floating point.

    The exact route evaluates the Toeplitz determinant det T_h(phi)/Z_t over
    the rationals; the float route evaluates the same quantity as the
    finite-section Fredholm determinant of the Hankel product, which stays
    numerically meaningful at sizes where the raw Toeplitz determinant
    drowns in cancellation.  Both routes run on the whole domain t <= 0.
    `mode` may force "exact" or "float"; "auto" takes the exact route for
    exact parameters and h <= 6.

    `h` may be an int or a sequence of ints; a sequence returns a list with
    the value of each h, its route chosen per h as for a single call.  All
    float-routed h share one `bo_cdf` call, and all exact-routed h one
    `toeplitz_det` pass, whose leading minors are the determinants of the
    smaller h.
    """
    single = np.ndim(h) == 0
    hs = [h] if single else list(h)
    if any(hh < 0 for hh in hs):
        raise ValueError("h must be nonnegative")
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"mode must be 'auto', 'exact' or 'float', not {mode!r}")
    if mode == "exact" and not params.exact:
        raise ValueError("the exact route (Toeplitz determinant over the rationals) "
                         "needs rational alpha and t; pass Fractions")
    exacts = [hh for hh in hs if mode == "exact" or (mode == "auto" and params.exact and hh <= 6)]
    floats = [hh for hh in hs if hh not in exacts]
    vals = dict(zip(floats, numerics.bo_cdf(params, floats))) if floats else {}
    if exacts:
        top = max(exacts)
        sym = numerics.symbol_phi(params, -(max(top, 1) - 1), max(top - 1, 0))
        z = z_norm(params)
        vals.update(zip(exacts, [det / z for det in numerics.toeplitz_det(sym, exacts)]))
    vals = [vals[hh] for hh in hs]
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


def ks_distance(values, params, mode="float"):
    """sup_h |empirical CDF - exact CDF| over h = 0 .. max(values) + 2."""
    hs = range(int(np.max(values)) + 3)
    emp = empirical_cdf(values, hs)
    exact = np.array([float(v) for v in lambda1_cdf_exact(params, hs, mode=mode)])
    return float(np.max(np.abs(emp - exact)))
