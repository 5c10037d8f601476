"""Measure parameters, entrywise law, sampling, and the lambda_1 CDF."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur import EntryDistribution, measure
from tschur.measure import (
    MeasureParams,
    empirical_cdf,
    ks_distance,
    lambda1_cdf_exact,
    lambda1_cdf_exact_oracle,
    lambda1_cdf_mc,
    partition_prob,
    sample_lambda1,
    sample_matrix,
    z_norm,
)
from tschur.partitions import Partition, partitions, partitions_in_box
from tschur.rsk import Entry, PMatrix, _lis_keys, biword_from_matrix, rsk

F = Fraction


def test_params_validation():
    with pytest.raises(ValueError):
        MeasureParams(0, 1, F(1, 2), 0)
    with pytest.raises(ValueError):
        MeasureParams(1, 1, F(3, 2), 0)
    with pytest.raises(ValueError):
        MeasureParams(1, 1, F(1, 2), F(1, 2))
    p = MeasureParams(2, 4, F(1, 2), F(-1))
    assert p.tau == 0.5 and p.rho == F(1, 4) and type(p.alpha) is type(p.t) is F


def test_params_read_numpy_integers_exactly():
    # NumPy integers used to overflow in the integer recurrences and in
    # Fraction ** np.int64: h = 1 gave -1.454 (true 7.7e-60), h = 3..6 an
    # inexact division, t = np.int64(-1) at h = 2 gave -4.9e-86, Z_t 0.977
    i64 = np.int64
    q = MeasureParams(10, 10, F(4, 5), F(-1))
    hs = range(1, 7)
    for p in (MeasureParams(i64(10), i64(10), F(4, 5), F(-1)),
              MeasureParams(10, 10, F(4, 5), i64(-1))):
        assert (type(p.m), type(p.n), type(p.t.numerator)) == (int, int, int)
        assert z_norm(p) == z_norm(q)
        assert lambda1_cdf_exact(p, hs, mode="exact") == lambda1_cdf_exact(q, hs, mode="exact")
    p = MeasureParams(2, 2, 0.4, -1.0)  # floats at their binary values
    assert (p.alpha, p.t) == (F(0.4), F(-1)) and type(p.alpha) is F
    for m in (2.5, "2", None):
        with pytest.raises(ValueError, match="positive integers"):
            MeasureParams(m, 2, F(1, 2), F(-1))


def test_params_are_fractions_of_ints_for_every_real():
    # ints, Fractions and NumPy integers exactly; floats at their binary values
    for alpha, t, want in ((F(2, 5), np.int64(-3), (F(2, 5), F(-3))),
                           (0.4, -0.3, (F(0.4), F(-0.3))),
                           (np.float32(0.4), np.float64(-0.3), (F(float(np.float32(0.4))), F(-0.3))),
                           (np.float64(0.4), 0, (F(0.4), F(0)))):
        p = MeasureParams(2, 2, alpha, t)
        assert (p.alpha, p.t) == want
        for x in (p.alpha, p.t):
            assert type(x) is F and type(x.numerator) is type(x.denominator) is int
    assert MeasureParams(2, 2, np.float32(0.5), np.float64(-0.5)) == \
        MeasureParams(2, 2, F(1, 2), F(-1, 2))
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            MeasureParams(2, 2, bad, F(-1, 2))
        with pytest.raises(ValueError, match="t must be finite"):
            MeasureParams(2, 2, F(1, 2), bad)


def test_exact_route_takes_float_parameters_at_their_binary_values():
    p, q = MeasureParams(5, 5, 0.4, -0.5), MeasureParams(5, 5, F(0.4), F(-0.5))
    assert lambda1_cdf_exact(p, range(7), mode="exact") == \
        lambda1_cdf_exact(q, range(7), mode="exact")
    auto = lambda1_cdf_exact(p, range(9))
    assert all(type(v) is F for v in auto[:7]) and all(type(v) is float for v in auto[7:])
    assert type(partition_prob(Partition([3]), p)) is F and type(z_norm(p)) is F
    assert partition_prob(Partition([1] * 6), p) == F(0)  # s_lambda vanishes on 5 variables


def test_entry_law_rejects_nan_and_infinite_t():
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="t must be nonpositive and finite"):
            EntryDistribution(F(1, 4), bad)
    with pytest.raises(ValueError, match="rho"):
        EntryDistribution(math.nan, F(-1))


def test_z_norm_value():
    p = MeasureParams(2, 2, F(1, 2), F(-1))
    assert z_norm(p) == F(625, 81)


def test_entry_pmf_values():
    # rho = 1/4, t = -1: p0 = 3/5, p(±1) split 3/20 each
    d = EntryDistribution(F(1, 4), F(-1))
    assert d.p0 == F(3, 5)
    assert d.p_unmarked(1) == F(3, 20)
    assert d.p_marked(1) == F(3, 20)
    # masses sum to one
    total = d.p0 + sum(d.p_unmarked(k) + d.p_marked(k) for k in range(1, 200))
    assert abs(float(total) - 1.0) < 1e-50


def test_partition_prob_known_value():
    # empty partition at t=0: P(emptyset) = (1 - alpha^2)^{mn}
    p = MeasureParams(2, 2, F(1, 2), F(0))
    assert partition_prob(Partition([]), p) == F(3, 4) ** 4
    assert partition_prob(Partition([]), p) == F(81, 256)


def test_partition_probs_sum_to_one_within_box():
    p = MeasureParams(2, 2, F(1, 2), F(-1))
    total = sum(partition_prob(lam, p) for lam in partitions_in_box(30, 2))
    # the infinite tail is positive, so the partial sum brackets 1 from below
    assert 0 < total < 1
    assert 1 - total < 1e-10


def test_sample_matrix_fixture():
    p = MeasureParams(2, 2, F(1, 2), F(-1))
    assert sample_matrix(p, 42).to_text() == "1' 0\n1 1"


def test_sampling_no_marks_at_t0():
    p = MeasureParams(3, 3, F(1, 2), F(0))
    for seed in range(5):
        assert sample_matrix(p, seed).mark() == 0


def test_sample_lambda1_deterministic_and_order_free():
    p = MeasureParams(3, 3, F(2, 5), F(-1))
    a = sample_lambda1(p, 50, seed=9)
    b = sample_lambda1(p, 50, seed=9)
    assert np.array_equal(a, b)
    # child streams: the first k samples agree with a shorter run
    c = sample_lambda1(p, 10, seed=9)
    assert np.array_equal(a[:10], c)


def test_sample_lambda1_independent_of_block_size(monkeypatch):
    p = MeasureParams(4, 3, F(1, 2), F(-1, 2))
    whole = sample_lambda1(p, 100, seed=4)
    monkeypatch.setattr(measure, "_BLOCK_ENTRIES", 5 * p.m * p.n)
    assert np.array_equal(sample_lambda1(p, 100, seed=4), whole)


def test_sample_lambda1_follows_law_at_m_ne_n():
    # S_lambda takes the m marked letters, so a draw is an n x m matrix; an
    # m x n draw follows the law with m and n exchanged (KS about 0.33 here)
    p = MeasureParams(3, 30, F(1, 2), F(-1, 2))
    draws = sample_lambda1(p, 4000, seed=3)
    dkw = math.sqrt(math.log(2 / 1e-9) / (2 * len(draws)))  # false alarm 1e-9
    assert ks_distance(draws, p, mode="exact") < dkw


@pytest.mark.parametrize("p", [MeasureParams(3, 3, F(1, 2), F(-3)),
                               MeasureParams(2, 3, F(2, 3), F(-5)),
                               MeasureParams(6, 4, F(1, 2), F(-6))])
def test_sample_lambda1_follows_law_beyond_bo_domain(p):
    # |t alpha| >= 1: the sampler against the exact CDF, at the DKW radius
    # for false alarm 1e-9 (0.023 at 20000 draws)
    draws = sample_lambda1(p, 20000, seed=11)
    dkw = math.sqrt(math.log(2 / 1e-9) / (2 * len(draws)))
    assert ks_distance(draws, p, mode="exact") < dkw


def _spawned_words(seed, start, count):
    children = np.random.SeedSequence(seed).spawn(start + count)[start:]
    return np.stack([c.generate_state(4, np.uint64) for c in children])


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**64 + 5, 2**200 + 7, [3, 2**40, 0]])
@pytest.mark.parametrize("start", [0, 163])
def test_child_seeds_are_numpys_spawned_words(seed, start):
    # 2**64 + 5 has 3 entropy words, 2**200 + 7 more than the 4-word pool, and
    # [3, 2**40, 0] exactly 4, one word or more for each int; a start of 163
    # is where the second block of a 40 x 40 draw begins
    got = measure._child_seeds(np.random.SeedSequence(seed), start, 9)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _spawned_words(seed, start, 9))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**256 - 1), st.integers(0, 40))
def test_child_seeds_sweep(seed, start):
    got = measure._child_seeds(np.random.SeedSequence(seed), start, 3)
    assert np.array_equal(got, _spawned_words(seed, start, 3))


def test_sample_lambda1_bytes_are_pinned():
    # sha256 of the int64 draws, taken before the seeding was computed in
    # bulk; (40, 40) crosses blocks of 163 draws
    cases = [(10, 10, F(2, 5), F(0)), (10, 10, F(4, 5), F(-1)), (3, 30, F(1, 2), F(-1, 2)),
             (2, 7, F(9, 10), F(-3, 2)), (40, 40, F(1, 2), F(-1))]
    digest = hashlib.sha256()
    for case in cases:
        for seed in (0, 7, 2**70 + 3):
            digest.update(sample_lambda1(MeasureParams(*case), 500, seed).astype("<i8").tobytes())
    assert digest.hexdigest() == "9790825fcff6007e129aef4872c3e66ae2d81b5554422f560a11511bcc03c485"


def test_sample_lambda1_rejects_samples_beyond_the_spawn_key(monkeypatch):
    # a spawn key is hashed as one 32-bit word; the check comes before any
    # allocation or draw
    def no_draws(*args, **kwargs):
        raise AssertionError("drew")

    monkeypatch.setattr(measure, "_draw", no_draws)
    monkeypatch.setattr(measure.np, "empty", no_draws)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        sample_lambda1(MeasureParams(2, 2, F(1, 2), F(-1)), 2**32, seed=0)


@st.composite
def p_matrix_stacks(draw):
    """1-4 P-matrices of one random shape; without marks half of the time (t = 0)."""
    rows, cols, count = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    marked = st.booleans() if draw(st.booleans()) else st.just(False)
    entry = st.one_of(st.none(), st.builds(Entry, st.integers(1, 3), marked))
    cells = st.lists(entry, min_size=rows * cols, max_size=rows * cols)
    return [
        PMatrix([flat[i * cols:(i + 1) * cols] for i in range(rows)])
        for flat in draw(st.lists(cells, min_size=count, max_size=count))
    ]


@settings(max_examples=200, deadline=None)
@given(p_matrix_stacks())
def test_last_passage_recursion_is_patience_sort_is_rsk_first_row(matrices):
    sizes = np.array([[[a.abs_entry(i, j) for j in range(a.n)] for i in range(a.m)]
                      for a in matrices])
    marks = np.array([[[e is not None and e.marked for e in row] for row in a.entries]
                      for a in matrices])
    recursion = measure._first_rows(sizes, marks)
    for a, lam1 in zip(matrices, recursion):
        lis = _lis_keys(biword_from_matrix(a).lowers())
        assert lam1 == lis == rsk(a)[0].shape().first_row()


def test_float_partition_probs_are_nonnegative():
    # outside the (m|m) hook S_lambda vanishes, and the float route must not
    # turn that zero into a small negative probability
    for m, n in ((1, 3), (2, 3)):
        p = MeasureParams(m, n, 0.37, -0.5)
        for lam in (q for size in range(1, 9) for q in partitions(size)):
            assert partition_prob(lam, p) >= 0, (m, n, lam)


def test_entry_frequencies_match_pmf():
    # 3-sigma agreement of empirical entry frequencies with the exact law
    p = MeasureParams(1, 1, F(1, 2), F(-1))
    d = EntryDistribution(p.rho, p.t)
    n = 4000
    vals = [sample_matrix(p, seed).entries[0][0] for seed in range(n)]
    f0 = sum(1 for e in vals if e is None) / n
    fm = sum(1 for e in vals if e is not None and e.value == 1 and e.marked) / n
    for freq, prob in ((f0, d.p0), (fm, d.p_marked(1))):
        se = math.sqrt(float(prob) * (1 - float(prob)) / n)
        assert abs(freq - float(prob)) < 3 * se + 1e-12


def test_entry_sizes_invert_the_law_near_alpha_one():
    # each size is the least k with P(|a| <= k) = 1 - (1 - p0) rho^k > u, in
    # exact arithmetic, for the uniform u that `sample_matrix` draws first;
    # at alpha = 99/100 the law's tail runs to thousands of terms
    p = MeasureParams(20, 20, F(99, 100), F(-1, 2))
    a = sample_matrix(p, 11)
    u = np.random.default_rng(11).random(p.m * p.n)
    p0 = EntryDistribution(p.rho, p.t).p0

    def cdf(k):
        return 1 - (1 - p0) * p.rho ** k if k >= 0 else 0

    sizes = [a.abs_entry(i, j) for i in range(a.m) for j in range(a.n)]
    assert max(sizes) > 100
    for k, x in zip(sizes, u):
        assert cdf(k - 1) <= F(x) < cdf(k), (k, x)


def test_cdf_exact_matches_box_oracle():
    for (m, n) in ((2, 2), (3, 2), (3, 3)):
        p = MeasureParams(m, n, F(1, 2), F(-1))
        for h in range(5):
            assert lambda1_cdf_exact(p, h, mode="exact") == lambda1_cdf_exact_oracle(p, h)


def test_cdf_float_matches_exact():
    p = MeasureParams(3, 2, F(2, 5), F(-1, 2))
    for h in range(8):
        ex = float(lambda1_cdf_exact(p, h, mode="exact"))
        fl = lambda1_cdf_exact(p, h, mode="float")
        assert abs(ex - fl) < 1e-12
    # a grid in auto mode: rationals up to h = 6, floats from the float route after
    auto = lambda1_cdf_exact(p, range(10))
    assert auto[:7] == [lambda1_cdf_exact(p, h, mode="exact") for h in range(7)]
    assert all(isinstance(v, Fraction) for v in auto[:7])
    assert auto[7:] == [lambda1_cdf_exact(p, h, mode="float") for h in range(7, 10)]
    assert all(isinstance(v, float) for v in auto[7:])


def test_cdf_rejects_an_unknown_mode():
    # an unknown mode used to be taken as "float": "Exact" returned 0.40205...
    p = MeasureParams(3, 3, F(1, 2), F(-1, 2))
    assert lambda1_cdf_exact(p, 2, mode="exact") == F(253237, 629856)
    for mode in ("Exact", "fast", ""):
        with pytest.raises(ValueError, match="mode"):
            lambda1_cdf_exact(p, 2, mode=mode)
        with pytest.raises(ValueError, match="mode"):
            lambda1_cdf_exact(p, [1, 8], mode=mode)


def test_cdf_monotone_and_limits():
    p = MeasureParams(4, 4, F(2, 5), F(-1))
    vals = [lambda1_cdf_exact(p, h, mode="float") for h in range(25)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[0] > 0  # P(lambda_1 = 0) = P(empty) > 0
    assert vals[-1] > 1 - 1e-10


def test_cdf_rejects_negative_h():
    with pytest.raises(ValueError):
        lambda1_cdf_exact(MeasureParams(2, 2, F(1, 2), 0), -1)
    with pytest.raises(ValueError):
        lambda1_cdf_exact(MeasureParams(2, 2, F(1, 2), 0), [0, -1])


def test_cdf_reads_numpy_integer_h():
    # a NumPy h used to reach the float route's integer powers: OverflowError
    # on the grid, AttributeError ('bit_length') at h = 9
    p = MeasureParams(20, 20, F(1, 2), F(0))
    assert lambda1_cdf_exact(p, np.array([30, 45, 70])) == lambda1_cdf_exact(p, [30, 45, 70])
    q = MeasureParams(3, 3, F(1, 2), F(-1, 2))
    assert lambda1_cdf_exact(q, np.int64(9)) == lambda1_cdf_exact(q, 9)


def test_mc_cdf_consistent():
    p = MeasureParams(3, 3, F(2, 5), F(-1))
    est, se = lambda1_cdf_mc(p, 4, samples=3000, seed=5)
    exact = float(lambda1_cdf_exact(p, 4, mode="exact"))
    assert abs(est - exact) < 4 * se + 1e-12


def test_empirical_cdf_and_ks():
    vals = np.array([0, 1, 1, 2])
    grid = np.arange(4)
    np.testing.assert_allclose(empirical_cdf(vals, grid), [0.25, 0.75, 1.0, 1.0])
    p = MeasureParams(3, 3, F(2, 5), F(-1))
    draws = sample_lambda1(p, 3000, seed=3)
    assert ks_distance(draws, p) < 0.05
