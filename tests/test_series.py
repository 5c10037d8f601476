"""Truncated-series arithmetic and the exact determinant helpers."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.numerics import SymbolCoefficients, symbol_phi_alpha_series, toeplitz_det_series
from tschur.series import TruncatedSeries, _taylor_ode, det_gauss
from tschur.symfunc import cauchy_rhs_series, gen_e_coeffs, gen_h_coeffs

F = Fraction


def test_coeff_and_padding():
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.coeff(0) == 1
    assert s.coeff(2) == 3
    assert s.coeff(4) == 0  # padded
    with pytest.raises(IndexError):
        s.coeff(6)
    assert TruncatedSeries([1, 2, 3], 1).coeffs == [1, 2]  # cut at the order
    assert TruncatedSeries([1, 2, 3]).order == 2


def test_addition_respects_truncation():
    a = TruncatedSeries([F(1), F(1)], 3)
    b = TruncatedSeries([F(2)], 1)
    c = a + b
    assert c.order == 1
    assert c.coeff(0) == 3 and c.coeff(1) == 1


def test_multiplication_truncation_rule():
    # the product is known through the smaller of the two orders
    f = TruncatedSeries([1, 1], 4)
    g = TruncatedSeries([0, 0, 1], 6)
    for prod in (f * g, g * f):
        assert prod.order == 4
        assert [prod.coeff(k) for k in range(5)] == [0, 0, 1, 1, 0]
    assert (f * F(3)).order == 4 and (F(3) * f).coeff(1) == 3


def test_pow_square_and_zero():
    f = TruncatedSeries([F(1), F(1)], 6)
    assert f ** 0 == TruncatedSeries([F(1)], 6)
    sq = f ** 2
    assert [sq.coeff(k) for k in range(3)] == [1, 2, 1]
    assert f ** 3 == f * f * f


def test_negative_pow():
    f = TruncatedSeries([F(1), F(1, 2)], 5)
    assert (f ** -2) * f * f == TruncatedSeries([F(1)], 5)


def test_inverse_of_zero_series():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 0], 1).inverse()


def test_inverse_needs_a_unit_constant_term():
    # X and X + 2X^2 have no power-series inverse
    for coeffs in ([0, 1], [F(0), F(1), F(2)]):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries(coeffs).inverse()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6).filter(
        lambda cs: cs[0] != 0
    )
)
def test_inverse_roundtrip_property(coeffs):
    order = len(coeffs) + 3
    f = TruncatedSeries(coeffs, order)
    prod = f * f.inverse()
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, prod.order + 1))


def test_det_empty_and_singular():
    assert det_gauss([]) == 1
    assert det_gauss([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_gauss_known_value():
    rows = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
    assert det_gauss(rows) == F(18)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=8), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_routes_agree(rows):
    # Leibniz: the sum over permutations p of sign(p) prod_i rows[i][p(i)]
    def sign(p):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        return -1 if inversions % 2 else 1

    n = len(rows)
    leibniz = sum(sign(p) * math.prod(rows[i][p[i]] for i in range(n))
                  for p in itertools.permutations(range(n)))
    assert det_gauss(rows) == leibniz


def test_toeplitz_det_series_over_series_entries():
    # phi_0 = 1, phi_{+-1} = X: det [[1, X], [X, 1]] = 1 - X^2 over the series
    x = TruncatedSeries([F(0), F(1)], 4)
    one = TruncatedSeries([F(1)], 4)
    d = toeplitz_det_series(SymbolCoefficients(-1, 1, [x, one, x]), 2)
    assert d == one - x * x and d.order == 4


def test_toeplitz_det_series_needs_unit_leading_minors():
    # T_h mod alpha must have nonzero leading minors below h - 1; a zero minor
    # used to reach det_gauss (TypeError), a zero constant term divmod (ZeroDivisionError)
    x = TruncatedSeries([0, 1, 0, 0])
    z, one = TruncatedSeries([0, 0, 0, 0]), TruncatedSeries([1, 0, 0, 0])
    for coeffs in ([z, x, z, x, z], [one, x, x, x, one]):
        sym = SymbolCoefficients(-2, 2, coeffs)
        with pytest.raises(ValueError, match="nonzero constant term"):
            toeplitz_det_series(sym, 3)
        with pytest.raises(ValueError, match="nonzero constant term"):
            toeplitz_det_series(sym, [1, 3])
        assert toeplitz_det_series(sym, 2) == coeffs[2] * coeffs[2] - coeffs[1] * coeffs[3]


def _fraction_taylor(P, Q, count):
    """y_0 = 1, ..., y_{count-1} of P y' = Q y, one Fraction step at a time."""
    coeff = lambda c, i: c[i] if 0 <= i < len(c) else 0
    y = [F(1)]
    for l in range(count - 1):
        rhs = sum(coeff(Q, i) * y[l - i] for i in range(l + 1))
        rhs -= sum(coeff(P, i) * (l + 1 - i) * y[l + 1 - i] for i in range(1, l + 1))
        y.append(rhs / (P[0] * (l + 1)))
    return y


_ints = st.integers(-50, 50)


@settings(max_examples=200, deadline=None)
@given(P=st.lists(_ints, min_size=1, max_size=4).filter(lambda p: p[0] != 0),
       Q=st.lists(_ints, min_size=1, max_size=4), count=st.integers(1, 25))
def test_taylor_ode_matches_fraction_steps(P, Q, count):
    # Y_l = P_0^l l! y_l, on shapes of P and Q beyond the two callers'
    Y = _taylor_ode(P, Q, count)
    y = _fraction_taylor(P, Q, count)
    assert Y == [P[0] ** l * math.factorial(l) * y[l] for l in range(count)]
    assert all(type(v) is int for v in Y)


def _digest(series_list):
    h = hashlib.sha256()
    for s in series_list:
        h.update((",".join(str(s.coeff(k)) for k in range(s.order + 1)) + ";").encode())
    return h.hexdigest()


def _gessel_toeplitz_side(m, n, t, h, degree):
    return toeplitz_det_series(symbol_phi_alpha_series(m, n, t, 1 - h, h - 1, degree), h)


def test_identity_series_are_pinned():
    """Every coefficient of the series behind the Cauchy and Gessel checks and
    of the explicit-list e/h products, against a sha256 of their str."""
    cauchy = [cauchy_rhs_series(m, n, t, 8) for m in (1, 2, 3) for n in (1, 2, 3)
              for t in (F(0), F(-1, 2), F(-1))]
    assert [s.order for s in cauchy] == [8] * 27
    assert _digest(cauchy) == "8f67daaf68e6fc90188c8838e6c6342d51c2a441e2dce8894a6571ad1f583709"
    gessel = [_gessel_toeplitz_side(m, n, F(-1), h, 16)
              for m, n in ((2, 2), (3, 2), (3, 3)) for h in (1, 2, 3)]
    gessel += [_gessel_toeplitz_side(3, 3, F(-1), h, 40) for h in (1, 2, 3, 4)]
    assert [s.order for s in gessel] == [16] * 9 + [40] * 4
    assert _digest(gessel) == "c13f1077bc8404cd56c21fcff58d8db7fc19cd29d0393f5c604a0a6eced86962"
    xs = [F(1, 3), F(-5, 7), F(2, 5)]
    lists = [gen(xs, t, 12) for t in (F(0), F(-1, 2), F(-3, 2))
             for gen in (gen_e_coeffs, gen_h_coeffs)]
    assert [s.order for s in lists] == [12] * 6
    assert _digest(lists) == "3b8ad77972d8b6b18de489590b3925438a732ecef84cfb290ae060f5ecadda16"
