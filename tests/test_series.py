"""Truncated-series arithmetic and the exact determinant helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.series import TruncatedSeries, det_expansion, det_gauss

F = Fraction


def test_coeff_and_padding():
    s = TruncatedSeries([1, 2, 3], 0, 5)
    assert s.coeff(0) == 1
    assert s.coeff(2) == 3
    assert s.coeff(4) == 0  # padded
    with pytest.raises(IndexError):
        s.coeff(6)


def test_addition_respects_truncation():
    a = TruncatedSeries([F(1), F(1)], 0, 3)
    b = TruncatedSeries([F(2)], 0, 1)
    c = a + b
    assert c.order == 1
    assert c.coeff(0) == 3 and c.coeff(1) == 1


def test_multiplication_truncation_rule():
    # product order = min(f.order + g.offset, g.order + f.offset)
    f = TruncatedSeries([1, 1], 0, 4)
    g = TruncatedSeries([1], 2, 6)
    assert (f * g).order == 6
    assert (f * g).coeff(3) == 1


def test_laurent_offset_and_inverse():
    # X^{-1} * (1 + X): inverse has offset +1 - 2*(-1)... just check f*f^{-1}=1
    f = TruncatedSeries([F(1), F(2), F(3)], -1, 4)
    g = f.inverse()
    prod = f * g
    assert prod.coeff(0) == 1
    for k in range(1, prod.order + 1):
        assert prod.coeff(k) == 0


def test_pow_square_and_zero():
    f = TruncatedSeries([F(1), F(1)], 0, 6)
    assert f ** 0 == TruncatedSeries([F(1)], 0, 6)
    sq = f ** 2
    assert [sq.coeff(k) for k in range(3)] == [1, 2, 1]
    assert f ** 3 == f * f * f


def test_negative_pow():
    f = TruncatedSeries([F(1), F(1, 2)], 0, 5)
    assert (f ** -2) * f * f == TruncatedSeries([F(1)], 0, 5)


def test_inverse_of_zero_series():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 0], 0, 1).inverse()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6).filter(
        lambda cs: cs[0] != 0
    )
)
def test_inverse_roundtrip_property(coeffs):
    order = len(coeffs) + 3
    f = TruncatedSeries(coeffs, 0, order)
    prod = f * f.inverse()
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, prod.order + 1))


def test_det_empty_and_singular():
    assert det_gauss([]) == 1
    assert det_expansion([]) == 1
    assert det_gauss([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_gauss_known_value():
    rows = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
    assert det_gauss(rows) == F(18)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=8), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_routes_agree(rows):
    assert det_gauss(rows) == det_expansion(rows)


def test_det_expansion_over_series_entries():
    # ring without division: series entries
    x = TruncatedSeries([F(0), F(1)], 0, 4)
    one = TruncatedSeries([F(1)], 0, 4)
    d = det_expansion([[one, x], [x, one]])
    assert d == one - x * x
