"""Generalized Schur functions: generating series, determinant vs tableau
oracle, and the Cauchy identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.partitions import Partition, partitions
from tschur.series import TruncatedSeries
from tschur.symfunc import (
    SpecializedVars,
    _jt_minor,
    cauchy_check,
    cauchy_rhs_series,
    enumerate_marked_tableaux,
    gen_e_coeffs,
    gen_h_coeffs,
    schur_S_t,
    schur_S_t_oracle,
    schur_s,
    weights_by_size,
)

F = Fraction


def test_gen_e_single_variable():
    # (1 + z/2)/(1 + t z/2) at t = -1/2: 1, 1/2*(1 - ... ) expand by hand:
    # (1+z/2) * sum ((z/4))^k = 1 + (1/2+1/4) z + ... with alternating tail
    e = gen_e_coeffs(SpecializedVars(1, F(1, 2)), F(-1, 2), 3)
    assert e.coeff(0) == 1
    assert e.coeff(1) == F(1, 2) + F(1, 4)
    assert e.coeff(2) == F(1, 4) * (F(1, 2) + F(1, 4))


def test_gen_e_t_zero_is_elementary():
    # at t=0 these are the elementary symmetric functions: C(m,k) alpha^k
    e = gen_e_coeffs(SpecializedVars(3, F(1, 2)), 0, 4)
    assert [e.coeff(k) for k in range(5)] == [1, F(3, 2), F(3, 4), F(1, 8), 0]


def _product_reference(variables, t, nmax, sign):
    """E (sign 1) or H (sign -1) by series products and inverses: E is the
    product of the factors (1 + x z) / (1 + t x z), and H = 1/E(-z)."""
    e = TruncatedSeries([1], nmax)
    for x in variables:
        e = e * TruncatedSeries([1, x], nmax) * TruncatedSeries([1, t * x], nmax).inverse()
    if sign == 1:
        return e
    return TruncatedSeries([(-1) ** k * c for k, c in enumerate(e.coeffs)], nmax).inverse()


def test_gen_e_list_matches_specialized():
    # explicit lists, with repeated and distinct values, against the
    # independent product-and-inverse reference
    for t in (F(0), F(-1, 2), F(-1), F(-3, 2)):
        for xs in ([F(1, 3)] * 6, [F(-5, 7)] * 3 + [F(1, 3)] * 2,
                   [F(1, 3), F(-5, 7), F(2, 5), 0], []):
            for gen, sign in ((gen_e_coeffs, 1), (gen_h_coeffs, -1)):
                by_list = gen(xs, t, 20)
                assert by_list.order == 20
                assert by_list.coeffs == _product_reference(xs, t, 20, sign).coeffs, (xs, t)
        # floats are read at their binary values, and the result is exact
        for gen, sign in ((gen_e_coeffs, 1), (gen_h_coeffs, -1)):
            by_list = gen([0.37] * 5 + [-0.25], float(t), 20)
            reference = _product_reference([F(0.37)] * 5 + [F(-0.25)], t, 20, sign)
            assert by_list.coeffs == reference.coeffs


def test_float_lists_give_exact_coefficients():
    # the e- and h-series of a float list are the exact series at the binary
    # values, with no float left in them
    exact = [F(0.37), F(0.37), F(-0.25)]
    for gen in (gen_e_coeffs, gen_h_coeffs):
        coeffs = gen([0.37, 0.37, -0.25], -0.5, 12).coeffs
        assert all(type(c) in (int, F) for c in coeffs)
        assert coeffs == gen(exact, F(-0.5), 12).coeffs


def _fraction_recurrence(m, x, t, nmax, sign):
    """`gen_e_coeffs`'s recurrence (sign 1) or `gen_h_coeffs`'s (sign -1) in
    Fractions, normalised at every step."""
    a, b, c = m * x * (1 - t), sign * (1 + t) * x, t * x * x
    e = [F(1), a]
    for l in range(1, nmax):
        e.append(((a - b * l) * e[l] - c * (l - 1) * e[l - 1]) / (l + 1))
    return e[: nmax + 1]


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(st.just(1), st.fractions(0, 1, max_denominator=60).filter(lambda v: v > 0)),
       t=st.one_of(st.sampled_from([0, F(-1, 2), -1, F(-3, 2)]),
                   st.fractions(-3, 0, max_denominator=60)),
       m=st.integers(0, 30), nmax=st.integers(0, 60))
def test_rational_recurrence_matches_fraction_steps(x, t, m, nmax):
    # the integer recurrence over l! D^l against the step-by-step Fractions
    for gen, sign in ((gen_e_coeffs, 1), (gen_h_coeffs, -1)):
        coeffs = gen(SpecializedVars(m, x), t, nmax).coeffs
        assert coeffs == _fraction_recurrence(m, F(x), F(t), nmax, sign)
        assert all(type(c) is F for c in coeffs[1:])
        # floats: the exact coefficients at the binary values of x and t
        xf, tf = float(x), float(t)
        coeffs = gen(SpecializedVars(m, xf), tf, nmax).coeffs
        assert coeffs == _fraction_recurrence(m, F(xf), F(tf), nmax, sign)
        assert all(type(c) is F for c in coeffs[1:])


def test_gen_e_reads_numpy_integers_as_ints():
    # NumPy integers used to overflow in the integer recurrence: a count of
    # np.int64(40) gave e_30 = 2.75e-32 instead of 6.47e10
    e = gen_e_coeffs(SpecializedVars(40, F(1, 2)), F(-1, 2), 30)
    assert gen_e_coeffs(SpecializedVars(np.int64(40), F(1, 2)), F(-1, 2), 30) == e
    assert type(SpecializedVars(np.int64(40), F(1, 2)).count) is int
    assert gen_e_coeffs(SpecializedVars(40, F(1, 2)), np.int64(-1), 30) == \
        gen_e_coeffs(SpecializedVars(40, F(1, 2)), F(-1), 30)


def test_gen_e_rejects_negative_order():
    with pytest.raises(ValueError):
        gen_e_coeffs(SpecializedVars(1, F(1, 2)), 0, -1)
    with pytest.raises(ValueError):
        gen_h_coeffs(SpecializedVars(1, F(1, 2)), 0, -1)


def test_gen_h_is_inverse_of_e_at_minus_z():
    # H(z) E(-z) = 1, for the recurrence and for an explicit list
    for t in (F(0), F(-1, 2), F(-1)):
        for variables in (SpecializedVars(3, F(2, 5)), [F(1, 3), F(-2, 7), F(1, 2)]):
            e = gen_e_coeffs(variables, t, 12)
            h = gen_h_coeffs(variables, t, 12)
            e_minus = [(-1) ** k * e.coeff(k) for k in range(13)]
            for k in range(13):
                assert sum(h.coeff(i) * e_minus[k - i] for i in range(k + 1)) == (k == 0)
        by_list = gen_h_coeffs([F(2, 5)] * 3, t, 12)
        assert gen_h_coeffs(SpecializedVars(3, F(2, 5)), t, 12).coeffs == by_list.coeffs


def test_jacobi_trudi_h_form_equals_dual_e_form():
    # det(h_{lambda_i-i+j}) = det(e_{lambda'_i-i+j}) on every partition of size <= 8
    for m in (1, 2, 3):
        for t in (F(0), F(-1, 2), F(-1)):
            variables = SpecializedVars(m, F(1, 2))
            e = gen_e_coeffs(variables, t, 17)
            h = gen_h_coeffs(variables, t, 17)
            for lam in partitions(8):
                assert _jt_minor(lam.parts, h) == _jt_minor(lam.conjugate().parts, e), (m, t, lam)


def test_schur_vanishes_beyond_its_variables_in_floats():
    # more rows than variables: an exact zero, not the h-form's rounding noise
    for lam in (Partition([4, 3, 3]), Partition([5, 3, 3, 1])):
        assert schur_s(lam, SpecializedVars(2, 0.5)) == 0
        assert schur_S_t(lam, SpecializedVars(2, 0.5), 0.0) == 0
        assert schur_s(lam, [0.5, 0.5]) == 0
        assert schur_S_t(lam, [0.5, 0.5], 0.0) == 0


def test_schur_S_t_vanishes_outside_the_hook_in_floats():
    # at t != 0, S_lambda on m variables is zero exactly when lambda_{m+1} > m;
    # floats must give that zero too, not rounding noise of either sign
    for lam in (p for size in range(1, 9) for p in partitions(size)):
        for m in (1, 2, 3):
            for t in (F(-1, 2), F(-1), F(-3, 2)):
                exact = schur_S_t(lam, SpecializedVars(m, F(37, 100)), t)
                assert (exact == 0) == (len(lam) > m and lam[m] > m), (lam, m, t)
                if exact == 0:
                    assert schur_S_t(lam, SpecializedVars(m, 0.37), float(t)) == 0, (lam, m, t)
                    assert schur_S_t(lam, [0.37] * m, float(t)) == 0, (lam, m, t)


def test_schur_S_t_of_a_float_list_is_exact():
    # a float list gives the exact S_lambda at its binary values, and on m
    # variables S_lambda is an exact zero when lambda_{m+1} > m (at t = 0,
    # when lambda_{m+1} > 0), not rounding noise of either sign
    for lam in partitions(8):
        for m in range(4):
            for t in (0.0, -0.5, -1.0, -1.5):
                exact = schur_S_t(lam, [F(0.37)] * m, F(t))
                assert schur_S_t(lam, [0.37] * m, t) == exact, (lam, m, t)
                assert (exact == 0) == (len(lam) > m and lam[m] > (m if t else 0)), (lam, m, t)
                assert type(exact) in (int, F)


def test_schur_s_known_values():
    a = F(1, 2)
    # s_(2,1)(x1,x2) = x1 x2 (x1 + x2) -> 2 a^3
    assert schur_s(Partition([2, 1]), SpecializedVars(2, a)) == 2 * a ** 3
    # more rows than variables kills the function
    assert schur_s(Partition([1, 1, 1]), SpecializedVars(2, a)) == 0
    assert schur_s(Partition([]), SpecializedVars(2, a)) == 1


def test_schur_S_t_single_box():
    # S_(1)(alpha^m; t) = e_1(x;t) = m alpha (1 - t)
    a = F(2, 5)
    for m in (1, 2, 3):
        for t in (F(0), F(-1, 2), F(-1)):
            assert schur_S_t(Partition([1]), SpecializedVars(m, a), t) == m * a * (1 - t)


def test_schur_S_t_reduces_to_schur_at_t0():
    a = F(1, 3)
    for lam in partitions(4):
        assert schur_S_t(lam, SpecializedVars(3, a), 0) == schur_s(lam, SpecializedVars(3, a))


def test_marked_tableau_enumeration_counts():
    # single box, alphabet {1',1,...,m',m}: 2m fillings
    assert len(enumerate_marked_tableaux(Partition([1]), 2)) == 4
    # column of two, m=1: only (1',1') and (1',1) survive T1/T2
    col = enumerate_marked_tableaux(Partition([1, 1]), 1)
    assert len(col) == 2


def test_determinant_matches_tableau_oracle():
    a = F(1, 2)
    for lam in partitions(5):
        for m in (1, 2, 3):
            for t in (F(0), F(-1, 2), F(-1)):
                det_val = schur_S_t(lam, SpecializedVars(m, a), t)
                assert det_val == schur_S_t_oracle(lam, m, t, a)


def test_oracle_homogeneity():
    # S_lambda(alpha^m;t) = alpha^|lambda| S_lambda(1^m;t)
    lam = Partition([2, 1])
    t = F(-1, 2)
    a = F(1, 3)
    unit = schur_S_t(lam, SpecializedVars(2, F(1)), t)
    assert schur_S_t(lam, SpecializedVars(2, a), t) == a ** lam.size() * unit


def test_measure_weights_nonnegative():
    # S_lambda(alpha^m;t) s_lambda(alpha^n) >= 0 for t <= 0 (measure property)
    a = F(1, 2)
    for lam in partitions(5):
        for t in (F(0), F(-1, 2), F(-1), F(-2)):
            w = schur_S_t(lam, SpecializedVars(2, a), t) * schur_s(lam, SpecializedVars(2, a))
            assert w >= 0


def test_cauchy_identity_small():
    for (m, n) in ((1, 1), (2, 1), (2, 2)):
        for t in (F(0), F(-1), F(-1, 2)):
            ok, mismatch = cauchy_check(m, n, t, 6)
            assert ok, mismatch


def test_cauchy_check_reads_a_float_t_at_its_binary_value():
    # the two sides used to round differently: 64.8401 against 64.84009999999999
    assert cauchy_check(2, 2, -0.3, 8) == (True, None)


def test_cauchy_rhs_closed_form():
    rhs = cauchy_rhs_series(2, 2, F(-1), 4)
    # ((1+a^2)/(1-a^2))^4 = 1 + 8 a^2 + 32 a^4 + ...
    assert rhs.coeff(0) == 1
    assert rhs.coeff(2) == 8
    assert rhs.coeff(4) == 32


def test_cauchy_rhs_equals_power_of_series_quotient():
    """The h-recurrence series of Z_t against ((1 - t X^2)/(1 - X^2))^(mn)
    built by series inversion and powering."""
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for t in (F(0), F(-1, 2), F(-1), F(-3, 2)):
                for degree in (0, 1, 7, 8, 40):
                    num = TruncatedSeries([F(1), F(0), -t], degree)
                    den = TruncatedSeries([F(1), F(0), F(-1)], degree)
                    rhs = cauchy_rhs_series(m, n, t, degree)
                    assert rhs.order == degree
                    assert rhs == (num * den.inverse()) ** (m * n)


def test_cauchy_lhs_leading_terms():
    # single-variable Schur measure: sum over lambda = (k): alpha^{2k}
    assert weights_by_size(1, 1, F(0), 2) == [1, 1, 1]
