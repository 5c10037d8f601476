"""Airy function Ai and the Airy kernel of the Tracy-Widom determinant."""

import math

import mpmath
import numpy as np

from tschur.airy import airy_ai
from tschur.tracy_widom import _kernel_matrix


def test_value_at_zero():
    # Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
    ai, aip = airy_ai(0.0)
    assert math.isclose(ai, 3 ** (-2 / 3) / math.gamma(2 / 3), rel_tol=1e-14)
    assert math.isclose(aip, -(3 ** (-1 / 3)) / math.gamma(1 / 3), rel_tol=1e-14)


def test_against_mpmath_oracle():
    xs = np.linspace(-40, 60, 301)
    with mpmath.workdps(30):
        ai = [float(mpmath.airyai(x)) for x in xs]
        aip = [float(mpmath.airyai(x, derivative=1)) for x in xs]
    got_ai, got_aip = airy_ai(xs)
    np.testing.assert_allclose(got_ai, ai, rtol=1e-11, atol=1e-300)
    np.testing.assert_allclose(got_aip, aip, rtol=1e-11, atol=1e-300)


def test_method_seams_against_mpmath():
    # the table's seams at 0 and 12, its ends -12 and 44 and the points just
    # beyond them, and every knot midpoint on [-10, 40], where a Horner pass
    # reaches farthest from its knot
    seams = np.array([-12.0, 0.0, 12.0, 44.0])
    xs = np.concatenate([seams - 0.125, seams, seams + 0.125, np.arange(-10, 40, 0.25) + 0.125])
    with mpmath.workdps(30):
        ref = np.array([[float(mpmath.airyai(x, derivative=d)) for x in xs] for d in (0, 1)])
    err = np.abs(np.array(airy_ai(xs)) - ref)
    pos = xs >= 0
    assert (err[:, pos] <= 5e-14 * np.abs(ref[:, pos])).all()
    assert (err[:, ~pos] <= 2e-14 * np.minimum(1, np.abs(xs[~pos]) ** -0.25)).all()


def test_edge_values():
    for x in (math.nan, math.inf, -math.inf, -1e7):
        assert all(math.isnan(v) for v in airy_ai(x))
    for x in (105.0, 200.0, 1e6):
        assert airy_ai(x) == (0.0, 0.0)
    ai, aip = airy_ai(np.array([math.nan, 105.0, 1.0]))
    assert math.isnan(ai[0]) and math.isnan(aip[0]) and ai[1] == aip[1] == 0.0
    assert (ai[2], aip[2]) == airy_ai(1.0)


def test_scalar_and_array_interfaces():
    ai, aip = airy_ai(1.0)
    assert isinstance(ai, float)
    assert isinstance(aip, float)
    ai, aip = airy_ai(np.array([0.0, 1.0]))
    assert ai.shape == aip.shape == (2,)


def test_ode_residual():
    # Ai'' = x Ai via five-point central differences on Ai
    def ai(x):
        return airy_ai(x)[0]

    for x in (-5.0, -1.0, 0.5, 3.0, 8.0):
        h = 1e-3
        d2 = (
            -ai(x + 2 * h) + 16 * ai(x + h) - 30 * ai(x)
            + 16 * ai(x - h) - ai(x - 2 * h)
        ) / (12 * h * h)
        assert abs(d2 - x * ai(x)) < 5e-9


XS = np.array([-2.0, -0.7, 0.0, 0.5, 1.0, 1.5, 3.0])


def test_kernel_symmetry_and_diagonal():
    K = _kernel_matrix(XS)
    np.testing.assert_allclose(K, K.T, rtol=1e-12, atol=0)
    # K(x,x) = Ai'(x)^2 - x Ai(x)^2
    ai, aip = airy_ai(XS)
    diag = aip ** 2 - XS * ai ** 2
    np.testing.assert_allclose(np.diag(K), diag, rtol=0, atol=1e-13)


def test_kernel_matches_integral_definition():
    # K(x,y) = int_0^inf Ai(x+z) Ai(y+z) dz
    K = _kernel_matrix(XS)
    with mpmath.workdps(30):
        for i, j in ((0, 3), (1, 2), (2, 4), (3, 6), (0, 5)):
            x, y = XS[i], XS[j]
            ref = mpmath.quad(lambda z: mpmath.airyai(x + z) * mpmath.airyai(y + z), [0, mpmath.inf])
            assert abs(K[i, j] - float(ref)) < 1e-13


def test_kernel_decay():
    K = _kernel_matrix(np.array([8.0, 9.0]))
    assert 0 < K[0, 0] < 1e-10 and abs(K[0, 1]) < K[0, 0]
