import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from layerscatter.special import (bessel_j, bessel_j_prime, bessel_y, hankel1,
                                  hankel1_01, hankel1_prime)

mpmath.mp.dps = 30


def test_bessel_j_against_mpmath():
    for n in (0, 1, 5, -3, 12):
        for z in (0.3, 2.7, 11.0, 0.5 + 0.4j, 3.0 - 0.2j):
            ref = complex(mpmath.besselj(n, z))
            got = complex(bessel_j(n, z))
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_bessel_y_against_mpmath():
    for n in (0, 1, 4, -2):
        for z in (0.4, 1.9, 8.3):
            ref = complex(mpmath.bessely(n, z))
            assert abs(complex(bessel_y(n, z)) - ref) <= 1e-12 * max(1, abs(ref))


def test_hankel_is_j_plus_iy():
    z = np.array([0.7, 2.0, 9.5])
    for n in (0, 1, 3, -4):
        h = hankel1(n, z + 0j)
        jy = bessel_j(n, z) + 1j * bessel_y(n, z)
        assert np.abs(h - jy).max() <= 1e-12 * np.abs(h).max()


def test_wronskian_jy():
    """J_n(x) Y_n'(x) - J_n'(x) Y_n(x) = 2 / (pi x)."""
    x = np.linspace(0.2, 25.0, 60)
    for n in range(0, 8):
        yp = 0.5 * (bessel_y(n - 1, x) - bessel_y(n + 1, x))
        w = bessel_j(n, x) * yp - bessel_j_prime(n, x) * bessel_y(n, x)
        assert np.abs(w - 2 / (np.pi * x)).max() <= 1e-12


def test_derivative_matches_finite_difference():
    z = 1.7 + 0.3j
    h = 1e-6
    for n in (0, 2, -3):
        fd = (bessel_j(n, z + h) - bessel_j(n, z - h)) / (2 * h)
        assert abs(bessel_j_prime(n, z) - fd) <= 1e-8
        fdh = (hankel1(n, z + h) - hankel1(n, z - h)) / (2 * h)
        assert abs(hankel1_prime(n, z) - fdh) <= 1e-8 * abs(fdh)


def test_negative_order_symmetry():
    z = np.array([0.9 + 0.1j, 4.2 + 0j])
    for n in (1, 2, 5):
        assert np.abs(bessel_j(-n, z) - (-1) ** n * bessel_j(n, z)).max() < 1e-13
        assert np.abs(hankel1(-n, z) - (-1) ** n * hankel1(n, z)).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(n=st.integers(-8, 8), x=st.floats(0.1, 30.0),
       yim=st.floats(0.0, 2.0))
def test_recurrence_property(n, x, yim):
    """2n/z J_n(z) = J_{n-1}(z) + J_{n+1}(z)."""
    z = x + 1j * yim
    lhs = 2 * n / z * bessel_j(n, z)
    rhs = bessel_j(n - 1, z) + bessel_j(n + 1, z)
    scale = max(1.0, abs(bessel_j(n - 1, z)), abs(bessel_j(n + 1, z)))
    assert abs(lhs - rhs) <= 1e-11 * scale


def test_rejects_zero_argument():
    with pytest.raises((ValueError, ZeroDivisionError)):
        hankel1(0, 0.0 + 0j)


def test_hankel1_01_real_argument_matches_amos():
    """Positive real z passed as complex, as the callers pass it, takes the
    real-argument routines and matches AMOS to 1e-14 relative up to
    z = 100.  Beyond, both lose about z * eps to the argument's condition
    number (Cephes 3e-14 at z = 600 against mpmath, AMOS 4e-16), so the
    bound grows as z * 1e-16."""
    x = np.geomspace(1e-3, 1e3, 4001)
    h0, h1 = hankel1_01(x + 0j)
    assert np.array_equal(h0, sp.j0(x) + 1j * sp.y0(x))
    assert np.array_equal(h1, sp.j1(x) + 1j * sp.y1(x))
    for n, h in ((0, h0), (1, h1)):
        ref = hankel1(n, x + 0j)
        assert np.all(np.abs(h - ref)
                      <= 1e-14 * np.maximum(1.0, x / 100) * np.abs(ref))


@pytest.mark.parametrize("z", [
    (3.0 + 0.2j) * np.array([0.5, 2.0, 7.0]),       # lossy k
    -2.0 * np.array([0.5, 2.0, 7.0]) + 0j,          # negative kp
    np.array([0.5, -2.0, 7.0]),                     # one negative, real dtype
    np.array(1.5 + 0.1j),                           # complex scalar
])
def test_hankel1_01_falls_back_to_amos(z):
    h0, h1 = hankel1_01(z)
    assert np.array_equal(h0, hankel1(0, z))
    assert np.array_equal(h1, hankel1(1, z))


@pytest.mark.parametrize("z, error", [
    (np.array([1.0, 0.0]) + 0j, ValueError),
    (np.array([2.0, 1e-320]) + 0j, FloatingPointError),   # Y_1 overflows
    (np.array([2.0, np.inf]) + 0j, FloatingPointError),
    (np.array([2.0, np.nan]) + 0j, FloatingPointError),
])
def test_hankel1_01_raises_as_hankel1(z, error):
    for call in (lambda: hankel1(1, z), lambda: hankel1_01(z)):
        with pytest.raises(error):
            call()
