import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerscatter import _logquad16
from layerscatter.quadrature import gauss_legendre, trig_interp_matrix


def test_gauss_legendre_polynomial_exactness():
    nodes, weights = gauss_legendre(12, -1.5, 2.0)
    for deg in (0, 5, 17, 23):
        val = np.sum(weights * nodes ** deg)
        exact = (2.0 ** (deg + 1) - (-1.5) ** (deg + 1)) / (deg + 1)
        assert abs(val - exact) <= 1e-12 * max(1.0, abs(exact))


def test_gauss_legendre_rejects_bad_input():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0, 1)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1, 1)
    with pytest.raises(ValueError):
        gauss_legendre(4, [0.0, 2.0, 3.0], [1.0, 2.0, 4.0])


def test_gauss_legendre_panels_match_one_panel_rules():
    """Arrays of panel ends give one row per panel, bitwise the rule
    mapped onto that panel alone; scalar ends give 1-D arrays."""
    edges = np.array([0.0, 0.37, 1.1, 2.0, 7.5, 23.0])
    x, w = gauss_legendre(9, edges[:-1], edges[1:])
    assert x.shape == w.shape == (5, 9)
    t, v = np.polynomial.legendre.leggauss(9)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        xs, ws = gauss_legendre(9, a, b)
        assert xs.shape == ws.shape == (9,)
        ref = [(0.5 * (a + b) + 0.5 * (b - a) * t).tobytes(),
               (0.5 * (b - a) * v).tobytes()]
        for got in ((x[i], w[i]), (xs, ws)):
            assert [g.tobytes() for g in got] == ref


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 30), a=st.floats(-5, 0), w=st.floats(0.1, 5))
def test_gauss_legendre_weights_positive_sum_to_length(n, a, w):
    _, weights = gauss_legendre(n, a, a + w)
    assert (weights > 0).all()
    assert abs(weights.sum() - w) <= 1e-12 * w


def _periodic_log_rule(n, f, s):
    """The order-16 hybrid trapezoidal rule of ``_logquad16``, as
    ``assemble_muller`` applies it, for f over [0, 2pi) on the n-point grid
    with the singularity at the grid node s: the plain trapezoidal nodes
    within OFFSET spacings of s are replaced by s +- CHI h, weights WTS h."""
    h = 2 * np.pi / n
    a = _logquad16.OFFSET
    t_reg = s + np.arange(a, n - a + 1) * h
    chi = _logquad16.CHI * h
    t_cor = np.concatenate([s + chi, s - chi])
    w_cor = np.tile(_logquad16.WTS, 2) * h
    return h * np.sum(f(t_reg)) + np.sum(w_cor * f(t_cor))


def test_log_rule_smooth_integrand_matches_trapezoid():
    """On a smooth periodic integrand the hybrid rule is spectrally exact."""
    val = _periodic_log_rule(128, lambda t: np.exp(np.cos(t)), s=0.0)
    from scipy.special import iv
    exact = 2 * np.pi * iv(0, 1.0)
    assert abs(val - exact) <= 1e-12 * exact


def test_log_rule_fourier_oracle():
    """integral_0^{2pi} log(4 sin^2(t/2)) e^{i n t} dt = -2 pi / |n|."""
    for n in (1, 2, 5, 11):
        val = _periodic_log_rule(
            256, lambda t: np.log(4 * np.sin(t / 2) ** 2) * np.exp(1j * n * t),
            s=0.0)
        assert abs(val - (-2 * np.pi / abs(n))) <= 1e-11


def test_log_rule_shifted_singularity():
    s = 2 * np.pi * 17 / 200
    f = lambda t: np.log(4 * np.sin((t - s) / 2) ** 2) * np.cos(3 * (t - s))
    val = _periodic_log_rule(200, f, s=s)
    assert abs(val - (-2 * np.pi / 3)) <= 1e-11


def test_trig_interp_exact_for_trig_polynomials():
    n = 32
    t = 2 * np.pi * np.arange(n) / n
    targets = np.array([0.13, 1.7, 4.4, 6.1])
    P = trig_interp_matrix(n, targets)
    for m in (0, 1, 7, 15):
        vals = np.exp(1j * m * t)
        want = np.exp(1j * m * targets)
        assert np.abs(P @ vals - want).max() <= 1e-12
