import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerscatter.coupling import GRID_NODES, bary_matrix, cheb_nodes


def test_cheb_nodes_endpoints_and_order():
    x = cheb_nodes(9, -2.0, 3.0)
    assert x[0] == pytest.approx(-2.0) and x[-1] == pytest.approx(3.0)
    assert (np.diff(x) > 0).all()


def test_cheb_nodes_rows_match_one_interval_calls():
    """Ends of shape (n, 1) give one row per interval, bitwise the nodes of
    that interval alone, as the C plan's boxes use them."""
    i = np.arange(37)[:, None]
    rows = cheb_nodes(GRID_NODES, -20.3 + i * 1.7, -20.3 + (i + 1) * 1.7)
    assert rows.shape == (37, GRID_NODES)
    for n in range(37):
        one = cheb_nodes(GRID_NODES, -20.3 + n * 1.7, -20.3 + (n + 1) * 1.7)
        assert rows[n].tobytes() == one.tobytes()


def test_bary_matrix_cardinality():
    nodes = cheb_nodes(8, 0.0, 1.0)
    P = bary_matrix(nodes, nodes)
    assert np.abs(P - np.eye(8)).max() <= 1e-12


def test_bary_rows_sum_to_one():
    nodes = cheb_nodes(12, -1.0, 1.0)
    P = bary_matrix(nodes, np.linspace(-1, 1, 37))
    assert np.abs(P.sum(axis=1) - 1).max() <= 1e-12


def test_polynomial_exactness():
    """Degree m-1 polynomials are interpolated exactly by m nodes."""
    nodes = cheb_nodes(10, -1.5, 0.5)
    t = np.linspace(-1.5, 0.5, 51)
    P = bary_matrix(nodes, t)
    for deg in (0, 4, 9):
        assert np.abs(P @ nodes ** deg - t ** deg).max() <= 1e-11


def test_tensor_patch_interpolates_oscillatory_field():
    """The C block's grid premise: GRID_NODES tensor Chebyshev nodes per
    side resolve a plane wave on a one-wavelength-scale box."""
    k = 3.0
    xs = cheb_nodes(GRID_NODES, 0.0, 2.0)
    ys = cheb_nodes(GRID_NODES, -1.0, 1.0)
    f = lambda X, Y: np.exp(1j * k * (0.8 * X + 0.6 * Y))
    values = f(xs[:, None], ys[None, :])
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 2, 20)
    y = rng.uniform(-1, 1, 20)
    got = np.einsum("ti,ij,tj->t", bary_matrix(xs, x), values,
                    bary_matrix(ys, y))
    assert np.abs(got - f(x, y)).max() <= 1e-11


@settings(deadline=None, max_examples=30)
@given(m=st.integers(4, 20), x=st.floats(-0.999, 0.999))
def test_interpolation_error_decays_with_m(m, x):
    """Chebyshev interpolation of exp(x) on [-1,1] is accurate for m >= 12."""
    nodes = cheb_nodes(m, -1.0, 1.0)
    got = bary_matrix(nodes, [x])[0] @ np.exp(nodes)
    bound = 10.0 / math.factorial(m - 1) * 2.0 ** (1 - (m - 1))
    assert abs(got - np.exp(x)) <= max(bound, 1e-14) * 10
