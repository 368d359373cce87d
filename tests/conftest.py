import numpy as np
import pytest

from layerscatter.layers import LayerStack, build_contour_adaptive
from layerscatter.particle import ShapeParams, discretize_boundary, \
    scattering_matrix_nystrom


@pytest.fixture(scope="session")
def flower_params():
    return ShapeParams(a1=0.12, a2=0.04, a3=3, kp=2.0, N=300)


@pytest.fixture(scope="session")
def flower_boundary(flower_params):
    return discretize_boundary(flower_params)


@pytest.fixture(scope="session")
def flower_smatrix(flower_boundary):
    """Prototype scattering matrix and per-mode densities for k2=3, kp=2."""
    return scattering_matrix_nystrom(flower_boundary, 3.0, 2.0, 10)


@pytest.fixture(scope="session")
def layers131():
    return LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1.0, 1.0))


@pytest.fixture(scope="session")
def contour131(layers131):
    return build_contour_adaptive(layers131, min_vertical_sep=1.0,
                                  max_horiz=12.0)
