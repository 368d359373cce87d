import numpy as np
import pytest

from layerscatter import particle
from layerscatter.particle import (ShapeParams, discretize_boundary,
                                   rotate_scattering_matrix,
                                   scattering_matrix_disk,
                                   scattering_matrix_nystrom, shape_curve)


def test_shape_curve_geometry(flower_params):
    """Normal is unit and orthogonal to the tangent; speed = |dx/dt|."""
    t = np.linspace(0, 2 * np.pi, 37)
    pos, tan, nrm, speed = shape_curve(flower_params, t)
    assert np.abs(np.hypot(nrm[:, 0], nrm[:, 1]) - 1).max() <= 1e-13
    assert np.abs(np.hypot(tan[:, 0], tan[:, 1]) - 1).max() <= 1e-13
    assert np.abs((tan * nrm).sum(-1)).max() <= 1e-13
    # outward orientation: normal points away from the origin on average
    assert ((pos * nrm).sum(-1) > 0).all()


def test_disk_cross_validation():
    """Nystrom on a circle vs the analytic per-mode disk solve."""
    params = ShapeParams(a1=0.3, a2=0.0, a3=1, kp=2.0, N=300)
    bd = discretize_boundary(params)
    S_nys, _ = scattering_matrix_nystrom(bd, 3.0, 2.0, 10)
    S_ana = scattering_matrix_disk(0.3, 3.0, 2.0, 10)
    assert np.abs(S_nys.entries - S_ana.entries).max() <= 1e-10


def test_zero_contrast_gives_zero_matrix(flower_boundary):
    S, _ = scattering_matrix_nystrom(flower_boundary, 3.0, 3.0, 10)
    assert np.abs(S.entries).max() <= 1e-12


def test_energy_conservation(flower_smatrix):
    """Lossless scatterer: U = I + 2S is unitary."""
    S, _ = flower_smatrix
    U = np.eye(2 * S.p + 1) + 2 * S.entries
    assert np.abs(U.conj().T @ U - np.eye(2 * S.p + 1)).max() <= 1e-6


def test_symmetry_under_shape_rotation(flower_boundary, flower_smatrix):
    """A 3-fold flower is invariant under rotation by 2 pi / 3."""
    S, _ = flower_smatrix
    S_rot = rotate_scattering_matrix(S, 2 * np.pi / 3)
    assert np.abs(S_rot.entries - S.entries).max() <= \
        1e-10 * np.abs(S.entries).max()


def test_rotation_composition(flower_smatrix):
    S, _ = flower_smatrix
    a, b = 0.4, 1.1
    once = rotate_scattering_matrix(rotate_scattering_matrix(S, a), b)
    both = rotate_scattering_matrix(S, a + b)
    assert np.abs(once.entries - both.entries).max() <= \
        1e-12 * np.abs(S.entries).max()


def test_densities_reproduce_matrix(flower_boundary, flower_smatrix):
    """The per-mode boundary densities project onto the same S entries."""
    from layerscatter.particle import _multipole_projection
    S, dens = flower_smatrix
    w_sigma, w_mu = _multipole_projection(flower_boundary, 3.0, S.p)
    entries = w_sigma.T @ dens.sigma + w_mu.T @ dens.mu
    assert np.abs(entries - S.entries).max() <= 1e-13


def test_scattered_field_matches_densities(flower_boundary, flower_smatrix):
    """For a single incident mode, the H-expansion from S agrees with the
    layer-potential field of the solved densities outside the disk."""
    from layerscatter.solver import _layer_potentials
    from layerscatter.special import bessel_j, hankel1
    S, dens = flower_smatrix
    k2 = 3.0
    n_in = 1
    col = n_in + S.p
    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts = 3.5 * S.R * np.stack([np.cos(th), np.sin(th)], -1)
    wts = flower_boundary.h * flower_boundary.speed
    u_dens = _layer_potentials(k2, flower_boundary.nodes,
                               flower_boundary.normals, wts,
                               dens.sigma, dens.mu, pts)[:, col]
    ns = np.arange(-S.p, S.p + 1)
    r = np.hypot(pts[:, 0], pts[:, 1])
    a = np.arctan2(pts[:, 1], pts[:, 0])
    u_exp = (hankel1(ns[None, :], (k2 * r)[:, None] + 0j)
             * np.exp(1j * np.outer(a, ns))) @ S.entries[:, col]
    assert np.abs(u_dens - u_exp).max() <= 1e-8 * np.abs(u_dens).max()


def test_near_singular_system_rejected(flower_boundary, monkeypatch):
    """A Nystrom system whose smallest singular value is 1e-16 of its
    largest (the flower's own reads cond 1.44) raises instead of returning
    densities that are mostly rounding error."""
    A = particle.assemble_muller(flower_boundary, 3.0, 2.0)
    U, s, Vh = np.linalg.svd(A)
    s[-1] = 1e-16 * s[0]
    monkeypatch.setattr(particle, "assemble_muller",
                        lambda *args: (U * s) @ Vh)
    with pytest.raises(RuntimeError, match="singular"):
        scattering_matrix_nystrom(flower_boundary, 3.0, 2.0, 10)
