import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from layerscatter.multiscat import (ExpansionVector, PairCoupling,
                                    eval_expansion, eval_multipole_field, m2l,
                                    point_source_local, solve_free_space)
from layerscatter.particle import rotate_scattering_matrix
from layerscatter.special import hankel1

K = 3.0


def _random_h_expansion(rng, p, center, decay=0.9):
    c = rng.standard_normal(2 * p + 1) + 1j * rng.standard_normal(2 * p + 1)
    c *= np.exp(-decay * np.abs(np.arange(-p, p + 1)))
    return ExpansionVector(p=p, coeffs=c, kind="H", center=center, k=K)


def test_m2l_evaluation_oracle():
    """Translated local expansion reproduces the source field to 1e-9."""
    rng = np.random.default_rng(0)
    src = _random_h_expansion(rng, 8, (0.0, 0.0))
    target = (2.5, 1.0)
    loc = m2l(src, target, 12)
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    pts = np.array(target) + 0.3 * np.stack([np.cos(th), np.sin(th)], -1)
    ref = eval_expansion(src, pts)
    got = eval_expansion(loc, pts)
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_point_source_local_oracle():
    src_pt = (4.0, 1.5)
    center = (0.5, -0.5)
    loc = point_source_local(K, src_pt, center, 18)
    pts = np.array(center) + np.array([[0.2, 0.1], [-0.15, 0.2], [0.0, -0.3]])
    d = pts - np.array(src_pt)
    ref = 0.25j * hankel1(0, K * np.hypot(d[:, 0], d[:, 1]) + 0j)
    got = eval_expansion(loc, pts)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_pair_coupling_matches_individual_m2l():
    rng = np.random.default_rng(2)
    p = 7
    centers = np.array([[0.0, 0.0], [2.0, 0.3], [-1.4, 1.8], [0.7, -2.2]])
    betas = rng.standard_normal((4, 2 * p + 1)) \
        + 1j * rng.standard_normal((4, 2 * p + 1))
    betas *= np.exp(-0.8 * np.abs(np.arange(-p, p + 1)))[None, :]
    coupling = PairCoupling(centers, K, p)
    got = coupling.apply_m2l(betas)
    for m in range(4):
        ref = np.zeros(2 * p + 1, dtype=complex)
        for j in range(4):
            if j == m:
                continue
            src = ExpansionVector(p=p, coeffs=betas[j], kind="H",
                                  center=tuple(centers[j]), k=K)
            ref += m2l(src, tuple(centers[m]), p).coeffs
        assert np.abs(got[m] - ref).max() <= 1e-11 * np.abs(ref).max()


def test_free_space_solve_small_system_dense_oracle(flower_smatrix):
    """GMRES free-space solve equals the dense solve of (I - ST) b = S a,
    with S block-diagonal in each instance's rotated scattering matrix."""
    S, _ = flower_smatrix
    p = S.p
    centers = np.array([[0.0, 0.0], [1.2, 0.4], [-0.8, 0.9]])
    rots = [0.4, -1.1, 2.3]
    inc = np.stack([point_source_local(K, (0.5, 4.0), tuple(c), p).coeffs
                    for c in centers])
    betas, hist = solve_free_space(centers, rots, S, inc, tol=1e-12)
    # dense assembly
    w = 2 * p + 1
    T = np.zeros((3 * w, 3 * w), dtype=complex)
    coupling = PairCoupling(centers, K, p)
    for j in range(3 * w):
        e = np.zeros((3, w), dtype=complex)
        e[j // w, j % w] = 1.0
        T[:, j] = coupling.apply_m2l(e).ravel()
    Sb = scipy.linalg.block_diag(*[rotate_scattering_matrix(S, r).entries
                                   for r in rots])
    A = np.eye(3 * w) - Sb @ T
    ref = np.linalg.solve(A, (Sb @ inc.ravel()))
    assert np.abs(betas.ravel() - ref).max() <= 1e-9 * np.abs(ref).max()


def test_eval_multipole_field_matches_expansions(flower_smatrix):
    S, _ = flower_smatrix
    p = S.p
    rng = np.random.default_rng(4)
    centers = [(0.0, 0.0), (2.0, -1.0)]
    betas = rng.standard_normal((2, 2 * p + 1)) \
        + 1j * rng.standard_normal((2, 2 * p + 1))
    pts = np.array([[1.0, 1.0], [-1.5, 0.2]])
    ref = sum(eval_expansion(
        ExpansionVector(p=p, coeffs=betas[m], kind="H", center=centers[m],
                        k=K), pts) for m in range(2))
    got = eval_multipole_field(betas, centers, S.R, K, pts)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 500), dx=st.floats(1.2, 6.0),
       dy=st.floats(-3.0, 3.0))
def test_m2l_property_translation_invariance(seed, dx, dy):
    """M2L reproduces the field for random well-separated geometries."""
    rng = np.random.default_rng(seed)
    src = _random_h_expansion(rng, 6, (0.0, 0.0), decay=1.2)
    target = (dx, dy)
    loc = m2l(src, target, 10)
    pts = np.array(target) + 0.15 * np.array([[1.0, 0.0], [0.0, -1.0]])
    ref = eval_expansion(src, pts)
    got = eval_expansion(loc, pts)
    assert np.abs(got - ref).max() <= 1e-7 * max(np.abs(ref).max(), 1e-3)
