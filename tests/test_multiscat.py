import gc
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from layerscatter import multiscat
from layerscatter.multiscat import (BOX_BUFFER, ExpansionVector, PairCoupling,
                                    _expansion_order, _graf_rows, _shift_down,
                                    _shift_up, eval_expansion,
                                    eval_multipole_field, m2l,
                                    point_source_local, solve_free_space)
from layerscatter.particle import rotate_scattering_matrix
from layerscatter.scene import place_particles
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


def _circle(center, radius, n=12):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)],
                                                  -1)


def test_graf_shift_up_to_box_centre():
    """The H->H shift of an order-10 multipole at a corner of its unit box
    to the box centre reproduces its field to 1e-12 at points as close to
    the box centre as the centres of a far box come.  Order 50 resolves
    this worst single shift; the box order P bounds the error of the whole
    chain, which test_box_m2l_matches_dense checks."""
    rng = np.random.default_rng(6)
    p, P, width = 10, 50, 1.0
    C = np.array([0.3, -0.2])
    c = C + [0.49, -0.48]
    src = _random_h_expansion(rng, p, tuple(c), decay=0.5)
    up = _shift_up(_graf_rows((c - C)[None], K, P + p), src.coeffs[None])[0]
    box = ExpansionVector(p=P, coeffs=up, kind="H", center=tuple(C), k=K)
    pts = _circle(C, (BOX_BUFFER + 1 - np.sqrt(0.5)) * width)
    ref = eval_expansion(src, pts)
    assert np.abs(eval_expansion(box, pts) - ref).max() <= \
        1e-12 * np.abs(ref).max()


def test_graf_shift_down_from_box_centre():
    """The J->J shift of the box order-P local expansion of a point source
    about a unit box's centre, down to a centre at a corner of the box at
    order 10, reproduces the box expansion to 1e-12 on the enclosing disk
    about that centre."""
    p, width = 10, 1.0
    P = _expansion_order(K, width)
    C = np.array([0.3, -0.2])
    c = C + [-0.47, 0.5]
    box = point_source_local(K, tuple(C + [2.9, 1.3]), tuple(C), P)
    down = _shift_down(_graf_rows((c - C)[None], K, P + p),
                       box.coeffs[None])[0]
    loc = ExpansionVector(p=p, coeffs=down, kind="J", center=tuple(c), k=K)
    pts = _circle(c, 0.176)
    ref = eval_expansion(box, pts)
    assert np.abs(eval_expansion(loc, pts) - ref).max() <= \
        1e-12 * np.abs(ref).max()


BAND600 = ((-28.0, 28.0, -3.0, -1.1), 0.165)
EXAMPLE1 = ((-14.0, 14.0, -30.0, -2.0), 0.176)


def _placed_centers(scene, M):
    region, R = scene
    return np.array([i.center for i in place_particles(region, M, R, 7)])


@pytest.mark.parametrize("scene, M", [(BAND600, 600), (EXAMPLE1, 100),
                                      (EXAMPLE1, 1000)])
def test_box_m2l_matches_dense(monkeypatch, scene, M):
    """The box M2L against the dense apply with random betas, decaying as
    e^{-|n|/2} and not decaying, on band600's band and example1's region:
    1e-10 in the max norm relative to the dense output, order by order, with
    far pairs present.  The box order P does not depend on p; with betas
    of equal size at every order the error stays 4e-14 on band600 (P = 34)
    and 3e-15 on example1 at M = 1000 (P = 35).  The max over all orders
    is set by the near pairs' order -p outputs, which are about 1e20 times
    the order-0 ones; measured against it, even P = 6 reads 1e-16."""
    p = 10
    centers = _placed_centers(scene, M)
    monkeypatch.setattr(multiscat, "BOX_CROSSOVER", M + 1)
    dense = PairCoupling(centers, K, p)
    assert dense.grid is None
    monkeypatch.setattr(multiscat, "BOX_CROSSOVER", 0)
    boxes = PairCoupling(centers, K, p)
    assert boxes.grid is not None and boxes.near_pairs < M * (M - 1) / 2
    for decay in (0.5, 0.0):
        rng = np.random.default_rng(M)
        betas = (rng.standard_normal((M, 2 * p + 1))
                 + 1j * rng.standard_normal((M, 2 * p + 1))) \
            * np.exp(-decay * np.abs(np.arange(-p, p + 1)))
        ref = dense.apply_m2l(betas)
        err = np.abs(boxes.apply_m2l(betas) - ref).max(axis=0)
        assert np.all(err <= 1e-10 * np.abs(ref).max(axis=0))


def test_pair_coupling_dense_without_box_order(monkeypatch):
    """With boxes many wavelengths wide (k = 200 on band600's band) no
    expansion order reaches COUPLING_TOL, and PairCoupling keeps the dense
    apply whatever the crossover."""
    monkeypatch.setattr(multiscat, "BOX_CROSSOVER", 0)
    assert PairCoupling(_placed_centers(BAND600, 600), 200.0, 10).grid is None


def test_pair_coupling_memory_band600():
    """On band600 (M = 600) the box PairCoupling retains at most 16 MB,
    where the dense one held 56 M^2 bytes (20 MB)."""
    centers = _placed_centers(BAND600, 600)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = PairCoupling(centers, K, 10)
        retained = (tracemalloc.get_traced_memory()[0] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert pair.grid is not None
    assert retained <= 16.0


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
