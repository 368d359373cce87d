import gc
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from layerscatter import multiscat
from layerscatter.multiscat import (BOX_BUFFER, PAIR_BLOCK, ExpansionVector,
                                    PairCoupling, _box_cells, _box_m2l,
                                    _box_offsets, _box_plan, _eval_boxes,
                                    _eval_locals, _expansion_order,
                                    _graf_rows, _near_count, _near_pairs,
                                    _shift_down, _shift_up, _translate,
                                    disk_owners, eval_expansion,
                                    eval_multipole_field, m2l,
                                    point_source_local, solve_free_space)
from layerscatter.particle import rotate_scattering_matrix
from layerscatter.scene import place_particles
from layerscatter.special import bessel_j, hankel1

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
                                      (EXAMPLE1, 1000), (EXAMPLE1, 1200)])
def test_box_m2l_matches_dense(monkeypatch, scene, M):
    """The box M2L against the dense apply with random betas, decaying as
    e^{-|n|/2} and not decaying, on band600's band and example1's region:
    1e-10 in the max norm relative to the dense output, order by order, with
    far pairs present.  The box order P does not depend on p; with betas
    of equal size at every order the error stays 4e-14 on band600 (P = 34)
    and 3e-15 on example1 at M = 1000 (P = 35).  The max over all orders
    is set by the near pairs' order -p outputs, which are about 1e20 times
    the order-0 ones; measured against it, even P = 6 reads 1e-16.  At
    M = 1200 the grid is 25 x 25, padded to 49 x 49, a size whose float
    FFT frequencies put box offset 2 at 2.0000000000000004: with those the
    far kernel also held the offset-2 neighbours, and order 0 read 2e-5."""
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


@pytest.mark.parametrize("scene, M", [(BAND600, 600), (EXAMPLE1, 1200)])
def test_box_m2l_far_pass_matches_dense_far_pairs(monkeypatch, scene, M):
    """The box M2L's far pass alone (H->H shift, FFT m2l, J->J shift)
    against the dense sum over the far pairs only: the dense recurrence
    with H_0 = H_1 = 0 on the box grid's near pairs.  The error is weighted
    as the locals are used, on each enclosing circle: per centre,
    sum_n |err_n| |J_n(k R)| relative to the same sum of the far locals,
    at most 1e-6 at every centre.  With betas decaying as e^{-|n|/2} and
    flat, the worst centre reads 3.6e-7 and 4.3e-7 on band600 (P = 34),
    1.7e-10 and 1.3e-8 on example1 at M = 1200 (P = 35), and 1e-12 and
    4e-11 at M = 500 (P = 36).  Unweighted, order by order, the far pass
    reads 3e-6 to 7e-5 relative to the largest far local of that order,
    4e-9 at order 0 on band600: COUPLING_TOL sizes P from one Graf tail,
    not from the whole chain."""
    p, (region, R) = 10, scene
    centers = _placed_centers(scene, M)
    monkeypatch.setattr(multiscat, "BOX_CROSSOVER", M + 1)
    z, eith, h0, h1 = PairCoupling(centers, K, p)._pairs
    monkeypatch.setattr(multiscat, "BOX_CROSSOVER", 0)
    boxes = PairCoupling(centers, K, p)
    shape, _, cells = _box_cells(centers, boxes.width)
    near = np.zeros((M, M), dtype=bool)
    near[_near_pairs(cells, cells, shape)] = True
    h0, h1 = np.where(near, 0.0, h0), np.where(near, 0.0, h1)
    weight = np.abs(bessel_j(np.arange(-p, p + 1), K * R))
    for decay in (0.5, 0.0):
        rng = np.random.default_rng(M)
        betas = (rng.standard_normal((M, 2 * p + 1))
                 + 1j * rng.standard_normal((M, 2 * p + 1))) \
            * np.exp(-decay * np.abs(np.arange(-p, p + 1)))
        ref = _translate(betas, z, eith, h0, h1, np.matmul)
        loc = _box_m2l(boxes._kernel, boxes._cell,
                       _shift_up(boxes._shift, betas))[boxes._cell]
        err = np.abs(_shift_down(boxes._shift, loc) - ref) @ weight
        assert np.all(err <= 1e-6 * (np.abs(ref) @ weight))


@pytest.mark.parametrize("k", [3.0, 3.0 + 0j, 3.0 + 0.1j])
def test_graf_rows_match_complex_bessel_rows(k):
    """``_graf_rows`` (``bessel_j`` at orders d >= 0 only, on real
    arguments when Im k = 0, and J_{-d} = (-1)^d J_d) against whole rows
    of complex-argument ``bessel_j``, to 1e-15 of each row's largest
    entry, for a real, a complex-typed real and a lossy k, rho = 0
    included."""
    order = 44
    rel = np.random.default_rng(3).uniform(-0.6, 0.6, (200, 2))
    rel[0] = 0.0
    d = np.arange(-order, order + 1)
    ref = bessel_j(d, k * np.hypot(rel[:, 0], rel[:, 1])[:, None] + 0j) \
        * np.exp(-1j * np.outer(np.arctan2(rel[:, 1], rel[:, 0]), d))
    got = _graf_rows(rel, k, order)
    assert np.all(np.abs(got - ref).max(axis=1)
                  <= 1e-15 * np.abs(ref).max(axis=1))
    assert np.array_equal(got[0], d == 0)


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


def test_box_offsets_are_exact_integers():
    """The box offsets of every padded grid axis up to 400 points are exact
    integers in FFT order: exactly 2 BOX_BUFFER + 1 of them are near."""
    for n in range(1, 401):
        off = _box_offsets(n)
        assert off.dtype.kind == "i"
        assert np.array_equal(off, np.rint(np.fft.fftfreq(n, 1 / n)))
        assert np.array_equal(np.sort(off), np.arange(n) - n // 2)
        assert np.sum(np.abs(off) <= BOX_BUFFER) == min(n, 2 * BOX_BUFFER + 1)


def test_disk_owners_match_loop():
    """The cell-bucket owner of each point is the lowest-index centre
    closer than R, as the loop over the centres finds it, with overlapping
    disks and points exactly at r = R (which belong to no disk)."""
    rng = np.random.default_rng(3)
    R = 0.5
    centers = 0.25 * rng.integers(-20, 20, (60, 2))
    ang = rng.uniform(0, 2 * np.pi, 300)
    near = centers[rng.integers(0, 60, 300)] \
        + rng.uniform(0, 1.5 * R, (300, 1)) * np.stack([np.cos(ang),
                                                       np.sin(ang)], -1)
    rim = np.concatenate([centers + [R, 0.0], centers - [0.0, R]])
    pts = np.concatenate([near, rim, rng.uniform(-6, 6, (300, 2))])
    ref = np.full(len(pts), -1)
    for j, (cx, cy) in enumerate(centers):
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        ref[(d < R) & (ref < 0)] = j
    got = disk_owners(centers, R, pts)
    assert np.array_equal(got, ref)
    assert np.all(ref[300:420] != np.arange(120) % 60)
    assert len(np.unique(ref[ref >= 0])) > 30
    assert np.array_equal(disk_owners(centers[:0], R, pts), -np.ones(len(pts)))


def _per_instance(monkeypatch, *args):
    """eval_multipole_field with the box plan turned off: the oracle."""
    with monkeypatch.context() as m:
        m.setattr(multiscat, "_box_plan", lambda *a: None)
        return eval_multipole_field(*args)


def _free_points(centers, R, n):
    """An n x n grid over the centres' bounding box widened by 2, without
    the points in an enclosing disk."""
    lo, hi = centers.min(axis=0) - 2, centers.max(axis=0) + 2
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], n),
                       np.linspace(lo[1], hi[1], n))
    pts = np.stack([X.ravel(), Y.ravel()], -1)
    return pts[disk_owners(centers, R, pts) < 0]


@pytest.mark.parametrize("scene, M", [(EXAMPLE1, 500), (EXAMPLE1, 1000),
                                      (BAND600, 600)])
def test_box_field_matches_per_instance(monkeypatch, flower_smatrix, scene,
                                        M):
    """The field through boxes against the per-instance sum, to 1e-12 of
    max|field|, for free-space solved betas and random betas decaying as
    e^{-|n|/2}, at grid points plus points exactly at box centres (rho = 0
    in the local expansion) and at box corners.  A point inside an
    enclosing disk still raises ValueError."""
    S, _ = flower_smatrix
    p, R = S.p, S.R
    region, _ = scene
    centers = np.array([i.center for i in place_particles(region, M, R, 7)])
    pts = _free_points(centers, R, 60)
    _, width, P = _box_plan(centers, K, p, pts)
    both = np.concatenate([centers, pts])
    shape, origin, _ = _box_cells(both, width)
    corners = origin + np.indices(shape + 1).reshape(2, -1).T * width
    extra = np.concatenate([corners + 0.5 * width, corners])
    inside = np.all((extra > both.min(axis=0)) & (extra < both.max(axis=0)),
                    axis=1)
    extra = extra[inside & (disk_owners(centers, R, extra) < 0)]
    pts = np.concatenate([pts, extra])
    assert np.array_equal(_box_cells(np.concatenate([centers, pts]),
                                     width)[1], origin)
    inc = np.stack([point_source_local(K, (0.5, 4.0), tuple(c), p).coeffs
                    for c in centers])
    rots = np.random.default_rng(M).uniform(0, 2 * np.pi, M)
    solved, _ = solve_free_space(centers, rots, S, inc, tol=1e-8)
    rng = np.random.default_rng(M)
    decaying = (rng.standard_normal((M, 2 * p + 1))
                + 1j * rng.standard_normal((M, 2 * p + 1))) \
        * np.exp(-0.5 * np.abs(np.arange(-p, p + 1)))
    for betas in (solved, decaying):
        ref = _per_instance(monkeypatch, betas, centers, R, K, pts)
        got, _, _ = _eval_boxes(betas, centers, R, K, pts, width, P)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        got = eval_multipole_field(betas, centers, R, K, pts)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(ValueError, match="enclosing disk"):
        eval_multipole_field(decaying, centers, R, K,
                             np.concatenate([pts, centers[3:4] + 0.1]))


def _expansion_sum(betas, centers, pts):
    """The multipole field as a sum of ``eval_expansion`` over the
    instances: the oracle of the direct sum."""
    p = (betas.shape[1] - 1) // 2
    return sum((eval_expansion(ExpansionVector(p=p, coeffs=b, kind="H",
                                               center=tuple(c), k=K), pts)
                for b, c in zip(betas, centers)), np.zeros(len(pts)))


def _random_betas(M, p, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((M, 2 * p + 1))
            + 1j * rng.standard_normal((M, 2 * p + 1))) \
        * np.exp(-0.5 * np.abs(np.arange(-p, p + 1)))


def test_direct_field_edge_cases(monkeypatch):
    """The direct sum, which takes blocks of PAIR_BLOCK // points instances
    against all the points, against sums of ``eval_expansion`` to 1e-12:
    no points, no instances, one instance, one point given as a 1-D array
    (a scalar out), a call over several instance blocks (band600 at
    M = 600 with 40 points) and one with more than PAIR_BLOCK points (one
    instance per block)."""
    R, p = 0.165, 10
    centers = _placed_centers(BAND600, 600)
    betas = _random_betas(600, p, 5)
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(-28, 28, 400),
                    rng.uniform(-3.5, -0.6, 400)], -1)
    pts = pts[disk_owners(centers, R, pts) < 0]

    def check(b, c, x):
        got = _per_instance(monkeypatch, b, c, R, K, x)
        ref = _expansion_sum(b, c, np.atleast_2d(x))
        assert np.shape(got) == (() if np.ndim(x) == 1 else ref.shape)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    empty = _per_instance(monkeypatch, betas, centers, R, K, pts[:0])
    assert empty.shape == (0,) and empty.dtype == complex
    none = _per_instance(monkeypatch, betas[:0], centers[:0], R, K, pts)
    assert none.shape == (len(pts),) and not none.any()
    check(betas[:1], centers[:1], pts[:7])
    check(betas[:50], centers[:50], pts[0])
    assert PAIR_BLOCK // 40 < 600
    check(betas, centers, pts[:40])
    X, Y = np.meshgrid(np.linspace(-10, 10, 130), np.linspace(-1.5, 1.5, 130))
    many = np.stack([X.ravel(), Y.ravel()], -1)
    assert len(many) > PAIR_BLOCK
    check(betas[:2], np.array([[0.05, 3.0], [-0.3, -2.5]]), many)


def test_direct_field_rejects_points_in_disks(monkeypatch):
    """With the box plan off, a point inside an enclosing disk raises
    ValueError, also when that disk's instance is in a later block."""
    R, p = 0.165, 10
    centers = _placed_centers(BAND600, 600)
    betas = _random_betas(600, p, 6)
    pts = np.array([[0.0, 5.0]] * 40)
    assert PAIR_BLOCK // 41 < 599
    for inside in (centers[0], centers[599] + [0.0, 0.9 * R]):
        with pytest.raises(ValueError, match="enclosing disk"):
            _per_instance(monkeypatch, betas, centers, R, K,
                          np.concatenate([pts, [inside]]))


def test_eval_locals_matches_expansion():
    """``_eval_locals`` (downward J recurrence, Horner's rule) against
    ``eval_expansion`` of the same J-expansions to 1e-13, at points in
    the annulus of an enclosing disk, near its centre and at rho = 0."""
    p, rng = 10, np.random.default_rng(2)
    locs = rng.standard_normal((2 * p + 1, 6)) \
        + 1j * rng.standard_normal((2 * p + 1, 6))
    rho = np.array([0.0, 1e-9, 1e-3, 0.05, 0.12, 0.176])
    ang = rng.uniform(0, 2 * np.pi, 6)
    rel = rho[:, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    cell = np.arange(6)
    got = _eval_locals(locs, cell, rel, K)
    ref = [eval_expansion(ExpansionVector(p=p, coeffs=locs[:, j], kind="J",
                                          center=(0.0, 0.0), k=K), rel[j])
           for j in cell]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert got[0] == locs[p, 0]


def test_near_count_matches_near_pairs():
    """The separable box filter of ``_near_count`` counts, for every target
    cell, exactly the sources that ``_near_pairs`` pairs it with."""
    rng = np.random.default_rng(1)
    shape = np.array([23, 7])
    src = rng.integers(0, shape, (300, 2))
    tgt = rng.integers(0, shape, (200, 2))
    t, _ = _near_pairs(src, tgt, shape)
    counts = _near_count(src, shape)[tuple((tgt + BOX_BUFFER).T)]
    assert np.array_equal(counts, np.bincount(t, minlength=200))


def _m100_grid_case():
    """The m100-grid benchmark's centres (placement seed 8) and its
    100 x 140 grid points in the middle layer outside the enclosing
    disks."""
    R = 0.176
    centers = np.array([i.center for i in place_particles(EXAMPLE1[0], 100,
                                                          R, 8)])
    X, Y = np.meshgrid(np.linspace(-14, 14, 100), np.linspace(-36, 4, 140))
    pts = np.stack([X.ravel(), Y.ravel()], -1)
    pts = pts[(pts[:, 1] < 0) & (pts[:, 1] >= -32)]
    return centers, R, pts[disk_owners(centers, R, pts) < 0]


def test_box_field_memory_m100_grid():
    """One field evaluation on the m100-grid benchmark's 11,084 free points
    goes through boxes and peaks at most 10 MB under tracemalloc (the
    per-instance sum peaked at 2.6 MB, the layered sum of the same grid at
    10 MB)."""
    centers, R, pts = _m100_grid_case()
    assert len(pts) == 11084
    rng = np.random.default_rng(0)
    betas = rng.standard_normal((100, 21)) + 1j * rng.standard_normal(
        (100, 21))
    cost, _, _ = _box_plan(centers, K, 10, pts)
    assert cost < 100 * len(pts) * 21
    gc.collect()
    tracemalloc.start()
    try:
        eval_multipole_field(betas, centers, R, K, pts)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 10.0


def test_multipole_field_logged(monkeypatch, caplog):
    """One debug line per call names the form: per instance, or the box
    grid, its width, the order P and the number of near pairs; with debug
    off there is none."""
    centers, R, pts = _m100_grid_case()
    betas = np.ones((100, 21), dtype=complex)
    with caplog.at_level(logging.DEBUG, logger="layerscatter"):
        eval_multipole_field(betas, centers, R, K, pts[:5])
        eval_multipole_field(betas, centers, R, K, pts)
    _, width, P = _box_plan(centers, K, 10, pts)
    shape = _box_cells(np.concatenate([centers, pts]), width)[0]
    near = _eval_boxes(betas, centers, R, K, pts, width, P)[2]
    assert [r.getMessage() for r in caplog.records] == [
        "multipole field at 5 points from 100 instances: per instance",
        f"multipole field at {len(pts)} points from 100 instances: boxes "
        f"{shape[0]}x{shape[1]} of width {width:.3g}, P {P}, {near} near "
        "pairs"]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="layerscatter"):
        eval_multipole_field(betas, centers, R, K, pts)
    assert not caplog.records


def _kernel_bytes(centers, pts, width, P):
    shape = _box_cells(np.concatenate([centers, pts]), width)[0]
    return np.prod(2 * shape - 1) * (4 * P + 1) * 16


def test_box_plan_skips_oversized_grids(monkeypatch):
    """Widths whose transformed m2l kernel would pass BOX_KERNEL_BYTES are
    skipped.  A point far from the others stretches the grid over both
    until no width is left (the field then takes the per-instance sum)."""
    centers = _placed_centers(EXAMPLE1, 1000)
    pts = _free_points(centers, 0.176, 40)
    _, width, P = _box_plan(centers, K, 10, pts)
    assert _box_plan(centers, K, 10,
                     np.concatenate([pts, [[0.0, 1e5]]])) is None
    cap = _kernel_bytes(centers, pts, width, P) - 1
    monkeypatch.setattr(multiscat, "BOX_KERNEL_BYTES", cap)
    _, width2, P2 = _box_plan(centers, K, 10, pts)
    assert width2 != width
    assert _kernel_bytes(centers, pts, width2, P2) <= cap


def test_box_plan_counts_no_near_pairs_above_the_direct_sum(monkeypatch):
    """A 40-point field from band600's 600 centres: every width's shift and
    m2l cost alone reaches the direct sum's 600 * 40 * 21 multiply-adds,
    the ceiling ``eval_multipole_field`` passes, so ``_box_plan`` counts
    no near pairs and the direct sum runs.  With and without a ceiling the
    plans lead to the same choice, also at 400 and 4,000 points."""
    R, p = 0.165, 10
    centers = _placed_centers(BAND600, 600)
    betas = _random_betas(600, p, 8)
    rng = np.random.default_rng(8)
    pts = np.stack([rng.uniform(-28, 28, 4000),
                    rng.uniform(-3.5, -0.6, 4000)], -1)
    pts = pts[disk_owners(centers, R, pts) < 0]
    for n in (400, 4000):
        direct = 600 * n * (2 * p + 1)
        full = _box_plan(centers, K, p, pts[:n])
        capped = _box_plan(centers, K, p, pts[:n], direct)
        assert (capped is not None and capped[0] < direct) \
            == (full[0] < direct)
        assert capped is None or capped[0] >= direct or capped == full
    ref = _per_instance(monkeypatch, betas, centers, R, K, pts[:40])

    def counted(*a):
        raise AssertionError("near pairs counted")

    monkeypatch.setattr(multiscat, "_near_count", counted)
    assert _box_plan(centers, K, p, pts[:40], 600 * 40 * (2 * p + 1)) is None
    assert np.array_equal(eval_multipole_field(betas, centers, R, K,
                                               pts[:40]), ref)
