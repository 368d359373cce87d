import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from layerscatter import coupling
from layerscatter.coupling import (MultipoleToSommerfeldPlan,
                                   PlaneWaveTable, SommerfeldGridPlan,
                                   multipole_to_sommerfeld_direct,
                                   sommerfeld_to_local_direct,
                                   sommerfeld_to_local_nufft)
from layerscatter.layers import (InterfaceSolver, LayerStack,
                                 build_contour_adaptive,
                                 eval_sommerfeld_field, gamma)
from layerscatter.multiscat import ExpansionVector, eval_expansion
from layerscatter.scene import place_particles
from layerscatter.special import bessel_j, hankel1

from oracle_layered import direct_node_sum


@pytest.fixture(scope="module")
def interface_densities(contour131, layers131):
    return InterfaceSolver(contour131, layers131).solve()


def test_sommerfeld_to_local_direct_oracle(contour131, layers131,
                                           interface_densities):
    """Local expansion of the interface field vs direct field evaluation."""
    dens = interface_densities
    center = np.array([3.0, -10.0])
    p = 10
    loc = sommerfeld_to_local_direct(dens, contour131, layers131,
                                     center[None, :], p)[0]
    exp = ExpansionVector(p=p, coeffs=loc, kind="J", center=tuple(center),
                          k=layers131.k2)
    th = np.linspace(0, 2 * np.pi, 13, endpoint=False)
    pts = center[None, :] + 0.22 * np.stack([np.cos(th), np.sin(th)], -1)
    ref = eval_sommerfeld_field(dens, contour131, layers131, pts)
    got = eval_expansion(exp, pts)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("n_test", [0, 1, -1, 2, -3])
def test_multipole_to_sommerfeld_direct_oracle(contour131, layers131, n_test):
    """A unit H_n multipole's spectral updates reproduce H_n(k2 r) e^{i n t}
    on both interfaces through the contour quadrature."""
    p = 10
    k2 = layers131.k2
    cm = np.array([-2.0, -13.0])
    beta = np.zeros(2 * p + 1, dtype=complex)
    beta[n_test + p] = 1.0
    upd = multipole_to_sommerfeld_direct(beta[None, :], cm[None, :],
                                         contour131, layers131)
    g2 = gamma(contour131.nodes, k2)
    dxs = np.linspace(-8, 8, 11)
    for y_iface, sig in ((0.0, upd.sigma_plus), (-layers131.d,
                                                 upd.sigma_minus)):
        xs = cm[0] + dxs
        osc = np.exp(1j * np.multiply.outer(xs - layers131.source[0],
                                            contour131.nodes))
        u_rec = (osc * (contour131.weights / (4 * np.pi)) * sig / g2).sum(1)
        dx = xs - cm[0]
        dy = y_iface - cm[1]
        r = np.hypot(dx, dy)
        t = np.arctan2(dy, dx)
        u_true = hankel1(n_test, k2 * r + 0j) * np.exp(1j * n_test * t)
        assert np.abs(u_rec - u_true).max() <= 1e-12 * np.abs(u_true).max()


@pytest.fixture(scope="module")
def scattered_centers():
    rng = np.random.default_rng(0)
    M = 40
    cx = rng.uniform(-10, 10, M)
    cy = rng.uniform(-20, -6, M)
    return np.stack([cx, cy], -1)


def test_grid_plan_reproduces_field(contour131, layers131,
                                    interface_densities, scattered_centers,
                                    flower_smatrix):
    S, _ = flower_smatrix
    plan = SommerfeldGridPlan(contour131, layers131, scattered_centers, S.R,
                              10, tol=1e-13)
    gu, gux, guy = plan.apply(interface_densities)
    i, j = 17, 23
    pt = np.array([[plan.xnodes[i], plan.ynodes[j]]])
    u, g = direct_node_sum(interface_densities, contour131, layers131, pt)
    ref, grad = u[0], g[0]
    scale = np.abs(gu).max()
    assert abs(gu[i, j] - ref) <= 1e-12 * scale
    assert abs(gux[i, j] - grad[0]) <= 1e-11 * scale
    assert abs(guy[i, j] - grad[1]) <= 1e-11 * scale


def test_c_block_nufft_vs_direct_field_metric(contour131, layers131,
                                              interface_densities,
                                              scattered_centers,
                                              flower_smatrix):
    """NUFFT-interpolated locals agree with the direct locals in the
    J-weighted metric (the coefficients as they enter field values); raw
    high orders are unobservable below J_n(k2 R) and are not compared."""
    centers = scattered_centers
    p = 10
    k2 = layers131.k2
    R = flower_smatrix[0].R
    plan = SommerfeldGridPlan(contour131, layers131, centers, R, p, tol=1e-13)
    loc_d = sommerfeld_to_local_direct(interface_densities, contour131,
                                       layers131, centers, p)
    loc_n = sommerfeld_to_local_nufft(plan, plan.apply(interface_densities))
    wj = np.abs(bessel_j(np.arange(-p, p + 1), k2 * R + 0j))
    diff = np.abs(loc_d - loc_n) * wj[None, :]
    scale = (np.abs(loc_d) * wj[None, :]).max()
    assert diff.max() <= 1e-9 * scale


def test_c_plan_apply_recomputes_no_geometry(contour131, layers131,
                                             interface_densities,
                                             scattered_centers,
                                             flower_smatrix, monkeypatch):
    """The C plan builds its sampling geometry once: after construction an
    apply calls no barycentric-weight or Bessel routine and gives exactly
    the same locals."""
    plan = SommerfeldGridPlan(contour131, layers131, scattered_centers,
                              flower_smatrix[0].R, 10, tol=1e-13)
    ref = sommerfeld_to_local_nufft(plan, plan.apply(interface_densities))

    def forbidden(*args, **kwargs):
        raise AssertionError("sampling geometry recomputed in an apply")

    for name in ("bary_matrix", "bessel_j", "bessel_j_prime"):
        monkeypatch.setattr(coupling, name, forbidden)
    got = sommerfeld_to_local_nufft(plan, plan.apply(interface_densities))
    assert np.array_equal(got, ref)


def test_b_block_nufft_vs_direct_physical_betas(contour131, layers131,
                                                interface_densities,
                                                scattered_centers,
                                                flower_smatrix):
    """With physically attainable multipole coefficients (S applied to the
    incoming locals) the NUFFT path matches the direct path."""
    S, _ = flower_smatrix
    centers = scattered_centers
    p = S.p
    locs = sommerfeld_to_local_direct(interface_densities, contour131,
                                      layers131, centers, p)
    betas = locs @ S.entries.T
    plan = MultipoleToSommerfeldPlan(contour131, layers131, centers, p,
                                     tol=1e-13)
    upd_n = plan.apply(betas)
    upd_d = multipole_to_sommerfeld_direct(betas, centers, contour131,
                                           layers131)
    for a, b in ((upd_n.sigma_plus, upd_d.sigma_plus),
                 (upd_n.sigma_minus, upd_d.sigma_minus)):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_plane_wave_table_matches_direct(contour131, layers131,
                                         scattered_centers):
    """The table's C and B (B read in reversed node order) agree with the
    direct sums to 1e-12 relative, on the test contour and on the one
    ``build_scene`` makes for example1 (N_S = 1478)."""
    centers = scattered_centers
    p = 10
    example1 = build_contour_adaptive(layers131, min_vertical_sep=1.0,
                                      max_horiz=28.0)
    assert len(example1) == 1478
    for contour in (contour131, example1):
        dens = InterfaceSolver(contour, layers131).solve()
        table = PlaneWaveTable(contour, layers131, centers, p)
        loc_d = sommerfeld_to_local_direct(dens, contour, layers131, centers,
                                           p)
        loc_t = table.sommerfeld_to_local(dens)
        assert np.abs(loc_t - loc_d).max() <= 1e-12 * np.abs(loc_d).max()
        rng = np.random.default_rng(1)
        decay = np.exp(-0.5 * np.abs(np.arange(-p, p + 1)))
        betas = (rng.standard_normal(loc_d.shape)
                 + 1j * rng.standard_normal(loc_d.shape)) * decay
        upd_d = multipole_to_sommerfeld_direct(betas, centers, contour,
                                               layers131)
        upd_t = table.multipole_to_sommerfeld(betas)
        for a, b in ((upd_t.sigma_plus, upd_d.sigma_plus),
                     (upd_t.sigma_minus, upd_d.sigma_minus)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_plane_wave_table_rows_match_per_centre_rows(layers131,
                                                     scattered_centers):
    """The table's E equals, bitwise, the rows ``_plane_wave_rows`` builds
    one centre at a time, on example1's contour (N_S = 1478) and on
    band600's (N_S = 2448)."""
    band600 = LayerStack(k1=1.0, k2=3.0, k3=1.5, d=8.0, source=(0.0, 1.0))
    band_centers = [i.center for i in place_particles(
        (-28.0, 28.0, -3.0, -1.1), 40, 0.165, seed=7)]
    for layers, max_horiz, centers, n in (
            (layers131, 28.0, scattered_centers, 1478),
            (band600, 56.0, np.array(band_centers), 2448)):
        contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                         max_horiz=max_horiz)
        assert len(contour) == n
        table = PlaneWaveTable(contour, layers, centers, 10)
        g2 = gamma(contour.nodes, layers.k2)
        row = np.empty((2, 1, n), dtype=complex)
        for m in range(len(centers)):
            coupling._plane_wave_rows(centers[m:m + 1], contour.nodes, g2,
                                      layers, row)
            assert np.array_equal(table.E[:, m:m + 1], row)


def test_plane_wave_table_rejects_asymmetric_contour(contour131, layers131):
    """B reads the table in reversed node order, which needs
    lam[::-1] == -lam exactly: one node off by an ulp is refused."""
    nodes = contour131.nodes.copy()
    nodes[0] = np.nextafter(nodes[0].real, 0) + 1j * nodes[0].imag
    with pytest.raises(ValueError, match="lam"):
        PlaneWaveTable(replace(contour131, nodes=nodes), layers131,
                       np.array([[0.0, -10.0]]), 10)


def _b_plan_retained_mb(contour, layers, centers):
    """The B plan (p = 10, tol 1e-13) and the MB it retains: its heap as
    tracemalloc counts it, plus the vertical segment's plane-wave table,
    whose memory map tracemalloc cannot see."""
    gc.collect()
    tracemalloc.start()
    try:
        plan = MultipoleToSommerfeldPlan(contour, layers, centers, 10,
                                         tol=1e-13)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return plan, (retained + plan._mid_table.E.nbytes) / 2 ** 20


def test_b_plan_memory_band600():
    """The B plan shares one type-3 plan per tail among its snap rows and
    keeps each snap as one Graf row: on a 600-inclusion thin band
    (N_S = 2448) it retains 4.7 MB (0.37 MB of it the vertical segment's
    mapped table), at most 10 MB, where one full plan per row retained
    97 MB and a (2p+1)^2 shift matrix per centre 11.1 MB."""
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.5, d=8.0, source=(0.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=56.0)
    assert len(contour) == 2448
    insts = place_particles((-28.0, 28.0, -3.0, -1.1), 600, 0.165, seed=7)
    plan, retained = _b_plan_retained_mb(contour, layers,
                                         [i.center for i in insts])
    assert plan.occupied.size > 1
    assert retained <= 10.0


def test_b_plan_memory_example1_m1000(layers131, flower_smatrix):
    """The B plan keeps no per-row copies of the evanescent factors and
    one Graf row per centre for its snap: with example1's contour and 1000
    inclusions (390 snap rows) it retains 6.4 MB (0.61 MB of it the
    vertical segment's mapped table), at most 10 MB, where two
    N_S-long rows per snap row retained 43.5 MB and a (2p+1)^2 shift
    matrix per centre 13.1 MB."""
    S, _ = flower_smatrix
    contour = build_contour_adaptive(layers131, min_vertical_sep=1.0,
                                     max_horiz=28.0)
    assert len(contour) == 1478
    insts = place_particles((-14.0, 14.0, -30.0, -2.0), 1000, S.R, seed=7)
    plan, retained = _b_plan_retained_mb(contour, layers131,
                                         [i.center for i in insts])
    assert plan.occupied.size > 300
    assert retained <= 10.0


def test_spectral_update_zero_betas(contour131, layers131, scattered_centers):
    centers = scattered_centers
    betas = np.zeros((len(centers), 21), dtype=complex)
    upd = multipole_to_sommerfeld_direct(betas, centers, contour131, layers131)
    assert not np.any(upd.sigma_plus) and not np.any(upd.sigma_minus)
