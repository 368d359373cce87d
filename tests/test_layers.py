import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerscatter import layers as layers_mod
from layerscatter import quadrature
from layerscatter.coupling import SpectralUpdate
from layerscatter.layers import (InterfaceSolver, LayerStack,
                                 build_contour_adaptive, eval_sommerfeld_field,
                                 gamma, incident_rhs, interface_matrix,
                                 layered_sum_paths, sommerfeld_point_source)
from layerscatter.quadrature import gauss_legendre
from layerscatter.scene import load_scene
from layerscatter.special import hankel1

from oracle_layered import direct_node_sum

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def test_layerstack_validation():
    with pytest.raises(ValueError):
        LayerStack(k1=-1.0, k2=3.0, k3=1.0, d=32.0, source=(1, 1))
    with pytest.raises(ValueError):
        LayerStack(k1=1.0, k2=3.0, k3=1.0, d=-2.0, source=(1, 1))
    with pytest.raises(ValueError):
        LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1, 0.1))


def test_gamma_branch():
    """Re gamma >= 0 on the contour tails and gamma(0) = -i k."""
    k = 3.0
    assert abs(gamma(0.0 + 0j, k) - (-1j * k)) <= 1e-14 * k
    lam = np.linspace(-40, 40, 401) - 0.2j * np.sign(np.linspace(-40, 40, 401))
    g = gamma(lam, k)
    big = np.abs(lam.real) > k + 1
    assert (g[big].real > 0).all()


def test_contour_structure():
    """At a vertical separation of 2 the contour sits on both floors: pad
    20 (t_max = max|k| + 20) and 240 nodes per tail, which 14 graded
    panels of 18 nodes round up to 252."""
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1, 1))
    c = build_contour_adaptive(layers, min_vertical_sep=2.0)
    assert c.t_max == 23.0
    n_mid = (c.segments == 2).sum()
    assert n_mid == 20
    assert (c.segments == 1).sum() == (c.segments == 3).sum() == 252
    tails = c.segments != 2
    assert np.allclose(np.abs(c.nodes[tails].imag), c.b)
    # anti-symmetric traversal: nodes come in pairs lambda, -conj(lambda)
    assert np.allclose(np.sort(c.nodes.real), np.sort(-c.nodes.real))


def _contour_per_panel(layers, sep, max_horiz=0.0):
    """(t_max, nodes, weights, segments) of the contour built one
    Gauss-Legendre rule per sub-panel, left tail, vertical segment, right
    tail: the oracle of ``build_contour_adaptive``.  Panel j of a tail gets
    base + ceil(N_PER_OSC * width_j * max_horiz / 2 pi) nodes, split into
    ceil(n / MAX_RULE) equal sub-panels of ceil(n / s) nodes; the left
    tail's sub-panels are the right tail's, negated."""
    b = layers_mod.CONTOUR_B
    t_max = max(abs(k) for k in layers.ks) \
        + max(20.0, -np.log(layers_mod.CONTOUR_TOL * 1e-2) / sep)
    edges = layers_mod._tail_edges(layers.ks, b, t_max)
    base = max(6, int(np.ceil(max(240, int(np.ceil(2.0 * t_max)))
                              / (edges.size - 1))))
    right = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = base + int(np.ceil(layers_mod.N_PER_OSC * (hi - lo) * max_horiz
                               / (2 * np.pi)))
        s = -(-n // layers_mod.MAX_RULE)
        ends = np.linspace(lo, hi, s + 1)
        right += [(-(-n // s), a, c) for a, c in zip(ends[:-1], ends[1:])]
    panels = []
    for n, a, c in right[::-1]:
        x, w = gauss_legendre(n, -c, -a)
        panels.append((x + 1j * b, w.astype(complex), 3))
    x, w = gauss_legendre(layers_mod.N_MID, -b, b)
    panels.append((1j * x, -1j * w, 2))
    for n, a, c in right:
        x, w = gauss_legendre(n, a, c)
        panels.append((x - 1j * b, w.astype(complex), 1))
    nodes, weights, _ = zip(*panels)
    return (t_max, np.concatenate(nodes), np.concatenate(weights),
            np.concatenate([np.full(x.size, s) for x, _, s in panels]))


def _check_against_per_panel(layers, sep, max_horiz=0.0):
    """The contour equals the per-panel oracle bitwise, its nodes and
    weights are exactly odd and even under reversal, and no tail rule
    exceeds MAX_RULE nodes; returns N_S."""
    c = build_contour_adaptive(layers, sep, max_horiz)
    t_max, nodes, weights, segments = _contour_per_panel(layers, sep,
                                                         max_horiz)
    assert c.t_max == t_max
    assert c.nodes.tobytes() == nodes.tobytes()
    assert c.weights.tobytes() == weights.tobytes()
    assert np.array_equal(c.segments, segments)
    assert np.array_equal(c.nodes[::-1], -c.nodes)
    assert np.array_equal(c.weights[::-1], c.weights)
    assert sum(c.tail_rules) == (segments == 1).sum()
    assert max(c.tail_rules) <= layers_mod.MAX_RULE
    return len(c)


def test_contour_matches_per_panel_build(contour131):
    """example1's and band600's scene contours (sizes as their scene files
    make them: the smallest vertical separation, the source height 1, and
    the horizontal span of the region and the source), criterion 6's
    contour and the test fixture's."""
    example1 = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1.0, 1.0))
    band600 = LayerStack(k1=1.0, k2=3.0, k3=1.5, d=8.0, source=(0.0, 1.0))
    assert _check_against_per_panel(example1, 1.0, 28.0) == 1478
    assert _check_against_per_panel(band600, 1.0, 56.0) == 2448
    assert _check_against_per_panel(example1, 2.0) == 524
    assert _check_against_per_panel(example1, 1.0, 12.0) == len(contour131) \
        == 918


def test_repeat_contour_build_computes_no_rule():
    """A second contour build on the same layers takes every
    Gauss-Legendre reference rule from the cache and is bitwise the
    first."""
    band600 = LayerStack(k1=1.0, k2=3.0, k3=1.5, d=8.0, source=(0.0, 1.0))
    first = build_contour_adaptive(band600, 1.0, 56.0)
    before = quadrature._leggauss.cache_info()
    again = build_contour_adaptive(band600, 1.0, 56.0)
    after = quadrature._leggauss.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(np.unique(first.tail_rules)) + 1
    assert first.nodes.tobytes() == again.nodes.tobytes()
    assert first.weights.tobytes() == again.weights.tobytes()


@settings(deadline=None, max_examples=40)
@given(k1=st.floats(1.0, 6.0), k2=st.floats(0.5, 8.0),
       loss=st.sampled_from([0.0, 0.0, 0.05, 0.5]), k3=st.floats(0.5, 8.0),
       d=st.floats(0.3, 40.0), sep=st.floats(0.2, 5.0),
       max_horiz=st.floats(0.0, 60.0))
def test_contour_matches_per_panel_build_random_stacks(k1, k2, loss, k3, d,
                                                       sep, max_horiz):
    """Random layer stacks, lossy k2 included."""
    layers = LayerStack(k1=k1, k2=k2 + 1j * loss, k3=k3, d=d,
                        source=(0.0, 1.0))
    _check_against_per_panel(layers, sep, max_horiz)


@pytest.mark.parametrize("span, bound", [(28.0, 1e-12), (56.0, 1e-9)])
@pytest.mark.parametrize("k", [1.0, 3.0])
def test_point_source_across_scene_span(k, span, bound):
    """The contour sum of the point source against (i/4)H0 on a
    homogeneous stack, on the contour of a scene's separation 1 and
    horizontal span (example1 28, band600 56): at vertical separations 1,
    2 and 4 and every |dx| <= span, relative to the row's largest value.
    Equal nodes per panel read 3.5e-10 on example1 and 7.0e-8 on
    band600, the widest panels having too few nodes per oscillation."""
    layers = LayerStack(k1=k, k2=k, k3=k, d=10.0, source=(0.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=span)
    dx = np.linspace(-span, span, 401)
    for sep in (1.0, 2.0, 4.0):
        pts = np.stack([dx, np.full_like(dx, 1.0 + sep)], -1)
        ref = 0.25j * hankel1(0, k * np.hypot(dx, sep) + 0j)
        got = sommerfeld_point_source(contour, k, (0.0, 1.0), pts)
        assert np.abs(got - ref).max() <= bound * np.abs(ref).max()


def test_sommerfeld_identity_free_space():
    """Contour quadrature of the spectral H0 form vs the Hankel function."""
    rng = np.random.default_rng(0)
    for k in (1.0, 3.0):
        sep = 0.2 * 2 * np.pi / k
        layers = LayerStack(k1=k, k2=k, k3=k, d=10.0, source=(0.5, 1.0))
        contour = build_contour_adaptive(layers, min_vertical_sep=sep,
                                         max_horiz=10.0)
        src = (0.5, 1.0)
        x = src[0] + rng.uniform(-5, 5, 25)
        y = src[1] + sep + rng.uniform(0, 3, 25)
        pts = np.stack([x, y], axis=-1)
        r = np.hypot(x - src[0], y - src[1])
        ref = 0.25j * hankel1(0, k * r + 0j)
        got = sommerfeld_point_source(contour, k, src, pts)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-9


def test_interface_rows_satisfied(layers131, contour131):
    """The solved spectral densities satisfy the 4x4 system rows exactly."""
    solver = InterfaceSolver(contour131, layers131)
    dens = solver.solve()
    idx = np.arange(0, len(contour131), 7)
    scale = np.abs(dens.values).max()
    for i in idx:
        lam = contour131.nodes[i]
        A = interface_matrix(lam, layers131)
        b = incident_rhs(lam, layers131)
        res = A @ dens.values[i] - b
        assert np.abs(res).max() <= 1e-12 * max(scale, np.abs(b).max())


def test_interface_field_continuity(layers131, contour131):
    """Value and normal-derivative continuity of the layered field across
    both interfaces, the derivative on each side from values by the
    one-sided 5-point stencil at spacing 1e-3."""
    dens = InterfaceSolver(contour131, layers131).solve()
    xs = np.linspace(-6.0, 6.0, 9)
    eps, h = 1e-8, 1e-3
    stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    offs = eps + h * np.arange(stencil.size)

    def side(y_iface, sign):
        """The value at y_iface + sign eps and the y-derivative there."""
        pts = np.stack(np.broadcast_arrays(xs[:, None],
                                           y_iface + sign * offs), -1)
        u = eval_sommerfeld_field(dens, contour131, layers131,
                                  pts.reshape(-1, 2)).reshape(pts.shape[:2])
        return u[:, 0], sign * (u @ stencil) / h

    # each pair is normalised by the field outside the middle layer
    for y_iface, outer in ((0.0, 0), (-layers131.d, 1)):
        (ua, ga), (ub, gb) = side(y_iface, 1.0), side(y_iface, -1.0)
        uo, go = ((ua, ga), (ub, gb))[outer]
        assert np.abs(ua - ub).max() / np.abs(uo).max() <= 1e-6
        assert np.abs(ga - gb).max() / np.abs(go).max() <= 1e-6


def _on_workers(monkeypatch, workers):
    """Make ``in_blocks`` see ``workers`` usable cores."""
    monkeypatch.setattr(layers_mod, "usable_cores", lambda: workers)


@pytest.mark.parametrize("workers", [1, 3])
def test_chunked_field_matches_pointwise(layers131, contour131, monkeypatch,
                                         workers):
    """The tensor-product layered sum agrees with the row dots called
    directly, point by point, to 1e-13 in all three layers: a grid of 15 x
    values and 9 heights per layer (top-layer heights above and below the
    source height) plus 3 scattered points per layer, permuted, with blocks
    of 7 rows (of 2 rows per thread on 3 threads) so that blocks split on
    both axes and partial blocks occur.  The row dots on ``workers``
    threads equal those on one, bit for bit."""
    monkeypatch.setattr(layers_mod, "CHUNK_ELEMENTS", 7 * len(contour131) + 3)
    _on_workers(monkeypatch, workers)
    dens = InterfaceSolver(contour131, layers131).solve()
    X, Y = np.meshgrid(np.linspace(-5.0, 5.0, 15), np.concatenate([
        np.linspace(0.0, 2.5, 9), np.linspace(-31.5, -0.5, 9),
        np.linspace(-40.0, -33.0, 9)]))
    rng = np.random.default_rng(3)
    scattered = np.concatenate([
        np.stack([rng.uniform(-5, 5, 3), rng.uniform(lo, hi, 3)], -1)
        for lo, hi in ((0.1, 3.0), (-31.9, -0.1), (-45.0, -32.1))])
    pts = np.concatenate([np.stack([X.ravel(), Y.ravel()], -1), scattered])
    pts = pts[rng.permutation(len(pts))]
    assert layered_sum_paths(layers131, pts) == ("tensor",) * 3
    assert layered_sum_paths(layers131, scattered) == ("rows",) * 3
    val = eval_sommerfeld_field(dens, contour131, layers131, pts)
    monkeypatch.setattr(layers_mod, "_spectral_sum", layers_mod._row_dots)
    ref = eval_sommerfeld_field(dens, contour131, layers131, pts)
    _on_workers(monkeypatch, 1)
    one = eval_sommerfeld_field(dens, contour131, layers131, pts)
    assert np.array_equal(ref, one)
    for sel in (pts[:, 1] >= 0, (pts[:, 1] < 0) & (pts[:, 1] >= -32.0),
                pts[:, 1] < -32.0):
        assert sel.sum() == 9 * 15 + 3
        scale = np.abs(ref[sel]).max()
        assert np.abs(val[sel] - ref[sel]).max() <= 1e-13 * scale


@pytest.mark.parametrize("workers", [1, 3])
def test_field_matches_direct_node_sum(layers131, contour131, monkeypatch,
                                       workers):
    """Both forms of the layered sum match the plain per-node sum
    (``oracle_layered``) to 1e-13 in all three layers: 9 scattered points
    per layer (row dots) and a 6 x 4 grid per layer (tensor), with dx of
    both signs and top-layer heights above and below the source height, in
    blocks of 7 rows (of 2 per thread on 3 threads) so that blocks split
    and partial blocks occur.  The row dots on ``workers`` threads equal
    those on one, bit for bit."""
    monkeypatch.setattr(layers_mod, "CHUNK_ELEMENTS", 7 * len(contour131) + 3)
    _on_workers(monkeypatch, workers)
    dens = InterfaceSolver(contour131, layers131).solve()
    x0, y0 = layers131.source
    rng = np.random.default_rng(5)
    bands = ((0.1, 3.0), (-31.9, -0.1), (-45.0, -32.1))
    scattered = np.concatenate([
        np.stack([x0 + rng.uniform(-5, 5, 9), rng.uniform(lo, hi, 9)], -1)
        for lo, hi in bands])
    X, Y = np.meshgrid(x0 + np.linspace(-5.0, 5.0, 6), np.concatenate(
        [np.linspace(lo, hi, 4) for lo, hi in bands]))
    grid = np.stack([X.ravel(), Y.ravel()], -1)
    for pts, path in ((scattered, "rows"), (grid, "tensor")):
        assert layered_sum_paths(layers131, pts) == (path,) * 3
        val = eval_sommerfeld_field(dens, contour131, layers131, pts)
        ref, _ = direct_node_sum(dens, contour131, layers131, pts)
        x, y = pts[:, 0] - x0, pts[:, 1]
        for sel in (y >= 0, (y < 0) & (y >= -32.0), y < -32.0):
            assert (x[sel] > 0).any() and (x[sel] < 0).any()
            scale = np.abs(ref[sel]).max()
            assert np.abs(val[sel] - ref[sel]).max() <= 1e-13 * scale
        assert (y > y0).any() and ((y < y0) & (y >= 0)).any()
    val = eval_sommerfeld_field(dens, contour131, layers131, scattered)
    _on_workers(monkeypatch, 1)
    one = eval_sommerfeld_field(dens, contour131, layers131, scattered)
    assert np.array_equal(val, one)


def test_field_rejects_unmirrored_contour(layers131, contour131):
    """The sums take each left-half node as the mirror of a right-half one:
    a contour with one node off by an ulp, or with an odd node count, is
    refused with the mirror check's ValueError, not summed wrongly."""
    nodes = contour131.nodes.copy()
    nodes[0] = np.nextafter(nodes[0].real, 0) + 1j * nodes[0].imag
    h = len(contour131) // 2
    odd = replace(contour131, nodes=np.insert(contour131.nodes, h, 0j),
                  weights=np.insert(contour131.weights, h, 0j),
                  segments=np.insert(contour131.segments, h, 2))
    dens = InterfaceSolver(contour131, layers131).solve()
    pts = np.array([[0.3, 1.8], [-0.7, -5.0], [0.5, -33.5]])
    for bad in (replace(contour131, nodes=nodes), odd):
        with pytest.raises(ValueError, match="mirror"):
            eval_sommerfeld_field(dens, bad, layers131, pts)
        with pytest.raises(ValueError, match="mirror"):
            sommerfeld_point_source(bad, 1.0, layers131.source, pts)


# tracemalloc peak of the layered field on example1's contour: three
# CHUNK_ELEMENTS blocks (16 MB each) plus the points-sized arrays of a
# 400 x 560 grid.  The 100 x 140 benchmark grid peaks at 10 MB, the
# 400 x 560 grid at 47 MB; a dense points x N_S evaluation of the 100 x 140
# grid needs about 860 MB
FIELD_PEAK_BOUND = 64 * 2 ** 20


# tracemalloc peak of the row form at 1,334 scattered middle-layer points on
# band600's solve contour (N_S 2448): the vertical rows of both halves and,
# per chunk, the gathered right-half phases and one gathered half of the
# rows, 8 MB each, read 41 MB; full-contour phases and rows read 81 MB
ROWS_PEAK_BOUND = 48 * 2 ** 20


def _example1_field_peak(nx, ny):
    """Values and tracemalloc peak of the layered field of example1 on an
    nx x ny grid over its extent."""
    cfg = load_scene(SCENES / "example1.scene")
    layers = cfg.layers()
    sep_v = min(cfg.source_y, -cfg.region_y1, cfg.region_y0 + cfg.d)
    xs = [cfg.region_x0, cfg.region_x1, cfg.source_x]
    contour = build_contour_adaptive(layers, min_vertical_sep=sep_v,
                                     max_horiz=max(xs) - min(xs))
    dens = InterfaceSolver(contour, layers).solve()
    X, Y = np.meshgrid(np.linspace(-14, 14, nx), np.linspace(-36, 4, ny))
    pts = np.stack([X.ravel(), Y.ravel()], -1)
    tracemalloc.start()
    try:
        vals = eval_sommerfeld_field(dens, contour, layers, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return vals, peak


def test_field_memory_bound_m100_grid():
    """The layered field on the 100 x 140 benchmark grid stays under
    FIELD_PEAK_BOUND."""
    vals, peak = _example1_field_peak(100, 140)
    assert np.isfinite(vals).all()
    assert peak < FIELD_PEAK_BOUND, f"peak {peak / 2 ** 20:.0f} MB"


def test_field_memory_bound_large_grid():
    """A 400 x 560 grid splits its tensor blocks over y and stays under the
    same bound: no array grows with points x N_S."""
    vals, peak = _example1_field_peak(400, 560)
    assert np.isfinite(vals).all()
    assert peak < FIELD_PEAK_BOUND, f"peak {peak / 2 ** 20:.0f} MB"


def test_row_form_memory_bound_band600():
    """1,334 scattered middle-layer points on band600's solve contour take
    the row form and stay under ROWS_PEAK_BOUND."""
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.5, d=8.0, source=(0.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=56.0)
    assert len(contour) == 2448
    dens = InterfaceSolver(contour, layers).solve()
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(-28.0, 28.0, 1334),
                    rng.uniform(-7.9, -0.1, 1334)], -1)
    assert layered_sum_paths(layers, pts) == ("none", "rows", "none")
    tracemalloc.start()
    try:
        vals = eval_sommerfeld_field(dens, contour, layers, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(vals).all()
    assert peak < ROWS_PEAK_BOUND, f"peak {peak / 2 ** 20:.0f} MB"


def test_equal_wavenumbers_transmit_source():
    """k1 = k2 = k3: no interface scattering; the layered field is the
    free-space Green's function of the source in the middle and top
    layers."""
    k = 2.0
    layers = LayerStack(k1=k, k2=k, k3=k, d=8.0, source=(0.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=6.0)
    dens = InterfaceSolver(contour, layers).solve()
    mid = np.array([[1.0, -2.0], [-2.5, -4.0], [3.0, -6.5]])
    top = np.array([[0.5, 2.0], [-1.0, 3.0]])
    pts = np.concatenate([mid, top])
    u = eval_sommerfeld_field(dens, contour, layers, pts)
    d = pts - np.array(layers.source)
    ref = 0.25j * hankel1(0, k * np.hypot(d[:, 0], d[:, 1]) + 0j)
    err = np.abs(u - ref)
    scale = np.abs(ref[:len(mid)]).max()
    assert err[:len(mid)].max() / scale <= 1e-9
    # no reflected field: the top layer holds the source alone
    assert err[len(mid):].max() <= 1e-9 * scale


def test_extra_rhs_linearity(layers131, contour131):
    """solve(update) - solve() is the update's own response."""
    solver = InterfaceSolver(contour131, layers131)
    rng = np.random.default_rng(1)
    n = len(contour131)
    e = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    upd = SpectralUpdate(sigma_plus=e[:, 0], sigma_minus=e[:, 1])
    base = solver.solve().values
    full = solver.solve(upd).values
    only = solver.solve(upd, include_source=False).values
    assert np.abs(full - base - only).max() <= 1e-12 * np.abs(full).max()
