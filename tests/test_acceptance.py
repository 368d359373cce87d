"""Acceptance suite: one test per top-level correctness/performance claim.

Each test prints a single summary line (visible with ``pytest -s`` or in
captured output) of the form ``criterion N PASS/FAIL: ...`` with the
measured numbers, then asserts the stated tolerance and time budget.
"""
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from layerscatter.coupling import (MultipoleToSommerfeldPlan,
                                   SommerfeldGridPlan,
                                   multipole_to_sommerfeld_direct,
                                   sommerfeld_to_local_direct,
                                   sommerfeld_to_local_nufft)
from layerscatter.layers import (InterfaceSolver, LayerStack,
                                 build_contour_adaptive,
                                 sommerfeld_point_source)
from layerscatter.multiscat import (ExpansionVector, eval_expansion, m2l,
                                    point_source_local, solve_free_space)
from layerscatter.nufft import Nufft3Plan
from layerscatter.particle import (ShapeParams, discretize_boundary,
                                   scattering_matrix_disk,
                                   scattering_matrix_nystrom)
from layerscatter.scene import (build_scene, load_scene, place_particles,
                                solve_scene)
from layerscatter.solver import (GmresConfig, SchurOperator, eval_total_field,
                                 gmres, solve_layered_scene)
from layerscatter.special import bessel_j, bessel_y, hankel1

from oracle_monolithic import solve_monolithic

SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.fixture(scope="module", autouse=True)
def _isolated_cache(tmp_path_factory):
    old = os.environ.get("LAYERSCATTER_CACHE_DIR")
    os.environ["LAYERSCATTER_CACHE_DIR"] = \
        str(tmp_path_factory.mktemp("lscache"))
    yield
    if old is None:
        os.environ.pop("LAYERSCATTER_CACHE_DIR", None)
    else:
        os.environ["LAYERSCATTER_CACHE_DIR"] = old


def _report(num, desc, checks, seconds, budget):
    """checks: list of (label, value, bound).  Prints one line, asserts."""
    worst = max(v / b for _, v, b in checks)
    ok = worst <= 1.0 and seconds <= budget
    detail = ", ".join(f"{lab} {v:.2e} (<= {b:.0e})" for lab, v, b in checks)
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {desc}: {detail} "
          f"[{seconds:.1f}s / {budget:.0f}s]", flush=True)
    assert worst <= 1.0, f"criterion {num}: {detail}"
    assert seconds <= budget, f"criterion {num}: {seconds:.1f}s over budget"


# ---------------------------------------------------------------------------
# 1. Sommerfeld identity
# ---------------------------------------------------------------------------

def test_criterion_1_sommerfeld_identity():
    """Contour quadrature of the spectral free-space kernel reproduces
    (i/4) H0(k |x - x0|) for k in {1, 3, 10} at 100 random pairs with
    vertical separation >= 0.2 wavelengths."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checks = []
    for k in (1.0, 3.0, 10.0):
        sep = 0.2 * 2 * np.pi / k
        layers = LayerStack(k1=k, k2=k, k3=k, d=5.0, source=(0.0, 1.0))
        contour = build_contour_adaptive(layers, min_vertical_sep=sep,
                                         max_horiz=3.2)
        worst = 0.0
        for _ in range(100):
            x0 = rng.uniform(-1, 1)
            y0 = rng.uniform(-2, 2)
            dx = rng.uniform(-2, 2)
            dy = rng.uniform(sep, sep + 2.5) * rng.choice([-1.0, 1.0])
            pt = np.array([x0 + dx, y0 + dy])
            got = sommerfeld_point_source(contour, k, (x0, y0), pt)
            r = np.hypot(dx, dy)
            exact = 0.25j * hankel1(0, k * r + 0j)
            worst = max(worst, abs(got - exact))
        checks.append((f"k={k:g}", worst, 1e-9))
    _report(1, "Sommerfeld identity", checks, time.perf_counter() - t0, 5.0)


# ---------------------------------------------------------------------------
# 2. Disk cross-validation
# ---------------------------------------------------------------------------

def test_criterion_2_disk_cross_validation():
    """Nystrom scattering matrix of a disk boundary matches the analytic
    cylindrical-mode scattering matrix entrywise."""
    t0 = time.perf_counter()
    params = ShapeParams(a1=0.3, a2=0.0, a3=1, kp=2.0, N=300)
    S_nys, _ = scattering_matrix_nystrom(discretize_boundary(params), 3.0,
                                         2.0, 10)
    S_ana = scattering_matrix_disk(0.3, 3.0, 2.0, 10)
    diff = np.abs(S_nys.entries - S_ana.entries).max()
    _report(2, "disk Nystrom vs analytic", [("entry diff", diff, 1e-10)],
            time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# 3. Degenerate limits
# ---------------------------------------------------------------------------

def test_criterion_3_degenerate_limits():
    """No contrast means no scattering: kp = k2 gives a zero scattering
    matrix, and equal layer wavenumbers with no particles reproduce the
    free-space Green's function everywhere."""
    t0 = time.perf_counter()
    params = ShapeParams(a1=0.12, a2=0.04, a3=3, kp=3.0, N=300)
    S0, _ = scattering_matrix_nystrom(discretize_boundary(params), 3.0, 3.0,
                                      10)
    s_norm = np.abs(S0.entries).max()

    k = 3.0
    layers = LayerStack(k1=k, k2=k, k3=k, d=6.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=8.0)
    op = SchurOperator(contour, layers, [], S0)
    sol = solve_layered_scene(op)
    pts = np.array([[-3.0, 2.2], [0.5, 3.5], [4.0, 2.6],       # layer 1
                    [-3.5, -1.5], [-1.0, -4.8], [0.8, -2.4],
                    [2.2, -3.9], [4.5, -1.2],                  # layer 2
                    [-2.5, -7.4], [1.5, -8.3], [4.0, -7.2]])   # layer 3
    u = eval_total_field(sol, pts)
    r = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 1.0)
    exact = 0.25j * hankel1(0, k * r + 0j)
    rel = np.abs(u - exact).max() / np.abs(exact).max()
    _report(3, "degenerate limits", [("||S|| at kp=k2", s_norm, 1e-12),
                                     ("free-space field", rel, 1e-8)],
            time.perf_counter() - t0, 10.0)


# ---------------------------------------------------------------------------
# 4. Two-particle monolithic cross-validation
# ---------------------------------------------------------------------------

def test_criterion_4_monolithic_two_particles():
    """The Schur-complement solution agrees with a monolithic dense solve
    (boundary densities + interface densities coupled directly, no
    scattering matrices or multipole expansions) at 20 probes spanning all
    three layers."""
    t0 = time.perf_counter()
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=6.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=3.6)
    params = ShapeParams(a1=0.12, a2=0.04, a3=3, kp=2.0, N=200)
    centers = [(0.6, -2.2), (1.35, -3.0)]
    rots = [0.3, -0.8]
    probes = np.array([
        [-2.0, 1.2], [0.0, 2.0], [2.5, 1.0], [4.0, 1.8],
        [-2.3, -1.4], [-1.0, -2.6], [-0.2, -4.0], [0.3, -1.3],
        [1.0, -4.6], [1.8, -1.6], [2.2, -3.4], [2.9, -2.1],
        [3.6, -4.4], [4.2, -1.7], [-1.8, -4.7], [2.0, -4.9],
        [-1.5, -7.2], [0.5, -7.8], [2.0, -7.1], [3.8, -7.5]])
    u_ref, _, _ = solve_monolithic(layers, contour, params, centers, rots,
                                   probes)

    boundary = discretize_boundary(params)
    smat, dens_modes = scattering_matrix_nystrom(boundary, 3.0, 2.0, 10)
    from layerscatter.multiscat import ParticleInstance
    insts = [ParticleInstance(center=c, rotation=r, R=smat.R)
             for c, r in zip(centers, rots)]
    op = SchurOperator(contour, layers, insts, smat)
    sol = solve_layered_scene(op, GmresConfig(tol=1e-12), boundary=boundary,
                              mode_densities=dens_modes)
    u = eval_total_field(sol, probes)
    rel = np.abs(u - u_ref).max() / np.abs(u_ref).max()
    _report(4, "monolithic two-particle oracle",
            [("field agreement", rel, 1e-6)],
            time.perf_counter() - t0, 300.0)


# ---------------------------------------------------------------------------
# 5. Direct vs NUFFT coupling on the bundled example scene
# ---------------------------------------------------------------------------

def test_criterion_5_direct_vs_nufft_example1():
    """On the bundled 100-particle scene the accelerated B (multipole to
    interface) and C (interface to local) couplings agree with the direct
    quadrature, coefficientwise and through a full solve.

    C-block coefficients are compared in the J-weighted metric (the
    coefficients as they enter boundary field values): the raw order-|n|
    coefficient is only observable down to noise / J_n(k2 R), so the
    unweighted high orders of ANY sample-based projection carry no
    information.
    """
    t0 = time.perf_counter()
    cfg = load_scene(SCENES / "example1.scene")
    bd = build_scene(replace(cfg, path="direct"))
    layers, contour, p = bd.layers, bd.contour, cfg.p
    centers = np.array([i.center for i in bd.instances])
    R = bd.smatrix.R

    sol_d = solve_layered_scene(bd.operator,
                                GmresConfig(tol=1e-10),
                                boundary=bd.boundary,
                                mode_densities=bd.mode_densities)
    dens = sol_d.densities

    # C block: interface field to incoming locals
    loc_d = sommerfeld_to_local_direct(dens, contour, layers, centers, p)
    cplan = SommerfeldGridPlan(contour, layers, centers, R, p, tol=1e-13)
    loc_n = sommerfeld_to_local_nufft(cplan, cplan.apply(dens))
    wj = np.abs(bessel_j(np.arange(-p, p + 1), layers.k2 * R + 0j))
    c_err = (np.abs(loc_d - loc_n) * wj[None, :]).max() \
        / (np.abs(loc_d) * wj[None, :]).max()

    # B block: physical multipole coefficients to interface updates
    betas = sol_d.betas
    upd_d = multipole_to_sommerfeld_direct(betas, centers, contour, layers)
    bplan = MultipoleToSommerfeldPlan(contour, layers, centers, p,
                                      tol=1e-13)
    upd_n = bplan.apply(betas)
    b_err = max(
        np.abs(upd_n.sigma_plus - upd_d.sigma_plus).max()
        / np.abs(upd_d.sigma_plus).max(),
        np.abs(upd_n.sigma_minus - upd_d.sigma_minus).max()
        / np.abs(upd_d.sigma_minus).max())

    # full solve through the accelerated path
    bn = build_scene(replace(cfg, path="nufft"))
    sol_n = solve_layered_scene(bn.operator,
                                GmresConfig(tol=1e-10),
                                boundary=bn.boundary,
                                mode_densities=bn.mode_densities)
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(-12, 12, 30), rng.uniform(-29, 3, 30)], -1)
    u_d = eval_total_field(sol_d, pts)
    u_n = eval_total_field(sol_n, pts)
    f_err = np.abs(u_d - u_n).max() / np.abs(u_d).max()

    _report(5, "direct vs NUFFT on example 1",
            [("C coefficients", c_err, 1e-8), ("B spectral update", b_err,
                                               1e-8),
             ("full-solve field", f_err, 1e-7)],
            time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# 6. NUFFT speedup at scale
# ---------------------------------------------------------------------------

def _best_of(fns, n=3):
    """Best-of-n time of each callable.  The callables run in turn inside
    each repetition, so a change in machine speed affects all of them
    alike."""
    for fn in fns:
        fn()                  # warm-up (also first-call caches)
    times = np.full((n, len(fns)), np.inf)
    for rep in range(n):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            times[rep, i] = time.perf_counter() - t0
    return times.min(axis=0)


def test_criterion_6_nufft_speedup():
    """At 5000 particles and a 500-node contour, the per-iteration apply of
    both accelerated couplings beats the direct quadrature by >= 1.5x
    (plans precomputed; apply-only timings, best of 3)."""
    region = (-14.0, 14.0, -30.0, -2.0)
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=2.0)
    # panel grading rounds the ~500-node default up slightly
    assert 500 <= len(contour) <= 550
    p, R = 10, 0.176
    insts = place_particles(region, 5000, R, seed=1)
    centers = np.array([i.center for i in insts])
    dens = InterfaceSolver(contour, layers).solve()
    rng = np.random.default_rng(0)
    decay = np.exp(-0.5 * np.abs(np.arange(-p, p + 1)))
    betas = (rng.standard_normal((5000, 2 * p + 1))
             + 1j * rng.standard_normal((5000, 2 * p + 1))) * decay[None, :]

    t0 = time.perf_counter()
    cplan = SommerfeldGridPlan(contour, layers, centers, R, p, tol=1e-8)
    bplan = MultipoleToSommerfeldPlan(contour, layers, centers, p, tol=1e-8)
    t_cd, t_cn, t_bd, t_bn = _best_of([
        lambda: sommerfeld_to_local_direct(dens, contour, layers, centers, p),
        lambda: sommerfeld_to_local_nufft(cplan, cplan.apply(dens)),
        lambda: multipole_to_sommerfeld_direct(betas, centers, contour,
                                               layers),
        lambda: bplan.apply(betas)])
    print(f"criterion 6 timings: C direct {t_cd:.3f}s nufft {t_cn:.3f}s, "
          f"B direct {t_bd:.3f}s nufft {t_bn:.3f}s", flush=True)
    # _report asserts value/bound <= 1; pass inverse speedups
    _report(6, "NUFFT apply speedup at M=5000",
            [("C 1.5/(speedup)", 1.5 * t_cn / t_cd, 1.0),
             ("B 1.5/(speedup)", 1.5 * t_bn / t_bd, 1.0)],
            time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# 7. 500-particle end-to-end solve
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_500():
    """500-particle version of the bundled scene: GMRES converges at 1e-6,
    the reconstructed total field is continuous across both interfaces and
    across particle boundaries to 1e-5, the iteration count grows
    monotonically with particle count, and the layered problem takes at
    least as many iterations as the homogeneous one."""
    cfg = load_scene(SCENES / "example1.scene")
    t0 = time.perf_counter()
    build, sol = solve_scene(replace(cfg, M=500))
    residual = sol.history[-1]

    # interface continuity (eps-offset pairs straddling each interface)
    eps = 1e-8
    xs = np.linspace(-12, 12, 25)
    iface_err = 0.0
    for yy in (0.0, -cfg.d):
        ua = eval_total_field(sol, np.stack([xs, np.full_like(xs, yy + eps)],
                                            -1))
        ub = eval_total_field(sol, np.stack([xs, np.full_like(xs, yy - eps)],
                                            -1))
        iface_err = max(iface_err, np.abs(ua - ub).max() / np.abs(ua).max())

    # particle-boundary continuity (interior vs exterior representation,
    # both extrapolated to the curve through 4 small standoffs)
    e0 = 0.002
    coef = np.array([4.0, -6.0, 4.0, -1.0])
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    shape = cfg.a1, cfg.a2, cfg.a3
    bdry_err = 0.0
    for inst in build.instances[:6]:
        ang = th + inst.rotation
        rho = shape[0] + shape[1] * np.cos(shape[2] * th)
        ua = np.zeros(th.size, dtype=complex)
        ub = np.zeros(th.size, dtype=complex)
        for i, w in enumerate(coef, start=1):
            for sgn, acc in ((1.0, ua), (-1.0, ub)):
                rr = rho + sgn * i * e0
                pts = np.stack([inst.center[0] + rr * np.cos(ang),
                                inst.center[1] + rr * np.sin(ang)], -1)
                acc += w * eval_total_field(sol, pts)
        bdry_err = max(bdry_err, np.abs(ua - ub).max() / np.abs(ua).max())
    elapsed = time.perf_counter() - t0

    # iteration growth with particle count, and vs the homogeneous problem
    _, s100 = solve_scene(replace(cfg, M=100))
    _, s1000 = solve_scene(replace(cfg, M=1000))
    it100, it500, it1000 = (len(s.history) for s in (s100, sol, s1000))
    inc = np.stack([point_source_local(build.layers.k2, build.layers.source,
                                       i.center, cfg.p).coeffs
                    for i in build.instances])
    _, hist_free = solve_free_space(build.operator.centers,
                                    build.operator.rotations, build.smatrix,
                                    inc, tol=cfg.tol)
    print(f"criterion 7 iterations: M=100 {it100}, M=500 {it500}, "
          f"M=1000 {it1000}, homogeneous M=500 {len(hist_free)}", flush=True)

    _report(7, "500-particle end-to-end",
            [("GMRES residual", residual, cfg.tol),
             ("interface continuity", iface_err, 1e-5),
             ("boundary continuity", bdry_err, 1e-5),
             ("iters M=100 <= M=500", float(it100), float(it500)),
             ("iters M=500 <= M=1000", float(it500), float(it1000)),
             ("iters homog <= layered", float(len(hist_free)), float(it500))],
            elapsed, 900.0)


# ---------------------------------------------------------------------------
# 8. Property suite
# ---------------------------------------------------------------------------

def test_criterion_8_property_suite(flower_smatrix):
    """Cross-cutting identities: Bessel Wronskian, NUFFT accuracy at the
    requested tolerance, M2L translation, scattering-matrix unitarity, and
    GMRES residual reporting."""
    t0 = time.perf_counter()
    checks = []

    # Wronskian  J_{n+1} Y_n - J_n Y_{n+1} = 2 / (pi x)
    x = np.geomspace(0.1, 50.0, 40)
    w_err = 0.0
    for n in range(9):
        w = bessel_j(n + 1, x) * bessel_y(n, x) \
            - bessel_j(n, x) * bessel_y(n + 1, x)
        w_err = max(w_err, np.abs(w * np.pi * x / 2 - 1).max())
    checks.append(("Wronskian", w_err, 1e-12))

    # NUFFT at the requested tolerance
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 2 * np.pi, 400)
    c = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    ks = np.arange(-32, 32)
    f = Nufft3Plan(pts, ks, tol=1e-12).apply(c)
    f_ref = np.exp(1j * np.outer(ks, pts)) @ c
    checks.append(("NUFFT", np.abs(f - f_ref).max() / np.abs(c).sum(), 1e-12))

    # M2L translation
    k = 3.0
    coeffs = (rng.standard_normal(21) + 1j * rng.standard_normal(21)) \
        * np.exp(-0.7 * np.abs(np.arange(-10, 11)))
    src = ExpansionVector(p=10, coeffs=coeffs, kind="H", center=(0.0, 0.0),
                          k=k)
    loc = m2l(src, (2.4, -1.9), 10)
    thv = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    ptsm = np.stack([2.4 + 0.25 * np.cos(thv), -1.9 + 0.25 * np.sin(thv)], -1)
    ref = eval_expansion(src, ptsm)
    checks.append(("M2L", np.abs(eval_expansion(loc, ptsm) - ref).max()
                   / np.abs(ref).max(), 1e-9))

    # unitarity of I + 2S for a lossless inclusion
    S, _ = flower_smatrix
    U = np.eye(21) + 2 * S.entries
    checks.append(("unitarity", np.linalg.norm(U.conj().T @ U - np.eye(21),
                                               2), 1e-6))

    # GMRES residual reporting
    A = 2 * np.eye(40) + 0.3 * (rng.standard_normal((40, 40))
                                + 1j * rng.standard_normal((40, 40)))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    xg, hist = gmres(lambda v: A @ v, b, tol=1e-9, restart=40)
    true_res = np.linalg.norm(A @ xg - b) / np.linalg.norm(b)
    checks.append(("GMRES residual", abs(true_res - hist[-1]), 1e-12))

    _report(8, "property suite", checks, time.perf_counter() - t0, 60.0)
