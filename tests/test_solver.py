import gc
import logging
import multiprocessing
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from layerscatter.layers import LayerStack, build_contour_adaptive, \
    sommerfeld_point_source
from layerscatter.multiscat import ParticleInstance, apply_rotated, \
    order0_block, point_source_local, solve_free_space, eval_multipole_field
from layerscatter.particle import discretize_boundary, scattering_matrix_disk
from layerscatter.scene import build_scene, load_scene, solve_scene
from layerscatter import layers as layers_mod, multiscat as multiscat_mod, \
    particle as particle_mod, solver as solver_mod
from layerscatter.solver import (GmresConfig, GmresError, SchurOperator,
                                 eval_total_field, gmres, solve_layered_scene)


# ---------------------------------------------------------------------------
# GMRES unit tests
# ---------------------------------------------------------------------------

def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 9.0) + 0j
    x, hist = gmres(lambda v: v, b, tol=1e-12)
    assert np.abs(x - b).max() <= 1e-13
    assert len(hist) <= 1


def test_gmres_dense_system():
    rng = np.random.default_rng(0)
    A = 3 * np.eye(50) + 0.4 * (rng.standard_normal((50, 50))
                                + 1j * rng.standard_normal((50, 50)))
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x, hist = gmres(lambda v: A @ v, b, tol=1e-13, restart=50)
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_gmres_finite_termination_few_eigenvalues():
    """A diagonalizable operator with 5 distinct eigenvalues converges in
    at most 5 iterations."""
    rng = np.random.default_rng(1)
    eigs = np.array([1.0, 2.0, 3.0, 1.5j + 1, 2 - 0.5j])
    D = np.diag(eigs[rng.integers(0, 5, 60)])
    b = rng.standard_normal(60) + 0j
    x, hist = gmres(lambda v: D @ v, b, tol=1e-12)
    assert len(hist) <= 5
    assert np.linalg.norm(D @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_gmres_restart_converges():
    rng = np.random.default_rng(2)
    A = 3 * np.eye(80) + 0.25 * rng.standard_normal((80, 80))
    b = rng.standard_normal(80) + 0j
    x, hist = gmres(lambda v: A @ v, b, tol=1e-10, restart=10, maxiter=400)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_gmres_iteration_cap_raises():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal(40) + 0j
    with pytest.raises(GmresError) as info:
        gmres(lambda v: A @ v, b, tol=1e-14, maxiter=3, restart=3)
    assert len(info.value.history) >= 1


@pytest.mark.parametrize("op, b, match", [
    (lambda v: np.array([1.0, 0.0]) * v, [0.0, 1.0], "broke down"),
    (lambda v: np.array([1.0, 0.0]) * v, [1.0, 1.0], "broke down"),
    (lambda v: np.roll(v, 1), np.eye(20)[0], "stagnated")],
    ids=["singular-b-in-kernel", "singular-b-off-range", "cyclic-shift"])
def test_gmres_failure_raises_gmres_error(op, b, match):
    """A breakdown (A = diag(1, 0), b outside its range: a singular
    Hessenberg matrix) and a stagnation (a cyclic shift of length 20,
    restarted every 5 steps) raise GmresError with the history so far."""
    with pytest.raises(GmresError, match=match) as info:
        gmres(op, np.asarray(b, dtype=complex), restart=5)
    assert len(info.value.history) >= 1


@pytest.mark.parametrize("bad", [dict(maxiter=0), dict(restart=0),
                                 dict(tol=0.0)])
def test_gmres_rejects_bad_settings(bad):
    """Settings GMRES cannot honour are rejected before the first apply."""
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(3, dtype=complex), **bad)


def test_gmres_history_matches_recomputed_residuals():
    """The reported residual history agrees with directly recomputed
    residuals of the iterates (checked at the final iterate to 1e-12)."""
    rng = np.random.default_rng(4)
    A = 2 * np.eye(30) + 0.3 * (rng.standard_normal((30, 30))
                                + 1j * rng.standard_normal((30, 30)))
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x, hist = gmres(lambda v: A @ v, b, tol=1e-9, restart=30)
    true_res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert abs(true_res - hist[-1]) <= 1e-12


def test_gmres_operator_may_reuse_output_buffer():
    """An operator that returns the same (overwritten) buffer every call
    must not corrupt the Krylov recurrence."""
    rng = np.random.default_rng(5)
    A = 2 * np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    buf = np.empty(12, dtype=complex)

    def op(v):
        buf[:] = A @ v
        return buf

    b = rng.standard_normal(12) + 0j
    x, _ = gmres(op, b, tol=1e-12)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# Layered Schur solve
# ---------------------------------------------------------------------------

CENTS = [(-1.0, -16.0), (0.8, -15.4), (0.2, -17.1)]
ROTS = [0.0, 0.7, -1.3]


def _operator(contour, layers, smat, rots=ROTS, cents=CENTS, **kw):
    insts = [ParticleInstance(center=c, rotation=r, R=smat.R)
             for c, r in zip(cents, rots)]
    return SchurOperator(contour, layers, insts, smat, **kw)


def test_equal_wavenumbers_reduce_to_free_space(flower_boundary):
    """k1 = k2 = k3: the layered solve must reproduce the free-space
    multiple-scattering solution in coefficients and fields."""
    from layerscatter.particle import scattering_matrix_nystrom
    k = 3.0
    layers = LayerStack(k1=k, k2=k, k3=k, d=32.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=10.0)
    smat, dens_modes = scattering_matrix_nystrom(flower_boundary, k, 2.0, 10)
    op = _operator(contour, layers, smat)
    sol = solve_layered_scene(op, GmresConfig(tol=1e-10),
                              boundary=flower_boundary,
                              mode_densities=dens_modes)
    p = smat.p
    inc = np.stack([point_source_local(k, layers.source, c, p).coeffs
                    for c in CENTS])
    bet_fs, _ = solve_free_space(op.centers, op.rotations, smat, inc,
                                 tol=1e-10)
    assert np.abs(sol.betas - bet_fs).max() <= 1e-12 * np.abs(bet_fs).max()

    pts = np.array([[4.0, -12.0], [-5.0, -20.0], [0.0, -14.0], [2.5, -18.0]])
    u_lay = eval_total_field(sol, pts)
    u_fs = (sommerfeld_point_source(contour, k, layers.source, pts)
            + eval_multipole_field(bet_fs, op.centers, op.R, k, pts))
    assert np.abs(u_lay - u_fs).max() <= 1e-12 * np.abs(u_fs).max()


@pytest.fixture(scope="module")
def layered_solution(contour131, layers131, flower_boundary, flower_smatrix):
    smat, dens_modes = flower_smatrix
    op = _operator(contour131, layers131, smat)
    return solve_layered_scene(op, GmresConfig(tol=1e-10),
                               boundary=flower_boundary,
                               mode_densities=dens_modes)


def test_layered_solve_converges(layered_solution):
    assert layered_solution.history[-1] <= 1e-10
    assert len(layered_solution.history) <= 25


def test_interface_continuity(layered_solution):
    """Total field continuity across both interfaces (eps = 1e-8 one-sided
    offsets; the smooth-field slope contributes ~2 eps |du/dy|)."""
    xs = np.linspace(-6, 6, 13)
    eps = 1e-8
    for yy in (0.0, -32.0):
        above = np.stack([xs, np.full_like(xs, yy + eps)], -1)
        below = np.stack([xs, np.full_like(xs, yy - eps)], -1)
        ua = eval_total_field(layered_solution, above)
        ub = eval_total_field(layered_solution, below)
        assert np.abs(ua - ub).max() / np.abs(ua).max() <= 1e-6


def test_particle_boundary_continuity(layered_solution, flower_params):
    """Interior/exterior representations agree on the inclusion boundary.

    Both sides are extrapolated to the boundary from a small standoff
    (cubic extrapolation through 4 offsets) since the layer potentials use
    plain quadrature that loses accuracy within ~1e-3 of the boundary.
    """
    e0 = 0.002
    coef = np.array([4.0, -6.0, 4.0, -1.0])
    th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    rho = flower_params.a1 + flower_params.a2 * np.cos(flower_params.a3 * th)
    for idx, (c, rot) in enumerate(zip(CENTS, ROTS)):
        ang = th + rot
        ua = np.zeros(th.size, dtype=complex)
        ub = np.zeros(th.size, dtype=complex)
        for i, w in enumerate(coef, start=1):
            d = i * e0
            pa = np.stack([c[0] + (rho + d) * np.cos(ang),
                           c[1] + (rho + d) * np.sin(ang)], -1)
            pb = np.stack([c[0] + (rho - d) * np.cos(ang),
                           c[1] + (rho - d) * np.sin(ang)], -1)
            ua += w * eval_total_field(layered_solution, pa)
            ub += w * eval_total_field(layered_solution, pb)
        err = np.abs(ua - ub).max() / np.abs(ua).max()
        assert err <= 1e-5, f"instance {idx}: boundary jump {err:.3e}"


def test_enclosing_circle_continuity(layered_solution, flower_smatrix):
    """Multipole (outside) vs local+potential (annulus) representations on
    the enclosing circle agree to the p-truncation floor of the outgoing
    expansion at r = R."""
    S, _ = flower_smatrix
    th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    for c in CENTS:
        pa = np.stack([c[0] + (S.R + 1e-8) * np.cos(th),
                       c[1] + (S.R + 1e-8) * np.sin(th)], -1)
        pb = np.stack([c[0] + (S.R - 1e-8) * np.cos(th),
                       c[1] + (S.R - 1e-8) * np.sin(th)], -1)
        ua = eval_total_field(layered_solution, pa)
        ub = eval_total_field(layered_solution, pb)
        assert np.abs(ua - ub).max() / np.abs(ua).max() <= 1e-5


def test_solution_field_deterministic(layered_solution, contour131, layers131,
                                      flower_boundary, flower_smatrix):
    smat, dens_modes = flower_smatrix
    op = _operator(contour131, layers131, smat)
    sol2 = solve_layered_scene(op, GmresConfig(tol=1e-10),
                               boundary=flower_boundary,
                               mode_densities=dens_modes)
    assert np.array_equal(sol2.betas, layered_solution.betas)


@pytest.mark.parametrize("point", [(np.nan, 2.0), (0.0, np.nan),
                                   (np.inf, -10.0), (0.0, -np.inf)])
def test_eval_rejects_non_finite_points(layered_solution, point):
    """A non-finite evaluation point, in any layer, raises one ValueError
    instead of a NaN value or an unrelated error."""
    pts = np.array([[0.5, -5.0], point])
    with pytest.raises(ValueError, match="finite"):
        eval_total_field(layered_solution, pts)


def test_empty_scene_is_interface_only(contour131, layers131):
    op = SchurOperator(contour131, layers131, [],
                       scattering_matrix_disk(0.1, 3.0, 2.0, 10))
    sol = solve_layered_scene(op)
    assert sol.betas.shape == (0, 21)
    pts = np.array([[0.5, -5.0], [2.0, 3.0]])
    u = eval_total_field(sol, pts)
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("workers", [1, 3])
def test_disk_field_chunks_match_pointwise(layered_solution, flower_params,
                                          monkeypatch, workers):
    """In-disk evaluation in blocks of a few points agrees with one point at
    a time, for points inside the inclusions and in the annuli of all three
    (differently rotated) instances.  The 30 points go in blocks of 13 (of
    4 per thread on 3 threads), so that partial blocks occur, and on
    ``workers`` threads they agree with one thread to 1e-15."""
    R = layered_solution.operator.R
    th = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    rho = flower_params.a1 + flower_params.a2 * np.cos(flower_params.a3 * th)
    pts = np.concatenate([
        np.stack([c[0] + f * np.cos(th + rot), c[1] + f * np.sin(th + rot)],
                 -1)
        for c, rot in zip(CENTS, ROTS) for f in (0.6 * rho, (rho + R) / 2)])
    N2 = solver_mod.UPSAMPLE * flower_params.N
    monkeypatch.setattr(solver_mod, "DISK_CHUNK_ELEMENTS", 13 * N2 + 1)
    monkeypatch.setattr(layers_mod, "usable_cores", lambda: workers)
    got = eval_total_field(layered_solution, pts)
    monkeypatch.setattr(layers_mod, "usable_cores", lambda: 1)
    one = eval_total_field(layered_solution, pts)
    monkeypatch.undo()
    ref = np.array([eval_total_field(layered_solution, q) for q in pts])
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(got - one).max() <= 1e-15 * np.abs(one).max()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_disk_block_error_reaches_caller(flower_params, monkeypatch):
    """A target exactly on an upsampled boundary node makes hankel1_01 raise
    its ValueError inside one of several blocks on 3 threads: the caller
    gets that error, within 60 s, and no thread is left behind."""
    fine = discretize_boundary(replace(flower_params,
                                       N=solver_mod.UPSAMPLE * flower_params.N))
    n, modes = len(fine.nodes), np.ones((len(fine.nodes), 3), dtype=complex)
    targets = np.concatenate([0.5 * fine.nodes[:20], fine.nodes[7:8],
                              0.5 * fine.nodes[20:40]])
    monkeypatch.setattr(solver_mod, "DISK_CHUNK_ELEMENTS", 4 * n)
    monkeypatch.setattr(layers_mod, "usable_cores", lambda: 3)
    before = threading.active_count()
    caught = []

    def call():
        try:
            solver_mod._layer_potentials(3.0, fine.nodes, fine.normals,
                                         fine.h * fine.speed, modes, modes,
                                         targets)
        except ValueError as exc:
            caught.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "blocked on a failed block"
    assert len(caught) == 1 and "z = 0" in str(caught[0])
    assert threading.active_count() == before


def _eval_in_child(solution, pts, conn):
    conn.send(eval_total_field(solution, pts))
    conn.close()


def test_eval_in_forked_child(layered_solution, flower_params, monkeypatch):
    """After the parent has evaluated scattered layered and in-disk points
    on 3 threads, a forked child evaluates the same points, within 60 s, to
    the same values: no thread pool outlives a call, so the child waits on
    none.  The call leaves the parent's thread count as it found it."""
    rng = np.random.default_rng(7)
    th = rng.uniform(0.0, 2 * np.pi, 6)
    pts = np.concatenate([
        np.stack([rng.uniform(-6.0, 6.0, 12), rng.uniform(-40.0, 2.0, 12)],
                 -1),
        np.array(CENTS)[[0, 1, 2, 0, 1, 2]]
        + 0.1 * np.stack([np.cos(th), np.sin(th)], -1)])
    monkeypatch.setattr(layers_mod, "CHUNK_ELEMENTS",
                        5 * len(layered_solution.operator.contour))
    monkeypatch.setattr(solver_mod, "DISK_CHUNK_ELEMENTS",
                        2 * solver_mod.UPSAMPLE * flower_params.N)
    monkeypatch.setattr(layers_mod, "usable_cores", lambda: 3)
    before = threading.active_count()
    parent = eval_total_field(layered_solution, pts)
    assert threading.active_count() == before
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_eval_in_child,
                        args=(layered_solution, pts, send))
    child.start()
    send.close()
    got = recv.recv() if recv.poll(60) else None
    child.join(60)
    if child.is_alive():
        child.kill()
    assert got is not None, "forked child did not evaluate within 60 s"
    assert child.exitcode == 0
    assert np.array_equal(got, parent)


EXAMPLE1 = Path(__file__).resolve().parents[1] / "scenes" / "example1.scene"


def test_field_evaluation_logged(layered_solution, monkeypatch, caplog):
    """eval_total_field's debug line counts the points per region, names
    each layer's sum (the tensor product on a grid, the row dots on
    scattered points) and the most threads the row dots and the in-disk
    potentials use, one per usable core.  With debug logging off it computes
    nothing for the line."""
    X, Y = np.meshgrid(np.linspace(-6.0, 6.0, 7),
                       [2.0, 0.5, -5.0, -10.0, -36.0, -40.0])
    grid = np.concatenate([np.stack([X.ravel(), Y.ravel()], -1), [CENTS[0]]])
    rng = np.random.default_rng(5)
    scattered = np.stack([rng.uniform(-6.0, 6.0, 9),
                          np.repeat([1.5, -20.0, -38.0], 3)
                          + rng.uniform(-0.5, 0.5, 9)], -1)
    with caplog.at_level(logging.DEBUG, logger="layerscatter"):
        eval_total_field(layered_solution, grid)
        eval_total_field(layered_solution, scattered)
    threads = (f"; row dots and in-disk potentials on up to "
               f"{layers_mod.usable_cores()} threads")
    assert [r.getMessage() for r in caplog.records] == [
        "field at 14 top, 14 bottom, 14 free middle and 1 in-disk points; "
        "layered sums: top tensor, middle tensor, bottom tensor" + threads,
        "multipole field at 14 points from 3 instances: per instance",
        "field at 3 top, 3 bottom, 3 free middle and 0 in-disk points; "
        "layered sums: top rows, middle rows, bottom rows" + threads,
        "multipole field at 3 points from 3 instances: per instance"]

    def fail(*args):
        raise AssertionError("debug line built with debug logging off")

    caplog.clear()
    monkeypatch.setattr(solver_mod, "layered_sum_paths", fail)
    with caplog.at_level(logging.INFO, logger="layerscatter"):
        eval_total_field(layered_solution, grid)
    assert not caplog.records


def test_hot_hankel_calls_skip_amos(tmp_path, monkeypatch):
    """example1 at M = 4, solved and evaluated at free middle-layer,
    annulus and interior points: H_0 and H_1 of its real wavenumbers never
    reach AMOS (scipy.special.hankel1) through ``_polar_hankel``,
    ``_layer_potentials`` or the Nystrom kernels, so a change of dtype
    cannot silently fall back to it."""
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path))
    hot = {"_polar_hankel", "_layer_potentials", "_difference_kernels"}
    amos, seen, leaks = scipy.special.hankel1, set(), []

    def counting(n, z):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in hot:
                leaks.append(frame.f_code.co_name)
            frame = frame.f_back
        return amos(n, z)

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            seen.add(name)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    monkeypatch.setattr(scipy.special, "hankel1", counting)
    spy(multiscat_mod, "_polar_hankel")
    spy(solver_mod, "_layer_potentials")
    spy(particle_mod, "_difference_kernels")
    _, sol = solve_scene(replace(load_scene(EXAMPLE1), M=4))
    cx, cy = sol.operator.centers[0]
    pts = np.array([[cx, cy], [cx + 0.17, cy], [0.0, -1.0], [3.0, -31.0]])
    assert np.isfinite(eval_total_field(sol, pts)).all()
    assert seen == hot
    assert not leaks


def test_operator_rejects_foreign_wavenumber(contour131, layers131):
    """The prototype matrix must be built for the middle layer's k2."""
    with pytest.raises(ValueError):
        SchurOperator(contour131, layers131, [],
                      scattering_matrix_disk(0.1, 2.5, 2.0, 10))


def test_use_nufft_paths_agree(contour131, layers131, flower_boundary,
                               flower_smatrix):
    smat, dens_modes = flower_smatrix
    op_d = _operator(contour131, layers131, smat, use_nufft=False)
    op_n = _operator(contour131, layers131, smat, use_nufft=True)
    sol_d = solve_layered_scene(op_d, GmresConfig(tol=1e-10))
    sol_n = solve_layered_scene(op_n, GmresConfig(tol=1e-10))
    assert np.abs(sol_d.betas - sol_n.betas).max() <= \
        1e-8 * np.abs(sol_d.betas).max()


BAND600 = Path(__file__).resolve().parents[1] / "perfbench" / "scenes" \
    / "band600.scene"


def test_nufft_path_agrees_on_band600(tmp_path, monkeypatch):
    """The NUFFT path solved end to end on production geometry: band600's
    thin band at M = 40 (N_S = 5052) against the table path, GMRES tol
    1e-10.  The betas, and the field at 60 points in all three layers,
    agree to 1e-8."""
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path))
    cfg = replace(load_scene(BAND600), M=40, tol=1e-10)
    sol_d, sol_n = (solve_scene(replace(cfg, path=path))[1]
                    for path in ("direct", "nufft"))
    assert sol_n.operator.use_nufft and not sol_d.operator.use_nufft
    assert len(sol_n.operator.contour) == 5052
    assert np.abs(sol_d.betas - sol_n.betas).max() <= \
        1e-8 * np.abs(sol_d.betas).max()
    rng = np.random.default_rng(0)
    y = np.concatenate([rng.uniform(0.0, 2.0, 20),
                        rng.uniform(-cfg.d, 0.0, 20),
                        rng.uniform(-cfg.d - 2.0, -cfg.d, 20)])
    pts = np.stack([rng.uniform(cfg.region_x0, cfg.region_x1, 60), y], -1)
    u_d = eval_total_field(sol_d, pts)
    u_n = eval_total_field(sol_n, pts)
    assert np.abs(u_d - u_n).max() <= 1e-8 * np.abs(u_d).max()


# tracemalloc peak of the in-disk field at band600's 500 in-disk probes
# (its 300-node boundary upsampled 8x, p = 10): the upsampled densities and,
# per block in flight, 13 targets x 2,400 nodes of distances, cosines and
# Hankel values read 6.8 MB with all blocks in one loop and 5.9-6.1 MB on 1
# to 4 threads, each thread's blocks a share of DISK_CHUNK_ELEMENTS
DISK_PEAK_BOUND = 8 * 2 ** 20


def test_disk_field_memory_bound_band600(tmp_path, monkeypatch):
    """500 probes in the enclosing disks of band600's inclusions (M = 4),
    alternately inside the inclusion and in the annulus, evaluated on 1 and
    on 3 threads: the in-disk field stays under DISK_PEAK_BOUND."""
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path))
    cfg = replace(load_scene(BAND600), M=4)
    _, sol = solve_scene(cfg)
    op = sol.operator
    rng = np.random.default_rng(1)
    owner = np.arange(500) % op.M
    ang = rng.uniform(0.0, 2 * np.pi, 500)
    rho = cfg.a1 + cfg.a2 * np.cos(cfg.a3 * (ang - op.rotations[owner]))
    r = np.where(np.arange(500) % 2, (rho + op.R) / 2, 0.5 * rho)
    pts = op.centers[owner] + r[:, None] * np.stack([np.cos(ang),
                                                     np.sin(ang)], -1)
    for workers in (1, 3):
        monkeypatch.setattr(layers_mod, "usable_cores", lambda: workers)
        tracemalloc.start()
        try:
            vals = solver_mod._disk_field(sol, pts, owner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(vals).all()
        assert peak < DISK_PEAK_BOUND, f"peak {peak / 2 ** 20:.1f} MB"


def _assert_preconditioned_matches_oracle(op, tol, pts):
    """solve_layered_scene (right-preconditioned by the coarse block)
    against unpreconditioned GMRES on op.apply: betas and field within
    10 tol, the recomputed residual within tol, no more iterations."""
    b = op.rhs()
    x, hist = gmres(op.apply, b, tol=tol)
    sol = solve_layered_scene(op, GmresConfig(tol=tol))
    assert np.abs(sol.betas.ravel() - x).max() <= 10 * tol * np.abs(x).max()
    res = np.linalg.norm(b - op.apply(sol.betas.ravel())) / np.linalg.norm(b)
    assert res <= tol and abs(res - sol.history[-1]) <= 1e-3 * tol
    assert len(sol.history) <= len(hist)
    oracle = replace(sol, betas=x.reshape(sol.betas.shape))
    oracle.densities = op.recover_densities(oracle.betas)
    oracle.alphas = op.incoming_locals(oracle.densities, oracle.betas)
    u, u_oracle = eval_total_field(sol, pts), eval_total_field(oracle, pts)
    assert np.abs(u - u_oracle).max() <= 10 * tol * np.abs(u_oracle).max()


def test_preconditioned_solve_matches_oracle(contour131, layers131,
                                             flower_smatrix):
    """The flower fixture at 24 inclusions, GMRES tol 1e-8."""
    smat, _ = flower_smatrix
    cents = [(-6.0 + 0.9 * (i % 8), -4.0 - 9.0 * (i // 8)) for i in range(24)]
    op = _operator(contour131, layers131, smat, rots=np.linspace(0, 3, 24),
                   cents=cents)
    pts = np.array([[4.0, 1.0], [-5.0, -30.0], [0.5, -12.5], [2.5, -40.0]])
    _assert_preconditioned_matches_oracle(op, 1e-8, pts)


@pytest.mark.parametrize("path", ["direct", "nufft"])
def test_preconditioned_solve_matches_oracle_on_band600(path, tmp_path,
                                                        monkeypatch):
    """band600 at M = 40 on the table and on the NUFFT path, GMRES tol
    1e-8: B sees P(v), which differs from v only in order 0, so the NUFFT
    B plan's range-of-S accuracy is kept."""
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path))
    cfg = replace(load_scene(BAND600), M=40, path=path)
    op = build_scene(cfg).operator
    assert op.use_nufft == (path == "nufft")
    rng = np.random.default_rng(2)
    y = np.concatenate([rng.uniform(0.0, 2.0, 10),
                        rng.uniform(-cfg.d - 2.0, -cfg.d, 10)])
    pts = np.stack([rng.uniform(cfg.region_x0, cfg.region_x1, 20), y], -1)
    _assert_preconditioned_matches_oracle(op, 1e-8, pts)


def test_box_m2l_solve_agrees_on_band600(tmp_path, monkeypatch):
    """band600 at M = 190 solved with the box M2L (forced below
    BOX_CROSSOVER) and with the dense one, GMRES tol 1e-10: the betas, and
    the field at 60 points in all three layers, agree to 1e-9."""
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path))
    cfg = replace(load_scene(BAND600), M=190, tol=1e-10)
    sols = []
    for crossover in (cfg.M + 1, 0):
        monkeypatch.setattr(multiscat_mod, "BOX_CROSSOVER", crossover)
        sols.append(solve_scene(cfg)[1])
    sol_d, sol_b = sols
    assert sol_d.operator.pair.grid is None
    assert sol_b.operator.pair.grid is not None
    assert np.abs(sol_d.betas - sol_b.betas).max() <= \
        1e-9 * np.abs(sol_d.betas).max()
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.uniform(0.0, 2.0, 20),
                        rng.uniform(-cfg.d, 0.0, 20),
                        rng.uniform(-cfg.d - 2.0, -cfg.d, 20)])
    pts = np.stack([rng.uniform(cfg.region_x0, cfg.region_x1, 60), y], -1)
    u_d = eval_total_field(sol_d, pts)
    u_b = eval_total_field(sol_b, pts)
    assert np.abs(u_d - u_b).max() <= 1e-9 * np.abs(u_d).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_lu_solve_matches_numpy_solve(n):
    """The order-0 block's numpy-only LU, on matrices whose small diagonal
    forces row swaps, against np.linalg.solve, across the BLAS_BLOCK edges."""
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A[np.diag_indices(n)] *= 1e-3
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = A.copy()
    x = solver_mod._lu_solve(a, solver_mod._lu_factor(a), b)
    ref = np.linalg.solve(A, b)
    assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()


def test_coarse_block_assembly(contour131, layers131, flower_smatrix):
    """K on the operator's own contour: its free part is s00 times the dense
    PairCoupling's H_0 (zero diagonal), and its layered part is the order-0
    column of e_j - op.apply(e_j) less that of S_theta T e_j, to 1e-12, for
    an operator whose scattering matrix keeps only its order-0 entry s00
    (K is the Foldy-Lax monopole system)."""
    smat, _ = flower_smatrix
    rng = np.random.default_rng(3)
    cents = [tuple(c) for c in np.c_[rng.uniform(-8, 8, 12),
                                     rng.uniform(-30, -2, 12)]]
    rots = rng.uniform(0, 6, 12)
    op = _operator(contour131, layers131, smat, rots=rots, cents=cents)
    p, M = op.p, op.M
    entries = np.zeros_like(smat.entries)
    entries[p, p] = smat.entries[p, p]
    cut = replace(smat, entries=entries)
    op00 = _operator(contour131, layers131, cut, rots=rots, cents=cents)
    free = np.eye(M) - order0_block(op.centers, op.layers.k2,
                                    smat.entries[p, p])
    pair = multiscat_mod.PairCoupling(op.centers, op.layers.k2, p)
    assert pair.grid is None
    assert np.array_equal(free, smat.entries[p, p] * pair._pairs[2])
    layered = np.eye(M) - free - op.coarse_block(op.contour)
    for j in (0, 5, 11):
        e = np.zeros((M, 2 * p + 1), dtype=complex)
        e[j, p] = 1.0
        col = (e.ravel() - op00.apply(e.ravel())).reshape(M, -1)
        col -= apply_rotated(cut, op00.phases, pair.apply_m2l(e))
        assert np.abs(layered[:, j] - col[:, p]).max() <= \
            1e-12 * np.abs(col[:, p]).max()


def _coarse_scene(contour, layers, smat, rots):
    cents = np.c_[np.linspace(-8, 8, 12), np.linspace(-30, -2, 12)[::-1]]
    return _operator(contour, layers, smat, rots=rots,
                     cents=[tuple(c) for c in cents])


def test_coarse_block_is_symmetric(contour131, layers131, flower_smatrix):
    """K = I - s00 (H_0 + L) is complex symmetric, to 1e-13 of its largest
    off-diagonal entry: H_0 is, and L by reciprocity of the layers."""
    K = _coarse_scene(contour131, layers131, flower_smatrix[0],
                      np.linspace(0, 6, 12)).coarse_block()
    off = np.abs(K - np.diag(np.diag(K))).max()
    assert np.abs(K - K.T).max() <= 1e-13 * off


def test_coarse_block_ignores_rotations(contour131, layers131,
                                        flower_smatrix):
    """K depends on the centres only: two sets of rotations give the same
    K."""
    smat = flower_smatrix[0]
    rng = np.random.default_rng(4)
    K1, K2 = (_coarse_scene(contour131, layers131, smat,
                            rng.uniform(0, 2 * np.pi, 12)).coarse_block()
              for _ in range(2))
    assert np.array_equal(K1, K2)


def test_coarse_block_free_space_limit(flower_boundary):
    """With k1 = k2 = k3 the interfaces reflect nothing, so the layered
    solve's K is the free-space solve's ``order0_block``, to 1e-14."""
    from layerscatter.particle import scattering_matrix_nystrom
    k = 3.0
    layers = LayerStack(k1=k, k2=k, k3=k, d=32.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=10.0)
    smat, _ = scattering_matrix_nystrom(flower_boundary, k, 2.0, 10)
    op = _coarse_scene(contour, layers, smat, np.zeros(12))
    free = order0_block(op.centers, k, smat.entries[op.p, op.p])
    assert np.abs(op.coarse_block() - free).max() <= 1e-14


def test_coarse_block_built_before_plane_wave_table(
        contour131, layers131, flower_smatrix, monkeypatch):
    """``solve_layered_scene`` builds K, and so frees its 32 M N_c bytes of
    coarse plane-wave rows, before it constructs the plane-wave table of
    32 M N_S bytes."""
    calls = []
    coarse_block = SchurOperator.coarse_block
    table = solver_mod.PlaneWaveTable

    def spy_block(self, *args):
        calls.append("coarse block")
        return coarse_block(self, *args)

    def spy_table(*args):
        calls.append("plane-wave table")
        return table(*args)

    monkeypatch.setattr(SchurOperator, "coarse_block", spy_block)
    monkeypatch.setattr(solver_mod, "PlaneWaveTable", spy_table)
    solve_layered_scene(_operator(contour131, layers131, flower_smatrix[0]))
    assert calls == ["coarse block", "plane-wave table"]


def test_coarse_block_logged(contour131, layers131, flower_smatrix,
                             monkeypatch, caplog):
    """One debug line per solve: the coarse contour's N_S, K's bytes and the
    build time, or the skip when 16 M^2 passes TABLE_BUDGET."""
    smat, _ = flower_smatrix
    op = _operator(contour131, layers131, smat)
    with caplog.at_level(logging.DEBUG, logger="layerscatter"):
        solve_layered_scene(op)
        monkeypatch.setattr(solver_mod, "TABLE_BUDGET", 16 * 3 * 3 - 1)
        solve_layered_scene(op)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("coarse block")]
    assert len(lines) == 2
    assert re.fullmatch(r"coarse block: N_S \d+, 144 bytes, built in "
                        r"\d+\.\d{3} s", lines[0])
    assert lines[1] == ("coarse block skipped: 16 M^2 = 144 bytes over "
                        "TABLE_BUDGET 143")


def test_solve_releases_plane_wave_table(contour131, layers131,
                                         flower_smatrix, monkeypatch):
    """A solve builds the plane-wave table and drops it before returning:
    the table, and with it the memory map of its rows, is freed, the
    operator retains less heap than the table's 32 M N_S bytes, and a
    second solve on the same operator gives the same betas."""
    tables = []
    table = solver_mod.PlaneWaveTable

    def spy_table(*args):
        tables.append(table(*args))
        return tables[-1]

    monkeypatch.setattr(solver_mod, "PlaneWaveTable", spy_table)
    smat, _ = flower_smatrix
    cents = [(-3.0 + 0.5 * (i % 12), -16.0 + 0.5 * (i // 12))
             for i in range(24)]
    op = _operator(contour131, layers131, smat, rots=[0.3] * len(cents),
                   cents=cents)
    assert not op.use_nufft
    table_bytes = 32 * op.M * len(contour131)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = solve_layered_scene(op, GmresConfig(tol=1e-10))
        made = weakref.ref(tables.pop())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert made() is None
    assert retained - before < table_bytes / 4
    second = solve_layered_scene(op, GmresConfig(tol=1e-10))
    assert np.array_equal(second.betas, first.betas)


def test_auto_path_by_table_budget(contour131, layers131, flower_smatrix,
                                   monkeypatch, caplog):
    """``auto`` couples through the table while it fits TABLE_BUDGET and
    through the NUFFT plans above it, and logs the choice and its reason."""
    smat, _ = flower_smatrix
    table = f"plane-wave table {32 * 3 * len(contour131)} bytes"
    with caplog.at_level(logging.DEBUG, logger="layerscatter"):
        assert not _operator(contour131, layers131, smat).use_nufft
        monkeypatch.setattr(solver_mod, "TABLE_BUDGET", 1024)
        assert _operator(contour131, layers131, smat).use_nufft
        assert not _operator(contour131, layers131, smat,
                             use_nufft=False).use_nufft
    assert [r.getMessage() for r in caplog.records] == [
        f"coupling path table (auto): {table}, budget {2 ** 28}; M2L dense",
        f"coupling path nufft (auto): {table}, budget 1024; M2L dense",
        f"coupling path table (set): {table}, budget 1024; M2L dense"]


def test_m2l_form_logged(contour131, layers131, flower_smatrix, monkeypatch,
                         caplog):
    """The operator's debug line names the M2L form: dense below
    BOX_CROSSOVER, else the box grid, its width, the order P and the number
    of near pairs."""
    smat, _ = flower_smatrix
    cents = [(-12.0 + 0.5 * i, -16.0 + 0.3 * (i % 2)) for i in range(48)]
    monkeypatch.setattr(multiscat_mod, "BOX_CROSSOVER", 10)
    with caplog.at_level(logging.DEBUG, logger="layerscatter"):
        op = _operator(contour131, layers131, smat, rots=[0.3] * 48,
                       cents=cents)
    pair = op.pair
    assert pair.grid is not None and pair.near_pairs < 48 * 47
    assert caplog.records[-1].getMessage().endswith(
        f"; M2L boxes {pair.grid[0]}x{pair.grid[1]} of width "
        f"{pair.width:.3g}, P {pair.P}, {pair.near_pairs} near pairs")
