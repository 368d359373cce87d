"""Command-line interface.

Subcommands: ``precompute`` (build and cache the scattering matrix),
``solve`` (run the layered solve and persist the solution), ``eval``
(sample the total field on a grid and export it), and ``selftest``
(quick built-in correctness checks).
"""

import argparse
import logging
import os
import sys
import time
import zipfile
from dataclasses import replace

import numpy as np

from .layers import SpectralDensities
from .scene import (FieldGrid, build_scene, cache_entry_path, evaluate_grid,
                    load_field_grid, load_scene, precompute_scattering_matrix,
                    save_field_grid, solve_scene)
from .solver import GmresError, Solution, solve_layered_scene


def _load_config(args):
    """The scene with the command-line overrides; exits with a one-line
    message if either fails validation."""
    overrides = {name: getattr(args, name) for name in ("tol", "seed", "path")
                 if getattr(args, name) is not None}
    try:
        return replace(load_scene(args.scene), **overrides)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None


def _check_out_dir(path):
    """Exits with a one-line message naming ``path`` unless its directory
    exists and is writable; creates nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise SystemExit(f"cannot write {path}: directory {folder} is "
                         "missing or not writable")


def cmd_precompute(args):
    cfg = _load_config(args)
    t0 = time.perf_counter()
    S, boundary, _ = precompute_scattering_matrix(cfg)
    dt = time.perf_counter() - t0
    print(f"scattering matrix p={S.p} R={S.R:.6g} "
          f"(N={boundary.nodes.shape[0]} boundary nodes) in {dt:.2f}s")
    print(f"cached at {cache_entry_path(cfg)}")
    return 0


def cmd_solve(args):
    cfg = _load_config(args)
    if args.out:
        _check_out_dir(args.out)
    t0 = time.perf_counter()
    try:
        build, sol = solve_scene(cfg)
    except GmresError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        for i, r in enumerate(exc.history):
            print(f"  iter {i:4d}  residual {r:.6e}", file=sys.stderr)
        return 1
    dt = time.perf_counter() - t0
    print(f"solved M={cfg.M} in {len(sol.history)} iterations, "
          f"residual {sol.history[-1]:.3e}, {dt:.2f}s")
    if args.out:
        # an open file, so that numpy appends no ".npz" to the name
        with open(args.out, "wb") as fh:
            np.savez_compressed(
                fh, betas=sol.betas, alphas=sol.alphas,
                sigma=sol.densities.values, history=np.array(sol.history),
                fingerprint=np.frombuffer(sol.fingerprint, dtype=np.uint8))
        print(f"solution written to {args.out}")
    return 0


def _parse_pair(text, n, what, kind):
    """``n`` comma-separated values of type ``kind``; exits with one line
    naming the flag if there are more or fewer, or one does not parse."""
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise SystemExit(f"--{what} expects {n} comma-separated values")
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise SystemExit(f"--{what} expects {kind.__name__} values, "
                         f"got {text!r}") from None


def _read_solution(path, cfg):
    """The arrays of a ``solve --out`` file for this scene; exits with a
    one-line message naming the file if it is missing, unreadable or from
    another scene."""
    try:
        with np.load(path) as z:
            saved = {k: z[k] for k in ("betas", "alphas", "sigma", "history",
                                       "fingerprint")}
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:
        raise SystemExit(f"cannot read solution {path}: {exc}") from None
    if saved["fingerprint"].tobytes() != cfg.fingerprint():
        raise SystemExit(f"solution {path} was produced from a different "
                         "scene (fingerprint mismatch)")
    return saved


def _check_solution(path, saved, build):
    """Exits with one line naming the file unless betas and alphas are
    finite (M, 2p+1), sigma finite (N_S, 4) and history non-empty."""
    m = (build.config.M, 2 * build.config.p + 1)
    for name, shape in (("betas", m), ("alphas", m),
                        ("sigma", (len(build.contour), 4))):
        a = saved[name]
        if not (a.shape == shape and np.issubdtype(a.dtype, np.number)
                and np.isfinite(a).all()):
            raise SystemExit(f"solution {path}: {name} must be finite "
                             f"{shape}, got {a.dtype} {a.shape}")
    if saved["history"].ndim != 1 or not saved["history"].size:
        raise SystemExit(f"solution {path}: empty residual history")


def cmd_eval(args):
    cfg = _load_config(args)
    nx, ny = _parse_pair(args.grid, 2, "grid", int)
    if min(nx, ny) < 1:
        raise SystemExit(f"--grid expects counts of at least 1, got {nx},{ny}")
    extent = tuple(_parse_pair(args.extent, 4, "extent", float))
    if not np.isfinite(extent).all():
        raise SystemExit(f"--extent expects finite values, "
                         f"got {args.extent!r}")
    _check_out_dir(args.out)
    if args.solution:
        saved = _read_solution(args.solution, cfg)
        build = build_scene(cfg)
        _check_solution(args.solution, saved, build)
        sol = Solution(densities=SpectralDensities(values=saved["sigma"]),
                       betas=saved["betas"], alphas=saved["alphas"],
                       history=list(saved["history"]),
                       operator=build.operator, fingerprint=cfg.fingerprint(),
                       boundary=build.boundary,
                       mode_densities=build.mode_densities)
    else:
        build, sol = solve_scene(cfg)
    grid = evaluate_grid(sol, extent, nx, ny)
    save_field_grid(args.out, grid)
    dt = grid.metadata["timings"]["eval_seconds"]
    print(f"field grid {nx}x{ny} on {extent} evaluated in {dt:.2f}s")
    print(f"written to {args.out} (+ .json sidecar)")
    return 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def _check(name, value, bound, failures):
    ok = value <= bound
    print(f"  {'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
          f"(bound {bound:.0e})")
    if not ok:
        failures.append(name)


def _selftest_fast(failures):
    from .layers import (LayerStack, build_contour_adaptive,
                         sommerfeld_point_source)
    from .multiscat import m2l, ExpansionVector, eval_expansion
    from .particle import scattering_matrix_disk
    from .quadrature import gauss_legendre
    from .special import bessel_j, bessel_j_prime, bessel_y, hankel1
    from .solver import gmres
    from .nufft import Nufft3Plan

    # Wronskian of the Bessel pair
    x = np.linspace(0.3, 20.0, 40)
    err = 0.0
    for n in range(6):
        dyn = 0.5 * (bessel_y(n - 1, x) - bessel_y(n + 1, x)) if n else \
            -bessel_y(1, x)
        w = bessel_j(n, x) * dyn - bessel_j_prime(n, x) * bessel_y(n, x)
        err = max(err, np.abs(w - 2 / (np.pi * x)).max())
    _check("bessel wronskian", err, 1e-12, failures)

    # Gauss-Legendre exactness on a degree-17 polynomial
    nodes, weights = gauss_legendre(9, -1.0, 2.0)
    val = (weights * nodes ** 17).sum()
    exact = (2.0 ** 18 - 1.0) / 18
    _check("gauss-legendre degree-17", abs(val - exact) / abs(exact),
           1e-13, failures)

    # energy conservation of the lossless disk scattering matrix
    S = scattering_matrix_disk(0.5, 3.0, 2.0, 8)
    s = np.diag(S.entries)
    _check("disk S energy conservation",
           np.abs(np.abs(1 + 2 * s) - 1).max(), 1e-6, failures)

    # M2L translation against direct Hankel evaluation
    k = 3.0
    src = ExpansionVector(p=6, coeffs=np.exp(-np.abs(np.arange(-6, 7))) + 0j,
                          kind="H", center=(0.0, 0.0), k=k)
    loc = m2l(src, (3.0, 1.0), 8)
    pts = np.array([[3.2, 1.1], [2.9, 0.8]])
    _check("m2l translation",
           np.abs(eval_expansion(loc, pts)
                  - eval_expansion(src, pts)).max(), 1e-9, failures)

    # GMRES on a small dense system
    rng = np.random.default_rng(0)
    A = np.eye(40) * 3 + 0.3 * (rng.standard_normal((40, 40))
                                + 1j * rng.standard_normal((40, 40)))
    b = rng.standard_normal(40) + 0j
    x, hist = gmres(lambda v: A @ v, b, tol=1e-12, restart=40)
    _check("gmres dense residual",
           np.linalg.norm(A @ x - b) / np.linalg.norm(b), 1e-11, failures)

    # type-3 NUFFT against the direct sum
    s = rng.uniform(-30, 30, 200)
    t = rng.uniform(-2, 2, 50)
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    direct = np.exp(1j * np.outer(t, s)) @ c
    _check("nufft type-3",
           np.abs(Nufft3Plan(s, t).apply(c) - direct).max()
           / np.abs(direct).max(),
           1e-11, failures)

    # contour sum of the point source against (i/4) H0(k r), 0.5 or more
    # from the source, at scattered points (row dots) and on a grid (tensor)
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=32.0, source=(1.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=1.0,
                                     max_horiz=12.0)
    x0, y0 = layers.source
    scattered = np.stack([x0 + rng.uniform(-3, 3, 6),
                          y0 + rng.choice([-1.0, 1.0], 6)
                          * rng.uniform(0.5, 2.0, 6)], -1)
    X, Y = np.meshgrid(x0 + np.linspace(-3, 3, 7),
                       y0 + np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
    err = 0.0
    for pts in (scattered, np.stack([X.ravel(), Y.ravel()], -1)):
        ref = 0.25j * hankel1(0, np.hypot(pts[:, 0] - x0, pts[:, 1] - y0)
                              + 0j)
        got = sommerfeld_point_source(contour, 1.0, (x0, y0), pts)
        err = max(err, np.abs(got - ref).max() / np.abs(ref).max())
    _check("sommerfeld point source", err, 1e-8, failures)

    # field-grid round trip (bitwise)
    import tempfile, os
    vals = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    g = FieldGrid(x0=-1.0, x1=2.0, y0=-3.0, y1=-1.0, nx=5, ny=7, values=vals,
                  metadata={"fingerprint": "00", "residual": 0.0})
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "g.lsfg")
        save_field_grid(p, g)
        g2 = load_field_grid(p)
    _check("field-grid round trip",
           float(np.abs(g2.values - vals).max()), 0.0, failures)


def _selftest_full(failures):
    from .scene import SceneConfig, check_placement
    cfg = SceneConfig(k1=1.0, k2=3.0, k3=1.0, d=32.0, source_x=1.0,
                      source_y=1.0, a1=0.12, a2=0.04, a3=3, kp=2.0, M=3,
                      region_x0=-4.0, region_x1=4.0, region_y0=-20.0,
                      region_y1=-12.0, seed=3, tol=1e-8)
    build, sol = solve_scene(cfg, use_cache=False)
    check_placement(build.instances, build.smatrix.R)
    _check("layered solve residual", sol.history[-1], cfg.tol, failures)
    from .solver import eval_total_field
    xs = np.linspace(-5, 5, 9)
    eps = 1e-8
    for yy, tag in ((0.0, "y=0"), (-cfg.d, "y=-d")):
        ua = eval_total_field(sol, np.stack([xs, np.full_like(xs, yy + eps)],
                                            -1))
        ub = eval_total_field(sol, np.stack([xs, np.full_like(xs, yy - eps)],
                                            -1))
        _check(f"interface continuity {tag}",
               np.abs(ua - ub).max() / np.abs(ua).max(), 1e-5, failures)


def cmd_selftest(args):
    failures = []
    t0 = time.perf_counter()
    print("fast checks:")
    _selftest_fast(failures)
    if args.level == "full":
        print("full checks:")
        _selftest_full(failures)
    dt = time.perf_counter() - t0
    if failures:
        print(f"selftest FAILED ({len(failures)} checks) in {dt:.1f}s: "
              f"{', '.join(failures)}")
        return 1
    print(f"selftest passed in {dt:.1f}s")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="layerscatter",
        description="Multiple scattering from inclusions in a layered medium")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True,
                       help="scene configuration file")
        p.add_argument("--tol", type=float, help="override GMRES tolerance")
        p.add_argument("--seed", type=int, help="override placement seed")
        p.add_argument("--path", choices=("auto", "direct", "nufft"),
                       help="coupling path selection")

    p = sub.add_parser("precompute",
                       help="build and cache the scattering matrix")
    common(p)
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("solve", help="run the layered multiple-scattering "
                       "solve")
    common(p)
    p.add_argument("--out", help="write the solution (.npz)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate the total field on a grid")
    common(p)
    p.add_argument("--solution", help="solution file from 'solve' "
                   "(otherwise solves in-memory)")
    p.add_argument("--grid", required=True, help="nx,ny sample counts")
    p.add_argument("--extent", required=True, help="x0,x1,y0,y1")
    p.add_argument("--out", required=True, help="output field grid file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run built-in correctness checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_selftest)

    args = ap.parse_args(argv)
    # library notices (cache rebuilds) go to stderr
    logging.basicConfig(format="layerscatter: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
