"""Full pipeline on the bundled 100-particle scene.

Loads scenes/example1.scene, precomputes (or reuses) the cached scattering
matrix, places the inclusions, runs the Schur-complement GMRES solve, and
exports the total field on a grid.  Then scales the same scene up and
shows how the iteration count grows with particle count while the
accelerated coupling keeps the per-iteration cost down.

Run:  python3 demos/03_scene_pipeline.py
"""
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from layerscatter import evaluate_grid, load_scene, save_field_grid, \
    solve_scene

SCENE = Path(__file__).resolve().parent.parent / "scenes" / "example1.scene"


def main():
    cfg = load_scene(SCENE)
    print(f"scene: k = ({cfg.k1:g}, {cfg.k2:g}, {cfg.k3:g}), d = {cfg.d:g}, "
          f"kp = {cfg.kp:g}, M = {cfg.M}, tol = {cfg.tol:g}")

    t0 = time.perf_counter()
    build, sol = solve_scene(cfg)
    print(f"M = {cfg.M:5d}: {len(sol.history):3d} iterations, residual "
          f"{sol.history[-1]:.1e}, NUFFT={build.operator.use_nufft}, "
          f"{time.perf_counter() - t0:.1f}s")

    grid = evaluate_grid(sol, (-14, 14, -36, 4), 140, 200)
    out = Path("example1_field.lsfg")
    save_field_grid(out, grid)
    print(f"field grid {grid.nx} x {grid.ny} written to {out} "
          f"(|u| in [{np.abs(grid.values).min():.2e}, "
          f"{np.abs(grid.values).max():.2e}])")

    # coarse ASCII picture of |u| (rows top to bottom)
    mag = np.abs(grid.values)[::-10, ::2]
    levels = " .:-=+*#%@"
    lo, hi = np.quantile(mag, [0.02, 0.98])
    idx = np.clip(((mag - lo) / (hi - lo) * (len(levels) - 1)).astype(int),
                  0, len(levels) - 1)
    print("\n".join("".join(levels[i] for i in row) for row in idx))

    for M in (500, 1000):
        t0 = time.perf_counter()
        build, sol = solve_scene(replace(cfg, M=M))
        print(f"M = {M:5d}: {len(sol.history):3d} iterations, residual "
              f"{sol.history[-1]:.1e}, NUFFT={build.operator.use_nufft}, "
              f"{time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
