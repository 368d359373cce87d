"""Compute the stored reference field values of benchmark workloads.

usage: python3 perfbench/make_refs.py WORKLOAD [WORKLOAD ...]

For every one of the ``POOL`` input sets of a workload, solves the scene
with GMRES tolerance ``REF_GMRES_TOL`` and evaluates the total field at the
check points; writes ``perfbench/refs/<workload>.npz``.  Run from the root
of a checkout with ``src`` on ``PYTHONPATH``.  The worker compares its
default-tolerance field with these values (``checks.reference_checks``).
"""

import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from layerscatter import build_scene, eval_total_field, solve_layered_scene
from workloads import (POOL, REF_GMRES_TOL, REFS, WORKLOADS, check_indices,
                       eval_points, scene_config)


def reference(workload, seed):
    cfg = scene_config(workload, seed)
    build = build_scene(cfg)
    sol = solve_layered_scene(
        build.operator, replace(cfg, tol=REF_GMRES_TOL).gmres_config(),
        boundary=build.boundary, mode_densities=build.mode_densities)
    pts = eval_points(workload, seed, build.instances, cfg)
    pts = pts[check_indices(len(pts))]
    return pts, eval_total_field(sol, pts), len(sol.history)


def main(names):
    REFS.mkdir(exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix=".perfbench_refs", dir="."))
    os.environ["LAYERSCATTER_CACHE_DIR"] = str(cache)
    try:
        for name in names:
            rows = []
            for k in range(POOL):
                rows.append(reference(WORKLOADS[name], k))
                print(f"{name} input set {k}: {rows[-1][2]} GMRES iterations",
                      flush=True)
            np.savez(REFS / f"{name}.npz", pool=POOL,
                     ref_gmres_tol=REF_GMRES_TOL,
                     points=np.stack([r[0] for r in rows]),
                     values=np.stack([r[1] for r in rows]))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
