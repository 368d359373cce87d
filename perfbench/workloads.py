"""Benchmark workloads and the inputs each one makes from its seed.

Every workload is a batch job with a single client in a closed loop: the
runner starts one fresh worker process after the previous one has finished,
and each worker does set-up, solve and field evaluation with the defaults a
user gets (``path = auto``, the adaptive contour, coupling tol 1e-13, GMRES
tol 1e-6).

The seed drives particle placement and the probe points; the library
receives only the generated scene and points.  Reference field values are
stored for ``POOL`` input sets per workload (``perfbench/refs``), so the
seed selects one of them: ``pool = seed % POOL``.  The same seed always
gives the same inputs.

Why each workload is here:

- ``m100-grid``: ``example1`` with M = 100, the direct coupling path
  (M * N_S = 2.5e5), 7 GMRES iterations, and ``evaluate_grid`` on the README
  extent at 100 x 140 points (a quarter of the README grid, to keep a run
  near 12 s).  Field evaluation is about 85% of the run and the Schur
  operator is cheap, so evaluation changes and the contour length N_S show
  here, while B, C and M2L changes should not.
- ``band600-probe``: 600 five-petal inclusions in a thin band near the top
  of a shallow layer (``scenes/band600.scene``).  The contour is twice as
  long (N_S = 5052), ``auto`` picks the NUFFT couplings, B has few snap rows
  and M2L is a large share of each Schur apply; evaluation at scattered
  probes is dominated by multipole sums.  The inclusions sit near both
  interfaces, so spectral decay is slow: a change tuned to example1's tall
  region or fast decay shows up here.
- ``smoke-grid`` and ``smoke-probe`` are tiny versions of the two, for the
  benchmark's own tests; ``smoke-probe`` forces the NUFFT path so that every
  traced entry point runs.

``example1`` at M = 1000 is not a workload: its solve alone takes about 90 s
on 2 cores, more than a whole benchmark run may take.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SCENES = HERE / "scenes"
REFS = HERE / "refs"

POOL = 16                   # stored input sets (and references) per workload
SETUP_REPEATS = 3           # cold-cache set-ups per untraced worker
# An untraced worker repeats the solve and the evaluation until it has spent
# this long on each (at most MAX_REPEATS times), so that short phases get
# several samples; the run reports the median over all its samples.
SOLVE_MIN_S = 3.0
EVAL_MIN_S = 8.0
MAX_REPEATS = 3
CHECK_POINTS = 400          # evaluation points compared with stored references
REF_GMRES_TOL = 1e-10       # GMRES tolerance of the stored references


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str              # file under perfbench/scenes
    M: int
    extent: tuple           # (x0, x1, y0, y1) of the evaluation region
    grid: tuple = None      # (nx, ny): evaluate_grid on the extent
    n_uniform: int = 0      # probes outside the enclosing disks
    n_disk: int = 0         # probes inside them, half inside the inclusion
    path: str = None        # coupling path override (smoke only)
    continuity_x: tuple = ()  # x positions of the interface continuity checks


WORKLOADS = {w.name: w for w in (
    Workload("m100-grid", "example1.scene", M=100,
             extent=(-14.0, 14.0, -36.0, 4.0), grid=(100, 140),
             continuity_x=(-12.0, -6.0, 0.5, 6.0, 12.0)),
    Workload("band600-probe", "band600.scene", M=600,
             extent=(-28.0, 28.0, -10.0, 2.0), n_uniform=2000, n_disk=500,
             continuity_x=(-25.0, -12.5, 0.5, 12.5, 25.0)),
    Workload("smoke-grid", "example1.scene", M=4,
             extent=(-14.0, 14.0, -36.0, 4.0), grid=(10, 14),
             continuity_x=(-6.0, 6.0)),
    Workload("smoke-probe", "band600.scene", M=8, path="nufft",
             extent=(-28.0, 28.0, -10.0, 2.0), n_uniform=40, n_disk=20,
             continuity_x=(-6.0, 6.0)),
)}


def scene_config(workload, seed):
    """The scene a run solves: the workload's scene file with its M and a
    placement seed chosen by ``seed``."""
    from layerscatter import load_scene

    cfg = load_scene(SCENES / workload.scene)
    cfg = replace(cfg, M=workload.M, seed=cfg.seed + seed % POOL)
    if workload.path is not None:
        cfg = replace(cfg, path=workload.path)
    return cfg


def grid_points(workload):
    """Points of the workload's grid, in ``FieldGrid.points`` order."""
    x0, x1, y0, y1 = workload.extent
    nx, ny = workload.grid
    X, Y = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny))
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def _outside_disks(pts, instances):
    keep = np.ones(len(pts), dtype=bool)
    for inst in instances:
        keep &= np.hypot(pts[:, 0] - inst.center[0],
                         pts[:, 1] - inst.center[1]) >= inst.R
    return keep


def probe_points(workload, seed, instances, cfg):
    """Seeded probes.  ``n_uniform`` are uniform over the extent outside
    the enclosing disks, split between the three layers in proportion to
    their height; ``n_disk`` lie in the enclosing disks of distinct random
    instances (while there are enough), alternately inside the inclusion and
    in the annulus around it.  Fixing the count per region keeps the work
    the same from seed to seed; only the positions change."""
    rng = np.random.default_rng([20141, seed % POOL])
    x0, x1, y0, y1 = workload.extent
    bands = [(max(y0, 0.0), y1), (max(y0, -cfg.d), min(y1, 0.0)),
             (y0, min(y1, -cfg.d))]
    heights = np.array([max(hi - lo, 0.0) for lo, hi in bands])
    counts = np.floor(workload.n_uniform * heights / heights.sum()).astype(int)
    counts[1] += workload.n_uniform - counts.sum()
    probes = []
    for (lo, hi), n in zip(bands, counts):
        got = np.empty((0, 2))
        while len(got) < n:
            cand = np.stack([rng.uniform(x0, x1, n), rng.uniform(lo, hi, n)],
                            axis=-1)
            got = np.concatenate([got, cand[_outside_disks(cand, instances)]])
        probes.append(got[:n])

    n = workload.n_disk
    pick = rng.choice(len(instances), n, replace=n > len(instances))
    ang = rng.uniform(0.0, 2 * np.pi, n)
    frac = rng.uniform(0.1, 0.9, n)
    rot = np.array([instances[j].rotation for j in pick])
    R = np.array([instances[j].R for j in pick])
    center = np.array([instances[j].center for j in pick]).reshape(n, 2)
    rho = cfg.a1 + cfg.a2 * np.cos(cfg.a3 * (ang - rot))
    r = np.where(np.arange(n) % 2 == 0, frac * rho, rho + frac * (R - rho))
    probes.append(center + r[:, None] * np.stack([np.cos(ang), np.sin(ang)],
                                                 axis=-1))
    return np.concatenate(probes)


def eval_points(workload, seed, instances, cfg):
    if workload.grid is not None:
        return grid_points(workload)
    return probe_points(workload, seed, instances, cfg)


def check_indices(n_points):
    """Evaluation points compared with the stored references: an even
    stride through the point list, which covers the grid rows and both kinds
    of probes."""
    return np.unique(np.linspace(0, n_points - 1,
                                 min(CHECK_POINTS, n_points)).astype(int))


REGIONS = ("top", "bottom", "mid_free", "mid_annulus", "mid_interior")


def classify(points, instances, cfg):
    """Region index (into ``REGIONS``) of every point, by the same rules as
    ``eval_total_field``: interfaces belong to the layer above, a point in
    an enclosing disk belongs to the first instance that holds it."""
    x, y = points[:, 0], points[:, 1]
    region = np.full(len(points), 2)
    region[y >= 0] = 0
    region[y < -cfg.d] = 1
    mid = np.flatnonzero(region == 2)
    owner = np.full(mid.size, -1)
    for j, inst in enumerate(instances):
        r = np.hypot(x[mid] - inst.center[0], y[mid] - inst.center[1])
        owner[(r < inst.R) & (owner < 0)] = j
    for j in np.unique(owner[owner >= 0]):
        sel = mid[owner == j]
        inst = instances[j]
        dx, dy = x[sel] - inst.center[0], y[sel] - inst.center[1]
        rho = cfg.a1 + cfg.a2 * np.cos(
            cfg.a3 * (np.arctan2(dy, dx) - inst.rotation))
        region[sel] = np.where(np.hypot(dx, dy) < rho, 4, 3)
    return region
