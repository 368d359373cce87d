"""Correctness checks a worker runs after its timed region.

Each check is one entry ``(name, error, bound)``; it fails when the error
exceeds the bound (or is not finite).  The bounds come from the scene's
GMRES tolerance ``tol``:

- GMRES must reach ``tol`` (the last relative residual).
- The total field and its y-derivative must be continuous across y = 0 and
  y = -d.  The interface blocks enforce both exactly per contour node, so
  what is left is quadrature and stencil error; the bound is ``10 tol``,
  relative to the largest value (derivative) on that interface.
- Field values at the stored check points must match the references, which
  were computed with GMRES tolerance 1e-10 on the same inputs, with the
  library as it was when the benchmark was defined.  Relative to the largest
  reference value, the error of a default solve (GMRES tol 1e-6) measured
  then was at most about 0.3 tol.  The bound ``10 tol`` leaves room for a
  different contour or GMRES path whose own error stays within tol/10.
"""

import numpy as np

from workloads import POOL, REFS, check_indices

CONTINUITY_FACTOR = 10.0
REFERENCE_FACTOR = 10.0
EPS = 1e-8          # standoff of the first sample from the interface
H = 0.01            # stencil spacing
# one-sided first derivative from samples at 0, h, ..., 4h; error O(h^4)
STENCIL = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def gmres_check(solution, tol):
    return [("gmres_residual", float(solution.history[-1]), tol)]


def continuity_checks(solution, eval_total_field, d, xs, tol):
    xs = np.asarray(xs, dtype=float)
    offs = EPS + H * np.arange(STENCIL.size)
    out = []
    for y0 in (0.0, -d):
        sides = []
        for sign in (1.0, -1.0):
            pts = np.stack(np.broadcast_arrays(
                xs[:, None], y0 + sign * offs[None, :]), axis=-1)
            u = eval_total_field(solution, pts.reshape(-1, 2)).reshape(
                xs.size, offs.size)
            sides.append((u[:, 0], sign * (u @ STENCIL) / H))
        (ua, da), (ub, db) = sides
        vscale = max(np.abs(ua).max(), np.abs(ub).max())
        dscale = max(np.abs(da).max(), np.abs(db).max())
        for x, ev, ed in zip(xs, np.abs(ua - ub) / vscale,
                             np.abs(da - db) / dscale):
            out.append((f"value_continuity y={y0:g} x={x:g}", float(ev),
                        CONTINUITY_FACTOR * tol))
            out.append((f"derivative_continuity y={y0:g} x={x:g}", float(ed),
                        CONTINUITY_FACTOR * tol))
    return out


def load_reference(workload_name, seed):
    """(points, values) stored for this workload and seed, or None."""
    path = REFS / f"{workload_name}.npz"
    if not path.is_file():
        return None
    with np.load(path) as z:
        if int(z["pool"]) != POOL:
            return None
        k = seed % POOL
        return z["points"][k], z["values"][k]


def reference_checks(workload_name, seed, points, values, tol):
    """One check per stored point.  Inputs that differ from the stored
    ones (a changed placement, say) fail every point."""
    idx = check_indices(len(points))
    ref = load_reference(workload_name, seed)
    if ref is None or ref[0].shape != (idx.size, 2) or \
            not np.array_equal(ref[0], points[idx]):
        return [("reference_inputs", float("inf"), 0.0)] * max(idx.size, 1)
    ref_vals = ref[1]
    err = np.abs(values[idx] - ref_vals) / np.abs(ref_vals).max()
    return [(f"reference point {i}", float(e), REFERENCE_FACTOR * tol)
            for i, e in zip(idx, err)]


def passed(check):
    _, err, bound = check
    return bool(np.isfinite(err) and err <= bound)
