"""Fully coupled layered-medium solve: the Schur-complement operator on the
multipole unknowns, a restarted GMRES driver, and total-field evaluation in
every region of the geometry.

Block structure (interface densities sigma, multipole coefficients beta):

    [A  B] [sigma]   [b]
    [C  D] [beta ] = [0]

with A the per-node 4x4 interface systems, B the multipole-to-Sommerfeld
map, C the Sommerfeld-to-local map followed by the scattering matrices, and
D = I - S T the preconditioned free-space multiple-scattering operator.
Eliminating sigma gives the Schur system

    (D - C A^{-1} B) beta = -C A^{-1} b,

where, in the preconditioned convention used throughout, both C terms carry
the S-multiplication, so the right-hand side is S applied to the incoming
local coefficients of the transmitted incident field.
"""

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

# the direct oracles stay importable from here for perfbench/tracing.py
from .coupling import (MultipoleToSommerfeldPlan, PlaneWaveTable,
                       SommerfeldGridPlan, SpectralUpdate,
                       multipole_to_sommerfeld_direct,
                       sommerfeld_to_local_direct, sommerfeld_to_local_nufft,
                       subtract_order0_layered)
from .layers import (InterfaceSolver, build_contour_adaptive,
                     eval_sommerfeld_field, in_blocks, layered_sum_paths,
                     usable_cores)
from .multiscat import (BLAS_BLOCK, COUPLING_TOL, PairCoupling,
                        _eval_locals, apply_rotated, disk_owners,
                        eval_multipole_field, order0_block, rotation_phases)
from .particle import discretize_boundary
from .special import hankel1_01

__all__ = ["GmresConfig", "GmresError", "gmres", "order0_preconditioner",
           "SchurOperator", "Solution", "solve_layered_scene",
           "eval_total_field", "TABLE_BUDGET"]

# ``auto`` couples through the plane-wave table (32 M N_S bytes) up to this
# size and above it through the NUFFT plans: slower, but O(M + N_S) memory.
# The order-0 preconditioner's (M, M) block (16 M^2 bytes) has the same cap
TABLE_BUDGET = 2 ** 28


@dataclass
class GmresConfig:
    tol: float = 1e-6
    maxiter: int = 1000
    restart: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(
                f"GMRES tolerance must be positive, got {self.tol}")
        if self.maxiter < 1 or self.restart < 1:
            raise ValueError("GMRES maxiter and restart must be at least 1, "
                             f"got {self.maxiter} and {self.restart}")


class GmresError(RuntimeError):
    """Non-convergence (iteration cap, stagnation or breakdown); carries the
    residual history in ``history``."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


def gmres(op, b, tol=1e-6, maxiter=1000, restart=100):
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations.

    Solves op(x) = b to relative residual ``tol``; returns (x, history)
    with one relative-residual entry per Arnoldi step.  Raises GmresError
    on hitting the iteration cap, on stagnation (residual reduction by
    less than a factor 1e-12 over a full restart cycle) or on a breakdown
    (a singular Hessenberg matrix, as when b is not in the range of op).
    """
    GmresConfig(tol, maxiter, restart)          # ValueError if invalid
    b = np.asarray(b, dtype=complex)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), [0.0]
    x = np.zeros_like(b)
    history = []
    total = 0
    while True:
        r = b - op(x) if total else b.copy()
        beta = np.linalg.norm(r)
        if beta / bnorm <= tol:
            return x, history or [beta / bnorm]
        m = min(restart, maxiter - total)
        V = np.empty((m + 1, b.size), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        V[0] = r / beta
        j_used = 0
        for j in range(m):
            w = np.array(op(V[j]), dtype=complex)   # copy: op may alias input
            for i in range(j + 1):
                H[i, j] = np.vdot(V[i], w)
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] > 0:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            h1, h2 = H[j, j], H[j + 1, j]
            denom = np.hypot(abs(h1), abs(h2))
            if denom == 0:
                cs[j], sn[j] = 1.0, 0.0
            elif h1 == 0:
                cs[j], sn[j] = 0.0, np.conj(h2) / abs(h2)
            else:
                cs[j] = abs(h1) / denom
                sn[j] = (h1 / abs(h1)) * np.conj(h2) / denom
            H[j, j] = cs[j] * h1 + sn[j] * h2
            H[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            res = abs(g[j + 1]) / bnorm
            history.append(res)
            total += 1
            j_used = j + 1
            if res <= tol or total >= maxiter:
                break
        try:
            y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
        except np.linalg.LinAlgError:
            raise GmresError(f"GMRES broke down after {total} iterations "
                             "(singular Hessenberg matrix)", history) from None
        x = x + y @ V[:j_used]
        if history[-1] <= tol:
            return x, history
        if total >= maxiter:
            raise GmresError(
                f"GMRES did not reach tol={tol} in {maxiter} iterations "
                f"(residual {history[-1]:.3e})", history)
        if beta > 0 and abs(g[j_used]) / beta > 1 - 1e-12:
            raise GmresError(
                f"GMRES stagnated at residual {history[-1]:.3e}", history)


def _lu_factor(a):
    """LU with partial pivoting of the square ``a``, in place, in blocks of
    BLAS_BLOCK columns: each block a column at a time, then its U rows by
    one triangular solve and the trailing rows BLAS_BLOCK at a time.  Returns
    the row order.  numpy's BLAS only: scipy's LAPACK brings a second
    OpenBLAS, and its threads, spinning after each call, slowed the
    solve's numpy products by up to 0.1 s on 2 cores."""
    n = len(a)
    order = np.arange(n)
    for k in range(0, n, BLAS_BLOCK):
        e = min(k + BLAS_BLOCK, n)
        for j in range(k, e):
            i = j + np.argmax(np.abs(a[j:, j]))
            a[[j, i]] = a[[i, j]]
            order[[j, i]] = order[[i, j]]
            a[j + 1:, j] /= a[j, j]
            a[j + 1:, j + 1:e] -= np.outer(a[j + 1:, j], a[j, j + 1:e])
        a[k:e, e:] = np.linalg.solve(np.tril(a[k:e, k:e], -1) + np.eye(e - k),
                                     a[k:e, e:])
        for r in range(e, n, BLAS_BLOCK):
            a[r:r + BLAS_BLOCK, e:] -= a[r:r + BLAS_BLOCK, k:e] @ a[k:e, e:]
    return order


def _lu_solve(a, order, b):
    """x with A x = b, from ``_lu_factor``'s in-place factors and order."""
    x = b[order]
    blocks = range(0, len(x), BLAS_BLOCK)
    for k in blocks:
        e = k + BLAS_BLOCK
        x[k:e] = np.linalg.solve(
            np.tril(a[k:e, k:e], -1) + np.eye(len(x[k:e])), x[k:e])
        x[e:] -= a[e:, k:e] @ x[k:e]
    for k in reversed(blocks):
        e = k + BLAS_BLOCK
        x[k:e] = np.linalg.solve(np.triu(a[k:e, k:e]), x[k:e])
        x[:k] -= a[:k, k:e] @ x[k:e]
    return x


def order0_preconditioner(build, M, p):
    """Right preconditioner P for (M, 2p+1) unknowns: v with its order-0
    entries replaced by K^{-1} of them, K = ``build()`` an (M, M) block,
    LU-factored in place; every other order is left as it is.  GMRES on
    v -> A P v returns y, the solution is x = P y, and its residual
    history is that of x.  The identity, with ``build`` never called, for
    M = 0 or when K's 16 M^2 bytes pass TABLE_BUDGET."""
    if not 0 < 16 * M * M <= TABLE_BUDGET:
        if M:
            logging.getLogger("layerscatter").debug(
                "coarse block skipped: 16 M^2 = %d bytes over TABLE_BUDGET "
                "%d", 16 * M * M, TABLE_BUDGET)
        return lambda v: v
    K = build()
    order = _lu_factor(K)

    def apply(v):
        out = v.reshape(M, 2 * p + 1).copy()
        out[:, p] = _lu_solve(K, order, out[:, p])
        return out.ravel()
    return apply


class SchurOperator:
    """Matrix-free Schur-complement operator and its right-hand side.

    Unpacks the instances into ``centers``, ``rotations`` and the
    prototype's enclosing radius ``R``, and holds the factored interface
    blocks, the all-pairs free-space coupling, the prototype scattering
    matrix (it sets p) and the rotation phases.  B and C use the NUFFT
    plans if ``use_nufft`` (by default when the plane-wave table would
    exceed TABLE_BUDGET), else that table, which the first B or C of a
    solve builds and ``solve_layered_scene`` drops.
    """

    def __init__(self, contour, layers, instances, smatrix, use_nufft=None):
        if smatrix.k2 != layers.k2:
            raise ValueError(f"matrix k2 {smatrix.k2} != layer k2 {layers.k2}")
        self.contour = contour
        self.layers = layers
        self.smatrix = smatrix
        self.p = p = smatrix.p
        self.R = smatrix.R
        self.centers = np.array([i.center for i in instances], dtype=float)
        self.rotations = np.array([i.rotation for i in instances])
        self.M = len(self.centers)
        self.phases = rotation_phases(self.rotations, p)
        self.interface = InterfaceSolver(contour, layers)
        self.pair = (PairCoupling(self.centers, layers.k2, p)
                     if self.M > 1 else None)
        table_bytes = 32 * self.M * len(contour)
        auto = use_nufft is None
        self.use_nufft = self.M > 0 and bool(
            table_bytes > TABLE_BUDGET if auto else use_nufft)
        pair = self.pair
        m2l = ("none" if pair is None else "dense" if pair.grid is None
               else f"boxes {pair.grid[0]}x{pair.grid[1]} of width "
               f"{pair.width:.3g}, P {pair.P}, {pair.near_pairs} near pairs")
        rules = contour.tail_rules
        logging.getLogger("layerscatter").debug(
            "coupling path %s (%s): N_S %d, t_max %.4g, %d tail sub-panels "
            "of at most %d nodes; plane-wave table %d bytes, budget %d; "
            "M2L %s", "nufft" if self.use_nufft else "table",
            "auto" if auto else "set", len(contour), contour.t_max,
            len(rules), max(rules, default=0), table_bytes, TABLE_BUDGET,
            m2l)
        self._table = None
        if self.use_nufft:
            self._grid_plan = SommerfeldGridPlan(
                contour, layers, self.centers, self.R, p, COUPLING_TOL)
            self._b_plan = MultipoleToSommerfeldPlan(
                contour, layers, self.centers, p, COUPLING_TOL)

    def _plane_waves(self):
        if self._table is None:
            self._table = PlaneWaveTable(self.contour, self.layers,
                                         self.centers, self.p)
        return self._table

    def _c_block(self, densities):
        """Incoming local coefficients of the interface-generated field."""
        if self.use_nufft:
            values = self._grid_plan.apply(densities)
            return sommerfeld_to_local_nufft(self._grid_plan, values)
        return self._plane_waves().sommerfeld_to_local(densities)

    def _b_block(self, betas):
        if self.use_nufft:
            return self._b_plan.apply(betas)
        return self._plane_waves().multipole_to_sommerfeld(betas)

    def rhs(self):
        """S C A^{-1} b: S applied to the locals of the transmitted
        incident field."""
        locs = self._c_block(self.interface.solve())
        return apply_rotated(self.smatrix, self.phases, locs).ravel()

    def incoming_locals(self, densities, betas):
        """C densities + T beta: incoming locals from the interface field
        and, directly, from all other particles."""
        locs = self._c_block(densities)
        if self.pair is not None:
            locs = locs + self.pair.apply_m2l(betas)
        return locs

    def apply(self, betas_flat):
        """(D - C A^{-1} B) beta with D = I - S T, all S-preconditioned."""
        betas = betas_flat.reshape(self.M, 2 * self.p + 1)
        dens = self.interface.solve(self._b_block(betas),
                                    include_source=False)
        locs = self.incoming_locals(dens, betas)
        return (betas - apply_rotated(self.smatrix, self.phases,
                                      locs)).ravel()

    def coarse_block(self, contour=None):
        """K = I - s00 (H_0 + L), the Foldy-Lax monopole system, (M, M),
        complex symmetric and free of the rotations: the order-0 rows and
        columns of I - S (T + C A^{-1} B) with S cut to its entry s00.
        ``order0_block`` gives the free part and ``subtract_order0_layered``
        L on ``contour``, by default one sized for twice the smallest
        centre-to-interface distance, the shortest path between two
        particles through an interface.  Logs N_S, K's bytes and the time."""
        t0 = time.perf_counter()
        if contour is None:
            y = self.centers[:, 1]
            depth = min(-y.max(), (y + self.layers.d).min())
            contour = build_contour_adaptive(self.layers, 2 * depth)
        n, s00 = len(contour), self.smatrix.entries[self.p, self.p]
        K = order0_block(self.centers, self.layers.k2, s00)
        # the sourceless interface solve of unit sigma+ and unit sigma-:
        # per node, the 2x2 map to the middle-layer densities
        iface = InterfaceSolver(contour, self.layers)
        one, zero = np.ones(n), np.zeros(n)
        mix = np.stack([iface.solve(SpectralUpdate(sp, sm),
                                    include_source=False).values[:, 1:3]
                        for sp, sm in ((one, zero), (zero, one))], axis=-1)
        subtract_order0_layered(K, contour, self.layers, self.centers, s00,
                                mix)
        logging.getLogger("layerscatter").debug(
            "coarse block: N_S %d, %d bytes, built in %.3f s", n, K.nbytes,
            time.perf_counter() - t0)
        return K

    def recover_densities(self, betas):
        """One final A-block solve with the full right-hand side b + B beta."""
        return self.interface.solve(self._b_block(betas))


@dataclass
class Solution:
    """Converged solve state: spectral densities, multipole coefficients,
    total incoming locals, and the GMRES residual history."""
    densities: object
    betas: np.ndarray          # (M, 2p+1)
    alphas: np.ndarray         # (M, 2p+1) total incoming locals
    history: list
    operator: SchurOperator
    fingerprint: bytes = b""
    boundary: object = None            # prototype BoundaryDiscretization
    mode_densities: object = None      # PrecomputedDensities per mode


def solve_layered_scene(operator, config=None, boundary=None,
                        mode_densities=None, fingerprint=b""):
    """GMRES on the Schur system, right-preconditioned on the order-0
    unknowns by the operator's ``coarse_block`` (built for this solve and
    dropped with it), then density recovery.

    ``operator`` is a prepared SchurOperator (the scene module builds it
    from a SceneConfig).  Optional prototype boundary data enables interior
    field reconstruction in eval_total_field.
    """
    config = config or GmresConfig()
    # K is built before the plane-wave table, which rhs() builds
    precond = order0_preconditioner(operator.coarse_block, operator.M,
                                    operator.p)
    # with no inclusions the right-hand side is empty and GMRES returns it
    y, history = gmres(lambda v: operator.apply(precond(v)), operator.rhs(),
                       tol=config.tol, maxiter=config.maxiter,
                       restart=config.restart)
    betas = precond(y).reshape(operator.M, 2 * operator.p + 1)
    densities = operator.recover_densities(betas)
    # C is linear, so one apply to A^{-1} (b + B beta) gives the locals of
    # the transmitted incident field and of the interface-scattered field
    alphas = operator.incoming_locals(densities, betas)
    operator._table = None      # evaluation needs no plane-wave table
    return Solution(densities=densities, betas=betas, alphas=alphas,
                    history=list(history), operator=operator,
                    fingerprint=fingerprint, boundary=boundary,
                    mode_densities=mode_densities)


# ---------------------------------------------------------------------------
# Total-field evaluation
# ---------------------------------------------------------------------------

# refinement of the boundary quadrature for near-boundary field evaluation;
# plain trapezoid then holds ~1e-10 down to distances of about 1e-3
UPSAMPLE = 8
# targets x boundary nodes of the in-disk layer potentials' temporaries, split
# between the blocks in flight: a few MB on the 8x upsampled 300-node boundary
DISK_CHUNK_ELEMENTS = 2 ** 15


def _layer_potentials(k, nodes, normals, wts, sigma, mu, targets):
    """Trapezoidal S[sigma_n](x) + D[mu_n](x) of the (N, 2p+1) per-mode
    densities at off-boundary targets, wavenumber k scalar or one per
    target; (targets, 2p+1), in blocks of DISK_CHUNK_ELEMENTS // N targets
    split between the cores (``in_blocks``)."""
    k = np.broadcast_to(k, targets.shape[:1])
    w_single, w_double = wts[:, None] * sigma, wts[:, None] * mu
    out = np.empty((targets.shape[0], sigma.shape[1]), dtype=complex)

    def block(blk):
        dx = targets[blk, 0][:, None] - nodes[:, 0]
        dy = targets[blk, 1][:, None] - nodes[:, 1]
        r = np.hypot(dx, dy)
        cosn = (dx * normals[:, 0] + dy * normals[:, 1]) / r
        h0, h1 = hankel1_01(k[blk, None] * r)
        out[blk] = 0.25j * (h0 @ w_single
                            + k[blk, None] * ((h1 * cosn) @ w_double))

    in_blocks(block, targets.shape[0], DISK_CHUNK_ELEMENTS // nodes.shape[0])
    return out


def _trig_upsample(f, m):
    """Trigonometric m-times upsampling of periodic samples (zero-padded FFT)."""
    N = f.shape[0]
    F = np.fft.fft(f, axis=0)
    F = np.concatenate([F[:N // 2], np.zeros(((m - 1) * N,) + f.shape[1:]),
                        F[N // 2:]])
    return np.fft.ifft(F, axis=0) * m


def _disk_field(solution, pts, owner):
    """Total field at points in enclosing disks, pts[i] in that of the
    operator's center owner[i].  In its owner's frame that is the prototype
    with locals a'_n = a_n e^{i n theta}: the prototype's interior potential
    inside the inclusion, its exterior one plus the J-expansion in the
    annulus."""
    bd, modes = solution.boundary, solution.mode_densities
    if bd is None or modes is None:
        raise ValueError("interior evaluation requires stored boundary "
                         "densities (solve with boundary/mode_densities)")
    op, params, k2 = solution.operator, bd.params, solution.operator.layers.k2
    z = ((pts - op.centers[owner]) @ [1, 1j]) \
        * np.exp(-1j * op.rotations[owner])
    rel = np.stack([z.real, z.imag], axis=-1)
    r, ang = np.abs(z), np.angle(z)
    inside = r < params.a1 + params.a2 * np.cos(params.a3 * ang)
    fine = discretize_boundary(replace(params, N=UPSAMPLE * params.N))
    pot = _layer_potentials(np.where(inside, params.kp, k2), fine.nodes,
                            fine.normals, fine.h * fine.speed,
                            _trig_upsample(modes.sigma, UPSAMPLE),
                            _trig_upsample(modes.mu, UPSAMPLE), rel)
    coeffs = solution.alphas[owner] * op.phases[owner]
    local = _eval_locals(coeffs.T, np.arange(len(z)), rel, k2)
    return np.einsum("ij,ij->i", coeffs, pot) + np.where(inside, 0, local)


def eval_total_field(solution, points):
    """Total field at one point or an (n, 2) array, classified by region.

    Points exactly on an interface are evaluated from the layer above;
    points on a particle boundary from the exterior side.  Inside an
    enclosing disk the field combines the incoming local expansion with the
    instance's own boundary-potential representation; inside the inclusion
    itself only the interior representation applies.  Raises ValueError
    for a non-finite point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    op, layers = solution.operator, solution.operator.layers
    out = np.empty(pts.shape[0], dtype=complex)
    mid = (pts[:, 1] < 0) & (pts[:, 1] >= -layers.d)
    owner = np.full(pts.shape[0], -1)
    owner[mid] = disk_owners(op.centers, op.R, pts[mid])
    disk, free = owner >= 0, mid & (owner < 0)
    log = logging.getLogger("layerscatter")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("field at %d top, %d bottom, %d free middle and %d in-disk "
                  "points; layered sums: top %s, middle %s, bottom %s; row "
                  "dots and in-disk potentials on up to %d threads",
                  np.sum(pts[:, 1] >= 0), np.sum(pts[:, 1] < -layers.d),
                  free.sum(), disk.sum(),
                  *layered_sum_paths(layers, pts[~disk]), usable_cores())
    if not np.all(disk):
        out[~disk] = eval_sommerfeld_field(solution.densities, op.contour,
                                           layers, pts[~disk])
    if np.any(free) and op.M:
        out[free] += eval_multipole_field(solution.betas, op.centers, op.R,
                                          layers.k2, pts[free])
    if np.any(disk):
        out[disk] = _disk_field(solution, pts[disk], owner[disk])
    return out[0] if np.asarray(points).ndim == 1 else out
