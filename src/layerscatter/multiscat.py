"""Free-space multiple-scattering algebra: multipole (H) and local (J)
expansions, Graf-theorem translation operators, the block-preconditioned
operator I - S T, and a standalone homogeneous-background solver.
"""

from dataclasses import dataclass

import numpy as np

from .special import bessel_j, hankel1

__all__ = ["ExpansionVector", "ParticleInstance", "m2l", "point_source_local",
           "eval_expansion", "PairCoupling", "rotation_phases",
           "apply_rotated", "solve_free_space", "eval_multipole_field"]


@dataclass
class ExpansionVector:
    """Truncated cylindrical-harmonic expansion about a center.

    kind "H": outgoing multipole series sum_n c_n H_n(k r) e^{i n theta};
    kind "J": incoming local series    sum_n c_n J_n(k r) e^{i n theta}.
    """
    p: int
    coeffs: np.ndarray
    kind: str
    center: tuple
    k: complex

    def __post_init__(self):
        if self.kind not in ("H", "J"):
            raise ValueError("kind must be 'H' or 'J'")
        if self.coeffs.shape != (2 * self.p + 1,):
            raise ValueError("coefficient vector must have length 2p+1")


@dataclass
class ParticleInstance:
    """One placed copy of the prototype inclusion."""
    center: tuple
    rotation: float
    R: float


def m2l(source, target_center, p):
    """Local (J) expansion about target_center reproducing the multipole
    source field on the target disk (Graf's addition theorem):
    alpha_n = sum_nu beta_nu H_{nu-n}(k |D|) e^{i (nu-n) theta_D},
    with D = target_center - source.center, which must be nonzero.
    """
    if source.kind != "H":
        raise ValueError("m2l expects a multipole (H) source")
    D = (target_center[0] - source.center[0],
         target_center[1] - source.center[1])
    dist = np.hypot(*D)
    nu = np.arange(-source.p, source.p + 1)
    n = np.arange(-p, p + 1)
    q = np.subtract.outer(-n, -nu)        # q[i, j] = nu_j - n_i
    mat = (hankel1(q, source.k * dist + 0j)
           * np.exp(1j * q * np.arctan2(D[1], D[0])))
    return ExpansionVector(p=p, coeffs=mat @ source.coeffs, kind="J",
                           center=tuple(target_center), k=source.k)


def point_source_local(k, source_point, center, p):
    """Local expansion of the free-space Green's function (i/4) H_0(k |x -
    x0|) about ``center``: a_n = (i/4) H_n(k rho) e^{-i n theta0} with
    (rho, theta0) the polar coordinates of x0 about the center."""
    dx = source_point[0] - center[0]
    dy = source_point[1] - center[1]
    rho = np.hypot(dx, dy)
    th0 = np.arctan2(dy, dx)
    n = np.arange(-p, p + 1)
    coeffs = 0.25j * hankel1(n, k * rho + 0j) * np.exp(-1j * n * th0)
    return ExpansionVector(p=p, coeffs=coeffs, kind="J",
                           center=tuple(center), k=k)


def eval_expansion(exp, points):
    """Evaluate an H- or J-expansion at one point or an (n, 2) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, 0] - exp.center[0]
    dy = pts[:, 1] - exp.center[1]
    r = np.hypot(dx, dy)
    th = np.arctan2(dy, dx)
    n = np.arange(-exp.p, exp.p + 1)
    fn = hankel1 if exp.kind == "H" else bessel_j
    vals = fn(n[None, :], (exp.k * r + 0j)[:, None]) * np.exp(1j * np.outer(th, n))
    out = vals @ exp.coeffs
    return out[0] if np.asarray(points).ndim == 1 else out


class PairCoupling:
    """All-pairs M2L application for a fixed set of instance centers.

    Stores only O(M^2) geometry; the order-q translation kernels
    W_q = H_q(k |D|) e^{i q theta_D} are regenerated on each apply by the
    three-term Hankel recurrence, fused with the per-order matmuls, so the
    working set stays at a few M x M arrays for any p.
    """

    def __init__(self, centers, k, p):
        centers = np.asarray(centers, dtype=float)
        self.M = centers.shape[0]
        self.p = p
        self.k = k
        dx = centers[:, 0][:, None] - centers[:, 0][None, :]
        dy = centers[:, 1][:, None] - centers[:, 1][None, :]
        dist = np.hypot(dx, dy)
        np.fill_diagonal(dist, 1.0)
        self.z = k * dist                       # kernel argument (diag dummy)
        # theta of D = target - source; row = target, column = source
        self.phase = np.exp(1j * np.arctan2(dy, dx))
        # a zero diagonal in H_0 and H_1 stays zero through the recurrence
        offdiag = ~np.eye(self.M, dtype=bool)
        self._h0 = hankel1(0, self.z) * offdiag
        self._h1 = hankel1(1, self.z) * offdiag

    def apply_m2l(self, betas):
        """Incoming locals alpha[m, n] = sum_{j != m} sum_nu
        W_{nu-n}(m, j) betas[j, nu]; betas shaped (M, 2p+1)."""
        p = self.p
        width = 2 * p + 1
        alphas = self._h0 @ betas
        hq_prev, hq = self._h0, self._h1
        pq = self.phase                         # phase^q
        for q in range(1, 2 * p + 1):
            # W_{+q} = H_q phase^q acts on nu = n + q, and
            # W_{-q} = (-1)^q H_q conj(phase^q) on nu = n - q
            alphas[:, :width - q] += (hq * pq) @ betas[:, q:]
            alphas[:, q:] += ((-1) ** q * hq * np.conj(pq)) @ betas[:, :width - q]
            if q < 2 * p:
                pq = pq * self.phase
                hq_prev, hq = hq, (2.0 * q / self.z) * hq - hq_prev
        return alphas


def rotation_phases(rotations, p):
    """P[m, n] = e^{i n theta_m}, n = -p..p, for the rotations theta_m."""
    return np.exp(1j * np.outer(rotations, np.arange(-p, p + 1)))


def apply_rotated(smatrix, phases, locs):
    """Row m of the (M, 2p+1) locals times the prototype matrix rotated by
    theta_m: S_theta a = conj(P) (S (P a)), the phase form of
    ``rotate_scattering_matrix``."""
    return np.conj(phases) * ((phases * locs) @ smatrix.entries.T)


def solve_free_space(centers, rotations, smatrix, incident_locals, tol=1e-6):
    """GMRES solve of (I - S T) beta = S a for a homogeneous background.

    Instance m is the prototype ``smatrix`` (it sets p and k2) at
    ``centers[m]``, rotated by ``rotations[m]``.  ``incident_locals`` is the
    stacked (M, 2p+1) array of incoming local coefficients of the incident
    field about each center.
    Returns (betas, residual_history).
    """
    from .solver import gmres

    p, M = smatrix.p, len(centers)
    phases = rotation_phases(rotations, p)
    rhs = apply_rotated(smatrix, phases, incident_locals).ravel()
    coupling = PairCoupling(centers, smatrix.k2, p)

    def op(v):
        betas = v.reshape(M, 2 * p + 1)
        return (betas - apply_rotated(smatrix, phases,
                                      coupling.apply_m2l(betas))).ravel()

    x, hist = gmres(op, rhs, tol=tol)
    return x.reshape(M, 2 * p + 1), hist


def eval_multipole_field(betas, centers, R, k2, points):
    """Sum of all outgoing multipole fields at exterior points.

    betas: (M, 2p+1), one row per center; points: one point or (n, 2).
    Points inside any enclosing disk (radius R) are rejected (interior
    reconstruction lives in the solver module).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    betas = np.asarray(betas)
    p = (betas.shape[1] - 1) // 2
    out = np.zeros(pts.shape[0], dtype=complex)
    for c, b in zip(centers, betas):
        dx = pts[:, 0] - c[0]
        dy = pts[:, 1] - c[1]
        r = np.hypot(dx, dy)
        if np.any(r < R):
            raise ValueError("point inside an enclosing disk; use the "
                             "solver's interior reconstruction")
        z = k2 * r + 0j
        eith = (dx + 1j * dy) / r               # e^{i theta}
        # orders +-n together: H_{-n} = (-1)^n H_n, e^{-i n theta} =
        # conj(e^{i n theta}); H_n by upward recurrence (stable for H)
        h_prev, h = hankel1(0, z), hankel1(1, z)
        acc = b[p] * h_prev
        ein = eith
        for n in range(1, p + 1):
            acc += h * (b[p + n] * ein + (-1) ** n * b[p - n] * np.conj(ein))
            if n < p:
                h_prev, h = h, (2.0 * n / z) * h - h_prev
                ein = ein * eith
        out += acc
    return out[0] if np.asarray(points).ndim == 1 else out
