"""Single-inclusion machinery: boundary parametrization, the Muller
transmission integral equations discretized by a Nystrom method with
high-order corrections for the logarithmic singularity, and scattering
matrices (analytic for disks, numerical for arbitrary smooth shapes).
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _logquad16
from .quadrature import trig_interp_matrix
from .special import (bessel_j, bessel_j_prime, hankel1, hankel1_01,
                      hankel1_prime)

__all__ = ["ShapeParams", "BoundaryDiscretization", "ScatteringMatrix",
           "PrecomputedDensities", "shape_curve", "discretize_boundary",
           "assemble_muller", "scattering_matrix_nystrom",
           "scattering_matrix_disk", "rotate_scattering_matrix",
           "shape_fingerprint"]


@dataclass(frozen=True)
class ShapeParams:
    """Star-shaped boundary rho(t) = a1 + a2 cos(a3 t) and its material."""
    a1: float
    a2: float
    a3: int
    kp: complex
    N: int = 300

    def __post_init__(self):
        if not (self.a1 > self.a2 >= 0):
            raise ValueError("need a1 > a2 >= 0 for a simple closed curve")
        if self.a3 != int(self.a3) or self.a3 < 0:
            raise ValueError("a3 must be a nonnegative integer")
        if self.N < 64:
            raise ValueError("need N >= 64 boundary points")
        if self.kp == 0:
            raise ValueError("need kp != 0 inside the inclusion")


@dataclass
class BoundaryDiscretization:
    """Equispaced-parameter Nystrom grid on a smooth closed curve."""
    params: ShapeParams
    t: np.ndarray          # parameter values, 2 pi i / N
    nodes: np.ndarray      # (N, 2)
    normals: np.ndarray    # (N, 2) unit outward
    speed: np.ndarray      # |dx/dt|
    h: float               # parameter step 2 pi / N


@dataclass
class ScatteringMatrix:
    """Map from incoming J-expansion coefficients to outgoing H-expansion
    coefficients, both ordered n = -p..p."""
    p: int
    entries: np.ndarray    # (2p+1, 2p+1); entries[l, n]: mode n -> mode l
    R: float               # enclosing-disk radius
    k2: complex
    kp: complex
    fingerprint: bytes

    def __post_init__(self):
        m = 2 * self.p + 1
        if self.entries.shape != (m, m):
            raise ValueError("entries must be (2p+1) x (2p+1)")


@dataclass
class PrecomputedDensities:
    """Boundary densities (mu_n, sigma_n) for each incident mode n."""
    p: int
    mu: np.ndarray         # (N, 2p+1)
    sigma: np.ndarray      # (N, 2p+1)


def shape_curve(params, t):
    """Position, unit tangent, unit outward normal and speed at parameter t.

    The curve is x(t) = rho(t) (cos t, sin t) with rho = a1 + a2 cos(a3 t),
    traversed counterclockwise.
    """
    t = np.asarray(t, dtype=float)
    a1, a2, a3 = params.a1, params.a2, params.a3
    rho = a1 + a2 * np.cos(a3 * t)
    drho = -a2 * a3 * np.sin(a3 * t)
    ct, st = np.cos(t), np.sin(t)
    pos = np.stack([rho * ct, rho * st], axis=-1)
    dx = drho * ct - rho * st
    dy = drho * st + rho * ct
    speed = np.hypot(dx, dy)
    if np.any(speed < 1e-12):
        raise ValueError("degenerate parametrization (zero speed)")
    tangent = np.stack([dx, dy], axis=-1) / speed[..., None]
    normal = np.stack([dy, -dx], axis=-1) / speed[..., None]
    return pos, tangent, normal, speed


def discretize_boundary(params):
    """Equispaced-in-parameter boundary grid with analytic geometry."""
    t = 2.0 * np.pi * np.arange(params.N) / params.N
    pos, _, normal, speed = shape_curve(params, t)
    return BoundaryDiscretization(params=params, t=t, nodes=pos,
                                  normals=normal, speed=speed,
                                  h=2.0 * np.pi / params.N)


def _difference_kernels(xt, nt, ys, ns, k2, kp, active=None):
    """The four Muller difference kernels S/D/N/T (background minus
    inclusion wavenumber) for target points xt (with normals nt) against
    source points ys (with normals ns); shapes broadcast.

    ``active`` masks out entries that the quadrature rule will not use
    (e.g. the coincident diagonal), avoiding Hankel evaluation at r = 0.
    """
    d = xt - ys
    r = np.hypot(d[..., 0], d[..., 1])
    if active is None:
        active = np.ones(r.shape, dtype=bool)
    rs = np.where(active, r, 1.0)
    if np.any(rs <= 0):
        raise ValueError("coincident target/source point in active kernel set")
    h0a, h1a = hankel1_01(k2 * rs)
    h0b, h1b = hankel1_01(kp * rs)
    dh1 = k2 * h1a - kp * h1b               # difference of k H1(k r)
    dh0w = k2 ** 2 * h0a - kp ** 2 * h0b    # difference of k^2 H0(k r)
    dnx = (d * nt).sum(-1)
    dny = (d * ns).sum(-1)
    nn = (nt * ns).sum(-1)
    kS = 0.25j * (h0a - h0b)
    kD = 0.25j * dh1 * dny / rs
    kN = -0.25j * dh1 * dnx / rs
    kT = (0.25j * (dh0w / rs - 2.0 * dh1 / rs ** 2) * dnx * dny / rs
          + 0.25j * dh1 / rs * nn)
    z = active.astype(float)
    return kS * z, kD * z, kN * z, kT * z


def assemble_muller(boundary, k2, kp):
    """Dense 2N x 2N Nystrom matrix for the Muller transmission system.

    Unknown ordering (mu, sigma); block rows are the value-continuity
    equation  mu + [S - S] sigma + [D - D] mu  and the derivative-continuity
    equation  -sigma + [N - N] sigma + [T - T] mu.  The difference kernels
    are only logarithmically singular, handled by the hybrid trapezoidal
    rule with order-16 endpoint corrections (``_logquad16``): the grid
    nodes within OFFSET spacings of each target are replaced by the
    correction nodes t_i +- CHI h with weights WTS h.  Density values at
    the off-grid correction nodes come from trigonometric interpolation.
    N >= 64 (``ShapeParams``) keeps the two-sided windows from overlapping.
    """
    N = boundary.params.N
    h = boundary.h
    a = _logquad16.OFFSET
    x, nx, sp, t = boundary.nodes, boundary.normals, boundary.speed, boundary.t

    # --- regular trapezoidal part: all grid pairs outside the exclusion band
    diff_idx = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
    active = (diff_idx >= a) & (diff_idx <= N - a)
    kS, kD, kN, kT = _difference_kernels(
        x[:, None, :], nx[:, None, :], x[None, :, :], nx[None, :, :],
        k2, kp, active)
    wreg = h * sp[None, :] * active
    A11 = kD * wreg
    A12 = kS * wreg
    A21 = kT * wreg
    A22 = kN * wreg

    # --- correction part: off-grid nodes at t_i +- chi_m h
    chi = _logquad16.CHI
    delta = np.concatenate([chi, -chi]) * h              # (2m,)
    wcor = np.tile(_logquad16.WTS, 2) * h                # (2m,)
    tc = t[:, None] + delta[None, :]                     # (N, 2m)
    yc, _, nc, spc = shape_curve(boundary.params, tc)
    cS, cD, cN, cT = _difference_kernels(
        x[:, None, :], nx[:, None, :], yc, nc, k2, kp)
    P = trig_interp_matrix(N, np.remainder(delta, 2 * np.pi))   # (2m, N)
    roll = (np.arange(N)[None, :] + np.arange(N)[:, None]) % N  # [i, q] = q+i
    rows = np.arange(N)[:, None]
    for blk, ker in ((A11, cD), (A12, cS), (A21, cT), (A22, cN)):
        base = (ker * (wcor[None, :] * spc)) @ P         # (N, N), columns rel. to i
        blk[rows, roll] += base

    A = np.empty((2 * N, 2 * N), dtype=complex)
    A[:N, :N] = A11 + np.eye(N)
    A[:N, N:] = A12
    A[N:, :N] = A21
    A[N:, N:] = A22 - np.eye(N)
    return A


def _cylindrical_modes(boundary, k2, p):
    """J_n(k2 r) e^{i n theta} and its normal derivative at the boundary
    nodes, n = -p..p about the origin; each (N, 2p+1)."""
    x = boundary.nodes
    r = np.hypot(x[:, 0], x[:, 1])
    th = np.arctan2(x[:, 1], x[:, 0])
    ns = np.arange(-p, p + 1)
    jn = bessel_j(ns[None, :], (k2 * r)[:, None])
    jnp = bessel_j_prime(ns[None, :], (k2 * r)[:, None])
    phase = np.exp(1j * np.outer(th, ns))
    rhat = np.stack([np.cos(th), np.sin(th)], axis=-1)
    that = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    nr = (boundary.normals * rhat).sum(-1)
    nt = (boundary.normals * that).sum(-1)
    dudn = (k2 * jnp * nr[:, None]
            + (1j * ns[None, :] / r[:, None]) * jn * nt[:, None]) * phase
    return jn * phase, dudn


def _multipole_projection(boundary, k2, p):
    """Weights turning boundary densities into outgoing H-expansion
    coefficients: beta_l = (i/4) integral [ J_l(k2 r) e^{-i l th} sigma
    + n . grad(J_l(k2 r) e^{-i l th}) mu ] ds (Graf addition theorem).
    J_l e^{-i l th} = (-1)^l J_{-l} e^{-i l th} is the incident mode of
    order -l times (-1)^l."""
    u, dudn = _cylindrical_modes(boundary, k2, p)
    w = 0.25j * (boundary.h * boundary.speed)[:, None] \
        * (-1.0) ** np.arange(-p, p + 1)
    return w * u[:, ::-1], w * dudn[:, ::-1]   # beta_l = sum over column l


def shape_fingerprint(params):
    """Stable identifier of the discretized geometry (not the material)."""
    blob = repr((float(params.a1), float(params.a2), int(params.a3),
                 int(params.N))).encode()
    return hashlib.sha256(blob).digest()


def enclosing_radius(boundary):
    """The prototype's enclosing radius: 1.1 times its largest node radius."""
    return float(1.1 * np.hypot(*boundary.nodes.T).max())


def scattering_matrix_nystrom(boundary, k2, kp, p):
    """Scattering matrix of a smooth inclusion by solving the Muller system
    for each incident cylindrical mode and projecting onto the outgoing
    multipole basis; returns it and the per-mode boundary densities."""
    A = assemble_muller(boundary, k2, kp)
    rhs = -np.concatenate(_cylindrical_modes(boundary, k2, p))  # -u, -du/dn
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Nystrom factorization failed: {exc}") from exc
    # |x| <= |A^-1| |b|, so this ratio is a lower bound on cond(A); written
    # as "not <=" so that a non-finite solution fails it too
    if not (np.abs(A).sum(1).max() * np.abs(sol).max()
            <= 1e13 * np.abs(rhs).max()):
        raise RuntimeError("numerically singular Nystrom system")
    dens = PrecomputedDensities(p, *np.split(sol, 2))
    w_sigma, w_mu = _multipole_projection(boundary, k2, p)
    entries = w_sigma.T @ dens.sigma + w_mu.T @ dens.mu
    S = ScatteringMatrix(p=p, entries=entries, R=enclosing_radius(boundary),
                         k2=k2, kp=kp,
                         fingerprint=shape_fingerprint(boundary.params))
    return S, dens


def _disk_fingerprint(Rdisk):
    return hashlib.sha256(repr(("disk", float(Rdisk))).encode()).digest()


def scattering_matrix_disk(Rdisk, k2, kp, p):
    """Analytic (diagonal) scattering matrix of a dielectric disk, from the
    per-mode 2x2 continuity system solved directly."""
    if not (np.real(k2) > 0 and np.real(kp) > 0):
        raise ValueError("need Re k2 > 0 and Re kp > 0")
    ns = np.arange(-p, p + 1)
    s = np.empty(ns.size, dtype=complex)
    for i, n in enumerate(ns):
        A = np.array([[-hankel1(n, k2 * Rdisk), bessel_j(n, kp * Rdisk)],
                      [-k2 * hankel1_prime(n, k2 * Rdisk),
                       kp * bessel_j_prime(n, kp * Rdisk)]])
        b = np.array([bessel_j(n, k2 * Rdisk),
                      k2 * bessel_j_prime(n, k2 * Rdisk)])
        s[i] = np.linalg.solve(A, b)[0]
    return ScatteringMatrix(p=p, entries=np.diag(s), R=float(Rdisk), k2=k2,
                            kp=kp, fingerprint=_disk_fingerprint(Rdisk))


def rotate_scattering_matrix(S, theta):
    """Scattering matrix of the same shape rotated by theta: conjugation by
    the diagonal phases that rotate cylindrical harmonics."""
    ns = np.arange(-S.p, S.p + 1)
    phase = np.exp(1j * np.subtract.outer(-ns, -ns) * theta)  # e^{i(n-l)theta}
    return ScatteringMatrix(p=S.p, entries=S.entries * phase, R=S.R, k2=S.k2,
                            kp=S.kp, fingerprint=S.fingerprint)
