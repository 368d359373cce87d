"""Coupling between the interface spectral densities and the particle
expansions: the Sommerfeld-to-local (C block) and multipole-to-Sommerfeld
(B block) operators, each in a direct reference form, from a stored
plane-wave table and in a NUFFT-accelerated form.

Plane-wave factor conventions (certified by the reconstruction oracles in
the tests):

* Jacobi-Anger for a spectral mode in the middle layer:
  e^{+gamma y + i lam x} has local coefficients (i (lam - gamma)/k2)^n and
  e^{-gamma y + i lam x} has (i (lam + gamma)/k2)^n, as genuine n-th powers
  for n of either sign.
* Plane-wave representation of H_n (Graf/Weyl): the per-mode factor is the
  plain power [i (gamma - lam)/k2]^n on the upper interface and
  [-i (lam + gamma)/k2]^n on the lower one, for n of either sign.
"""

import mmap
from dataclasses import dataclass, replace

import numpy as np

from .layers import _mirror_half, gamma
from .multiscat import BLAS_BLOCK, _graf_rows, _shift_up
from .nufft import Nufft3Plan
from .special import bessel_j, bessel_j_prime

__all__ = ["SpectralUpdate", "sommerfeld_to_local_direct", "PlaneWaveTable",
           "multipole_to_sommerfeld_direct", "SommerfeldGridPlan",
           "sommerfeld_to_local_nufft", "MultipoleToSommerfeldPlan"]


# Chebyshev nodes per side of each box of the C block's interpolation grid;
# boxes are at most one middle-layer wavelength wide
GRID_NODES = 16


@dataclass
class SpectralUpdate:
    """Additive contribution of the particle fields to the interface
    right-hand side, per contour node."""
    sigma_plus: np.ndarray     # induced density on the upper interface
    sigma_minus: np.ndarray    # induced density on the lower interface


def _ja_powers(lam, g2, k2, p):
    """Jacobi-Anger factors for up- and downgoing spectral modes."""
    n = np.arange(-p, p + 1)
    up = (1j * (lam - g2) / k2)[:, None] ** n[None, :]
    dn = (1j * (lam + g2) / k2)[:, None] ** n[None, :]
    return up, dn


def _hankel_factors(lam, g2, k2, p):
    """Plane-wave factors of H_n on the upper/lower interface, as genuine
    n-th powers: [i (g2 - lam)/k2]^n and [-i (lam + g2)/k2]^n, which are
    (-1)^n times the Jacobi-Anger factors."""
    sign = (-1.0) ** np.arange(-p, p + 1)
    up, dn = _ja_powers(lam, g2, k2, p)
    return up * sign, dn * sign


def _density_weights(densities, contour, layers, y):
    """Per-node weights of the two middle-layer spectral fields at height y:
    c_plus e^{gamma2 y} and c_minus e^{-gamma2 (y+d)} (quadrature weight and
    1/(4 pi gamma2) included)."""
    g2 = gamma(contour.nodes, layers.k2)
    base = contour.weights / (4 * np.pi * g2)
    cp = base * densities.values[:, 1] * np.exp(np.multiply.outer(y, g2))
    cm = base * densities.values[:, 2] * np.exp(-np.multiply.outer(y + layers.d, g2))
    return cp, cm


def sommerfeld_to_local_direct(densities, contour, layers, centers, p):
    """Local J-expansion coefficients of the middle-layer interface field
    about each center, via the Jacobi-Anger factors; O(M N_S (2p+1))."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    lam = contour.nodes
    g2 = gamma(lam, layers.k2)
    up, dn = _ja_powers(lam, g2, layers.k2, p)
    cp, cm = _density_weights(densities, contour, layers, centers[:, 1])
    osc = np.exp(1j * np.multiply.outer(centers[:, 0] - layers.source[0], lam))
    return (osc * cp) @ up + (osc * cm) @ dn      # (M, 2p+1)


def multipole_to_sommerfeld_direct(betas, centers, contour, layers):
    """Spectral densities induced on the interfaces by all outgoing
    multipole expansions; O(M N_S (2p+1))."""
    betas = np.atleast_2d(np.asarray(betas, dtype=complex))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    p = (betas.shape[1] - 1) // 2
    lam = contour.nodes
    g2 = gamma(lam, layers.k2)
    fup, fdn = _hankel_factors(lam, g2, layers.k2, p)
    phase = np.exp(1j * np.multiply.outer(layers.source[0] - centers[:, 0], lam))
    eup = np.exp(np.multiply.outer(centers[:, 1], g2))
    edn = np.exp(-np.multiply.outer(layers.d + centers[:, 1], g2))
    tu = betas @ fup.T                            # (M, N_S)
    td = betas @ fdn.T
    sp = -4j * (phase * eup * tu).sum(axis=0)
    sm = -4j * (phase * edn * td).sum(axis=0)
    return SpectralUpdate(sigma_plus=sp, sigma_minus=sm)


def _plane_wave_rows(centers, lam, g2, layers, out):
    """A block of rows of the plane-wave table into ``out``, shape
    (2, len(centers), lam.size): e^{i lam (x - x0) + g2 y} and
    e^{i lam (x - x0) - g2 (y + d)} about each of ``centers``, g2 the
    middle-layer gamma of the nodes ``lam`` of a contour that is its own
    mirror (``PlaneWaveTable`` checks it).  The exponentials are taken on
    the right half of the nodes; the left half, in reversed order, has the
    reciprocal phase and, gamma being even, the same vertical factor."""
    h = lam.size // 2
    lam, g2 = lam[h:], g2[h:]
    phase = np.multiply.outer(centers[:, 0] - layers.source[0], 1j * lam)
    np.exp(phase, out=phase)
    inverse = np.reciprocal(phase)[:, ::-1]
    for s, vert in enumerate((centers[:, 1], -(centers[:, 1] + layers.d))):
        right = out[s, :, h:]
        np.multiply.outer(vert, g2, out=right)
        np.exp(right, out=right)
        np.multiply(right[:, ::-1], inverse, out=out[s, :, :h])
        right *= phase


class PlaneWaveTable:
    """B and C, exactly, from one stored table of 32 M N_S bytes,
    E[0, m, j] = e^{i lam_j (x_m - x0) + gamma2_j y_m} and
    E[1, m, j] = e^{i lam_j (x_m - x0) - gamma2_j (y_m + d)}, and the per-node
    factors of C (with the quadrature weight and 1/(4 pi gamma2)) and of B,
    each (2, N_S, 2p+1), upper interface first.  B reads E in reversed node
    order, lam_{N_S-1-j} = -lam_j with gamma2 even, and its rows are built
    from one half of the nodes, so the contour must be its own mirror
    (``_mirror_half``).  E lives in an anonymous memory map, so that its
    pages go back to the system when the table is dropped instead of
    staying in the heap under later allocations (on band600 the coarse
    block's rows kept 9.6 MB on top of the solve's peak)."""

    def __init__(self, contour, layers, centers, p):
        _mirror_half(contour)
        centers = np.asarray(centers, dtype=float)
        lam = contour.nodes
        g2 = gamma(lam, layers.k2)
        base = (contour.weights / (4 * np.pi * g2))[:, None]
        self._c = np.stack([base * f
                            for f in _ja_powers(lam, g2, layers.k2, p)])
        self._b = -4j * np.stack(_hankel_factors(lam, g2, layers.k2, p))
        # a zero-length map is refused; an empty table maps one byte
        nbytes = 32 * len(centers) * lam.size
        self.E = np.ndarray((2, len(centers), lam.size), complex,
                            mmap.mmap(-1, max(nbytes, 1)))
        # a row at a time: blocks of rows raise the solve's peak RSS
        for m in range(len(centers)):
            _plane_wave_rows(centers[m:m + 1], lam, g2, layers,
                             self.E[:, m:m + 1])

    def sommerfeld_to_local(self, densities):
        """As ``sommerfeld_to_local_direct`` at the table's centers."""
        v = densities.values
        return (self.E[0] @ (v[:, 1, None] * self._c[0])
                + self.E[1] @ (v[:, 2, None] * self._c[1]))

    def multipole_to_sommerfeld(self, betas):
        """As ``multipole_to_sommerfeld_direct`` at the table's centers."""
        t = (np.asarray(betas, dtype=complex).T @ self.E)[..., ::-1]
        sp, sm = np.einsum("snj,sjn->sj", t, self._b)
        return SpectralUpdate(sigma_plus=sp, sigma_minus=sm)


def subtract_order0_layered(out, contour, layers, centers, s00, mix):
    """out -= s00 L, L the order-0 block of C A^{-1} B through the plane
    waves E of ``contour`` and s00 the scattering matrix's order-0 entry.

    At order 0 C's node factor is w/(4 pi gamma2), B's is -4i and B reads E
    in reversed node order, so s00 L = sum_s R_s[:, ::-1] E_s^T with
    R_s = sum_a E_a f_sa, f = -4i s00 w/(4 pi gamma2) mix^T and ``mix`` the
    (N_S, 2, 2) map of the sourceless interface solve from (sigma+, sigma-)
    to the middle-layer densities; L is symmetric by reciprocity.  E and
    the factors come from an order-0 ``PlaneWaveTable``, whose memory map
    is released on return.  R comes BLAS_BLOCK rows at a time, and each
    block of rows of L is computed up to the diagonal and mirrored."""
    table = PlaneWaveTable(contour, layers, centers, 0)
    E = table.E
    f = (s00 * table._c[0, :, 0] * table._b[0, :, 0] * mix.T)[..., ::-1]
    for lo in range(0, len(centers), BLAS_BLOCK):
        blk, hi = slice(lo, lo + BLAS_BLOCK), lo + BLAS_BLOCK
        R = f[:, 0, None] * E[0, blk, ::-1] + f[:, 1, None] * E[1, blk, ::-1]
        L = R[0] @ E[0, :hi].T + R[1] @ E[1, :hi].T
        out[blk, :hi] -= L
        out[:lo, blk] -= L[:, :lo].T


# ---------------------------------------------------------------------------
# NUFFT-accelerated C block: field grid + barycentric sampling + projection
# ---------------------------------------------------------------------------

def cheb_nodes(m, a, b):
    """m Chebyshev points of the second kind on [a, b], ascending; ends of
    shape (n, 1) give one row per interval."""
    if m < 2:
        raise ValueError("need m >= 2")
    x = np.cos(np.pi * np.arange(m) / (m - 1))[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def bary_matrix(nodes, targets):
    """Rows of barycentric interpolation weights: (P @ values) interpolates.

    ``nodes`` is one set of m Chebyshev points of the second kind shared by
    every target, or an (n_targets, m) array holding each target's own node
    set.  Exact (a cardinal row) when a target coincides with a node.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    nodes = np.asarray(nodes)
    # the points' barycentric weights: alternating signs, halved at the ends
    w = np.ones(nodes.shape[-1])
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    d = targets[:, None] - nodes
    exact = np.abs(d) < 1e-300
    d = np.where(exact, 1.0, d)
    P = w / d
    P /= P.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    P[hit] = exact[hit].astype(float)
    return P


class SommerfeldGridPlan:
    """Precomputed C-block application for inclusions of enclosing radius
    ``R`` at ``centers``.

    ``apply`` samples the middle-layer interface field and its gradient on
    a tensor grid of Chebyshev boxes covering every enclosing disk: one
    batched type-3 NUFFT per tail segment over all distinct x-abscissas,
    direct (separable, cached-phase) summation for the short vertical
    segment.  The grid depends on the covered region only.  The plan also
    stores what ``sommerfeld_to_local_nufft`` needs to go from the grid to
    the local coefficients: the 2p+1 equispaced sample points on each
    enclosing circle, sorted by box, with their x and y barycentric rows,
    and the Bessel factors of the projection.
    """

    def __init__(self, contour, layers, centers, R, p, tol):
        self.contour = contour
        self.layers = layers
        self.p = p
        centers = np.asarray(centers, dtype=float)
        lam2 = 2 * np.pi / abs(layers.k2)
        # pad the enclosing disks' bounding box by one wavelength, clamped to
        # the middle layer; boxes shrink below lam2 as needed to fit
        # (accuracy only improves with smaller boxes)
        x_lo = centers[:, 0].min() - R - lam2
        x_hi = centers[:, 0].max() + R + lam2
        y_lo = max(centers[:, 1].min() - R - lam2, -layers.d)
        y_hi = min(centers[:, 1].max() + R + lam2, 0.0)
        if y_lo >= y_hi:
            raise ValueError("interpolation grid leaves the middle layer")
        self.n1 = int(np.ceil((x_hi - x_lo) / lam2))
        self.n2 = int(np.ceil((y_hi - y_lo) / lam2))
        wx = (x_hi - x_lo) / self.n1
        wy = (y_hi - y_lo) / self.n2
        i, j = np.arange(self.n1)[:, None], np.arange(self.n2)[:, None]
        xbox = cheb_nodes(GRID_NODES, x_lo + i * wx, x_lo + (i + 1) * wx)
        ybox = cheb_nodes(GRID_NODES, y_lo + j * wy, y_lo + (j + 1) * wy)
        self.xnodes, self.ynodes = xbox.ravel(), ybox.ravel()

        lam = contour.nodes
        self.g2 = gamma(lam, layers.k2)
        self._base = contour.weights / (4 * np.pi * self.g2)
        seg = contour.segments
        self._tails = {s: np.flatnonzero(seg == s) for s in (1, 3)}
        self._mid = np.flatnonzero(seg == 2)
        xs = self.xnodes - layers.source[0]
        self._plans = {}
        self._xside = {}
        for s, idx in self._tails.items():
            self._plans[s] = Nufft3Plan(np.real(lam[idx]), xs, tol=tol)
            # e^{i lam x} = e^{i t x} * e^{-Im(lam) x}; Im lam = -+b per tail
            self._xside[s] = np.exp(-np.imag(lam[idx])[0] * xs)
        # vertical-segment separable factors
        lam_m = lam[self._mid]
        self._mid_x = np.exp(1j * np.multiply.outer(xs, lam_m))   # (nx, nm)
        self._eyp = np.exp(np.multiply.outer(self.ynodes, self.g2))
        self._eym = np.exp(-np.multiply.outer(self.ynodes + layers.d, self.g2))

        # circle samples, sorted by box so that each box's are contiguous
        th = 2 * np.pi * np.arange(2 * p + 1) / (2 * p + 1)
        self._cos, self._sin = np.cos(th), np.sin(th)
        px = (centers[:, 0][:, None] + R * self._cos[None, :]).ravel()
        py = (centers[:, 1][:, None] + R * self._sin[None, :]).ravel()
        bx = np.clip(((px - x_lo) / wx).astype(int), 0, self.n1 - 1)
        by = np.clip(((py - y_lo) / wy).astype(int), 0, self.n2 - 1)
        key = bx * self.n2 + by
        self._order = np.argsort(key, kind="stable")
        bx, by, px, py, key = (a[self._order] for a in (bx, by, px, py, key))
        self._rows_x = bary_matrix(xbox[bx], px)
        self._rows_y = bary_matrix(ybox[by], py)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self._boxes = [(divmod(int(key[s]), self.n2), s, e) for s, e in
                       zip(starts, np.r_[starts[1:], key.size])]
        # projection factors J_n(k2 R) and k2 J'_n(k2 R)
        ns = np.arange(-p, p + 1)
        self._jn = bessel_j(ns, layers.k2 * R + 0j)
        self._jnp = layers.k2 * bessel_j_prime(ns, layers.k2 * R + 0j)

    def apply(self, densities):
        """The interface field u and its gradient (ux, uy) at the grid
        nodes, each an (n1 * GRID_NODES, n2 * GRID_NODES) array."""
        cpl = self._base * densities.values[:, 1]       # per-node, no y yet
        cml = self._base * densities.values[:, 2]
        ny = self.ynodes.size
        nx = self.xnodes.size
        # strengths per (node, y, component); components: u, uy  (ux via i lam)
        cp = cpl[:, None] * self._eyp.T                  # (N_S, ny)
        cm = cml[:, None] * self._eym.T
        u = np.zeros((nx, ny), dtype=complex)
        uy = np.zeros((nx, ny), dtype=complex)
        ux = np.zeros((nx, ny), dtype=complex)
        for s, idx in self._tails.items():
            lam_s = self.contour.nodes[idx]
            g2s = self.g2[idx]
            su = cp[idx] + cm[idx]
            sy = g2s[:, None] * (cp[idx] - cm[idx])
            sx = 1j * lam_s[:, None] * su
            stack = np.concatenate([su, sy, sx], axis=1)  # (nt, 3 ny)
            vals = self._plans[s].apply(stack)            # (nx, 3 ny)
            xf = self._xside[s][:, None]
            u += xf * vals[:, :ny]
            uy += xf * vals[:, ny:2 * ny]
            ux += xf * vals[:, 2 * ny:]
        # vertical segment, separable direct evaluation
        i = self._mid
        u += np.einsum("xj,jy->xy", self._mid_x,
                       cp[i] + cm[i])
        uy += np.einsum("xj,jy->xy", self._mid_x,
                        self.g2[i][:, None] * (cp[i] - cm[i]))
        ux += np.einsum("xj,jy->xy", self._mid_x * (1j * self.contour.nodes[i]),
                        cp[i] + cm[i])
        return u, ux, uy


def sommerfeld_to_local_nufft(plan, values):
    """Local coefficients about every center of ``plan`` from its grid
    ``values`` = (u, ux, uy): each box's values are contracted with the
    stored barycentric rows of its circle samples, and the samples are
    projected robustly onto the local J-expansion,
    a_n = (u_n J_n + u'_n k2 J'_n) / (J_n^2 + (k2 J'_n)^2) with u_n, u'_n
    the Fourier coefficients of the value and radial derivative on the
    enclosing circle; safe at Bessel-function zeros."""
    m = GRID_NODES
    sorted_samples = np.empty((plan._order.size, 3), dtype=complex)
    for (i, j), s, e in plan._boxes:
        v = np.concatenate([f[i * m:(i + 1) * m, j * m:(j + 1) * m]
                            for f in values], axis=1)          # (m, 3m)
        # real rows times complex values, as one real product
        tmp = (plan._rows_x[s:e] @ v.view(float)).view(complex)
        tmp = tmp.reshape(e - s, 3, m)
        sorted_samples[s:e] = (tmp * plan._rows_y[s:e, None, :]).sum(-1)
    samples = np.empty_like(sorted_samples)
    samples[plan._order] = sorted_samples
    nang = plan._cos.size
    u, ux, uy = samples.T.reshape(3, -1, nang)
    dur = ux * plan._cos + uy * plan._sin
    ns = np.arange(-plan.p, plan.p + 1) % nang
    un = np.fft.fft(u, axis=-1)[:, ns] / nang
    upn = np.fft.fft(dur, axis=-1)[:, ns] / nang
    jn, jnp = plan._jn, plan._jnp
    return (un * jn + upn * jnp) / (jn ** 2 + jnp ** 2)


# ---------------------------------------------------------------------------
# NUFFT-accelerated B block: vertical H->H snapping + per-row type-3 NUFFTs
# ---------------------------------------------------------------------------

class MultipoleToSommerfeldPlan:
    """Precomputed B-block application.

    Expansion centers are shifted vertically to the nearest of a set of
    rows spaced at most 0.2/|k2| apart by the box M2L's H->H shift
    (``_graf_rows``, ``_shift_up``), so the y-dependent evanescent factor is
    shared within each row; the x-sums then become Fourier sums evaluated
    by one batched type-3 NUFFT per row and tail segment, each a
    restriction of one plan per tail over all centers.  The horizontal
    coordinates need no snapping (the NUFFT accepts them exactly), and the
    20-node vertical segment, its own mirror, is read from a
    ``PlaneWaveTable`` of its nodes at the exact centers, built once.

    Accuracy contract: accurate only for betas whose order-p content is
    small.  Its relative error against ``multipole_to_sommerfeld_direct``
    is 1e-10 for betas = S applied to locals, but for betas decaying as
    e^{-|n|/2} 2.2e-3 on example1 at M=100, 5.6e-4 at M=1000 and 0.20 on
    band600, because the shift keeps output orders up to p only.
    ``path=nufft`` and ``auto`` above TABLE_BUDGET rely on GMRES vectors
    being physical, and in a solve they are: every vector GMRES passes to B
    lies in the range of S, since the right-hand side is S a and each apply
    returns v - S(.).  Full solves (GMRES tol 1e-10, seed 0) agree with the
    table path to 6.6e-11 in the betas and 3.1e-11 in the field at the
    2,500 band600-probe points (M=600), and to 7.5e-11 and 9.1e-12 on the
    m100-grid grid (example1, M=100).
    """

    def __init__(self, contour, layers, centers, p, tol):
        self.contour = contour
        self.layers = layers
        self.p = p
        centers = np.asarray(centers, dtype=float)
        row_spacing = 0.2 / abs(layers.k2)
        ylo = centers[:, 1].min()
        self.rows_y = ylo + row_spacing * np.arange(
            int(np.floor((centers[:, 1].max() - ylo) / row_spacing)) + 1)
        self.row_of = np.clip(
            np.rint((centers[:, 1] - ylo) / row_spacing).astype(int),
            0, self.rows_y.size - 1)
        occupied = np.unique(self.row_of)
        self.occupied = occupied

        # the H->H shift of each centre c to (x_c, y_row), kept at order p
        self._snap = _graf_rows(
            centers - np.c_[centers[:, 0], self.rows_y[self.row_of]],
            layers.k2, 2 * p)

        lam = contour.nodes
        self.g2 = gamma(lam, layers.k2)
        seg = contour.segments
        self._tails = {s: np.flatnonzero(seg == s) for s in (1, 3)}
        self._fup, self._fdn = _hankel_factors(lam, self.g2, layers.k2, p)
        # per tail, one NUFFT plan whose sources are all the x coordinates
        # and whose targets are the negated tail abscissas (for e^{-i lam x}),
        # restricted to each row's sources
        self._sel = {r: np.flatnonzero(self.row_of == r) for r in occupied}
        self._plans = {}
        self._srcfac = {}
        for s, idx in self._tails.items():
            plan = Nufft3Plan(centers[:, 0], -np.real(lam[idx]), tol=tol)
            self._plans[s] = {r: plan.restrict(sel)
                              for r, sel in self._sel.items()}
            self._srcfac[s] = np.exp(np.imag(lam[idx])[0] * centers[:, 0])
        self._x0phase = np.exp(1j * layers.source[0] * lam)
        mid = seg == 2
        self._mid = np.flatnonzero(mid)
        self._mid_table = PlaneWaveTable(
            replace(contour, nodes=lam[mid], weights=contour.weights[mid],
                    segments=seg[mid]), layers, centers, p)

    def apply(self, betas):
        betas = np.asarray(betas, dtype=complex)
        snapped = _shift_up(self._snap, betas)
        n_nodes = self.contour.nodes.size
        sp = np.zeros(n_nodes, dtype=complex)
        sm = np.zeros(n_nodes, dtype=complex)
        for s, idx in self._tails.items():
            c = snapped * self._srcfac[s][:, None]
            g2, fup, fdn = self.g2[idx], self._fup[idx], self._fdn[idx]
            for r, sel in self._sel.items():
                G = self._plans[s][r].apply(c[sel])      # (n_tail, 2p+1)
                # the row's evanescent factors on the two interfaces
                y = self.rows_y[r]
                sp[idx] += np.exp(y * g2) * (G * fup).sum(1)
                sm[idx] += (np.exp(-(self.layers.d + y) * g2)
                            * (G * fdn).sum(1))
        sp *= -4j * self._x0phase
        sm *= -4j * self._x0phase
        # vertical segment: exact (unsnapped) centers
        mid = self._mid_table.multipole_to_sommerfeld(betas)
        sp[self._mid] = mid.sigma_plus
        sm[self._mid] = mid.sigma_minus
        return SpectralUpdate(sigma_plus=sp, sigma_minus=sm)
