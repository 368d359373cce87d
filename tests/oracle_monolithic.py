"""Monolithic dense discretization of few-particle layered problems.

Reference solver for cross-validating the Schur-complement pipeline: the
Muller densities (mu, sigma) on every particle boundary and the four
interface spectral densities at every contour node are solved as one dense
linear system, with all couplings written out explicitly.  It shares only
the contour and the per-mode 4x4 interface matrix with the production
path; the particle discretization, the particle-to-interface and
interface-to-particle couplings, and the field evaluation are all direct
(no scattering matrices, no multipole expansions, no Schur reduction).
"""
import numpy as np

from layerscatter.layers import (SpectralDensities, eval_sommerfeld_field,
                                 gamma, incident_rhs, interface_matrix)
from layerscatter.particle import assemble_muller, discretize_boundary, \
    shape_curve
from layerscatter.special import hankel1


def rotated_geometry(params, rot, center):
    t = 2 * np.pi * np.arange(params.N) / params.N
    pos, _, nrm, speed = shape_curve(params, t)
    c, s = np.cos(rot), np.sin(rot)
    Rm = np.array([[c, -s], [s, c]])
    return pos @ Rm.T + np.array(center), nrm @ Rm.T, speed


def potential_blocks(k, src_nodes, src_normals, wts, targets):
    """Single/double layer values and gradients: four (ntarg, nsrc) blocks
    (S, D, gradS_x/y, gradD_x/y)."""
    d = targets[:, None, :] - src_nodes[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    h0 = hankel1(0, k * r + 0j)
    h1 = hankel1(1, k * r + 0j)
    S = 0.25j * h0 * wts[None, :]
    cosn = (d * src_normals[None, :, :]).sum(-1) / r
    D = 0.25j * k * h1 * cosn * wts[None, :]
    gS = -0.25j * k * (h1 / r)[..., None] * d * wts[None, :, None]
    fp = 0.25j * k * (r * k * h0 - 2 * h1) / r ** 3       # f'(r)/r
    f = 0.25j * k * h1 / r
    dotn = (d * src_normals[None, :, :]).sum(-1)
    gD = (fp * dotn)[..., None] * d + f[..., None] * src_normals[None, :, :]
    gD = gD * wts[None, :, None]
    return S, D, gS, gD


def solve_monolithic(layers, contour, params, centers, rots, probes):
    k2, kp, d = layers.k2, params.kp, layers.d
    N = params.N
    ns = len(contour)
    lam = contour.nodes
    g2 = gamma(lam, k2)
    x0 = layers.source[0]

    geo = [rotated_geometry(params, r, c) for c, r in zip(centers, rots)]
    A = assemble_muller(discretize_boundary(params), k2, kp)

    nzd = 2 * N            # density unknowns per particle (mu then sigma)
    ntot = 2 * nzd + 4 * ns
    Z = np.zeros((ntot, ntot), dtype=complex)
    f = np.zeros(ntot, dtype=complex)

    def dslice(m):
        return slice(m * nzd, (m + 1) * nzd)

    sv = slice(2 * nzd, ntot)      # svec, ordered (sigma1, s2+, s2-, sigma3)

    # --- Muller rows
    for m, (nodes, nrm, speed) in enumerate(geo):
        Z[dslice(m), dslice(m)] = A
        # interface-field coupling: the upper (col 1) and lower (col 2)
        # middle-layer fields of svec
        x, y = nodes[:, 0], nodes[:, 1]
        core = contour.weights / (4 * np.pi)
        osc = np.exp(1j * np.multiply.outer(x - x0, lam))
        for col, vert, dv in ((1, np.exp(np.multiply.outer(y, g2)) / g2, g2),
                              (2, np.exp(-np.multiply.outer(y + d, g2)) / g2,
                               -g2)):
            base = osc * vert * core[None, :]
            u = base                                  # (N, ns)
            dudn = base * (1j * lam)[None, :] * nrm[:, 0][:, None] \
                + base * dv[None, :] * nrm[:, 1][:, None]
            cols = sv.start + col + 4 * np.arange(ns)
            Z[np.arange(m * nzd, m * nzd + N)[:, None], cols[None, :]] += u
            Z[np.arange(m * nzd + N, (m + 1) * nzd)[:, None],
              cols[None, :]] += dudn
        # other-particle coupling
        for mo, (onodes, onrm, ospeed) in enumerate(geo):
            if mo == m:
                continue
            wts = 2 * np.pi / N * ospeed
            S, D, gS, gD = potential_blocks(k2, onodes, onrm, wts, nodes)
            dudnS = (gS * nrm[:, None, :]).sum(-1)
            dudnD = (gD * nrm[:, None, :]).sum(-1)
            # density ordering (mu, sigma): u = D mu + S sigma
            Z[m * nzd:m * nzd + N, mo * nzd:mo * nzd + N] += D
            Z[m * nzd:m * nzd + N, mo * nzd + N:(mo + 1) * nzd] += S
            Z[m * nzd + N:(m + 1) * nzd, mo * nzd:mo * nzd + N] += dudnD
            Z[m * nzd + N:(m + 1) * nzd, mo * nzd + N:(mo + 1) * nzd] += dudnS

    # --- interface rows: M4 svec - E dens = rhs0
    for j in range(ns):
        rows = sv.start + 4 * j + np.arange(4)
        Z[rows[:, None], (sv.start + 4 * j + np.arange(4))[None, :]] = \
            interface_matrix(lam[j], layers)
        f[rows] = incident_rhs(lam[j], layers)
    for m, (nodes, nrm, speed) in enumerate(geo):
        wq = 2 * np.pi / N * speed
        xq, yq = nodes[:, 0], nodes[:, 1]
        osc = np.exp(1j * np.multiply.outer(lam, x0 - xq))     # (ns, N)
        up = osc * np.exp(np.multiply.outer(g2, yq))
        dn = osc * np.exp(-np.multiply.outer(g2, d + yq))
        # sigma columns
        sp_sig = up * wq[None, :]
        sm_sig = dn * wq[None, :]
        # mu columns
        sp_mu = up * ((-1j * lam)[:, None] * nrm[:, 0][None, :]
                      + g2[:, None] * nrm[:, 1][None, :]) * wq[None, :]
        sm_mu = dn * ((-1j * lam)[:, None] * nrm[:, 0][None, :]
                      - g2[:, None] * nrm[:, 1][None, :]) * wq[None, :]
        for sp, sm, cols in ((sp_mu, sm_mu,
                              np.arange(m * nzd, m * nzd + N)),
                             (sp_sig, sm_sig,
                              np.arange(m * nzd + N, (m + 1) * nzd))):
            extra = np.stack([sp / g2[:, None], -sm / g2[:, None], sp, -sm],
                             axis=1)        # (ns, 4, N)
            rows = sv.start + (4 * np.arange(ns)[:, None, None]
                               + np.arange(4)[None, :, None])
            Z[rows, cols[None, None, :]] -= extra

    z = np.linalg.solve(Z, f)
    dens = [z[dslice(m)] for m in range(len(geo))]
    svec = z[sv].reshape(ns, 4)

    # --- field at probes
    sd = SpectralDensities(values=svec)
    probes = np.asarray(probes, dtype=float)
    u = eval_sommerfeld_field(sd, contour, layers, probes)
    midm = (probes[:, 1] < 0) & (probes[:, 1] >= -d)
    if midm.any():
        pm = probes[midm]
        for m, (nodes, nrm, speed) in enumerate(geo):
            wts = 2 * np.pi / N * speed
            S, D, _, _ = potential_blocks(k2, nodes, nrm, wts, pm)
            u[midm] += D @ dens[m][:N] + S @ dens[m][N:]
    return u, dens, svec
