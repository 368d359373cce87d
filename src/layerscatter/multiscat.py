"""Free-space multiple-scattering algebra: multipole (H) and local (J)
expansions, Graf-theorem translation operators, the all-pairs M2L (dense,
or near pairs plus box expansions), the block-preconditioned operator
I - S T, and a standalone homogeneous-background solver.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.special as sp
from numpy.lib.stride_tricks import sliding_window_view

from .special import MAX_ORDER, bessel_j, hankel1, hankel1_01

__all__ = ["ExpansionVector", "ParticleInstance", "m2l", "point_source_local",
           "eval_expansion", "PairCoupling", "rotation_phases",
           "apply_rotated", "order0_block", "solve_free_space",
           "eval_multipole_field", "disk_owners", "COUPLING_TOL",
           "BOX_CROSSOVER"]

# tolerance of the fast couplings: the NUFFT plans and the box M2L.  The
# box M2L sizes P from one Graf tail at this tolerance (``_expansion_order``)
# and ignores p, so its far pass measures 3.6e-7 on band600, not 1e-13
# (ROADMAP aim 3)
COUPLING_TOL = 1e-13
# from this many centres on, PairCoupling applies M2L through boxes.  On 2
# cores the dense build and apply (7 ms + 4 ms at M = 100 on example1) beat
# the boxes (12 + 7 ms) up to M = 150; at M = 200 the boxes are even on
# example1's square region and 2x faster on band600's band
BOX_CROSSOVER = 200
# centres whose boxes are at most this many boxes apart (in x and in y) are
# near; the closest far box centres are then BOX_BUFFER + 1 widths apart
BOX_BUFFER = 2
# largest transformed m2l kernel (bytes) a box width may need
BOX_KERNEL_BYTES = 2 ** 26
# order columns per FFT call of the box m2l
FFT_ORDERS = 8
# near pairs per block of the box field evaluation
PAIR_BLOCK = 2 ** 14
# rows or columns per block of the order-0 block's products and LU: tall
# enough for BLAS to run near full speed (15-row blocks took 2.3-3.0 s at
# M = 2000, 64-row ones 1.7-2.6 s), small enough for small temporaries
BLAS_BLOCK = 64


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
    x0|) about ``center``: the m2l of the order-0 multipole i/4 at x0."""
    source = ExpansionVector(p=0, coeffs=np.array([0.25j]), kind="H",
                             center=tuple(source_point), k=k)
    return m2l(source, center, p)


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


def _polar_hankel(dx, dy, r, k):
    """(k r, e^{i theta}, H_0(k r), H_1(k r)) of displacements (dx, dy) of
    length r: the start of ``_hankel_terms``, for the multipole sum, the
    dense and near-pair M2L and the far box kernel.  H_0 and H_1 come from
    ``hankel1_01``: the real-argument routines for real k."""
    z = k * r
    return (z, (dx + 1j * dy) / r) + hankel1_01(z)


def _hankel_terms(z, eith, h0, h1, order):
    """(q, W_q, W_{-q}) for q = 1..order, each a new array: W_q = H_q(z)
    eith^q, H_q by the upward three-term recurrence (stable for H) from H_0
    and H_1, and W_{-q} = (-1)^q H_q conj(eith^q) = H_q (-conj(eith))^q."""
    hq_prev, hq, pq = h0, h1, eith              # pq = eith^q
    mq = m1 = -np.conj(eith)                    # mq = (-conj(eith))^q
    for q in range(1, order + 1):
        yield q, hq * pq, hq * mq
        if q < order:
            pq, mq = pq * eith, mq * m1
            hq_prev, hq = hq, (2.0 * q / z) * hq - hq_prev


def _translate(betas, z, eith, h0, h1, matmul):
    """sum_q W_q betas, W_q from ``_hankel_terms`` acting on orders
    nu = n + q; ``matmul(w, x)`` multiplies one order's kernel with ``x``."""
    width = betas.shape[1]
    alphas = matmul(h0, betas)
    for q, wq, wmq in _hankel_terms(z, eith, h0, h1, width - 1):
        alphas[:, :width - q] += matmul(wq, betas[:, q:])
        alphas[:, q:] += matmul(wmq, betas[:, :width - q])
    return alphas


def _expansion_order(k, width):
    """Smallest box expansion order P whose Graf tail
    |J_P(k r) H_P(k D)| is at most COUPLING_TOL, with r = sqrt(2) width the
    two box radii together and D = (BOX_BUFFER + 1) width the closest far
    box centres; None above order MAX_ORDER / 2 (the m2l kernel reaches
    order 2P)."""
    P = np.arange(1, MAX_ORDER // 2 + 1)
    # scipy's own functions: the orders past the answer may overflow
    with np.errstate(all="ignore"):
        tail = np.abs(sp.jv(P, k * np.sqrt(2) * width + 0j)
                      * sp.hankel1(P, k * (BOX_BUFFER + 1) * width + 0j))
    ok = np.flatnonzero(tail <= COUPLING_TOL)
    return int(P[ok[0]]) if ok.size else None


def _graf_rows(rel, k, order):
    """J_d(k rho) e^{-i d phi}, d = -order..order, with (rho, phi) the polar
    form of each row of ``rel`` = c - C: the Toeplitz rows of the H->H shift
    from c to C and, reversed with signs (-1)^d, of the J->J shift from C
    back to c.  ``bessel_j`` gives the orders d >= 0, on real arguments
    when Im k = 0, and J_{-d} = (-1)^d J_d the rest."""
    kr = (np.real(k) if np.imag(k) == 0 else k) \
        * np.hypot(rel[:, 0], rel[:, 1])[:, None]
    rows = np.exp(-1j * np.outer(np.arctan2(rel[:, 1], rel[:, 0]),
                                 np.arange(-order, order + 1)))
    pos = bessel_j(np.arange(order + 1), kr)
    rows[:, order:] *= pos
    rows[:, :order] *= pos[:, :0:-1] * (-1.0) ** np.arange(order, 0, -1)
    return rows


def _shift_up(rows, betas):
    """H->H: B_n = sum_nu beta_nu J_{n-nu}(k rho) e^{-i (n-nu) phi}, one
    row per centre; B has order P when ``rows`` has order P + p."""
    return np.einsum("maj,mj->ma",
                     sliding_window_view(rows, betas.shape[1], axis=1),
                     betas[:, ::-1])


def _shift_down(rows, locs):
    """J->J: alpha_n = sum_l L_l J_{l-n}(k rho) e^{i (l-n) phi}, one row per
    centre; alpha has order p when ``locs`` has order P and ``rows`` order
    P + p."""
    half = (rows.shape[1] - 1) // 2
    down = (-1.0) ** np.arange(-half, half + 1) * rows[:, ::-1]
    return np.einsum("mij,mj->mi",
                     sliding_window_view(down, locs.shape[1], axis=1),
                     locs)[:, ::-1]


def _box_cells(points, width):
    """Grid shape and the integer cell of each point on a grid of square
    boxes of side ``width`` centred on the points' bounding box."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    shape = np.floor((hi - lo) / width).astype(int) + 1
    origin = (lo + hi - shape * width) / 2
    cells = np.clip(((points - origin) // width).astype(int), 0, shape - 1)
    return shape, origin, cells


def _near_count(cells, shape):
    """Points of ``cells`` within BOX_BUFFER boxes (in x and in y) of each
    cell of the grid padded by BOX_BUFFER boxes, as a filter along x then y."""
    count = np.zeros(shape + 2 * BOX_BUFFER)
    np.add.at(count, tuple((cells + BOX_BUFFER).T), 1)
    offsets = range(-BOX_BUFFER, BOX_BUFFER + 1)
    count = sum(np.roll(count, d, axis=0) for d in offsets)
    return sum(np.roll(count, d, axis=1) for d in offsets)


def _near_pairs(src_cells, tgt_cells, shape):
    """(target, source) indices of every pair whose cells on a grid of
    ``shape`` are at most BOX_BUFFER apart in x and in y, by cell buckets:
    the sources sorted by cell id, one ``searchsorted`` per neighbour
    offset."""
    ny = shape[1] + 2 * BOX_BUFFER        # no neighbour id wraps onto a row
    src_id = src_cells[:, 0] * ny + src_cells[:, 1]
    by_id = np.argsort(src_id, kind="stable")
    src_id = src_id[by_id]
    tgt_id = tgt_cells[:, 0] * ny + tgt_cells[:, 1]
    tgt, src = [], []
    for dx in range(-BOX_BUFFER, BOX_BUFFER + 1):
        for dy in range(-BOX_BUFFER, BOX_BUFFER + 1):
            nb = tgt_id + (dx * ny + dy)
            lo = np.searchsorted(src_id, nb)
            n = np.searchsorted(src_id, nb, "right") - lo
            tgt.append(np.repeat(np.arange(tgt_id.size), n))
            src.append(by_id[np.repeat(lo - np.cumsum(n) + n, n)
                             + np.arange(n.sum())])
    return np.concatenate(tgt), np.concatenate(src)


def disk_owners(centers, R, points):
    """Index of the first centre closer than R to each point, or -1."""
    owner = np.full(len(points), len(centers))
    if len(centers) and len(points):
        shape, _, cells = _box_cells(np.concatenate([centers, points]), R)
        t, s = _near_pairs(cells[:len(centers)], cells[len(centers):], shape)
        inside = np.hypot(*(points[t] - centers[s]).T) < R
        np.minimum.at(owner, t[inside], s[inside])
    return np.where(owner < len(centers), owner, -1)


def _mean_spacing(points):
    """sqrt(area / count) of the points' bounding box, its thin side
    widened to 1e-3 of its long one."""
    extent = np.ptp(points, axis=0)
    extent = np.maximum(extent, 1e-3 * extent.max())
    return np.sqrt(extent.prod() / len(points))


def _box_plan(centers, k, p, targets, ceiling=np.inf):
    """(cost, width, P) of the cheapest box sum from the centres' order-p
    multipoles to ``targets``, by a count of complex multiply-adds, among
    widths 2^(j/2) times the smaller mean spacing of the centres and of the
    targets, on one grid over both.  The targets are the centres themselves for
    the M2L (order-p locals out), else points (one value out).  Near pairs cost
    (2p+1) per output order each, the H->H shifts (2p+1)(2P+1) per centre, the
    way down (2P+1) per target output order, and the m2l (2P+1)^2 per point of
    the padded grid.  Widths whose transformed m2l kernel would pass
    BOX_KERNEL_BYTES are skipped, and so are, before their near pairs are
    counted, widths whose other costs already reach ``ceiling`` or the best
    cost so far.  None if no width is left (boxes many wavelengths wide, a
    grid too large, or no cost below ``ceiling``)."""
    M, order = len(centers), 2 * p + 1
    out_order = order if targets is centers else 1
    both = np.concatenate([centers, targets])
    span = np.ptp(both, axis=0)
    spacing = min(_mean_spacing(centers), _mean_spacing(targets))
    best = None
    if not spacing > 0:                 # all centres or targets coincide
        return best
    for width in spacing * 2.0 ** (np.arange(9) / 2):
        P = _expansion_order(k, width)
        pad = 2 * (np.floor(span / width) + 1) - 1
        if P is None or pad.prod() * (4 * P + 1) * 16 > BOX_KERNEL_BYTES:
            continue
        cost = M * order * (2 * P + 1) \
            + len(targets) * out_order * (2 * P + 1) \
            + pad.prod() * (2 * P + 1) ** 2
        if cost >= (ceiling if best is None else min(ceiling, best[0])):
            continue
        shape, _, cells = _box_cells(both, width)
        near = _near_count(cells[:M], shape)[tuple((cells[M:] + BOX_BUFFER).T)]
        cost += near.sum() * order * out_order
        if best is None or cost < best[0]:
            best = (cost, width, P)
    return best


def _box_offsets(n):
    """Box offsets 0, 1, ..., -1 of the n points of a padded grid axis, in
    FFT order, as exact integers."""
    return (np.arange(n) + n // 2) % n - n // 2


def _fft_orders(transform, a, pad):
    """``a`` (one row per cell of the ``pad`` grid) with ``transform``
    (``np.fft.fft2`` or ``ifft2``) applied over the cells of each column,
    in place, FFT_ORDERS columns at a time: the result is bitwise that of
    one call, with temporaries a fraction of ``a``."""
    grid = a.reshape(tuple(pad) + (-1,))
    for lo in range(0, grid.shape[2], FFT_ORDERS):
        cols = slice(lo, lo + FFT_ORDERS)
        grid[..., cols] = transform(grid[..., cols], axes=(0, 1))
    return a


def _m2l_kernel(pad, width, k, P):
    """The box-to-box m2l kernel W_q = H_q(k |D|) e^{i q theta_D}, q =
    -2P..2P, at every far box offset D (zero at the near ones) of the
    ``pad`` grid, transformed over the offsets: (prod(pad), 4P + 1)."""
    off = np.stack(np.meshgrid(*map(_box_offsets, pad), indexing="ij"),
                   axis=-1).reshape(-1, 2)
    far = np.abs(off).max(axis=1) > BOX_BUFFER
    kern = np.zeros((off.shape[0], 4 * P + 1), dtype=complex)
    dx, dy = width * off[far].T
    z, eith, h0, h1 = _polar_hankel(dx, dy, np.hypot(dx, dy), k)
    kern[far, 2 * P] = h0
    for q, wq, wmq in _hankel_terms(z, eith, h0, h1, 2 * P):
        kern[far, 2 * P + q] = wq
        kern[far, 2 * P - q] = wmq
    return _fft_orders(np.fft.fft2, kern, pad)


def _box_m2l(kernel, pad, cell, mults):
    """m2l: L_l = sum_n B_n H_{n-l}(k |D|) e^{i (n-l) theta_D}, summed over
    far boxes, as a convolution per order pair; only the box offsets are
    transformed, never the orders.  B sums the order-P multipoles ``mults``
    of the centres in each ``cell`` of the ``pad`` grid; returns L per cell."""
    boxes = np.zeros((kernel.shape[0], mults.shape[1]), dtype=complex)
    np.add.at(boxes, cell, mults)
    loc = np.einsum("fin,fn->fi",
                    sliding_window_view(kernel, boxes.shape[1], axis=1),
                    _fft_orders(np.fft.fft2, boxes, pad))
    return _fft_orders(np.fft.ifft2, loc, pad)[:, ::-1]


class PairCoupling:
    """All-pairs M2L application for a fixed set of instance centers.

    The order-q kernel from source j to target m is W_q = H_q(k |D|)
    e^{i q theta_D}, D = c_m - c_j.  Below BOX_CROSSOVER centres, or when no
    box width has an expansion order, it is regenerated for all M^2 pairs on
    each apply by the three-term Hankel recurrence, fused with the per-order
    matmuls (the dense apply, and the oracle of the box apply).

    From BOX_CROSSOVER centres on, they are sorted into one uniform grid of
    square boxes (``grid`` boxes of side ``width``, chosen by
    ``_box_plan``).  Pairs at most BOX_BUFFER boxes apart are near: they keep
    the recurrence, on stored H_0, H_1 and e^{i theta} of those pairs only,
    with one CSR pattern for all orders.  Far pairs go through order-P
    expansions about the box centres: an H->H shift up to each box, one
    box-to-box m2l kernel per box offset (the grid is translation
    invariant), applied as an FFT convolution over the grid, and a J->J
    shift down to each centre.
    """

    def __init__(self, centers, k, p):
        centers = np.asarray(centers, dtype=float)
        self.M = M = centers.shape[0]
        self.p = p
        self.k = k
        self.grid = self.width = self.P = None
        plan = (_box_plan(centers, k, p, centers) if M >= BOX_CROSSOVER
                else None)
        if plan is None:
            dx, dy = centers.T[:, :, None] - centers.T[:, None, :]
            dist = np.hypot(dx, dy)
            np.fill_diagonal(dist, 1.0)         # kernel argument (diag dummy)
            # D = target - source; row = target, column = source
            self._pairs = _polar_hankel(dx, dy, dist, k)
            # e^{i theta} is 0 on the diagonal, so only W_0 = H_0 needs a zero
            np.fill_diagonal(self._pairs[2], 0.0)
            self.near_pairs = M * (M - 1)
            return
        _, width, P = plan
        self.width, self.P = width, P
        shape, origin, cells = _box_cells(centers, width)
        self.grid = tuple(int(n) for n in shape)

        # near pairs, each unordered pair once: (j, i) has the same |D| and
        # the opposite direction
        i, j = _near_pairs(cells, cells, shape)
        i, j = i[i < j], j[i < j]
        dx, dy = (centers[i] - centers[j]).T
        pairs = _polar_hankel(dx, dy, np.hypot(dx, dy), k)
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((cols, rows))
        self._pairs = tuple(np.concatenate([a, s * a])[order]
                            for a, s in zip(pairs, (1, -1, 1, 1)))
        self._indices = cols[order].astype(np.int32)
        self._indptr = np.searchsorted(rows[order], np.arange(M + 1)) \
            .astype(np.int32)
        self.near_pairs = len(order)

        # far pairs: the shifts between each centre and its box centre
        self._shift = _graf_rows(centers - (origin + (cells + 0.5) * width),
                                 k, P + p)
        # the convolution grid: 2n - 1 points along each axis hold every box
        # offset without wrap-around
        self._pad = tuple(2 * shape - 1)
        self._cell = cells[:, 0] * self._pad[1] + cells[:, 1]
        self._kernel = _m2l_kernel(self._pad, width, k, P)

    def apply_m2l(self, betas):
        """Incoming locals alpha[m, n] = sum_{j != m} sum_nu
        W_{nu-n}(m, j) betas[j, nu]; betas shaped (M, 2p+1)."""
        if self.grid is None:
            return _translate(betas, *self._pairs, np.matmul)
        pattern, M = (self._indices, self._indptr), self.M

        def sparse(w, x):
            return scipy.sparse.csr_matrix((w, *pattern), shape=(M, M)) @ x

        alphas = _translate(betas, *self._pairs, sparse)
        loc = _box_m2l(self._kernel, self._pad, self._cell,
                       _shift_up(self._shift, betas))[self._cell]
        return alphas + _shift_down(self._shift, loc)


def rotation_phases(rotations, p):
    """P[m, n] = e^{i n theta_m}, n = -p..p, for the rotations theta_m."""
    return np.exp(1j * np.outer(rotations, np.arange(-p, p + 1)))


def apply_rotated(smatrix, phases, locs):
    """Row m of the (M, 2p+1) locals times the prototype matrix rotated by
    theta_m: S_theta a = conj(P) (S (P a)), the phase form of
    ``rotate_scattering_matrix``."""
    return np.conj(phases) * ((phases * locs) @ smatrix.entries.T)


def order0_block(centers, k, s00):
    """I - s00 H_0(k |c_m - c_j|), zero H_0 on the diagonal: the order-0 rows
    and columns of the free-space I - S T with S's order-0 row cut to its
    entry s00 (the others are at most 4e-4 of it on example1), (M, M).
    H_0 is symmetric in m and j, so each block of PAIR_BLOCK // M columns
    (at least one) is computed on and below the diagonal and mirrored."""
    M = len(centers)
    out = np.empty((M, M), dtype=complex)
    step = max(1, PAIR_BLOCK // max(M, 1))
    for lo in range(0, M, step):
        blk = slice(lo, lo + step)
        dx = centers[lo:, :1] - centers[blk, 0]
        dy = centers[lo:, 1:] - centers[blk, 1]
        r = np.hypot(dx, dy)
        r[r == 0] = 1.0                 # kernel argument (diagonal dummy)
        out[lo:, blk] = -s00 * _polar_hankel(dx, dy, r, k)[2]
        out[blk, lo:] = out[lo:, blk].T
    np.fill_diagonal(out, 1.0)
    return out


def solve_free_space(centers, rotations, smatrix, incident_locals, tol=1e-6):
    """GMRES solve of (I - S T) beta = S a for a homogeneous background.

    Instance m is the prototype ``smatrix`` (it sets p and k2) at
    ``centers[m]``, rotated by ``rotations[m]``.  ``incident_locals`` is the
    stacked (M, 2p+1) array of incoming local coefficients of the incident
    field about each center.  Right-preconditioned, as the layered solve,
    by the inverse of ``order0_block`` on the order-0 unknowns.
    Returns (betas, residual_history).
    """
    from .solver import gmres, order0_preconditioner

    p, M = smatrix.p, len(centers)
    phases = rotation_phases(rotations, p)
    rhs = apply_rotated(smatrix, phases, incident_locals).ravel()
    coupling = PairCoupling(centers, smatrix.k2, p)
    precond = order0_preconditioner(
        lambda: order0_block(np.asarray(centers, dtype=float), smatrix.k2,
                             smatrix.entries[p, p]), M, p)

    def op(v):
        betas = precond(v).reshape(M, 2 * p + 1)
        return (betas - apply_rotated(smatrix, phases,
                                      coupling.apply_m2l(betas))).ravel()

    x, hist = gmres(op, rhs, tol=tol)
    return precond(x).reshape(M, 2 * p + 1), hist


def _eval_locals(locs, cell, rel, k):
    """sum_l L_l J_l(k rho) e^{i l phi} at each point, L = locs[:, cell]
    (orders -P..P down the rows), (rho, phi) the polar form of ``rel``.
    J_P..J_0 come by the downward recurrence from ``bessel_j`` seeds J_P
    and J_{P-1}, and the sum by Horner's rule in e^{i phi} and, for the
    negative orders (J_{-l} = (-1)^l J_l), in -e^{-i phi}.  Points where
    J_P underflows (rho near 0, e.g. at the box centre) take whole
    ``bessel_j`` rows."""
    P = (locs.shape[0] - 1) // 2
    rho = np.hypot(rel[:, 0], rel[:, 1])
    z = k * rho
    a, b = bessel_j(P, z), bessel_j(P - 1, z)          # J_l, J_{l-1}
    small = np.abs(a) < 1e-290
    z[small], rho[small] = 1.0, 1.0
    w = (rel[:, 0] + 1j * rel[:, 1]) / rho
    mw = -np.conj(w)
    up = dn = 0.0
    for l in range(P, 0, -1):
        up = (up + a * locs[P + l, cell]) * w
        dn = (dn + a * locs[P - l, cell]) * mw
        a, b = b, (2 * (l - 1) / z) * b - a
    out = up + dn + a * locs[P, cell]
    if small.any():
        ls = np.arange(-P, P + 1)
        rel = rel[small]
        rows = bessel_j(ls, k * np.hypot(rel[:, 0], rel[:, 1])[:, None]) \
            * np.exp(1j * np.outer(np.arctan2(rel[:, 1], rel[:, 0]), ls))
        out[small] = np.einsum("ij,ji->i", rows, locs[:, cell[small]])
    return out


def _multipole_sum(dx, dy, R, k, rows, at):
    """sum_n b_n H_n(k r) e^{i n theta}, n = -p..p, elementwise over the
    displacements (dx, dy) from the centres, b_n = rows[p + n][at] gathered
    one order at a time; ValueError for a point in a disk (r < R)."""
    r = np.hypot(dx, dy)
    if np.any(r < R):
        raise ValueError("point inside an enclosing disk; use the "
                         "solver's interior reconstruction")
    p = (len(rows) - 1) // 2
    z, eith, h0, h1 = _polar_hankel(dx, dy, r, k)
    acc = h0 * rows[p][at]
    for n, wn, wmn in _hankel_terms(z, eith, h0, h1, p):
        acc += np.multiply(wn, rows[p + n][at], out=wn)
        acc += np.multiply(wmn, rows[p - n][at], out=wmn)
    return acc


def _eval_boxes(betas, centers, R, k, pts, width, P):
    """The multipole field at ``pts`` through one grid of boxes of side
    ``width`` over the centres and the points: near pairs directly, in
    blocks of at most PAIR_BLOCK pairs, far boxes through an H->H shift
    to each box centre, one FFT m2l and one order-P local expansion per
    point.  Returns the values, the grid shape and the number of near
    pairs."""
    M, p = len(centers), (betas.shape[1] - 1) // 2
    both = np.concatenate([centers, pts])
    shape, origin, cells = _box_cells(both, width)
    rel = both - (origin + (cells + 0.5) * width)
    pad = tuple(2 * shape - 1)
    cell = cells[:, 0] * pad[1] + cells[:, 1]
    locs = _box_m2l(_m2l_kernel(pad, width, k, P), pad, cell[:M],
                    _shift_up(_graf_rows(rel[:M], k, P + p), betas))
    used, cell = np.unique(cell[M:], return_inverse=True)
    locs = np.ascontiguousarray(locs[used].T)
    src, cells, rel = cells[:M], cells[M:], rel[M:]
    bt = np.ascontiguousarray(betas.T)
    near = _near_count(src, shape)[tuple((cells + BOX_BUFFER).T)]
    step = max(1, int(PAIR_BLOCK // max(near.max(), 1)))
    out = np.empty(len(pts), dtype=complex)
    for lo in range(0, len(pts), step):
        blk = slice(lo, lo + step)
        out[blk] = _eval_locals(locs, cell[blk], rel[blk], k)
        t, s = _near_pairs(src, cells[blk], shape)
        dx, dy = (pts[blk][t] - centers[s]).T
        acc = _multipole_sum(dx, dy, R, k, bt, s)
        size = out[blk].size
        out[blk] += np.bincount(t, acc.real, size) \
            + 1j * np.bincount(t, acc.imag, size)
    return out, shape, int(near.sum())


def eval_multipole_field(betas, centers, R, k2, points):
    """Sum of all outgoing multipole fields at exterior points.

    betas: (M, 2p+1), one row per center; points: one point or (n, 2).
    Points inside any enclosing disk (radius R) are rejected (interior
    reconstruction lives in the solver module).  Sums through boxes
    (``_eval_boxes``) where ``_box_plan`` counts fewer multiply-adds than
    the direct sum, (2p+1) per instance and point, and where the boxes are
    wider than R / BOX_BUFFER, so that every point in a disk is in a near
    pair.  The direct sum (the oracle) takes all points against blocks of
    PAIR_BLOCK // points instances, at least one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    betas = np.asarray(betas)
    p = (betas.shape[1] - 1) // 2
    M, T = len(centers), len(pts)
    direct = M * T * (2 * p + 1)
    plan = _box_plan(centers, k2, p, pts, direct) if M > 1 and T else None
    log = logging.getLogger("layerscatter")
    if plan is not None and plan[0] < direct and R < BOX_BUFFER * plan[1]:
        _, width, P = plan
        out, shape, near = _eval_boxes(betas, centers, R, k2, pts, width, P)
        log.debug("multipole field at %d points from %d instances: boxes "
                  "%dx%d of width %.3g, P %d, %d near pairs", T, M, *shape,
                  width, P, near)
    else:
        log.debug("multipole field at %d points from %d instances: "
                  "per instance", T, M)
        out = np.zeros(T, dtype=complex)
        step = max(1, PAIR_BLOCK // max(T, 1))
        for lo in range(0, M, step):
            blk = slice(lo, lo + step)
            dx, dy = pts.T[:, None, :] - centers[blk].T[:, :, None]
            out += _multipole_sum(dx, dy, R, k2, betas.T, (blk, None)).sum(0)
    return out[0] if np.asarray(points).ndim == 1 else out
