"""Spectral (Sommerfeld-integral) machinery for the three-layer medium.

The scattered field in each layer is represented by a Fourier-type contour
integral with one unknown spectral density per interface side.  The
integration contour is deformed off the real axis into the second and
fourth quadrants to avoid the square-root branch points at +-k_i, and each
value of the spectral parameter decouples into a 4x4 interface system.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .quadrature import gauss_legendre

__all__ = ["LayerStack", "SommerfeldContour", "SpectralDensities", "gamma",
           "build_contour_adaptive", "interface_matrix", "incident_rhs",
           "InterfaceSolver", "eval_sommerfeld_field", "layered_sum_paths",
           "sommerfeld_point_source"]

MIN_BRANCH_DISTANCE = 0.05
# distance of the horizontal tails from the real axis, and the node count of
# the vertical segment that joins them
CONTOUR_B = 0.2
N_MID = 20
# the tails end where the slowest-decaying evanescent factor is this small
CONTOUR_TOL = 1e-12
# tail nodes per oscillation of e^{i lam dx} across a panel, and the largest
# Gauss-Legendre rule (the cost of ``leggauss`` grows faster than n)
N_PER_OSC = 3
MAX_RULE = 64
# element budget of each (points x nodes) temporary of the spectral sum; the
# row dots split it between the blocks in flight
CHUNK_ELEMENTS = 2 ** 20


def usable_cores():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def in_blocks(fn, n, size):
    """fn(slice) over range(n) in blocks of size // usable_cores() items (at
    least 1), one thread per core, or inline for one block or one core.
    numpy and scipy's ufuncs release the interpreter lock, so blocks that
    each write their own slice of preallocated arrays run in parallel with
    results equal to the serial ones; the blocks in flight together stay
    within ``size``.  An error in a block reaches the caller.  The pool
    lives for this call only: threads kept between calls would be missing
    in a forked child, whose next call would wait on them forever.  fn must
    not call in_blocks again."""
    workers = usable_cores()
    step = max(1, size // workers)
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    workers = min(workers, len(blocks))
    if workers <= 1:
        for sl in blocks:
            fn(sl)
        return
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(fn, blocks):
            pass


@dataclass(frozen=True)
class LayerStack:
    """Wavenumbers of the three layers, middle-layer depth, and the source.

    Layer 1 occupies y > 0, layer 2 the slab -d < y < 0, layer 3 y < -d.
    The point source sits at ``source`` in the top layer, roughly 0.2
    wavelengths or more above the upper interface (enforced with a 25%
    slack so that e.g. height 1 at k1 = 1 is admitted).
    """
    k1: complex
    k2: complex
    k3: complex
    d: float
    source: tuple

    def __post_init__(self):
        for k in (self.k1, self.k2, self.k3):
            if not (np.real(k) > 0 and np.imag(k) >= 0):
                raise ValueError(f"wavenumber {k} must have Re k > 0, Im k >= 0")
        if not self.d > 0:
            raise ValueError("middle-layer depth d must be positive")
        y0 = self.source[1]
        standoff = 0.75 * 0.2 * 2 * np.pi / np.real(self.k1)
        if y0 < standoff:
            raise ValueError(
                f"source height {y0} below the 0.2-wavelength standoff {standoff:.4g}")

    @property
    def ks(self):
        return (self.k1, self.k2, self.k3)


@dataclass(frozen=True)
class SommerfeldContour:
    """Deformed contour: two horizontal tails at Im = -+b joined by a
    vertical segment through the origin."""
    b: float
    t_max: float
    nodes: np.ndarray      # complex lambda_j, in traversal order
    weights: np.ndarray    # complex, direction times Gauss-Legendre weight
    segments: np.ndarray   # 1, 2 or 3 per node
    tail_rules: tuple = ()  # rule size of each sub-panel of one tail

    def __len__(self):
        return self.nodes.size


@dataclass
class SpectralDensities:
    """Per contour node, the 4-vector (sigma1, sigma2+, sigma2-, sigma3)."""
    values: np.ndarray     # shape (n_nodes, 4)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite spectral density")


def gamma(lam, k):
    """Vertical wavenumber root sqrt(lam^2 - k^2).

    Branch cuts run vertically upward from +k and downward from -k, so the
    function is continuous along the deformed contour.  On the real axis
    between the branch points the value is -i sqrt(k^2 - lam^2) (decaying
    evanescent modes, outgoing propagating modes); for large real lam it is
    +|lam|.
    """
    lam = np.asarray(lam, dtype=complex)
    a = 1j * (lam - k)          # cut of sqrt(lam - k) rotated to point up
    b = -1j * (lam + k)         # cut of sqrt(lam + k) rotated to point down
    for w in (a, b):
        bad = (np.real(w) < 0) & (np.imag(w) == 0)
        if np.any(bad):
            raise ValueError("lambda lies on a branch cut")
    s1 = np.exp(-1j * np.pi / 4) * np.sqrt(a)
    s2 = np.exp(1j * np.pi / 4) * np.sqrt(b)
    return s1 * s2


def _tail_edges(ks, b, t_max):
    """Panel edges on [0, t_max], graded toward each branch-point abscissa
    |k_i| (where the integrand has curvature on the scale of b) and widening
    geometrically in between."""
    marks = {0.0, t_max}
    for ka in sorted({abs(k) for k in ks}):
        for e in (ka - 2 * b, ka - 0.5 * b, ka + 0.5 * b, ka + 2 * b, ka + 8 * b):
            if 0 < e < t_max:
                marks.add(e)
    marks = sorted(marks)
    edges = [marks[0]]
    for lo, hi in zip(marks[:-1], marks[1:]):
        gap = hi - lo
        nsub = max(1, int(np.ceil(np.log2(gap / (4 * b)))))
        for j in range(1, nsub):
            edges.append(lo + gap * (2 ** j - 1) / (2 ** nsub - 1))
        edges.append(hi)
    return np.array(edges)


def _tail_rule(edges, t_max, max_horiz):
    """Nodes, weights and rule sizes of the Gauss-Legendre rule on the tail
    panels ``edges``.  Panel j gets base + ceil(N_PER_OSC * width_j *
    max_horiz / 2 pi) nodes, base the equal share of max(240, 2 t_max)
    (at least 6); a panel over MAX_RULE nodes is split into equal
    sub-panels of at most MAX_RULE nodes.  One ``gauss_legendre`` call per
    rule size."""
    widths = np.diff(edges)
    floor = max(240, int(np.ceil(2.0 * t_max)))
    base = max(6, int(np.ceil(floor / widths.size)))
    n = base + np.ceil(N_PER_OSC * widths * max_horiz / (2 * np.pi)).astype(int)
    split = -(-n // MAX_RULE)
    ends = [np.linspace(a, b, s + 1)
            for a, b, s in zip(edges[:-1], edges[1:], split)]
    lo = np.concatenate([e[:-1] for e in ends])
    hi = np.concatenate([e[1:] for e in ends])
    sizes = np.repeat(-(-n // split), split)
    start = np.concatenate([[0], np.cumsum(sizes)])
    t, w = np.empty(start[-1]), np.empty(start[-1])
    for size in np.unique(sizes):
        sel = sizes == size
        idx = start[:-1][sel][:, None] + np.arange(size)
        t[idx], w[idx] = gauss_legendre(size, lo[sel], hi[sel])
    return t, w, tuple(sizes.tolist())


def build_contour_adaptive(layers, min_vertical_sep, max_horiz=0.0):
    """Gauss-Legendre discretization of the three-segment contour, sized
    for a given worst-case vertical separation.

    The horizontal tails run to t_max = max|k_i| + pad, where the
    evanescent factor e^{-t * sep} falls below CONTOUR_TOL (with a safety
    margin; pad >= 20).  Each is split into panels graded toward the
    branch-point abscissas |k_i| (at distance b = CONTOUR_B above/below the
    tails the integrand varies on that scale).  Every panel gets an equal
    share of max(240, 2 t_max) nodes and, if ``max_horiz`` (the largest
    |x - x0| to be evaluated) is given, N_PER_OSC more per oscillation of
    e^{i lam dx} across its own width; panels over MAX_RULE nodes are split
    into equal sub-panels (``_tail_rule``).  The short vertical segment
    gets a single N_MID-point panel.  The left tail is the right tail's
    exact mirror, so that nodes[::-1] == -nodes and weights[::-1] ==
    weights hold by construction on the tails.
    """
    if min_vertical_sep <= 0:
        raise ValueError("need a positive vertical separation")
    b = CONTOUR_B
    pad = max(20.0, -np.log(CONTOUR_TOL * 1e-2) / min_vertical_sep)
    t_max = max(abs(k) for k in layers.ks) + pad
    edges = _tail_edges(layers.ks, b, t_max)

    # Gamma_1: lambda = t - ib, t from 0 to t_max
    t, w, rules = _tail_rule(edges, t_max, max_horiz)
    tail, tail_w = t - 1j * b, w.astype(complex)
    # Gamma_2: lambda = it, t from b down to -b  => d(lambda) = -i dt (ascending t)
    t, w = gauss_legendre(N_MID, -b, b)
    # Gamma_3 (lambda = t + ib, t from -t_max to 0) mirrors Gamma_1
    contour = SommerfeldContour(
        b=b, t_max=t_max,
        nodes=np.concatenate([-tail[::-1], 1j * t, tail]),
        weights=np.concatenate([tail_w[::-1], -1j * w, tail_w]),
        segments=np.repeat([3, 2, 1], [tail.size, N_MID, tail.size]),
        tail_rules=rules)
    for k in layers.ks:
        dist = np.abs(contour.nodes[:, None] - np.array([k, -k])[None, :]).min()
        if dist < MIN_BRANCH_DISTANCE:
            raise ValueError(
                f"contour passes within {dist:.3g} of a branch point of k={k}")
    return contour


def interface_matrix(lam, layers):
    """The 4x4 per-mode system enforcing value and derivative continuity of
    the no-particle field at y = 0 and y = -d; for an array of nodes, one
    block per node, shape (..., 4, 4).

    Unknown ordering: (sigma1, sigma2+, sigma2-, sigma3).  Rows 1-2 are
    value continuity at y = 0 and y = -d, rows 3-4 the corresponding
    y-derivative conditions.
    """
    g1, g2, g3 = (gamma(lam, k) for k in layers.ks)
    e2 = np.exp(-g2 * layers.d)
    o, z = np.ones_like(g1), np.zeros_like(g1)
    A = np.array([
        [1 / g1, -1 / g2, -e2 / g2, z],
        [z, e2 / g2, 1 / g2, -1 / g3],
        [o, o, -e2, z],
        [z, e2, -o, -o],
    ])
    return np.moveaxis(A, (0, 1), (-2, -1))


def incident_rhs(lam, layers):
    """Right-hand side carrying the point source above the top interface,
    shape (..., 4)."""
    y0 = layers.source[1]
    if not y0 > 0:
        raise ValueError("source must lie in the top layer (y0 > 0)")
    g1 = gamma(lam, layers.k1)
    e = np.exp(-g1 * y0)
    z = np.zeros_like(e)
    return np.moveaxis(np.array([-e / g1, z, e, z]), 0, -1)


class InterfaceSolver:
    """Factors every per-node 4x4 interface block once; solves are then a
    batched back-substitution (implemented as multiplication by the cached
    inverses, which is accurate at these block sizes and condition numbers).
    """

    def __init__(self, contour, layers):
        self.contour = contour
        self.layers = layers
        try:
            self._inv = np.linalg.inv(interface_matrix(contour.nodes, layers))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular interface block: {exc}") from exc
        self.rhs0 = incident_rhs(contour.nodes, layers)
        self._g2 = gamma(contour.nodes, layers.k2)

    def solve(self, update=None, include_source=True):
        """Densities driven by the point source (if ``include_source``) and
        by the particle fields' interface densities ``update`` (a
        ``coupling.SpectralUpdate``), whose value and derivative jumps add
        (s+/g2, -s-/g2, s+, -s-) to the rows of ``interface_matrix``."""
        rhs = self.rhs0 if include_source else np.zeros_like(self.rhs0)
        if update is not None:
            sp, sm = update.sigma_plus, update.sigma_minus
            jump = np.zeros(sp.shape + (4,), dtype=complex)
            jump[..., 0] = sp / self._g2
            jump[..., 1] = -sm / self._g2
            jump[..., 2] = sp
            jump[..., 3] = -sm
            rhs = rhs + jump
        vals = np.einsum("nij,nj->ni", self._inv, rhs)
        return SpectralDensities(values=vals)


def _mirror_half(contour):
    """The number h of node pairs of a contour that is its own mirror,
    nodes[::-1] == -nodes exactly, with an even node count: node h + j and
    node h - 1 - j are lam and -lam.  Raises ValueError otherwise."""
    lam = contour.nodes
    if lam.size % 2 or not np.array_equal(lam[::-1], -lam):
        raise ValueError("the contour must be its own mirror: "
                         "lam[::-1] == -lam over an even node count")
    return lam.size // 2


def _node_pairs(v, h):
    """A per-node array as (2, h): the right half, then the left half in
    reversed order, so that column j holds the nodes lam_j and -lam_j."""
    return np.stack([v[h:], v[h - 1::-1]])


def _vertical_rows(terms, y):
    """Per (height, node pair), shape (y.size, 2, h): the sum of c e^{a t}
    over the (c, a, yref, fold) terms -- a per right-half node, c (2, h) per
    node pair (``_node_pairs``), t = y - yref, or |y - yref| if ``fold``.
    a is even in lam, so each exponential serves both nodes of a pair."""
    h = terms[0][1].size
    vert = np.zeros((y.size, 2, h), dtype=complex)
    e = np.empty((y.size, h), dtype=complex)
    tmp = np.empty_like(e)
    for c, a, yref, fold in terms:
        t = y - yref
        np.multiply.outer(np.abs(t) if fold else t, a, out=e)
        np.exp(e, out=e)
        for half in (0, 1):
            vert[:, half] += np.multiply(e, c[half], out=tmp)
    return vert


def _grid_axes(dx, y):
    """(xu, ix, yu, iy), ``np.unique`` of dx and of y with their inverses,
    if the points fill at least half of the tensor grid xu x yu; else
    None."""
    xu, ix = np.unique(dx, return_inverse=True)
    yu, iy = np.unique(y, return_inverse=True)
    return (xu, ix, yu, iy) if xu.size * yu.size <= 2 * dx.size else None


def _tensor_sum(lam, xu, ix, yu, iy, terms):
    """The spectral sum on the grid xu x yu, one block at a time as the
    product phase(x-block) @ vert(y-block).T over all N_S = 2 lam.size
    nodes, pairs side by side; point i reads its value at (ix[i], iy[i]).
    The phases e^{i lam x} are computed on the right half only; the left
    half's are their reciprocals.  Each block has at most
    CHUNK_ELEMENTS // N_S (and at most sqrt(CHUNK_ELEMENTS)) rows on either
    axis."""
    h = lam.size
    ilam = 1j * lam
    step = max(1, min(CHUNK_ELEMENTS // (2 * h), isqrt(CHUNK_ELEMENTS)))
    table = np.empty((xu.size, yu.size), dtype=complex)
    for ylo in range(0, yu.size, step):
        ys = slice(ylo, ylo + step)
        vert = _vertical_rows(terms, yu[ys])
        vert = vert.reshape(vert.shape[0], -1)
        for xlo in range(0, xu.size, step):
            xs = slice(xlo, xlo + step)
            phase = np.empty((xu[xs].size, 2, h), dtype=complex)
            np.multiply.outer(xu[xs], ilam, out=phase[:, 0])
            np.exp(phase[:, 0], out=phase[:, 0])
            np.reciprocal(phase[:, 0], out=phase[:, 1])
            table[xs, ys] = phase.reshape(phase.shape[0], -1) @ vert.T
    return table[ix, iy]


def _row_dots(lam, dx, y, terms):
    """The spectral sum at scattered points, in blocks of
    CHUNK_ELEMENTS // N_S points split between the cores (``in_blocks``):
    the phase e^{i lam dx} is computed on the right half once per distinct
    dx and V once per distinct y, and each half of the gathered rows is
    dotted in turn, the left half's phase the reciprocal of the right
    half's, taken in place."""
    ilam = 1j * lam
    val = np.zeros(dx.size, dtype=complex)

    def block(sl):
        xu, ix = np.unique(dx[sl], return_inverse=True)
        yu, iy = np.unique(y[sl], return_inverse=True)
        vert = _vertical_rows(terms, yu)
        phase = np.multiply.outer(xu, ilam)
        np.exp(phase, out=phase)
        phase = phase[ix]
        rows = np.empty_like(phase)
        for half in (0, 1):
            if half:
                np.reciprocal(phase, out=phase)
            # mode="clip" writes straight into rows ("raise" buffers a copy)
            np.take(vert[:, half], iy, axis=0, out=rows, mode="clip")
            val[sl] += np.einsum("ij,ij->i", phase, rows)

    in_blocks(block, dx.size, CHUNK_ELEMENTS // (2 * lam.size))
    return val


def _spectral_sum(lam, dx, y, terms):
    """Contour quadrature of sum_j e^{i lam_j dx} V_j(y) over the node pairs
    (lam_j, -lam_j), lam the right half of a mirrored contour, at points
    with offsets ``dx`` from the source and heights ``y``, V given as terms
    (see _vertical_rows) that carry the weights; returns the values.
    Grid-like points (see ``_grid_axes``) take ``_tensor_sum``, scattered
    ones ``_row_dots``."""
    axes = _grid_axes(dx, y)
    if axes is None:
        return _row_dots(lam, dx, y, terms)
    return _tensor_sum(lam, *axes, terms)


def _layer_masks(layers, y):
    """Masks of the heights in the top (y >= 0), middle and bottom
    (y < -d) layers."""
    top, bot = y >= 0, y < -layers.d
    return top, ~(top | bot), bot


def layered_sum_paths(layers, points):
    """Per layer (top, middle, bottom), the form ``eval_sommerfeld_field``
    takes at the (n, 2) ``points``: "tensor", "rows", or "none"."""
    x, y = points[:, 0] - layers.source[0], points[:, 1]
    return tuple("none" if not sel.any()
                 else "rows" if _grid_axes(x[sel], y[sel]) is None
                 else "tensor" for sel in _layer_masks(layers, y))


def eval_sommerfeld_field(densities, contour, layers, points):
    """The layered field at one point or an (n, 2) array of points, each
    from its own layer: the point source plus the reflected field in the
    top layer (y >= 0), the transmitted field in the bottom layer (y < -d),
    and both interface fields in the middle layer in between.

    One contour sum per layer, with the layer's vertical factors added
    before the x-phase is applied: a matrix product over the distinct x and
    y for grid-like points, row dots for scattered ones (``_spectral_sum``).
    Each exponential is computed once per mirrored node pair (lam, -lam),
    so the contour must be its own mirror (``_mirror_half``).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    h = _mirror_half(contour)
    lam = contour.nodes[h:]
    g1, g2, g3 = (gamma(lam, k) for k in layers.ks)
    w = _node_pairs(contour.weights, h) / (4 * np.pi)
    s1, sp, sm, s3 = (_node_pairs(s, h) * w for s in densities.values.T)
    x0, y0 = layers.source
    d = layers.d
    top, mid, bot = _layer_masks(layers, y)
    by_layer = (
        (top, [(s1 / g1, -g1, 0.0, False), (w / g1, -g1, y0, True)]),
        (mid, [(sp / g2, g2, 0.0, False), (sm / g2, -g2, -d, False)]),
        (bot, [(s3 / g3, g3, -d, False)]),
    )
    val = np.empty(len(pts), dtype=complex)
    for sel, terms in by_layer:
        if sel.any():
            val[sel] = _spectral_sum(lam, x[sel] - x0, y[sel], terms)
    return val[0] if np.asarray(points).ndim == 1 else val


def sommerfeld_point_source(contour, k, source, points):
    """Free-space Green's function via the same contour machinery.

    Quadrature of the spectral form of (i/4) H0^(1)(k |x - x0|); requires a
    vertical separation from the source for the integrand to decay.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x0, y0 = source
    h = _mirror_half(contour)
    g = gamma(contour.nodes[h:], k)
    c = _node_pairs(contour.weights, h) / (4 * np.pi * g)
    val = _spectral_sum(contour.nodes[h:], pts[:, 0] - x0, pts[:, 1],
                        [(c, -g, y0, True)])
    return val[0] if np.asarray(points).ndim == 1 else val
