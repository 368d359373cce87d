"""Plain per-node sum of the layered field, the oracle of the fast sums.

Every contour node is summed on its own, each exponent evaluated whole,
with no mirrored node pairs, no factored vertical rows and no blocks; the
gradient differentiates each term analytically.
"""
import numpy as np

from layerscatter.layers import gamma


def direct_node_sum(dens, contour, layers, pts):
    """The layered field and its gradient at each point as a plain sum over
    all N_S nodes, sum_j w_j / (4 pi) c_j e^{i lam_j dx + a_j t}, each
    exponent evaluated whole: the oracle of both forms of the sum."""
    lam = contour.nodes
    w = contour.weights / (4 * np.pi)
    g1, g2, g3 = (gamma(lam, k) for k in layers.ks)
    s1, sp, sm, s3 = dens.values.T
    x0, y0 = layers.source
    d = layers.d
    val = np.empty(len(pts), dtype=complex)
    grad = np.empty((len(pts), 2), dtype=complex)
    for i, (x, y) in enumerate(pts):
        # (c, a, t, dt/dy) of each term of the point's layer
        if y >= 0:
            terms = [(s1 / g1, -g1, y, 1.0),
                     (1 / g1, -g1, abs(y - y0), np.sign(y - y0))]
        elif y >= -d:
            terms = [(sp / g2, g2, y, 1.0), (sm / g2, -g2, y + d, 1.0)]
        else:
            terms = [(s3 / g3, g3, y + d, 1.0)]
        val[i] = grad[i] = 0.0
        for c, a, t, dt in terms:
            e = w * c * np.exp(1j * lam * (x - x0) + a * t)
            val[i] += e.sum()
            grad[i, 0] += (1j * lam * e).sum()
            grad[i, 1] += (a * dt * e).sum()
    return val, grad
