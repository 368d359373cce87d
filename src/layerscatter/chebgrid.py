"""Tensor-product Chebyshev interpolation on rectangular boxes."""

from dataclasses import dataclass

import numpy as np

__all__ = ["ChebyshevPatch", "cheb_build", "cheb_eval", "cheb_nodes",
           "bary_weights", "bary_matrix"]


def cheb_nodes(m, a, b):
    """m Chebyshev points of the second kind on [a, b], ascending."""
    if m < 2:
        raise ValueError("need m >= 2")
    x = np.cos(np.pi * np.arange(m) / (m - 1))[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def bary_weights(m):
    """Barycentric weights for Chebyshev points of the second kind."""
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def bary_matrix(nodes, targets):
    """Rows of barycentric interpolation weights: (P @ values) interpolates.

    ``nodes`` is one set of m Chebyshev points shared by every target, or
    an (n_targets, m) array holding each target's own node set.  Exact (a
    cardinal row) when a target coincides with a node.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    nodes = np.asarray(nodes)
    w = bary_weights(nodes.shape[-1])
    d = targets[:, None] - nodes
    exact = np.abs(d) < 1e-300
    d = np.where(exact, 1.0, d)
    P = w / d
    P /= P.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    P[hit] = exact[hit].astype(float)
    return P


@dataclass
class ChebyshevPatch:
    """Complex samples of a function on an m1 x m2 Chebyshev tensor grid."""
    box: tuple               # (x0, x1, y0, y1)
    xnodes: np.ndarray
    ynodes: np.ndarray
    values: np.ndarray       # shape (m1, m2), values[i, j] = f(x_i, y_j)

    def contains(self, x, y, slack=1e-12):
        x0, x1, y0, y1 = self.box
        sx = slack * (x1 - x0)
        sy = slack * (y1 - y0)
        return (x0 - sx <= x <= x1 + sx) and (y0 - sy <= y <= y1 + sy)


def cheb_build(box, m1, m2, f):
    """Sample f(x, y) on the Chebyshev grid of a box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    xs = cheb_nodes(m1, x0, x1)
    ys = cheb_nodes(m2, y0, y1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(f(X, Y), dtype=complex)
    return ChebyshevPatch(box=tuple(box), xnodes=xs, ynodes=ys, values=vals)


def cheb_eval(patch, point):
    """Barycentric evaluation of the patch interpolant at (x, y)."""
    x, y = point
    if not patch.contains(x, y):
        raise ValueError(f"point {point} outside patch box {patch.box}")
    px = bary_matrix(patch.xnodes, [x])[0]
    py = bary_matrix(patch.ynodes, [y])[0]
    return px @ patch.values @ py
