"""Chebyshev nodes and barycentric interpolation weights."""

import numpy as np

__all__ = ["cheb_nodes", "bary_weights", "bary_matrix"]


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

