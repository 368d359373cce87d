"""Quadrature rules: Gauss-Legendre and trigonometric interpolation."""

import functools

import numpy as np

__all__ = ["gauss_legendre", "trig_interp_matrix"]

# one reference rule per n, never written: ``leggauss`` takes 0.2-0.8 ms a rule
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def gauss_legendre(n, a, b):
    """Nodes and weights of the n-point Gauss-Legendre rule on (a, b);
    exact to degree 2n-1.  1-D for scalar ends; for arrays of panel ends,
    one row per panel, all from one cached ``leggauss`` rule."""
    if n < 1:
        raise ValueError("need n >= 1")
    a, b = np.asarray(a), np.asarray(b)
    if not np.all(a < b):
        raise ValueError("need a < b")
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b)[..., None], 0.5 * (b - a)[..., None]
    return mid + half * x, half * w


def trig_interp_matrix(n, targets):
    """Trigonometric interpolation from the n-point uniform grid on [0, 2pi)
    to arbitrary points.

    Returns P of shape (len(targets), n) with (P @ values)[i] the value of
    the degree-n/2 trigonometric interpolant at targets[i].  Uses the
    Dirichlet-kernel cardinal functions (symmetrized highest mode for even n).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    grid = 2.0 * np.pi * np.arange(n) / n
    u = targets[:, None] - grid[None, :]
    near = np.abs(np.remainder(u + np.pi, 2 * np.pi) - np.pi) < 1e-14
    u = np.where(near, 1.0, u)  # placeholder to avoid 0/0; fixed below
    if n % 2 == 0:
        P = np.sin(n * u / 2.0) / np.tan(u / 2.0) / n
    else:
        P = np.sin(n * u / 2.0) / np.sin(u / 2.0) / n
    P[near] = 1.0
    return P
