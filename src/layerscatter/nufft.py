"""1-D nonuniform FFTs by Gaussian gridding (oversampling factor 2).

The type-2 transform (uniform to nonuniform) is

    f_j = sum_k F_k exp( i k x_j )

with points x_j in [0, 2pi) and integer modes k = -(K//2) .. (K-1)//2.

A type-3 transform (nonuniform points, nonuniform real frequencies) is
provided for Fourier-type contour integrals; it composes Gaussian spreading
in the source domain with a type-2 transform in the target domain.
"""

import copy

import numpy as np
import scipy.fft
import scipy.sparse

__all__ = ["nufft1d3", "NufftPlan", "Nufft3Plan", "modes"]

_OVERSAMPLE = 2


def modes(n_modes):
    """Integer mode indices -(K//2) .. (K-1)//2 in ascending order."""
    return np.arange(-(n_modes // 2), (n_modes + 1) // 2)


def _spread_params(n_modes, tol):
    if not 1e-14 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-14, 1e-4]")
    # Gaussian gridding error ~ exp(-pi m_sp (1 - 1/R)); R = 2
    m_sp = int(np.ceil(-np.log(tol) / (np.pi * (1 - 1 / _OVERSAMPLE)))) + 2
    n_fine = scipy.fft.next_fast_len(max(_OVERSAMPLE * n_modes, 2 * m_sp + 2, 16))
    # effective oversampling after rounding n_fine up; tau must follow it
    r_eff = n_fine / n_modes
    tau = np.pi * m_sp / (n_modes ** 2 * r_eff * (r_eff - 0.5))
    return m_sp, n_fine, tau


class NufftPlan:
    """Precomputed type-2 transform for a fixed point set.

    Builds the sparse spreading matrix once; ``type2`` then costs one FFT
    and one sparse product and accepts stacked right-hand sides of shape
    (K,) / (K, batch).
    """

    def __init__(self, points, n_modes, tol=1e-12):
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or points.size < 1 or n_modes < 1:
            raise ValueError("need 1-D nonempty points and n_modes >= 1")
        if np.any((points < 0) | (points >= 2 * np.pi)):
            raise ValueError("points must lie in [0, 2pi)")
        self.n_modes = int(n_modes)
        self.k = modes(n_modes)
        m_sp, n_fine, tau = _spread_params(n_modes, tol)
        self.n_fine = n_fine
        h = 2 * np.pi / n_fine
        centers = np.rint(points / h).astype(np.int64)
        offs = np.arange(-m_sp, m_sp + 1)
        rows = (centers[:, None] + offs[None, :]) % n_fine
        dx = points[:, None] - (centers[:, None] + offs[None, :]) * h
        vals = np.exp(-dx ** 2 / (4 * tau))
        npts = points.size
        cols = np.repeat(np.arange(npts), offs.size)
        self._spread = scipy.sparse.csr_matrix(
            (vals.ravel(), (rows.ravel(), cols)), shape=(n_fine, npts))
        # deconvolution of the Gaussian: fourier transform sqrt(4 pi tau) e^{-tau k^2}
        self._deconv = (h / np.sqrt(4 * np.pi * tau)) * np.exp(tau * self.k ** 2)

    def type2(self, f):
        """f_j = sum_k F_k e^{i k x_j}; f of shape (K,) or (K, batch)."""
        f = np.asarray(f, dtype=complex)
        shape = (self.n_fine,) + f.shape[1:]
        spec = np.zeros(shape, dtype=complex)
        spec[self.k % self.n_fine] = f * _col(self._deconv, f.ndim)
        grid = self.n_fine * scipy.fft.ifft(spec, axis=0)
        return self._spread.T @ grid


def _col(v, ndim):
    return v[:, None] if ndim == 2 else v


class Nufft3Plan:
    """Type-3 transform  f(x_l) = sum_j c_j e^{i s_j x_l}  for fixed
    nonuniform sources s_j and targets x_l.

    The sources are Gaussian-spread onto a fine uniform grid, the result is
    pushed to the targets with a type-2 transform, and the target-side
    Gaussian factor is divided out.
    """

    def __init__(self, sources, targets, tol=1e-12):
        s = np.asarray(sources, dtype=float)
        x = np.asarray(targets, dtype=float)
        if s.ndim != 1 or x.ndim != 1 or s.size < 1 or x.size < 1:
            raise ValueError("need nonempty 1-D sources and targets")
        self.tol = tol
        s0 = 0.5 * (s.min() + s.max())
        x0 = 0.5 * (x.min() + x.max())
        S = max(np.max(np.abs(s - s0)), 1e-9)
        X = max(np.max(np.abs(x - x0)), 1e-9)
        m_sp = int(np.ceil(-np.log(tol) / (np.pi * (1 - 1 / _OVERSAMPLE)))) + 2
        # fine source grid: spacing at the target Nyquist limit (oversampled),
        # extent covering the Gaussian-widened sources
        hs = np.pi / (_OVERSAMPLE * X)
        n = scipy.fft.next_fast_len(int(np.ceil(2 * S / hs)) + 4 * m_sp + 8)
        half = n // 2
        tau = m_sp * hs ** 2 / (3 * np.pi)

        self._phase_c = np.exp(1j * (s - s0) * x0)      # absorbed into strengths
        self._phase_f = np.exp(1j * s0 * x)             # applied to outputs
        centers = np.rint((s - s0) / hs).astype(np.int64)
        offs = np.arange(-m_sp, m_sp + 1)
        idx = centers[:, None] + offs[None, :]
        ds = (s - s0)[:, None] - idx * hs
        vals = np.exp(-ds ** 2 / (4 * tau))
        rows = idx.ravel() + half
        if rows.min() < 0 or rows.max() >= n:
            raise RuntimeError("type-3 fine grid does not cover the sources")
        cols = np.repeat(np.arange(s.size), offs.size)
        self._spread = scipy.sparse.csr_matrix(
            (vals.ravel(), (rows, cols)), shape=(n, s.size))
        # rows of the fine grid are ascending in m = -half..half-1, matching
        # the ascending mode order of the inner type-2 plan
        xi = hs * (x - x0)
        self._plan2 = NufftPlan(np.remainder(xi, 2 * np.pi), n, tol)
        self._deconv_x = hs * np.exp(tau * (x - x0) ** 2) / np.sqrt(4 * np.pi * tau)

    def restrict(self, idx):
        """The same transform for the sources ``idx`` only; the fine grid,
        the type-2 plan and the target factors are shared, not copied."""
        sub = copy.copy(self)
        sub._spread = self._spread[:, idx]
        sub._phase_c = self._phase_c[idx]
        return sub

    def apply(self, c):
        """Evaluate for strengths c of shape (nsrc,) or (nsrc, batch)."""
        c = np.asarray(c, dtype=complex)
        cc = c * _col(self._phase_c, c.ndim)
        grid = self._spread @ cc
        vals = self._plan2.type2(grid)
        return vals * _col(self._deconv_x * self._phase_f, c.ndim)


def nufft1d3(sources, c, targets, tol=1e-12):
    """Type-3 NUFFT; see :class:`Nufft3Plan`."""
    return Nufft3Plan(sources, targets, tol).apply(c)
