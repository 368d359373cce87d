"""1-D type-3 nonuniform FFT by Gaussian gridding (oversampling factor 2):

    f(x_l) = sum_j c_j e^{i s_j x_l}

for nonuniform real sources s_j and targets x_l, the Fourier-type contour
integrals of the coupling.  The sources are spread onto a fine uniform
grid, whose modes are then pushed to the targets by a type-2 step (a
second Gaussian gridding, on the periodic interval [0, 2pi)).
"""

import copy

import numpy as np
import scipy.fft
import scipy.sparse

__all__ = ["Nufft3Plan"]

_OVERSAMPLE = 2


class Nufft3Plan:
    """Type-3 transform  f(x_l) = sum_j c_j e^{i s_j x_l}  for fixed
    nonuniform sources s_j and targets x_l.

    The sources are Gaussian-spread onto a fine uniform grid, the result is
    pushed to the targets with a type-2 transform, and the target-side
    Gaussian factor is divided out.  Both sparse spreading matrices are
    built once; ``apply`` then costs two sparse products and one FFT.
    """

    def __init__(self, sources, targets, tol=1e-12):
        s = np.asarray(sources, dtype=float)
        x = np.asarray(targets, dtype=float)
        if s.ndim != 1 or x.ndim != 1 or s.size < 1 or x.size < 1:
            raise ValueError("need nonempty 1-D sources and targets")
        if not 1e-14 <= tol <= 1e-4:
            raise ValueError("tol must lie in [1e-14, 1e-4]")
        s0 = 0.5 * (s.min() + s.max())
        x0 = 0.5 * (x.min() + x.max())
        S = max(np.max(np.abs(s - s0)), 1e-9)
        X = max(np.max(np.abs(x - x0)), 1e-9)
        # Gaussian gridding error ~ exp(-pi m_sp (1 - 1/R)); R = 2
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

        # type-2 step: row m = -half..half-1 of the fine grid is the Fourier
        # mode m at the targets' angles xi = hs (x - x0) mod 2pi, spread onto
        # an n2-point grid on [0, 2pi) with Gaussian width tau2
        xi = np.remainder(hs * (x - x0), 2 * np.pi)
        n2 = scipy.fft.next_fast_len(max(_OVERSAMPLE * n, 2 * m_sp + 2, 16))
        # effective oversampling after rounding n2 up; tau2 must follow it
        r_eff = n2 / n
        tau2 = np.pi * m_sp / (n ** 2 * r_eff * (r_eff - 0.5))
        h2 = 2 * np.pi / n2
        centers = np.rint(xi / h2).astype(np.int64)
        dx = xi[:, None] - (centers[:, None] + offs[None, :]) * h2
        rows = (centers[:, None] + offs[None, :]) % n2
        cols = np.repeat(np.arange(x.size), offs.size)
        self._gather = scipy.sparse.csr_matrix(
            (np.exp(-dx ** 2 / (4 * tau2)).ravel(), (rows.ravel(), cols)),
            shape=(n2, x.size))
        self._n2 = n2
        k = np.arange(-half, n - half)
        self._slots = k % n2
        # deconvolution of the Gaussian: fourier transform sqrt(4 pi tau2)
        # e^{-tau2 k^2}
        self._deconv_k = (h2 / np.sqrt(4 * np.pi * tau2)) * np.exp(tau2 * k ** 2)
        self._deconv_x = hs * np.exp(tau * (x - x0) ** 2) / np.sqrt(4 * np.pi * tau)

    def restrict(self, idx):
        """The same transform for the sources ``idx`` only; the fine grids
        and the target side are shared, not copied."""
        sub = copy.copy(self)
        sub._spread = self._spread[:, idx]
        sub._phase_c = self._phase_c[idx]
        return sub

    def apply(self, c):
        """Evaluate for strengths c of shape (nsrc,) or (nsrc, batch)."""
        c = np.asarray(c, dtype=complex)
        col = (slice(None),) + (None,) * (c.ndim - 1)
        spec = np.zeros((self._n2,) + c.shape[1:], dtype=complex)
        spec[self._slots] = ((self._spread @ (c * self._phase_c[col]))
                             * self._deconv_k[col])
        grid = scipy.fft.ifft(spec, axis=0, norm="forward", overwrite_x=True)
        return (self._gather.T @ grid) * (self._deconv_x * self._phase_f)[col]
