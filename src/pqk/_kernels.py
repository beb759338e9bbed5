"""Hot numeric kernels: grid sampling of Gaussian density kernels.

One vectorized numpy routine, :func:`quad_table`, builds every exponent;
the ``oracle`` workload of the repository benchmark times it at the sizes
the quadrature oracle and positivity probe hit (``python3 perfbench/run.py
--workload oracle --seed 1 --seconds 16 --trace 1`` reports
``kernels.quad_table`` and ``kernels.kernel_table``).

Exponent convention, shared with :mod:`pqk.gaussian`:

    E(x, y) = -x^T P x / 2 - y^T conj(P) y / 2 + x^T R y + s^T x
              + conj(s)^T y + logw
"""

from __future__ import annotations

import numpy as np


def kernel_table(P, R, s, logw, xs, ys):
    """Sample exp(E(x, y)) on the grid xs x ys.

    xs: (nx, N) real, ys: (ny, N) real; returns (nx, ny) complex.  This is
    :func:`quad_table` at one zero midpoint with weight 1.
    """
    return quad_table(P, R, s, logw, xs, ys, np.zeros((1, xs.shape[1])), 1.0)


def quad_table(P, R, s, logw, xps, yps, uks, weight, chunk=256):
    """Midpoint sum over kernel coordinates of the source-kernel samples.

    xps = W @ x for each output x (nx, Np), yps likewise (ny, Np), and
    uks = Kb @ u for each midpoint u (nu, Np); the source kernel is
    evaluated at (u + x', u + y') and summed over u with the fixed
    ``weight`` (cell volume times the Lebesgue factor).  Returns (nx, ny)
    complex.  Each chunk of midpoints is capped at 2**20 // (nx * ny), so
    the exponent buffer and the cross term, each (chunk, nx, ny), stay near
    16 MiB on any grid; the x' R products add (chunk, nx, Np, Np).

    The bits match the plain three-operand einsum form that
    ``tests/test_kernels.py`` keeps as its reference: numpy's unoptimized
    einsum accumulates (x'_m R_mn) y'_n with m outer and n inner, which is
    also the memory order of the C-contiguous x' R products that the
    two-operand contraction reads.  When ``yps is xps`` the y-side
    quadratic and linear terms are the conjugated x-side ones, which on a
    real grid equal the terms computed with conj(P) and conj(s).  The
    exponent is summed left to right in one buffer, and the chunks, each
    chunk's sum over midpoints and the running total are as in the
    reference.
    """
    nx = xps.shape[0]
    ny = yps.shape[0]
    chunk = max(1, min(chunk, 2**20 // max(1, nx * ny)))
    out = np.zeros((nx, ny), dtype=np.complex128)
    for start in range(0, uks.shape[0], chunk):
        u = uks[start : start + chunk, None, :]
        xp = u + xps  # (cu, nx, Np)
        qx = np.einsum("uim,mn,uin->ui", xp, P, xp)
        lin_x = xp @ s
        if yps is xps:
            yp, qy, lin_y = xp, qx.conj(), lin_x.conj()
        else:
            yp = u + yps  # (cu, ny, Np)
            qy = np.einsum("ujm,mn,ujn->uj", yp, P.conj(), yp)
            lin_y = yp @ s.conj()
        expo = -0.5 * qx[:, :, None] - 0.5 * qy[:, None, :]
        expo += np.einsum("uimn,ujn->uij", xp[..., :, None] * R, yp)
        expo += lin_x[:, :, None]
        expo += lin_y[:, None, :]
        expo += logw
        out += np.exp(expo, out=expo).sum(axis=0)
    return out * weight
