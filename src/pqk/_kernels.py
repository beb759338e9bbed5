"""Hot numeric kernels: grid sampling of Gaussian density kernels.

Both kernels are vectorized numpy; the ``oracle`` workload of the repository
benchmark times them at the sizes the quadrature oracle and positivity probe
hit (``python3 perfbench/run.py --workload oracle --seed 1 --seconds 16
--trace 1`` reports ``kernels.quad_table`` and ``kernels.kernel_table``).

Exponent convention, shared with :mod:`pqk.gaussian`:

    E(x, y) = -x^T P x / 2 - y^T conj(P) y / 2 + x^T R y + s^T x
              + conj(s)^T y + logw
"""

from __future__ import annotations

import numpy as np


def kernel_table(P, R, s, logw, xs, ys):
    """Sample exp(E(x, y)) on the grid xs x ys.

    xs: (nx, N) real, ys: (ny, N) real; returns (nx, ny) complex.
    """
    qx = np.einsum("im,mn,in->i", xs, P, xs)
    qy = np.einsum("jm,mn,jn->j", ys, np.conj(P), ys)
    cross = np.einsum("im,mn,jn->ij", xs, R, ys)
    lin_x = xs @ s
    lin_y = ys @ np.conj(s)
    expo = (
        -0.5 * qx[:, None]
        - 0.5 * qy[None, :]
        + cross
        + lin_x[:, None]
        + lin_y[None, :]
        + logw
    )
    return np.exp(expo)


def quad_table(P, R, s, logw, xps, yps, uks, weight, chunk=256):
    """Midpoint sum over kernel coordinates of the source-kernel samples.

    xps = W @ x for each output x (nx, Np), yps likewise (ny, Np), and
    uks = Kb @ u for each midpoint u (nu, Np); the source kernel is
    evaluated at (u + x', u + y') and summed over u with the fixed
    ``weight`` (cell volume times the Lebesgue factor).  Returns (nx, ny)
    complex.  Each chunk of midpoints is capped at 2**20 // (nx * ny), so
    an intermediate (chunk, nx, ny) array stays near 16 MiB on any grid.
    """
    nx = xps.shape[0]
    ny = yps.shape[0]
    nu = uks.shape[0]
    chunk = max(1, min(chunk, 2**20 // max(1, nx * ny)))
    out = np.zeros((nx, ny), dtype=np.complex128)
    Pc = np.conj(P)
    sc = np.conj(s)
    for start in range(0, nu, chunk):
        u = uks[start : start + chunk]
        xp = u[:, None, :] + xps[None, :, :]  # (cu, nx, Np)
        yp = u[:, None, :] + yps[None, :, :]  # (cu, ny, Np)
        qx = np.einsum("uim,mn,uin->ui", xp, P, xp)
        qy = np.einsum("ujm,mn,ujn->uj", yp, Pc, yp)
        cross = np.einsum("uim,mn,ujn->uij", xp, R, yp)
        lin_x = xp @ s
        lin_y = yp @ sc
        expo = (
            -0.5 * qx[:, :, None]
            - 0.5 * qy[:, None, :]
            + cross
            + lin_x[:, :, None]
            + lin_y[:, None, :]
            + logw
        )
        out += np.exp(expo).sum(axis=0)
    return out * weight

