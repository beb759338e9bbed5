"""Hot numeric kernels: grid sampling of Gaussian density kernels.

One vectorized numpy routine, :func:`quad_table`, builds every exponent;
the ``oracle`` workload of the repository benchmark times it at the sizes
the quadrature oracle and positivity probe hit (``python3 perfbench/run.py
--workload oracle --seed 1 --seconds 16 --trace 1`` reports
``kernels.quad_table`` and ``kernels.kernel_table``).

``quad_table`` sums its midpoints in chunks and computes the chunk sums on
``min(cpus, chunks, max(1, 2**20 // (chunk * nx * ny)))`` threads, where
``cpus`` counts the CPUs the process may run on.  The last term keeps the chunks in
flight within the one-chunk budget of 2**20 table elements per call, so a
grid whose chunk already fills it (a 512 x 512 table) runs on one
worker, in the calling thread, as does a single chunk.  More workers are
threads started for the call and joined before it returns; each runs in a
copy of the caller's context, so a caller's ``np.errstate`` holds in it,
and its exception is raised by ``quad_table``.  The bits cannot move: each
chunk's arithmetic is the same code on the same midpoints whichever thread
runs it, and the calling thread adds the chunk sums in chunk order.

Exponent convention, shared with :mod:`pqk.gaussian`:

    E(x, y) = -x^T P x / 2 - y^T conj(P) y / 2 + x^T R y + s^T x
              + conj(s)^T y + logw
"""

from __future__ import annotations

import os

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

    The chunk sums are computed on up to one thread per CPU, within that
    budget (see the module docstring), and the calling thread adds them in
    chunk order, so the result does not depend on the number of CPUs.
    """
    nx = xps.shape[0]
    ny = yps.shape[0]
    cells = max(1, nx * ny)
    chunk = max(1, min(chunk, 2**20 // cells))
    starts = range(0, uks.shape[0], chunk)
    workers = min(_cpus(), len(starts), max(1, 2**20 // (chunk * cells)))
    args = (P, R, s, logw, xps, yps, uks, chunk)
    out = np.zeros((nx, ny), dtype=np.complex128)
    if workers == 1:
        for part in _chunk_sums(*args, starts):
            out += part
    else:
        _add_in_threads(out, workers, args, starts)
    return out * weight


def _cpus():
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunk_sums(P, R, s, logw, xps, yps, uks, chunk, starts):
    """Yield, for each chunk start, the (nx, ny) sum over that chunk's
    midpoints of the source-kernel samples.

    The bits match the plain three-operand einsum form that
    ``tests/test_kernels.py`` keeps as its reference: numpy's unoptimized
    einsum accumulates (x'_m R_mn) y'_n with m outer and n inner, which is
    also the memory order of the C-contiguous x' R products that the
    two-operand contraction reads.  When ``yps is xps`` the y-side
    quadratic and linear terms are the conjugated x-side ones, which on a
    real grid equal the terms computed with conj(P) and conj(s).  The
    exponent is summed left to right in one buffer, and each chunk's sum
    over midpoints is as in the reference.
    """
    for start in starts:
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
        yield np.exp(expo, out=expo).sum(axis=0)


def _add_in_threads(out, workers, args, starts):
    """Add the chunk sums to ``out`` in chunk order, computed on
    ``workers`` threads started and joined within this call.

    Worker w computes chunks w, w + workers, ... and hands each sum over a
    queue of one slot, so no worker runs more than one chunk ahead of the
    additions.  Each worker runs in a copy of the caller's context, which
    carries numpy's ``errstate``; its exception is re-raised here.
    """
    import contextvars
    import queue
    import threading

    stop = threading.Event()
    slots = [queue.Queue(maxsize=1) for _ in range(workers)]

    def work(slot, mine):
        try:
            for part in _chunk_sums(*args, mine):
                slot.put(part)
                if stop.is_set():
                    return
        except BaseException as exc:  # handed to the caller, which raises it
            slot.put(exc)

    threads = []
    try:
        for w, slot in enumerate(slots):
            ctx = contextvars.copy_context()
            t = threading.Thread(target=ctx.run, args=(work, slot, starts[w::workers]))
            t.start()
            threads.append(t)
        for k in range(len(starts)):
            part = slots[k % workers].get()
            if isinstance(part, BaseException):
                raise part
            out += part
    finally:
        # A worker blocked on its full slot gets room, puts once more and
        # then sees the stop.
        stop.set()
        for slot in slots:
            while not slot.empty():
                slot.get_nowait()
        for t in threads:
            t.join()
