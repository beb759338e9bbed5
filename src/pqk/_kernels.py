"""Hot numeric kernels: grid sampling of Gaussian density kernels.

One vectorized numpy routine, :func:`quad_table`, builds every exponent;
the ``oracle`` workload of the repository benchmark times it at the sizes
the quadrature oracle and positivity probe hit (``python3 perfbench/run.py
--workload oracle --seed 1 --seconds 16 --trace 1`` reports
``kernels.quad_table`` and ``kernels.kernel_table``).

``quad_table`` sums its midpoints in chunks and schedules them by one rule.
``cpus`` is the number of CPUs the process may run on for a call of at
least ``_FLOOR`` = 2**16 exponent elements (midpoints x nx x ny), and 1
below it, which keeps the closed-form samples, the positivity probe and the
2->1 tables on the calling thread.  The table is split into
``min(nx, ceil(cpus / chunks))`` blocks of evaluation rows (a one-column
table keeps two rows a block), one block when there are at least as many
chunks as ``cpus``, and each (chunk, row block) pair is one task.  The tasks
run on ``min(cpus, tasks, 2**20 // (chunk * block_rows * ny))`` workers, one
at least, ``chunk`` being the largest chunk's midpoint count and
``block_rows`` the largest block's row count: the last term keeps the tasks
in flight within the one-chunk budget of 2**20 table elements, so a 512 x
512 table, whose one chunk fills it, runs one worker unless it is split into
row blocks.  On a shared 2-vCPU machine, 2 threads ran tables of 8 to 64
rows at 0.6-0.8x the speed of one in 7 of 8 timings at 2**15 elements, and
won 6 of 8 at 2**16 (0.90-1.39x) and 7 of 8 at 2**17.

One driver, :func:`_run_tasks`, runs every call.  The calling thread is
worker 0, and each other worker is a thread started for the call and joined
before it returns, so one worker starts no thread.  Worker w computes tasks
w, w + workers, ...; the calling thread computes each of its own tasks when
that task's turn to be added comes, and adds every task's sum into its rows
in task order.  A started thread hands each sum over a one-slot queue, runs
in a copy of the caller's context, so a caller's ``np.errstate`` holds in
it, and its exception is raised by ``quad_table``.  The bits cannot move:
each block uses the whole table's chunk size and slices its x-side terms
from the whole grid's (see :func:`_chunk_sums`), each task is the same code
on the same midpoints whichever thread runs it, and each block's chunk sums
are added into its rows in chunk order.  On a shared 2-vCPU machine this
driver, in place of one whose calling thread only waited and added, took
the ``oracle`` workload's median op from 8.21 to 7.23 ms
(``BENCH_caller_worker.json``).

Each task builds its exponent in row tiles of at most ``_TILE`` = 2**16
elements (chunk x tile rows x ny, one row at least), one tile after another
in one buffer that each worker allocates once per call; an R != 0 source
builds its x' R products and cross term per tile in a second such buffer,
and each tile's sum over midpoints goes into its rows of the task's sum.
Tiles bound memory, not time: the exponent takes 1 MiB a worker where the
chunk cap lets a chunk's take 16 MiB, and each tile makes the numpy calls a
whole task made.  Traced memory per call fell from 18-37 to 3.5-9.5 MiB at
the 3->2 grid-256 shape (64 x 64, 256 midpoints) and from 40.5 to 14.6 MiB
on a 512 x 512 table.  The bits hold as for row blocks: a tile is a row
slice of its task, and a one-column table keeps two rows a tile, its last
tile taking a one-row remainder.

The cross term x'^T R y' and its (chunk, tile rows, Np, Np) x' R products
are built only when R != 0.  Every pure state psi(x) conj(psi(y)), and every
mixture of pure states, has R = 0, so the quadrature of such a source skips
them, with the same bits (the argument is in :func:`_chunk_sums`).  On a
shared 2-vCPU machine this took the ``oracle`` workload, whose sources are
all such mixtures, from 20.8 to 36.5 ops/s (median of 10 pairs), and left
an R != 0 call at the 3->1 grid-256 shape at 268 -> 264 ms
(``BENCH_product_kernels.json``).

Exponent convention, shared with :mod:`pqk.gaussian`:

    E(x, y) = -x^T P x / 2 - y^T conj(P) y / 2 + x^T R y + s^T x
              + conj(s)^T y + logw
"""

from __future__ import annotations

import os

import numpy as np

# A call of fewer exponent elements (midpoints x nx x ny) than this runs on
# the calling thread; see the module docstring for the measurement.
_FLOOR = 2**16
# Each task builds its exponent in row tiles of at most this many elements
# (midpoints x tile rows x ny) in one buffer; see the module docstring.
_TILE = 2**16


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
    complex.  Each chunk of midpoints is capped at 2**20 // (nx * ny), and
    each task builds its exponent in row tiles of at most ``_TILE`` = 2**16
    elements (one row at least) in one reused buffer, so beyond the table
    and each task's sum, the exponent and, when R != 0, the cross term
    (chunk, tile rows, ny) and the x' R products (chunk, tile rows, Np, Np)
    take memory in proportion to a tile, not to the table.  A product
    kernel (R = 0) skips the cross term and products with the same bits
    (see :func:`_chunk_sums`).

    A call of at least ``_FLOOR`` exponent elements with fewer chunks than
    CPUs also splits the table into blocks of evaluation rows, and each
    (chunk, row block) pair is one task.  The tasks run on up to one worker
    per CPU, within that budget, and the calling thread is the first of
    them (see the module docstring).  Every block sums the whole table's
    chunks, and the calling thread adds each block's chunk sums into its
    rows in chunk order, so the result does not depend on the number of
    CPUs.
    """
    nx = xps.shape[0]
    ny = yps.shape[0]
    nu = uks.shape[0]
    chunk = max(1, min(chunk, 2**20 // max(1, nx * ny)))
    starts = range(0, nu, chunk)
    cpus = _cpus() if nu * nx * ny >= _FLOOR else 1
    # A block of one row and one column would sum its midpoints as a 1-D
    # array, which numpy sums pairwise: other bits.  So two rows at least.
    # The max(1, ...) terms keep a call of no rows, columns or midpoints at
    # one block and one worker.
    most = max(1, nx if ny > 1 else nx // 2)
    blocks = min(most, -(-cpus // max(1, len(starts))))
    tasks = [
        (start, slice(nx * b // blocks, nx * (b + 1) // blocks))
        for start in starts
        for b in range(blocks)
    ]
    budget = 2**20 // max(1, min(chunk, nu) * -(-nx // blocks) * ny)
    workers = max(1, min(cpus, len(tasks), budget))
    out = np.zeros((nx, ny), dtype=np.complex128)
    _run_tasks(out, workers, (P, R, s, logw, xps, yps, uks, chunk), tasks)
    out *= weight
    return out


def _cpus():
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunk_sums(P, R, s, logw, xps, yps, uks, chunk, tasks):
    """Yield, for each (chunk start, row slice) task, the (rows, ny) sum
    over that chunk's midpoints of the source-kernel samples.

    The bits match the plain three-operand einsum form that
    ``tests/test_kernels.py`` keeps as its reference: numpy's unoptimized
    einsum accumulates (x'_m R_mn) y'_n with m outer and n inner, which is
    also the memory order of the C-contiguous x' R products that the
    two-operand contraction reads.  When ``yps is xps`` the y-side
    quadratic and linear terms are the conjugated x-side ones, which on a
    real grid equal the terms computed with conj(P) and conj(s).  The
    exponent is summed left to right in one buffer, and each chunk's sum
    over midpoints is as in the reference.

    A row block, and a row tile within it, keeps those bits because its
    x-side quadratic and linear terms are slices of the terms computed
    over the whole grid (a one-row ``xp @ s`` takes another BLAS path and
    can differ in the last bit); the cross term and the sum over midpoints
    of a row slice equal the whole table's rows, unless the slice is one
    row of a one-column table, which neither a block nor a tile is unless
    the table has one row.

    A product kernel, R = 0 (every pure state and every mixture of pure
    states), builds neither the x' R products nor the cross term, and keeps
    the bits on a finite grid:

    - each product (x'_m R_mn) y'_n is a signed zero, so the einsum's sum
      is +0, since an accumulator that starts at +0 never becomes -0;
    - adding that +0 to the exponent, and each addition after it, can
      change only the sign of an exponent component that is exactly 0;
    - ``exp`` maps both signs of a zero real part to the same value,
      exp(+-0) = 1, and the sine of the imaginary part does not depend on
      the real part's sign.  A zero imaginary part passes its sign to a
      zero imaginary part of the sample, so the chunk sums differ at most
      in the sign of a zero, and :func:`quad_table` adds them into a table
      that starts at +0, which erases it.

    ``R.any()`` counts a NaN and a purely imaginary entry as nonzero.
    """
    cross = R.any()
    ny, dim = yps.shape[0], xps.shape[1]
    cu = min(chunk, uks.shape[0])
    # A tile of one row and one column would sum its midpoints as a 1-D
    # array, pairwise: other bits.  So such a tile takes two rows at least,
    # and a last tile takes the one row that would be left after it.
    floor = 2 if ny == 1 else 1
    step = max(floor, _TILE // max(1, cu * ny))
    height = min(xps.shape[0], step + 1)
    buf = np.empty(cu * height * ny, dtype=np.complex128)
    if cross:
        spare = np.empty(cu * height * (ny + dim * dim), dtype=np.complex128)
    for start, rows in tasks:
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
        xp, lin_x = xp[:, rows], lin_x[:, rows]
        half_x, half_y = -0.5 * qx[:, rows], 0.5 * qy
        n, nrows = half_x.shape
        part = np.empty((nrows, ny), dtype=np.complex128)
        i = 0
        while i < nrows:
            j = i + step
            if nrows - j < floor:
                j = nrows
            size = n * (j - i) * ny
            expo = buf[:size].reshape(n, j - i, ny)
            np.subtract(half_x[:, i:j, None], half_y[:, None, :], out=expo)
            if cross:
                term = spare[:size].reshape(n, j - i, ny)
                prods = spare[size : size + n * (j - i) * dim * dim]
                prods = prods.reshape(n, j - i, dim, dim)
                np.multiply(xp[:, i:j, :, None], R, out=prods)
                expo += np.einsum("uimn,ujn->uij", prods, yp, out=term)
            expo += lin_x[:, i:j, None]
            expo += lin_y[:, None, :]
            expo += logw
            np.exp(expo, out=expo).sum(axis=0, out=part[i:j])
            i = j
        yield part


def _run_tasks(out, workers, args, tasks):
    """Add each task's sum to its rows of ``out``, in task order, computed
    by ``workers`` workers.

    Worker w computes tasks w, w + workers, ...  The calling thread is
    worker 0: it computes each of its tasks when that task's turn to be
    added comes, so one worker starts no thread.  Each other worker is a
    thread started and joined within this call, which hands each sum over
    a queue of one slot, so it runs at most one task ahead of the
    additions.  Tasks are listed chunk by chunk, so each row block gets
    its chunk sums in chunk order.  Each started thread runs in a copy of
    the caller's context, which carries numpy's ``errstate``; its
    exception is re-raised here.
    """
    import contextvars
    import queue
    import threading

    stop = threading.Event()
    slots = [queue.Queue(maxsize=1) for _ in range(workers - 1)]

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
        for w, slot in enumerate(slots, 1):
            ctx = contextvars.copy_context()
            t = threading.Thread(target=ctx.run, args=(work, slot, tasks[w::workers]))
            t.start()
            threads.append(t)
        own = _chunk_sums(*args, tasks[::workers])
        for k, (_, rows) in enumerate(tasks):
            if k % workers:
                part = slots[k % workers - 1].get()
                if isinstance(part, BaseException):
                    raise part
            else:
                part = next(own)
            out[rows] += part
    finally:
        # A thread blocked on its full slot gets room, puts once more and
        # then sees the stop.
        stop.set()
        for slot in slots:
            while not slot.empty():
                slot.get_nowait()
        for t in threads:
            t.join()
