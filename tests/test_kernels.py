import contextlib
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqk import _kernels


def random_kernel_params(rng, n):
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + np.eye(n) + 0.1j * np.diag(rng.normal(size=n))
    R = np.zeros((n, n), dtype=complex)
    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    R += 0.1 * (herm + herm.conj().T) / 2
    s = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return P, R, s, -1.3


def pointwise_exponent(P, R, s, logw, x, y):
    """E(x, y) at one point, written out from the module's convention."""
    return (
        -0.5 * x @ P @ x
        - 0.5 * y @ np.conj(P) @ y
        + x @ R @ y
        + s @ x
        + np.conj(s) @ y
        + logw
    )


def test_kernel_table_matches_pointwise_reference():
    rng = np.random.default_rng(0)
    P, R, s, logw = random_kernel_params(rng, 3)
    xs = rng.normal(size=(7, 3))
    ys = rng.normal(size=(5, 3))
    a = _kernels.kernel_table(P, R, s, logw, xs, ys)
    b = np.array(
        [[np.exp(pointwise_exponent(P, R, s, logw, x, y)) for y in ys] for x in xs]
    )
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_quad_table_matches_pointwise_reference():
    rng = np.random.default_rng(1)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = rng.normal(size=(6, 3))
    yps = rng.normal(size=(6, 3))
    uks = rng.normal(size=(40, 3))
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    b = np.array(
        [
            [
                0.25
                * sum(
                    np.exp(pointwise_exponent(P, R, s, logw, u + xp, u + yp))
                    for u in uks
                )
                for yp in yps
            ]
            for xp in xps
        ]
    )
    assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


def test_numpy_chunking_is_seamless():
    rng = np.random.default_rng(2)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = rng.normal(size=(4, 2))
    uks = rng.normal(size=(33, 2))
    a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=8)
    b = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=1000)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_quad_table_memory_stays_bounded_on_a_large_grid(monkeypatch):
    # 512 evaluation points per side, as a 3-dimensional target's 8**3 grid:
    # the table is 4 MiB, and the chunk cap 2**20 // (512 * 512) makes 4
    # midpoints a chunk, whose exponent is built in row tiles of 2**16
    # elements (1 MiB).  One chunk fills the per-call budget, so 2 CPUs run
    # one worker, the calling thread, on the 6 chunks; 7 CPUs split the
    # table into 2 row blocks, whose tasks hold half the budget each, and
    # run 2 workers: the calling thread and one started thread.
    rng = np.random.default_rng(3)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = rng.normal(size=(512, 3))
    uks = rng.normal(size=(24, 3))
    b = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 0.5, chunk=1)
    for cpus, threads in ((2, 0), (7, 1)):
        report_cpus(monkeypatch, cpus)
        with counted_threads() as started:
            tracemalloc.start()
            try:
                a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 128 * 2**20
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


# The kernels as they were written before the exponent routine was shared:
# three-operand einsums, y-side terms computed from their own grid, and the
# exponent summed left to right into fresh arrays.  The current kernels must
# reproduce them bit for bit.


def reference_kernel_table(P, R, s, logw, xs, ys):
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


def reference_quad_table(P, R, s, logw, xps, yps, uks, weight, chunk=256):
    nx = xps.shape[0]
    ny = yps.shape[0]
    nu = uks.shape[0]
    chunk = max(1, min(chunk, 2**20 // max(1, nx * ny)))
    out = np.zeros((nx, ny), dtype=np.complex128)
    Pc = np.conj(P)
    sc = np.conj(s)
    for start in range(0, nu, chunk):
        u = uks[start : start + chunk]
        xp = u[:, None, :] + xps[None, :, :]
        yp = u[:, None, :] + yps[None, :, :]
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


def grid(rng, n, dim, zeros):
    """n points in dim coordinates, a share ``zeros`` of them exactly 0."""
    g = 2.0 * rng.normal(size=(n, dim))
    g[rng.random(size=(n, dim)) < zeros] = 0.0
    return g


def same_bits(a, b):
    return np.array_equal(a.view(float), b.view(float))


def test_a_table_past_the_chunk_budget_takes_one_midpoint_a_chunk():
    # 1025 x 1025 cells are more than the 2**20 a chunk may fill, so the cap
    # 2**20 // (nx * ny) is 0 and the floor makes every chunk one midpoint.
    rng = np.random.default_rng(4)
    P, R, s, logw = random_kernel_params(rng, 1)
    xps = grid(rng, 1025, 1, 0.0)
    uks = grid(rng, 2, 1, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 0.5)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, xps, uks, 0.5))


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 4),
    nx=st.integers(1, 9),
    ny=st.integers(1, 9),
    nu=st.integers(0, 40),
    chunk=st.sampled_from([1, 256]),
    shared=st.booleans(),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# nx * ny > 4096 caps each chunk below 256 midpoints, and 300 midpoints is no
# multiple of the cap (202 for 72 x 72, 204 for 64 x 80).
@example(dim=2, nx=72, ny=72, nu=300, chunk=256, shared=True, zeros=0.0, seed=1)
@example(dim=3, nx=64, ny=80, nu=300, chunk=256, shared=False, zeros=0.3, seed=2)
def test_kernels_reproduce_the_former_kernels_bit_for_bit(
    dim, nx, ny, nu, chunk, shared, zeros, seed
):
    rng = np.random.default_rng(seed)
    P, R, s, logw = random_kernel_params(rng, dim)
    xps = grid(rng, nx, dim, zeros)
    yps = xps if shared else grid(rng, ny, dim, zeros)
    # nu = 0 stands for a zero-dimensional kernel: one zero midpoint, as
    # quadrature_partial_trace samples it.
    uks = grid(rng, nu, dim, zeros) if nu else np.zeros((1, dim))
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk=chunk)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk=chunk)
    assert same_bits(a, b)
    a = _kernels.kernel_table(P, R, s, logw, xps, yps)
    b = reference_kernel_table(P, R, s, logw, xps, yps)
    assert same_bits(a, b)


# Threaded chunk sums.  quad_table computes its chunk sums on as many
# workers as the process has CPUs (within the per-call memory budget), the
# calling thread one of them, and adds them in chunk order, so the reported
# CPU count must change no bit.


def expected_workers(cpus, nx, ny, nu, chunk=256):
    """The worker count of quad_table, restated: below the floor of exponent
    elements one worker; else row blocks when there are fewer chunks than
    CPUs, and one worker per CPU, per task and per share of the budget."""
    if nu * nx * ny < _kernels._FLOOR:
        return 1
    chunk = min(chunk, 2**20 // (nx * ny))
    chunks = -(-nu // chunk)
    most = nx if ny > 1 else max(1, nx // 2)
    blocks = 1 if chunks >= cpus else min(most, -(-cpus // chunks))
    budget = max(1, 2**20 // (min(chunk, nu) * -(-nx // blocks) * ny))
    return min(cpus, chunks * blocks, budget)


def report_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_cpus_are_those_this_process_may_run_on(monkeypatch):
    # sched_getaffinity(0) names the calling process; without it (as on
    # macOS) the CPU count is used, and 1 when that is unknown.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2} if pid else {5},
                        raising=False)
    assert _kernels._cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, cpus in ((6, 6), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _kernels._cpus() == cpus


@contextlib.contextmanager
def counted_threads():
    """Record every thread started inside the block."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", counting_start)
        yield started


@settings(max_examples=60, deadline=None)
@given(
    cpus=st.sampled_from([1, 2, 3, 7]),
    chunks=st.integers(1, 40),
    chunk=st.sampled_from([1, 256]),
    last=st.integers(1, 256),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(cpus=7, chunks=40, chunk=256, last=256, shared=False, seed=0)
@example(cpus=3, chunks=1, chunk=256, last=100, shared=True, seed=1)
def test_threaded_chunk_sums_keep_every_bit(cpus, chunks, chunk, last, shared, seed):
    rng = np.random.default_rng(seed)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 5, 2, 0.0)
    yps = xps if shared else grid(rng, 4, 2, 0.0)
    nu = (chunks - 1) * chunk + min(last, chunk)
    uks = grid(rng, nu, 2, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, cpus)
        with counted_threads() as started:
            a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk=chunk)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk=chunk)
    assert same_bits(a, b)
    workers = expected_workers(cpus, 5, yps.shape[0], nu, chunk)
    assert len(started) == workers - 1
    assert not any(t.is_alive() for t in started)


# Row blocks.  A call with fewer chunks than CPUs splits its table into
# blocks of evaluation rows; every block must use the whole table's chunk
# size and slice its x-side terms from the whole grid's, or a bit moves.


@settings(max_examples=60, deadline=None)
@given(
    cpus=st.sampled_from([1, 2, 3, 7]),
    dim=st.integers(1, 3),
    nx=st.integers(1, 70),
    ny=st.integers(1, 70),
    nu=st.integers(1, 400),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# The 3->2 oracle tables: 64 x 64, one chunk of 64 midpoints.
@example(cpus=2, dim=3, nx=64, ny=64, nu=64, shared=True, seed=0)
@example(cpus=7, dim=3, nx=64, ny=64, nu=256, shared=False, seed=1)
# Two chunks of 213 midpoints (70 x 70 caps the chunk); a block of 35 or 18
# rows on its own would take chunks of 256.
@example(cpus=3, dim=2, nx=70, ny=70, nu=300, shared=True, seed=2)
@example(cpus=7, dim=2, nx=70, ny=70, nu=300, shared=False, seed=3)
# One-row blocks: 3 rows, two chunks, 7 CPUs.
@example(cpus=7, dim=3, nx=3, ny=70, nu=320, shared=False, seed=4)
@example(cpus=7, dim=1, nx=2, ny=70, nu=400, shared=False, seed=5)
def test_row_blocks_keep_every_bit(cpus, dim, nx, ny, nu, shared, seed):
    rng = np.random.default_rng(seed)
    P, R, s, logw = random_kernel_params(rng, dim)
    xps = grid(rng, nx, dim, 0.0)
    yps = xps if shared else grid(rng, ny, dim, 0.0)
    uks = grid(rng, nu, dim, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, cpus)
        with counted_threads() as started:
            a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert same_bits(a, b)
    workers = expected_workers(cpus, nx, yps.shape[0], nu)
    assert len(started) == workers - 1
    assert not any(t.is_alive() for t in started)


@pytest.mark.parametrize(
    "cpus, nx, ny, nu, workers",
    [
        (2, 64, 64, 64, 2),  # a 3->2 table: one chunk, 2 row blocks
        (3, 64, 64, 64, 3),
        (7, 64, 64, 64, 7),  # 7 blocks of 9 or 10 rows
        (7, 256, 256, 32, 4),  # 2 chunks of 16, 4 blocks; the budget holds 4
        (7, 3, 70, 320, 6),  # two chunks of 3 one-row blocks
        (7, 1, 70, 1000, 4),  # one row cannot split: one task per chunk
        (3, 8, 8, 4096, 3),  # a 3->1 table: 16 chunks, no row blocks
        (7, 8, 8, 1024, 7),  # 4 chunks of 2 row blocks
        (7, 8, 8, 256, 1),  # a 2->1 table: 2**14 elements, under the floor
        (7, 64, 64, 1, 1),  # a closed-form sample or the positivity probe
        (7, 64, 64, 16, 7),  # exactly the floor: 2**16 elements
        (7, 64, 64, 15, 1),  # just under it
    ],
)
def test_thread_counts_follow_the_row_block_rule(cpus, nx, ny, nu, workers):
    # The calling thread is one of the workers, so a call starts one thread
    # fewer than it has workers.
    rng = np.random.default_rng(7)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, nx, 2, 0.0)
    yps = grid(rng, ny, 2, 0.0)
    uks = grid(rng, nu, 2, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        report_cpus(mp, cpus)
        with counted_threads() as started:
            a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert len(started) == workers - 1
    assert not any(t.is_alive() for t in started)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert same_bits(a, b)


@pytest.mark.parametrize("nx, workers", [(7, 3), (2, 1), (3, 1)])
def test_a_one_column_table_keeps_two_rows_a_block(monkeypatch, nx, workers):
    # numpy sums a block of one row and one column as a 1-D array, pairwise,
    # which moves the last bits; so such a table is split into blocks of two
    # rows at least.  Only the floor keeps this from real calls below a few
    # hundred CPUs, so the test lowers it.
    monkeypatch.setattr(_kernels, "_FLOOR", 0)
    report_cpus(monkeypatch, 7)
    rng = np.random.default_rng(9)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, nx, 2, 0.0)
    yps = grid(rng, 1, 2, 0.0)
    uks = grid(rng, 200, 2, 0.0)
    with counted_threads() as started:
        a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 1.0)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 1.0)
    assert same_bits(a, b)
    assert len(started) == workers - 1


# Row tiles.  Each task builds its exponent in tiles of at most _TILE
# elements (midpoints x tile rows x ny), one tile at a time in one buffer,
# and sums each tile's midpoints into its rows; wherever the tiles split a
# table, no bit may move.


def tile_rows(nx, ny, nu, chunk=256):
    """The rows of a full tile, restated: _TILE // (chunk * ny), at least
    one row, and two for a one-column table."""
    chunk = min(chunk, 2**20 // (nx * ny), nu)
    return max(2 if ny == 1 else 1, _kernels._TILE // (chunk * ny))


@pytest.mark.parametrize("product", [False, True])
@pytest.mark.parametrize(
    "cpus, nx, ny, nu, shared",
    [
        (1, 70, 64, 256, True),  # chunks of 234 and 22: tiles of 4 rows, 2 left
        (1, 70, 64, 256, False),
        (2, 70, 64, 128, False),  # 2 row blocks of 35 rows: tiles of 8, 3 left
        (1, 100, 100, 300, True),  # chunks of 104 and 92: tiles of 6 rows, 4 left
        (1, 3, 300, 256, False),  # 256 x 300 elements a row: one-row tiles
    ],
)
def test_tiles_that_do_not_divide_the_rows_keep_every_bit(
    monkeypatch, cpus, nx, ny, nu, shared, product
):
    rows, block = tile_rows(nx, ny, nu), nx // cpus
    assert rows < block and (block % rows or rows == 1)
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(nx + ny + nu)
    P, R, s, logw = random_kernel_params(rng, 3)
    if product:
        R = zero_R(rng, 3)
    xps = grid(rng, nx, 3, 0.0)
    yps = xps if shared else grid(rng, ny, 3, 0.0)
    uks = grid(rng, nu, 3, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25))


@pytest.mark.parametrize(
    "nx, nu, chunk",
    [
        (257, 256, 256),  # one row left: the last tile takes 257 rows
        (258, 256, 256),  # two rows left: a tile of its own
        (259, 256, 256),
        (513, 256, 256),  # tiles of 256 and 257 rows
        (5, 40000, 2**15),  # tiles of 2 rows: 2 and 3
    ],
)
def test_a_one_column_table_keeps_two_rows_a_tile(monkeypatch, nx, nu, chunk):
    # numpy sums a tile of one row and one column as a 1-D array, pairwise,
    # which moves the last bits; so no tile of such a table has one row.
    assert tile_rows(nx, 1, nu, chunk) < nx
    report_cpus(monkeypatch, 1)
    rng = np.random.default_rng(nx)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, nx, 2, 0.0)
    yps = grid(rng, 1, 2, 0.0)
    uks = grid(rng, nu, 2, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 1.0, chunk=chunk)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 1.0, chunk=chunk)
    assert same_bits(a, b)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("shared", [True, False])
def test_a_mixed_source_keeps_every_bit_across_tiles(monkeypatch, cpus, shared):
    # The oracle's 3->2 table at grid 256: one chunk of 256 midpoints on a
    # 64 x 64 table, so tiles of 4 rows, each building its own x'R products
    # and cross term.
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(13)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = grid(rng, 64, 3, 0.3)
    yps = xps if shared else grid(rng, 64, 3, 0.3)
    uks = grid(rng, 256, 3, 0.3)
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25))


def traced_peak(*args):
    """quad_table(*args) and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        a = _kernels.quad_table(*args)
        return a, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("product", [True, False])
def test_tiles_bound_the_memory_of_a_3_to_2_table(monkeypatch, cpus, product):
    # 64 x 64 with 256 midpoints, the oracle's 3->2 shape at grid 256: one
    # (256, 64, 64) exponent would be 16 MiB, and its x'R products 36 MiB.
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(14)
    P, R, s, logw = random_kernel_params(rng, 3)
    if product:
        R = zero_R(rng, 3)
    xps = grid(rng, 64, 3, 0.0)
    uks = grid(rng, 256, 3, 0.0)
    a, peak = traced_peak(P, R, s, logw, xps, xps, uks, 0.5)
    assert peak <= 12 * 2**20
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, xps, uks, 0.5))


@pytest.mark.parametrize("cpus", [1, 2])
def test_tiles_bound_the_memory_of_a_512_by_512_table(monkeypatch, cpus):
    # Six chunks of 4 midpoints: the table, one chunk's sum and the weighted
    # result are 4 MiB each, and the tiles 1 MiB.
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(3)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = rng.normal(size=(512, 3))
    uks = rng.normal(size=(24, 3))
    a, peak = traced_peak(P, R, s, logw, xps, xps, uks, 0.5)
    assert peak <= 24 * 2**20
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, xps, uks, 0.5))


def test_no_midpoints_or_no_columns_make_an_empty_sum():
    rng = np.random.default_rng(15)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 4, 2, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, xps, np.zeros((0, 2)), 1.0)
    assert same_bits(a, np.zeros((4, 4), dtype=complex))
    uks = grid(rng, 9, 2, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, np.zeros((0, 2)), uks, 1.0)
    assert a.shape == (4, 0)
    a = _kernels.quad_table(P, R, s, logw, np.zeros((0, 2)), xps, uks, 1.0)
    assert a.shape == (0, 4)


def first_late(chunk_sums):
    """_chunk_sums, with the sum of its first task (chunk 0, first rows)
    held back 50 ms."""

    def late(*args):
        for (start, rows), part in zip(args[-1], chunk_sums(*args)):
            if start == 0 and rows.start in (None, 0):
                time.sleep(0.05)
            yield part

    return late


def test_a_slow_first_chunk_is_still_added_first(monkeypatch):
    # The first chunk's sum arrives after the others; the total must still
    # add it first.  4 chunks of 16 midpoints on 3 CPUs: 3 workers, the
    # calling thread and 2 started threads.
    monkeypatch.setattr(_kernels, "_chunk_sums", first_late(_kernels._chunk_sums))
    report_cpus(monkeypatch, 3)
    rng = np.random.default_rng(4)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 64, 2, 0.0)
    uks = grid(rng, 64, 2, 0.0)
    with counted_threads() as started:
        a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=16)
    b = reference_quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=16)
    assert same_bits(a, b)
    assert len(started) == 2


def test_a_slow_first_block_still_lands_in_its_rows(monkeypatch):
    # One chunk of 64 midpoints on 3 CPUs: 3 row blocks on 3 workers, the
    # calling thread and 2 started threads.  The first block's sum arrives
    # after the others and must still land in the first rows.
    monkeypatch.setattr(_kernels, "_chunk_sums", first_late(_kernels._chunk_sums))
    report_cpus(monkeypatch, 3)
    rng = np.random.default_rng(8)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 64, 2, 0.0)
    yps = grid(rng, 64, 2, 0.0)
    uks = grid(rng, 64, 2, 0.0)
    with counted_threads() as started:
        a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 1.0)
    b = reference_quad_table(P, R, s, logw, xps, yps, uks, 1.0)
    assert same_bits(a, b)
    assert len(started) == 2


def recorded(chunk_sums, log):
    """_chunk_sums, logging each task's sum as it is yielded: the thread
    that computed it and the task's chunk start."""

    def logged(*args):
        for (start, _), part in zip(args[-1], chunk_sums(*args)):
            log.append((threading.get_ident(), start))
            yield part

    return logged


@pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 3)])
def test_the_calling_thread_is_worker_0(monkeypatch, cpus, workers):
    # 4 chunks of 16 midpoints on a 64 x 64 table.  Worker w computes tasks
    # w, w + workers, ...; worker 0 is the calling thread, so one worker
    # starts no thread and 3 workers start 2.
    log = []
    monkeypatch.setattr(_kernels, "_chunk_sums", recorded(_kernels._chunk_sums, log))
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(17)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 64, 2, 0.0)
    uks = grid(rng, 64, 2, 0.0)
    with counted_threads() as started:
        a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=16)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=16))
    assert len(started) == workers - 1
    ran = dict((start, ident) for ident, start in log)
    assert sorted(ran) == [0, 16, 32, 48]
    caller = threading.get_ident()
    assert [ran[16 * k] == caller for k in range(4)] == [k % workers == 0 for k in range(4)]


def test_a_started_thread_runs_at_most_one_task_ahead(monkeypatch):
    # A 3->1 table: 16 chunks of 256 midpoints on 8 x 8.  On 2 CPUs the
    # calling thread computes the even chunks and one started thread the
    # odd ones.  While the caller's first chunk is held back, the thread
    # puts one sum in its slot of one, computes one more and waits, so it
    # yields at most 2 sums before the caller adds its first; an unbounded
    # slot would let it yield all 8.
    log = []
    late = first_late(_kernels._chunk_sums)
    monkeypatch.setattr(_kernels, "_chunk_sums", recorded(late, log))
    report_cpus(monkeypatch, 2)
    rng = np.random.default_rng(18)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = grid(rng, 8, 3, 0.0)
    uks = grid(rng, 4096, 3, 0.0)
    with counted_threads() as started:
        a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, xps, uks, 1.0))
    assert len(started) == 1
    threads = [ident for ident, _ in log]
    assert len(threads) == 16
    assert threads.index(threading.get_ident()) <= 2


@pytest.mark.parametrize("cpus", [1, 3])
def test_workers_keep_the_callers_errstate(monkeypatch, cpus):
    # numpy's errstate is a context variable; a thread that ran outside the
    # caller's context would overflow silently, or warn, not raise.  Chunks
    # of 1 make 16 chunk tasks; one chunk of 16 makes 3 row-block tasks.
    # On 3 CPUs the calling thread computes chunks 0, 3, 6, ... and the
    # first block (rows 0-20); those midpoints and rows lie far out, where
    # the exponent is far below 0, so only the started threads overflow.
    report_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(5)
    P, R, s, _ = random_kernel_params(rng, 2)
    far = np.array([100.0, 0.0])
    xps = np.zeros((64, 2))
    xps[:21] = far
    uks = np.zeros((16, 2))
    uks[::3] = far
    for chunk in (1, 256):
        with counted_threads() as started:
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    _kernels.quad_table(P, R, s, 800.0, xps, xps, uks, 1.0, chunk=chunk)
        assert len(started) == (0 if cpus == 1 else cpus - 1)
        assert not any(t.is_alive() for t in started)
    assert not any(t.is_alive() for t in started)


def test_more_workers_than_cores_under_a_short_switch_interval(monkeypatch):
    # Seven workers on however many cores, switching threads every
    # microsecond: every chunk sum must still arrive, once and in order.
    report_cpus(monkeypatch, 7)
    rng = np.random.default_rng(6)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 16, 2, 0.0)
    uks = grid(rng, 256, 2, 0.0)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: results.extend(
                _kernels.quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=1)
                for _ in range(5)
            )
        )
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    b = reference_quad_table(P, R, s, logw, xps, xps, uks, 1.0, chunk=1)
    assert len(results) == 5
    assert all(same_bits(a, b) for a in results)


# Product kernels.  A source with R = 0, as every pure state and every
# mixture of pure states has, builds no cross term; the former kernels,
# which always built it, must still be reproduced bit for bit on every
# path quad_table takes.


def zero_R(rng, dim):
    """An R of exact zeros, some parts of some entries -0.0."""
    R = np.zeros((dim, dim), dtype=complex)
    R.real[rng.random(size=(dim, dim)) < 0.5] = -0.0
    R.imag[rng.random(size=(dim, dim)) < 0.5] = -0.0
    return R


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 4),
    nx=st.integers(1, 9),
    ny=st.integers(1, 9),
    nu=st.integers(0, 40),
    chunk=st.sampled_from([1, 256]),
    shared=st.booleans(),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    real=st.booleans(),
    s_zero=st.booleans(),
    logw=st.sampled_from([0.0, -0.0, -1.3]),
    cpus=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
# The oracle's 3->1 table at grid 64 (16 chunks on 2 CPUs) and its 3->2
# table (one chunk, row blocks on 4 CPUs).
@example(dim=3, nx=8, ny=8, nu=4096, chunk=256, shared=True, zeros=0.0,
         real=False, s_zero=False, logw=-1.3, cpus=2, seed=1)
@example(dim=3, nx=64, ny=64, nu=64, chunk=256, shared=True, zeros=0.3,
         real=True, s_zero=True, logw=-0.0, cpus=4, seed=2)
def test_product_kernels_skip_the_cross_term_bit_for_bit(
    dim, nx, ny, nu, chunk, shared, zeros, real, s_zero, logw, cpus, seed
):
    rng = np.random.default_rng(seed)
    P, _, s, _ = random_kernel_params(rng, dim)
    R = zero_R(rng, dim)
    if real:
        # With real P and s a zero grid point gives exponent components
        # that are exactly zero.
        P, s = P.real + 0j, s.real + 0j
    if s_zero:
        s = np.zeros(dim, dtype=complex)
    xps = grid(rng, nx, dim, zeros)
    yps = xps if shared else grid(rng, ny, dim, zeros)
    uks = grid(rng, nu, dim, zeros) if nu else np.zeros((1, dim))
    with pytest.MonkeyPatch.context() as mp:
        # Without the floor the small tables take the threaded and
        # row-block paths too.
        mp.setattr(_kernels, "_FLOOR", 0)
        report_cpus(mp, cpus)
        a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk=chunk)
        k = _kernels.kernel_table(P, R, s, logw, xps, yps)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25, chunk))
    assert same_bits(k, reference_kernel_table(P, R, s, logw, xps, yps))


@pytest.mark.parametrize("shared", [True, False])
def test_a_purely_imaginary_R_keeps_the_cross_term(shared):
    rng = np.random.default_rng(10)
    P, R, s, logw = random_kernel_params(rng, 3)
    R = 1j * R.imag
    assert R.any() and not R.real.any()
    xps = grid(rng, 6, 3, 0.3)
    yps = xps if shared else grid(rng, 5, 3, 0.3)
    uks = grid(rng, 40, 3, 0.3)
    a = _kernels.quad_table(P, R, s, logw, xps, yps, uks, 0.25)
    assert same_bits(a, reference_quad_table(P, R, s, logw, xps, yps, uks, 0.25))
    k = _kernels.kernel_table(P, R, s, logw, xps, yps)
    assert same_bits(k, reference_kernel_table(P, R, s, logw, xps, yps))


def test_a_nan_in_R_reaches_every_sample():
    rng = np.random.default_rng(11)
    P, _, s, logw = random_kernel_params(rng, 2)
    R = np.zeros((2, 2), dtype=complex)
    R[0, 1] = np.nan
    xps = grid(rng, 4, 2, 0.0)
    a = _kernels.quad_table(P, R, s, logw, xps, xps, grid(rng, 9, 2, 0.0), 1.0)
    assert np.isnan(a).all()


def test_only_a_nonzero_R_builds_the_cross_term(monkeypatch):
    built = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        built.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    rng = np.random.default_rng(12)
    P, R, s, logw = random_kernel_params(rng, 2)
    xps = grid(rng, 4, 2, 0.0)
    uks = grid(rng, 9, 2, 0.0)
    monkeypatch.setattr(np, "einsum", recording)
    for r, cross in ((zero_R(rng, 2), False), (R, True)):
        built.clear()
        _kernels.quad_table(P, r, s, logw, xps, xps, uks, 1.0)
        assert ("uimn,ujn->uij" in built) == cross
