import tracemalloc

import numpy as np

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


def test_quad_table_memory_stays_bounded_on_a_large_grid():
    # 512 evaluation points per side, as a 3-dimensional target's 8**3 grid:
    # a (chunk, 512, 512) complex intermediate is 4 MiB per midpoint.
    rng = np.random.default_rng(3)
    P, R, s, logw = random_kernel_params(rng, 3)
    xps = rng.normal(size=(512, 3))
    uks = rng.normal(size=(24, 3))
    tracemalloc.start()
    try:
        a = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
    b = _kernels.quad_table(P, R, s, logw, xps, xps, uks, 0.5, chunk=1)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
