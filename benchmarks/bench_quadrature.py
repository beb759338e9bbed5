"""Benchmark: the hot grid kernels.

Times the midpoint partial-trace table and the kernel grid sampler at the
sizes the quadrature oracle and positivity probe actually hit, plus one
oversized case.  Run:

    python benchmarks/bench_quadrature.py
"""

import time

import numpy as np

from pqk import _kernels


def make_params(rng, n):
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + np.eye(n) + 0.1j * np.diag(rng.normal(size=n))
    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    R = 0.1 * (herm + herm.conj().T) / 2
    s = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return P, R, s, -1.3


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_quad(n_fine, n_coarse, grid, eval_points):
    rng = np.random.default_rng(0)
    P, R, s, logw = make_params(rng, n_fine)
    d = n_fine - n_coarse
    xps = rng.normal(size=(eval_points**n_coarse, n_fine))
    h = 16.0 / grid
    axes = np.meshgrid(*([np.linspace(-8, 8, grid)] * d), indexing="ij")
    us = np.stack([a.ravel() for a in axes], axis=-1)
    uks = us @ rng.normal(size=(d, n_fine))
    weight = h**d
    t = timeit(_kernels.quad_table, P, R, s, logw, xps, xps, uks, weight)
    print(
        f"quad  {n_fine}->{n_coarse} grid={grid:4d} table={len(xps)}^2"
        f"  {t * 1e3:9.1f} ms"
    )


def bench_table(n, points):
    rng = np.random.default_rng(1)
    P, R, s, logw = make_params(rng, n)
    xs = rng.normal(size=(points, n))
    t = timeit(_kernels.kernel_table, P, R, s, logw, xs, xs)
    print(f"table dim={n} points={points:5d}^2  {t * 1e3:9.1f} ms")


def main():
    bench_quad(2, 1, 64, 8)
    bench_quad(3, 1, 64, 8)
    bench_quad(3, 1, 128, 8)
    bench_quad(3, 2, 256, 8)
    bench_table(1, 64)
    bench_table(2, 64)
    bench_table(1, 512)


if __name__ == "__main__":
    main()
