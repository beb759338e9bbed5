"""Seeded inputs for the workloads.

Every seed here is derived from integers and fixed tags through SHA-256
(``derive``), never from Python's ``hash()``, so the inputs are the same in
every process whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
from pqk import frames, gaussian, systems


def derive(*parts) -> int:
    """A 32-bit seed determined by ``parts`` (ints and short strings)."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def random_pure(dim: int, rng, scale: float = 1.0, displacement: float = 0.5):
    """A valid pure Gaussian state: Re A positive definite, complex b."""
    L = rng.normal(size=(dim, dim))
    sym = rng.normal(size=(dim, dim))
    A = scale * (L @ L.T / dim + np.eye(dim)) + 0.2j * (sym + sym.T)
    b = displacement * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return gaussian.pure_state(A, b)


def random_mixture(dim: int, n_terms: int, rng, **kw):
    states = [random_pure(dim, rng, **kw) for _ in range(n_terms)]
    weights = rng.uniform(0.2, 1.0, size=n_terms)
    return gaussian.mix(states, list(weights))


def generic_reduction(b_rows):
    """Fine/coarse labels and witness realizing the projection ``b_rows``.

    The fine frame x0..x{n'-1} carries the dual operator basis dx_j; each
    coarse operator is a row of B acting on the fine d.o.f. plus the Gram
    term on the coarse d.o.f., which makes B's pseudoinverse the embedding.
    """
    b = [[Fraction(x) for x in row] for row in b_rows]
    n, n_fine = len(b), len(b[0])
    fine_frame = frames.ReducedFrame(tuple(f"x{j}" for j in range(n_fine)))
    coarse_frame = frames.ReducedFrame(tuple(f"y{i}" for i in range(n)))
    fine_ops = tuple(
        systems.MomentumOperator(
            f"dx{j}", tuple((f"x{k}", Fraction(int(k == j))) for k in range(n_fine))
        )
        for j in range(n_fine)
    )
    coarse_ops = []
    for i in range(n):
        action = {f"x{j}": b[i][j] for j in range(n_fine)}
        for k in range(n):
            action[f"y{k}"] = sum(b[k][j] * b[i][j] for j in range(n_fine))
        coarse_ops.append(systems.MomentumOperator(f"op{i}", tuple(action.items())))
    nonzero = [{j: b[i][j] for j in range(n_fine) if b[i][j] != 0} for i in range(n)]
    witness = systems.OrderWitness(
        combos={f"y{i}": {f"x{j}": c for j, c in nonzero[i].items()} for i in range(n)},
        op_membership={
            f"op{i}": {f"dx{j}": c for j, c in nonzero[i].items()} for i in range(n)
        },
        dof_values={
            **{f"x{j}": {f"p{j}": Fraction(1)} for j in range(n_fine)},
            **{f"y{i}": {f"p{j}": c for j, c in nonzero[i].items()} for i in range(n)},
        },
    )
    fine = systems.SystemLabel(fine_ops, fine_frame)
    coarse = systems.SystemLabel(tuple(coarse_ops), coarse_frame)
    return fine, coarse, witness


def ap_terms(rng: random.Random, dim: int, n_terms: int = 3) -> list:
    """Raw almost-periodic data: (integer frequency, rational complex amplitude)."""
    terms = []
    for _ in range(n_terms):
        coords = tuple(rng.randint(-3, 3) for _ in range(dim))
        amp = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), 3))
        terms.append((coords, amp))
    return terms


def top_label(order) -> str:
    """The label with the most witnessed relations below it (ties: by name)."""
    below: dict[str, int] = {}
    for edge in order:
        below[edge.upper] = below.get(edge.upper, 0) + 1
    return min(below, key=lambda name: (-below[name], name))


def chains_from(order, top: str) -> list[tuple[str, str, str]]:
    """Witnessed triples top >= mid >= bottom starting at ``top``."""
    pairs = {(e.upper, e.lower) for e in order}
    return [
        (top, mid, bot)
        for (t, mid) in sorted(pairs)
        if t == top
        for (m, bot) in sorted(pairs)
        if m == mid and (top, bot) in pairs and len({top, mid, bot}) == 3
    ]
