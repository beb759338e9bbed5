import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pqk
from pqk import (
    MomentumOperator,
    OrderWitness,
    ReducedFrame,
    SystemLabel,
    mix,
    pure_state,
)
from pqk.dpg import random_system


def subprocess_env(**extra):
    """The current environment, importing this pqk checkout, plus ``extra``."""
    src = str(Path(pqk.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + path if path else ""),
        **extra,
    }


def random_pure(dim, rng, scale=1.0, displacement=0.5):
    """A random valid pure Gaussian state of the given dimension."""
    L = rng.normal(size=(dim, dim))
    sym = rng.normal(size=(dim, dim))
    A = scale * (L @ L.T / dim + np.eye(dim)) + 0.2j * (sym + sym.T)
    b = displacement * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return pure_state(A, b)


def random_mixture(dim, n_terms, rng, **kw):
    states = [random_pure(dim, rng, **kw) for _ in range(n_terms)]
    weights = rng.uniform(0.2, 1.0, size=n_terms)
    return mix(states, list(weights))


def generic_reduction(b_rows):
    """A fine/coarse label pair realizing the projection with matrix b_rows.

    Fine d.o.f. are x0..x_{n'-1} with a dual operator basis; the coarse
    operators are the rows of B acting on them, which makes B's
    pseudoinverse the distinguished embedding.
    """
    b = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in b_rows]
    n, n_fine = len(b), len(b[0])
    fine_frame = ReducedFrame(tuple(f"x{j}" for j in range(n_fine)))
    coarse_frame = ReducedFrame(tuple(f"y{i}" for i in range(n)))
    fine_ops = tuple(
        MomentumOperator(
            f"dx{j}", tuple((f"x{k}", Fraction(int(k == j))) for k in range(n_fine))
        )
        for j in range(n_fine)
    )
    coarse_ops = []
    for i in range(n):
        action = {f"x{j}": b[i][j] for j in range(n_fine)}
        for k in range(n):
            action[f"y{k}"] = sum(b[k][j] * b[i][j] for j in range(n_fine))
        coarse_ops.append(MomentumOperator(f"op{i}", tuple(action.items())))
    fine = SystemLabel(fine_ops, fine_frame)
    coarse = SystemLabel(tuple(coarse_ops), coarse_frame)
    witness = OrderWitness(
        combos={
            f"y{i}": {f"x{j}": b[i][j] for j in range(n_fine) if b[i][j] != 0}
            for i in range(n)
        },
        op_membership={
            f"op{i}": {f"dx{j}": b[i][j] for j in range(n_fine) if b[i][j] != 0}
            for i in range(n)
        },
        dof_values={
            **{f"x{j}": {f"p{j}": Fraction(1)} for j in range(n_fine)},
            **{
                f"y{i}": {
                    f"p{j}": b[i][j] for j in range(n_fine) if b[i][j] != 0
                }
                for i in range(n)
            },
        },
    )
    return fine, coarse, witness


@pytest.fixture(scope="session")
def demo_system():
    return random_system(3, 2, seed=7)


@pytest.fixture(scope="session")
def deep_system():
    return random_system(2, 3, seed=11)
