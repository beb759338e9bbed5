from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqk import (
    DimensionMismatchError,
    FrameMismatchError,
    NotARightInverseError,
    RankDeficientError,
    ReducedFrame,
    build_projection,
    compose_projections,
    identity_projection,
    kernel_decomposition,
)
from pqk import ratlin
from pqk.dpg import random_system
from pqk.frames import ProjectionMatrix

K1 = ReducedFrame(("k1",))
K2 = ReducedFrame(("k1", "k2"))
K2p = ReducedFrame(("p1", "p2"))
K3 = ReducedFrame(("q1", "q2", "q3"))


def test_build_projection_copies_coefficients():
    p = build_projection(K1, K2p, {"k1": [1, 1]})
    assert p.entries == ratlin.mat([[1, 1]])
    assert p.target_frame == K1 and p.source_frame == K2p


def test_identity_projection_from_identity_combos():
    p = build_projection(K2, K2, {"k1": [1, 0], "k2": [0, 1]})
    assert p.entries == ratlin.identity(2)
    assert p.entries == identity_projection(K2).entries


def test_build_projection_rank_deficient():
    with pytest.raises(RankDeficientError):
        build_projection(K2, K2p, {"k1": [1, 0], "k2": [1, 0]})


def test_projection_matrix_has_full_row_rank():
    with pytest.raises(RankDeficientError, match=r"rank 1 < 2"):
        ProjectionMatrix([[1, 1], [1, 1]], source_frame=K2p, target_frame=K2)
    with pytest.raises(RankDeficientError, match=r"rank 0 < 1"):
        ProjectionMatrix([[0, 0]], source_frame=K2p, target_frame=K1)


def test_compose_projections_checks_the_product_rank():
    # Full-rank factors always compose to full rank, so a factor whose
    # entries were replaced after construction stands in for a bad input.
    outer = build_projection(K1, K2, {"k1": [1, 1]})
    inner = build_projection(K2, K3, {"k1": [1, 0, 0], "k2": [0, 1, 0]})
    object.__setattr__(inner, "entries", ratlin.mat([[1, 0, 0], [-1, 0, 0]]))
    with pytest.raises(RankDeficientError, match=r"rank 0 < 1"):
        compose_projections(outer, inner)


def test_build_projection_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        build_projection(K1, K2p, {"k1": [1]})
    with pytest.raises(DimensionMismatchError):
        build_projection(K1, K2p, {})


def test_compose_projections_is_matrix_product():
    outer = build_projection(K1, K2, {"k1": [1, 1]})
    inner = build_projection(K2, K3, {"k1": [1, 0, 0], "k2": [0, 1, 1]})
    composed = compose_projections(outer, inner)
    assert composed.entries == ratlin.mat([[1, 1, 1]])
    assert composed.target_frame == K1 and composed.source_frame == K3


def test_compose_with_identity():
    p = build_projection(K1, K2, {"k1": [1, 1]})
    assert compose_projections(identity_projection(K1), p).entries == p.entries


def test_compose_frame_mismatch():
    p = build_projection(K1, K2, {"k1": [1, 1]})
    q = build_projection(K1, K2p, {"k1": [1, 0]})
    with pytest.raises(FrameMismatchError):
        compose_projections(p, q)


def test_kernel_decomposition_one_dim_kernel():
    p = build_projection(K1, K2, {"k1": [1, 1]})
    dec = kernel_decomposition(p, [[1], [0]])
    assert ratlin.matmul(p.entries, dec.kernel_basis) == ((0,),)
    assert dec.lebesgue_factor == 1
    assert dec.kernel_dim == 1


def test_kernel_decomposition_zero_dim_kernel_is_det_w():
    p = ProjectionMatrix([[2]], source_frame=K1, target_frame=ReducedFrame(("z",)))
    dec = kernel_decomposition(p, [[Fraction(1, 2)]])
    assert ratlin.shape(dec.kernel_basis) == (1, 0)
    assert dec.lebesgue_factor == Fraction(1, 2)


def test_kernel_decomposition_identity():
    p = identity_projection(K2)
    dec = kernel_decomposition(p, ratlin.identity(2))
    assert ratlin.shape(dec.kernel_basis) == (2, 0)
    assert dec.lebesgue_factor == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**16))
def test_kernel_decomposition_reads_the_projections_elimination(edges, depth, seed):
    # The factor read off B's elimination, 1 / |det B[:, pivots]|, is the
    # determinant of the kernel basis beside the label's own embedding.
    system = random_system(edges, depth, seed)
    for edge in system.order:
        plan = edge.witness.plan(system.labels[edge.upper], system.labels[edge.lower])
        dec = plan.decomposition
        b, w = plan.projection.entries, dec.embedding
        kb = ratlin.nullspace(b)
        assert dec.kernel_basis == kb
        assert dec.lebesgue_factor == abs(ratlin.det(ratlin.hstack(kb, w)))
        assert ratlin.matmul(b, dec.kernel_basis) == ((0,) * dec.kernel_dim,) * len(b)


def test_kernel_decomposition_rejects_non_right_inverse():
    p = build_projection(K1, K2, {"k1": [1, 1]})
    with pytest.raises(NotARightInverseError):
        kernel_decomposition(p, [[1], [1]])


TINY = Fraction(1, 2**60)
EXACT_INVERSE = (
    ratlin.mat([[1, "1/2", 0], [0, 1, "1/3"]]),
    ratlin.mat([[1, "-1/2"], [0, 1], [0, 0]]),
)
RIGHT_INVERSE_VERDICTS = {
    "right-inverse": EXACT_INVERSE,
    "off-by-one": (EXACT_INVERSE[0], ratlin.mat([[1, "-1/2"], [0, 1], [1, 0]])),
    "off-by-2**-60": (EXACT_INVERSE[0], ratlin.mat([[1, "-1/2"], [0, 1], [TINY, 0]])),
    "dyadic-inverse-pair": (ratlin.mat([[0.5, 0.25], [0, 4.0]]),
                            ratlin.mat([[2.0, -0.125], [0, 0.25]])),
    "identity": (ratlin.identity(3), ratlin.identity(3)),
    "square-not-identity": (ratlin.mat([[1, 1], [0, 1]]), ratlin.identity(2)),
}


@pytest.mark.parametrize(
    "b, w", RIGHT_INVERSE_VERDICTS.values(), ids=RIGHT_INVERSE_VERDICTS.keys()
)
def test_kernel_decomposition_decides_b_w_exactly(b, w):
    # B @ W = I is decided exactly: the Fraction product is the reference.
    r, c = ratlin.shape(b)
    p = ProjectionMatrix(
        b, source_frame=ReducedFrame([f"s{j}" for j in range(c)]),
        target_frame=ReducedFrame([f"t{i}" for i in range(r)]),
    )
    if ratlin.matmul(b, w) == ratlin.identity(r):
        assert kernel_decomposition(p, w).embedding == w
    else:
        with pytest.raises(NotARightInverseError, match="B @ W is not the identity"):
            kernel_decomposition(p, w)


small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.integers(r, 5).flatmap(
            lambda c: st.tuples(
                st.lists(
                    st.lists(small_rat, min_size=c, max_size=c),
                    min_size=r, max_size=r,
                ),
                st.lists(
                    st.lists(small_rat, min_size=r, max_size=r),
                    min_size=c - r, max_size=c - r,
                ),
            )
        )
    )
)
def test_lebesgue_factor_does_not_depend_on_the_right_inverse(data):
    # Generated systems have unimodular projections (every factor is 1);
    # these have any factor, and W is moved along the kernel by Kb @ M.
    rows, shift = data
    b = ratlin.mat(rows)
    assume(ratlin.rank(b) == len(rows))
    n, n_src = ratlin.shape(b)
    p = ProjectionMatrix(
        b, ReducedFrame(tuple(f"s{j}" for j in range(n_src))),
        ReducedFrame(tuple(f"t{i}" for i in range(n))),
    )
    kb = ratlin.nullspace(b)
    bt = ratlin.transpose(b)
    w = ratlin.matmul(bt, ratlin.inv(ratlin.matmul(b, bt)))
    if shift:
        moved = ratlin.matmul(kb, ratlin.mat(shift))
        w = tuple(tuple(x + y for x, y in zip(r, m)) for r, m in zip(w, moved))
    dec = kernel_decomposition(p, w)
    assert dec.kernel_basis == kb
    assert dec.lebesgue_factor == abs(ratlin.det(ratlin.hstack(kb, w))) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_rat, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(small_rat, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(small_rat, min_size=n, max_size=n), min_size=n, max_size=n),
        )
    )
)
def test_composition_associativity(mats):
    a, b, c = (ratlin.mat(m) for m in mats)
    left = ratlin.matmul(ratlin.matmul(a, b), c)
    right = ratlin.matmul(a, ratlin.matmul(b, c))
    assert left == right
    fl = ratlin.to_float(a) @ ratlin.to_float(b) @ ratlin.to_float(c)
    assert np.abs(fl - ratlin.to_float(left)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.integers(0, 2).flatmap(
            lambda extra: st.lists(
                st.lists(small_rat, min_size=r + extra, max_size=r + extra),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_rank_agrees_between_exact_and_svd(rows):
    m = ratlin.mat(rows)
    exact = ratlin.rank(m)
    fl = ratlin.to_float(m)
    sv = np.linalg.svd(fl, compute_uv=False)
    svd_rank = int(np.sum(sv > 1e-10 * (sv.max() if sv.size else 1.0)))
    assert exact == svd_rank
