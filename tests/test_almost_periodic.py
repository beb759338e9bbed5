import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk import (
    FrameMismatchError,
    QC,
    ReducedFrame,
    ap_vector,
    basis_vector,
    build_projection,
    compose_projections,
    inner_product,
    limit_equal,
    promote,
)

K1 = ReducedFrame(("k1",))
K2 = ReducedFrame(("k1", "k2"))
K3 = ReducedFrame(("q1", "q2", "q3"))

B12 = build_projection(K1, K2, {"k1": [1, 1]})
B23 = build_projection(
    K2, K3, {"k1": [1, 0, 0], "k2": [Fraction(1, 2), 1, 0]}
)


def test_kronecker_inner_product_table():
    e1 = basis_vector(K1, (Fraction(1),))
    e2 = basis_vector(K1, (Fraction(2),))
    assert inner_product(e1, e1) == QC(Fraction(1))
    assert inner_product(e1, e2) == QC()
    assert inner_product(e2, e2) == QC(Fraction(1))


def test_inner_product_sesquilinear():
    e1 = basis_vector(K1, (Fraction(1),))
    e2 = basis_vector(K1, (Fraction(2),))
    v = ap_vector(K1, {(Fraction(1),): QC(Fraction(2)), (Fraction(2),): QC(0, 1)})
    # <2 e1 + i e2, e2> = conj(i) * 1 = -i
    assert inner_product(v, e2) == QC(0, -1)
    assert inner_product(e2, v) == QC(0, 1)


def test_inner_product_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        inner_product(basis_vector(K1, (1,)), basis_vector(K2, (1, 0)))


def test_vector_equality_and_hash_follow_frame_and_terms():
    frame = ReducedFrame(("a", "b"))
    terms = [((1, 0), QC(Fraction(2))), ((0, 3), QC(Fraction(0), Fraction(1, 2)))]
    v, w = ap_vector(frame, terms), ap_vector(frame, terms[::-1])
    assert v == w and hash(v) == hash(w)
    assert ap_vector(ReducedFrame(("a", "c")), terms) != v
    assert (v == v.amplitudes) is False


def test_promote_transposes_frequencies():
    v = basis_vector(K1, (Fraction(1),))
    promoted = promote(v, B12)
    (freq, amp), = promoted.amplitudes
    assert freq.coords == (Fraction(1), Fraction(1))
    assert amp == QC(Fraction(1))


def test_promote_empty_vector_is_empty():
    promoted = promote(ap_vector(K1, {}), B12)
    assert promoted.frame == K2 and promoted.amplitudes == ()


def test_promote_requires_matching_frame():
    with pytest.raises(FrameMismatchError):
        promote(basis_vector(K2, (1, 0)), B12)


def rational_vector(rng, frame, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        coords = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(frame.dim)
        )
        amp = QC(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        terms[coords] = terms.get(coords, QC()) + amp
    return ap_vector(frame, terms)


def test_promote_is_exact_isometry():
    rng = random.Random(0)
    for _ in range(200):
        v = rational_vector(rng, K1)
        w = rational_vector(rng, K1)
        assert inner_product(promote(v, B12), promote(w, B12)) == inner_product(v, w)


def test_promote_cocycle_exact():
    rng = random.Random(1)
    B13 = compose_projections(B12, B23)
    for _ in range(200):
        v = rational_vector(rng, K1)
        assert promote(promote(v, B12), B23) == promote(v, B13)


def test_limit_equal_identifies_vector_with_its_promotion():
    rng = random.Random(2)
    v = rational_vector(rng, K1)
    w = promote(v, B12)
    # compare v over K1 with w over K2 inside K3
    B13 = compose_projections(B12, B23)
    assert limit_equal(v, w, B13, B23)


def test_limit_equal_distinguishes_scaled_frequency():
    e1 = basis_vector(K1, (Fraction(1),))
    e2 = basis_vector(K1, (Fraction(2),))
    ident = build_projection(K1, K1, {"k1": [1]})
    assert not limit_equal(e1, e2, ident, ident)


def test_limit_equal_through_different_intermediates():
    # diamond K3 >= K2, Kmid >= K1 with consistent factorizations of the
    # unique K1-over-K3 combination: presentations of one limit vector at
    # the two intermediate frames are identified.
    rng = random.Random(3)
    v = rational_vector(rng, K1)
    Kmid = ReducedFrame(("m1", "m2"))
    B1m = build_projection(K1, Kmid, {"k1": [1, 1]})
    Bm3 = build_projection(
        Kmid, K3, {"m1": [1, 1, 0], "m2": [Fraction(1, 2), 0, 0]}
    )
    via_k2 = compose_projections(B12, B23)
    via_mid = compose_projections(B1m, Bm3)
    assert via_k2.entries == via_mid.entries  # same limit map, two factorizations
    w2 = promote(v, B12)
    wm = promote(v, B1m)
    assert w2.frame != wm.frame
    assert limit_equal(w2, wm, B23, Bm3)


def test_limit_equal_rejects_mismatched_upper_frames():
    v = basis_vector(K1, (1,))
    with pytest.raises(FrameMismatchError):
        limit_equal(v, v, B12, B23)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_inner_product_positive_definite(terms):
    v = ap_vector(K1, {(c,): QC(re, im) for c, re, im in terms})
    norm = inner_product(v, v)
    assert norm.im == 0
    assert norm.re >= 0
    if v.amplitudes:
        assert norm.re > 0
    w = ap_vector(K1, {(c,): QC(re, -im) for c, re, im in terms})
    assert inner_product(v, w) == inner_product(w, v).conjugate()
