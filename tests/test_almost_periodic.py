import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from pqk.almost_periodic import APVector, Frequency
from pqk.errors import RankDeficientError
from pqk.frames import ProjectionMatrix

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


def test_a_tuple_amplitude_reads_re_then_im():
    v = ap_vector(K1, {(Fraction(1),): (Fraction(1, 2), 3)})
    assert inner_product(basis_vector(K1, (Fraction(1),)), v) == QC(
        Fraction(1, 2), Fraction(3)
    )


def test_a_repeated_frequency_sums_its_amplitudes():
    # 1/3 written twice, once as "2/6": one term, the sum of both amplitudes.
    v = ap_vector(K1, [((Fraction(1, 3),), 2), (("2/6",), (0, "1/5"))])
    assert [(f.coords, a) for f, a in v.amplitudes] == [
        ((Fraction(1, 3),), QC(Fraction(2), Fraction(1, 5)))
    ]


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


# --- exact keys: frequencies hash by their integer pairs ------------------------


def written_forms(value):
    """Ways a caller or a document may write one rational coordinate."""
    forms = [value, str(value), f"{2 * value.numerator}/{2 * value.denominator}"]
    if value.denominator == 1:
        forms.append(int(value))
    if value.denominator & (value.denominator - 1) == 0:  # dyadic: exact as a float
        forms.append(float(value))
    return forms


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=50, deadline=None)
@given(st.tuples(RATIONALS, RATIONALS))
def test_frequencies_of_equal_value_are_equal_and_hash_equal(coords):
    freqs = [Frequency(c, K2) for c in itertools.product(*map(written_forms, coords))]
    assert all(f == freqs[0] and hash(f) == hash(freqs[0]) for f in freqs)
    assert all(f.coords == coords for f in freqs)
    moved = Frequency((coords[0] + Fraction(1, 3), coords[1]), K2)
    assert moved != freqs[0]
    other_frame = Frequency(coords, ReducedFrame(("k1", "k3")))
    assert other_frame != freqs[0]


def naive_merge(terms):
    """The reference merge: amplitudes (re, im) summed exactly per coordinate
    tuple, zeros dropped, sorted by coordinates."""
    sums = {}
    for coords, (re, im) in terms:
        key = tuple(Fraction(c) for c in coords)
        r0, i0 = sums.get(key, (0, 0))
        sums[key] = (r0 + re, i0 + im)
    return sorted((k, v) for k, v in sums.items() if v != (0, 0))


def as_pairs(v):
    return [(f.coords, (a.re, a.im)) for f, a in v.amplitudes]


def naive_inner(v, w):
    """Sum of conj(a) b over the coordinates v and w share."""
    wmap = dict(w)
    re = im = Fraction(0)
    for coords, (ar, ai) in v:
        if coords in wmap:
            br, bi = wmap[coords]
            re, im = re + ar * br + ai * bi, im + ar * bi - ai * br
    return re, im


AMPLITUDES = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)


@st.composite
def repeated_terms(draw, frame):
    """Terms over a few frequencies, each written any way, some repeated and
    some followed by the amplitude that cancels them."""
    pool = draw(st.lists(st.tuples(*[RATIONALS] * frame.dim), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        coords = draw(st.sampled_from(pool))
        written = tuple(draw(st.sampled_from(written_forms(c))) for c in coords)
        re, im = draw(AMPLITUDES)
        terms.append((written, (re, im)))
        if draw(st.booleans()):
            terms.append((coords, (-re, -im)))
    return terms


def vector(frame, terms):
    return APVector(frame, tuple((Frequency(c, frame), QC(re, im)) for c, (re, im) in terms))


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.lists(st.lists(st.fractions(-3, 3, max_denominator=7), min_size=3, max_size=3),
             min_size=2, max_size=2),
)
def test_merge_promote_and_inner_match_an_exact_reference(data, rows):
    v_terms = data.draw(repeated_terms(K2))
    w_terms = data.draw(repeated_terms(K2))
    v, w = vector(K2, v_terms), vector(K2, w_terms)
    ref_v, ref_w = naive_merge(v_terms), naive_merge(w_terms)
    assert as_pairs(v) == ref_v and as_pairs(w) == ref_w
    assert (inner_product(v, w).re, inner_product(v, w).im) == naive_inner(ref_v, ref_w)
    try:
        projection = ProjectionMatrix(rows, K3, K2)
    except RankDeficientError:
        assume(False)
    for vec, ref in ((v, ref_v), (w, ref_w)):
        lifted = [
            (tuple(sum(c * row[j] for c, row in zip(coords, rows)) for j in range(3)), amp)
            for coords, amp in ref
        ]
        assert as_pairs(promote(vec, projection)) == naive_merge(lifted)
    up = inner_product(promote(v, projection), promote(w, projection))
    assert (up.re, up.im) == naive_inner(ref_v, ref_w)
