import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk import ratlin


small_rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(small_rat, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


def test_as_fraction_is_lossless_on_floats():
    assert ratlin.as_fraction(0.1) == Fraction(0.1)
    assert float(ratlin.as_fraction(0.1)) == 0.1
    assert ratlin.as_fraction("3/7") == Fraction(3, 7)
    assert ratlin.as_fraction(np.float64(0.25)) == Fraction(1, 4)


@pytest.mark.parametrize(
    "kind", [np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64],
)
def test_as_fraction_is_exact_on_numpy_integers(kind):
    info = np.iinfo(kind)  # np.uint64's max is 2**64 - 1, past any float
    for value in (int(info.min), 0, 1, int(info.max)):
        assert ratlin.as_fraction(kind(value)) == Fraction(value)


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64])
def test_as_fraction_is_exact_on_numpy_floats(kind):
    info = np.finfo(kind)
    for value in (kind(0.1), kind(-2.5), info.tiny, info.max, info.eps):
        # Every binary float is a dyadic rational; as_integer_ratio is exact.
        assert ratlin.as_fraction(value) == Fraction(*value.as_integer_ratio())


@pytest.mark.parametrize(
    "value", [np.bool_(True), 1 + 2j, np.complex128(1.5), Decimal("0.1"), True, False]
)
def test_as_fraction_rejects_bools_complexes_and_decimals(value):
    with pytest.raises(TypeError):
        ratlin.as_fraction(value)


def test_exact_pairs_sorts_converts_and_keeps_zeros():
    expected = (("1", Fraction(1, 2)), ("a", Fraction(0)), ("b", Fraction(3)))
    assert ratlin.exact_pairs({"b": 3, 1: "1/2", "a": 0.0}, "row", "entry") == expected
    assert ratlin.exact_pairs([("b", 3), (1, 0.5), ("a", 0)], "row", "entry") == expected
    assert ratlin.exact_pairs((), "row", "entry") == ()
    with pytest.raises(ValueError, match="^row 'r' has duplicate entry entries$"):
        ratlin.exact_pairs({1: 1, "1": 2}, "row 'r'", "entry")


def test_matmul_identity_and_shapes():
    m = ratlin.mat([[1, 2], [3, 4], [5, 6]])
    assert ratlin.matmul(ratlin.identity(3), m) == m
    with pytest.raises(ValueError):
        ratlin.matmul(m, m)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_nullspace_annihilates_and_completes_rank(rows):
    m = ratlin.mat(rows)
    ns = ratlin.nullspace(m)
    r, c = ratlin.shape(m)
    rank = ratlin.rank(m)
    assert ratlin.shape(ns) == (c, c - rank)
    if c - rank:
        assert ratlin.matmul(m, ns) == ((0,) * (c - rank),) * r
        assert ratlin.rank(ratlin.transpose(ns)) == c - rank


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_rat, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_det_matches_float_and_inverse(rows):
    m = ratlin.mat(rows)
    d = ratlin.det(m)
    assert abs(float(d) - np.linalg.det(ratlin.to_float(m))) < 1e-8
    if d != 0:
        inv = ratlin.inv(m)
        n = len(rows)
        assert ratlin.matmul(m, inv) == ratlin.identity(n)


def test_rref_pivots():
    m = ratlin.mat([[0, 2, 1], [0, 4, 2]])
    red, pivots = ratlin.rref(m)
    assert pivots == (1,)
    assert red[0] == (Fraction(0), Fraction(1), Fraction(1, 2))
    assert all(x == 0 for x in red[1])


def test_from_sparse():
    rows = [{"a": Fraction(1)}, {"b": Fraction(2), "a": Fraction(-1)}]
    assert ratlin.from_sparse(rows, ["a", "b"]) == ratlin.mat([[1, 0], [-1, 2]])


# --- the sparse-row kernel against plain Fraction dicts -------------------------

sparse_key = st.sampled_from("abcde")
# Negative, dyadic and general rationals, zero included.
sparse_coeff = st.one_of(
    st.integers(-8, 8).map(lambda n: Fraction(n, 4)), small_rat
)
sparse_row = st.dictionaries(sparse_key, sparse_coeff, max_size=4)


def naive_combine(terms):
    total = {}
    for c, row in terms:
        for k, v in row.items():
            total[k] = total.get(k, Fraction(0)) + c * v
    return {k: v for k, v in total.items() if v != 0}


def test_combine_cases():
    a = {"x": Fraction(1), "y": Fraction(1, 2)}
    b = {"y": Fraction(1), "z": Fraction(-3)}
    # y cancels to zero, so its key is dropped; x and z keep first-seen order.
    got = ratlin.combine([(Fraction(1), a), (Fraction(-1, 2), b)])
    assert list(got.items()) == [("x", 1), ("z", Fraction(3, 2))]
    assert ratlin.combine([]) == {}
    assert ratlin.combine([(Fraction(2), a), (Fraction(0), b)]) == {"x": 2, "y": 1}
    disjoint = ratlin.combine([(Fraction(-3, 8), {"p": Fraction(1)}), (1, {"q": -1})])
    assert list(disjoint.items()) == [("p", Fraction(-3, 8)), ("q", -1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(sparse_coeff, sparse_row), max_size=5))
def test_combine_matches_plain_dict_sums(terms):
    got = ratlin.combine(terms)
    assert list(got.items()) == list(naive_combine(terms).items())
    assert all(isinstance(v, Fraction) and v != 0 for v in got.values())
    assert ratlin.combine([*terms, *((-c, row) for c, row in terms)]) == {}


@settings(max_examples=60, deadline=None)
@given(st.lists(sparse_row, max_size=4), st.lists(sparse_key, unique=True))
def test_from_sparse_matches_plain_dict_reads(rows, keys):
    expected = tuple(
        tuple(row[k] if k in row else Fraction(0) for k in keys) for row in rows
    )
    assert ratlin.from_sparse(rows, keys) == expected


# --- the integer elimination kernel against plain Fraction elimination -------


def naive_rref(m):
    """Gauss-Jordan over Fractions, pivoting on the first nonzero entry at or
    below the current row: the reference the integer kernel must equal."""
    rows = [list(row) for row in m]
    nr, nc = ratlin.shape(m)
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def naive_det(m):
    """Determinant by Fraction elimination below the diagonal."""
    nr, nc = ratlin.shape(m)
    rows = [list(row) for row in m]
    result = Fraction(1)
    for c in range(nc):
        pivot = next((i for i in range(c, nr) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        inv_pv = 1 / rows[c][c]
        for i in range(c + 1, nr):
            if rows[i][c] != 0:
                f = rows[i][c] * inv_pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def naive_nullspace(m):
    """Null-space columns read off naive_rref: free variables set to 1 one
    at a time, in column order."""
    red, pivots = naive_rref(m)
    nc = ratlin.shape(m)[1]
    cols = []
    for f in (c for c in range(nc) if c not in pivots):
        col = [Fraction(0)] * nc
        col[f] = Fraction(1)
        for r, p in enumerate(pivots):
            col[p] = -red[r][f]
        cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(nc))


def outcome(fn, m):
    try:
        return fn(m)
    except ValueError as exc:
        return ("ValueError", str(exc))


rational_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    # Dyadic floats, converted losslessly, with denominators up to 2**60.
    st.builds(
        lambda k, e: ratlin.as_fraction(math.ldexp(k, -e)),
        st.integers(-(2**53), 2**53),
        st.integers(0, 60),
    ),
)


@st.composite
def rational_matrices(draw, square=False):
    """Matrices up to 8x12 (0x0 and n x 0 included) with zero rows, zero
    columns and rows repeating a multiple of another row."""
    nr = draw(st.integers(0, 8))
    nc = nr if square else draw(st.integers(0, 12))
    rows = [[draw(rational_entry) for _ in range(nc)] for _ in range(nr)]
    if nr and nc:
        for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
            rows[i] = [Fraction(0)] * nc
        for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
            for row in rows:
                row[j] = Fraction(0)
        if nr > 1 and draw(st.booleans()):
            src, dst = draw(st.permutations(range(nr)))[:2]
            factor = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            rows[dst] = [factor * x for x in rows[src]]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_integer_kernel_equals_fraction_elimination(m):
    red, pivots = naive_rref(m)
    assert ratlin.rref(m) == (red, pivots)
    assert ratlin.rank(m) == len(pivots)
    assert ratlin.nullspace(m) == naive_nullspace(m)
    assert tuple(ratlin.echelon(m).pivots) == pivots
    with mock.patch.object(ratlin, "rref", naive_rref):
        expected_inv = outcome(ratlin.inv, m)
    assert outcome(ratlin.inv, m) == expected_inv
    if m and len(pivots) == len(m):
        block = tuple(tuple(row[p] for p in pivots) for row in m)
        assert ratlin.pivot_det(ratlin.echelon(m)) == naive_det(block)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(square=True))
def test_integer_kernel_det_and_inverse(m):
    assert ratlin.det(m) == naive_det(m)
    with mock.patch.object(ratlin, "rref", naive_rref):
        expected = outcome(ratlin.inv, m)
    assert outcome(ratlin.inv, m) == expected
    assert (expected[:1] == ("ValueError",)) == (naive_det(m) == 0)


# --- the join's full-pivot Bareiss pass against Fraction elimination ---------


def naive_join_elimination(act, b, n):
    """The join's former Fraction full-pivot loop, rank test and rref of
    [A | B]: the reference ``full_pivot_solve`` must equal."""
    m = len(act)
    if len(naive_rref(act)[1]) < m:
        return None
    rows = [list(r) for r in act]
    cols = list(range(n))
    for r in range(m):
        _, pivot_row, pivot_pos = min(
            ((-abs(rows[i][cols[p]]), cols[p], i), i, p)
            for p in range(r, n)
            for i in range(r, m)
            if rows[i][cols[p]] != 0
        )
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        cols[r], cols[pivot_pos] = cols[pivot_pos], cols[r]
        top, c = rows[r], cols[r]
        for row in rows[r + 1 :]:
            if row[c] != 0:
                fct = row[c] / top[c]
                for k in cols[r + 1 :]:
                    row[k] -= fct * top[k]
    lead_cols = tuple(tuple(row[c] for c in cols[:m]) for row in act)
    red, _ = naive_rref(ratlin.hstack(lead_cols, b))
    return cols, tuple(row[m:] for row in red)


def integer_rows(act, b):
    """[act | b] times one common lcm of all denominators."""
    scale = math.lcm(*(x.denominator for row in (*act, *b) for x in row))
    return [[int(x * scale) for x in ra + rb] for ra, rb in zip(act, b)]


join_entry = st.one_of(
    # Zeros and small integers of equal magnitude: sparse rows and ties.
    st.just(Fraction(0)),
    st.sampled_from((0, 1, -1, 2, -2)).map(Fraction),
    st.sampled_from((3, 5, 2**60)).flatmap(
        lambda d: st.integers(-2 * d, 2 * d).map(lambda k: Fraction(k, d))
    ),
    st.builds(lambda s, k: Fraction(s * (2**70 + k)),
              st.sampled_from((1, -1)), st.integers(-3, 3)),
)


@st.composite
def join_eliminations(draw):
    """(act, b, n): up to 5 rows, from one column fewer to three more act
    columns, and 0-3 b columns; act is sometimes made rank-deficient by a
    row repeating a multiple of another."""
    m = draw(st.integers(0, 5))
    n, k = draw(st.integers(max(m - 1, 0), m + 3)), draw(st.integers(0, 3))
    act = [[draw(join_entry) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.integers(0, 3)) == 0:
        src, dst = draw(st.permutations(range(m)))[:2]
        factor = draw(st.sampled_from((Fraction(-3, 5), Fraction(1), Fraction(2**61))))
        act[dst] = [factor * x for x in act[src]]
    b = [[draw(join_entry) for _ in range(k)] for _ in range(m)]
    return tuple(map(tuple, act)), tuple(map(tuple, b)), n


@settings(max_examples=60, deadline=None)
@given(join_eliminations())
def test_full_pivot_solve_equals_the_fraction_join_elimination(case):
    act, b, n = case
    assert ratlin.full_pivot_solve(integer_rows(act, b), n) == (
        naive_join_elimination(act, b, n)
    )


@pytest.mark.parametrize(
    "act,b,n,cols",
    [
        ((), (), 3, [0, 1, 2]),  # m = 0: no pivot, every column in order
        (((0, 1), (1, 0)), ((1,), (2,)), 2, [0, 1]),  # a tie goes to the column
        (((1, 2), (2, 4)), ((1,), (0,)), 2, None),  # rank 1 < 2
        (((0, -3, 3), (1, 0, 0)), ((1, 0), (0, 1)), 3, [1, 0, 2]),
    ],
)
def test_full_pivot_solve_cases(act, b, n, cols):
    act, b = ratlin.mat(act), ratlin.mat(b)
    got = ratlin.full_pivot_solve(integer_rows(act, b), n)
    assert got == naive_join_elimination(act, b, n)
    assert (got and got[0]) == cols


# --- integer products and sums against plain Fraction arithmetic --------------


def naive_matmul(a, b):
    """Entry-by-entry Fraction dot products: the reference for matmul."""
    ra, ca = ratlin.shape(a)
    rb, cb = ratlin.shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} @ {rb}x{cb}")
    bt = ratlin.transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def naive_dot(pairs):
    return sum((x * y for x, y in pairs), Fraction(0))


# Exact entries of every kind the products meet: Fractions (dyadic floats
# with denominators up to 2**60 among them) and plain ints, some large.
product_entry = st.one_of(rational_entry, st.integers(-(2**70), 2**70))


@st.composite
def product_operands(draw):
    """a (r x k), b (k x c) and v (length k), zero rows included; r, k or c
    may be 0 (a 0 x k matrix is ``()``)."""
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    a = [[draw(product_entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(product_entry) for _ in range(c)] for _ in range(k)]
    for m in (a, b):
        if m and m[0] and draw(st.booleans()):
            m[draw(st.integers(0, len(m) - 1))] = [0] * len(m[0])
    v = [draw(product_entry) for _ in range(k)]
    return tuple(map(tuple, a)), tuple(map(tuple, b)), tuple(v)


@settings(max_examples=60, deadline=None)
@given(product_operands())
def test_integer_products_equal_fraction_products(operands):
    a, b, v = operands
    assert outcome(lambda m: ratlin.matmul(m, b), a) == outcome(
        lambda m: naive_matmul(m, b), a
    )
    for row in a:
        pairs = list(zip(row, v))
        total = naive_dot(pairs)
        assert ratlin.equals_dot(total, iter(pairs))
        assert not ratlin.equals_dot(total + Fraction(1, 2), iter(pairs))
    assert ratlin.equals_dot(Fraction(0), iter(()))


TINY = Fraction(1, 2**60)
F = Fraction
DOT_VERDICTS = {
    "equal": (F(7, 6), [(F(1, 2), F(1)), (F(2, 3), F(1))]),
    "off-by-half": (F(7, 6) + F(1, 2), [(F(1, 2), F(1)), (F(2, 3), F(1))]),
    "cancelling-to-zero": (F(0), [(F(1, 3), F(3)), (F(-1), F(1))]),
    "zero-off-by-2**-60": (TINY, [(F(1, 3), F(3)), (F(-1), F(1))]),
    "negative": (F(-5, 4), [(F(-1, 2), F(5, 2))]),
    "sign-differs": (F(5, 4), [(F(-1, 2), F(5, 2))]),
    "no-pairs": (F(0), []),
    "no-pairs-nonzero": (F(1, 2), []),
    "large-denominators": (F(3, 2**61), [(TINY, F(1, 2)), (TINY, F(1))]),
}


@pytest.mark.parametrize("value, pairs", DOT_VERDICTS.values(), ids=DOT_VERDICTS.keys())
def test_equals_dot_agrees_with_the_fraction_sum(value, pairs):
    assert ratlin.equals_dot(value, iter(pairs)) == (value == naive_dot(pairs))


def test_dot_consumes_pairs_lazily_in_order():
    def pairs():
        yield Fraction(1, 3), Fraction(3)
        raise KeyError("second")

    with pytest.raises(KeyError, match="second"):
        ratlin.equals_dot(Fraction(1), pairs())
