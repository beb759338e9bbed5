"""Exact rational linear algebra on small dense matrices.

Matrices are immutable tuples of tuples of ``fractions.Fraction``.  Floats
are dyadic rationals, so conversion through :func:`as_fraction` is lossless
and every computation here (products, rank, null space, determinant,
inverse) is exact.  All of them run over integers: each row (or column) is
scaled by the lcm of its denominators, so a product entry is one integer
dot product over the two scales, and rank, null space, determinant and
inverse share one fraction-free Gauss-Jordan elimination (:func:`echelon`)
whose row updates are divided by their gcd; a caller that needs several of
them from one matrix keeps its :class:`Echelon`, and one that needs only
the pivot columns reads them off it.  :func:`equals_dot` decides whether
a value is a sum of products on integers and makes no ``Fraction``.  A
second elimination, :func:`full_pivot_solve`, is Bareiss's full-pivot pass
that the DPG join reads its edge order, rank test and lead faces off.
``Fraction`` objects are made only on return, one per entry (:func:`rref`
and :func:`full_pivot_solve` share one zero).  Sparse rows
(mappings from keys to ``Fraction``) are summed by :func:`combine` and made
dense by :func:`from_sparse`; :func:`exact_pairs` turns a caller's keyed
values into sorted exact pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from numbers import Integral, Real
from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

Row = tuple[Fraction, ...]
Mat = tuple[Row, ...]


def as_fraction(x) -> Fraction:
    """Convert int/float/str/Fraction to an exact Fraction; a bool is not a
    number here, though Python counts it as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("cannot convert bool to Fraction")
    # numpy's integer and float scalars register with these; bool_ does not.
    if isinstance(x, Integral):
        return Fraction(int(x))
    if isinstance(x, Real):
        return Fraction(float(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def exact_pairs(items, owner: str, kind: str) -> tuple[tuple[str, Fraction], ...]:
    """Sorted (key, value) pairs with str keys and exact values, from a
    mapping or from pairs: the one conversion of a caller's keyed values.
    A key given twice (say as 1 and "1") is a ``ValueError`` naming
    ``owner``; zeros are kept."""
    if isinstance(items, Mapping):
        items = items.items()
    pairs = tuple(sorted((str(k), as_fraction(v)) for k, v in items))
    if len({k for k, _ in pairs}) != len(pairs):
        raise ValueError(f"{owner} has duplicate {kind} entries")
    return pairs


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def vec(entries: Iterable) -> Row:
    return tuple(as_fraction(x) for x in entries)


def shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def _int_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators: (integer rows, lcms)."""
    out, scales = [], []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


def _products(a: Mat, cols: Iterable[Sequence[Fraction]]) -> Mat:
    """Entry (i, j) is row i of a dotted with cols[j]: one integer dot
    product over the two lcm scales, then one ``Fraction``."""
    a_rows, a_scales = _int_rows(a)
    c_rows, c_scales = _int_rows(cols)
    return tuple(
        tuple(Fraction(sum(map(mul, r, c)), x * y) for c, y in zip(c_rows, c_scales))
        for r, x in zip(a_rows, a_scales)
    )


def matmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} @ {rb}x{cb}")
    return _products(a, transpose(b))


def equals_dot(value: Fraction, pairs: Iterable[tuple[Fraction, Fraction]]) -> bool:
    """Whether ``value`` is the exact sum of the products x * y, decided by
    cross-multiplying the integers of both sides; ``pairs`` is consumed in
    order and no ``Fraction`` is made."""
    num, den = 0, 1
    for x, y in pairs:
        n = x.numerator * y.numerator
        if not n:
            continue
        d = x.denominator * y.denominator
        if d != den:
            common = lcm(den, d)
            num, n, den = num * (common // den), n * (common // d), common
        num += n
    return value.numerator * den == num * value.denominator


def hstack(a: Mat, b: Mat) -> Mat:
    if len(a) != len(b):
        raise ValueError("row count mismatch in hstack")
    return tuple(ra + rb for ra, rb in zip(a, b))


class Echelon(NamedTuple):
    """A fraction-free Gauss-Jordan elimination of an nr x nc matrix m.

    Each of the nr integer ``rows`` is a nonzero multiple of the row the
    ``Fraction`` rref holds (the rows past ``len(pivots)`` are zero), and
    ``pivots`` are the pivot columns.  For square m, det(rows) = det(m) *
    num / den.  The rows are the elimination's own lists: read them only.
    """

    rows: list[list[int]]
    pivots: list[int]
    num: int
    den: int
    cols: int


def echelon(m: Mat) -> Echelon:
    """Fraction-free Gauss-Jordan elimination of m.

    Each pivot is the first nonzero entry at or below the current row, so
    every integer row is a nonzero multiple of the row a ``Fraction``
    elimination would hold.
    """
    rows, scales = _int_rows(m)
    num, den = prod(scales), 1
    nr, nc = shape(m)
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            num = -num
        top, pv = rows[r], rows[r][c]
        for i in range(nr):
            f = rows[i][c]
            if f and i != r:
                row = [pv * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    den *= g
                rows[i] = row
                num *= pv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Echelon(rows, pivots, num, den, nc)


def full_pivot_solve(rows: list[list[int]], n: int) -> tuple[list[int], Mat] | None:
    """Full-pivot Bareiss elimination of integer rows [A | B], A's n columns
    first: (cols, inv(A[:, cols[:m]]) B) for m rows, or None if rank(A) < m.

    Each step divides the updated entries by the previous pivot, so each
    entry still searched is the ``Fraction`` elimination's value there times
    one shared nonzero integer: the pivot, least by (-|v|, column, row), is
    the one that elimination picks, ties included.
    """
    m, rows, cols, prev = len(rows), [list(row) for row in rows], list(range(n)), 1
    for r in range(m):
        live = [(-abs(rows[i][c]), c, i, p) for p, c in enumerate(cols[r:], r)
                for i in range(r, m) if rows[i][c]]
        if not live:
            return None
        _, c, i, p = min(live)
        rows[r], rows[i], cols[r], cols[p] = rows[i], rows[r], cols[p], cols[r]
        top, pv = rows[r], rows[r][c]
        rest = cols[r + 1 :] + list(range(n, len(top)))
        for row in rows[r + 1 :]:
            f = row[c]
            for k in rest:
                row[k] = (pv * row[k] - f * top[k]) // prev
        prev = pv
    # Upward and gcd-reduced; row r of the triangle is its pivot at r, then B.
    tri = [[0] * r + [x[c] for c in cols[r:m]] + x[n:] for r, x in enumerate(rows)]
    for r in reversed(range(m)):
        for i in range(r):
            if f := tri[i][r]:
                row = [tri[r][r] * x - f * y for x, y in zip(tri[i], tri[r])]
                g = gcd(*row)
                tri[i] = [x // g for x in row]
    zero = Fraction(0)
    return cols, tuple(
        tuple(Fraction(x, row[r]) if x else zero for x in row[m:])
        for r, row in enumerate(tri)
    )


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with the list of pivot columns."""
    rows, pivots, _, _, _ = echelon(m)
    zero = Fraction(0)
    out = [
        tuple(Fraction(x, row[c]) if x else zero for x in row)
        for row, c in zip(rows, pivots)
    ]
    out.extend(tuple(zero for _ in row) for row in rows[len(pivots) :])
    return tuple(out), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(e: Echelon) -> Mat:
    """Columns spanning the kernel of the eliminated matrix, as an nc x
    (nc - rank) matrix.

    Free variables are set to 1 one at a time, in column order, so the
    basis restricted to the free rows is the identity."""
    rows, pivots, _, _, nc = e
    free = [c for c in range(nc) if c not in pivots]
    cols: list[list[Fraction]] = []
    for f in free:
        col = [Fraction(0)] * nc
        col[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            col[p] = Fraction(-row[f], row[p])
        cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(nc))


def nullspace(m: Mat) -> Mat:
    """Columns spanning ker(m): the :func:`kernel_basis` of its elimination."""
    return kernel_basis(echelon(m))


def pivot_det(e: Echelon) -> Fraction:
    """det of the eliminated matrix's columns at the pivots, for a matrix of
    full row rank: its rows end diagonal there, pivot r in row r."""
    rows, pivots, num, den, _ = e
    if len(pivots) < len(rows):
        raise ValueError("matrix does not have full row rank")
    return Fraction(den * prod(row[p] for row, p in zip(rows, pivots)), num)


def det(m: Mat) -> Fraction:
    nr, nc = shape(m)
    if nr != nc:
        raise ValueError("determinant of a non-square matrix")
    e = echelon(m)
    return pivot_det(e) if len(e.pivots) == nr else Fraction(0)


def inv(m: Mat) -> Mat:
    nr, nc = shape(m)
    if nr != nc:
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref(hstack(m, identity(nr)))
    if len(pivots) != nr or any(p >= nr for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(row[nr:] for row in red)


def combine(
    terms: Iterable[tuple[Fraction, Mapping[str, Fraction]]],
) -> dict[str, Fraction]:
    """The sparse sum of ``c * row`` over the ``(c, row)`` pairs: zero
    entries are dropped and keys keep the order they were first seen in."""
    out: dict[str, Fraction] = {}
    for c, row in terms:
        for k, v in row.items():
            if k in out:
                out[k] += c * v
            else:
                out[k] = c * v
    return {k: v for k, v in out.items() if v}


def from_sparse(rows: Iterable[Mapping[str, Fraction]], keys: Sequence[str]) -> Mat:
    """Dense rows over ``keys`` of sparse rows; absent keys read as 0."""
    zero = Fraction(0)
    return tuple(tuple(row.get(k, zero) for k in keys) for row in rows)


def to_float(m: Mat) -> np.ndarray:
    """A read-only float64 array; the only numpy use in the exact layer."""
    import numpy as np

    a = np.array([[float(x) for x in row] for row in m], dtype=np.float64)
    a.flags.writeable = False
    return a
