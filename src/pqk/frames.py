"""Finite reduced configuration spaces and the linear maps between them.

A :class:`ReducedFrame` is an ordered tuple of d.o.f. identifiers; it fixes
global linear coordinates on the reduced configuration space it labels, so
the space itself never needs to be materialized.  A :class:`ProjectionMatrix`
realizes the surjection from a finer frame onto a coarser one, and a
:class:`KernelDecomposition` splits the finer space into the projection
kernel plus an embedded copy of the coarser space, carrying the Lebesgue
factor that makes the measure factorization exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import ratlin
from .errors import (
    DimensionMismatchError,
    FrameMismatchError,
    NotARightInverseError,
    RankDeficientError,
)
from .ratlin import Fraction, Mat

if TYPE_CHECKING:
    import numpy as np

DofId = str


@dataclass(frozen=True)
class ReducedFrame:
    """An ordered set of independent configurational d.o.f. identifiers."""

    dofs: tuple[DofId, ...]

    def __post_init__(self):
        object.__setattr__(self, "dofs", tuple(self.dofs))
        if not self.dofs:
            raise DimensionMismatchError("a frame needs at least one d.o.f.")
        if len(set(self.dofs)) != len(self.dofs):
            raise DimensionMismatchError("duplicate d.o.f. in frame")

    @property
    def dim(self) -> int:
        return len(self.dofs)


@dataclass(frozen=True)
class ProjectionMatrix:
    """The coefficient matrix expressing a coarse frame over a fine one.

    Row i holds the coefficients of the i-th target d.o.f. as a linear
    combination of the source d.o.f., so the matrix maps source coordinates
    onto target coordinates.  Full row rank is an invariant, checked on
    construction: :class:`RankDeficientError` otherwise.
    """

    entries: Mat
    source_frame: ReducedFrame
    target_frame: ReducedFrame

    def __post_init__(self):
        object.__setattr__(self, "entries", ratlin.mat(self.entries))
        r, c = ratlin.shape(self.entries)
        if r != self.target_frame.dim or c != self.source_frame.dim:
            raise DimensionMismatchError(
                f"projection is {r}x{c}, frames are "
                f"{self.target_frame.dim} and {self.source_frame.dim}"
            )
        rank = len(ratlin.echelon(self.entries).pivots)
        if rank < r:
            raise RankDeficientError(
                f"target d.o.f. are dependent over the source frame (rank {rank} < {r})"
            )

    @property
    def rows(self) -> int:
        return self.target_frame.dim

    @property
    def cols(self) -> int:
        return self.source_frame.dim


@dataclass(frozen=True)
class KernelDecomposition:
    """Kernel basis, embedding and Lebesgue factor of one projection.

    ``kernel_basis`` columns span ker B, ``embedding`` is a right inverse W
    of B, and ``lebesgue_factor`` is |det [Kb | W]|: the weight that turns
    Lebesgue measure in kernel coordinates into the factor measure.  For a
    zero-dimensional kernel the factor degenerates to |det W|.
    """

    kernel_basis: Mat
    embedding: Mat
    lebesgue_factor: Fraction
    projection: ProjectionMatrix = field(repr=False)

    @property
    def kernel_dim(self) -> int:
        return self.projection.cols - self.projection.rows

    @cached_property
    def floats(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Read-only float64 copies of (Kb, W, Lebesgue factor)."""
        kb, w = ratlin.to_float(self.kernel_basis), ratlin.to_float(self.embedding)
        return kb, w, float(self.lebesgue_factor)


def build_projection(
    target: ReducedFrame,
    source: ReducedFrame,
    combos: Mapping[DofId, Sequence],
) -> ProjectionMatrix:
    """Assemble the projection matrix from per-d.o.f. coefficient vectors.

    ``combos[dof]`` lists the coefficients of ``dof`` over ``source.dofs``
    in source order.  Raises :class:`RankDeficientError` when the target
    d.o.f. are not independent over the source.
    """
    rows = []
    for dof in target.dofs:
        if dof not in combos:
            raise DimensionMismatchError(f"no coefficient vector for {dof!r}")
        row = ratlin.vec(combos[dof])
        if len(row) != source.dim:
            raise DimensionMismatchError(
                f"coefficient vector for {dof!r} has length {len(row)}, "
                f"expected {source.dim}"
            )
        rows.append(row)
    return ProjectionMatrix(tuple(rows), source_frame=source, target_frame=target)


def identity_projection(frame: ReducedFrame) -> ProjectionMatrix:
    return ProjectionMatrix(ratlin.identity(frame.dim), frame, frame)


def compose_projections(
    outer: ProjectionMatrix, inner: ProjectionMatrix
) -> ProjectionMatrix:
    """Exact matrix product realizing the composite projection."""
    if outer.source_frame != inner.target_frame:
        raise FrameMismatchError(
            "outer projection's source frame differs from inner's target frame"
        )
    return ProjectionMatrix(
        ratlin.matmul(outer.entries, inner.entries),
        source_frame=inner.source_frame,
        target_frame=outer.target_frame,
    )


def kernel_decomposition(
    projection: ProjectionMatrix, embedding: Iterable[Iterable]
) -> KernelDecomposition:
    """Split the source space into ker B plus the embedded target space.

    ``embedding`` must be an exact right inverse W of the projection
    (normally produced by :func:`pqk.systems.embedding_matrix`).  Kernel
    basis and Lebesgue factor are read off one elimination of B.  The basis
    Kb is :func:`pqk.ratlin.kernel_basis`'s: Kb is the identity on B's free
    (non-pivot) rows.  So for E the rows selecting the free coordinates,
    [E; B] [Kb | W] = [[I, E W], [0, I]], whose determinant is 1, and
    |det [Kb | W]| = 1 / |det [E; B]| = 1 / |det B[:, pivots]| for every W
    with B W = I: the factor does not depend on W.
    """
    b = projection.entries
    w = ratlin.mat(embedding)
    n, n_src = ratlin.shape(b)
    if ratlin.shape(w) != (n_src, n):
        raise DimensionMismatchError(
            f"embedding must be {n_src}x{n}, got {ratlin.shape(w)}"
        )
    if ratlin.matmul(b, w) != ratlin.identity(n):
        raise NotARightInverseError("B @ W is not the identity")
    e = ratlin.echelon(b)
    return KernelDecomposition(
        kernel_basis=ratlin.kernel_basis(e),
        embedding=w,
        lebesgue_factor=abs(1 / ratlin.pivot_det(e)),
        projection=projection,
    )
