"""Finite combinations of exponentials with exact frequency bookkeeping.

The inner product is a Kronecker delta in the frequency, so frequency
coordinates are exact rationals: equality must be decidable, and floats
would make it meaningless.  Amplitudes are kept as exact complex rationals
too, which makes the frame-promotion isometry an identity on the nose
rather than up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import ratlin
from .errors import FrameMismatchError
from .frames import ProjectionMatrix, ReducedFrame
from .ratlin import Fraction


@dataclass(frozen=True)
class QC:
    """An exact complex rational."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", ratlin.as_fraction(self.re))
        object.__setattr__(self, "im", ratlin.as_fraction(self.im))

    @classmethod
    def of(cls, value) -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, tuple):
            return cls(ratlin.as_fraction(value[0]), ratlin.as_fraction(value[1]))
        return cls(ratlin.as_fraction(value))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


@dataclass(frozen=True)
class Frequency:
    """A point of the dual space in a frame's exact coordinates.

    Equality compares coords and frame.  The hash, taken once, reads each
    coordinate's lowest-terms (numerator, denominator) pair: no Fraction
    hash (a modular inverse each), and the same under every hash seed."""

    coords: tuple[Fraction, ...]
    frame: ReducedFrame

    def __post_init__(self):
        coords = tuple(ratlin.as_fraction(c) for c in self.coords)
        if len(coords) != self.frame.dim:
            raise FrameMismatchError(
                f"frequency has {len(coords)} coordinates for a "
                f"{self.frame.dim}-dimensional frame"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(
            self, "_hash", hash(tuple((c.numerator, c.denominator) for c in coords))
        )

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class APVector:
    """A finite complex combination of frequencies over one frame."""

    frame: ReducedFrame
    amplitudes: tuple[tuple[Frequency, QC], ...]

    def __post_init__(self):
        merged: dict[Frequency, QC] = {}
        for freq, amp in self.amplitudes:
            if freq.frame != self.frame:
                raise FrameMismatchError("frequency frame differs from vector frame")
            first = merged.get(freq)
            merged[freq] = amp if first is None else first + amp
        pruned = tuple(
            sorted(
                ((f, a) for f, a in merged.items() if not a.is_zero()),
                key=lambda fa: fa[0].coords,
            )
        )
        object.__setattr__(self, "amplitudes", pruned)

    @property
    def amplitude_map(self) -> dict[Frequency, QC]:
        return dict(self.amplitudes)


def ap_vector(frame: ReducedFrame, terms: Mapping | Iterable) -> APVector:
    """Build a vector from {coords tuple: amplitude} style data."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    amps = tuple(
        (Frequency(tuple(coords), frame), QC.of(a)) for coords, a in items
    )
    return APVector(frame, amps)


def basis_vector(frame: ReducedFrame, coords) -> APVector:
    return ap_vector(frame, {tuple(coords): QC(Fraction(1))})


def inner_product(v: APVector, w: APVector) -> QC:
    """Kronecker inner product, conjugate-linear in the first slot."""
    if v.frame != w.frame:
        raise FrameMismatchError("inner product of vectors over different frames")
    out = QC()
    wmap = w.amplitude_map
    for freq, amp in v.amplitudes:
        other = wmap.get(freq)
        if other is not None:
            out = out + amp.conjugate() * other
    return out


def promote(v: APVector, projection: ProjectionMatrix) -> APVector:
    """Carry a vector to a finer frame along a projection's pullback.

    Each frequency maps to its composition with the projection, i.e. to the
    transpose image of its coordinates; the projection's full row rank
    makes this injective, so amplitudes transfer unchanged and inner
    products are preserved exactly.
    """
    if v.frame != projection.target_frame:
        raise FrameMismatchError("vector frame differs from projection target")
    fine = projection.source_frame
    if not v.amplitudes:
        return APVector(fine, ())
    # One product for all frequencies: row k of F @ B is B^T applied to f_k.
    coords = ratlin.matmul(tuple(f.coords for f, _ in v.amplitudes), projection.entries)
    amps = tuple(
        (Frequency(c, fine), amp) for c, (_, amp) in zip(coords, v.amplitudes)
    )
    return APVector(fine, amps)


def limit_equal(
    v: APVector,
    w: APVector,
    to_v: ProjectionMatrix,
    to_w: ProjectionMatrix,
) -> bool:
    """Equality of two vectors as members of the common refined frame.

    ``to_v`` and ``to_w`` project one upper frame onto the frames of ``v``
    and ``w``; the vectors are equal in the limit exactly when their
    promotions to that upper frame coincide.
    """
    if to_v.source_frame != to_w.source_frame:
        raise FrameMismatchError("upper projections disagree on the refined frame")
    return promote(v, to_v) == promote(w, to_w)
