"""Each constructor and shape check raises its own exception type with its
own message."""

import sys

import numpy as np
import pytest

from pqk import ratlin
from pqk.almost_periodic import QC, APVector, Frequency
from pqk.dpg import (
    AtomicEdge,
    DpgLabel,
    EdgeWord,
    Graph,
    dual_flux_basis,
    validate_word,
    witness_connection,
)
from pqk.errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    FrameMismatchError,
    NotARightInverseError,
)
from pqk.frames import ProjectionMatrix, ReducedFrame, kernel_decomposition
from pqk.gaussian import CoherentFamily, GaussianKernel, GaussianMixtureState, mix, pure_state
from pqk.systems import MomentumOperator, SystemLabel


def ground(n):
    return pure_state(np.eye(n), np.zeros(n))


def frame(*dofs):
    return ReducedFrame(dofs)


def one_letter(atom):
    return EdgeWord(((atom, 1),))


def onto_a():
    """The projection of frame (a, b) onto its coordinate a."""
    return ProjectionMatrix(((1, 0),), frame("a", "b"), frame("t"))


CASES = {
    # gaussian
    "kernel-P-shape": (
        lambda: GaussianKernel(2, np.eye(3), np.zeros((2, 2)), np.zeros(2), 0.0),
        DimensionMismatchError, "P must be 2x2, got (3, 3)"),
    "kernel-s-length": (
        lambda: GaussianKernel(2, np.eye(2), np.zeros((2, 2)), np.zeros(3), 0.0),
        DimensionMismatchError, "s must have length 2, got (3,)"),
    "empty-state": (
        lambda: GaussianMixtureState(2, ()),
        DimensionMismatchError, "a state needs at least one term"),
    "term-dimension": (
        lambda: GaussianMixtureState(3, ground(2).terms),
        DimensionMismatchError, "term dimension 2 != state dimension 3"),
    "pure-b-length": (
        lambda: pure_state(np.eye(2), np.zeros(3)),
        DimensionMismatchError, "b must have length 2, got (3,)"),
    "pure-A-shape": (
        lambda: pure_state(np.ones((2, 3)), [0, 0]),
        DimensionMismatchError, "A must be 2x2, got (2, 3)"),
    "pure-A-scalar": (
        lambda: pure_state(5, [1]),
        DimensionMismatchError, "A must be at least 1x1, got ()"),
    "pure-A-empty": (
        lambda: pure_state(np.zeros((0, 0)), []),
        DimensionMismatchError, "A must be at least 1x1, got (0, 0)"),
    "kernel-empty": (
        lambda: GaussianKernel(0, np.zeros((0, 0)), np.zeros((0, 0)), [], 0.0),
        DimensionMismatchError, "P must be at least 1x1, got (0, 0)"),
    # The displacement's trace overflows: refused as b's, not as a logw.
    "pure-b-overflows": (
        lambda: pure_state(np.eye(3), [1e300, 0, 0]),
        ValueError, "b is too large: the trace overflows"),
    "pure-b-at-the-largest-float": (
        lambda: pure_state(np.eye(3), [sys.float_info.max, 0, 0]),
        ValueError, "b is too large: the trace overflows"),
    "pure-A-symmetric": (
        lambda: pure_state([[1.0, 0.5], [0.0, 1.0]], np.zeros(2)),
        ValueError, "A must be symmetric"),
    "mix-weight-count": (
        lambda: mix([ground(2)], [0.5, 0.5]),
        DimensionMismatchError, "one weight per state required"),
    "mix-dimensions": (
        lambda: mix([ground(2), ground(3)], [1.0, 1.0]),
        DimensionMismatchError, "mixture components differ in dimension"),
    "family-labels-without-states": (
        lambda: CoherentFamily(
            {"L": SystemLabel((MomentumOperator("u", (("k", 1),)),), frame("k"))}, {}, ()
        ),
        DimensionMismatchError, "labels without states: ['L']"),
    # frames
    "projection-shape": (
        lambda: ProjectionMatrix(((1, 0),), frame("a", "b", "c"), frame("t")),
        DimensionMismatchError, "projection is 1x2, frames are 1 and 3"),
    "embedding-shape": (
        lambda: kernel_decomposition(onto_a(), ((1,),)),
        DimensionMismatchError, "embedding must be 2x1, got (1, 1)"),
    "embedding-not-right-inverse": (
        lambda: kernel_decomposition(onto_a(), ((2,), (0,))),
        NotARightInverseError, "B @ W is not the identity"),
    # ratlin
    "ragged-matrix": (
        lambda: ratlin.mat([[1, 2], [3]]), ValueError, "ragged matrix"),
    "hstack-rows": (
        lambda: ratlin.hstack(ratlin.mat([[1]]), ratlin.mat([[1], [2]])),
        ValueError, "row count mismatch in hstack"),
    "pivot-det-rank": (
        lambda: ratlin.pivot_det(ratlin.echelon(ratlin.mat([[1, 2], [2, 4]]))),
        ValueError, "matrix does not have full row rank"),
    "det-non-square": (
        lambda: ratlin.det(ratlin.mat([[1, 2]])),
        ValueError, "determinant of a non-square matrix"),
    # almost_periodic
    "frequency-coordinates": (
        lambda: Frequency((1, 2), frame("k")),
        FrameMismatchError, "frequency has 2 coordinates for a 1-dimensional frame"),
    "frequency-frame": (
        lambda: APVector(frame("k1"), ((Frequency((1,), frame("k2")), QC(1)),)),
        FrameMismatchError, "frequency frame differs from vector frame"),
    # dpg
    "open-loop": (
        lambda: AtomicEdge("a", "u", "v", loop=True),
        ValueError, "loop atom 'a' must close on one node"),
    "closed-non-loop": (
        lambda: AtomicEdge("a", "u", "u"),
        ValueError, "atom 'a' closes on itself but is not a loop"),
    "empty-word": (
        lambda: EdgeWord(()), ValueError, "an edge word needs at least one letter"),
    "letter-sign": (
        lambda: EdgeWord((("a", 2),)), ValueError, "letter signs must be +1 or -1"),
    "repeated-atom": (
        lambda: EdgeWord((("a", 1), ("a", -1))),
        ValueError, "edge word repeats an atom: ['a', 'a']"),
    "unknown-atom": (
        lambda: validate_word(one_letter("x"), {}),
        DimensionMismatchError, "unknown atom 'x' in edge word"),
    "edges-share-atoms": (
        lambda: Graph((one_letter("a"), EdgeWord((("b", 1), ("a", -1))))),
        ValueError, "edges share atoms ['a']"),
    "connection-targets": (
        lambda: witness_connection(Graph((one_letter("a"),)), [1, 2]),
        DimensionMismatchError, "2 targets for 1 edges"),
    "dual-of-empty-graph": (
        lambda: dual_flux_basis(Graph(())),
        DimensionMismatchError, "dual basis of an empty graph"),
    "label-face-count": (
        lambda: DpgLabel("L", Graph((one_letter("a"),)), ()),
        DimensionMismatchError, "label 'L': 0 faces for 1 edges"),
    # systems
    "duplicate-action": (
        lambda: MomentumOperator("u", (("a", 1), ("a", 2))),
        ValueError, "operator 'u' has duplicate action entries"),
    "bool-action": (
        lambda: MomentumOperator("u", {"x": True}),
        TypeError, "cannot convert bool to Fraction"),
    "operator-count": (
        lambda: SystemLabel((), frame("a")),
        DegeneratePairingError, "0 operators for a 1-d.o.f. frame"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_constructor_refuses_with_its_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert (type(info.value), str(info.value)) == (error, message)

