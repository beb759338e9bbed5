"""Density operators as finite mixtures of Gaussian exponential kernels.

A kernel is the exponential of a quadratic-plus-linear form in the two
kernel arguments,

    rho(x, y) = exp(-x^T P x / 2 - y^T conj(P) y / 2 + x^T R y
                    + s^T x + conj(s)^T y + logw),

with P complex symmetric, R complex Hermitian and logw real, which makes
Hermiticity of the operator a property of the parametrization rather than a
numerical accident.  The class is closed under the two operations this
module cares about: pulling the arguments back along a linear map, and
integrating out kernel directions.  Because of that, the partial-trace
projection onto a witnessed subsystem stays inside the class and is
available in closed form, with a midpoint-rule quadrature as an independent
cross-check.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    DivergentError,
    EmptyWindowError,
    ExtentTooSmallError,
    NotPositiveDefiniteError,
)
from .frames import KernelDecomposition
from .systems import OrderEdge, OrderWitness, SystemLabel
from .systems import refines  # noqa: F401  kept for perfbench's tracer test

_STRUCTURE_TOL = 1e-12
_HALF_MAX = np.finfo(np.float64).max / 2


def _as_complex_matrix(m, n: int, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if n < 1:
        raise DimensionMismatchError(f"{name} must be at least 1x1, got {a.shape}")
    if a.shape != (n, n):
        raise DimensionMismatchError(f"{name} must be {n}x{n}, got {a.shape}")
    return a


def _is_pd(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


_KERNEL_FAULTS = ("P must be finite", "R must be finite", "s must be finite",
                  "logw must be finite", "P must be symmetric", "R must be Hermitian",
                  "P overflows when symmetrised", "R overflows when symmetrised")


def _checked_terms(P, R, s, logw) -> list[np.ndarray]:
    """Check and symmetrise a stack of kernel parts: P and R (T, n, n), s
    (T, n), logw T floats.  Returns P, R and s symmetrised and read-only (s
    is not copied).  A faulty stack raises the ValueError of its first
    faulty term, whose checks run in the order of ``_KERNEL_FAULTS``."""
    def bad(a):
        return ~np.isfinite(a).reshape(len(a), -1).all(axis=1)

    def worst(a):
        return np.abs(a).reshape(len(a), -1).max(axis=1)

    # Finite entries above half the largest float can overflow in these
    # sums; what overflows is refused below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        faults = [bad(a) for a in (P, R, s, logw)]
        PT, RH = P.swapaxes(-1, -2), R.conj().swapaxes(-1, -2)
        scale = np.maximum(np.maximum(worst(P), worst(R)), 1.0)
        faults += [worst(a - b) > _STRUCTURE_TOL * scale for a, b in ((P, PT), (R, RH))]
        P, R = (P + PT) / 2, (R + RH) / 2
        big = scale > _HALF_MAX
        faults += [big & bad(a) if big.any() else big for a in (P, R)]
    faults = np.array(faults)  # (check, term)
    if faults.any():
        raise ValueError(_KERNEL_FAULTS[faults[:, faults.any(axis=0).argmax()].argmax()])
    for a in (P, R, s):
        a.flags.writeable = False
    return [P, R, s]


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """One Gaussian exponential kernel in the convention above."""

    dim: int
    P: np.ndarray
    R: np.ndarray
    s: np.ndarray
    logw: float

    def __post_init__(self):
        n = self.dim
        P = _as_complex_matrix(self.P, n, "P")
        R = _as_complex_matrix(self.R, n, "R")
        s = np.array(self.s, dtype=np.complex128).reshape(-1)
        if s.shape != (n,):
            raise DimensionMismatchError(f"s must have length {n}, got {s.shape}")
        logw = float(self.logw)
        P, R, s = (a[0] for a in _checked_terms(P[None], R[None], s[None], [logw]))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "logw", logw)

    def sample(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel values on a grid; xs (nx, dim), ys (ny, dim)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        return _kernels.kernel_table(self.P, self.R, self.s, self.logw, xs, ys)


@dataclass(frozen=True, eq=False)
class GaussianMixtureState:
    """A finite positive mixture of Gaussian kernels, normalized to trace 1.

    ``trace_drift`` reports how far the pre-normalization trace of a
    projection was from 1.
    """

    dim: int
    terms: tuple[tuple[float, GaussianKernel], ...]
    trace_drift: float = 0.0

    def __post_init__(self):
        terms = tuple((float(w), k) for w, k in self.terms)
        if not terms:
            raise DimensionMismatchError("a state needs at least one term")
        for w, k in terms:
            if not 0 < w < math.inf:
                raise ValueError(f"term weight {w} is not positive and finite")
            if k.dim != self.dim:
                raise DimensionMismatchError(
                    f"term dimension {k.dim} != state dimension {self.dim}"
                )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trace_drift", float(self.trace_drift))

    @cached_property
    def _stacks(self) -> list[np.ndarray]:
        """P, R and s of every term, stacked along a leading term axis, read-only."""
        stacks = [np.array([getattr(k, a) for _, k in self.terms]) for a in "PRs"]
        for a in stacks:
            a.flags.writeable = False
        return stacks

    def sample(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = None
        for w, k in self.terms:
            t = w * k.sample(xs, ys)
            out = t if out is None else out + t
        return out


def pure_state(A, b) -> GaussianMixtureState:
    """Normalized projector onto psi(x) = exp(-x^T A x / 2 + b^T x)."""
    n = len(A) if np.ndim(A) else 0
    A = _as_complex_matrix(A, n, "A")
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if b.shape != (n,):
        raise DimensionMismatchError(f"b must have length {n}, got {b.shape}")
    for name, a in (("A", A), ("b", b)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A - A.T).max() > _STRUCTURE_TOL * scale:
        raise ValueError("A must be symmetric")
    A = (A + A.T) / 2
    if not _is_pd(A.real):
        raise NotPositiveDefiniteError("Re(A) must be positive definite")
    kernel = GaussianKernel(dim=n, P=A, R=np.zeros((n, n)), s=b, logw=0.0)
    logw = -_log_traces(GaussianMixtureState(n, ((1.0, kernel),)))[0]
    if not math.isfinite(logw):
        raise ValueError("b is too large: the trace overflows")
    return GaussianMixtureState(n, ((1.0, replace(kernel, logw=logw)),))


def mix(states: Sequence[GaussianMixtureState], weights: Sequence[float]) -> GaussianMixtureState:
    """Convex mixture of trace-1 states; each weight must be positive and
    finite, and so must their sum, which they are normalised by."""
    if len(states) != len(weights) or not states:
        raise DimensionMismatchError("one weight per state required")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatchError("mixture components differ in dimension")
    weights = [float(wt) for wt in weights]
    for i, wt in enumerate(weights):
        if not 0 < wt < math.inf:
            raise ValueError(f"mixture weight {i} ({wt}) is not positive and finite")
    total = sum(weights)
    if total == math.inf:
        raise ValueError("mixture weights sum to inf; scale them down")
    terms = tuple(
        (wt / total * w, k)
        for s, wt in zip(states, weights)
        for w, k in s.terms
    )
    return GaussianMixtureState(dim, terms)


@np.errstate(over="ignore", invalid="ignore")
def _log_traces(state: GaussianMixtureState) -> list[float]:
    """Closed-form log traces of a state's kernels, from each C with
    rho(x, x) = exp(-x^T C x + ...): one stacked Cholesky check, slogdet and
    solve, then each sum taken as a scalar.  A linear term near the largest
    float overflows to an inf or NaN log trace, which callers refuse, so numpy
    warns of neither."""
    P, R, s = state._stacks
    c, u = P.real - R.real, 2.0 * s.real
    if not _is_pd(c):
        raise DivergentError("kernel diagonal form is not positive definite")
    _, logdet = np.linalg.slogdet(c)
    x = np.linalg.solve(c, u[..., None])[..., 0]
    const = 0.5 * state.dim * math.log(math.pi)
    return [
        k.logw + const - 0.5 * ld + 0.25 * float(a @ b)
        for (_, k), ld, a, b in zip(state.terms, logdet, u, x)
    ]


def trace(state: GaussianMixtureState) -> float:
    """Closed-form trace, ``inf`` past the largest float; raises
    :class:`DivergentError` on bad terms."""
    logs = _log_traces(state)
    try:
        return float(sum(w * math.exp(lt) for (w, _), lt in zip(state.terms, logs)))
    except OverflowError:  # one term overflows, and weights are positive
        return math.inf


def _pair_forms(
    s1: GaussianMixtureState, s2: GaussianMixtureState
) -> tuple[np.ndarray, np.ndarray]:
    """Hilbert-Schmidt pairing forms of conj(k1) with k2 for every term pair.

    Pairs run t-major over (terms of s1) x (terms of s2); returns the
    stacked forms M (K, m, m) and v (K, m) of the integrands
    exp(-z^T M z / 2 + v^T z).  One Cholesky checks Re M > 0 for all, the
    condition for every pairing integral to converge.
    """
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"states live in dimensions {s1.dim} and {s2.dim}"
        )
    P1, R1, v1 = (x[:, None] for x in s1._stacks)
    P2, R2, v2 = (x[None] for x in s2._stacks)
    cross = -(R1.conj() + R2)
    M = np.block([[P1.conj() + P2, cross], [cross.swapaxes(-1, -2), P1 + P2.conj()]])
    v = np.concatenate([v1.conj() + v2, v1 + v2.conj()], axis=-1)
    M, v = M.reshape(-1, *M.shape[-2:]), v.reshape(-1, v.shape[-1])
    if not _is_pd(M.real):
        raise DivergentError("quadratic form has non-positive-definite real part")
    return M, v


def _pair_integrals(
    s1: GaussianMixtureState, s2: GaussianMixtureState, M: np.ndarray, v: np.ndarray
) -> list[complex]:
    """Per term pair of :func:`_pair_forms`' forms M, v: the weight product
    w1 w2 times the pairing integral, whose log includes both kernels' logw.
    Every eigenvalue of a checked M has positive real part, so summed
    principal logs pick the real branch."""
    logdets = np.sum(np.log(np.linalg.eigvals(M)), axis=-1)
    quads = (v[:, None, :] @ np.linalg.solve(M, v[:, :, None]))[:, 0, 0]
    const = 0.5 * M.shape[-1] * math.log(2 * math.pi)
    pairs = [
        (w1 * w2, k1.logw + k2.logw) for w1, k1 in s1.terms for w2, k2 in s2.terms
    ]
    return [
        w * complex(np.exp(lw + (const - 0.5 * complex(d) + 0.5 * complex(q))))
        for (w, lw), d, q in zip(pairs, logdets, quads)
    ]


def hs_inner(s1: GaussianMixtureState, s2: GaussianMixtureState) -> complex:
    """HS inner product <s1, s2>, conjugate-linear in the first slot."""
    return complex(sum(_pair_integrals(s1, s2, *_pair_forms(s1, s2))))


def _gram_distance(s1: GaussianMixtureState, s2: GaussianMixtureState) -> float:
    d2 = (hs_inner(s1, s1) + hs_inner(s2, s2) - 2 * hs_inner(s1, s2).real).real
    return math.sqrt(max(d2, 0.0))


def _term_deviation(
    t1: tuple[float, GaussianKernel], t2: tuple[float, GaussianKernel]
) -> float:
    """Scaled parameter distance between two weighted kernels."""
    w1, k1 = t1
    w2, k2 = t2
    parts = [
        np.abs(k1.P - k2.P).max() / (1.0 + np.abs(k2.P).max()),
        np.abs(k1.R - k2.R).max() / (1.0 + np.abs(k2.R).max()),
        np.abs(k1.s - k2.s).max() / (1.0 + np.abs(k2.s).max()),
        abs(k1.logw - k2.logw) / (1.0 + abs(k2.logw)),
        abs(w1 - w2) / w2,
    ]
    return max(parts)


def _term_deviations(s1: GaussianMixtureState, s2: GaussianMixtureState) -> list[float]:
    """:func:`_term_deviation` of each term pair of two states with equally
    many terms; P, R and s in one pass over the stacks, the log weight and
    weight as scalars.  These are the per-pair form's elementwise ``abs``,
    ``max`` and one division, so each value equals the per-pair one."""
    parts = [
        (np.abs(a1 - a2).reshape(len(a1), -1).max(axis=1)
         / (1.0 + np.abs(a2).reshape(len(a2), -1).max(axis=1))).tolist()
        for a1, a2 in zip(s1._stacks, s2._stacks)
    ]
    return [
        max(p, r, v, abs(k1.logw - k2.logw) / (1.0 + abs(k2.logw)), abs(w1 - w2) / w2)
        for p, r, v, (w1, k1), (w2, k2) in zip(*parts, s1.terms, s2.terms)
    ]


def _moment_product(
    tA, tB, tASBS, mAm, mBm, bm, dm, mASBm, mASd, mBSb, bSd, c, e
) -> complex:
    """E[(z^T A z / 2 + b^T z + c)(z^T B z / 2 + d^T z + e)] under an
    analytic Gaussian with formal mean mu and covariance S (Wick), from the
    traces tA = tr(A S), tB = tr(B S), tASBS = tr(A S B S) and the
    contractions mAm = mu.A.mu, mBm, bm = b.mu, dm, mASBm = mu.A S B.mu,
    mASd, mBSb and bSd = b.S.d of one term pair.

    The complex scalars are combined here, one pair at a time, because
    numpy's array complex multiply may round differently from its scalar
    one on SIMD hardware.  They arrive as Python complex numbers; up to
    Python 3.13 their multiply and add take the same formula, in the same
    order, as numpy's scalar ones, so the result has the same bits on any
    SIMD level (CI checks this on 3.11).  From Python 3.14 a real times a
    complex no longer promotes the real to complex first, which may change
    the sign of a zero or a non-finite value; no test covers that there.
    """
    out = 0.25 * (tA * tB + 2 * tASBS + tA * mBm + tB * mAm + 4 * mASBm + mAm * mBm)
    out += 0.5 * (tA * dm + 2 * mASd + mAm * dm)
    out += 0.5 * e * (tA + mAm)
    out += 0.5 * (tB * bm + 2 * mBSb + mBm * bm)
    out += bSd + bm * dm
    out += e * bm
    out += c * (0.5 * (tB + mBm) + dm + e)
    return complex(out)


def _perturbative_distance(
    s1: GaussianMixtureState, s2: GaussianMixtureState
) -> float:
    """||s1 - s2||_HS to first order in the term-wise parameter differences.

    For states whose terms match pairwise up to tiny deviations, the Gram
    form loses the distance under cancellation of O(1) integrals; here each
    term difference is expanded as reference-kernel times a small quadratic
    form, so every contribution is computed directly at the size of the
    deviation itself.  Every trace and contraction of the expansion runs
    once over the stack of term pairs, around the base of s2 paired with
    itself: the per-pair integrals, covariance Sigma and mean mu.
    """
    (P1, R1, v1), (P2, R2, v2) = s1._stacks, s2._stacks
    dP, dR, ds = P1 - P2, R1 - R2, v1 - v2
    A = np.block([[-dP, dR], [dR.swapaxes(-1, -2), -dP.conj()]])
    b = np.concatenate([ds, ds.conj()], axis=-1)
    c = [
        (k1.logw - k2.logw) + math.log(w1 / w2)
        for (w1, k1), (w2, k2) in zip(s1.terms, s2.terms)
    ]
    M, v = _pair_forms(s2, s2)
    t, m = len(s2.terms), M.shape[-1]
    sigma = np.linalg.inv(M)
    sigma = ((sigma + sigma.swapaxes(-1, -2)) / 2).reshape(t, t, m, m)
    mu = (sigma @ v.reshape(t, t, m, 1))[..., 0]
    bases = _pair_integrals(s2, s2, M, v)
    # pair (t, u) contracts conj(A_t), conj(b_t) with A_u, b_u
    At, Au, bt, bu = A.conj()[:, None], A[None], b.conj()[:, None], b[None]
    row, col = mu[..., None, :], mu[..., :, None]
    AS, muA, muB = At @ sigma, row @ At, row @ Au
    muAS = muA @ sigma
    moments = [
        np.trace(AS, axis1=-2, axis2=-1),
        np.trace(Au @ sigma, axis1=-2, axis2=-1),
        np.trace(AS @ Au @ sigma, axis1=-2, axis2=-1),
        muA @ col,
        muB @ col,
        bt[..., None, :] @ col,
        bu[..., None, :] @ col,
        muAS @ Au @ col,
        muAS @ bu[..., :, None],
        muB @ sigma @ bt[..., :, None],
        bt[..., None, :] @ sigma @ bu[..., :, None],
    ]
    total = 0.0 + 0.0j  # each c is real, so conj(c_t) is c_t
    for base, (ct, cu), mts in zip(
        bases, itertools.product(c, repeat=2), zip(*(x.reshape(-1).tolist() for x in moments))
    ):
        total += base * _moment_product(*mts, ct, cu)
    return math.sqrt(max(total.real, 0.0))


_PERTURBATIVE_THRESHOLD = 1e-6


def hs_distance(s1: GaussianMixtureState, s2: GaussianMixtureState) -> float:
    """Hilbert-Schmidt distance ||s1 - s2||_HS.

    Generic states go through closed-form pair integrals.  States whose
    terms match pairwise to better than one part in 10^6 (e.g. the same
    projection computed along two paths) switch to a first-order expansion
    in the parameter differences, around s2, which stays accurate far below
    the cancellation floor of the generic form.  States whose terms match
    with deviation exactly 0 (the same state, or a term-for-term copy) are
    at distance 0.0, the value the expansion gives them; only the pairing
    forms of s2 with itself are built, so a divergent state still raises.
    The result is kept on s2 with the state object s1 (one slot, matched
    by identity, which keeps that s1 alive), unless s1 is s2; a call that
    raises keeps nothing.
    """
    kept = s2.__dict__.get("_compared")
    if kept is not None and kept[0] is s1:
        return kept[1]
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"states live in dimensions {s1.dim} and {s2.dim}"
        )
    devs = _term_deviations(s1, s2) if len(s1.terms) == len(s2.terms) else [math.inf]
    if not any(devs):
        _pair_forms(s2, s2)
        distance = 0.0
    elif max(devs) <= _PERTURBATIVE_THRESHOLD:
        distance = _perturbative_distance(s1, s2)
    else:
        distance = _gram_distance(s1, s2)
    if s1 is not s2:
        object.__setattr__(s2, "_compared", (s1, distance))
    return distance


def purity(state: GaussianMixtureState) -> float:
    """tr(rho^2); equals the squared HS norm for Hermitian kernels."""
    return hs_inner(state, state).real


def _u_forms(P, R, s, kb: np.ndarray, w: np.ndarray):
    """For one kernel or a stack: the real quadratic form a_u of the kernel
    variable u (checked positive definite), its coupling lx to the reduced
    variable and its real linear term l0."""
    a_u = 2.0 * (kb.T @ (P.real - R.real) @ kb)
    if not _is_pd(a_u):
        raise DivergentError("kernel-direction quadratic form is not positive definite")
    lx = kb.T @ (R.swapaxes(-1, -2) - P) @ w
    return a_u, lx, 2.0 * (kb.T @ s.real[..., None])[..., 0]


def _project_terms(
    state: GaussianMixtureState, kdec: KernelDecomposition
) -> GaussianMixtureState:
    """Integrate every term over the kernel-basis directions in closed form;
    returns the unnormalized projected state.

    With x' = Kb u + W x and y' = Kb u + W y (one shared kernel variable u:
    the trace is taken on the diagonal of the reduced factor), the exponent
    is quadratic in u and the u-integral is Gaussian with a real positive
    definite form, so no branch tracking is needed.  The matrix steps run
    once over the stack of terms; each log weight is summed as a scalar.
    A kernel of dimension 0 takes the same steps on empty forms, whose
    corrections are exact zeros.
    """
    kb, w, lf = kdec.floats
    if w.shape[0] != state.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} != projection source {w.shape[0]}"
        )
    n, d = w.shape[1], kb.shape[1]
    P, R, s = state._stacks
    a_u, lx, l0 = _u_forms(P, R, s, kb, w)
    lxT = lx.swapaxes(-1, -2)
    j = np.linalg.inv(a_u)
    j = (j + j.swapaxes(-1, -2)) / 2
    _, logdet = np.linalg.slogdet(a_u)
    logw = [
        k.logw + math.log(lf) + 0.5 * d * math.log(2 * math.pi) - 0.5 * ld
        + 0.5 * float(l @ jt @ l)
        for (_, k), ld, l, jt in zip(state.terms, logdet, l0, j)
    ]
    P0 = w.T @ P @ w - lxT @ j @ lx
    R0 = w.T @ R @ w + lxT @ j @ np.conj(lx)
    s0 = w.T @ s[..., None] + lxT @ (j @ l0[..., None])
    P0 = (P0 + P0.swapaxes(-1, -2)) / 2
    R0 = (R0 + R0.conj().swapaxes(-1, -2)) / 2
    # One check of the stack stands for the one each kernel's constructor
    # makes; symmetrising exactly symmetric stacks again leaves their bits.
    stacks = _checked_terms(P0, R0, s0[..., 0], logw)
    terms = []
    for (wt, _), p, r, v, lg in zip(state.terms, *stacks, logw):
        kernel = object.__new__(GaussianKernel)
        vars(kernel).update(dim=n, P=p, R=r, s=v, logw=float(lg))
        terms.append((wt, kernel))
    projected = GaussianMixtureState(n, tuple(terms))
    # The checked stacks are the kernels' stacks: np.array of the slices.
    vars(projected)["_stacks"] = stacks
    return projected


def project_with(
    state: GaussianMixtureState, kdec: KernelDecomposition
) -> GaussianMixtureState:
    """Partial-trace projection along an explicit kernel decomposition.

    The result is kept on the decomposition for the state object last
    projected along it, so asking again returns the same object; states and
    decompositions are immutable, and one slot keeps at most one state and
    its projection alive per decomposition.  A projection that raises keeps
    nothing.
    """
    kept = kdec.__dict__.get("_projected")
    if kept is not None and kept[0] is state:
        return kept[1]
    unnormalized = _project_terms(state, kdec)
    pre_trace = trace(unnormalized)
    projected = GaussianMixtureState(
        dim=kdec.projection.rows,
        terms=tuple((wt / pre_trace, k) for wt, k in unnormalized.terms),
        trace_drift=abs(pre_trace - 1.0),
    )
    vars(projected)["_stacks"] = unnormalized._stacks
    object.__setattr__(kdec, "_projected", (state, projected))
    return projected


def decomposition_for(
    fine: SystemLabel, coarse: SystemLabel, witness: OrderWitness
) -> KernelDecomposition:
    """Kernel decomposition of the witnessed projection fine -> coarse, built
    once per witness and label pair (:class:`OrderViolationError` if unverified)."""
    return witness.plan(fine, coarse).decomposition


def project_state(
    state: GaussianMixtureState,
    fine: SystemLabel,
    coarse: SystemLabel,
    witness: OrderWitness,
) -> GaussianMixtureState:
    """Reduce a state of the fine system to its witnessed subsystem.

    Traces out the kernel of the witnessed projection and pulls the result
    back along the distinguished embedding.  Trace is preserved up to float
    noise (reported as ``trace_drift`` after renormalization); positivity is
    preserved, and for pure inputs purity never increases.
    """
    return project_with(state, decomposition_for(fine, coarse, witness))


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not finite and >= 0; ``pqk``'s ``--tol``
    takes the same rule."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")


@dataclass(frozen=True)
class ConsistencyReport:
    distance: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tol


def chain_consistency(
    state: GaussianMixtureState,
    top: SystemLabel,
    mid: SystemLabel,
    bottom: SystemLabel,
    w_top_mid: OrderWitness,
    w_mid_bottom: OrderWitness,
    w_top_bottom: OrderWitness,
    tol: float = 1e-9,
) -> ConsistencyReport:
    """Compare projecting top->bottom directly against top->mid->bottom.

    The two compositions agree identically for exact kernels; the reported
    HS distance, ``hs_distance(direct, two_step)``, measures floating-point
    residue only; from the top of a just-checked family it is the kept one.
    """
    check_tol(tol)
    direct = project_state(state, top, bottom, w_top_bottom)
    two_step = project_state(
        project_state(state, top, mid, w_top_mid), mid, bottom, w_mid_bottom
    )
    return ConsistencyReport(distance=hs_distance(direct, two_step), tol=tol)


# --- quadrature oracle -------------------------------------------------------

# The most kernel points, midpoints times (b', b) evaluation pairs, that one
# oracle call sums: 2**22 midpoints (32 MiB per source coordinate) on a 1-D
# target's 64 pairs.  At the bound, a 5 -> 3 edge (grid 32) ran 38 s on 2 CPUs.
MAX_KERNEL_POINTS = 2**28

# The oracle's (b', b) evaluation grid: _WINDOW_POINTS per axis on [-_WINDOW, _WINDOW]
_WINDOW_POINTS = 8
_WINDOW = 3.0


def _midpoint_axis(grid_points: int, extent: float) -> np.ndarray:
    h = 2.0 * extent / grid_points
    return -extent + h * (np.arange(grid_points) + 0.5)


def _cartesian(axis: np.ndarray, dims: int) -> np.ndarray:
    if dims == 0:
        return np.zeros((1, 0))
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True, eq=False)
class QuadratureTable:
    """Sampled projected kernel on a (b', b) evaluation grid."""

    points: np.ndarray
    values: np.ndarray


def _tail_mass(
    k: GaussianKernel, kb: np.ndarray, w: np.ndarray, extent: float, corners: np.ndarray
) -> float:
    a_u, lx, l0 = _u_forms(k.P, k.R, k.s, kb, w)
    sigma = np.sqrt(np.diag(np.linalg.inv(a_u)))
    worst = 0.0
    for cx in corners:
        for cy in corners:
            lin = (lx @ cx + np.conj(lx) @ cy + l0).real
            mu = np.abs(np.linalg.solve(a_u, lin))
            tail = sum(
                0.5 * math.erfc((extent - m) / (sg * math.sqrt(2)))
                + 0.5 * math.erfc((extent + m) / (sg * math.sqrt(2)))
                for m, sg in zip(mu, sigma)
            )
            worst = max(worst, tail)
    return worst


def check_kernel_points(grid_points: int, kdec: KernelDecomposition) -> None:
    """Refuse an oracle grid that is not an integer of at least 16, or of more
    than ``MAX_KERNEL_POINTS`` kernel points: ``grid_points ** d`` midpoints,
    d the kernel dimension, times the ``(8 ** n) ** 2`` evaluation pairs of
    an n-dimensional target."""
    if not isinstance(grid_points, numbers.Integral):
        raise ValueError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    d, pairs = kdec.kernel_dim, _WINDOW_POINTS ** (2 * kdec.projection.rows)
    if int(grid_points) ** d * pairs > MAX_KERNEL_POINTS:
        raise ValueError(
            f"{grid_points}**{d} midpoints x {pairs} evaluation pairs exceed "
            f"{MAX_KERNEL_POINTS} kernel points"
        )


def check_extent(extent: float, grid_points: int, kdec: KernelDecomposition, state) -> None:
    """Refuse an oracle extent that is not finite and positive, or at which
    the midpoint spacing, the cell volume or a bound on the source exponent
    overflows: reach**2 times a term's sum of |P| and |R|, reach bounding a
    source coordinate on the grid."""
    if not 0 < extent < math.inf:
        raise ValueError("extent must be finite and > 0")
    kb, w, lf = kdec.floats
    with np.errstate(over="ignore"):
        h = 2.0 * extent / grid_points
        reach = extent * np.abs(kb).sum(axis=1).max() + _WINDOW * np.abs(w).sum(axis=1).max()
        size = max(np.abs(k.P).sum() + np.abs(k.R).sum() for _, k in state.terms)
        parts = {"midpoint grid": h, "cell volume": lf * np.float64(h) ** kdec.kernel_dim,
                 "source exponent": reach * reach * size}
    for what, value in parts.items():
        if not math.isfinite(value):
            raise ValueError(f"extent {float(extent)!r} overflows the {what}")


def quadrature_partial_trace(
    state: GaussianMixtureState,
    fine: SystemLabel,
    coarse: SystemLabel,
    witness: OrderWitness,
    grid_points: int = 64,
    extent: float = 8.0,
) -> QuadratureTable:
    """Midpoint-rule partial trace, the independent check on the closed form.

    Integrates the source kernel directly over the kernel-basis directions
    on a uniform midpoint grid (``grid_points`` midpoints per kernel
    dimension over [-extent, extent], weighted by the Lebesgue factor) and
    samples the result on the fixed (b', b) evaluation window.  No
    closed-form projection machinery is reused.  The grid is bounded by
    :func:`check_kernel_points` and the extent by :func:`check_extent`.
    """
    kdec = decomposition_for(fine, coarse, witness)
    check_kernel_points(grid_points, kdec)
    check_extent(extent, grid_points, kdec, state)
    d = kdec.kernel_dim
    kb, w, lf = kdec.floats
    n = kdec.projection.rows
    corner_axis = np.array([-_WINDOW, _WINDOW])
    corners = _cartesian(corner_axis, n)
    for _, k in state.terms:
        tail = _tail_mass(k, kb, w, extent, corners)
        if tail > 1e-6:
            raise ExtentTooSmallError(
                f"estimated tail mass {tail:.3e} exceeds 1e-6; enlarge extent"
            )
    axis = np.linspace(-_WINDOW, _WINDOW, _WINDOW_POINTS)
    points = _cartesian(axis, n)
    xps = points @ w.T
    # At d = 0 the one midpoint is the empty point and h**0 is 1.
    uks = _cartesian(_midpoint_axis(grid_points, extent), d) @ kb.T
    weight = lf * (2.0 * extent / grid_points) ** d
    values = np.zeros((len(points), len(points)), dtype=np.complex128)
    for wt, k in state.terms:
        values += wt * _kernels.quad_table(
            k.P, k.R, k.s, k.logw, xps, xps, uks, weight
        )
    return QuadratureTable(points=points, values=values)


@dataclass(frozen=True, eq=False)
class OracleReport:
    max_rel_error: float
    closed_form: np.ndarray


def oracle_report(
    state: GaussianMixtureState,
    fine: SystemLabel,
    coarse: SystemLabel,
    witness: OrderWitness,
    grid_points: int = 64,
    extent: float = 8.0,
) -> OracleReport:
    """Quadrature vs closed form, compared on the same evaluation grid.

    The error is max |quad - closed| over the grid, relative to the largest
    closed-form magnitude, with the closed form kept unnormalized so both
    sides compute the same integral.  A closed form that is 0 at every
    evaluation point (a state far off the window) raises EmptyWindowError,
    and so does one that is subnormal at every point, whose few significant
    bits leave the relative error meaningless.
    """
    table = quadrature_partial_trace(state, fine, coarse, witness, grid_points, extent)
    kdec = decomposition_for(fine, coarse, witness)
    closed = _project_terms(state, kdec).sample(table.points, table.points)
    scale = np.abs(closed).max()
    if scale == 0.0:
        raise EmptyWindowError("the state has no mass on the evaluation window")
    if scale < sys.float_info.min:
        raise EmptyWindowError(
            f"the closed form is subnormal on the whole evaluation window "
            f"(largest magnitude {scale:.1e}), so its relative error has no "
            f"precision"
        )
    err = float(np.abs(table.values - closed).max() / scale)
    return OracleReport(max_rel_error=err, closed_form=closed)


# --- grid positivity probe ---------------------------------------------------


def kernel_matrix(state: GaussianMixtureState) -> np.ndarray:
    """Midpoint discretization of the kernel as a Hermitian matrix.

    The positivity probe's grid takes ``round(64 ** (1 / n))`` midpoints
    per axis of [-8, 8], 64 points in all for n = 1, 2 and 3 and 81 for
    n = 4.  From n = 5 that rule leaves 2 midpoints, +-4, per axis and 2**n
    points, so it is refused.  Each entry carries the cell volume ``h**n``,
    with ``h`` the spacing of the midpoint axis.
    """
    n = state.dim
    if n > 4:
        raise ValueError(f"the positivity probe takes dimensions 1 to 4, got {n}")
    axis = _midpoint_axis(round(64 ** (1.0 / n)), 8.0)
    pts = _cartesian(axis, n)
    h = float(axis[1] - axis[0])
    m = state.sample(pts, pts) * h**n
    return (m + m.conj().T) / 2


def min_eigenvalue(state: GaussianMixtureState) -> float:
    m = kernel_matrix(state)
    return float(np.linalg.eigvalsh(m).min())


# --- coherent families -------------------------------------------------------


@dataclass(frozen=True)
class CoherentFamily:
    """States over a finite ordered family, one per label."""

    labels: Mapping[str, SystemLabel]
    states: Mapping[str, GaussianMixtureState]
    order: tuple[OrderEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "states", dict(self.states))
        object.__setattr__(self, "order", tuple(self.order))
        missing = set(self.labels) - set(self.states)
        if missing:
            raise DimensionMismatchError(f"labels without states: {sorted(missing)}")
        unknown = {n for e in self.order for n in (e.upper, e.lower)} - set(self.labels)
        if unknown:
            raise DimensionMismatchError(f"unknown labels in order: {sorted(unknown)}")


@dataclass(frozen=True)
class FamilyEdgeResult:
    upper: str
    lower: str
    distance: float
    passed: bool


@dataclass(frozen=True)
class FamilyReport:
    edges: tuple[FamilyEdgeResult, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.edges)


def check_coherent_family(family: CoherentFamily, tol: float = 1e-8) -> FamilyReport:
    """Verify that each witnessed projection maps the fine state to the coarse
    one, as ``hs_distance(coarse, projected)`` (:func:`chain_consistency`'s order)."""
    check_tol(tol)
    results = []
    for edge in family.order:
        projected = project_state(
            family.states[edge.upper],
            family.labels[edge.upper],
            family.labels[edge.lower],
            edge.witness,
        )
        dist = hs_distance(family.states[edge.lower], projected)
        results.append(
            FamilyEdgeResult(edge.upper, edge.lower, dist, dist <= tol)
        )
    return FamilyReport(tuple(results), tol)
