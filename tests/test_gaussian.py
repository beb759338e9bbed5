import collections
import dataclasses
import gc
import itertools
import math
import re
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from pqk import (
    DimensionMismatchError,
    DivergentError,
    EmptyWindowError,
    ExtentTooSmallError,
    GaussianKernel,
    GaussianMixtureState,
    NotPositiveDefiniteError,
    CoherentFamily,
    chain_consistency,
    check_coherent_family,
    hs_distance,
    hs_inner,
    kernel_matrix,
    min_eigenvalue,
    mix,
    oracle_report,
    project_state,
    project_with,
    pure_state,
    purity,
    quadrature_partial_trace,
    trace,
)
from pqk import OrderViolationError, RankDeficientError
from pqk import gaussian, ratlin, systems
from pqk import io as pio
from pqk.dpg import random_system
from pqk.gaussian import (
    _PERTURBATIVE_THRESHOLD,
    _checked_terms,
    _gram_distance,
    _perturbative_distance,
    _term_deviation,
    _term_deviations,
    decomposition_for,
)
from pqk.systems import (
    OrderEdge,
    OrderWitness,
    embedding_matrix,
    projection_from_witness,
)

from conftest import generic_reduction, random_mixture, random_pure, subprocess_env


def midpoint_integral_1d(f, lo, hi, n=4096):
    xs = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
    return f(xs).sum() * (hi - lo) / n


# --- package exports --------------------------------------------------------

GAUSSIAN_EXPORTS = (
    "CoherentFamily", "GaussianKernel", "GaussianMixtureState",
    "chain_consistency", "check_coherent_family", "hs_distance", "hs_inner",
    "kernel_matrix", "min_eigenvalue", "mix", "oracle_report", "project_state",
    "project_with", "pure_state", "purity", "quadrature_partial_trace", "trace",
)


@pytest.mark.parametrize("name", GAUSSIAN_EXPORTS)
def test_package_serves_gaussian_exports_lazily(name):
    import pqk
    from pqk import gaussian

    assert getattr(pqk, name) is getattr(gaussian, name)
    assert name in dir(pqk)


def test_package_rejects_unknown_attributes():
    import pqk

    with pytest.raises(AttributeError, match="no_such_export"):
        pqk.no_such_export
    assert not hasattr(pqk, "decomposition_for")  # a gaussian name not exported


# --- pure states and traces ---------------------------------------------------


def test_pure_state_ground_state_trace_against_quadrature():
    st = pure_state([[1.0]], [0.0])
    w, k = st.terms[0]
    # independent oracle: the diagonal is pi^(-1/2) exp(-x^2)
    val = midpoint_integral_1d(
        lambda xs: np.real(k.sample(xs[:, None], xs[:, None]).diagonal()), -10, 10
    )
    assert abs(val - 1.0) <= 1e-10
    assert abs(trace(st) - 1.0) <= 1e-12
    assert abs(k.logw - math.log(math.pi ** -0.5)) <= 1e-12


def test_pure_state_product_factorizes():
    st = pure_state(np.eye(2), np.zeros(2))
    one = pure_state([[1.0]], [0.0])
    _, k2 = st.terms[0]
    _, k1 = one.terms[0]
    xs = np.linspace(-2, 2, 5)
    grid2 = np.stack([np.repeat(xs, 5), np.tile(xs, 5)], axis=1)
    vals2 = k2.sample(grid2, grid2)
    vals1 = k1.sample(xs[:, None], xs[:, None])
    expected = np.kron(vals1, vals1)
    assert np.abs(vals2 - expected).max() <= 1e-12


def test_pure_state_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        pure_state([[-1.0]], [0.0])
    with pytest.raises(NotPositiveDefiniteError):
        pure_state([[1.0, 0.0], [0.0, -0.5]], [0.0, 0.0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pure_state_is_the_public_kernel_of_its_symmetrised_A(n):
    """pure_state checks A and b by the kernel rule and builds one kernel:
    the one GaussianKernel makes of (A + A.T) / 2, a zero R and b, with
    logw minus its log trace.  exp then log may round that log trace by an
    ulp, so logw's bits are those of the closed-form log trace."""
    rng = np.random.default_rng(70 + n)
    X, Y = rng.normal(size=(2, n, n))
    A = X @ X.T + np.eye(n) + 1j * (Y + Y.T) / 4 + 1e-14 * rng.normal(size=(n, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert not np.array_equal(A, A.T)  # symmetrising moves bits
    unnormalised = GaussianMixtureState(
        n, ((1.0, GaussianKernel(n, (A + A.T) / 2, np.zeros((n, n)), b, 0.0)),)
    )
    logw = -gaussian._log_traces(*unnormalised._stacks, [0.0])[0]
    assert abs(logw + math.log(trace(unnormalised))) <= math.ulp(logw)
    expected = GaussianKernel(n, (A + A.T) / 2, np.zeros((n, n)), b, logw)
    (w, k), = pure_state(A, b).terms
    assert w == 1.0 and k.logw == expected.logw
    for a in "PRs":
        assert getattr(k, a).tobytes() == getattr(expected, a).tobytes()


def test_trace_of_weighted_mixture_is_one():
    rng = np.random.default_rng(0)
    st = mix([random_pure(2, rng), random_pure(2, rng)], [0.3, 0.7])
    assert abs(trace(st) - 1.0) <= 1e-12
    assert st.trace_drift == 0.0  # only a projection has drifted


def test_trace_divergent_term():
    k = GaussianKernel(
        dim=1, P=[[0.5 + 0j]], R=[[1.0 + 0j]], s=[0.0], logw=0.0
    )
    st = GaussianMixtureState(1, ((1.0, k),))
    with pytest.raises(DivergentError):
        trace(st)


def test_kernel_structure_is_exactly_hermitian():
    rng = np.random.default_rng(3)
    st = random_pure(3, rng)
    _, k = st.terms[0]
    assert np.array_equal(k.P, k.P.T)
    assert np.array_equal(k.R, k.R.conj().T)
    assert k.logw == float(np.real(k.logw))
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 3))
    diff = np.abs(k.sample(xs, ys) - np.conj(k.sample(ys, xs).T)).max()
    assert diff <= 1e-14 * np.abs(k.sample(xs, ys)).max()


NON_FINITE = (math.nan, math.inf, -math.inf, complex(0, math.nan))


@pytest.mark.parametrize("part", ["P", "R", "s"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_kernel_rejects_non_finite_parameters(part, value):
    parts = {"P": np.eye(2, dtype=complex), "R": np.zeros((2, 2), dtype=complex),
             "s": np.zeros(2, dtype=complex)}
    parts[part][(-1,) * parts[part].ndim] = value
    with pytest.raises(ValueError, match=f"^{part} must be finite$"):
        GaussianKernel(2, logw=0.0, **parts)


@pytest.mark.parametrize("value", NON_FINITE[:3])
def test_kernel_rejects_non_finite_log_weight(value):
    with pytest.raises(ValueError, match="^logw must be finite$"):
        GaussianKernel(1, [[1.0]], [[0.0]], [0.0], value)


@pytest.mark.parametrize(
    "part, P, R",
    [
        ("P", [[1.7e308]], [[0.0]]),
        ("P", [[1.0, 1e308], [1e308, 1.0]], np.zeros((2, 2))),
        ("R", [[1.0]], [[-1.7e308]]),
    ],
)
def test_kernel_refuses_parts_that_overflow_when_symmetrised(part, P, R):
    n = len(P)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{part} overflows when symmetrised$"):
            GaussianKernel(n, P, R, np.zeros(n), 0.0)


def test_kernel_keeps_large_finite_parts_bit_for_bit():
    k = GaussianKernel(1, [[8.9e307 + 1j]], [[-8.9e307]], [0.0], 0.0)
    assert k.P[0, 0] == 8.9e307 + 1j and k.R[0, 0] == -8.9e307


@pytest.mark.parametrize("weight", [0.0, -0.5, math.nan, math.inf])
def test_state_rejects_weights_not_positive_and_finite(weight):
    _, k = random_pure(1, np.random.default_rng(2)).terms[0]
    with pytest.raises(ValueError, match="is not positive and finite"):
        GaussianMixtureState(1, ((0.5, k), (weight, k)))


@pytest.mark.parametrize(
    "weights, bad",
    [
        ([-1.0, -3.0], "0 (-1.0)"),  # all negative: normalising hid the sign
        ([1.0, -1.0], "1 (-1.0)"),  # zero sum: a ZeroDivisionError before
        ([0.5, 0.0], "1 (0.0)"),
        ([math.nan, 1.0], "0 (nan)"),
        ([1.0, math.inf], "1 (inf)"),
        ([-math.inf, 1.0], "0 (-inf)"),
    ],
)
def test_mix_refuses_weights_not_positive_and_finite(weights, bad):
    rng = np.random.default_rng(4)
    states = [random_pure(1, rng), random_pure(1, rng)]
    with pytest.raises(ValueError, match=re.escape(f"mixture weight {bad} is not positive")):
        mix(states, weights)


def test_mix_refuses_weights_whose_sum_overflows():
    # Each weight is finite, but normalising by an infinite sum would give
    # every term weight 0.
    rng = np.random.default_rng(4)
    states = [random_pure(1, rng), random_pure(1, rng)]
    with pytest.raises(ValueError, match="^mixture weights sum to inf; scale them down$"):
        mix(states, [1e308, 1e308])


# --- projection ---------------------------------------------------------------


def test_project_product_state_returns_kept_factor():
    rng = np.random.default_rng(1)
    a = random_pure(1, rng)
    b = random_pure(1, rng)
    wa, ka = a.terms[0]
    wb, kb = b.terms[0]
    product = GaussianMixtureState(
        2,
        (
            (
                1.0,
                GaussianKernel(
                    dim=2,
                    P=np.block(
                        [[ka.P, np.zeros((1, 1))], [np.zeros((1, 1)), kb.P]]
                    ),
                    R=np.zeros((2, 2)),
                    s=np.concatenate([ka.s, kb.s]),
                    logw=ka.logw + kb.logw,
                ),
            ),
        ),
    )
    fine, coarse, witness = generic_reduction([[0, 1]])
    projected = project_state(product, fine, coarse, witness)
    assert hs_distance(projected, b) <= 1e-12
    _, kp = projected.terms[0]
    assert np.abs(kp.P - kb.P).max() <= 1e-12
    assert np.abs(kp.s - kb.s).max() <= 1e-12
    assert abs(kp.logw - kb.logw) <= 1e-12


def test_project_standard_ground_state():
    st = pure_state(np.eye(2), np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    projected = project_state(st, fine, coarse, witness)
    _, k = projected.terms[0]
    assert abs(complex(k.P[0, 0]) - 1.0) <= 1e-12
    assert np.abs(k.R).max() <= 1e-12
    assert np.abs(k.s).max() <= 1e-12
    assert abs(k.logw - math.log(math.pi ** -0.5)) <= 1e-12
    report = oracle_report(st, fine, coarse, witness, grid_points=64, extent=8.0)
    assert report.max_rel_error <= 1e-4


def test_project_correlated_state_mixes():
    st = pure_state([[1.0, 0.3], [0.3, 1.0]], np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    projected = project_state(st, fine, coarse, witness)
    p_closed = purity(projected)
    assert p_closed < 1.0 - 1e-6
    m = kernel_matrix(projected)
    p_grid = float(np.sum(np.abs(m) ** 2))
    assert abs(p_closed - p_grid) <= 1e-6
    assert projected.trace_drift <= 1e-12


def test_projection_trace_preserved_on_mixtures():
    rng = np.random.default_rng(7)
    fine, coarse, witness = generic_reduction([[1, 0, 0], [0, 1, 1]])
    for _ in range(10):
        st = random_mixture(3, 3, rng)
        projected = project_state(st, fine, coarse, witness)
        assert projected.trace_drift <= 1e-9
        assert abs(trace(projected) - 1.0) <= 1e-10


def test_projection_never_raises_purity_of_pure_states():
    # The monotonicity theorem is for pure inputs; reducing a mixed state
    # can concentrate it (e.g. tracing a mixed factor out of a product).
    rng = np.random.default_rng(7)
    fine, coarse, witness = generic_reduction([[1, 0, 0], [0, 1, 1]])
    for _ in range(10):
        st = random_pure(3, rng)
        projected = project_state(st, fine, coarse, witness)
        assert purity(projected) <= purity(st) + 1e-9


def test_projection_kernel_basis_invariance():
    rng = np.random.default_rng(9)
    st = random_mixture(3, 2, rng)
    fine, coarse, witness = generic_reduction([[1, 1, 0], [0, 0, 1]])
    dec = decomposition_for(fine, coarse, witness)
    out1 = project_with(st, dec)
    m = ratlin.mat([[3]])  # rescale the 1-dim kernel basis
    kb = ratlin.matmul(dec.kernel_basis, m)
    dec2 = dataclasses.replace(
        dec,
        kernel_basis=kb,
        lebesgue_factor=abs(ratlin.det(ratlin.hstack(kb, dec.embedding))),
    )
    out2 = project_with(st, dec2)
    assert hs_distance(out1, out2) <= 1e-10


def test_project_dimension_mismatch():
    """Both entry points refuse a state of the wrong dimension with one text."""
    rng = np.random.default_rng(2)
    st = random_mixture(2, 1, rng)
    fine, coarse, witness = generic_reduction([[1, 1, 0]])
    message = r"^state dimension 2 != projection source 3$"
    with pytest.raises(DimensionMismatchError, match=message):
        project_state(st, fine, coarse, witness)
    with pytest.raises(DimensionMismatchError, match=message):
        project_with(st, decomposition_for(fine, coarse, witness))


@pytest.mark.parametrize("A, shape", [(np.ones((2, 3)), "(2, 3)"), (np.ones(2), "(2,)")])
def test_pure_state_refuses_an_A_that_is_not_square(A, shape):
    # The dimension is A's row count, so the refusal names A's own shape.
    with pytest.raises(DimensionMismatchError, match=f"^A must be 2x2, got {re.escape(shape)}$"):
        pure_state(A, np.zeros(2))


# --- the stacked projection against a per-term reference ----------------------


def naive_log_trace(k):
    """One kernel's closed-form log trace, as evaluated term by term."""
    c = k.P.real - k.R.real
    np.linalg.cholesky(c)  # LinAlgError where the stacked pass raises DivergentError
    u = 2.0 * k.s.real
    _, logdet = np.linalg.slogdet(c)
    return (
        k.logw + 0.5 * k.dim * math.log(math.pi) - 0.5 * logdet
        + 0.25 * float(u @ np.linalg.solve(c, u))
    )


def _project_kernel(k, kb, w, lf):
    """Integrate one kernel over the kernel-basis directions: the per-term
    form the stacked pass in ``gaussian._project_terms`` must reproduce."""
    n = w.shape[1]
    d = kb.shape[1]
    P0 = w.T @ k.P @ w
    R0 = w.T @ k.R @ w
    s0 = w.T @ k.s
    if d == 0:
        new = (P0, R0, s0, k.logw + math.log(lf))
    else:
        a_u = 2.0 * (kb.T @ (k.P.real - k.R.real) @ kb)
        try:
            np.linalg.cholesky(a_u)
        except np.linalg.LinAlgError:
            raise DivergentError(
                "kernel-direction quadratic form is not positive definite"
            ) from None
        lx = kb.T @ (k.R.T - k.P) @ w
        ly = np.conj(lx)
        l0 = 2.0 * (kb.T @ k.s.real)
        j = np.linalg.inv(a_u)
        j = (j + j.T) / 2
        _, logdet = np.linalg.slogdet(a_u)
        logw = (
            k.logw
            + math.log(lf)
            + 0.5 * d * math.log(2 * math.pi)
            - 0.5 * logdet
            + 0.5 * float(l0 @ j @ l0)
        )
        new = (P0 - lx.T @ j @ lx, R0 + lx.T @ j @ ly, s0 + lx.T @ (j @ l0), logw)
    P, R, s, logw = new
    P = (P + P.T) / 2
    R = (R + R.conj().T) / 2
    return GaussianKernel(dim=n, P=P, R=R, s=s, logw=float(logw))


def naive_project_with(state, kdec):
    kb, w, lf = kdec.floats
    if w.shape[0] != state.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} != projection source {w.shape[0]}"
        )
    terms = tuple((wt, _project_kernel(k, kb, w, lf)) for wt, k in state.terms)
    try:
        pre_trace = float(sum(wt * math.exp(naive_log_trace(k)) for wt, k in terms))
    except np.linalg.LinAlgError:
        raise DivergentError("kernel diagonal form is not positive definite") from None
    return GaussianMixtureState(
        dim=kdec.projection.rows,
        terms=tuple((wt / pre_trace, k) for wt, k in terms),
        trace_drift=abs(pre_trace - 1.0),
    )


def state_bits(state):
    return (
        state.dim,
        state.trace_drift.hex(),
        [
            (w.hex(), k.P.tobytes(), k.R.tobytes(), k.s.tobytes(), k.logw.hex())
            for w, k in state.terms
        ],
    )


def projection_cases(deep_system):
    """Decompositions with kernel dimension 0, 1, 2 and 3, plus every edge of
    a generated system."""
    for rows in ([[1, 2], [0, 1]], [[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]],
                 [[2, 1, 0, 0]], [[1, 1, 0, 2]]):
        fine, coarse, witness = generic_reduction(rows)
        yield decomposition_for(fine, coarse, witness)
    labels = deep_system.labels
    for e in deep_system.order:
        yield decomposition_for(labels[e.upper], labels[e.lower], e.witness)


def test_stacked_projection_matches_per_term_reference(deep_system):
    rng = np.random.default_rng(12)
    kernel_dims = set()
    for kdec in projection_cases(deep_system):
        kernel_dims.add(kdec.kernel_dim)
        for n_terms in (1, 3, 8):
            state = random_mixture(kdec.projection.cols, n_terms, rng)
            assert state_bits(project_with(state, kdec)) == state_bits(
                naive_project_with(state, kdec)
            )
            want = float(sum(w * math.exp(naive_log_trace(k)) for w, k in state.terms))
            assert trace(state).hex() == want.hex()
    assert {0, 1, 2, 3} <= kernel_dims
    k = random_pure(3, rng).terms[0][1]
    bare = GaussianKernel(3, k.P, k.R, k.s, 0.0)
    assert k.logw.hex() == (-naive_log_trace(bare)).hex()


def test_stacked_projection_keeps_its_errors():
    rng = np.random.default_rng(13)
    good = random_mixture(3, 3, rng)
    divergent = GaussianKernel(3, -100 * np.eye(3), np.zeros((3, 3)), np.zeros(3), 0.0)
    bad = GaussianMixtureState(3, good.terms[:2] + ((0.5, divergent),))
    with_kernel = decomposition_for(*generic_reduction([[1, 0, 0], [0, 1, 1]]))
    square = decomposition_for(*generic_reduction([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
    one_dim = random_mixture(1, 3, rng)
    for state, kdec, error in ((bad, with_kernel, DivergentError),
                               (bad, square, DivergentError),
                               (one_dim, with_kernel, DimensionMismatchError)):
        with pytest.raises(error) as expected:
            naive_project_with(state, kdec)
        with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
            project_with(state, kdec)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_projected_kernels_carry_the_constructors_bits(seed):
    # Projected kernels come from one checked stack, not from the
    # constructor; the constructor, given their arrays, gives the same bits.
    system = random_system(4, 4, seed)
    labels = system.labels
    rng = np.random.default_rng(seed)
    for edge in system.order:
        kdec = decomposition_for(labels[edge.upper], labels[edge.lower], edge.witness)
        for n_terms in (1, 3, 8):
            state = random_mixture(kdec.projection.cols, n_terms, rng)
            for _, k in project_with(state, kdec).terms:
                again = GaussianKernel(k.dim, k.P, k.R, k.s, k.logw)
                assert [a.tobytes() for a in (k.P, k.R, k.s)] == [
                    a.tobytes() for a in (again.P, again.R, again.s)
                ]
                assert k.logw.hex() == again.logw.hex()
                assert not any(a.flags.writeable for a in (k.P, k.R, k.s))


@pytest.mark.parametrize("seed", [1, 2])
def test_a_projected_state_keeps_its_checked_stacks(seed):
    # A projection hands the stacks it checked to the state it returns; they
    # are, byte for byte, what stacking the projected kernels would build.
    system = random_system(3, 3, seed)
    labels = system.labels
    rng = np.random.default_rng(seed)
    for edge in system.order:
        kdec = decomposition_for(labels[edge.upper], labels[edge.lower], edge.witness)
        for n_terms in (1, 3, 8):
            state = random_mixture(kdec.projection.cols, n_terms, rng)
            projected = project_with(state, kdec)
            kept = vars(projected)["_stacks"]
            kernels = [k for _, k in projected.terms]
            fresh = [np.array([getattr(k, a) for k in kernels]) for a in "PRs"]
            assert [(a.dtype, a.shape, a.tobytes()) for a in kept] == [
                (a.dtype, a.shape, a.tobytes()) for a in fresh
            ]
            assert not any(a.flags.writeable for a in kept)


def _set(part, entries):
    """Write ``entries`` ({index: value}) into kernel part 0 (P), 1 (R) or 2 (s)."""
    def apply(parts):
        for index, value in entries.items():
            parts[part][index] = value
    return apply


def _non_finite_log_weight(parts):
    parts[3] = math.nan


NAN_P = _set(0, {(0, 0): math.nan})


@pytest.mark.parametrize("part, message", [
    ("A", "A must be symmetric"), ("P", "P must be symmetric"), ("R", "R must be Hermitian"),
])
def test_an_asymmetry_of_exactly_the_tolerance_is_accepted(part, message):
    # Entries of size at most 1 make the scale 1, so the bound is 1e-12
    # itself: an asymmetry of 1e-12 passes and the next float above it fails.
    def build(gap):
        P, R = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        (R if part == "R" else P)[1, 0] = gap
        if part == "A":
            return pure_state(P, np.zeros(2))
        return GaussianKernel(2, P, R, np.zeros(2), 0.0)

    build(1e-12)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(np.nextafter(1e-12, 1.0))


@pytest.mark.parametrize(
    "first, later, message",
    [
        (_set(1, {(0, 0): math.inf}), NAN_P, "R must be finite"),
        (_non_finite_log_weight, _set(2, {0: math.nan}), "logw must be finite"),
        (_set(0, {(0, 1): 5.0}), NAN_P, "P must be symmetric"),
        (_set(1, {(0, 1): 5.0}), _set(2, {0: math.inf}), "R must be Hermitian"),
        (_set(0, {(0, 1): 1e308, (1, 0): 1e308}), _set(0, {(0, 1): 5.0}),
         "P overflows when symmetrised"),
        (_set(1, {(0, 0): -1.7e308}), NAN_P, "R overflows when symmetrised"),
    ],
)
def test_a_stack_check_raises_what_its_first_faulty_term_raises(first, later, message):
    # Terms 1 and 3 are faulty, and term 3's fault comes earlier in the
    # order of checks than term 1's: the constructor, term by term, meets
    # term 1 first, and so must the check of the whole stack.
    rng = np.random.default_rng(15)
    terms = []
    for i in range(4):
        k = random_pure(2, rng).terms[0][1]
        parts = [k.P.copy(), k.R.copy(), k.s.copy(), k.logw]
        {1: first, 3: later}.get(i, lambda parts: None)(parts)
        terms.append(parts)
    with pytest.raises(ValueError) as expected:
        for parts in terms:
            GaussianKernel(2, *parts)
    assert str(expected.value) == message
    P, R, s = (np.array([parts[i] for parts in terms]) for i in range(3))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _checked_terms(P, R, s, [parts[3] for parts in terms])


def test_one_projection_checks_its_stack_once(monkeypatch):
    state = random_mixture(3, 8, np.random.default_rng(16))
    kdec = decomposition_for(*generic_reduction([[1, 0, 0], [0, 1, 1]]))
    checks = calls_to(monkeypatch, "_checked_terms")
    projected = project_with(state, kdec)
    assert len(checks) == 1 and len(checks[0][0]) == len(projected.terms) == 8


# --- hilbert-schmidt metric ----------------------------------------------------


def test_hs_distance_self_is_zero():
    rng = np.random.default_rng(4)
    st = random_mixture(2, 2, rng)
    assert hs_distance(st, st) <= 1e-12


def test_hs_distance_displaced_ground_states():
    s0 = pure_state([[1.0]], [0.0])
    s5 = pure_state([[1.0]], [5.0])
    d = hs_distance(s0, s5)
    expected = math.sqrt(2.0 - 2.0 * math.exp(-25.0 / 2.0))
    assert abs(d - expected) <= 1e-10
    assert d > 1.0
    # grid cross-check of the closed-form overlap
    xs = np.linspace(-8.0, 13.0, 420)
    h = xs[1] - xs[0]
    k0 = s0.terms[0][1].sample(xs[:, None], xs[:, None])
    k5 = s5.terms[0][1].sample(xs[:, None], xs[:, None])
    d_grid = math.sqrt(float(np.sum(np.abs(k0 - k5) ** 2)) * h * h)
    assert abs(d - d_grid) <= 1e-6


def test_hs_distance_dimension_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatchError):
        hs_distance(random_mixture(1, 1, rng), random_mixture(2, 1, rng))


def test_hs_inner_matches_grid():
    rng = np.random.default_rng(6)
    s1 = random_pure(1, rng, displacement=0.2)
    s2 = random_pure(1, rng, displacement=0.2)
    closed = hs_inner(s1, s2)
    xs = np.linspace(-9, 9, 600)
    h = xs[1] - xs[0]
    k1 = s1.terms[0][1].sample(xs[:, None], xs[:, None])
    k2 = s2.terms[0][1].sample(xs[:, None], xs[:, None])
    grid = np.sum(np.conj(k1) * k2) * h * h
    assert abs(closed - grid) <= 1e-8


def test_perturbative_distance_tracks_gram():
    rng = np.random.default_rng(8)
    base = random_mixture(2, 2, rng)
    for eps in (1e-3, 1e-4, 1e-5):
        terms = tuple(
            (w, GaussianKernel(2, k.P + eps * np.eye(2), k.R, k.s, k.logw + eps))
            for w, k in base.terms
        )
        shifted = GaussianMixtureState(2, terms)
        g = _gram_distance(base, shifted)
        p = _perturbative_distance(base, shifted)
        assert abs(g - p) <= 5 * eps * g


# Per-pair reference: the HS pairing one term pair at a time, as the module
# computed it before the pairs were stacked.  The stacked pass must give the
# same bits, not merely close values.


def naive_log_integral(M, v):
    n = M.shape[0]
    try:
        np.linalg.cholesky(M.real)
    except np.linalg.LinAlgError:
        raise DivergentError("quadratic form has non-positive-definite real part")
    logdet = complex(np.sum(np.log(np.linalg.eigvals(M))))
    quad = complex(v @ np.linalg.solve(M, v))
    return 0.5 * n * math.log(2 * math.pi) - 0.5 * logdet + 0.5 * quad


def naive_pair_form(k1, k2):
    cross = -(k1.R.conj() + k2.R)
    M = np.block([[k1.P.conj() + k2.P, cross], [cross.T, k1.P + k2.P.conj()]])
    v = np.concatenate([k1.s.conj() + k2.s, k1.s + k2.s.conj()])
    return M, v


def naive_hs_inner(s1, s2):
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"states live in dimensions {s1.dim} and {s2.dim}"
        )
    return complex(
        sum(
            w1 * w2 * complex(
                np.exp(k1.logw + k2.logw + naive_log_integral(*naive_pair_form(k1, k2)))
            )
            for w1, k1 in s1.terms
            for w2, k2 in s2.terms
        )
    )


def naive_gram_distance(s1, s2):
    d2 = (
        naive_hs_inner(s1, s1) + naive_hs_inner(s2, s2)
        - 2 * naive_hs_inner(s1, s2).real
    ).real
    return math.sqrt(max(d2, 0.0))


def naive_moment_product(A, b, c, B, d, e, sigma, mu):
    tA = np.trace(A @ sigma)
    tB = np.trace(B @ sigma)
    mAm = mu @ A @ mu
    mBm = mu @ B @ mu
    bm = b @ mu
    dm = d @ mu
    out = 0.25 * (
        tA * tB
        + 2 * np.trace(A @ sigma @ B @ sigma)
        + tA * mBm
        + tB * mAm
        + 4 * (mu @ A @ sigma @ B @ mu)
        + mAm * mBm
    )
    out += 0.5 * (tA * dm + 2 * (mu @ A @ sigma @ d) + mAm * dm)
    out += 0.5 * e * (tA + mAm)
    out += 0.5 * (tB * bm + 2 * (mu @ B @ sigma @ b) + mBm * bm)
    out += b @ sigma @ d + bm * dm
    out += e * bm
    out += c * (0.5 * (tB + mBm) + dm + e)
    return complex(out)


def naive_perturbative_distance(s1, s2):
    deltas = []
    for (w1, k1), (w2, k2) in zip(s1.terms, s2.terms):
        dP, dR, ds = k1.P - k2.P, k1.R - k2.R, k1.s - k2.s
        dc = (k1.logw - k2.logw) + math.log(w1 / w2)
        A = np.block([[-dP, dR], [dR.T, -dP.conj()]])
        deltas.append((A, np.concatenate([ds, ds.conj()]), dc))
    total = 0.0 + 0.0j
    for t, (wt, kt) in enumerate(s2.terms):
        for u, (wu, ku) in enumerate(s2.terms):
            M, v = naive_pair_form(kt, ku)
            gli = naive_log_integral(M, v)
            sigma = np.linalg.inv(M)
            sigma = (sigma + sigma.T) / 2
            mu = sigma @ v
            base = wt * wu * np.exp(kt.logw + ku.logw + gli)
            At, bt, ct = deltas[t]
            Au, bu, cu = deltas[u]
            total += base * naive_moment_product(
                At.conj(), bt.conj(), np.conj(ct), Au, bu, cu, sigma, mu
            )
    return math.sqrt(max(total.real, 0.0))


def naive_hs_distance(s1, s2):
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"states live in dimensions {s1.dim} and {s2.dim}"
        )
    if len(s1.terms) == len(s2.terms):
        dev = max(_term_deviation(t1, t2) for t1, t2 in zip(s1.terms, s2.terms))
        if dev <= _PERTURBATIVE_THRESHOLD:
            return naive_perturbative_distance(s1, s2)
    return naive_gram_distance(s1, s2)


HS_ROUTINES = (
    (hs_inner, naive_hs_inner),
    (_gram_distance, naive_gram_distance),
    (_perturbative_distance, naive_perturbative_distance),
    (hs_distance, naive_hs_distance),
)


def perturbed(state, eps, rng):
    """Every term moved by about eps in each parameter and in its weight."""
    terms = []
    for w, k in state.terms:
        n = k.dim
        dP = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dR = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ds = rng.normal(size=n) + 1j * rng.normal(size=n)
        kernel = GaussianKernel(
            n, k.P + eps * (dP + dP.T), k.R + eps * (dR + dR.conj().T),
            k.s + eps * ds, k.logw + eps * rng.normal(),
        )
        terms.append((w * (1 + eps * rng.normal()), kernel))
    return GaussianMixtureState(state.dim, tuple(terms))


def assert_same_result(s1, s2):
    for routine, reference in HS_ROUTINES:
        got, want = routine(s1, s2), reference(s1, s2)
        assert type(got) is type(want) and got == want, (routine.__name__, got, want)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_hs_pairing_matches_per_pair_reference(dim):
    rng = np.random.default_rng(dim)
    for n_terms in range(1, 9):
        base = random_mixture(dim, n_terms, rng)
        for eps in (1e-14, 1e-10, 1e-7):
            assert_same_result(base, perturbed(base, eps, rng))
        assert_same_result(base, random_mixture(dim, n_terms, rng))
        other = random_mixture(dim, 9 - n_terms, rng)
        for routine, reference in HS_ROUTINES[:2] + HS_ROUTINES[3:]:
            assert routine(base, other) == reference(base, other)


WIDE_SIMD_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_stacked_hs_pairing_bits_hold_without_wide_simd():
    # numpy's array complex multiply rounds differently with and without its
    # AVX2/AVX-512 loops; the equality tests of the stacked HS pairing and
    # the stacked projection must hold on either dispatch level.
    env = subprocess_env(NPY_DISABLE_CPU_FEATURES=WIDE_SIMD_OFF)
    probe = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"],
        env=env, capture_output=True, text=True,
    )
    if probe.returncode != 0:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES: {probe.stderr[-300:]}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_stacked_hs_pairing_matches_per_pair_reference",
         f"{__file__}::test_stacked_projection_matches_per_term_reference"],
        env=env, cwd=Path(__file__).parent, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "5 passed" in run.stdout


def calls_to(monkeypatch, name):
    """Record each call to ``gaussian.<name>`` from here on as its list of
    arguments, with the result appended when the call returns."""
    calls = []
    real = getattr(gaussian, name)

    def counting(*args):
        call = [*args]
        calls.append(call)
        call.append(real(*args))
        return call[-1]

    monkeypatch.setattr(gaussian, name, counting)
    return calls


def rebuilt(state):
    """A term-for-term copy of ``state`` made of new objects."""
    terms = tuple(
        (w, GaussianKernel(k.dim, k.P.copy(), k.R.copy(), k.s.copy(), k.logw))
        for w, k in state.terms
    )
    return GaussianMixtureState(state.dim, terms)


def test_stacked_hs_pairing_keeps_its_errors():
    rng = np.random.default_rng(9)
    good = random_mixture(2, 3, rng)
    divergent = GaussianKernel(2, -100 * np.eye(2), np.zeros((2, 2)), np.zeros(2), 0.0)
    bad = GaussianMixtureState(2, good.terms[:2] + ((0.5, divergent),))
    one_dim = random_mixture(1, 3, rng)
    for routine, reference in HS_ROUTINES:
        for s1, s2, error in ((bad, bad, DivergentError), (bad, rebuilt(bad), DivergentError),
                              (good, bad, DivergentError),
                              (good, one_dim, DimensionMismatchError)):
            if routine is _perturbative_distance and error is DimensionMismatchError:
                continue
            with pytest.raises(error) as expected:
                reference(s1, s2)
            with pytest.raises(error, match=re.escape(str(expected.value))):
                routine(s1, s2)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_identical_states_compare_without_the_expansion(dim, monkeypatch):
    rng = np.random.default_rng(40 + dim)
    expansions = calls_to(monkeypatch, "_perturbative_distance")
    for n_terms in (1, 3, 8):
        st = random_mixture(dim, n_terms, rng)
        copy = rebuilt(st)
        assert copy is not st and state_bits(copy)[2] == state_bits(st)[2]
        for other in (st, copy):
            want = naive_hs_distance(st, other)
            assert want == 0.0 and hs_distance(st, other).hex() == want.hex()
        assert not expansions
        w, k = st.terms[-1]
        nudged = GaussianMixtureState(dim, st.terms[:-1] + ((math.nextafter(w, 2.0), k),))
        got, want = hs_distance(st, nudged), naive_hs_distance(st, nudged)
        assert len(expansions) == 1 and got.hex() == want.hex()
        expansions.clear()


def test_a_decomposition_keeps_its_last_projection():
    kdec = decomposition_for(*generic_reduction([[1, 1, 0], [0, 0, 1]]))
    rng = np.random.default_rng(26)
    first, second = random_mixture(3, 2, rng), random_mixture(3, 3, rng)
    projected = project_with(first, kdec)
    assert project_with(first, kdec) is projected
    other = project_with(second, kdec)
    assert other is not projected
    assert state_bits(other) == state_bits(naive_project_with(second, kdec))
    assert project_with(second, kdec) is other
    # One slot: the first state is no longer held by the decomposition.
    released = weakref.ref(first)
    del first
    gc.collect()
    assert released() is None


def top_family(seed):
    """On ``random_system(4, 4, seed)``: a 3-term state on the label with the
    most edges below it, projected along each of them, as a family.  Returns
    the system, the family, its top label and the rng that drew the state."""
    system = random_system(4, 4, seed)
    labels = system.labels
    rng = np.random.default_rng(seed)
    top = max(labels, key=lambda n: sum(e.upper == n for e in system.order))
    st = random_mixture(labels[top].dim, 3, rng)
    states = {top: st}
    for edge in system.order:
        if edge.upper == top:
            states[edge.lower] = project_state(
                st, labels[top], labels[edge.lower], edge.witness
            )
    edges = tuple(e for e in system.order if {e.upper, e.lower} <= set(states))
    family = CoherentFamily({n: labels[n] for n in states}, states, edges)
    return system, family, top, rng


def chain_report(system, source, chain):
    a, b, c = chain
    return chain_consistency(
        source, *(system.labels[n] for n in chain), system.find_witness(a, b),
        system.find_witness(b, c), system.find_witness(a, c),
    )


def check_family_and_chains(seed):
    """On :func:`top_family`: check that family's coherence, then every chain
    (from the top with its state, elsewhere with a fresh one)."""
    system, family, top, rng = top_family(seed)
    st = family.states[top]
    assert check_coherent_family(family).passed
    chains = system.chains()
    assert chains
    for chain in chains:
        a = chain[0]
        source = st if a == top else random_mixture(system.labels[a].dim, 2, rng)
        assert chain_report(system, source, chain).passed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kept_projections_match_fresh_ones(seed, monkeypatch):
    made = calls_to(monkeypatch, "_project_terms")
    asked = calls_to(monkeypatch, "project_with")
    check_family_and_chains(seed)
    # A projection runs exactly when the state differs from the one last
    # projected along the same decomposition.
    last, fresh = {}, 0
    for state, kdec, _ in asked:
        fresh += last.get(id(kdec)) is not state
        last[id(kdec)] = state
    assert len(made) == fresh < len(asked)
    monkeypatch.undo()
    for state, kdec, projected in asked:
        unkept = dataclasses.replace(kdec)
        assert state_bits(projected) == state_bits(project_with(state, unkept))


def test_a_failed_projection_keeps_nothing(monkeypatch):
    rng = np.random.default_rng(13)
    good = random_mixture(3, 3, rng)
    divergent = GaussianKernel(3, -100 * np.eye(3), np.zeros((3, 3)), np.zeros(3), 0.0)
    bad = GaussianMixtureState(3, good.terms[:2] + ((0.5, divergent),))
    kdec = decomposition_for(*generic_reduction([[1, 0, 0], [0, 1, 1]]))
    made = calls_to(monkeypatch, "_project_terms")
    for _ in range(2):
        with pytest.raises(DivergentError):
            project_with(bad, kdec)
    assert len(made) == 2 and "_projected" not in vars(kdec)
    kept = project_with(good, kdec)
    with pytest.raises(DivergentError):
        project_with(bad, kdec)
    assert project_with(good, kdec) is kept and len(made) == 4


PARTNERS = ("same", "copy", "1e-14", "1e-10", "1e-7", "other")


@settings(max_examples=30, deadline=None)
@given(
    dim=strategies.integers(1, 4),
    n_terms=strategies.integers(1, 8),
    seed=strategies.integers(0, 2**32 - 1),
    order=strategies.lists(strategies.sampled_from(PARTNERS), min_size=1, max_size=6),
)
def test_a_state_compared_again_gives_the_fresh_bits(dim, n_terms, seed, order):
    # One state is s2 against several s1, in a random order of branches: the
    # zero path, expansions and the Gram form.  What it keeps (its stacks and
    # its last distance) must give the bits of a fresh copy and of the
    # per-pair reference on every call.
    rng = np.random.default_rng(seed)
    s2 = random_mixture(dim, n_terms, rng)
    partners = {
        "same": lambda: s2,
        "copy": lambda: rebuilt(s2),
        "other": lambda: random_mixture(dim, n_terms, rng),
    }
    for kind in order:
        s1 = partners[kind]() if kind in partners else perturbed(s2, float(kind), rng)
        got, fresh = hs_distance(s1, s2), hs_distance(s1, rebuilt(s2))
        assert got.hex() == fresh.hex() == naive_hs_distance(s1, s2).hex(), kind
        # The stacked deviations pick the branch the per-pair ones pick.
        assert [d.hex() for d in _term_deviations(s1, s2)] == [
            float(_term_deviation(t1, t2)).hex() for t1, t2 in zip(s1.terms, s2.terms)
        ], kind


def test_term_deviations_scale_by_the_reference_kernels_R():
    # The states above pair a reference s2 of pure states, whose R is 0;
    # here s2's terms have a nonzero R, which scales its deviation.
    rng = np.random.default_rng(31)
    s2 = perturbed(random_mixture(3, 4, rng), 0.1, rng)
    s1 = perturbed(s2, 1e-8, rng)
    assert all(np.abs(k.R).max() > 0.1 for _, k in s2.terms)
    assert [d.hex() for d in _term_deviations(s1, s2)] == [
        float(_term_deviation(t1, t2)).hex() for t1, t2 in zip(s1.terms, s2.terms)
    ]


def test_a_divergent_state_keeps_nothing():
    rng = np.random.default_rng(21)
    good = random_mixture(2, 3, rng)
    divergent = GaussianKernel(2, -100 * np.eye(2), np.zeros((2, 2)), np.zeros(2), 0.0)
    bad = GaussianMixtureState(2, good.terms[:2] + ((0.5, divergent),))
    fields = {f.name for f in dataclasses.fields(bad)}
    near = perturbed(bad, 1e-10, rng)
    for s1 in (bad, near, rebuilt(bad), near, bad):
        with pytest.raises(DivergentError, match="^quadratic form has non-positive"):
            hs_distance(s1, bad)
        assert set(vars(bad)) - fields <= {"_stacks"}  # no _compared slot


def test_a_compared_state_keeps_only_its_stacks_and_last_distance(monkeypatch):
    # After the zero path, an expansion and the Gram form around one state,
    # it holds its stacks and its last distance, and nothing of its pairing
    # with itself; all of it is released with the state.
    rng = np.random.default_rng(22)
    expansions = calls_to(monkeypatch, "_perturbative_distance")
    grams = calls_to(monkeypatch, "_gram_distance")
    st = random_mixture(3, 3, rng)
    assert hs_distance(rebuilt(st), st) == 0.0
    assert hs_distance(perturbed(st, 1e-10, rng), st) > 0.0
    assert hs_distance(random_mixture(3, 3, rng), st) > 0.0
    assert len(expansions) == len(grams) == 1
    monkeypatch.undo()  # the recorders hold the calls' arguments
    fields = {f.name for f in dataclasses.fields(st)}
    assert set(vars(st)) - fields == {"_stacks", "_compared"}
    kept = [weakref.ref(x) for x in (st, *st._stacks)]
    del st, expansions, grams
    gc.collect()
    assert [r() for r in kept] == [None] * len(kept)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_state_pairs_with_itself_at_most_once(seed, monkeypatch):
    forms = calls_to(monkeypatch, "_pair_forms")
    distances = calls_to(monkeypatch, "hs_distance")
    check_family_and_chains(seed)
    # Every call is held in the lists, so no id is reused.
    selves = [id(s1) for s1, s2, _ in forms if s1 is s2]
    assert len(selves) == len(set(selves))
    assert len({id(s2) for _, s2, _ in distances}) == len(selves) < len(distances)
    monkeypatch.undo()
    for s1, s2, distance in distances:
        assert distance.hex() == hs_distance(s1, rebuilt(s2)).hex()


def top_chain_distances(seed, check_family):
    """The distance of every chain from the top of :func:`top_family`, as hex,
    with or without the family's check first."""
    system, family, top, _ = top_family(seed)
    if check_family:
        assert check_coherent_family(family).passed
    chains = [c for c in system.chains() if c[0] == top]
    assert chains
    st = family.states[top]
    return [chain_report(system, st, c).distance.hex() for c in chains]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_distances_do_not_depend_on_a_family_check_first(seed):
    checked = top_chain_distances(seed, check_family=True)
    assert checked == top_chain_distances(seed, check_family=False)
    # Copies of the top state project to new objects, which keep no distance.
    system, family, top, _ = top_family(seed)
    fresh = [
        chain_report(system, rebuilt(family.states[top]), c).distance.hex()
        for c in system.chains() if c[0] == top
    ]
    assert checked == fresh


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chains_from_a_checked_family_read_its_distances(seed, monkeypatch):
    expansions = calls_to(monkeypatch, "_perturbative_distance")
    integrals = calls_to(monkeypatch, "_pair_integrals")
    top_chain_distances(seed, check_family=False)
    # Unchecked, the chains expand; the test below would be vacuous otherwise.
    assert expansions and integrals
    system, family, top, _ = top_family(seed)
    check_coherent_family(family)
    expansions.clear()
    integrals.clear()
    for chain in system.chains():
        if chain[0] == top:
            chain_report(system, family.states[top], chain)
    assert not expansions and not integrals


def test_a_distance_is_kept_for_the_last_first_state(monkeypatch):
    rng = np.random.default_rng(27)
    s2 = random_mixture(3, 3, rng)
    a, b = perturbed(s2, 1e-10, rng), random_mixture(3, 3, rng)
    want = {id(s1): naive_hs_distance(s1, s2).hex() for s1 in (a, b)}
    expansions = calls_to(monkeypatch, "_perturbative_distance")
    grams = calls_to(monkeypatch, "_gram_distance")
    for s1 in (a, a, b, b, a):
        assert hs_distance(s1, s2).hex() == want[id(s1)]
        assert vars(s2)["_compared"][0] is s1
    # a, then b, then a again: each a fresh call, each repeat kept.
    assert len(expansions) == 2 and len(grams) == 1
    expansions.clear()
    grams.clear()
    # One slot: b is no longer held by s2, and a goes with s2.
    released = [weakref.ref(x) for x in (a, b, s2)]
    del b, s1
    gc.collect()
    assert released[1]() is None
    del a, s2
    gc.collect()
    assert [r() for r in released] == [None] * 3


def test_a_failed_distance_keeps_nothing():
    rng = np.random.default_rng(28)
    good = random_mixture(2, 3, rng)
    divergent = GaussianKernel(2, -100 * np.eye(2), np.zeros((2, 2)), np.zeros(2), 0.0)
    bad = GaussianMixtureState(2, good.terms[:2] + ((0.5, divergent),))
    near, one_dim = perturbed(bad, 1e-10, rng), random_mixture(1, 3, rng)
    for s1, s2, error in ((near, bad, DivergentError), (bad, good, DivergentError),
                          (one_dim, good, DimensionMismatchError)):
        for _ in range(2):
            with pytest.raises(error):
                hs_distance(s1, s2)
            assert "_compared" not in vars(s2)
    close = perturbed(good, 1e-10, rng)
    kept = hs_distance(close, good)
    with pytest.raises(DivergentError):
        hs_distance(bad, good)
    assert vars(good)["_compared"] == (close, kept)


def test_states_of_unequal_dimension_are_refused_before_any_other_pairing():
    """Only _pair_forms checks a pair's dimensions, and the Gram form pairs
    s1 with s2 first, so a first state whose pairing with itself diverges
    is still refused for its dimension."""
    divergent = GaussianKernel(1, np.eye(1), 2 * np.eye(1), np.zeros(1), 0.0)
    s1 = GaussianMixtureState(1, ((1.0, divergent),))
    s2 = pure_state(np.eye(2), np.zeros(2))
    with pytest.raises(DivergentError):
        hs_inner(s1, s1)
    for _ in range(2):
        with pytest.raises(DimensionMismatchError, match="^states live in dimensions 1 and 2$"):
            hs_distance(s1, s2)
        assert "_compared" not in vars(s1) and "_compared" not in vars(s2)


def test_a_state_compared_with_itself_keeps_no_distance():
    st = random_mixture(2, 3, np.random.default_rng(29))
    assert hs_distance(st, st) == 0.0 and "_compared" not in vars(st)
    copy = rebuilt(st)
    assert hs_distance(copy, st) == 0.0 and vars(st)["_compared"][0] is copy
    assert hs_distance(st, st) == 0.0 and vars(st)["_compared"][0] is copy


# --- chain consistency ----------------------------------------------------------


def test_chain_consistency_trivial_chain():
    fine, _, _ = generic_reduction([[1, 0], [0, 1]])
    ident = OrderWitness(
        combos={d: {d: Fraction(1)} for d in fine.frame.dofs},
        op_membership={o.id: {o.id: Fraction(1)} for o in fine.ops},
        dof_values={f"x{j}": {f"p{j}": Fraction(1)} for j in range(2)},
    )
    rng = np.random.default_rng(10)
    st = random_mixture(2, 2, rng)
    report = chain_consistency(st, fine, fine, fine, ident, ident, ident)
    assert report.distance == 0.0


def test_chain_consistency_generated_triple(deep_system):
    rs = deep_system
    rng = np.random.default_rng(11)
    top, mid, bot = rs.chains()[0]
    st = random_mixture(rs.labels[top].dim, 3, rng)
    report = chain_consistency(
        st,
        rs.labels[top],
        rs.labels[mid],
        rs.labels[bot],
        rs.find_witness(top, mid),
        rs.find_witness(mid, bot),
        rs.find_witness(top, bot),
    )
    assert report.distance <= 1e-9


def test_chain_consistency_detects_corrupted_embedding(deep_system):
    rs = deep_system
    rng = np.random.default_rng(12)
    top, mid, bot = next(
        c for c in rs.chains() if rs.labels[c[0]].dim > rs.labels[c[2]].dim
    )
    st = random_mixture(rs.labels[top].dim, 2, rng)
    direct = project_state(
        st, rs.labels[top], rs.labels[bot], rs.find_witness(top, bot)
    )
    dec = decomposition_for(
        rs.labels[top], rs.labels[bot], rs.find_witness(top, bot)
    )
    w = [list(row) for row in dec.embedding]
    w[0][0] += Fraction(1, 10)
    corrupted = project_with(st, dataclasses.replace(dec, embedding=ratlin.mat(w)))
    assert hs_distance(direct, corrupted) > 1e-3


# --- quadrature oracle ----------------------------------------------------------


def test_quadrature_product_state_factor_trace():
    rng = np.random.default_rng(13)
    b = random_pure(1, rng, displacement=0.0)
    a = pure_state([[1.0]], [0.0])
    _, ka = a.terms[0]
    _, kb = b.terms[0]
    product = GaussianMixtureState(
        2,
        (
            (
                1.0,
                GaussianKernel(
                    dim=2,
                    P=np.block(
                        [[ka.P, np.zeros((1, 1))], [np.zeros((1, 1)), kb.P]]
                    ),
                    R=np.zeros((2, 2)),
                    s=np.concatenate([ka.s, kb.s]),
                    logw=ka.logw + kb.logw,
                ),
            ),
        ),
    )
    fine, coarse, witness = generic_reduction([[0, 1]])
    table = quadrature_partial_trace(
        product, fine, coarse, witness, grid_points=64, extent=8.0
    )
    expected = kb.sample(table.points, table.points)
    assert np.abs(table.values - expected).max() <= 1e-6 * np.abs(expected).max()


def test_quadrature_extent_too_small():
    st = pure_state(np.eye(2), np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    with pytest.raises(ExtentTooSmallError):
        quadrature_partial_trace(st, fine, coarse, witness, extent=1.0)


def test_quadrature_tail_mass_takes_each_tail_at_its_own_distance():
    # The kernel coordinate is a Gaussian of mean 2 and deviation 1/sqrt(2).
    # At extent 5.4 its tail beyond +extent (7.6e-7) and the one below
    # -extent (6e-26) sum to within the 1e-6 bound, but twice the first
    # does not; at 5.3 the first alone (1.5e-6) exceeds it.
    st = pure_state(np.eye(2), np.array([0.0, 2.0]))
    fine, coarse, witness = generic_reduction([[1, 0]])
    quadrature_partial_trace(st, fine, coarse, witness, grid_points=16, extent=5.4)
    with pytest.raises(ExtentTooSmallError, match="^estimated tail mass 1.529e-06 exceeds"):
        quadrature_partial_trace(st, fine, coarse, witness, grid_points=16, extent=5.3)


@pytest.mark.parametrize("extent, what", [
    (1e308, "midpoint grid"), (1e160, "cell volume"), (1e154, "source exponent"),
])
def test_quadrature_refuses_an_extent_that_overflows(extent, what, monkeypatch):
    # Before the check, 1e154 gave a NaN error and 1e160 a bare OverflowError.
    system = random_system(1, 2, 0)
    labels, witness = system.labels, system.find_witness("j(b0+b1)", "b0")
    st = random_mixture(3, 2, np.random.default_rng(1))
    monkeypatch.setattr(gaussian, "_kernels", None)  # no quadrature runs
    detail = re.escape(f"extent {extent!r} overflows the {what}")
    for routine in (quadrature_partial_trace, oracle_report):
        with pytest.raises(ValueError, match=f"^{detail}$"):
            routine(st, labels["j(b0+b1)"], labels["b0"], witness, 16, extent)
    monkeypatch.undo()
    # Below the bound the report stays finite: its 16 midpoints miss the state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = oracle_report(st, labels["j(b0+b1)"], labels["b0"], witness, 16, 1e153)
    assert report.max_rel_error == 1.0


def test_quadrature_rejects_tiny_grid():
    st = pure_state(np.eye(2), np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    with pytest.raises(ValueError):
        quadrature_partial_trace(st, fine, coarse, witness, grid_points=8)


@pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf, 0.0, -8.0])
def test_quadrature_rejects_a_bad_extent(extent):
    st = pure_state(np.eye(2), np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    for check in (quadrature_partial_trace, oracle_report):
        with pytest.raises(ValueError, match="^extent must be finite and > 0$"):
            check(st, fine, coarse, witness, extent=extent)


@pytest.mark.parametrize(
    "grid", [16.5, 16.0, np.float64(32), "16"], ids=["16.5", "16.0", "float64", "str"]
)
def test_quadrature_refuses_a_grid_that_is_not_an_integer(grid):
    # 16.5 midpoints would be 17 cells of width 16/16.5, the last one
    # centred on +extent: not the documented midpoint grid.
    st = pure_state(np.eye(2), np.zeros(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    detail = f"^grid_points must be an integer, got {re.escape(repr(grid))}$"
    for check in (quadrature_partial_trace, oracle_report):
        with pytest.raises(ValueError, match=detail):
            check(st, fine, coarse, witness, grid_points=grid)


def test_quadrature_takes_a_numpy_integer_grid():
    st = pure_state(np.eye(2), np.array([0.3, -0.2j]))
    fine, coarse, witness = generic_reduction([[1, 0]])
    want = quadrature_partial_trace(st, fine, coarse, witness, grid_points=16)
    got = quadrature_partial_trace(st, fine, coarse, witness, grid_points=np.int64(16))
    assert want.values.tobytes() == got.values.tobytes()
    errors = {
        oracle_report(st, fine, coarse, witness, grid_points=g).max_rel_error.hex()
        for g in (16, np.int64(16))
    }
    assert len(errors) == 1


@pytest.mark.parametrize("b_rows", [[[1, 0]], [[1, 0, 0], [0, 1, 0]]])
def test_quadrature_evaluates_eight_points_per_axis_on_the_window(b_rows):
    # The (b', b) evaluation grid is fixed: 8 points per coarse axis on
    # [-3, 3], so 8 points for a coarse dimension of 1 and 64 for 2.
    n, dim = len(b_rows), len(b_rows[0])
    st = pure_state(np.eye(dim), np.zeros(dim))
    fine, coarse, witness = generic_reduction(b_rows)
    table = quadrature_partial_trace(st, fine, coarse, witness, grid_points=16)
    axis = np.linspace(-3.0, 3.0, 8)
    want = np.array(list(itertools.product(axis, repeat=n)))
    assert np.array_equal(table.points, want)
    assert table.values.shape == (8**n, 8**n)


@pytest.mark.parametrize(
    "b_rows, grid, detail",
    [
        ([[1, 0]], 2**22 + 1, "4194305**1 midpoints x 64 evaluation pairs"),
        ([[1, 0, 0]], 2049, "2049**2 midpoints x 64 evaluation pairs"),
        ([[1, 0, 0]], 100000, "100000**2 midpoints x 64 evaluation pairs"),
        # A 2-dimensional target has 64**2 evaluation pairs, so 2**16 + 1
        # midpoints are too many, where a 1-dimensional one takes 2**22.
        ([[1, 0, 0], [0, 1, 0]], 2**16 + 1, "65537**1 midpoints x 4096 evaluation pairs"),
    ],
    ids=["2->1", "3->1", "3->1-large", "3->2"],
)
def test_quadrature_refuses_more_kernel_points_than_the_bound(b_rows, grid, detail):
    st = pure_state(np.eye(len(b_rows[0])), np.zeros(len(b_rows[0])))
    fine, coarse, witness = generic_reduction(b_rows)
    full = f"^{re.escape(detail)} exceed 268435456 kernel points$"
    with pytest.raises(ValueError, match=full):
        quadrature_partial_trace(st, fine, coarse, witness, grid_points=grid)


def test_quadrature_midpoint_bound_is_inclusive(monkeypatch):
    # With the bound lowered to 16**2 midpoints x 64 evaluation pairs, a
    # 16-point grid on a 2-dimensional kernel runs and a 17-point one is
    # refused.
    monkeypatch.setattr(gaussian, "MAX_KERNEL_POINTS", 256 * 64)
    st = pure_state(np.eye(3), np.zeros(3))
    fine, coarse, witness = generic_reduction([[1, 0, 0]])
    quadrature_partial_trace(st, fine, coarse, witness, grid_points=16)
    detail = "^17\\*\\*2 midpoints x 64 evaluation pairs exceed 16384 kernel points$"
    with pytest.raises(ValueError, match=detail):
        quadrature_partial_trace(st, fine, coarse, witness, grid_points=17)


@pytest.mark.parametrize("generated", [True, False])
def test_quadrature_at_kernel_dimension_0_matches_the_closed_form(generated):
    # A square projection traces nothing out: the one midpoint is the empty
    # point, weighted by the Lebesgue factor alone, so the quadrature is the
    # closed form sampled on the same grid.
    if generated:
        rs = random_system(2, 2, 7)
        fine, coarse = rs.labels["b0t"], rs.labels["b0"]
        witness = rs.find_witness("b0t", "b0")
    else:
        fine, coarse, witness = generic_reduction([[1, 0], [0, 1]])
    assert decomposition_for(fine, coarse, witness).kernel_dim == 0
    st = random_mixture(fine.dim, 2, np.random.default_rng(31))
    report = oracle_report(st, fine, coarse, witness, grid_points=16)
    assert report.max_rel_error <= 1e-14


def test_oracle_matches_on_mixture():
    rng = np.random.default_rng(14)
    st = random_mixture(2, 2, rng)
    fine, coarse, witness = generic_reduction([[1, 1]])
    report = oracle_report(st, fine, coarse, witness, grid_points=64, extent=8.0)
    assert report.max_rel_error <= 1e-4


def test_oracle_names_a_state_with_no_mass_on_the_evaluation_window():
    # Centred at 40, the state's closed form underflows to 0 at every point
    # of the +-3 evaluation grid; the oracle must name that, not divide 0/0.
    st = pure_state(np.eye(2), 40 * np.ones(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            EmptyWindowError, match="^the state has no mass on the evaluation window$"
        ):
            oracle_report(st, fine, coarse, witness, grid_points=16, extent=120.0)


@pytest.mark.parametrize(
    "displacement, match",
    [
        (28.0, None),
        (
            30.0,
            r"^the closed form is subnormal on the whole evaluation window "
            r"\(largest magnitude 1\.4e-317\), so its relative error has no "
            r"precision$",
        ),
        (30.5, "^the state has no mass on the evaluation window$"),
    ],
)
def test_oracle_names_a_subnormal_closed_form(displacement, match):
    # Off the +-3 window the closed form's largest value falls from 2.1e-272
    # (d = 28, full precision) to the subnormal 1.4e-317 (d = 30), where the
    # relative error read 3.5e-7 from a handful of significant bits, and to
    # an exact 0 (d = 30.5).
    st = pure_state(np.eye(2), displacement * np.ones(2))
    fine, coarse, witness = generic_reduction([[1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if match is None:
            report = oracle_report(
                st, fine, coarse, witness, grid_points=256, extent=60.0
            )
            assert np.abs(report.closed_form).max() >= sys.float_info.min
            assert report.max_rel_error <= 1e-12
        else:
            with pytest.raises(EmptyWindowError, match=match):
                oracle_report(st, fine, coarse, witness, grid_points=256, extent=60.0)


def test_oracle_zero_dimensional_kernel():
    # a square invertible projection traces nothing out; the quadrature
    # degenerates to the weighted substitution and must match exactly.
    rng = np.random.default_rng(19)
    st = random_mixture(2, 2, rng)
    fine, coarse, witness = generic_reduction([[0, 1], [1, 0]])
    report = oracle_report(st, fine, coarse, witness, grid_points=64, extent=8.0)
    assert report.max_rel_error <= 1e-12
    projected = project_state(st, fine, coarse, witness)
    assert abs(trace(projected) - 1.0) <= 1e-10


def test_purity_of_pure_state_is_one():
    rng = np.random.default_rng(20)
    st = random_pure(2, rng)
    assert abs(purity(st) - 1.0) <= 1e-10


def test_projection_with_scaled_dof_preserves_trace():
    # coarse d.o.f. = 2 * fine d.o.f.: zero-dimensional kernel whose
    # measure constant is |det W| = 1/2; trace must still be preserved.
    rng = np.random.default_rng(21)
    fine, coarse, witness = generic_reduction([[2]])
    dec = decomposition_for(fine, coarse, witness)
    assert dec.lebesgue_factor == Fraction(1, 2)
    st = random_pure(1, rng)
    projected = project_state(st, fine, coarse, witness)
    assert projected.trace_drift <= 1e-12
    assert abs(purity(projected) - 1.0) <= 1e-10
    report = oracle_report(st, fine, coarse, witness, grid_points=64, extent=8.0)
    assert report.max_rel_error <= 1e-12


def test_projection_with_scaled_dof_and_kernel():
    # scaled kept direction plus a traced direction: the Lebesgue factor
    # 1/2 enters both the closed form and the quadrature independently.
    rng = np.random.default_rng(22)
    fine, coarse, witness = generic_reduction([[2, 0]])
    dec = decomposition_for(fine, coarse, witness)
    assert dec.lebesgue_factor == Fraction(1, 2)
    st = random_mixture(2, 2, rng)
    projected = project_state(st, fine, coarse, witness)
    assert projected.trace_drift <= 1e-12
    report = oracle_report(st, fine, coarse, witness, grid_points=64, extent=8.0)
    assert report.max_rel_error <= 1e-4


# --- positivity probe -----------------------------------------------------------


def test_grid_positivity_of_projected_states():
    rng = np.random.default_rng(15)
    fine, coarse, witness = generic_reduction([[1, 0, 1], [0, 1, 0]])
    st = random_mixture(3, 2, rng)
    projected = project_state(st, fine, coarse, witness)
    assert min_eigenvalue(projected) >= -1e-8


@pytest.mark.parametrize("dim, per_axis", [(1, 64), (2, 8), (3, 4)])
def test_probe_grid_has_64_midpoints_on_plus_minus_8(dim, per_axis):
    st = random_mixture(dim, 2, np.random.default_rng(dim))
    h = 16.0 / per_axis
    axis = -8.0 + h * (np.arange(per_axis) + 0.5)
    pts = np.array(list(itertools.product(axis, repeat=dim)))
    m = kernel_matrix(st)
    assert m.shape == (64, 64)
    want = st.sample(pts, pts) * h**dim
    assert np.allclose(m, (want + want.conj().T) / 2, rtol=1e-12, atol=0.0)


def test_probe_takes_dimensions_up_to_4(monkeypatch):
    # Dimension 4 takes 3 midpoints per axis; from dimension 5 the rule
    # would leave 2 per axis and 2**n points, a 2**20-point matrix at 20.
    # Those are refused before any grid is built.
    assert kernel_matrix(pure_state(np.eye(4), np.zeros(4))).shape == (81, 81)
    monkeypatch.setattr(gaussian, "_cartesian", None)
    for n in (5, 20):
        st = pure_state(np.eye(n), np.zeros(n))
        detail = f"^the positivity probe takes dimensions 1 to 4, got {n}$"
        for probe in (kernel_matrix, min_eigenvalue):
            with pytest.raises(ValueError, match=detail):
                probe(st)


# --- coherent families ----------------------------------------------------------


def _family_from_chain(rs, chain, rng):
    top, mid, bot = chain
    st = random_mixture(rs.labels[top].dim, 2, rng)
    states = {
        top: st,
        mid: project_state(
            st, rs.labels[top], rs.labels[mid], rs.find_witness(top, mid)
        ),
    }
    states[bot] = project_state(
        states[mid], rs.labels[mid], rs.labels[bot], rs.find_witness(mid, bot)
    )
    edges = (
        OrderEdge(top, mid, rs.find_witness(top, mid)),
        OrderEdge(mid, bot, rs.find_witness(mid, bot)),
        OrderEdge(top, bot, rs.find_witness(top, bot)),
    )
    labels = {name: rs.labels[name] for name in chain}
    return CoherentFamily(labels, states, edges)


def test_coherent_family_built_by_projection_passes(deep_system):
    rs = deep_system
    family = _family_from_chain(rs, rs.chains()[0], np.random.default_rng(16))
    report = check_coherent_family(family, tol=1e-8)
    assert report.passed


def test_coherent_family_detects_replaced_state(deep_system):
    rs = deep_system
    chain = next(
        c for c in rs.chains() if rs.labels[c[0]].dim > rs.labels[c[2]].dim
    )
    family = _family_from_chain(rs, chain, np.random.default_rng(17))
    bot = chain[2]
    dim = rs.labels[bot].dim
    other = pure_state(2.0 * np.eye(dim), 0.7 * np.ones(dim))
    states = {**family.states, bot: other}
    broken = CoherentFamily(family.labels, states, family.order)
    report = check_coherent_family(broken, tol=1e-8)
    assert not report.passed


def test_coherent_family_single_label_vacuous():
    fine, coarse, witness = generic_reduction([[1, 0]])
    st = random_mixture(1, 1, np.random.default_rng(18))
    family = CoherentFamily({"only": coarse}, {"only": st}, ())
    assert check_coherent_family(family).passed


def test_coherent_family_rejects_edges_to_unknown_labels(demo_system):
    edge = demo_system.order[0]
    label = demo_system.labels[edge.upper]
    st = random_mixture(label.dim, 1, np.random.default_rng(19))
    with pytest.raises(DimensionMismatchError, match=re.escape(str([edge.lower]))):
        CoherentFamily({edge.upper: label}, {edge.upper: st}, (edge,))


def _chain_args(rs, chain, rng):
    top, mid, bot = chain
    return (
        random_mixture(rs.labels[top].dim, 2, rng), *(rs.labels[n] for n in chain),
        rs.find_witness(top, mid), rs.find_witness(mid, bot), rs.find_witness(top, bot),
    )


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_family_checks_refuse_a_tolerance_they_cannot_compare_against(
    tol, deep_system, monkeypatch
):
    rng = np.random.default_rng(23)
    chain = deep_system.chains()[0]
    family = _family_from_chain(deep_system, chain, rng)
    args = _chain_args(deep_system, chain, rng)
    asked = calls_to(monkeypatch, "project_with")
    with pytest.raises(ValueError, match=r"^tol must be finite and >= 0$"):
        check_coherent_family(family, tol=tol)
    with pytest.raises(ValueError, match=r"^tol must be finite and >= 0$"):
        chain_consistency(*args, tol=tol)
    assert not asked


def test_family_checks_accept_a_zero_tolerance(deep_system):
    rng = np.random.default_rng(24)
    chain = deep_system.chains()[0]
    report = check_coherent_family(_family_from_chain(deep_system, chain, rng), tol=0.0)
    assert report.tol == 0.0
    assert [e.passed for e in report.edges] == [e.distance == 0.0 for e in report.edges]
    chain_report = chain_consistency(*_chain_args(deep_system, chain, rng), tol=0.0)
    assert chain_report.tol == 0.0 and chain_report.passed == (chain_report.distance == 0.0)


# --- verified edge plans --------------------------------------------------------


def test_decomposition_is_built_once_per_witness():
    fine, coarse, witness = generic_reduction([[1, 1, 0], [0, 0, 1]])
    dec = decomposition_for(fine, coarse, witness)
    assert decomposition_for(fine, coarse, witness) is dec
    assert embedding_matrix(fine, coarse, witness) is dec.embedding


def test_each_order_edge_is_refined_once(monkeypatch):
    # A freshly loaded system, so no plan exists yet.
    system = pio.document_to_system(
        pio.system_to_document(random_system(2, 3, seed=11))
    )
    labels = system.labels
    calls = collections.Counter()
    refines = systems.refines

    def counting(fine, coarse, witness):
        calls[id(fine), id(coarse)] += 1
        return refines(fine, coarse, witness)

    monkeypatch.setattr(systems, "refines", counting)
    rng = np.random.default_rng(23)
    audit = systems.check_assumptions(
        dict(labels), system.order, pio.default_probes(system)
    )
    assert audit.passed
    top = max(labels, key=lambda n: sum(e.upper == n for e in system.order))
    st = random_mixture(labels[top].dim, 2, rng)
    states = {top: st}
    for edge in system.order:
        upper, lower = labels[edge.upper], labels[edge.lower]
        source = st if edge.upper == top else random_mixture(upper.dim, 1, rng)
        projected = project_state(source, upper, lower, edge.witness)
        if edge.upper == top:
            states[edge.lower] = projected
    edges = tuple(e for e in system.order if {e.upper, e.lower} <= set(states))
    family = CoherentFamily({n: labels[n] for n in states}, states, edges)
    assert check_coherent_family(family).passed
    chains = [c for c in system.chains() if c[0] == top]
    assert chains
    for a, b, c in chains:
        report = chain_consistency(
            st, labels[a], labels[b], labels[c],
            system.find_witness(a, b), system.find_witness(b, c),
            system.find_witness(a, c),
        )
        assert report.passed
    edge_pairs = {(id(labels[e.upper]), id(labels[e.lower])) for e in system.order}
    assert set(calls) == edge_pairs
    assert set(calls.values()) == {1}


def test_failing_witness_raises_on_every_call():
    # Every entry point names an unverified edge with one error and one text.
    fine, coarse, witness = generic_reduction([[1, 1, 0]])
    bad = OrderWitness(
        {"y0": {"x0": Fraction(1)}}, witness.op_membership, witness.dof_values
    )
    st = random_mixture(3, 1, np.random.default_rng(24))
    detail = f"^relation not witnessed: {re.escape(bad.plan(fine, coarse).check.diagnostic)}$"
    for _ in range(2):
        with pytest.raises(OrderViolationError, match=detail):
            project_state(st, fine, coarse, bad)
        with pytest.raises(OrderViolationError, match=detail):
            embedding_matrix(fine, coarse, bad)
        with pytest.raises(OrderViolationError, match=detail):
            projection_from_witness(fine, coarse, bad)
    assert not bad.plan(fine, coarse).check
    # Verifies, but the projection is rank deficient: the build raises anew.
    fine, coarse, witness = generic_reduction([[1, 1], [1, 1]])
    assert witness.plan(fine, coarse).check
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            decomposition_for(fine, coarse, witness)


def test_equal_but_distinct_label_gets_its_own_plan(monkeypatch):
    fine, coarse, witness = generic_reduction([[1, 1, 0], [0, 0, 1]])
    dec = decomposition_for(fine, coarse, witness)
    calls = []
    refines = systems.refines
    monkeypatch.setattr(
        systems, "refines", lambda *args: calls.append(args) or refines(*args)
    )
    twin = dataclasses.replace(fine)
    assert twin == fine and twin is not fine
    twin_dec = decomposition_for(twin, coarse, witness)
    assert len(calls) == 1 and calls[0][0] is twin
    assert twin_dec is not dec and twin_dec == dec
    assert witness.plan(twin, coarse).fine is twin


def test_project_with_replaced_decomposition_uses_its_embedding():
    fine, coarse, witness = generic_reduction([[1, 1, 0]])
    st = random_mixture(3, 2, np.random.default_rng(25))
    dec = decomposition_for(fine, coarse, witness)
    before = project_with(st, dec)  # fills the cached float copies
    scaled = ratlin.matmul(dec.embedding, ratlin.mat([[2]]))
    replaced = dataclasses.replace(dec, embedding=scaled)
    assert np.array_equal(replaced.floats[1], ratlin.to_float(scaled))
    assert hs_distance(before, project_with(st, replaced)) > 1e-3
    assert decomposition_for(fine, coarse, witness) is dec
    assert hs_distance(before, project_with(st, dec)) == 0.0
