"""pqk: finite reduced quantum systems glued by partial-trace projections.

The library builds finite-dimensional reduced systems (frames of
configurational d.o.f. paired with momentum operators), verifies the
structural assumptions a directed family of such systems must satisfy,
projects Gaussian density operators between systems by closed-form partial
traces, and checks the coherence that makes the family a consistent whole.
A combinatorial holonomy/flux model (DPG) provides generated example
families, and an exact almost-periodic vector layer rides along on the same
frame machinery.
"""

from .errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    DivergentError,
    DocumentError,
    EmptyWindowError,
    ExtentTooSmallError,
    FrameMismatchError,
    MissingActionError,
    NotARightInverseError,
    NotPositiveDefiniteError,
    NotResolvableError,
    OrderViolationError,
    PqkError,
    RankDeficientError,
)
from .frames import (
    DofId,
    KernelDecomposition,
    ProjectionMatrix,
    ReducedFrame,
    build_projection,
    compose_projections,
    identity_projection,
    kernel_decomposition,
)
from .systems import (
    AssumptionReport,
    MomentumOperator,
    OrderEdge,
    OrderWitness,
    Probes,
    SpanProbe,
    SystemLabel,
    check_assumptions,
    close_witnesses,
    compose_witnesses,
    embedding_matrix,
    operator_point,
    pairing_matrix,
    projection_from_witness,
    refines,
    select_independent_dofs,
)
from .dpg import (
    AtomicEdge,
    DpgLabel,
    EdgeWord,
    Face,
    Graph,
    System,
    TestConnection,
    decompose_edges,
    dof_id,
    dual_flux_basis,
    graph_join,
    graph_refines,
    holonomy,
    incidence_number,
    materialize,
    random_system,
    system_join,
    witness_connection,
    word,
)
from .almost_periodic import (
    APVector,
    Frequency,
    QC,
    ap_vector,
    basis_vector,
    inner_product,
    limit_equal,
    promote,
)

__version__ = "0.1.0"

# The Gaussian layer is the only one that needs numpy, so its exports load
# on first access (PEP 562); the exact layers import without numpy.
_GAUSSIAN_EXPORTS = (
    "CoherentFamily", "GaussianKernel", "GaussianMixtureState",
    "chain_consistency", "check_coherent_family", "hs_distance", "hs_inner",
    "kernel_matrix", "min_eigenvalue", "mix", "oracle_report", "project_state",
    "project_with", "pure_state", "purity", "quadrature_partial_trace", "trace",
)


def __getattr__(name: str):
    if name in _GAUSSIAN_EXPORTS:
        from . import gaussian

        return getattr(gaussian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_GAUSSIAN_EXPORTS})
