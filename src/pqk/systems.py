"""System labels, the operator/frame pairing, order witnesses and audits.

A :class:`SystemLabel` pairs a basis of momentum operators with a reduced
frame of the same size; the pairing matrix of their constant actions must be
nondegenerate.  Witnessed refinement between labels yields the distinguished
embedding of the coarse configuration space into the fine one, the right
inverse of the projection selected by the momentum operators.

All verification here is exact: coefficients, actions and evaluation data
are converted to rationals (floats convert losslessly), so a witness either
verifies identically or is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from . import ratlin
from .errors import (
    DegeneratePairingError,
    MissingActionError,
    NotResolvableError,
    OrderViolationError,
    PqkError,
)
from .frames import DofId, KernelDecomposition, ProjectionMatrix, ReducedFrame
from .frames import kernel_decomposition
from .ratlin import Fraction, Mat

# Sparse evaluation data: dof -> {probe id -> value}. Absent probes are 0.
DofValues = Mapping[DofId, Mapping[str, Fraction]]


@dataclass(frozen=True)
class MomentumOperator:
    """A momentum d.o.f. acting by real constants on configurational d.o.f.

    ``action`` is sparse: d.o.f. the operator does not touch act as zero in
    exploratory contexts (pools, incidence scans), while frame evaluation
    (:func:`operator_point`, :func:`pairing_matrix`) requires explicit
    entries and raises :class:`MissingActionError` otherwise.
    """

    id: str
    action: tuple[tuple[DofId, Fraction], ...]

    def __post_init__(self):
        pairs = ratlin.exact_pairs(self.action, f"operator {self.id!r}", "action")
        object.__setattr__(self, "action", pairs)

    @cached_property
    def action_map(self) -> dict[DofId, Fraction]:
        return dict(self.action)

    def on(self, dof: DofId) -> Fraction:
        try:
            return self.action_map[dof]
        except KeyError:
            raise MissingActionError(
                f"operator {self.id!r} has no action on {dof!r}"
            ) from None


@dataclass(frozen=True)
class SystemLabel:
    """A finite reduced system: N momentum operators paired with N d.o.f."""

    ops: tuple[MomentumOperator, ...]
    frame: ReducedFrame

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if len(self.ops) != self.frame.dim:
            raise DegeneratePairingError(
                f"{len(self.ops)} operators for a {self.frame.dim}-d.o.f. frame"
            )

    @property
    def dim(self) -> int:
        return self.frame.dim

    @cached_property
    def pairing(self) -> tuple[Mat, Mat]:
        """The pairing matrix G of :func:`pairing_matrix` and the inverse of
        its transpose, built once; :class:`DegeneratePairingError` when G
        is singular."""
        g = tuple(operator_point(op, self.frame) for op in self.ops)
        try:
            return g, ratlin.inv(ratlin.transpose(g))
        except ValueError:
            raise DegeneratePairingError(
                f"pairing matrix of ({', '.join(op.id for op in self.ops)}) "
                f"on {self.frame.dofs} is singular"
            ) from None


def _exact_rows(rows: Mapping, name: str) -> dict[str, dict[str, Fraction]]:
    """Sparse rows by id, with str ids and exact rational values: the one
    conversion of caller data, so int, float, str and Fraction audit alike;
    an id given twice (say as 1 and "1") is a ValueError naming ``name``."""
    out: dict[str, dict[str, Fraction]] = {}
    for k, row in dict(rows).items():
        key, entries = str(k), {str(s): ratlin.as_fraction(c) for s, c in row.items()}
        if key in out:
            raise ValueError(f"{name} has duplicate row {key!r}")
        if len(entries) != len(row):
            raise ValueError(f"{name} row {key!r} has duplicate entries")
        out[key] = entries
    return out


@dataclass(frozen=True)
class OrderWitness:
    """Certificates for one refinement: fine label >= coarse label.

    ``combos`` expresses each coarse d.o.f. over the fine frame's d.o.f.;
    ``op_membership`` expresses each coarse basis operator over the fine
    operator basis; ``dof_values`` evaluates every involved d.o.f. on a
    declared set of probe configurations (sparse, missing probes are 0),
    which is where equality of d.o.f. as functions is decided.
    """

    combos: Mapping[DofId, Mapping[DofId, Fraction]]
    op_membership: Mapping[str, Mapping[str, Fraction]]
    dof_values: DofValues = field(default_factory=dict)

    def __post_init__(self):
        for name in ("combos", "op_membership", "dof_values"):
            object.__setattr__(self, name, _exact_rows(getattr(self, name), name))

    def plan(self, fine: SystemLabel, coarse: SystemLabel) -> EdgePlan:
        """The verified plan of ``fine >= coarse``, kept on this witness for
        the label objects last asked about (matched by identity)."""
        plan = self.__dict__.get("_plan")
        if plan is None or plan.fine is not fine or plan.coarse is not coarse:
            plan = EdgePlan(fine, coarse, self.combos, refines(fine, coarse, self))
            object.__setattr__(self, "_plan", plan)
        return plan


def _compose_rows(outer: Mapping, inner: Mapping) -> dict[str, dict[str, Fraction]]:
    """Each inner row, over mid entries, re-expressed over outer's entries."""
    return {
        key: ratlin.combine((c, outer.get(mid, {})) for mid, c in mid_row.items())
        for key, mid_row in inner.items()
    }


def compose_witnesses(outer: OrderWitness, inner: OrderWitness) -> OrderWitness:
    """Witness for top >= bottom from top >= mid (outer) and mid >= bottom."""
    values = dict(outer.dof_values)
    values.update(inner.dof_values)
    return OrderWitness(
        _compose_rows(outer.combos, inner.combos),
        _compose_rows(outer.op_membership, inner.op_membership),
        values,
    )


def close_witnesses(order: Iterable[OrderEdge], top: str) -> dict[str, OrderWitness]:
    """Witnesses for ``top >= x`` for every label ``x`` the order reaches.

    Breadth first over ``order`` in its given order: a direct edge's witness
    is returned as stored, and every other reached label is composed once,
    along the first shortest path found.  Frame coordinates are unique, so
    verified witnesses compose path-independently and that choice does not
    change the result.
    """
    successors: dict[str, list[OrderEdge]] = {}
    for edge in order:
        successors.setdefault(edge.upper, []).append(edge)
    reached: dict[str, OrderWitness] = {}
    queue = [top]
    for current in queue:
        for edge in successors.get(current, ()):
            if edge.lower == top or edge.lower in reached:
                continue
            reached[edge.lower] = (
                edge.witness
                if current == top
                else compose_witnesses(reached[current], edge.witness)
            )
            queue.append(edge.lower)
    return reached


def pairing_matrix(label: SystemLabel) -> Mat:
    """The N x N matrix of operator actions on the frame d.o.f.

    Entry (j, i) is the action of operator j on frame d.o.f. i.  Raises
    :class:`DegeneratePairingError` when singular, which disqualifies the
    pair as a reduced system.
    """
    return label.pairing[0]


def operator_point(op: MomentumOperator, frame: ReducedFrame) -> tuple[Fraction, ...]:
    """Coordinates of the constant-shift point an operator induces on a frame."""
    return tuple(op.on(dof) for dof in frame.dofs)


@dataclass(frozen=True)
class RefinementCheck:
    """Boolean verdict plus a human-readable diagnostic, and the operator
    membership fault (``None`` when every coarse operator is a member),
    known even when an earlier check decides the verdict."""

    ok: bool
    diagnostic: str = ""
    membership: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _combination_fault(
    dofs: Iterable[DofId], combos: Mapping, frame: Sequence[DofId], values: DofValues
) -> str | None:
    """Why some of ``dofs`` is not its witnessed combination (``combos``) of
    the ``frame`` d.o.f. as a function on the evaluation data ``values``;
    ``None`` when each is.  A non-frame d.o.f. is refused before any data
    is read."""
    for dof in dofs:
        if dof not in combos:
            return f"no combination witnessed for {dof!r}"
        row = combos[dof]
        unknown = set(row) - set(frame)
        if unknown:
            return f"combination for {dof!r} uses non-frame d.o.f. {sorted(unknown)}"
        missing = {dof, *row} - set(values)
        if missing:
            return f"no evaluation data for d.o.f. {sorted(missing)}"
        lhs = {p: v for p, v in values[dof].items() if v != 0}
        if lhs != ratlin.combine((c, values[d]) for d, c in row.items()):
            return f"{dof!r} differs from its witnessed combination"
    return None


def _first_deviation(
    op: MomentumOperator, row: Mapping, basis: Mapping, dofs: Sequence[DofId]
) -> DofId | None:
    """The first of ``dofs`` on which ``op`` acts differently from its
    combination ``row`` of ``basis`` operators; a missing action raises
    :class:`MissingActionError` when it is reached."""
    for dof in dofs:
        combination = ((c, basis[o].on(dof)) for o, c in row.items())
        if not ratlin.equals_dot(op.on(dof), combination):
            return dof
    return None


def _membership_fault(
    fine: SystemLabel, coarse: SystemLabel, membership: Mapping[str, Mapping]
) -> str | None:
    """Why some coarse operator is not its witnessed ``membership`` row of
    fine operators as an action map on the fine frame; ``None`` when each is."""
    fine_ops = {op.id: op for op in fine.ops}
    for op in coarse.ops:
        if op.id not in membership:
            return f"no membership witnessed for {op.id!r}"
        row = membership[op.id]
        unknown = set(row) - set(fine_ops)
        if unknown:
            return f"membership for {op.id!r} uses unknown operators {sorted(unknown)}"
        try:
            bad = _first_deviation(op, row, fine_ops, fine.frame.dofs)
        except MissingActionError as exc:
            return str(exc)
        if bad is not None:
            return (
                f"operator {op.id!r} deviates from its witnessed combination on {bad!r}"
            )
    return None


def _linearity_fault(coarse: SystemLabel, combos: Mapping) -> str | None:
    """Why some coarse operator acts on a coarse d.o.f. otherwise than on its
    witnessed combination (``combos``); ``None`` when none does."""
    try:
        for op in coarse.ops:
            for dof in coarse.frame.dofs:
                combination = ((c, op.on(d)) for d, c in combos[dof].items())
                if not ratlin.equals_dot(op.on(dof), combination):
                    return (f"operator {op.id!r} is not linear over the witnessed "
                            f"combination of {dof!r}")
    except MissingActionError as exc:
        return str(exc)
    return None


def refines(
    fine: SystemLabel, coarse: SystemLabel, witness: OrderWitness
) -> RefinementCheck:
    """Verify that ``fine >= coarse`` holds for the given witness.

    Three exact checks: (1) each coarse d.o.f. equals its witnessed
    combination of fine d.o.f. as a function on the probe configurations,
    (2) each coarse operator equals its witnessed combination of fine
    operators as an action map on the fine frame, (3) operator actions are
    linear over the d.o.f. combinations, i.e. acting on a coarse d.o.f.
    agrees with acting on its combination.  Check (3) is what makes the
    projection/embedding pair compose to the identity.  Check (2) always
    runs, and its fault is kept on the result as ``membership``; the
    diagnostic is the first fault in check order.
    """
    membership = _membership_fault(fine, coarse, witness.op_membership)
    combos, values = witness.combos, witness.dof_values
    fault = (_combination_fault(coarse.frame.dofs, combos, fine.frame.dofs, values)
             or membership or _linearity_fault(coarse, combos))
    return RefinementCheck(not fault, fault or "verified", membership)


@dataclass(frozen=True, eq=False)
class EdgePlan:
    """One witnessed edge ``fine >= coarse``: its :func:`refines` verdict,
    then its projection and kernel decomposition, each built on first use
    and kept (a build that raises keeps nothing).  It holds the witness's
    combinations, not the witness, so the two form no reference cycle."""

    fine: SystemLabel
    coarse: SystemLabel
    combos: Mapping[DofId, Mapping[DofId, Fraction]]
    check: RefinementCheck

    @cached_property
    def projection(self) -> ProjectionMatrix:
        if not self.check:
            raise OrderViolationError(f"relation not witnessed: {self.check.diagnostic}")
        coarse, fine = self.coarse.frame, self.fine.frame
        rows = ratlin.from_sparse((self.combos[d] for d in coarse.dofs), fine.dofs)
        return ProjectionMatrix(rows, fine, coarse)

    @cached_property
    def decomposition(self) -> KernelDecomposition:
        b = self.projection
        _, g_inv_t = self.coarse.pairing
        g_fine = tuple(operator_point(op, self.fine.frame) for op in self.coarse.ops)
        w = ratlin.matmul(ratlin.transpose(g_fine), g_inv_t)
        return kernel_decomposition(b, w)


def projection_from_witness(
    fine: SystemLabel, coarse: SystemLabel, witness: OrderWitness
) -> ProjectionMatrix:
    """The coarse<-fine projection of the witness's combinations, built once
    per witness and label pair; :class:`OrderViolationError` if unverified."""
    return witness.plan(fine, coarse).projection


def embedding_matrix(
    fine: SystemLabel, coarse: SystemLabel, witness: OrderWitness
) -> Mat:
    """The distinguished right inverse of the witnessed projection.

    Columns span the image of the coarse momentum operators inside the fine
    configuration space, so the embedding selects exactly the directions
    those operators generate.  Computed as G'^T (G^T)^{-1} from the coarse
    pairing matrix G and the coarse operators' actions G' on the fine frame;
    B @ W = I holds exactly for every verified witness and is checked once,
    by :func:`pqk.frames.kernel_decomposition`.
    """
    return witness.plan(fine, coarse).decomposition.embedding


def select_independent_dofs(
    ops: Sequence[MomentumOperator], pool: Sequence[DofId]
) -> tuple[DofId, ...]:
    """Greedy subset of the pool on which the operators stay independent.

    The pool entries at the pivot columns of the ops x pool action matrix's
    elimination (:func:`pqk.ratlin.echelon`): walking the pool in order, a
    d.o.f. is kept exactly when its action column is independent of the
    columns kept before it, so the result is the first full-rank subset and
    has exactly as many d.o.f. as operators.  Raises
    :class:`NotResolvableError` when the pool cannot separate them.
    """
    action = ratlin.from_sparse((op.action_map for op in ops), pool)
    pivots = ratlin.echelon(action).pivots
    if len(pivots) < len(ops):
        raise NotResolvableError(
            f"pool separates only {len(pivots)} of {len(ops)} operators"
        )
    return tuple(pool[c] for c in pivots)


# --- assumption audit -------------------------------------------------------

# Every assumption the audit checks, with its title, in report order.
ASSUMPTION_TITLES = {
    "A1a": "every probed d.o.f. set is spanned by some label's frame",
    "A1b": "every probed operator set is contained in some label's basis",
    "A2": "frame evaluations reach all of R^N (surjectivity)",
    "A3": "operator actions are constant and linear (structural)",
    "A4": "nondegenerate pairing matrix",
    "A5": "labels sharing operators and reduced space are ordered",
    "A6": "order witnesses verify (d.o.f. combinations and operator membership)",
    "directed": "probed label pairs have a witnessed upper bound",
}


@dataclass(frozen=True)
class OrderEdge:
    upper: str
    lower: str
    witness: OrderWitness


@dataclass(frozen=True)
class SpanProbe:
    """A finite d.o.f. set with a combination witness over one label's frame."""

    label: str
    combos: Mapping[DofId, Mapping[DofId, Fraction]]
    dof_values: DofValues

    def __post_init__(self):
        for name in ("combos", "dof_values"):
            object.__setattr__(self, name, _exact_rows(getattr(self, name), name))


@dataclass(frozen=True)
class Probes:
    """Instance data driving the per-assumption checks."""

    span_instances: tuple[SpanProbe, ...] = ()
    surjectivity: Mapping[str, tuple[Mapping[DofId, Fraction], ...]] = field(
        default_factory=dict
    )
    equal_space_pairs: tuple[tuple[str, str], ...] = ()
    directed_pairs: tuple[tuple[str, str], ...] = ()
    dof_values: DofValues = field(default_factory=dict)

    def __post_init__(self):
        # Each label's rows convert as rows keyed by their position.
        surjectivity = {
            n: tuple(_exact_rows(enumerate(r), f"surjectivity of {n!r}").values())
            for n, r in self.surjectivity.items()
        }
        object.__setattr__(self, "surjectivity", surjectivity)
        dof_values = _exact_rows(self.dof_values, "dof_values")
        object.__setattr__(self, "dof_values", dof_values)


@dataclass(frozen=True)
class AssumptionInstance:
    assumption: str
    subject: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    instances: tuple[AssumptionInstance, ...]

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def failures(self) -> tuple[AssumptionInstance, ...]:
        return tuple(inst for inst in self.instances if not inst.passed)


def check_assumptions(
    family: Mapping[str, SystemLabel],
    order: Iterable[OrderEdge],
    probes: Probes,
) -> AssumptionReport:
    """Audit a presented family of labels against the construction's assumptions.

    The audit is witness- and instance-based: it verifies exactly the
    presented labels, order edges and probe data, and records which
    instances were checked.  Universal statements are out of reach of any
    finite audit and are not claimed.  Each order edge's plan and each
    label are read once; instances are reported grouped by assumption, in
    the order of :data:`ASSUMPTION_TITLES`.  The A1b and A6 instances come
    in (upper, lower) order, a repeated pair's as given, so the report does
    not depend on the order of ``order``.
    """
    found: dict[str, list[AssumptionInstance]] = {a: [] for a in ASSUMPTION_TITLES}

    def record(kind: str, subject: str, passed: bool, detail: str) -> None:
        found[kind].append(AssumptionInstance(kind, subject, passed, detail))

    for probe in probes.span_instances:
        if probe.label not in family:
            record("A1a", probe.label, False, "unknown label")
            continue
        frame = family[probe.label].frame.dofs
        fault = _combination_fault(probe.combos, probe.combos, frame, probe.dof_values)
        detail = fault or f"{len(probe.combos)} d.o.f. spanned by {probe.label!r}"
        record("A1a", probe.label, not fault, detail)

    # Each order edge is verified once, by its witness's plan, which later
    # projections along the edge reuse.  An edge whose witness has a
    # membership row for every lower operator is an A1b instance, decided
    # by the plan's membership check.  The verified plans, every one of a
    # repeated pair kept, are the relations A2, A5 and directedness read.
    verified: dict[str, dict[str, list[EdgePlan]]] = {}
    for edge in sorted(order, key=lambda e: (e.upper, e.lower)):
        subject = f"{edge.upper} >= {edge.lower}"
        if edge.upper not in family or edge.lower not in family:
            record("A6", subject, False, "unknown label")
            continue
        plan = edge.witness.plan(family[edge.upper], family[edge.lower])
        if all(op.id in edge.witness.op_membership for op in plan.coarse.ops):
            fault = plan.check.membership
            contained = f"{len(plan.coarse.ops)} operators contained in {edge.upper!r}"
            record("A1b", edge.upper, not fault, fault or contained)
        record("A6", subject, plan.check.ok, plan.check.diagnostic)
        if plan.check:
            verified.setdefault(edge.upper, {}).setdefault(edge.lower, []).append(plan)

    def reaches(upper: str, lower: str) -> bool:
        return lower in verified.get(upper, ())

    # A2: labels with evaluation probes are decided by them.  The others are
    # surjective when reachable from a surjective label along verified edges
    # whose projection builds (full row rank over a surjective finer frame
    # makes the full-rank image matrix constructible): a least fixed point.
    surjective = set()
    for name, mat in probes.surjectivity.items():
        if name in family:
            label = family[name]
            if ratlin.rank(ratlin.from_sparse(mat, label.frame.dofs)) == label.dim:
                surjective.add(name)
    frontier = sorted(surjective)
    while frontier:
        for lower, plans in verified.get(frontier.pop(), {}).items():
            if lower in surjective or lower in probes.surjectivity:
                continue
            for plan in plans:
                try:
                    plan.projection
                except PqkError:
                    continue
                surjective.add(lower)
                frontier.append(lower)
                break

    for name in sorted(family):
        ok = name in surjective
        underived = "no surjectivity witness supplied or derivable"
        record("A2", name, ok, "full-rank evaluation witness" if ok else underived)
        structural = "actions are constants by construction; linearity structural"
        record("A3", name, True, structural)
        try:
            pairing_matrix(family[name])
            record("A4", name, True, "det != 0")
        except (DegeneratePairingError, MissingActionError) as exc:
            record("A4", name, False, str(exc))

    for a, b in probes.equal_space_pairs:
        subject = f"{a} ~ {b}"
        if a not in family or b not in family:
            record("A5", subject, False, "unknown label")
            continue
        la, lb = family[a], family[b]
        if set(la.ops) != set(lb.ops):
            record("A5", subject, False, "operator bases differ")
            continue
        values = probes.dof_values
        probe_ids = sorted(
            {p for d in (*la.frame.dofs, *lb.frame.dofs) for p in values.get(d, {})}
        )
        ma, mb = (
            ratlin.from_sparse((values.get(d, {}) for d in f.dofs), probe_ids)
            for f in (la.frame, lb.frame)
        )
        if not ratlin.rank(ma) == ratlin.rank(mb) == ratlin.rank(ma + mb) == la.dim:
            record("A5", subject, False, "frames do not span the same space")
            continue
        ordered = reaches(a, b) or reaches(b, a)
        detail = "ordered" if ordered else "equal reduced spaces but no order edge"
        record("A5", subject, ordered, detail)

    for a, b in probes.directed_pairs:
        subject = f"{a}, {b}"
        if a not in family or b not in family:
            record("directed", subject, False, "unknown label")
            continue
        upper = sorted(
            n for n in family if (n == a or reaches(n, a)) and (n == b or reaches(n, b))
        )
        detail = f"upper bound {upper[0]!r}" if upper else "no witnessed upper bound"
        record("directed", subject, bool(upper), detail)

    return AssumptionReport(tuple(chain.from_iterable(found.values())))
