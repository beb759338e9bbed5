import dataclasses
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk import (
    DegeneratePairingError,
    MissingActionError,
    MomentumOperator,
    NotResolvableError,
    OrderEdge,
    OrderViolationError,
    OrderWitness,
    PqkError,
    RankDeficientError,
    ReducedFrame,
    SystemLabel,
    check_assumptions,
    close_witnesses,
    compose_witnesses,
    embedding_matrix,
    kernel_decomposition,
    operator_point,
    pairing_matrix,
    refines,
    select_independent_dofs,
)
from pqk import ratlin, systems
from pqk.dpg import System, random_system
from pqk.io import default_probes
from pqk.systems import Probes, SpanProbe, projection_from_witness

from conftest import generic_reduction, subprocess_env


def op(name, **action):
    return MomentumOperator(name, tuple(action.items()))


def test_pairing_matrix_values_and_determinant():
    frame = ReducedFrame(("a", "b"))
    label = SystemLabel((op("u", a=1, b=0), op("v", a=1, b=1)), frame)
    g = pairing_matrix(label)
    assert g == ratlin.mat([[1, 0], [1, 1]])
    assert ratlin.det(g) == 1


def test_pairing_matrix_rejects_repeated_operator():
    frame = ReducedFrame(("a", "b"))
    label = SystemLabel((op("u", a=1, b=2), op("v", a=1, b=2)), frame)
    with pytest.raises(DegeneratePairingError):
        pairing_matrix(label)


def test_dual_construction_gives_identity_pairing(demo_system):
    for label in demo_system.labels.values():
        g = pairing_matrix(label)
        assert ratlin.det(g) != 0


def test_operator_point_is_action_vector():
    frame = ReducedFrame(("a", "b", "c"))
    zero = op("z", a=0, b=0, c=0)
    assert operator_point(zero, frame) == (0, 0, 0)
    o1 = op("o1", a=1, b=2, c=0)
    o2 = op("o2", a=0, b=1, c=3)
    combo = MomentumOperator(
        "w", ratlin.combine([(2, o1.action_map), (-1, o2.action_map)])
    )
    expected = tuple(
        2 * x - y for x, y in zip(operator_point(o1, frame), operator_point(o2, frame))
    )
    assert operator_point(combo, frame) == expected


def test_operator_point_rows_match_pairing():
    frame = ReducedFrame(("a", "b"))
    ops = (op("u", a=2, b=1), op("v", a=0, b=-1))
    label = SystemLabel(ops, frame)
    g = pairing_matrix(label)
    for j, o in enumerate(ops):
        assert operator_point(o, frame) == g[j]


def test_operator_point_missing_action():
    with pytest.raises(MissingActionError):
        operator_point(op("u", a=1), ReducedFrame(("a", "b")))


def test_embedding_matrix_simple():
    fine, coarse, witness = generic_reduction([[1, 1]])
    w = embedding_matrix(fine, coarse, witness)
    b = projection_from_witness(fine, coarse, witness).entries
    assert ratlin.matmul(b, w) == ratlin.identity(1)
    # B [[1,1]] with operator row (1,1): W = B^T (B B^T)^{-1}
    assert w == ratlin.mat([[Fraction(1, 2)], [Fraction(1, 2)]])


def test_embedding_matrix_axis_selector():
    # coarse operator acting as (1, 0) on the fine frame: G = [[1]],
    # actions on fine = [[1, 0]], so W = [[1], [0]] and B @ W = [1].
    fine, coarse, witness = generic_reduction([[1, 0]])
    w = embedding_matrix(fine, coarse, witness)
    assert w == ratlin.mat([[1], [0]])


def test_embedding_identity_case():
    fine, coarse, witness = generic_reduction([[1, 0], [0, 1]])
    w = embedding_matrix(fine, coarse, witness)
    assert w == ratlin.identity(2)


def test_embedding_image_spans_operator_points(deep_system):
    rs = deep_system
    edge = next(
        e for e in rs.order if rs.labels[e.upper].dim > rs.labels[e.lower].dim
    )
    fine, coarse = rs.labels[edge.upper], rs.labels[edge.lower]
    w = embedding_matrix(fine, coarse, edge.witness)
    points = tuple(operator_point(op, fine.frame) for op in coarse.ops)
    stacked = ratlin.hstack(w, ratlin.transpose(points))
    assert ratlin.rank(stacked) == coarse.dim
    assert ratlin.rank(ratlin.transpose(w)) == coarse.dim


def test_embedding_cocycle_on_generated_triple(deep_system):
    rs = deep_system
    top, mid, bot = rs.chains()[0]
    lt, lm, lb = rs.labels[top], rs.labels[mid], rs.labels[bot]
    w_tm = embedding_matrix(lt, lm, rs.find_witness(top, mid))
    w_mb = embedding_matrix(lm, lb, rs.find_witness(mid, bot))
    w_tb = embedding_matrix(lt, lb, rs.find_witness(top, bot))
    assert w_tb == ratlin.matmul(w_tm, w_mb)


def test_refines_identity_and_perturbation():
    fine, coarse, witness = generic_reduction([[1, 0], [0, 1]])
    assert refines(fine, coarse, witness)
    bad = OrderWitness(
        combos=witness.combos,
        op_membership={
            "op0": {"dx0": Fraction(1) + Fraction(1, 10**12)},
            "op1": {"dx1": 1},
        },
        dof_values=witness.dof_values,
    )
    check = refines(fine, coarse, bad)
    assert not check
    assert "op0" in check.diagnostic


def test_refines_on_generated_pair(demo_system):
    rs = demo_system
    edge = rs.order[0]
    assert refines(rs.labels[edge.upper], rs.labels[edge.lower], edge.witness)


def test_refines_rejects_wrong_combo(demo_system):
    rs = demo_system
    edge = next(e for e in rs.order if rs.labels[e.upper].dim > rs.labels[e.lower].dim)
    w = edge.witness
    dof, row = next(iter(w.combos.items()))
    src = next(iter(row))
    bad_combos = {**w.combos, dof: {**row, src: row[src] + 1}}
    bad = OrderWitness(bad_combos, w.op_membership, w.dof_values)
    assert not refines(rs.labels[edge.upper], rs.labels[edge.lower], bad)


# --- the integer verdicts of refines and the kernel decomposition -------------

HALF = Fraction(1, 2)


def _verdict_case(defect):
    """A 3 -> 2 reduction, ``defect`` applied, and the outcome of verifying
    it and building its kernel decomposition."""
    fine, coarse, witness = generic_reduction([[1, HALF, 0], [0, 1, Fraction(1, 3)]])
    w = embedding_matrix(fine, coarse, witness)
    if defect == "membership-off-by-half":
        rows = {**witness.op_membership, "op0": {"dx0": 1 + HALF}}
        witness = OrderWitness(witness.combos, rows, witness.dof_values)
    elif defect == "linearity-off-by-half":
        action = {**coarse.ops[1].action_map, "y0": coarse.ops[1].on("y0") + HALF}
        ops = (coarse.ops[0], MomentumOperator("op1", action))
        coarse = SystemLabel(ops, coarse.frame)
    elif defect == "embedding-off-by-one":
        w = (w[0], (w[1][0] + 1, w[1][1]), w[2])
    check = refines(fine, coarse, witness)
    plan = systems.EdgePlan(fine, coarse, witness.combos, check)
    try:
        kdec = kernel_decomposition(plan.projection, w)
    except PqkError as exc:
        return check.ok, check.diagnostic, repr(exc)
    return check.ok, check.diagnostic, kdec.lebesgue_factor, kdec.kernel_basis


@pytest.mark.parametrize("defect, verdict, detail", [
    (None, True, "verified"),
    ("membership-off-by-half", False,
     "operator 'op0' deviates from its witnessed combination on 'x0'"),
    ("linearity-off-by-half", False,
     "operator 'op1' is not linear over the witnessed combination of 'y0'"),
    ("embedding-off-by-one", True, "verified"),
])
def test_integer_verdicts_agree_with_their_fraction_forms(
    monkeypatch, defect, verdict, detail
):
    got = _verdict_case(defect)
    assert got[:2] == (verdict, detail)
    if defect == "embedding-off-by-one":
        assert got[2] == "NotARightInverseError('B @ W is not the identity')"
    # The Fraction form: one Fraction per compared sum.
    monkeypatch.setattr(
        ratlin, "equals_dot", lambda v, pairs: v == sum(x * y for x, y in pairs)
    )
    assert _verdict_case(defect) == got


def test_compose_witnesses_matches_direct(deep_system):
    rs = deep_system
    top, mid, bot = rs.chains()[0]
    composed = compose_witnesses(
        rs.find_witness(top, mid), rs.find_witness(mid, bot)
    )
    assert refines(rs.labels[top], rs.labels[bot], composed)
    direct = projection_from_witness(
        rs.labels[top], rs.labels[bot], rs.find_witness(top, bot)
    )
    via = projection_from_witness(rs.labels[top], rs.labels[bot], composed)
    assert direct.entries == via.entries


def test_select_independent_single():
    ops = (op("u", k1=1, k2=0),)
    assert select_independent_dofs(ops, ("k1", "k2")) == ("k1",)


def test_select_independent_greedy_first_solution():
    ops = (op("u", k1=1, k2=0, k3=1), op("v", k1=0, k2=1, k3=1))
    chosen = select_independent_dofs(ops, ("k1", "k2", "k3"))
    assert chosen == ("k1", "k2")
    cols = ratlin.mat([[1, 0], [0, 1]])
    assert ratlin.rank(cols) == 2


def test_select_independent_not_resolvable():
    ops = (op("u", k1=1, k2=2), op("v", k1=2, k2=4))
    with pytest.raises(NotResolvableError):
        select_independent_dofs(ops, ("k1", "k2"))
    independent = (op("u", k1=1, k2=0), op("v", k1=0, k2=1))
    for ops, pool in (
        (independent[:1], ()),
        (independent, ()),
        (independent, ("k1",)),
    ):
        with pytest.raises(NotResolvableError, match=f"of {len(ops)} operators"):
            select_independent_dofs(ops, pool)


def test_check_assumptions_passes_on_generated(demo_system):
    rs = demo_system
    report = check_assumptions(rs.labels, rs.order, default_probes(rs))
    assert report.passed, report.failures()
    kinds = {inst.assumption for inst in report.instances}
    assert {"A1a", "A2", "A3", "A4", "A6", "directed"} <= kinds


@pytest.mark.parametrize(
    "row, values, detail",
    [
        ({"k3": 1, "k2": 1}, {},
         "combination for 'd' uses non-frame d.o.f. ['k2', 'k3']"),
        ({"k1": 1}, {}, "no evaluation data for d.o.f. ['d', 'k1']"),
        ({"k1": 1}, {"d": {"p": 1}, "k1": {"p": 2}},
         "'d' differs from its witnessed combination"),
        ({"k1": 1}, {"d": {"p": 1}, "k1": {"p": 1, "q": 1}},
         "'d' differs from its witnessed combination"),
    ],
)
def test_span_audit_and_refines_share_the_combination_check(row, values, detail):
    fine = SystemLabel((op("u", k1=1),), ReducedFrame(("k1",)))
    coarse = SystemLabel((op("w", d=1),), ReducedFrame(("d",)))
    check = refines(fine, coarse, OrderWitness({"d": row}, {"w": {"u": 1}}, values))
    assert not check and check.diagnostic == detail
    probe = SpanProbe("F", {"d": row}, values)
    report = check_assumptions({"F": fine}, (), Probes(span_instances=(probe,)))
    (a1a,) = (inst for inst in report.instances if inst.assumption == "A1a")
    assert not a1a.passed and a1a.detail == detail


def reference_a1b(family, order):
    """The former A1b audit: one operator probe per order edge whose witness
    has a membership row for every lower operator, checked on its own
    against the upper label's basis and frame."""
    out = []
    for edge in order:
        ops = family[edge.lower].ops
        membership = edge.witness.op_membership
        if not all(o.id in membership for o in ops):
            continue
        label = family[edge.upper]
        basis = {o.id: o for o in label.ops}
        ok, detail = True, f"{len(ops)} operators contained in {edge.upper!r}"
        for o in ops:
            row = membership[o.id]
            if set(row) - set(basis):
                ok, detail = False, f"no valid membership for {o.id!r}"
                break
            try:
                bad = next(
                    (d for d in label.frame.dofs
                     if o.on(d) != sum(c * basis[b].on(d) for b, c in row.items())),
                    None,
                )
            except MissingActionError as exc:
                ok, detail = False, str(exc)
                break
            if bad is not None:
                ok, detail = False, f"{o.id!r} membership fails on {bad!r}"
                break
        out.append((edge.upper, ok, detail))
    return out


def audit(family, order, probes=None, kinds=("A1b", "A6")):
    """(subject, passed, detail) of every instance of each of ``kinds``."""
    report = check_assumptions(family, order, probes or Probes())
    return {
        kind: [(i.subject, i.passed, i.detail)
               for i in report.instances if i.assumption == kind]
        for kind in kinds
    }


@pytest.mark.parametrize("name", ["demo_system", "deep_system"])
def test_a1b_matches_the_former_operator_probe_audit(request, name):
    rs = request.getfixturevalue(name)
    a1b = audit(rs.labels, rs.order, default_probes(rs))["A1b"]
    assert len(a1b) == len(rs.order)
    assert a1b == reference_a1b(rs.labels, rs.order)


def _with_witness(rs, index, **changes):
    """The order of ``rs`` with edge ``index``'s witness rows replaced."""
    edge = rs.order[index]
    w = edge.witness
    rows = {"combos": w.combos, "op_membership": w.op_membership, **changes}
    witness = OrderWitness(rows["combos"], rows["op_membership"], w.dof_values)
    return (*rs.order[:index], OrderEdge(edge.upper, edge.lower, witness),
            *rs.order[index + 1:])


def _broken_combos(w):
    dof, row = next((d, r) for d, r in w.combos.items() if r)
    src = next(iter(row))
    return {**w.combos, dof: {**row, src: row[src] + 1}}


def _broken_membership(w):
    oid, row = next(iter(w.op_membership.items()))
    src = next(iter(row))
    return {**w.op_membership, oid: {**row, src: row[src] + 1}}


def test_a1b_passes_when_only_combinations_are_broken(demo_system):
    rs = demo_system
    i = next(i for i, e in enumerate(rs.order) if any(e.witness.combos.values()))
    order = _with_witness(rs, i, combos=_broken_combos(rs.order[i].witness))
    found = audit(rs.labels, order)
    assert found["A1b"][i] == reference_a1b(rs.labels, order)[i]
    assert found["A1b"][i][1] and not found["A6"][i][1]


def test_a1b_and_a6_share_the_membership_fault(demo_system):
    rs = demo_system
    order = _with_witness(rs, 0, op_membership=_broken_membership(rs.order[0].witness))
    found = audit(rs.labels, order)
    subject, passed, detail = found["A1b"][0]
    assert not passed and not found["A6"][0][1]
    assert found["A6"][0][2] == detail
    assert detail.startswith("operator ") and " deviates from its witnessed " in detail
    assert [a[:2] for a in found["A1b"]] == [
        r[:2] for r in reference_a1b(rs.labels, order)
    ]


def test_a1b_reads_membership_when_combinations_also_fail(demo_system):
    rs = demo_system
    i = next(i for i, e in enumerate(rs.order) if any(e.witness.combos.values()))
    w = rs.order[i].witness
    order = _with_witness(
        rs, i, combos=_broken_combos(w), op_membership=_broken_membership(w)
    )
    found = audit(rs.labels, order)
    assert not found["A1b"][i][1]
    assert "deviates from its witnessed combination" in found["A1b"][i][2]
    assert "differs from its witnessed combination" in found["A6"][i][2]


def test_a1b_reports_a_missing_action():
    fine = SystemLabel((op("u", k1=1),), ReducedFrame(("k1",)))
    coarse = SystemLabel((op("w", d=1),), ReducedFrame(("d",)))
    witness = OrderWitness({"d": {"k1": 1}}, {"w": {"u": 1}},
                           {"d": {"p": 1}, "k1": {"p": 1}})
    family = {"F": fine, "C": coarse}
    order = (OrderEdge("F", "C", witness),)
    found = audit(family, order)
    text = "operator 'w' has no action on 'k1'"
    assert found == {"A1b": [("F", False, text)], "A6": [("F >= C", False, text)]}
    assert reference_a1b(family, order) == [("F", False, text)]


def test_each_edge_membership_is_checked_once(monkeypatch):
    rs = random_system(3, 2, 7)
    calls = {"_first_deviation": 0, "refines": 0}
    for name in calls:
        original = getattr(systems, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(systems, name, counted)
    report = check_assumptions(rs.labels, rs.order, default_probes(rs))
    assert report.passed
    assert calls == {
        "_first_deviation": sum(len(rs.labels[e.lower].ops) for e in rs.order),
        "refines": len(rs.order),
    }


def test_check_assumptions_derives_surjectivity(demo_system):
    # A label without its own full-rank evaluation witness inherits one
    # through a witnessed combination over a surjective finer frame.
    rs = demo_system
    lowers = {e.lower for e in rs.order}
    name = sorted(lowers)[0]
    probes = default_probes(rs)
    pruned = type(probes)(
        span_instances=probes.span_instances,
        surjectivity={k: v for k, v in probes.surjectivity.items() if k != name},
        equal_space_pairs=probes.equal_space_pairs,
        directed_pairs=probes.directed_pairs,
        dof_values=probes.dof_values,
    )
    report = check_assumptions(rs.labels, rs.order, pruned)
    inst = next(
        i for i in report.instances if i.assumption == "A2" and i.subject == name
    )
    assert inst.passed


def test_check_assumptions_fails_rank_deficient_explicit_rows(demo_system):
    # Supplied rows decide their label: one row short of full rank fails A2,
    # though the label is also reachable along verified edges.
    rs = demo_system
    name = sorted({e.lower for e in rs.order})[0]
    probes = default_probes(rs)
    rows = probes.surjectivity[name]
    deficient = dataclasses.replace(
        probes, surjectivity={**probes.surjectivity, name: rows[:-1]}
    )
    report = check_assumptions(rs.labels, rs.order, deficient)
    a2 = {i.subject: (i.passed, i.detail) for i in report.instances
          if i.assumption == "A2"}
    assert a2.pop(name) == (False, "no surjectivity witness supplied or derivable")
    assert a2 and all(passed for passed, _ in a2.values())


def test_check_assumptions_flags_singular_pairing(demo_system):
    rs = demo_system
    name = sorted(rs.labels)[0]
    label = rs.labels[name]
    broken = SystemLabel((label.ops[0],) * label.dim, label.frame)
    family = {**rs.labels, name: broken}
    report = check_assumptions(family, rs.order, default_probes(rs))
    assert not report.passed
    assert any(
        inst.assumption == "A4" and inst.subject == name
        for inst in report.failures()
    )


def test_check_assumptions_flags_missing_join(deep_system):
    rs = deep_system
    keep = {name for name in rs.labels if name.startswith("b")}
    family = {k: v for k, v in rs.labels.items() if k in keep}
    order = tuple(
        e for e in rs.order if e.upper in keep and e.lower in keep
    )
    report = check_assumptions(family, order, default_probes(rs))
    assert any(
        inst.assumption == "directed" and not inst.passed
        for inst in report.instances
    )


def test_close_witnesses_direct_composed_and_target(deep_system):
    rs = deep_system
    direct = tuple(
        e for e in rs.order if (e.upper, e.lower) != ("c2", "b0")
    )
    closure = close_witnesses(direct, "c2")
    assert set(closure) == {e.lower for e in rs.order if e.upper == "c2"}
    stored = {(e.upper, e.lower): e.witness for e in direct}
    for lower, witness in closure.items():
        if ("c2", lower) in stored:
            assert witness is stored[("c2", lower)]
    composed = closure["b0"]
    via_join = compose_witnesses(
        stored[("c2", "j(b0+b1)")], stored[("j(b0+b1)", "b0")]
    )
    assert composed.combos == via_join.combos
    assert composed.op_membership == via_join.op_membership
    assert refines(rs.labels["c2"], rs.labels["b0"], composed)


def test_a_plan_is_kept_for_both_label_objects_it_was_asked_about():
    # A witness keeps the plan of the (fine, coarse) objects last asked
    # about: the same pair gets it back, an equal but distinct coarse label
    # gets a plan of its own, verified anew.
    fine, coarse, witness = generic_reduction([[1, 1, 0], [0, 0, 1]])
    plan = witness.plan(fine, coarse)
    assert witness.plan(fine, coarse) is plan
    twin = dataclasses.replace(coarse)
    assert twin == coarse and twin is not coarse
    twin_plan = witness.plan(fine, twin)
    assert twin_plan is not plan and twin_plan.coarse is twin and twin_plan.check
    assert witness.plan(fine, twin) is twin_plan


def test_find_witness_reads_the_closure_and_skips_top():
    def w(coarse, fine, c):
        return OrderWitness({coarse: {fine: c}}, {})

    order = (
        OrderEdge("x", "y", w("dy", "dx", 2)),
        OrderEdge("y", "x", w("dx", "dy", 1)),
        OrderEdge("y", "z", w("dz", "dy", 3)),
        OrderEdge("z", "u", w("du", "dz", 5)),
    )
    assert list(close_witnesses(order, "x")) == ["y", "z", "u"]
    system = System(atoms={}, words={}, dlabels={}, order=order)
    assert system.find_witness("x", "y") is order[0].witness
    assert system.find_witness("x", "u").combos == {"du": {"dx": Fraction(30)}}
    for upper, lower in (("z", "x"), ("x", "x")):
        with pytest.raises(
            OrderViolationError, match=f"^no witnessed relation {upper} >= {lower}$"
        ):
            system.find_witness(upper, lower)


A2_REPRO = """
import dataclasses
from pqk.dpg import random_system
from pqk.io import default_probes
from pqk.systems import check_assumptions

rs = random_system(3, 2, 7)
probes = default_probes(rs)
probes = dataclasses.replace(
    probes,
    surjectivity={
        k: v for k, v in probes.surjectivity.items() if k not in ("b0", "b0t")
    },
)
order = tuple(e for e in rs.order if (e.upper, e.lower) != ("j(b0+b1)", "b0t"))
report = check_assumptions(rs.labels, order, probes)
for inst in report.instances:
    if inst.assumption == "A2" and inst.subject in ("b0", "b0t"):
        print(inst.subject, inst.passed)
"""


@pytest.mark.parametrize("hash_seed", range(8))
def test_derived_surjectivity_ignores_hash_seed(hash_seed):
    # b0t has no probe and no edge from the join; it is surjective only
    # through b0, whose own surjectivity is derived from the join.  The
    # verdict must not depend on set iteration order.
    out = subprocess.run(
        [sys.executable, "-c", A2_REPRO],
        env=subprocess_env(PYTHONHASHSEED=str(hash_seed)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split("\n") == ["b0 True", "b0t True", ""]


# --- operators compare by value -----------------------------------------------

# Few ids, d.o.f. and values, each value written as an int, float, str or
# Fraction, so that equal operators are drawn often.
WRITTEN = [0, 0.0, "0", Fraction(0), 1, 1.0, "2/2", Fraction(-1, 2), -0.5, "-1/2",
           "1/3", Fraction(2, 6), Fraction(1, 4)]
OPERATORS = st.builds(
    MomentumOperator,
    st.sampled_from(["p", "q"]),
    st.dictionaries(st.sampled_from(["x", "y"]), st.sampled_from(WRITTEN), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(OPERATORS, OPERATORS)
def test_operator_keys_are_equal_exactly_when_id_and_action_are(a, b):
    # Probes and A5 compare operator sets, so == and hash must read the
    # exact (id, action) pair, whatever the values were written as.
    same = (a.id, a.action) == (b.id, b.action)
    assert (a == b) == same
    assert not same or hash(a) == hash(b)


def former_equal_space_pairs(system):
    """The equal-space pairs as probes were derived from (id, action) sets."""
    names = sorted(system.labels)
    ops = {n: frozenset((op.id, op.action) for op in system.labels[n].ops) for n in names}
    return tuple(
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if ops[a] == ops[b]
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**16))
def test_default_probes_pair_the_labels_the_former_keys_paired(edges, depth, seed):
    system = random_system(edges, depth, seed)
    pairs = default_probes(system).equal_space_pairs
    assert pairs == former_equal_space_pairs(system) and pairs


@pytest.mark.parametrize(
    "kind, scale", [(int, 2), (float, Fraction(1, 2)), (str, Fraction(-3, 7))],
    ids=["int", "float", "str"],
)
def test_probes_convert_their_values_as_witnesses_do(demo_system, kind, scale):
    # Span combinations (A1a), explicit surjectivity rows (A2) and evaluation
    # data (A1a, A5) written as int, float or string hold, and audit as, the
    # Fractions they stand for; a float or a string once crashed the audit.
    base = default_probes(demo_system)

    def written(rows, factor=1):
        return {k: {s: kind(factor * c) for s, c in row.items()} for k, row in rows.items()}

    def scaled(rows):
        return tuple({d: scale * c for d, c in row.items()} for row in rows)

    exact = dataclasses.replace(
        base, surjectivity={n: scaled(rows) for n, rows in base.surjectivity.items()}
    )
    raw = dataclasses.replace(
        base,
        span_instances=tuple(
            SpanProbe(p.label, written(p.combos), written(p.dof_values))
            for p in base.span_instances
        ),
        surjectivity={
            n: tuple(written(dict(enumerate(rows)), scale).values())
            for n, rows in base.surjectivity.items()
        },
        dof_values=written(base.dof_values),
    )
    family = dict(demo_system.labels)
    reference = check_assumptions(family, demo_system.order, exact)
    assert reference.passed
    assert {i.assumption for i in reference.instances} >= {"A1a", "A2", "A5"}
    assert check_assumptions(family, demo_system.order, raw) == reference
    assert raw == exact


# Keys equal after str() are one id given twice: each is refused by name.
REPEATED_KEYS = {
    "witness-entry": (lambda: OrderWitness({"y0": {1: 2, "1": 3}}, {}),
                      "combos row 'y0' has duplicate entries"),
    "witness-row": (lambda: OrderWitness({}, {1: {"op0": 1}, "1": {"op0": 2}}),
                    "op_membership has duplicate row '1'"),
    "span-probe-row": (lambda: SpanProbe("b0", {}, {0: {"p": 1}, "0": {"p": 1}}),
                       "dof_values has duplicate row '0'"),
    "probes-entry": (lambda: Probes(dof_values={"x": {1: 1, "1": 5}}),
                     "dof_values row 'x' has duplicate entries"),
    "surjectivity-entry": (
        lambda: Probes(surjectivity={"b0": ({"x": 1}, {2: 1, "2": 0})}),
        "surjectivity of 'b0' row '1' has duplicate entries",
    ),
}


@pytest.mark.parametrize(
    "build, detail", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys()
)
def test_exact_rows_refuse_a_key_given_twice(build, detail):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == detail


def test_a5_compares_operator_bases_by_value(demo_system):
    labels = dict(demo_system.labels)
    probes = Probes(
        equal_space_pairs=(("b0", "b0t"),), dof_values=default_probes(demo_system).dof_values
    )

    def a5_with_b0t_ops(rewrite):
        b0t = labels["b0t"]
        family = {"b0": labels["b0"], "b0t": SystemLabel(
            tuple(rewrite(i, o) for i, o in enumerate(b0t.ops)), b0t.frame
        )}
        order = tuple(e for e in demo_system.order if {e.upper, e.lower} == set(family))
        (inst,) = [i for i in check_assumptions(family, order, probes).instances
                   if i.assumption == "A5"]
        return inst.passed, inst.detail

    same = a5_with_b0t_ops(lambda i, o: o)
    assert same == (True, "ordered")
    # The same values written as floats or strings leave the verdict as it is.
    assert a5_with_b0t_ops(lambda i, o: MomentumOperator(
        o.id, tuple((d, float(v) if v.denominator == 1 else str(v)) for d, v in o.action)
    )) == same
    # One operator's action scaled by 1/3: the bases differ.
    assert a5_with_b0t_ops(lambda i, o: o if i else MomentumOperator(
        o.id, tuple((d, v / 3) for d, v in o.action)
    )) == (False, "operator bases differ")


# --- audit verdicts on hand-built labels ----------------------------------------


def one_dof_edge(coarse_op, combos, membership):
    """``F >= C`` for F = (u on k1) and C = (``coarse_op`` on d), with d and
    k1 equal on the one probe p."""
    fine = SystemLabel((op("u", k1=1),), ReducedFrame(("k1",)))
    coarse = SystemLabel((coarse_op,), ReducedFrame(("d",)))
    witness = OrderWitness(combos, membership, {"d": {"p": 1}, "k1": {"p": 1}})
    return {"F": fine, "C": coarse}, witness


@pytest.mark.parametrize(
    "coarse_op, combos, membership, detail",
    [
        (op("w", d=1, k1=1), {}, {"w": {"u": 1}}, "no combination witnessed for 'd'"),
        # w acts as 1 on d and as 2 on k1, yet d is k1: check (3)'s verdict.
        (op("w", d=1, k1=2), {"d": {"k1": 1}}, {"w": {"u": 2}},
         "operator 'w' is not linear over the witnessed combination of 'd'"),
        # w is a member of F's basis on k1 but has no action on d itself.
        (op("w", k1=1), {"d": {"k1": 1}}, {"w": {"u": 1}},
         "operator 'w' has no action on 'd'"),
        (op("w", d=1, k1=1), {"d": {"k1": 1}}, {}, "no membership witnessed for 'w'"),
    ],
    ids=["no-combination", "not-linear", "missing-action", "no-membership"],
)
def test_refines_names_each_fault_and_the_audit_reports_it(
    coarse_op, combos, membership, detail
):
    family, witness = one_dof_edge(coarse_op, combos, membership)
    check = refines(family["F"], family["C"], witness)
    assert (check.ok, check.diagnostic) == (False, detail)
    assert check.membership == (detail if not membership else None)
    report = check_assumptions(family, (OrderEdge("F", "C", witness),), Probes())
    (a6,) = (i for i in report.instances if i.assumption == "A6")
    assert (a6.subject, a6.passed, a6.detail) == ("F >= C", False, detail)


@pytest.mark.parametrize("combos, detail", [
    ({}, "no combination witnessed for 'd'"),
    ({"d": {"k9": 1}}, "combination for 'd' uses non-frame d.o.f. ['k9']"),
    ({"d": {"k1": 2}}, "'d' differs from its witnessed combination"),
])
def test_refines_names_the_combination_fault_before_the_membership_fault(combos, detail):
    # w acts as 1 on k1, its witnessed combination 2u as 2: the membership
    # fault is kept, but the diagnostic is the d.o.f. check's.
    family, witness = one_dof_edge(op("w", d=1, k1=1), combos, {"w": {"u": 2}})
    check = refines(family["F"], family["C"], witness)
    assert (check.ok, check.diagnostic) == (False, detail)
    assert check.membership == "operator 'w' deviates from its witnessed combination on 'k1'"


def a5_instance(family, pairs, dof_values):
    report = check_assumptions(
        family, (), Probes(equal_space_pairs=pairs, dof_values=dof_values)
    )
    (a5,) = (i for i in report.instances if i.assumption == "A5")
    return a5.subject, a5.passed, a5.detail


def test_a5_names_an_unknown_label():
    family = {"F": SystemLabel((op("u", a=1),), ReducedFrame(("a",)))}
    assert a5_instance(family, (("F", "X"),), {}) == ("F ~ X", False, "unknown label")


def test_a5_names_frames_that_span_different_spaces():
    # The same operator paired with a on one label and with b on the other;
    # a and b are independent on the probes.
    u = op("u", a=1, b=1)
    family = {
        "A": SystemLabel((u,), ReducedFrame(("a",))),
        "B": SystemLabel((u,), ReducedFrame(("b",))),
    }
    assert a5_instance(family, (("A", "B"),), {"a": {"p": 1}, "b": {"q": 1}}) == (
        "A ~ B", False, "frames do not span the same space"
    )


def test_a6_names_an_edge_to_an_unknown_label():
    family, witness = one_dof_edge(op("w", d=1, k1=1), {"d": {"k1": 1}}, {"w": {"u": 1}})
    order = (OrderEdge("X", "C", witness), OrderEdge("F", "C", witness))
    report = check_assumptions(family, order, Probes())
    a6 = [(i.subject, i.passed, i.detail) for i in report.instances if i.assumption == "A6"]
    # A6 instances come in (upper, lower) order, not in the order given.
    assert a6 == [("F >= C", True, "verified"), ("X >= C", False, "unknown label")]


def test_a2_derives_nothing_along_an_edge_whose_projection_does_not_build():
    # d1 and d2 are both k1, so the edge verifies, but its projection has
    # rank 1 < 2 and does not build: C is not derived surjective.
    fine = SystemLabel((op("u1", k1=1, k2=0), op("u2", k1=0, k2=1)),
                       ReducedFrame(("k1", "k2")))
    coarse = SystemLabel((op("w1", k1=1, k2=0, d1=1, d2=1), op("w2", k1=0, k2=1, d1=0, d2=0)),
                         ReducedFrame(("d1", "d2")))
    witness = OrderWitness(
        {"d1": {"k1": 1}, "d2": {"k1": 1}},
        {"w1": {"u1": 1}, "w2": {"u2": 1}},
        {"k1": {"p": 1}, "k2": {"q": 1}, "d1": {"p": 1}, "d2": {"p": 1}},
    )
    family = {"F": fine, "C": coarse}
    assert refines(fine, coarse, witness)
    with pytest.raises(RankDeficientError):
        projection_from_witness(fine, coarse, witness)
    probes = Probes(surjectivity={"F": ({"k1": 1}, {"k2": 1})})
    report = check_assumptions(family, (OrderEdge("F", "C", witness),), probes)
    a2 = [(i.subject, i.passed, i.detail) for i in report.instances if i.assumption == "A2"]
    assert a2 == [
        ("C", False, "no surjectivity witness supplied or derivable"),
        ("F", True, "full-rank evaluation witness"),
    ]


# --- relations the audit reads off the order -------------------------------------


def _without(order, upper, lower):
    return tuple(e for e in order if (e.upper, e.lower) != (upper, lower))


@pytest.mark.parametrize("dropped", [("b0", "b0t"), ("b0t", "b0")])
def test_a5_reads_an_order_edge_in_either_direction(demo_system, dropped):
    # b0 and b0t share operators and reduced space; either verified edge
    # between them orders the pair b0 ~ b0t.
    rs = demo_system
    probes = Probes(equal_space_pairs=(("b0", "b0t"),),
                    dof_values=default_probes(rs).dof_values)
    order = _without(rs.order, *dropped)
    assert audit(rs.labels, order, probes, ["A5"]) == {
        "A5": [("b0 ~ b0t", True, "ordered")]
    }


def test_a5_ignores_an_order_edge_that_does_not_verify(demo_system):
    rs = demo_system
    probes = Probes(equal_space_pairs=(("b0", "b0t"),),
                    dof_values=default_probes(rs).dof_values)
    i = next(i for i, e in enumerate(rs.order) if (e.upper, e.lower) == ("b0", "b0t"))
    broken = _with_witness(rs, i, combos=_broken_combos(rs.order[i].witness))
    order = _without(broken, "b0t", "b0")
    found = audit(rs.labels, order, probes, ["A5", "A6"])
    assert ("b0 >= b0t", False) in [a6[:2] for a6 in found["A6"]]
    assert found["A5"] == [("b0 ~ b0t", False, "equal reduced spaces but no order edge")]


def test_directed_pair_ignores_an_upper_bound_through_an_unverified_edge(demo_system):
    # j(b0+b1) is the only upper bound of b0 and b1 in the family.
    rs = demo_system
    probes = Probes(directed_pairs=(("b0", "b1"),))
    assert audit(rs.labels, rs.order, probes, ["directed"]) == {
        "directed": [("b0, b1", True, "upper bound 'j(b0+b1)'")]
    }
    i = next(i for i, e in enumerate(rs.order) if (e.upper, e.lower) == ("j(b0+b1)", "b1"))
    order = _with_witness(rs, i, combos=_broken_combos(rs.order[i].witness))
    assert audit(rs.labels, order, probes, ["directed"]) == {
        "directed": [("b0, b1", False, "no witnessed upper bound")]
    }


def test_directed_pair_names_an_unknown_label(demo_system):
    rs = demo_system
    probes = Probes(directed_pairs=(("b0", "X"), ("X", "b0"), ("b0", "b1")))
    assert audit(rs.labels, rs.order, probes, ["directed"]) == {"directed": [
        ("b0, X", False, "unknown label"),
        ("X, b0", False, "unknown label"),
        ("b0, b1", True, "upper bound 'j(b0+b1)'"),
    ]}
