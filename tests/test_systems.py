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
    ReducedFrame,
    SystemLabel,
    check_assumptions,
    close_witnesses,
    compose_witnesses,
    embedding_matrix,
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


def audit(family, order, probes=None):
    """(subject, passed, detail) of every A1b and A6 instance."""
    report = check_assumptions(family, order, probes or Probes())
    return {
        kind: [(i.subject, i.passed, i.detail)
               for i in report.instances if i.assumption == kind]
        for kind in ("A1b", "A6")
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


# --- exact keys: operators compare by their integer pairs ----------------------

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
    same = (a.id, a.action) == (b.id, b.action)
    assert (a.key == b.key) == same
    assert not same or hash(a.key) == hash(b.key)
    assert a.key is a.key  # kept on the operator


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
