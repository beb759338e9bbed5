import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk import (
    DpgLabel,
    EdgeWord,
    Face,
    Graph,
    PqkError,
    TestConnection,
    decompose_edges,
    dof_id,
    dual_flux_basis,
    graph_join,
    graph_refines,
    holonomy,
    incidence_number,
    materialize,
    pairing_matrix,
    refines,
    system_join,
    witness_connection,
    word,
)
from pqk import dpg, ratlin, systems
from pqk import io as pio
from pqk.dpg import canonical, random_system, word_values

atoms3 = ("a", "b", "c")


def random_word(draw_atoms, signs):
    return EdgeWord(tuple(zip(draw_atoms, signs)))


conn_strategy = st.fixed_dictionaries(
    {a: st.integers(-5, 5) for a in atoms3}
).map(lambda d: TestConnection(tuple((k, Fraction(v)) for k, v in d.items())))

word_strategy = st.lists(
    st.sampled_from(atoms3), min_size=1, max_size=3, unique=True
).flatmap(
    lambda ats: st.lists(
        st.sampled_from((-1, 1)), min_size=len(ats), max_size=len(ats)
    ).map(lambda sg: EdgeWord(tuple(zip(ats, sg))))
)


# --- holonomy -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(word_strategy, conn_strategy)
def test_holonomy_inverse_flips_sign(e, conn):
    assert holonomy(e.inverse(), conn) == -holonomy(e, conn)


@settings(max_examples=80, deadline=None)
@given(conn_strategy)
def test_holonomy_additive_under_composition(conn):
    e1 = word("a")
    e2 = word("b", "c")
    composed = word("a", "b", "c")
    assert holonomy(composed, conn) == holonomy(e1, conn) + holonomy(e2, conn)


def test_holonomy_single_atom():
    e = word("a")
    assert holonomy(e, TestConnection((("a", Fraction(5, 2)),))) == Fraction(5, 2)


def test_duplicate_atoms_are_refused_by_connections_as_by_faces():
    with pytest.raises(ValueError, match="duplicate"):
        TestConnection((("a", 1), ("a", 2)))
    with pytest.raises(ValueError, match="duplicate"):
        Face("f", (("a", 1), ("a", 2)))
    # A repeat is found before zero values are dropped.
    with pytest.raises(ValueError, match="duplicate"):
        Face("f", (("a", 1), ("a", 0)))
    with pytest.raises(ValueError, match="duplicate"):
        TestConnection((("a", 0), ("b", 1), ("a", 0)))
    conn = TestConnection({"b": 3, "a": Fraction(1, 2), "c": 0})
    assert conn.values == (("a", Fraction(1, 2)), ("b", Fraction(3)))


def test_graph_dofs_are_built_once():
    g = Graph((word("a"), word("-b", "c")))
    assert g.dofs is g.dofs
    assert g.dofs == tuple(dof_id(e) for e in g.edges)
    assert g.frame().dofs == g.dofs
    assert g == Graph((word("a"), word("-b", "c")))


# --- witness connections --------------------------------------------------------


def test_witness_connection_hits_targets():
    g = Graph((word("a"), word("b", "c")))
    conn = witness_connection(g, [1, -3])
    assert holonomy(g.edges[0], conn) == 1
    assert holonomy(g.edges[1], conn) == -3


def test_witness_connection_zero():
    g = Graph((word("a"), word("b")))
    conn = witness_connection(g, [0, 0])
    assert conn.values == ()


def test_witness_connection_reversed_first_letter():
    g = Graph((word("-a", "-b"),))
    conn = witness_connection(g, [1])
    assert conn.value_map["a"] == -1
    assert holonomy(g.edges[0], conn) == 1


def unit_target_holonomies(graph):
    """Row t: each edge's holonomy under the witness connection of the unit
    target t, the evaluation rows A2 ranks for a DPG label."""
    n = len(graph.edges)
    return [
        [holonomy(e, witness_connection(graph, [int(i == t) for i in range(n)]))
         for e in graph.edges]
        for t in range(n)
    ]


@st.composite
def disjoint_graphs(draw):
    """Graphs of 1-5 edges of 1-3 letters with random signs; the edges take
    consecutive runs of a shuffled list of atom ids, so they share none."""
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    ids = draw(st.permutations([f"a{i}" for i in range(sum(lengths))]))
    edges, start = [], 0
    for n in lengths:
        run = ids[start : start + n]
        edges.append(EdgeWord(tuple((a, draw(st.sampled_from((-1, 1)))) for a in run)))
        start += n
    return Graph(tuple(edges))


@settings(max_examples=50, deadline=None)
@given(disjoint_graphs())
def test_unit_target_connections_have_unit_holonomies(graph):
    # Atom-disjoint edges: the connection for target t touches edge t alone.
    n = len(graph.edges)
    assert unit_target_holonomies(graph) == [
        [int(i == t) for i in range(n)] for t in range(n)
    ]


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 2**16))
def test_default_probes_are_the_unit_target_holonomy_rows(edges, depth, seed):
    system = random_system(edges, depth, seed)
    rows = pio.default_probes(system).surjectivity
    assert list(rows) == sorted(system.dlabels)
    for name, d in system.dlabels.items():
        dense = ratlin.from_sparse(rows[name], d.graph.dofs)
        assert dense == ratlin.mat(unit_target_holonomies(d.graph))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**16))
def test_generated_projections_have_lebesgue_factor_one(edges, depth, seed):
    # Each coarse edge factors through atom-disjoint fine edges, each used at
    # most once: the rows of B hold +-1 on disjoint columns, so B[:, pivots]
    # is a signed permutation and |det B[:, pivots]| = 1.
    system = random_system(edges, depth, seed)
    for e in system.order:
        plan = e.witness.plan(system.labels[e.upper], system.labels[e.lower])
        b = plan.projection.entries
        assert all(x in (-1, 0, 1) for row in b for x in row)
        assert all(any(row) for row in b)
        assert all(sum(x != 0 for x in col) <= 1 for col in zip(*b))
        assert plan.decomposition.lebesgue_factor == 1


# --- incidence numbers ----------------------------------------------------------


def test_incidence_zero_on_untouched_atoms():
    s = Face("S", (("a", Fraction(0)),))
    assert incidence_number(s, word("a", "b")) == 0


def test_incidence_transversal_puncture():
    s = Face("S", (("a", Fraction(1)),))
    assert incidence_number(s, word("a")) == 1
    assert incidence_number(s, word("-a")) == -1


def test_incidence_antisymmetric_exhaustively():
    values = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
    faces = [
        Face("S", tuple(zip(atoms3, combo)))
        for combo in itertools.product(values, repeat=3)
    ]
    words = [word(a) for a in atoms3] + [word(f"-{a}") for a in atoms3]
    for a, b in itertools.permutations(atoms3, 2):
        for sa in (1, -1):
            for sb in (1, -1):
                words.append(EdgeWord(((a, sa), (b, sb))))
    for s in faces[:16]:
        for e in words:
            assert incidence_number(s, e.inverse()) == -incidence_number(s, e)


def test_incidence_half_integer():
    s = Face("S", (("a", Fraction(1, 2)), ("b", Fraction(-1))))
    val = incidence_number(s, word("a", "b"))
    assert val == Fraction(-1, 2)
    assert (2 * val).denominator == 1


# --- flux operators -------------------------------------------------------------


def flux_on(face, graph):
    """The face's flux operator on the graph's words, as ``materialize``
    builds it for a label whose every face is ``face``."""
    label = DpgLabel("L", graph, (face,) * len(graph.edges))
    return materialize(label, graph.edges).ops[0]


def test_flux_dual_face_is_indicator():
    g = Graph((word("a"), word("b")))
    s = Face("S", (("a", Fraction(1)),))
    op = flux_on(s, g)
    assert op.on(dof_id(word("a"))) == 1
    assert op.on(dof_id(word("b"))) == 0


def test_flux_empty_face_is_zero_operator():
    g = Graph((word("a"),))
    op = flux_on(Face("S", ()), g)
    assert op.on(dof_id(word("a"))) == 0


def test_flux_additive_in_incidence():
    g = Graph((word("a", "b"),))
    s1 = Face("S1", (("a", Fraction(1, 2)),))
    s2 = Face("S2", (("a", Fraction(1, 2)), ("b", Fraction(-1))))
    total = Face("S", (("a", Fraction(1)), ("b", Fraction(-1))))
    e = g.edges[0]
    assert incidence_number(s1, e) + incidence_number(s2, e) == incidence_number(
        total, e
    )


# --- graph order ----------------------------------------------------------------


def test_decompose_composed_edge():
    fine = Graph((word("a"), word("b")))
    coarse = Graph((word("a", "b"),))
    factors = decompose_edges(fine, coarse)
    assert factors == {coarse.edges[0]: ((word("a"), 1), (word("b"), 1))}


def test_decompose_disjoint_supports_refused():
    fine = Graph((word("a"),))
    coarse = Graph((word("b"),))
    with pytest.raises(PqkError, match=r"^atom 'b' not covered$"):
        decompose_edges(fine, coarse)
    assert not graph_refines(fine, coarse)


def test_decompose_witness_matches_refines(deep_system):
    rs = deep_system
    for e in rs.order[:6]:
        fine = rs.dlabels[e.upper]
        coarse = rs.dlabels[e.lower]
        factors = decompose_edges(fine.graph, coarse.graph)
        assert set(factors) == set(coarse.graph.edges)
        assert refines(rs.labels[e.upper], rs.labels[e.lower], e.witness)


def test_graph_refines_iff_linear_combination():
    fine = Graph((word("a"), word("b"), word("c")))
    coarse = Graph((word("a", "b"), word("-c")))
    assert graph_refines(fine, coarse)
    factors = decompose_edges(fine, coarse)
    values = word_values((*fine.edges, *coarse.edges))
    for e, parts in factors.items():
        combo = {}
        for f, sign in parts:
            combo[dof_id(f)] = combo.get(dof_id(f), 0) + sign
        lhs = values[dof_id(e)]
        rhs = {}
        for f_dof, c in combo.items():
            for atom, v in values[f_dof].items():
                rhs[atom] = rhs.get(atom, Fraction(0)) + c * v
        assert {k: v for k, v in rhs.items() if v != 0} == lhs


# --- graph join -----------------------------------------------------------------


def same_edges(a, b):
    return {canonical(e) for e in a.edges} == {canonical(e) for e in b.edges}


def test_graph_join_shared_prefix():
    g1 = Graph((word("a", "b"),))
    g2 = Graph((word("a", "c"),))
    joined = graph_join(g1, g2)
    assert same_edges(joined, Graph((word("a"), word("b"), word("c"))))
    assert graph_refines(joined, g1)
    assert graph_refines(joined, g2)


def test_graph_join_idempotent():
    g = Graph((word("a", "b"), word("-c")))
    joined = graph_join(g, g)
    assert same_edges(joined, g)


def test_graph_join_disjoint_union():
    g1 = Graph((word("a"),))
    g2 = Graph((word("b", "c"),))
    joined = graph_join(g1, g2)
    assert same_edges(joined, Graph((word("a"), word("b", "c"))))


def test_graph_join_preserves_atom_support():
    g1 = Graph((word("a", "b", "c"),))
    g2 = Graph((word("b"),))
    joined = graph_join(g1, g2)
    assert joined.atoms == g1.atoms | g2.atoms
    assert graph_refines(joined, g1)
    assert graph_refines(joined, g2)


def test_graph_join_interleaved_overlap():
    g1 = Graph((EdgeWord((("a", 1), ("b", 1), ("c", 1), ("d", 1))),))
    g2 = Graph((EdgeWord((("a", 1), ("b", 1), ("x", 1), ("c", 1), ("d", 1))),))
    joined = graph_join(g1, g2)
    expected = Graph((word("a", "b"), word("c", "d"), word("x")))
    assert same_edges(joined, expected)


def test_graph_join_reversed_copy_is_identified():
    g1 = Graph((word("a", "b"),))
    g2 = Graph((EdgeWord((("b", -1), ("a", -1))),))
    joined = graph_join(g1, g2)
    assert len(joined.edges) == 1
    assert graph_refines(joined, g1) and graph_refines(joined, g2)


def _random_graph_pair(rng, n_atoms=9):
    """Two valid graphs over a shared atom pool with arbitrary overlaps."""
    atoms = [f"t{i}" for i in range(n_atoms)]

    def graph():
        pool = atoms[:]
        rng.shuffle(pool)
        take = rng.randint(1, n_atoms - 1)
        pool = pool[:take]
        edges = []
        while pool:
            k = min(rng.randint(1, 3), len(pool))
            letters = tuple((a, rng.choice((-1, 1))) for a in pool[:k])
            pool = pool[k:]
            edges.append(EdgeWord(letters))
        return Graph(tuple(edges))

    return graph(), graph()


@pytest.mark.parametrize("seed", range(40))
def test_graph_join_randomized_stress(seed):
    import random as pyrandom

    rng = pyrandom.Random(seed)
    for _ in range(12):
        g1, g2 = _random_graph_pair(rng)
        joined = graph_join(g1, g2)  # Graph() validates pairwise disjointness
        assert graph_refines(joined, g1)
        assert graph_refines(joined, g2)
        assert joined.atoms == g1.atoms | g2.atoms


def reference_graph_join(a, b):
    """The closure-based join that the count table replaced, kept as an oracle."""
    words = []
    seen = set()
    for e in (*a.edges, *b.edges):
        c = canonical(e)
        if c not in seen:
            seen.add(c)
            words.append(c)
    membership = {}
    for t, w in enumerate(words):
        for atom in w.atoms:
            membership.setdefault(atom, set()).add(t)

    def consistent(p, q):
        for t in membership[p[0]] | membership[q[0]]:
            letters = words[t].letters
            pos = {atom: i for i, (atom, _) in enumerate(letters)}
            if p[0] not in pos or q[0] not in pos:
                return False
            ip, iq = pos[p[0]], pos[q[0]]
            if ip + 1 == iq:
                if letters[ip] != p or letters[iq] != q:
                    return False
            elif iq + 1 == ip:
                if letters[iq] != (q[0], -q[1]) or letters[ip] != (p[0], -p[1]):
                    return False
            else:
                return False
        return True

    segments = []
    seg_seen = set()
    for w in words:
        run = [w.letters[0]]
        for k in range(1, len(w.letters)):
            if consistent(w.letters[k - 1], w.letters[k]):
                run.append(w.letters[k])
            else:
                seg = canonical(EdgeWord(tuple(run)))
                if seg not in seg_seen:
                    seg_seen.add(seg)
                    segments.append(seg)
                run = [w.letters[k]]
        seg = canonical(EdgeWord(tuple(run)))
        if seg not in seg_seen:
            seg_seen.add(seg)
            segments.append(seg)
    segments.sort(key=dpg._word_key)
    return Graph(tuple(segments))


@pytest.mark.parametrize("n_atoms", (4, 6, 9))
def test_graph_join_matches_the_reference_on_random_pairs(n_atoms):
    rng = random.Random(n_atoms)
    for _ in range(1000):
        g1, g2 = _random_graph_pair(rng, n_atoms)
        assert graph_join(g1, g2) == reference_graph_join(g1, g2)
        assert graph_join(g2, g1) == reference_graph_join(g2, g1)


@pytest.mark.parametrize("edges,depth", [(e, d) for e in range(1, 5) for d in (3, 4)])
def test_graph_join_matches_the_reference_in_random_systems(
    monkeypatch, edges, depth
):
    calls = []
    original = dpg.graph_join

    def recorded(a, b):
        joined = original(a, b)
        calls.append((a, b, joined))
        return joined

    monkeypatch.setattr(dpg, "graph_join", recorded)
    random_system(edges, depth, seed=edges + depth)
    assert calls
    for a, b, joined in calls:
        assert joined == reference_graph_join(a, b)


def _merges(g):
    """Each graph made from g by joining two of its edges into one word."""
    for e, f in itertools.permutations(g.edges, 2):
        rest = tuple(x for x in g.edges if x not in (e, f))
        for tail in (f, f.inverse()):
            yield Graph((*rest, EdgeWord(e.letters + tail.letters)))


@pytest.mark.parametrize("n_atoms", (4, 6, 9))
def test_graph_join_is_coarsest(n_atoms):
    """Merging any two edges of the join breaks refinement of an input."""
    rng = random.Random(100 + n_atoms)
    merges = 0
    for _ in range(300):
        g1, g2 = _random_graph_pair(rng, n_atoms)
        for merged in _merges(graph_join(g1, g2)):
            merges += 1
            assert not (graph_refines(merged, g1) and graph_refines(merged, g2))
    assert merges


def test_decompose_refusal_matches_no_combination():
    fine = Graph((word("a", "b"),))
    coarse = Graph((word("a"),))
    with pytest.raises(
        PqkError, match=r"^word does not factor through 'hol:a\.b' at 'a'$"
    ):
        decompose_edges(fine, coarse)
    assert not graph_refines(fine, coarse)
    # and indeed no scalar multiple of the fine holonomy equals the coarse one
    values = word_values((*fine.edges, *coarse.edges))
    fine_vec = values[dof_id(fine.edges[0])]
    coarse_vec = values[dof_id(coarse.edges[0])]
    assert all(
        {a: c * v for a, v in fine_vec.items() if c * v != 0} != coarse_vec
        for c in (Fraction(1), Fraction(-1), Fraction(1, 2))
    )


# --- dual flux basis ------------------------------------------------------------


def test_dual_flux_basis_identity_pairing():
    g = Graph((word("a"), word("b", "c"), word("-d")))
    label = DpgLabel("L", g, dual_flux_basis(g))
    sys_label = materialize(label, g.edges)
    assert pairing_matrix(sys_label) == ratlin.identity(3)


def test_dual_flux_basis_single_loop_edge():
    g = Graph((word("a"),))
    faces = dual_flux_basis(g)
    assert len(faces) == 1
    assert incidence_number(faces[0], g.edges[0]) == 1


def test_dual_flux_basis_orientation_reversed():
    g = Graph((word("-a", "-b"),))
    faces = dual_flux_basis(g)
    assert incidence_number(faces[0], g.edges[0]) == 1


# --- system join ----------------------------------------------------------------


def _label(name, graph):
    return DpgLabel(name, graph, dual_flux_basis(graph, prefix=f"{name}.f"))


def test_system_join_self_is_block_form():
    g = Graph((word("a", "b"), word("c")))
    la = _label("A", g)
    res = system_join(la, la, "J")
    joined = materialize(res.label, list(res.label.graph.edges) + list(g.edges))
    assert pairing_matrix(joined) == ratlin.identity(res.label.graph.frame().dim)
    assert refines(joined, materialize(la, list(res.label.graph.edges) + list(g.edges)), res.witness_a)


def test_system_join_disjoint_single_edges():
    la = _label("A", Graph((word("a"),)))
    lb = _label("B", Graph((word("b"),)))
    res = system_join(la, lb, "J")
    assert len(res.label.graph.edges) == 2
    uni = list(res.label.graph.edges) + [word("a"), word("b")]
    joined = materialize(res.label, uni)
    assert pairing_matrix(joined) == ratlin.identity(2)
    assert refines(joined, materialize(la, uni), res.witness_a)
    assert refines(joined, materialize(lb, uni), res.witness_b)


def _assert_block_form(g, m):
    n = len(g)
    for i in range(n):
        for j in range(n):
            if i < m and j < m:
                assert g[i][j] == (1 if i == j else 0)
            elif i >= m:
                assert g[i][j] == (1 if i == j else 0)
    assert ratlin.det(g) == 1


@pytest.mark.parametrize("seed", range(12))
def test_system_join_randomized_block_form(seed):
    rs = random_system(1 + seed % 4, 2, seed)
    a, b = rs.dlabels["b0"], rs.dlabels["b1"]
    res = system_join(a, b, "probe")
    uni = list(
        dict.fromkeys(
            (*res.label.graph.edges, *a.graph.edges, *b.graph.edges)
        )
    )
    joined = materialize(res.label, uni)
    _assert_block_form(pairing_matrix(joined), res.span_dim)
    assert refines(joined, materialize(a, uni), res.witness_a)
    assert refines(joined, materialize(b, uni), res.witness_b)


def _combined_incidence(membership, faces):
    total = {}
    for face_id, c in membership.items():
        for atom, v in faces[face_id].incidence:
            total[atom] = total.get(atom, 0) + c * v
    return {atom: v for atom, v in total.items() if v != 0}


@pytest.mark.parametrize(
    "edges,depth", [(e, d) for e in range(1, 7) for d in range(3, 6)]
)
def test_join_witness_combines_lead_face_incidences(edges, depth):
    """Each part face is, exactly, its witness combination of upper faces."""
    for seed in (edges * 10 + depth, 1000 + edges * 10 + depth):
        rs = random_system(edges, depth, seed)
        joins = {name for name in rs.dlabels if name.startswith(("j(", "c"))}
        checked = set()
        for edge in rs.order:
            upper = {f.id: f for f in rs.dlabels[edge.upper].faces}
            for f in rs.dlabels[edge.lower].faces:
                membership = edge.witness.op_membership[f.id]
                assert _combined_incidence(membership, upper) == f.incidence_map
            checked.add(edge.upper)
        assert joins <= checked


def reference_system_join(a, b, name):
    """The Fraction full-pivot join that one Bareiss pass replaced, kept as an
    oracle: (result, whether the separating-atom branch ran)."""
    all_faces = (*a.faces, *b.faces)
    support = sorted({atom for f in all_faces for atom, _ in f.incidence})
    vectors = ratlin.from_sparse((f.incidence_map for f in all_faces), support)
    _, basis_idx = ratlin.rref(ratlin.transpose(vectors))
    basis_faces = tuple(all_faces[i] for i in basis_idx)
    m = len(basis_faces)

    def action(graph):
        return tuple(
            tuple(incidence_number(f, e) for e in graph.edges) for f in basis_faces
        )

    joined = graph_join(a.graph, b.graph)
    act = action(joined)
    separated = ratlin.rank(act) < m
    if separated:
        _, separating = ratlin.rref(tuple(vectors[i] for i in basis_idx))
        extra = Graph(tuple(EdgeWord(((support[c], 1),)) for c in separating))
        joined = graph_join(joined, extra)
        act = action(joined)

    n = len(joined.edges)
    rows = [list(r) for r in act]
    cols = list(range(n))
    for r in range(m):
        _, pivot_row, pivot_pos = min(
            ((-abs(rows[i][cols[p]]), cols[p], i), i, p)
            for p in range(r, n)
            for i in range(r, m)
            if rows[i][cols[p]] != 0
        )
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        cols[r], cols[pivot_pos] = cols[pivot_pos], cols[r]
        top, c = rows[r], cols[r]
        for row in rows[r + 1 :]:
            if row[c] != 0:
                fct = row[c] / top[c]
                for k in cols[r + 1 :]:
                    row[k] -= fct * top[k]
    lead_cols = tuple(tuple(row[c] for c in cols[:m]) for row in act)
    lead_vectors, _ = ratlin.rref(
        ratlin.hstack(lead_cols, tuple(vectors[i] for i in basis_idx))
    )

    new_edges = tuple(joined.edges[c] for c in cols)
    new_graph = Graph(new_edges)
    lead_faces = tuple(
        Face(id=f"{name}.f{j}", incidence=tuple(zip(support, row[m:])))
        for j, row in enumerate(lead_vectors)
    )
    tail_faces = dual_flux_basis(new_graph, prefix=f"{name}.f")[m:] if n > m else ()
    label = DpgLabel(id=name, graph=new_graph, faces=lead_faces + tail_faces)

    def witness_for(part):
        factors = decompose_edges(new_graph, part.graph)
        membership = {}
        for f in part.faces:
            over_lead = (incidence_number(f, e) for e in new_edges[:m])
            membership[f.id] = {
                lead.id: v for lead, v in zip(lead_faces, over_lead) if v != 0
            }
        return systems.OrderWitness(
            combos={
                dof_id(e): {dof_id(f): Fraction(s) for f, s in parts}
                for e, parts in factors.items()
            },
            op_membership=membership,
            dof_values=word_values((*part.graph.edges, *new_graph.edges)),
        )

    result = dpg.JoinResult(label, witness_for(a), witness_for(b), m)
    return result, separated


def join_parts(res):
    """A join result with every key order and edge order kept."""
    witnesses = tuple(
        (ordered(w.combos), ordered(w.op_membership), ordered(w.dof_values))
        for w in (res.witness_a, res.witness_b)
    )
    faces = tuple((f.id, f.incidence) for f in res.label.faces)
    return res.label.id, res.label.graph.edges, faces, witnesses, res.span_dim


def test_system_join_matches_the_reference_in_random_systems(monkeypatch):
    calls = []
    original = dpg.system_join

    def recorded(a, b, name):
        res = original(a, b, name)
        calls.append((a, b, name, res))
        return res

    monkeypatch.setattr(dpg, "system_join", recorded)
    for edges, depth, seed in itertools.product(range(1, 7), range(3, 6), range(5)):
        random_system(edges, depth, seed)
    separated = 0
    for a, b, name, res in calls:
        expected, branch = reference_system_join(a, b, name)
        assert join_parts(res) == join_parts(expected)
        separated += branch
    assert separated
    # Faces in thirds and elevenths, and denominators past 2**14, are joined.
    denominators = {
        v.denominator for a, b, _, res in calls
        for f in (*a.faces, *b.faces, *res.label.faces) for _, v in f.incidence
    }
    assert any(d % 3 == 0 for d in denominators)
    assert any(d % 11 == 0 for d in denominators)
    assert max(denominators) > 2**14


def test_system_join_of_faces_with_no_incidence_matches_the_reference():
    g1, g2 = Graph((word("a", "b"), word("c"))), Graph((word("b"), word("-c", "-d")))
    empty = DpgLabel("E", g1, (Face("E.f0", ()), Face("E.f1", ())))
    for other in (DpgLabel("F", g2, (Face("F.f0", ()), Face("F.f1", ()))),
                  _label("D", g2)):
        for a, b in ((empty, other), (other, empty)):
            res = system_join(a, b, "J")
            expected, _ = reference_system_join(a, b, "J")
            assert join_parts(res) == join_parts(expected)
    assert system_join(empty, empty, "J").span_dim == 0


# --- random systems -------------------------------------------------------------


def test_random_system_minimal():
    rs = random_system(1, 1, seed=0)
    assert sorted(rs.labels) == ["b0"]
    label = rs.labels["b0"]
    assert pairing_matrix(label) == ratlin.identity(label.dim)
    assert rs.order == ()


@pytest.mark.parametrize("n_edges, depth", [(0, 3), (3, 0), (0, 0)])
def test_random_system_refuses_no_edges_and_no_depth(n_edges, depth):
    with pytest.raises(ValueError, match="n_edges and depth must be at least 1"):
        random_system(n_edges, depth, seed=1)


@pytest.mark.parametrize("a, b, name, detail", [
    ("b0", "b1", "b2", "label 'b2' already present"),
    ("b0", "b1", "j(b0+b1)", "label 'j(b0+b1)' already present"),
    ("b0", "b0", "x", "cannot join 'b0' with itself"),
    ("zz", "b0", "x", "unknown label 'zz'"),
    ("b0", "zz", "x", "unknown label 'zz'"),
    ("zz", "zz", "b0", "unknown label 'zz'"),
], ids=["present", "present-join", "self", "unknown-first", "unknown-second",
        "unknown-before-self-and-present"])
def test_with_join_refuses_a_present_name_and_a_self_join(a, b, name, detail):
    # A join under a present name used to replace that label: b2 became
    # j(b0+b1)'s copy and the family failed A6 and directed.  An unknown
    # label is named as such, before the self-join and present-name rules.
    rs = random_system(2, 3, 1)
    with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
        rs.with_join(a, b, name)


def test_random_system_depth_two_structure():
    rs = random_system(3, 2, seed=5)
    assert {"b0", "b1", "j(b0+b1)"} <= set(rs.labels)
    pairs = {(e.upper, e.lower) for e in rs.order}
    assert ("j(b0+b1)", "b0") in pairs
    assert ("j(b0+b1)", "b1") in pairs


def test_random_system_deterministic():
    r1 = random_system(3, 2, seed=42)
    r2 = random_system(3, 2, seed=42)
    assert sorted(r1.labels) == sorted(r2.labels)
    for name in r1.labels:
        assert r1.labels[name] == r2.labels[name]
    assert [(e.upper, e.lower) for e in r1.order] == [
        (e.upper, e.lower) for e in r2.order
    ]
    for e1, e2 in zip(r1.order, r2.order):
        assert e1.witness.combos == e2.witness.combos
        assert e1.witness.op_membership == e2.witness.op_membership


@pytest.mark.parametrize("edges, depth, seed", [(3, 2, 7), (2, 3, 11), (4, 4, 0)])
def test_flip_witnesses_are_read_off_the_decomposition(edges, depth, seed):
    """b0t >= b0 and b0 >= b0t: -1 on the flipped first edge, +1 on every
    other edge, and each of b0's faces as itself."""
    rs = random_system(edges, depth, seed)
    b0, b0t = rs.dlabels["b0"], rs.dlabels["b0t"]
    witnesses = {(e.upper, e.lower): e.witness for e in rs.order}
    for upper, lower, fine, coarse in (
        ("b0t", "b0", b0t.graph, b0.graph),
        ("b0", "b0t", b0.graph, b0t.graph),
    ):
        witness = witnesses[upper, lower]
        assert witness.combos == {
            dof_id(e): {dof_id(f): Fraction(-1 if k == 0 else 1)}
            for k, (e, f) in enumerate(zip(coarse.edges, fine.edges))
        }
        assert witness.op_membership == {f.id: {f.id: 1} for f in b0.faces}
        assert set(witness.dof_values) == set(fine.dofs) | set(coarse.dofs)


def test_graph_witness_refuses_a_pair_that_does_not_refine():
    fine, coarse = Graph((word("a"),)), Graph((word("a", "b"),))
    with pytest.raises(PqkError, match="atom 'b' not covered"):
        dpg._graph_witness(fine, coarse, {})


def _count_calls(monkeypatch, *names, module=dpg):
    """Wrap each named function of ``module`` so that its calls are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_generating_and_writing_a_system_builds_no_labels_or_probes(monkeypatch):
    # io.default_probes, the one probe builder, calls its own binding of
    # span_probe once per label.
    calls = _count_calls(monkeypatch, "materialize")
    probes = _count_calls(monkeypatch, "span_probe", module=pio)
    for edges, depth in ((1, 1), (3, 2), (2, 4)):
        pio.system_to_document(random_system(edges, depth, seed=3))
    assert calls == {"materialize": 0} and probes == {"span_probe": 0}


def test_system_labels_are_built_once_on_first_access(monkeypatch):
    calls = _count_calls(monkeypatch, "materialize")
    generated = random_system(3, 3, seed=1)
    loaded = pio.document_to_system(pio.system_to_document(generated))
    for system in (generated, loaded):
        before = calls["materialize"]
        labels = system.labels
        assert system.labels is labels
        assert list(labels) == list(system.dlabels)
        assert calls["materialize"] - before == len(system.dlabels)
    assert loaded.labels == generated.labels


def test_random_system_chains_exist_at_depth_three(deep_system):
    assert deep_system.chains()


def test_chains_are_the_witnessed_triples_of_three_labels(deep_system):
    # (top, mid, bot) is a chain when top >= mid, mid >= bot and top >= bot
    # are all witnessed, in name order.
    pairs = {(e.upper, e.lower) for e in deep_system.order}
    want = sorted((t, m, b) for t, m in pairs for m2, b in pairs
                  if m == m2 and (t, b) in pairs and len({t, m, b}) == 3)
    assert list(deep_system.chains()) == want


# sha256 of the document io.dump_json writes for random_system(edges, depth,
# seed), keyed (depth, edges, seed): the shallow shapes whose bytes the
# perfbench refs (depths 3-5) do not pin.
SHALLOW_DIGESTS = {
    (1, 1, 0): "4d83bcbb25597a05359f2e478b9e1acff1042cc36e2b2fc100ce4ad8aa5d41c4",
    (1, 1, 1): "327c59784ee4987a1d90afe8dff96cd8bcc8418acd07b8d08fb547d18ae33778",
    (1, 1, 2): "327c59784ee4987a1d90afe8dff96cd8bcc8418acd07b8d08fb547d18ae33778",
    (1, 2, 0): "b6b23e05b1baa577ff4a39badf2db2fbfd46f3d836b5b8ff74683b59475150ba",
    (1, 2, 1): "7e56a38e1ccc3e36c4da9ac3fe0b98e951570db3114ada37f2c9b46448fcf02b",
    (1, 2, 2): "3aaf246afaa7fe09761781f31969676796e20e44871ae02606a2e80cf725c0b1",
    (1, 3, 0): "f03f892dfa75391857c338c09f4cd088a195e95c6a54fa06b07d93b60c1f51ef",
    (1, 3, 1): "c8e190e0b6ca15121fe849401d149896a60b8c339fa5ce51c0a681a4d5398658",
    (1, 3, 2): "c64dd16b9eb42cab6642d74820c3fee51911e5eec8da6f726630a1172101623b",
    (2, 1, 0): "723f141b9e0b7af499341822f94db9f73d5ccff3de055ca6e8d7df385b5b5dad",
    (2, 1, 1): "3679a8f7e33b4d0353f6e4eb4b7b8d377dbe0c20ac385afda6860627c2b8915e",
    (2, 1, 2): "0fd6d0f409c1e471602dcd0da8dfd53733e1f25fca561f4d10a52646833cb8f2",
    (2, 2, 0): "7d25939b44331c345471d42bafb4672e4ffd1e995c7aa99041a9911461359e13",
    (2, 2, 1): "58623e3d7a5e929805f48f36b338c90dbd4c98dc97e809a59a7773bc526d7201",
    (2, 2, 2): "6d6c5127eb9a188527a9baf1356066ddf458460564417da6f6819ce4b673bf44",
    (2, 3, 0): "2369b40d978c7e88b7dc6b72d10f2e147dd0d14a883a4b40f6bfb47e13ccfc8b",
    (2, 3, 1): "d5392ac30aeb89eb7544358c05887ba75ba6f5d3330aa2f970e32095e9001ef2",
    (2, 3, 2): "7b98ebd0632ee23afa9085d8e70347dc85534173727cc9c7c00252ad1c5ca035",
}


@pytest.mark.parametrize("depth, edges, seed", sorted(SHALLOW_DIGESTS))
def test_shallow_generated_documents_keep_their_bytes(tmp_path, depth, edges, seed):
    path = tmp_path / "sys.json"
    pio.dump_json(pio.system_to_document(random_system(edges, depth, seed)), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SHALLOW_DIGESTS[depth, edges, seed]


# --- the sparse-row kernel against the loops it replaced ------------------------


def naive_compose_rows(outer, inner):
    out = {}
    for key, mid_row in inner.items():
        row = {}
        for mid, c in mid_row.items():
            for top, b in outer.get(mid, {}).items():
                row[top] = row.get(top, Fraction(0)) + c * b
        out[key] = {k: v for k, v in row.items() if v != 0}
    return out


def naive_sparse_combination(rows, coeffs):
    out = {}
    for dof, c in coeffs.items():
        for probe, v in rows[dof].items():
            out[probe] = out.get(probe, Fraction(0)) + c * v
    return {p: v for p, v in out.items() if v != 0}


def naive_combine_faces(coeffs, faces, new_id):
    incidence = {}
    for c, f in zip(coeffs, faces):
        for a, v in f.incidence:
            incidence[a] = incidence.get(a, Fraction(0)) + c * v
    return Face(id=new_id, incidence=tuple(incidence.items()))


def ordered(rows):
    """Nested rows as lists of items, so that key order is compared too."""
    return [(k, list(row.items())) for k, row in rows.items()]


@pytest.mark.parametrize("edges,depth", [(e, d) for e in range(1, 5) for d in (3, 4)])
def test_sparse_kernel_matches_the_former_loops(edges, depth):
    rs = random_system(edges, depth, seed=10 * edges + depth)
    for outer, inner in itertools.product(rs.order, repeat=2):
        if outer.lower != inner.upper:
            continue
        for name in ("combos", "op_membership"):
            a, b = getattr(outer.witness, name), getattr(inner.witness, name)
            assert ordered(systems._compose_rows(a, b)) == ordered(
                naive_compose_rows(a, b)
            )
    for edge in rs.order:
        values = edge.witness.dof_values
        for row in edge.witness.combos.values():
            got = ratlin.combine((c, values[d]) for d, c in row.items())
            assert list(got.items()) == list(
                naive_sparse_combination(values, row).items()
            )
    for n, label in enumerate(rs.dlabels.values()):
        faces, k = label.faces, len(label.faces)
        u = dpg._unimodular(random.Random(n), k)
        maps = [f.incidence_map for f in faces]
        for j in range(k):
            got = Face(f"t{j}", ratlin.combine(zip(u[j], maps)))
            assert got == naive_combine_faces(u[j], faces, f"t{j}")
