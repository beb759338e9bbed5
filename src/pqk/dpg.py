"""The package's worked example: holonomies on combinatorial graphs paired
with face flux operators (the DPG model).

Geometry is replaced by incidence data.  Atomic edges are indivisible
oriented curve segments; edges are reduced words of signed atoms; a graph is
a set of pairwise atom-disjoint edges; a face is a map assigning each atom
its signed crossing/touching number, from which the flux action on any edge
follows by linearity.  Every construction below is exact and deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, pairwise
from math import lcm
from typing import Iterable, Mapping, Sequence

from . import ratlin
from .errors import DimensionMismatchError, OrderViolationError, PqkError
from .frames import DofId, ReducedFrame
from .ratlin import Fraction
from .systems import (
    MomentumOperator,
    OrderEdge,
    OrderWitness,
    SpanProbe,
    SystemLabel,
    close_witnesses,
)

Sign = int
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class AtomicEdge:
    """An indivisible oriented edge between two nodes."""

    id: str
    source: str
    target: str
    loop: bool = False

    def __post_init__(self):
        if self.loop and self.source != self.target:
            raise ValueError(f"loop atom {self.id!r} must close on one node")
        if not self.loop and self.source == self.target:
            raise ValueError(f"atom {self.id!r} closes on itself but is not a loop")


@dataclass(frozen=True)
class EdgeWord:
    """A reduced composable word of signed atoms, traversed in order."""

    letters: tuple[tuple[str, Sign], ...]

    def __post_init__(self):
        letters = tuple((str(a), int(s)) for a, s in self.letters)
        if not letters:
            raise ValueError("an edge word needs at least one letter")
        if any(s not in (-1, 1) for _, s in letters):
            raise ValueError("letter signs must be +1 or -1")
        atoms = [a for a, _ in letters]
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"edge word repeats an atom: {atoms}")
        object.__setattr__(self, "letters", letters)

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.letters)

    def inverse(self) -> "EdgeWord":
        return EdgeWord(tuple((a, -s) for a, s in reversed(self.letters)))


def word(*letters: str) -> EdgeWord:
    """Shorthand: word('a', '-b', 'c') -> a, then b reversed, then c."""
    return EdgeWord(tuple((x[1:], -1) if x.startswith("-") else (x, 1) for x in letters))


def dof_id(w: EdgeWord) -> DofId:
    """Canonical identifier of the holonomy d.o.f. of an oriented word."""
    return "hol:" + ".".join(("-" if s < 0 else "") + a for a, s in w.letters)


def _word_key(w: EdgeWord) -> tuple:
    return tuple((a, 0 if s > 0 else 1) for a, s in w.letters)


def canonical(w: EdgeWord) -> EdgeWord:
    """The lexicographically smaller of a word and its inverse."""
    inv = w.inverse()
    return w if _word_key(w) <= _word_key(inv) else inv


def validate_word(w: EdgeWord, atoms: Mapping[str, AtomicEdge]) -> None:
    """Check atom existence and endpoint composability against a registry."""
    prev_end = None
    for a, s in w.letters:
        if a not in atoms:
            raise DimensionMismatchError(f"unknown atom {a!r} in edge word")
        atom = atoms[a]
        start, end = (atom.source, atom.target) if s > 0 else (atom.target, atom.source)
        if prev_end is not None and prev_end != start:
            raise DimensionMismatchError(
                f"edge word is not composable at atom {a!r}"
            )
        prev_end = end


@dataclass(frozen=True)
class Graph:
    """A finite set of pairwise atom-disjoint edges, in a fixed order."""

    edges: tuple[EdgeWord, ...]

    def __post_init__(self):
        edges = tuple(self.edges)
        seen: set[str] = set()
        for e in edges:
            overlap = seen & set(e.atoms)
            if overlap:
                raise ValueError(f"edges share atoms {sorted(overlap)}")
            seen |= set(e.atoms)
        object.__setattr__(self, "edges", edges)

    @property
    def atoms(self) -> frozenset[str]:
        return frozenset(a for e in self.edges for a in e.atoms)

    @cached_property
    def dofs(self) -> tuple[DofId, ...]:
        return tuple(dof_id(e) for e in self.edges)

    def frame(self) -> ReducedFrame:
        return ReducedFrame(self.dofs)


@dataclass(frozen=True)
class Face:
    """Signed atom incidences of one flux surface.

    Geometric faces use values in {-1, -1/2, 0, 1/2, 1}: a half for each
    oriented endpoint touching, a whole for a transversal puncture.
    Synthesized faces (operator basis changes) may carry any rational.
    """

    id: str
    incidence: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        pairs = ratlin.exact_pairs(self.incidence, f"face {self.id!r}", "incidence")
        object.__setattr__(self, "incidence", tuple(p for p in pairs if p[1]))

    @cached_property
    def incidence_map(self) -> dict[str, Fraction]:
        return dict(self.incidence)


@dataclass(frozen=True)
class TestConnection:
    """Finitely supported atom holonomy assignments probing configurations."""

    __test__ = False  # not a pytest class, despite the name

    values: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        pairs = ratlin.exact_pairs(self.values, "test connection", "value")
        object.__setattr__(self, "values", tuple(p for p in pairs if p[1]))

    @cached_property
    def value_map(self) -> dict[str, Fraction]:
        return dict(self.values)


def holonomy(e: EdgeWord, conn: TestConnection) -> Fraction:
    """Signed sum of the connection's atom values along the word."""
    values = conn.value_map
    return Fraction(sum(s * values[a] for a, s in e.letters if a in values))


def witness_connection(graph: Graph, targets: Sequence) -> TestConnection:
    """A connection whose holonomies on the graph's edges hit the targets.

    Puts each target (sign-corrected) on the first atom of its edge; atom
    disjointness makes the assignments independent.
    """
    if len(targets) != len(graph.edges):
        raise DimensionMismatchError(
            f"{len(targets)} targets for {len(graph.edges)} edges"
        )
    values = {}
    for e, t in zip(graph.edges, targets):
        a, s = e.letters[0]
        values[a] = s * ratlin.as_fraction(t)
    return TestConnection(tuple(values.items()))


def incidence_number(face: Face, e: EdgeWord) -> Fraction:
    """Total signed incidence of an edge word with a face."""
    # Signs are +-1.  Most words miss a given face; they share one zero.
    inc = face.incidence_map
    terms = [inc[a] if s > 0 else -inc[a] for a, s in e.letters if a in inc]
    return sum(terms[1:], terms[0]) if terms else _ZERO


def word_values(words: Iterable[EdgeWord]) -> dict[DofId, dict[str, Fraction]]:
    """Evaluation data: each word's holonomy on the per-atom probe basis."""
    return {
        dof_id(w): {a: Fraction(s) for a, s in w.letters} for w in words
    }


# --- graph order -------------------------------------------------------------


def decompose_edges(fine: Graph, coarse: Graph) -> dict[EdgeWord, tuple]:
    """Factor every coarse edge as a concatenation of fine edges and inverses,
    each coarse edge to its ``((fine edge, +-1), ...)``.

    Fine edges are atom-disjoint, so the factorization is forced: at each
    position the owning fine edge must match forward or reversed in full.
    A pair that does not refine raises :class:`PqkError` with the reason.
    """
    owner: dict[str, EdgeWord] = {}
    for e in fine.edges:
        for a in e.atoms:
            owner[a] = e
    factors: dict[EdgeWord, tuple[tuple[EdgeWord, Sign], ...]] = {}
    for e in coarse.edges:
        parts: list[tuple[EdgeWord, Sign]] = []
        k = 0
        letters = e.letters
        while k < len(letters):
            a, s = letters[k]
            f = owner.get(a)
            if f is None:
                raise PqkError(f"atom {a!r} not covered")
            m = len(f.letters)
            if letters[k : k + m] == f.letters:
                parts.append((f, 1))
            elif letters[k : k + m] == f.inverse().letters:
                parts.append((f, -1))
            else:
                raise PqkError(f"word does not factor through {dof_id(f)!r} at {a!r}")
            k += m
        factors[e] = tuple(parts)
    return factors


def graph_refines(fine: Graph, coarse: Graph) -> bool:
    """Whether every coarse edge factors through the fine edges."""
    try:
        decompose_edges(fine, coarse)
    except PqkError:
        return False
    return True


def order_witness(fine: Graph, coarse: Graph, combos: Mapping,
                  membership: Mapping) -> OrderWitness:
    """The witness of ``fine >= coarse`` with the given combinations and
    membership rows, evaluated on exactly the two graphs' words: the one
    builder of DPG order witnesses, generated or loaded."""
    return OrderWitness(combos, membership, word_values((*coarse.edges, *fine.edges)))


def _graph_witness(fine: Graph, coarse: Graph, membership: Mapping) -> OrderWitness:
    """The witness of a graph refinement: each coarse edge over the fine
    edges it factors through (:func:`order_witness`).  A pair that does not
    refine raises :class:`PqkError` with the decomposition's reason.

    A coarse edge uses each fine edge at most once (a word repeats no atom),
    with sign +-1, and no fine edge serves two coarse edges (they share no
    atom).  So the rows of B hold +-1 on disjoint columns, as do products
    of such B (composed witnesses), and every DPG projection has Lebesgue
    factor 1/|det B[:, pivots]| = 1."""
    combos = {
        dof_id(e): ratlin.combine((s, {dof_id(f): _ONE}) for f, s in parts)
        for e, parts in decompose_edges(fine, coarse).items()
    }
    return order_witness(fine, coarse, combos, membership)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Common refinement: the coarsest graph refining both inputs.

    Words are cut between consecutive letters p, q unless as many words hold
    the link p, q (read either way: p, q or q⁻¹, p⁻¹) as hold p's atom and as
    hold q's atom; a word holding the link holds both atoms, so that is when
    every word containing either atom holds it.  The surviving maximal runs
    are the result's edges, canonically oriented and deduplicated.  The union
    of atomic supports is preserved.
    """
    words = dict.fromkeys(canonical(e) for e in (*a.edges, *b.edges))
    holders = Counter(atom for w in words for atom in w.atoms)
    links = Counter(_link(p, q) for w in words for p, q in pairwise(w.letters))
    runs: dict[EdgeWord, None] = {}
    for w in words:
        run = [w.letters[0]]
        for p, q in pairwise(w.letters):
            if not links[_link(p, q)] == holders[p[0]] == holders[q[0]]:
                runs[canonical(EdgeWord(tuple(run)))] = None
                run = []
            run.append(q)
        runs[canonical(EdgeWord(tuple(run)))] = None
    return Graph(tuple(sorted(runs, key=_word_key)))


def _link(p: tuple[str, Sign], q: tuple[str, Sign]) -> tuple:
    """One key for the link p, q and its reversed-inverted reading q⁻¹, p⁻¹."""
    return min((p, q), ((q[0], -q[1]), (p[0], -p[1])))


def dual_flux_basis(graph: Graph, prefix: str = "dual") -> tuple[Face, ...]:
    """Fresh faces pairing diagonally with the graph's edges.

    Each face touches one private atom of its edge with the letter's own
    sign, so the pairing matrix of the resulting label is the identity.
    """
    if not graph.edges:
        raise DimensionMismatchError("dual basis of an empty graph")
    faces = []
    for j, e in enumerate(graph.edges):
        a, s = e.letters[0]
        faces.append(Face(id=f"{prefix}{j}", incidence=((a, Fraction(s)),)))
    return tuple(faces)


# --- labels and the directed-set join ----------------------------------------


@dataclass(frozen=True)
class DpgLabel:
    """A graph together with the faces forming its flux-operator basis."""

    id: str
    graph: Graph
    faces: tuple[Face, ...]

    def __post_init__(self):
        if not self.graph.edges:
            raise DimensionMismatchError(f"label {self.id!r}: graph has no edges")
        if len(self.faces) != len(self.graph.edges):
            raise DimensionMismatchError(
                f"label {self.id!r}: {len(self.faces)} faces for "
                f"{len(self.graph.edges)} edges"
            )


def materialize(label: DpgLabel, words: Iterable[EdgeWord]) -> SystemLabel:
    """The generic system view of a label: each face's flux operator, acting
    on each given word by the face's incidence number with it (a zero
    included, so every word has an entry)."""
    keyed = [(dof_id(w), w) for w in words]
    ops = (MomentumOperator(f.id, {d: incidence_number(f, w) for d, w in keyed})
           for f in label.faces)
    return SystemLabel(ops=tuple(ops), frame=label.graph.frame())


@dataclass(frozen=True)
class JoinResult:
    label: DpgLabel
    witness_a: OrderWitness
    witness_b: OrderWitness
    span_dim: int


def system_join(a: DpgLabel, b: DpgLabel, name: str) -> JoinResult:
    """A common upper bound of two labels, with witnesses to both.

    The operator spans are merged into a basis, the graphs are jointly
    refined (and further split until the merged operators act independently
    on the edge holonomies), and the basis is completed and row-reduced so
    the emitted pairing matrix is exactly [[I, G'], [0, I]] with unit
    determinant.
    """
    all_faces = (*a.faces, *b.faces)
    support = sorted({atom for f in all_faces for atom, _ in f.incidence})
    vectors = ratlin.from_sparse((f.incidence_map for f in all_faces), support)
    # Atoms as rows, faces as columns: the pivot columns are the greedy face
    # basis, which spans every face of both labels.
    basis_idx = ratlin.echelon(ratlin.transpose(vectors)).pivots
    basis_faces = tuple(all_faces[i] for i in basis_idx)
    m = len(basis_faces)

    # One common scale makes the incidences, and so the actions on edges
    # (signed sums of them), integers.  The lead faces pair with the first m
    # edges of cols as I: they are inv(A) B, with A = act[:, cols[:m]] and B
    # the incidences.  Each basis face over the lead faces is a row of A.
    scale = lcm(*(v.denominator for f in basis_faces for _, v in f.incidence))
    ints = [{x: v.numerator * (scale // v.denominator) for x, v in f.incidence}
            for f in basis_faces]

    def solve(graph: Graph) -> tuple[list[int], ratlin.Mat] | None:
        rows = [[sum(s * v[x] for x, s in e.letters if x in v) for e in graph.edges]
                + [v.get(x, 0) for x in support] for v in ints]
        return ratlin.full_pivot_solve(rows, len(graph.edges))

    joined = graph_join(a.graph, b.graph)
    solved = solve(joined)
    if solved is None:
        # rank(act) < m; the m independent basis vectors have m pivot atoms.
        separating = ratlin.echelon(tuple(vectors[i] for i in basis_idx)).pivots
        extra = Graph(tuple(EdgeWord(((support[c], 1),)) for c in separating))
        joined = graph_join(joined, extra)
        solved = solve(joined)
    cols, lead_vectors = solved

    new_edges = tuple(joined.edges[c] for c in cols)
    new_graph = Graph(new_edges)
    lead_faces = tuple(
        Face(id=f"{name}.f{j}", incidence=tuple(zip(support, row)))
        for j, row in enumerate(lead_vectors)
    )
    tail_faces = dual_flux_basis(new_graph, prefix=f"{name}.f")[m:]
    label = DpgLabel(id=name, graph=new_graph, faces=lead_faces + tail_faces)

    def witness_for(part: DpgLabel) -> OrderWitness:
        # Every part face lies in the basis faces' span, so (see the lead
        # faces) its lead-face coordinates are its incidences with lead edges.
        membership = {}
        for f in part.faces:
            over_lead = (incidence_number(f, e) for e in new_edges[:m])
            membership[f.id] = {
                lead.id: v for lead, v in zip(lead_faces, over_lead) if v != 0
            }
        return _graph_witness(new_graph, part.graph, membership)

    return JoinResult(
        label=label,
        witness_a=witness_for(a),
        witness_b=witness_for(b),
        span_dim=m,
    )


# --- families ------------------------------------------------------------------


@dataclass(frozen=True)
class System:
    """A family of labels with its witnessed order, generated or loaded.

    It holds exactly what its document holds.  ``words`` maps edge ids to
    the words every label is materialized on; ``labels`` is that system
    view, built on first access and then kept, so witness plans see the
    same label objects every time.  :meth:`with_join` is the one way a
    family grows.  Audit probes come from :func:`pqk.io.default_probes`.
    """

    atoms: Mapping[str, AtomicEdge]
    words: Mapping[str, EdgeWord]
    dlabels: Mapping[str, DpgLabel]
    order: tuple[OrderEdge, ...]

    @cached_property
    def labels(self) -> dict[str, SystemLabel]:
        words = self.words.values()
        return {name: materialize(d, words) for name, d in self.dlabels.items()}

    def find_witness(self, upper: str, lower: str) -> OrderWitness:
        """The declared witness for ``upper >= lower``, else a composed one."""
        closure = close_witnesses(self.order, upper)
        if lower not in closure:
            raise OrderViolationError(f"no witnessed relation {upper} >= {lower}")
        return closure[lower]

    def with_join(self, a: str, b: str, name: str) -> tuple["System", JoinResult]:
        """This family with the join of ``a`` and ``b`` added as ``name``.

        Existing edge ids are kept; each new word takes the first free
        ``e<i>`` counting from ``len(words)``.  ``name`` gets witnesses to
        ``a`` and ``b`` and, composed from them, to every label they reach.
        Raises ``ValueError`` when ``a`` or ``b`` is not a label, ``a`` is
        ``b`` or ``name`` is a label, in that order.
        """
        if unknown := [x for x in (a, b) if x not in self.dlabels]:
            raise ValueError(f"unknown label {unknown[0]!r}")
        if a == b:
            raise ValueError(f"cannot join {a!r} with itself")
        if name in self.dlabels:
            raise ValueError(f"label {name!r} already present")
        result = system_join(self.dlabels[a], self.dlabels[b], name)
        words = dict(self.words)
        known = set(words.values())
        fresh = (f"e{i}" for i in count(len(words)) if f"e{i}" not in words)
        for e in result.label.graph.edges:
            if e not in known:
                words[next(fresh)] = e
        closure = close_witnesses((*self.order, OrderEdge(name, a, result.witness_a),
                                   OrderEdge(name, b, result.witness_b)), name)
        dlabels = {**self.dlabels, name: result.label}
        order = (*self.order, *(OrderEdge(name, x, w) for x, w in closure.items()))
        return replace(self, words=words, dlabels=dlabels, order=order), result

    def chains(self) -> tuple[tuple[str, str, str], ...]:
        """All witnessed triples top >= mid >= bottom."""
        pairs = {(e.upper, e.lower) for e in self.order}
        out = []
        for top, mid in sorted(pairs):
            for mid2, bot in sorted(pairs):
                if mid == mid2 and (top, bot) in pairs and top != mid != bot:
                    out.append((top, mid, bot))
        return tuple(out)


def span_probe(label: DpgLabel) -> SpanProbe:
    """A1a probe: the label's frame spans the inverses of its edges."""
    edges = label.graph.edges
    inverses = tuple(e.inverse() for e in edges)
    return SpanProbe(
        label=label.id,
        combos={
            dof_id(inv): {dof_id(e): Fraction(-1)} for inv, e in zip(inverses, edges)
        },
        dof_values=word_values((*edges, *inverses)),
    )


# --- seeded random systems ----------------------------------------------------


def _random_graph(rng: random.Random, n_edges: int, atom_ids: Sequence[str]) -> Graph:
    edges = []
    start = 0
    for _ in range(n_edges):
        length = rng.choice((1, 1, 2, 3))
        atoms = atom_ids[start : start + length]
        start += length + rng.choice((0, 1))
        letters = tuple((a, 1) for a in atoms)
        w = EdgeWord(letters)
        if rng.random() < 0.5:
            w = w.inverse()
        edges.append(w)
    return Graph(tuple(edges))


def _unimodular(rng: random.Random, n: int) -> ratlin.Mat:
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
    return ratlin.matmul(tuple(map(tuple, lower)), tuple(map(tuple, upper)))


def _random_label(
    rng: random.Random, name: str, graph: Graph, plain_dual: bool
) -> DpgLabel:
    duals = dual_flux_basis(graph, prefix=f"{name}.f")
    if plain_dual:
        return DpgLabel(id=name, graph=graph, faces=duals)
    n = len(graph.edges)
    if rng.random() < 0.5:
        u = _unimodular(rng, n)
        maps = [f.incidence_map for f in duals]
        faces = tuple(
            Face(f"{name}.f{j}", ratlin.combine(zip(u[j], maps))) for j in range(n)
        )
        return DpgLabel(id=name, graph=graph, faces=faces)
    graph_atoms = sorted(graph.atoms)
    for _ in range(10):
        faces = []
        for j in range(n):
            incidence = {}
            for atom in graph_atoms:
                if rng.random() < 0.6:
                    incidence[atom] = rng.choice(
                        (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
                    )
            faces.append(Face(id=f"{name}.f{j}", incidence=tuple(incidence.items())))
        candidate = tuple(
            tuple(incidence_number(f, e) for e in graph.edges) for f in faces
        )
        if len(ratlin.echelon(candidate).pivots) == n:
            return DpgLabel(id=name, graph=graph, faces=tuple(faces))
    return DpgLabel(id=name, graph=graph, faces=duals)


def random_system(n_edges: int, depth: int, seed: int) -> System:
    """Deterministic family of labels built by repeated joins.

    Starts from ``depth`` base labels on random graphs and, for depth >= 2,
    an orientation-flipped twin ``b0t`` of the first, witnessed both ways;
    edge ids ``e0, e1, ...`` number their words in order of first
    appearance.  Every pairwise join and, for depth >= 3, a chain of
    iterated joins are then added with :meth:`System.with_join`, so the
    order holds every witnessed relation (direct and composed).  The audit
    reads its probes off the result with :func:`pqk.io.default_probes`, as
    for a loaded family.
    """
    if n_edges < 1 or depth < 1:
        raise ValueError("n_edges and depth must be at least 1")
    rng = random.Random(seed)
    pool = 4 * n_edges + 2
    atoms = {
        f"a{i:02d}": AtomicEdge(f"a{i:02d}", f"v{i:02d}", f"v{i + 1:02d}")
        for i in range(pool)
    }
    atom_ids = sorted(atoms)

    dlabels: dict[str, DpgLabel] = {}
    order: tuple[OrderEdge, ...] = ()

    for i in range(depth):
        graph = _random_graph(rng, n_edges, atom_ids)
        dlabels[f"b{i}"] = _random_label(rng, f"b{i}", graph, plain_dual=(i == 0))

    if depth >= 2:
        b0 = dlabels["b0"]
        flipped = Graph((b0.graph.edges[0].inverse(), *b0.graph.edges[1:]))
        dlabels["b0t"] = DpgLabel(id="b0t", graph=flipped, faces=b0.faces)
        same_faces = {f.id: {f.id: _ONE} for f in b0.faces}
        order = (
            OrderEdge("b0t", "b0", _graph_witness(flipped, b0.graph, same_faces)),
            OrderEdge("b0", "b0t", _graph_witness(b0.graph, flipped, same_faces)),
        )

    first_seen = dict.fromkeys(e for d in dlabels.values() for e in d.graph.edges)
    words = {f"e{i}": w for i, w in enumerate(first_seen)}
    system = System(atoms=atoms, words=words, dlabels=dlabels, order=order)
    for i in range(depth):
        for j in range(i + 1, depth):
            system, _ = system.with_join(f"b{i}", f"b{j}", f"j(b{i}+b{j})")
    for k in range(2, depth):
        below = "j(b0+b1)" if k == 2 else f"c{k - 1}"
        system, _ = system.with_join(below, f"b{k}", f"c{k}")

    return replace(
        system,
        dlabels=dict(sorted(system.dlabels.items())),
        order=tuple(sorted(system.order, key=lambda e: (e.upper, e.lower))),
    )
