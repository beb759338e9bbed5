"""JSON document formats for systems, states and almost-periodic vectors.

Rationals serialize as ints, halves as floats while a float holds them
exactly, or "p/q" strings; JSON booleans are never read as numbers; complex
numbers as [re, im] pairs; matrices row-major.  Loading re-validates
structural invariants (referential integrity, word composability, graph
disjointness, kernel structure) and raises :class:`DocumentError` naming
the offending field.  Semantic conditions (nondegeneracy, witness
verification) are left to the assumption audit so that defective systems
load and then fail verification rather than failing to parse.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .almost_periodic import APVector, Frequency, QC
from .dpg import (
    AtomicEdge,
    DpgLabel,
    EdgeWord,
    Face,
    Graph,
    System,
    dof_id,
    span_probe,
    surjectivity_rows,
    validate_word,
    word_values,
)
from .errors import DimensionMismatchError, DocumentError, PqkError
from .frames import ProjectionMatrix, ReducedFrame
from .systems import OrderEdge, OrderWitness, Probes
from . import ratlin

if TYPE_CHECKING:
    from .gaussian import GaussianMixtureState


def rat_to_json(x: Fraction):
    if x.denominator == 1:
        return int(x)
    # A float carries 53 significant bits, so larger halves would round.
    if x.denominator == 2 and abs(x.numerator) <= 2**53:
        return float(x)
    return f"{x.numerator}/{x.denominator}"


def json_to_rat(x, where: str) -> Fraction:
    try:
        if isinstance(x, bool):
            raise TypeError("a boolean is not a number")
        return ratlin.as_fraction(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DocumentError(f"{where}: not a rational value ({x!r})") from exc


def _expect(doc, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise DocumentError(f"{where}.{key}: missing")
    value = doc[key]
    names = (kind,) if isinstance(kind, type) else kind
    # bool is a subclass of int, but a JSON true or false is not a number.
    if not isinstance(value, kind) or isinstance(value, bool) and bool not in names:
        raise DocumentError(
            f"{where}.{key}: expected {' or '.join(k.__name__ for k in names)}"
        )
    return value


def _expect_rows(doc, key: str, where: str) -> dict:
    """A mapping field whose every value is itself a mapping."""
    rows = _expect(doc, key, dict, where)
    for name, row in rows.items():
        if not isinstance(row, dict):
            raise DocumentError(f"{where}.{key}.{name}: expected dict")
    return rows


def _expect_items(doc, key: str, kind: type, where: str) -> list:
    """A list field whose every element is a ``kind``."""
    items = _expect(doc, key, list, where)
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise DocumentError(f"{where}.{key}[{i}]: expected {kind.__name__}")
    return items


def _declared(registry, key: str, where: str, kind: str):
    """The entry ``registry`` declares for ``key``, else a :class:`DocumentError`
    at ``where``: only declared ids are named."""
    if key not in registry:
        raise DocumentError(f"{where}: unknown {kind} {key!r}")
    return registry[key]


def _fresh(registry, key: str, where: str, kind: str) -> str:
    """``key``, unless ``registry`` already declares it: an id is declared once."""
    if key in registry:
        raise DocumentError(f"{where}: duplicate {kind} {key!r}")
    return key


def _expect_frame(doc, key: str, where: str) -> ReducedFrame:
    try:
        return ReducedFrame(tuple(_expect_items(doc, key, str, where)))
    except DimensionMismatchError as exc:
        raise DocumentError(f"{where}.{key}: {exc}") from exc


def system_to_document(system: System) -> dict:
    """Serialize a family under its own edge ids."""
    id_by_dof = {dof_id(w): eid for eid, w in system.words.items()}
    faces: dict[str, Face] = {}
    for d in system.dlabels.values():
        for f in d.faces:
            faces.setdefault(f.id, f)
    doc = {
        "atomic_edges": [
            {"id": a.id, "source": a.source, "target": a.target, "loop": a.loop}
            for a in sorted(system.atoms.values(), key=lambda a: a.id)
        ],
        "edges": [
            {
                "id": eid,
                "letters": [{"atom": a, "sign": s} for a, s in w.letters],
            }
            for eid, w in sorted(system.words.items())
        ],
        "faces": [
            {
                "id": f.id,
                "incidence": [
                    {"atom": a, "value": rat_to_json(v)} for a, v in f.incidence
                ],
            }
            for f in sorted(faces.values(), key=lambda f: f.id)
        ],
        "labels": [
            {
                "id": d.id,
                "graph": [id_by_dof[dof_id(e)] for e in d.graph.edges],
                "flux_basis": [f.id for f in d.faces],
            }
            for d in sorted(system.dlabels.values(), key=lambda d: d.id)
        ],
        "order": [
            {
                "upper": e.upper,
                "lower": e.lower,
                "combo_witness": {
                    id_by_dof[dof]: {
                        id_by_dof[src]: rat_to_json(c) for src, c in sorted(row.items())
                    }
                    for dof, row in sorted(e.witness.combos.items())
                },
                "op_witness": {
                    op: {src: rat_to_json(c) for src, c in sorted(row.items())}
                    for op, row in sorted(e.witness.op_membership.items())
                },
            }
            for e in system.order
        ],
    }
    return doc


def document_to_system(doc: dict) -> System:
    atoms: dict[str, AtomicEdge] = {}
    for i, entry in enumerate(_expect(doc, "atomic_edges", list, "document")):
        where = f"atomic_edges[{i}]"
        aid = _fresh(atoms, _expect(entry, "id", str, where), f"{where}.id", "atom")
        try:
            atoms[aid] = AtomicEdge(
                aid,
                _expect(entry, "source", str, where),
                _expect(entry, "target", str, where),
                "loop" in entry and _expect(entry, "loop", bool, where),
            )
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from exc

    words: dict[str, EdgeWord] = {}
    for i, entry in enumerate(_expect(doc, "edges", list, "document")):
        where = f"edges[{i}]"
        eid = _fresh(words, _expect(entry, "id", str, where), f"{where}.id", "edge")
        letters = []
        for j, letter in enumerate(_expect(entry, "letters", list, where)):
            lw = f"{where}.letters[{j}]"
            atom = _expect(letter, "atom", str, lw)
            sign = _expect(letter, "sign", int, lw)
            if sign not in (-1, 1):
                raise DocumentError(f"{lw}.sign: must be 1 or -1")
            letters.append((atom, sign))
        try:
            w = EdgeWord(tuple(letters))
            validate_word(w, atoms)
        except (ValueError, PqkError) as exc:
            raise DocumentError(f"{where}: {exc}") from exc
        words[eid] = w

    faces: dict[str, Face] = {}
    for i, entry in enumerate(_expect(doc, "faces", list, "document")):
        where = f"faces[{i}]"
        fid = _fresh(faces, _expect(entry, "id", str, where), f"{where}.id", "face")
        incidence = []
        for j, item in enumerate(_expect(entry, "incidence", list, where)):
            iw = f"{where}.incidence[{j}]"
            atom = _expect(item, "atom", str, iw)
            _declared(atoms, atom, f"{iw}.atom", "atom")
            incidence.append((atom, json_to_rat(item.get("value"), f"{iw}.value")))
        try:
            faces[fid] = Face(fid, tuple(incidence))
        except ValueError as exc:
            raise DocumentError(f"{where}.incidence: {exc}") from exc

    dlabels: dict[str, DpgLabel] = {}
    for i, entry in enumerate(_expect(doc, "labels", list, "document")):
        where = f"labels[{i}]"
        lid = _fresh(dlabels, _expect(entry, "id", str, where), f"{where}.id", "label")
        edge_ids = _expect_items(entry, "graph", str, where)
        face_ids = _expect_items(entry, "flux_basis", str, where)
        edges = tuple(
            _declared(words, e, f"{where}.graph", "edge id") for e in edge_ids
        )
        basis = tuple(
            _declared(faces, f, f"{where}.flux_basis", "face id") for f in face_ids
        )
        try:
            dlabels[lid] = DpgLabel(id=lid, graph=Graph(edges), faces=basis)
        except (ValueError, PqkError) as exc:
            raise DocumentError(f"{where}: {exc}") from exc

    values = word_values(words.values())

    order: list[OrderEdge] = []
    for i, entry in enumerate(_expect(doc, "order", list, "document")):
        where = f"order[{i}]"
        upper = _expect(entry, "upper", str, where)
        lower = _expect(entry, "lower", str, where)
        for side, lid in (("upper", upper), ("lower", lower)):
            _declared(dlabels, lid, f"{where}.{side}", "label")
        combos = {}
        for eid, row in _expect_rows(entry, "combo_witness", where).items():
            dof = dof_id(_declared(words, eid, f"{where}.combo_witness", "edge id"))
            rw = f"{where}.combo_witness.{eid}"
            # A comprehension looks each source up before it parses its value.
            combos[dof] = {
                dof_id(_declared(words, src, rw, "edge id")): json_to_rat(c, rw)
                for src, c in row.items()
            }
        membership = {}
        for op, row in _expect_rows(entry, "op_witness", where).items():
            membership[op] = {
                src: json_to_rat(c, f"{where}.op_witness.{op}")
                for src, c in row.items()
            }
        order.append(
            OrderEdge(upper, lower, OrderWitness(combos, membership, values))
        )

    return System(
        atoms=atoms,
        words=words,
        dlabels=dlabels,
        order=tuple(order),
    )


def default_probes(system: System) -> Probes:
    """The audit probes of a family, generated or loaded: the only probe
    builder, reading them off what a document holds.

    Surjectivity witnesses come from explicit target-hitting connections,
    span instances from edge inverses; directedness is probed on every
    non-maximal label pair.  Operator instances (A1b) need no probes: the
    audit reads them off the declared order witnesses.
    """
    names = sorted(system.labels)
    ops_key = {
        name: frozenset(op.key for op in system.labels[name].ops) for name in names
    }
    equal_pairs = tuple(
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if ops_key[a] == ops_key[b]
    )

    # A finite presented family always has maximal labels whose pairwise
    # joins lie outside it, so directedness is probed on the non-maximal
    # labels only; explicit Probes cover anything stricter.
    non_maximal = sorted({e.lower for e in system.order})

    return Probes(
        span_instances=tuple(
            span_probe(d) for _, d in sorted(system.dlabels.items())
        ),
        surjectivity={
            name: surjectivity_rows(d.graph)
            for name, d in sorted(system.dlabels.items())
        },
        equal_space_pairs=equal_pairs,
        directed_pairs=tuple(
            (a, b)
            for i, a in enumerate(non_maximal)
            for b in non_maximal[i + 1 :]
        ),
        dof_values=word_values(system.words.values()),
    )


# --- states -------------------------------------------------------------------


def _complex_to_json(z: complex) -> list:
    return [complex(z).real, complex(z).imag]


def _json_to_complex(x, where: str) -> complex:
    if (
        not isinstance(x, list)
        or len(x) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in x)
    ):
        raise DocumentError(f"{where}: expected [re, im]")
    if not all(abs(v) <= sys.float_info.max for v in x):
        raise DocumentError(f"{where}: parts must be finite")
    return complex(x[0], x[1])


def state_to_document(state: GaussianMixtureState, label: str) -> dict:
    return {
        "label": label,
        "terms": [
            {
                "weight": float(w),
                "P": [[_complex_to_json(z) for z in row] for row in k.P],
                "R": [[_complex_to_json(z) for z in row] for row in k.R],
                "s": [_complex_to_json(z) for z in k.s],
                "logw": float(k.logw),
            }
            for w, k in state.terms
        ],
    }


def document_to_state(doc: dict, dim: int) -> GaussianMixtureState:
    # The Gaussian layer, and numpy with it, loads with the first state.
    from .gaussian import GaussianKernel, GaussianMixtureState, trace

    _expect(doc, "label", str, "state")
    terms = []
    for i, entry in enumerate(_expect(doc, "terms", list, "state")):
        where = f"state.terms[{i}]"
        weight = _expect(entry, "weight", (int, float), where)
        if not 0 < weight <= sys.float_info.max:
            raise DocumentError(f"{where}.weight: must be positive and finite")

        def row(items: list, name: str) -> list[complex]:
            return [_json_to_complex(z, f"{name}[{j}]") for j, z in enumerate(items)]

        def matrix(key: str) -> list[list[complex]]:
            rows = _expect_items(entry, key, list, where)
            return [row(items, f"{where}.{key}[{r}]") for r, items in enumerate(rows)]

        s = row(_expect(entry, "s", list, where), f"{where}.s")
        logw = _expect(entry, "logw", (int, float), where)
        if not abs(logw) <= sys.float_info.max:
            raise DocumentError(f"{where}.logw: must be finite")
        P, R = matrix("P"), matrix("R")
        try:
            kernel = GaussianKernel(dim=dim, P=P, R=R, s=s, logw=logw)
        except (ValueError, PqkError) as exc:
            raise DocumentError(f"{where}: {exc}") from exc
        terms.append((float(weight), kernel))
    try:
        state = GaussianMixtureState(dim, tuple(terms))
        total = trace(state)
    except (ValueError, PqkError) as exc:
        raise DocumentError(f"state.terms: {exc}") from exc
    if abs(total - 1.0) > 1e-10:
        raise DocumentError(f"state.terms: trace is {total!r}, expected 1")
    return state


# --- almost-periodic vectors --------------------------------------------------


def ap_to_document(v: APVector) -> dict:
    return {
        "frame": list(v.frame.dofs),
        "terms": [
            {
                "freq": [rat_to_json(c) for c in f.coords],
                "re": rat_to_json(a.re),
                "im": rat_to_json(a.im),
            }
            for f, a in v.amplitudes
        ],
    }


def document_to_ap(doc: dict) -> APVector:
    frame = _expect_frame(doc, "frame", "ap")
    terms = []
    for i, entry in enumerate(_expect(doc, "terms", list, "ap")):
        where = f"ap.terms[{i}]"
        coords = tuple(
            json_to_rat(c, f"{where}.freq") for c in _expect(entry, "freq", list, where)
        )
        if len(coords) != frame.dim:
            raise DocumentError(f"{where}.freq: expected {frame.dim} coordinates")
        amp = QC(
            json_to_rat(entry.get("re", 0), f"{where}.re"),
            json_to_rat(entry.get("im", 0), f"{where}.im"),
        )
        terms.append((Frequency(coords, frame), amp))
    return APVector(frame, tuple(terms))


def projection_to_document(p: ProjectionMatrix) -> dict:
    return {
        "target_frame": list(p.target_frame.dofs),
        "source_frame": list(p.source_frame.dofs),
        "entries": [[rat_to_json(x) for x in row] for row in p.entries],
    }


def document_to_projection(doc: dict) -> ProjectionMatrix:
    target = _expect_frame(doc, "target_frame", "projection")
    source = _expect_frame(doc, "source_frame", "projection")
    entries = [
        [json_to_rat(x, f"projection.entries[{i}]") for x in row]
        for i, row in enumerate(_expect_items(doc, "entries", list, "projection"))
    ]
    try:
        return ProjectionMatrix(entries, source_frame=source, target_frame=target)
    except (ValueError, PqkError) as exc:
        raise DocumentError(f"projection: {exc}") from exc


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
