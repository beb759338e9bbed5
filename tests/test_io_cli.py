import collections
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk import (
    DocumentError,
    FrameMismatchError,
    chain_consistency,
    check_assumptions,
    hs_distance,
    project_state,
    pure_state,
)
from pqk import io as pio
from pqk.cli import main
from pqk.dpg import (
    AtomicEdge,
    DpgLabel,
    EdgeWord,
    Graph,
    System,
    dof_id,
    dual_flux_basis,
    random_system,
)

from conftest import random_mixture, subprocess_env


@pytest.fixture()
def system_doc(tmp_path):
    rs = random_system(2, 2, seed=7)
    path = tmp_path / "sys.json"
    pio.dump_json(pio.system_to_document(rs), str(path))
    return rs, str(path)


def _write_state(tmp_path, system, label, seed=0, terms=2):
    dim = system.labels[label].dim
    st = random_mixture(dim, terms, np.random.default_rng(seed))
    path = tmp_path / "state.json"
    pio.dump_json(pio.state_to_document(st, label), str(path))
    return st, str(path)


def test_system_document_round_trip(system_doc, tmp_path):
    rs, path = system_doc
    loaded = pio.document_to_system(pio.load_json(path))
    assert sorted(loaded.labels) == sorted(rs.labels)
    for name in rs.labels:
        assert loaded.labels[name] == rs.labels[name]
    again = tmp_path / "again.json"
    pio.dump_json(pio.system_to_document(loaded), str(again))
    assert pio.load_json(str(again)) == pio.load_json(path)


@pytest.mark.parametrize("seed", range(3))
def test_loaded_witnesses_hold_exactly_their_two_labels_words(tmp_path, seed):
    path = str(tmp_path / "sys.json")
    pio.dump_json(pio.system_to_document(random_system(3, 3, seed)), path)
    loaded = pio.document_to_system(pio.load_json(path))
    for edge in loaded.order:
        upper, lower = (loaded.dlabels[x].graph for x in (edge.upper, edge.lower))
        assert set(edge.witness.dof_values) == set(upper.dofs) | set(lower.dofs)


def test_a_combination_row_naming_a_third_labels_word_keeps_its_diagnostic(
    tmp_path, capsys
):
    # The lower label's first edge is witnessed as a word of neither label:
    # refused as non-frame, before any evaluation data is read.
    doc = pio.system_to_document(random_system(2, 3, 0))
    graphs = {label["id"]: label["graph"] for label in doc["labels"]}
    entry = doc["order"][0]
    pair = graphs[entry["upper"]] + graphs[entry["lower"]]
    third = next(e["id"] for e in doc["edges"] if e["id"] not in pair)
    coarse = graphs[entry["lower"]][0]
    entry["combo_witness"][coarse] = {third: 1}
    path = str(tmp_path / "sys.json")
    pio.dump_json(doc, path)
    words = pio.document_to_system(doc).words
    code, report = run_cli(capsys, "verify", path)
    a6 = [(f["subject"], f["detail"]) for f in report["failures"]
          if f["assumption"] == "A6"]
    assert code == 1
    assert a6 == [(
        f"{entry['upper']} >= {entry['lower']}",
        f"combination for {dof_id(words[coarse])!r} uses non-frame d.o.f. "
        f"[{dof_id(words[third])!r}]",
    )]


def test_state_document_round_trip(tmp_path):
    st = random_mixture(2, 3, np.random.default_rng(1))
    doc = pio.state_to_document(st, "L")
    back = pio.document_to_state(doc, 2)
    assert hs_distance(st, back) <= 1e-12
    assert pio.state_to_document(back, "L") == doc


def test_state_document_rejects_bad_trace():
    st = pure_state([[1.0]], [0.0])
    doc = pio.state_to_document(st, "L")
    doc["terms"][0]["weight"] = 2.0
    with pytest.raises(DocumentError, match="trace"):
        pio.document_to_state(doc, 1)


@pytest.mark.parametrize("logw, detail", [
    (sys.float_info.max, "state.terms: trace is inf, expected 1"),
    (-sys.float_info.max, "state.terms: trace is 0.0, expected 1"),
])
def test_state_document_refuses_logw_at_the_float_limits(logw, detail):
    # Both are finite, so the loader's logw check admits them and the trace
    # check refuses them: a trace past the largest float reads as inf.
    doc = pio.state_to_document(pure_state([[1.0]], [0.0]), "L")
    doc["terms"][0]["logw"] = logw
    with pytest.raises(DocumentError) as info:
        pio.document_to_state(doc, 1)
    assert str(info.value) == detail


@pytest.mark.parametrize("value, detail", [
    (sys.float_info.max, "state.terms: trace is nan, expected 1"),
    (1e300, "state.terms: trace is inf, expected 1"),
])
def test_state_document_refuses_a_trace_that_is_not_a_number(value, detail):
    # Both are finite, so the loader admits the linear term, and the trace
    # overflows.  At the largest float twice the term is inf, and the solve
    # that reads it gives a NaN trace, which compares false against every
    # bound; at 1e300 the trace is inf.
    doc = pio.state_to_document(pure_state(np.eye(3), np.zeros(3)), "L")
    doc["terms"][0]["s"][0] = [value, 0.0]
    with pytest.raises(DocumentError) as info:
        pio.document_to_state(doc, 3)
    assert str(info.value) == detail


@pytest.mark.parametrize("weight", [0, 0.0])
def test_state_document_refuses_a_zero_weight(weight):
    doc = pio.state_to_document(pure_state([[1.0]], [0.0]), "L")
    doc["terms"][0]["weight"] = weight
    with pytest.raises(DocumentError) as info:
        pio.document_to_state(doc, 1)
    assert str(info.value) == "state.terms[0].weight: must be positive and finite"


def test_a_face_id_names_one_face_when_a_family_is_written():
    # dual_flux_basis names each label's first face "dual0" by default, so
    # two labels on different atoms hold two different faces under one id.
    atoms = {x: AtomicEdge(x, f"u{x}", f"v{x}") for x in ("a", "b")}
    graphs = {name: Graph((EdgeWord(((x, 1),)),)) for name, x in (("A", "a"), ("B", "b"))}
    labels = {name: DpgLabel(name, g, dual_flux_basis(g)) for name, g in graphs.items()}
    words = {"e0": graphs["A"].edges[0], "e1": graphs["B"].edges[0]}
    with pytest.raises(ValueError, match="^face id 'dual0' names two different faces$"):
        pio.system_to_document(System(atoms, words, labels, ()))
    # Equal faces under one id, as b0 and its twin b0t share, are written once.
    doc = pio.system_to_document(random_system(2, 2, seed=0))
    ids = [f["id"] for f in doc["faces"]]
    assert len(ids) == len(set(ids))
    basis = {label["id"]: label["flux_basis"] for label in doc["labels"]}
    assert basis["b0t"] == basis["b0"]


def test_state_document_rejects_nonhermitian():
    st = pure_state(np.eye(2), np.zeros(2))
    doc = pio.state_to_document(st, "L")
    doc["terms"][0]["R"][0][1] = [0.5, 0.0]
    with pytest.raises(DocumentError, match="Hermitian"):
        pio.document_to_state(doc, 2)


@pytest.mark.parametrize("error, detail", [
    (ValueError("bad"), "edges[0]: bad"),
    (FrameMismatchError("bad"), "edges[0]: bad"),
    (DocumentError("edges[0].letters[1].sign: must be 1 or -1"),
     "edges[0].letters[1].sign: must be 1 or -1"),
], ids=["value-error", "pqk-error", "document-error"])
def test_named_names_a_field_once(error, detail):
    def fail():
        raise error

    with pytest.raises(DocumentError) as caught:
        pio.named("edges[0]", fail)
    assert str(caught.value) == detail
    assert pio.named("edges[0]", Fraction, "1/2") == Fraction(1, 2)
    with pytest.raises(TypeError):  # not a document fault: raised as it is
        pio.named("edges[0]", Fraction, None)


def test_document_errors_name_fields(tmp_path):
    with pytest.raises(DocumentError, match="atomic_edges"):
        pio.document_to_system({"bad": 1})
    doc = {
        "atomic_edges": [{"id": "a", "source": "u", "target": "v"}],
        "edges": [{"id": "e", "letters": [{"atom": "zz", "sign": 1}]}],
        "faces": [],
        "labels": [],
        "order": [],
    }
    with pytest.raises(DocumentError, match=r"edges\[0\]"):
        pio.document_to_system(doc)
    doc["edges"][0]["letters"][0]["atom"] = "a"
    doc["labels"] = [{"id": "L", "graph": ["nope"], "flux_basis": []}]
    with pytest.raises(DocumentError, match="unknown edge id"):
        pio.document_to_system(doc)
    for kind, bad, field in malformed_documents():
        with pytest.raises(DocumentError, match=field):
            LOADERS[kind](bad)


LOADERS = {
    "system": pio.document_to_system,
    "state": lambda doc: pio.document_to_state(doc, 2),
    "ap": pio.document_to_ap,
    "projection": pio.document_to_projection,
}


EMPTY_LABEL = {"id": "empty", "graph": [], "flux_basis": []}


def malformed_documents():
    """(loader kind, document, regex of the field its error must name)."""
    system = pio.system_to_document(random_system(2, 2, seed=7))
    state = pio.state_to_document(pure_state(np.eye(2), np.zeros(2)), "b0")
    ap = {"frame": ["hol:a"], "terms": []}
    projection = {"target_frame": ["k1"], "source_frame": ["k1", "k2"],
                  "entries": [[1, 1]]}

    def edited(doc, path, value):
        doc = json.loads(json.dumps(doc))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return doc

    first_incidence = system["faces"][0]["incidence"][0]
    atom = system["atomic_edges"][0]
    combos = system["order"][0]["combo_witness"]
    combo_row = next(iter(combos))
    op_row = next(iter(system["order"][0]["op_witness"]))
    e, k = next((e, k) for e, edge in enumerate(system["edges"])
                for k, letter in enumerate(edge["letters"]) if letter["sign"] == 1)

    def exactly(message):
        return f"^{re.escape(message)}$"

    return (
        # Each id is declared once, and only declared ids are named.
        ("system", edited(system, ("atomic_edges", 1, "id"), "a00"),
         exactly("atomic_edges[1].id: duplicate atom 'a00'")),
        ("system", edited(system, ("edges", 1, "id"), "e0"),
         exactly("edges[1].id: duplicate edge 'e0'")),
        ("system", edited(system, ("faces", 1, "id"), "b0.f0"),
         exactly("faces[1].id: duplicate face 'b0.f0'")),
        ("system", edited(system, ("labels", 1, "id"), "b0"),
         exactly("labels[1].id: duplicate label 'b0'")),
        ("system", edited(system, ("faces", 0, "incidence", 0, "atom"), "a99"),
         exactly("faces[0].incidence[0].atom: unknown atom 'a99'")),
        ("system", edited(system, ("labels", 0, "graph", 0), "e99"),
         exactly("labels[0].graph: unknown edge id 'e99'")),
        ("system", edited(system, ("labels", 0, "flux_basis", 0), "f99"),
         exactly("labels[0].flux_basis: unknown face id 'f99'")),
        ("system", edited(system, ("order", 0, "upper"), "x"),
         exactly("order[0].upper: unknown label 'x'")),
        ("system", edited(system, ("order", 0, "lower"), "x"),
         exactly("order[0].lower: unknown label 'x'")),
        ("system", edited(system, ("order", 0, "combo_witness", "e99"), {}),
         exactly("order[0].combo_witness: unknown edge id 'e99'")),
        ("system", edited(system, ("order", 0, "combo_witness", combo_row),
                          {**combos[combo_row], "e99": 1}),
         exactly(f"order[0].combo_witness.{combo_row}: unknown edge id 'e99'")),
        ("state", [1], r"state\.label"),
        ("state", edited(state, ("terms", 0, "weight"), "heavy"),
         r"state\.terms\[0\]\.weight"),
        ("state", edited(state, ("terms", 0, "logw"), None),
         r"state\.terms\[0\]\.logw"),
        ("system", edited(system, ("faces", 0, "incidence"),
                          [first_incidence, first_incidence]),
         r"faces\[0\]\.incidence"),
        # A repeated atom is refused even when one of its values is 0.
        ("system", edited(system, ("faces", 0, "incidence"),
                          [first_incidence, {"atom": first_incidence["atom"],
                                             "value": 0}]),
         r"faces\[0\]\.incidence"),
        ("system", edited(system, ("order", 0, "combo_witness", combo_row), []),
         rf"order\[0\]\.combo_witness\.{re.escape(combo_row)}"),
        ("system", edited(system, ("order", 0, "op_witness", op_row), []),
         rf"order\[0\]\.op_witness\.{re.escape(op_row)}"),
        ("ap", edited(ap, ("frame",), ["hol:a", "hol:a"]), r"ap\.frame"),
        ("ap", edited(ap, ("frame",), []), r"ap\.frame"),
        ("projection", edited(projection, ("source_frame",), ["k1", "k1"]),
         r"projection\.source_frame"),
        ("projection", edited(projection, ("target_frame",), []),
         r"projection\.target_frame"),
        ("system", edited(system, ("faces", 0, "incidence", 0, "value"), "1/0"),
         r"faces\[0\]\.incidence\[0\]\.value"),
        ("system", edited(system, ("faces", 0, "incidence", 0, "value"),
                          float("inf")),
         r"faces\[0\]\.incidence\[0\]\.value"),
        ("state", edited(state, ("terms", 0, "weight"), float("nan")),
         r"state\.terms\[0\]\.weight"),
        ("state", edited(state, ("terms", 0, "logw"), float("nan")),
         r"state\.terms\[0\]\.logw"),
        ("state", edited(state, ("terms", 0, "weight"), 10**400),
         r"state\.terms\[0\]\.weight"),
        ("state", edited(state, ("terms", 0, "logw"), -(10**400)),
         r"state\.terms\[0\]\.logw"),
        ("system", edited(system, ("labels", 0, "graph", 0), ["e0"]),
         r"labels\[0\]\.graph\[0\]"),
        ("system", edited(system, ("labels", 0, "flux_basis", 0), {"id": "f"}),
         r"labels\[0\]\.flux_basis\[0\]"),
        ("ap", edited(ap, ("frame", 0), ["hol:a"]), r"ap\.frame\[0\]"),
        ("projection", edited(projection, ("entries", 0), 1),
         r"projection\.entries\[0\]"),
        ("projection", edited(projection, ("entries",), [[0, 0]]), r"projection"),
        ("state", edited(state, ("terms", 0, "P", 0), 1.0),
         r"state\.terms\[0\]\.P\[0\]"),
        ("state", edited(state, ("terms", 0, "R", 0), 1.0),
         r"state\.terms\[0\]\.R\[0\]"),
        ("state", edited(state, ("terms", 0, "P", 0, 0), [10**400, 0]),
         r"state\.terms\[0\]\.P\[0\]\[0\]"),
        # Finite, but twice it is not: P overflows when symmetrised.
        ("state", edited(state, ("terms", 0, "P", 0, 0), [1.7e308, 0]),
         r"state\.terms\[0\]: P overflows"),
        ("state", edited(state, ("terms", 0, "s", 0), [float("nan"), 0]),
         r"state\.terms\[0\]\.s\[0\]"),
        ("state", edited(state, ("terms", 0, "R", 0, 1), [float("inf"), 0]),
         r"state\.terms\[0\]\.R\[0\]\[1\]"),
        # JSON booleans are not numbers, though bool is an int in Python.
        ("system", edited(system, ("faces", 0, "incidence", 0, "value"), True),
         r"faces\[0\]\.incidence\[0\]\.value"),
        ("system", edited(system, ("order", 0, "combo_witness", combo_row),
                          {src: True for src in combos[combo_row]}),
         rf"order\[0\]\.combo_witness\.{re.escape(combo_row)}"),
        ("state", edited(state, ("terms", 0, "weight"), True),
         r"state\.terms\[0\]\.weight"),
        ("state", edited(state, ("terms", 0, "logw"), False),
         r"state\.terms\[0\]\.logw"),
        ("state", edited(state, ("terms", 0, "P", 0, 0), [True, 0]),
         r"state\.terms\[0\]\.P\[0\]\[0\]"),
        ("ap", {"frame": ["hol:a"], "terms": [{"freq": [True], "re": 1}]},
         r"ap\.terms\[0\]\.freq"),
        ("projection", edited(projection, ("entries", 0, 0), True),
         r"projection\.entries\[0\]"),
        ("system", edited(system, ("edges", e, "letters", k, "sign"), True),
         rf"edges\[{e}\]\.letters\[{k}\]\.sign"),
        ("state", edited(state, ("terms", 0, "P", 1), [[1.0, 0.0]]),
         r"state\.terms\[0\]"),
        # A string is not a JSON boolean, even on an atom that closes on itself.
        ("system", edited(system, ("atomic_edges", 0),
                          {**atom, "target": atom["source"], "loop": "false"}),
         r"atomic_edges\[0\]\.loop"),
        # A label needs at least one edge, and so one d.o.f.
        ("system", edited(system, ("labels",),
                          [*system["labels"], EMPTY_LABEL]),
         rf"labels\[{len(system['labels'])}\]"),
    )


def test_rational_serialization_round_trip():
    for value in (Fraction(1), Fraction(-1, 2), Fraction(3, 7), Fraction(0)):
        assert pio.json_to_rat(pio.rat_to_json(value), "x") == value


def test_large_halves_round_trip_exactly():
    """Halves too large for a float are written as "p/2" strings."""
    from pqk import QC, ProjectionMatrix, ReducedFrame, ap_vector

    assert isinstance(pio.rat_to_json(Fraction(2**53 - 1, 2)), float)
    halves = [Fraction(2**53 + 1, 2), Fraction(-(2**60 + 1), 2)]
    for value in halves:
        assert pio.rat_to_json(value) == f"{value.numerator}/2"

    def reread(doc):
        return json.loads(json.dumps(doc))

    rs = random_system(2, 2, seed=7)
    doc = pio.system_to_document(rs)
    entry = doc["faces"][0]["incidence"][0]
    entry["value"] = pio.rat_to_json(halves[1])
    loaded = pio.document_to_system(reread(doc))
    face = next(f for d in loaded.dlabels.values() for f in d.faces
                if f.id == doc["faces"][0]["id"])
    assert face.incidence_map[entry["atom"]] == halves[1]
    assert pio.system_to_document(loaded)["faces"][0] == doc["faces"][0]

    proj = ProjectionMatrix(
        [[halves[0], Fraction(1)]],
        source_frame=ReducedFrame(("k1", "k2")),
        target_frame=ReducedFrame(("k1",)),
    )
    back = pio.document_to_projection(reread(pio.projection_to_document(proj)))
    assert back.entries == proj.entries

    v = ap_vector(ReducedFrame(("k1",)), {(halves[1],): QC(halves[0], halves[1])})
    assert pio.document_to_ap(reread(pio.ap_to_document(v))) == v


def test_ap_document_round_trip():
    from pqk import ReducedFrame, ap_vector, QC

    frame = ReducedFrame(("hol:a", "hol:b"))
    v = ap_vector(
        frame,
        {
            (Fraction(1, 3), Fraction(0)): QC(Fraction(1), Fraction(-2, 5)),
            (Fraction(2), Fraction(1, 2)): QC(Fraction(0), Fraction(1)),
        },
    )
    doc = pio.ap_to_document(v)
    assert pio.document_to_ap(doc) == v


@pytest.mark.parametrize("entry, amplitude", [
    ({"freq": [1], "im": 2}, (0, 2)),
    ({"freq": [1], "re": 2}, (2, 0)),
], ids=["re-missing", "im-missing"])
def test_a_missing_ap_amplitude_part_reads_as_zero(entry, amplitude):
    from pqk import QC, ReducedFrame, ap_vector

    v = pio.document_to_ap({"frame": ["k1"], "terms": [entry]})
    re_, im = map(Fraction, amplitude)
    assert v == ap_vector(ReducedFrame(("k1",)), {(Fraction(1),): QC(re_, im)})


def test_input_order_changes_no_verdict_and_no_distance():
    """Shuffling a document's five top-level lists leaves the audit's
    instances the same multiset and every chain distance bit-equal."""
    doc = pio.system_to_document(random_system(3, 3, seed=7))

    def outcome(system):
        report = check_assumptions(
            dict(system.labels), system.order, pio.default_probes(system)
        )
        labels = system.labels
        distances = {}
        for k, (top, mid, bot) in enumerate(system.chains()):
            st = random_mixture(labels[top].dim, 2, np.random.default_rng(k))
            distances[top, mid, bot] = chain_consistency(
                st, labels[top], labels[mid], labels[bot],
                system.find_witness(top, mid), system.find_witness(mid, bot),
                system.find_witness(top, bot),
            ).distance.hex()
        return collections.Counter(report.instances), distances

    expected = outcome(pio.document_to_system(doc))
    assert expected[1]
    for seed in range(6):
        shuffled = json.loads(json.dumps(doc))
        rng = random.Random(seed)
        for key in ("atomic_edges", "edges", "faces", "labels", "order"):
            rng.shuffle(shuffled[key])
        assert outcome(pio.document_to_system(shuffled)) == expected, seed


# --- command line ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_demo_verify_project_consistency(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    code, report = run_cli(
        capsys, "dpg-demo", "--edges", "3", "--depth", "2", "--seed", "7",
        "--out", sys_path,
    )
    assert code == 0
    assert "j(b0+b1)" in report["labels"]

    code, report = run_cli(capsys, "verify", sys_path)
    assert code == 0 and report["passed"]

    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "j(b0+b1)", seed=3)
    out_path = str(tmp_path / "projected.json")
    code, report = run_cli(
        capsys, "project", "--system", sys_path, "--state", state_path,
        "--from", "j(b0+b1)", "--to", "b0", "--out", out_path,
    )
    assert code == 0
    assert report["trace_drift"] <= 1e-9

    code, report = run_cli(
        capsys, "consistency", "--system", sys_path, "--state", state_path,
        "--chain", "j(b0+b1),b0,b0t", "--tol", "1e-9",
    )
    assert code == 0 and report["passed"]
    assert report["hs_distance"] <= 1e-9


@pytest.mark.parametrize("command", ["project", "consistency", "oracle"])
def test_cli_project_requires_witnessed_relation(tmp_path, capsys, command):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "1",
            "--out", sys_path)
    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "b0", seed=4)
    out_path = tmp_path / "x.json"
    relation = {
        "project": ("--from", "b0", "--to", "b1", "--out", str(out_path)),
        "consistency": ("--chain", "b0,b1,b0t"),
        "oracle": ("--from", "b0", "--to", "b1"),
    }[command]
    code, report = run_cli(
        capsys, command, "--system", sys_path, "--state", state_path, *relation
    )
    assert code == 1
    assert report == {
        "command": command,
        "passed": False,
        "error": "OrderViolation",
        "detail": "no witnessed relation b0 >= b1",
    }
    assert not out_path.exists()


@pytest.mark.parametrize("command, request_, detail", [
    ("project", ("--from", "b0", "--to", "b0"), "--to: is the --from label 'b0'"),
    ("oracle", ("--from", "j(b0+b1)", "--to", "j(b0+b1)"),
     "--to: is the --from label 'j(b0+b1)'"),
    ("consistency", ("--chain", "j(b0+b1),b0,b0"),
     "--chain: must name three distinct labels"),
    ("consistency", ("--chain", "j(b0+b1),j(b0+b1),b0"),
     "--chain: must name three distinct labels"),
    ("consistency", ("--chain", "j(b0+b1),b0"),
     "--chain: expected three comma-separated labels"),
    ("consistency", ("--chain", "j(b0+b1),b0,b0t,b1"),
     "--chain: expected three comma-separated labels"),
], ids=["project", "oracle", "consistency-bottom", "consistency-middle",
        "consistency-two-labels", "consistency-four-labels"])
def test_cli_refuses_an_edge_from_a_label_to_itself(
    tmp_path, capsys, command, request_, detail
):
    # Degenerate requests, not a broken family: refused before the state is
    # read (its path does not exist) or any file is written.
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "3", "--seed", "0",
            "--out", sys_path)
    out_path = tmp_path / "x.json"
    extra = ("--out", str(out_path)) if command == "project" else ()
    missing = str(tmp_path / "missing.json")
    assert _one_error_line(
        capsys, command, "--system", sys_path, "--state", missing, *request_, *extra
    ) == detail
    assert not out_path.exists()


def test_cli_oracle(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "1", "--depth", "2", "--seed", "2",
            "--out", sys_path)
    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "j(b0+b1)", seed=5, terms=1)
    code, report = run_cli(
        capsys, "oracle", "--system", sys_path, "--state", state_path,
        "--from", "j(b0+b1)", "--to", "b0", "--grid", "64", "--extent", "8.0",
    )
    assert code == 0
    assert report["max_rel_error"] <= 1e-4


def _failed_check_argv(tmp_path, capsys, command):
    """A consistency chain whose HS distance is float residue above 0, or an
    oracle edge, whose error is never 0, on a one-edge demo system."""
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "1", "--depth", "2", "--seed", "0",
            "--out", sys_path)
    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "j(b0+b1)", seed=0)
    relation = {
        "consistency": ("--chain", "j(b0+b1),b0,b0t"),
        "oracle": ("--from", "j(b0+b1)", "--to", "b0", "--grid", "16"),
    }[command]
    return (command, "--system", sys_path, "--state", state_path, *relation)


@pytest.mark.parametrize("command", ["consistency", "oracle"])
def test_cli_a_failed_check_at_tol_0_exits_1(tmp_path, capsys, command):
    # --tol 0 is in range, so the check runs; a distance or an error above 0
    # fails it, and the report says so.
    code, report = run_cli(capsys, *_failed_check_argv(tmp_path, capsys, command), "--tol", "0")
    error = report["hs_distance" if command == "consistency" else "max_rel_error"]
    assert (code, report["command"], report["passed"], report["tol"]) == (1, command, False, 0.0)
    assert error > 0


def test_cli_oracle_passes_at_a_tol_equal_to_its_error(tmp_path, capsys):
    argv = _failed_check_argv(tmp_path, capsys, "oracle")
    _, report = run_cli(capsys, *argv)
    # A JSON float reads back as the same double, so --tol is the error itself.
    error = report["max_rel_error"]
    code, report = run_cli(capsys, *argv, "--tol", json.dumps(error))
    assert (code, report["passed"], report["max_rel_error"], report["tol"]) == (0, True, error, error)


@pytest.mark.parametrize(
    "bound, grid", [(None, "2048"), (None, "2049"), (None, "100000"), (256, "17")]
)
def test_cli_oracle_refuses_a_grid_over_the_midpoint_bound(tmp_path, capsys, monkeypatch, bound, grid):
    # j(b0+b1) -> b0 of this system is a 5 -> 3 edge: a 2-dimensional kernel
    # and 8**6 evaluation pairs, so --grid 2048 asks for 2**40 kernel points
    # (hours of work) and --grid 100000 for 10**10 midpoints (numpy would
    # need 74.5 GiB): exit 2 naming the flag.  ``bound`` counts midpoints.
    from pqk import gaussian

    limit = bound * 8**6 if bound else 2**28
    if bound:
        monkeypatch.setattr(gaussian, "MAX_KERNEL_POINTS", limit)
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "3", "--depth", "2", "--seed", "7",
            "--out", sys_path)
    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "j(b0+b1)", seed=5, terms=1)
    argv = ("oracle", "--system", sys_path, "--state", state_path,
            "--from", "j(b0+b1)", "--to", "b0", "--extent", "6.0")
    code, report = run_cli(capsys, *argv, "--grid", grid)
    assert code == 2
    assert report == {
        "error": "DocumentError",
        "detail": f"--grid: {grid}**2 midpoints x 262144 evaluation pairs exceed "
        f"{limit} kernel points",
    }


def test_cli_oracle_runs_a_grid_at_the_midpoint_bound(tmp_path, capsys, monkeypatch):
    # The bound is inclusive: lowered to 16**2 midpoints x 64 evaluation
    # pairs, --grid 16 on the 2-dimensional kernel of j(b0+b1) -> b0 (a
    # 3 -> 1 edge) still runs.
    from pqk import gaussian

    monkeypatch.setattr(gaussian, "MAX_KERNEL_POINTS", 256 * 64)
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "1", "--depth", "2", "--seed", "0",
            "--out", sys_path)
    loaded = pio.document_to_system(pio.load_json(sys_path))
    _, state_path = _write_state(tmp_path, loaded, "j(b0+b1)", seed=5, terms=1)
    code, report = run_cli(
        capsys, "oracle", "--system", sys_path, "--state", state_path,
        "--from", "j(b0+b1)", "--to", "b0", "--grid", "16", "--tol", "1",
    )
    assert code == 0 and report["grid"] == 16


def test_cli_oracle_names_a_state_off_the_evaluation_window(tmp_path):
    # The state sits at 40 in every coordinate; its closed form underflows to
    # 0 on the whole +-3 evaluation grid, so no relative error exists.
    system = pio.system_to_document(random_system(1, 2, seed=0))
    pio.dump_json(system, str(tmp_path / "sys.json"))
    far = pure_state(np.eye(3), 40 * np.ones(3))
    pio.dump_json(pio.state_to_document(far, "j(b0+b1)"), str(tmp_path / "far.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "pqk.cli", "oracle", "--system", "sys.json",
         "--state", "far.json", "--from", "j(b0+b1)", "--to", "b1", "--grid",
         "16", "--extent", "120"],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "error": "EmptyWindowError",
        "detail": "the state has no mass on the evaluation window",
    }


def test_cli_oracle_names_a_subnormal_closed_form(tmp_path):
    # At 16.5 in every coordinate the closed form's largest value on the +-3
    # evaluation grid is the subnormal 3.1e-314: too few bits for a
    # relative error, so the oracle names that in place of a verdict.
    system = pio.system_to_document(random_system(1, 2, seed=0))
    pio.dump_json(system, str(tmp_path / "sys.json"))
    far = pure_state(np.eye(3), 16.5 * np.ones(3))
    pio.dump_json(pio.state_to_document(far, "j(b0+b1)"), str(tmp_path / "far.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "pqk.cli", "oracle", "--system", "sys.json",
         "--state", "far.json", "--from", "j(b0+b1)", "--to", "b1", "--grid",
         "16", "--extent", "120"],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "error": "EmptyWindowError",
        "detail": "the closed form is subnormal on the whole evaluation window "
        "(largest magnitude 3.1e-314), so its relative error has no precision",
    }


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("extent, grid, what", [
    ("1e308", "64", "midpoint grid"),
    ("1e200", "16", "cell volume"),
    ("1e154", "16", "source exponent"),
])
def test_cli_oracle_refuses_an_extent_that_overflows(tmp_path, extent, grid, what):
    # On this 3 -> 1 edge (a 2-dimensional kernel) these extents overflowed
    # the quadrature: NaN, which is not JSON, with warnings, or a traceback.
    pio.dump_json(pio.system_to_document(random_system(1, 2, seed=0)),
                  str(tmp_path / "sys.json"))
    st = pure_state(np.eye(3), np.zeros(3))
    pio.dump_json(pio.state_to_document(st, "j(b0+b1)"), str(tmp_path / "state.json"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pqk.cli", "oracle", "--system",
         "sys.json", "--state", "state.json", "--from", "j(b0+b1)", "--to", "b0",
         "--grid", grid, "--extent", extent],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout, parse_constant=_refuse_constant) == {
        "error": "DocumentError",
        "detail": f"--extent: extent {float(extent)!r} overflows the {what}",
    }


def test_cli_join_then_verify(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "9",
            "--out", sys_path)
    out_path = str(tmp_path / "sys2.json")
    code, report = run_cli(
        capsys, "join", "--system", sys_path, "--labels", "b0t,b1",
        "--out", out_path,
    )
    assert code == 0
    code, report = run_cli(capsys, "verify", out_path)
    assert code == 0 and report["passed"]


def edge_pairs(report, kind):
    """The (upper, lower) pairs of a verify report's ``kind`` instances."""
    return [
        tuple(i["subject"].split(" >= "))
        for i in report["instances"]
        if i["assumption"] == kind
    ]


def test_verify_bytes_ignore_the_order_of_the_order_list(tmp_path, capsys):
    """A1b and A6 instances come in (upper, lower) order, so a document
    whose ``order`` list is shuffled verifies to the same bytes."""
    doc = pio.system_to_document(random_system(3, 3, seed=7))
    outputs = set()
    for seed in range(4):
        shuffled = json.loads(json.dumps(doc))
        random.Random(seed).shuffle(shuffled["order"])
        assert seed == 0 or shuffled["order"] != doc["order"]
        path = tmp_path / f"sys{seed}.json"
        pio.dump_json(shuffled, str(path))
        assert main(["verify", str(path)]) == 0
        outputs.add(capsys.readouterr().out)
    (out,) = outputs
    pairs = edge_pairs(json.loads(out), "A6")
    assert len(pairs) == len(doc["order"]) and pairs == sorted(pairs)


DOCUMENT_LISTS = ("atomic_edges", "edges", "faces", "labels", "order")


def _cli_bytes(*argv, out=None):
    """Exit code and stdout of one pqk command, and the bytes it wrote to
    ``out`` (None when it wrote nothing), which it then removes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    written = None
    if out is not None and os.path.exists(out):
        written = Path(out).read_bytes()
        os.remove(out)
    return code, stdout.getvalue(), written


def _sorted_lists(raw):
    return {k: sorted(map(json.dumps, v)) if isinstance(v, list) else v
            for k, v in json.loads(raw).items()}


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.integers(0, 2**16), st.data())
def test_list_order_does_not_move_cli_bytes(edges, depth, seed, data):
    # A family is a set of labels and relations: the order of a document's
    # top-level lists must not reach any command's bytes.  Join writes its
    # new order edges after the input's, so its document compares sorted.
    system = random_system(edges, depth, seed)
    doc = pio.system_to_document(system)
    moved = dict(doc)
    for key in DOCUMENT_LISTS:
        if data.draw(st.booleans(), label=f"reverse {key}"):
            moved[key] = doc[key][::-1]
        else:
            moved[key] = data.draw(st.permutations(doc[key]), label=key)
    upper, lower = data.draw(st.sampled_from(sorted(
        (e.upper, e.lower) for e in system.order)), label="edge")
    chain = system.chains()[:1]
    pair = data.draw(st.lists(st.sampled_from(sorted(system.dlabels)), min_size=2,
                              max_size=2, unique=True), label="join")
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        states = {}
        for label in {upper, *(c[0] for c in chain)}:
            states[label] = os.path.join(tmp, f"{len(states)}.json")
            mixture = random_mixture(system.labels[label].dim, 2, rng)
            pio.dump_json(pio.state_to_document(mixture, label), states[label])
        path, out = os.path.join(tmp, "sys.json"), os.path.join(tmp, "out.json")
        runs = []
        for document in (doc, moved):
            pio.dump_json(document, path)
            run = [
                _cli_bytes("verify", path),
                _cli_bytes("project", "--system", path, "--state", states[upper],
                           "--from", upper, "--to", lower, "--out", out, out=out),
                *(_cli_bytes("consistency", "--system", path, "--state", states[c[0]],
                             "--chain", ",".join(c)) for c in chain),
            ]
            code, stdout, written = _cli_bytes(
                "join", "--system", path, "--labels", ",".join(pair), "--out", out,
                out=out,
            )
            runs.append([*run, (code, stdout, written and _sorted_lists(written))])
    assert runs[0] == runs[1]
    assert [r[0] for r in runs[0][:-1]] == [0] * (len(runs[0]) - 1)


def _renamed(doc, new):
    """``doc`` with every label id ``old`` replaced by ``new[old]``."""
    return {
        **doc,
        "labels": [{**label, "id": new[label["id"]]} for label in doc["labels"]],
        "order": [{**e, "upper": new[e["upper"]], "lower": new[e["lower"]]}
                  for e in doc["order"]],
    }


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.integers(0, 2**16), st.data())
def test_renamed_labels_do_not_move_cli_results(edges, depth, seed, data):
    # A label's id names it and nothing more: renamed consistently, a family
    # projects to the same state, compares at the same distance and passes
    # the same audit, whose instances differ only by the names.  The new
    # names are "L" and two digits, in a drawn order, so sorting by name
    # differs and no name occurs inside another or in any other output.  A5
    # and directedness relate an unordered pair, which their subjects list in
    # name order, so those compare as pairs.  A directed pair's detail names
    # the first of its upper bounds in name order, so where it has several
    # (labels that refine each other) a renaming can name another: only
    # whether it has one is compared.
    system = random_system(edges, depth, seed)
    doc = pio.system_to_document(system)
    names = sorted(system.dlabels)
    order = data.draw(st.permutations(range(len(names))), label="renaming")
    new = {old: f"L{k:02d}" for old, k in zip(names, order)}
    upper, lower = data.draw(st.sampled_from(sorted(
        (e.upper, e.lower) for e in system.order)), label="edge")
    chain = system.chains()[:1]
    rng = np.random.default_rng(seed)
    mixtures = {label: random_mixture(system.labels[label].dim, 2, rng)
                for label in sorted({upper, *(c[0] for c in chain)})}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "sys.json"), os.path.join(tmp, "out.json")
        for rename in ({n: n for n in names}, new):
            name = rename.get
            pio.dump_json(_renamed(doc, rename), path)
            states = {}
            for label, mixture in mixtures.items():
                states[label] = os.path.join(tmp, f"{len(states)}.json")
                pio.dump_json(pio.state_to_document(mixture, name(label)), states[label])
            code, verify, _ = _cli_bytes("verify", path)
            for n in names:  # back to the first names, for the comparison
                verify = verify.replace(rename[n], n)
            report = json.loads(verify)
            instances = report.pop("instances")
            for inst in instances:
                sep = {"A5": " ~ ", "directed": ", "}.get(inst["assumption"])
                if sep:
                    inst["subject"] = sep.join(sorted(inst["subject"].split(sep)))
                if inst["assumption"] == "directed":
                    inst["detail"] = inst["detail"].split(" '")[0]
            instances = sorted(map(json.dumps, instances))
            _, _, written = _cli_bytes(
                "project", "--system", path, "--state", states[upper], "--from",
                name(upper), "--to", name(lower), "--out", out, out=out)
            projected = json.loads(written)
            assert projected.pop("label") == name(lower)
            distances = [
                json.loads(_cli_bytes(
                    "consistency", "--system", path, "--state", states[c[0]],
                    "--chain", ",".join(map(name, c)))[1])["hs_distance"]
                for c in chain
            ]
            runs.append((code, report, instances, projected,
                         [float(d).hex() for d in distances]))
    assert runs[0] == runs[1]


def _reordered_state(doc, perm):
    """A state document with its coordinates taken in the order ``perm``."""
    return {**doc, "terms": [
        {**t, "P": [[t["P"][i][j] for j in perm] for i in perm],
         "R": [[t["R"][i][j] for j in perm] for i in perm],
         "s": [t["s"][i] for i in perm]}
        for t in doc["terms"]
    ]}


# The worst HS distance measured between a projection and its reordered
# twin: 1.9e-14 over 7,020 projections (random_system edges 1-3, depth 2-3,
# seeds 0-59, three reorders of every maximal label, two-term mixtures);
# 3,713 were bit-equal.  The bound leaves a factor of 50.
REORDER_BOUND = 1e-12


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**16), st.data())
def test_a_reordered_dof_projects_to_the_same_state(edges, depth, seed, data):
    # A label is a set of d.o.f.: listing a maximal label's edges (with its
    # flux basis) in another order, and a state's coordinates to match, must
    # give the same projection to every label below it, up to rounding,
    # since the elimination and the sums run in another order.
    system = random_system(edges, depth, seed)
    doc = pio.system_to_document(system)
    top = data.draw(st.sampled_from(
        sorted(set(system.dlabels) - {e.lower for e in system.order})), label="top")
    k = next(i for i, label in enumerate(doc["labels"]) if label["id"] == top)
    dim = len(doc["labels"][k]["graph"])
    perm = data.draw(st.permutations(range(dim)), label="perm")
    moved = json.loads(json.dumps(doc))
    for key in ("graph", "flux_basis"):
        moved["labels"][k][key] = [doc["labels"][k][key][p] for p in perm]
    state = pio.state_to_document(
        random_mixture(dim, 2, np.random.default_rng(seed)), top)
    fresh = json.loads(json.dumps(doc))
    family, reordered = pio.document_to_system(fresh), pio.document_to_system(moved)
    report = check_assumptions(
        dict(reordered.labels), reordered.order, pio.default_probes(reordered))
    assert report.passed, report.failures()
    rho = pio.document_to_state(json.loads(json.dumps(state)), dim)
    rho_moved = pio.document_to_state(_reordered_state(state, perm), dim)
    lowers = sorted(e.lower for e in system.order if e.upper == top)
    assert lowers
    for lower in lowers:
        projected, projected_moved = (
            project_state(r, s.labels[top], s.labels[lower], s.find_witness(top, lower))
            for r, s in ((rho, family), (rho_moved, reordered))
        )
        assert hs_distance(projected_moved, projected) <= REORDER_BOUND


def test_a_joined_document_verifies_in_sorted_order(tmp_path, capsys):
    # pqk join appends the new label's edges after the document's own.
    sys_path = str(tmp_path / "sys.json")
    out_path = str(tmp_path / "sys2.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "9",
            "--out", sys_path)
    run_cli(capsys, "join", "--system", sys_path, "--labels", "b0t,b1",
            "--out", out_path)
    order = [(e["upper"], e["lower"]) for e in pio.load_json(out_path)["order"]]
    assert order != sorted(order)
    code, report = run_cli(capsys, "verify", out_path)
    assert code == 0
    assert edge_pairs(report, "A6") == sorted(order)


@pytest.mark.parametrize("labels, detail", [
    ("b0,b0", "--labels: cannot join 'b0' with itself"),
    ("b1,b0", "--labels: label 'j(b0+b1)' already present"),
    ("b0,b1", "--labels: label 'j(b0+b1)' already present"),
    ("b0", "--labels: expected two comma-separated labels"),
    ("b0,b1,b0t", "--labels: expected two comma-separated labels"),
])
def test_cli_join_refuses_a_self_join_and_a_present_join(
    tmp_path, capsys, labels, detail
):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "1",
            "--out", sys_path)
    out_path = tmp_path / "joined.json"
    assert _one_error_line(
        capsys, "join", "--system", sys_path, "--labels", labels, "--out", str(out_path)
    ) == detail
    assert not out_path.exists()


@pytest.mark.parametrize("labels", ["zz,b0", "b0,zz", "zz,zz"])
def test_cli_join_refuses_an_unknown_label(tmp_path, capsys, labels):
    # System.with_join names the label; the CLI adds the flag.
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "3", "--seed", "1",
            "--out", sys_path)
    out_path = tmp_path / "joined.json"
    assert _one_error_line(
        capsys, "join", "--system", sys_path, "--labels", labels, "--out", str(out_path)
    ) == "--labels: unknown label 'zz'"
    assert not out_path.exists()


def test_cli_join_refuses_a_face_id_the_document_already_holds(tmp_path, capsys):
    # b1's first face renamed to the id the join gives its own first face:
    # the document verifies, but the join would hold two faces under one id.
    sys_path, out_path = tmp_path / "sys.json", tmp_path / "joined.json"
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "0",
            "--out", str(sys_path))
    doc = pio.load_json(str(sys_path))
    first = next(d for d in doc["labels"] if d["id"] == "b1")["flux_basis"][0]
    sys_path.write_text(sys_path.read_text().replace(f'"{first}"', '"j(b0+b0t).f0"'))
    assert run_cli(capsys, "verify", str(sys_path))[0] == 0
    assert _one_error_line(
        capsys, "join", "--system", str(sys_path), "--labels", "b0,b0t",
        "--out", str(out_path),
    ) == "--labels: face id 'j(b0+b0t).f0' names two different faces"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["project", "consistency", "oracle"])
def test_cli_refuses_a_state_whose_trace_overflows(system_doc, tmp_path, capsys, command):
    # logw = 800 is finite, but exp(800) is past the largest float.
    rs, sys_path = system_doc
    dim = rs.labels["j(b0+b1)"].dim
    doc = pio.state_to_document(pure_state(np.eye(dim), np.zeros(dim)), "j(b0+b1)")
    doc["terms"][0]["logw"] = 800.0
    state_path = str(tmp_path / "state.json")
    pio.dump_json(doc, state_path)
    relation = {
        "project": ("--from", "j(b0+b1)", "--to", "b0", "--out", str(tmp_path / "x.json")),
        "consistency": ("--chain", "j(b0+b1),b0,b0t"),
        "oracle": ("--from", "j(b0+b1)", "--to", "b0"),
    }[command]
    assert _one_error_line(
        capsys, command, "--system", sys_path, "--state", state_path, *relation
    ) == "state.terms: trace is inf, expected 1"


@pytest.mark.parametrize("value, detail", [
    (sys.float_info.max, "state.terms: trace is nan, expected 1"),
    (1e300, "state.terms: trace is inf, expected 1"),
], ids=["max", "1e300"])
@pytest.mark.parametrize("command", ["project", "consistency", "oracle"])
def test_cli_refuses_a_state_whose_trace_is_not_finite_quietly(tmp_path, command, value, detail):
    # A linear term at or near the largest float overflows in the trace;
    # the command exits 2 with one JSON line, no traceback and no numpy
    # warning on stderr.
    pio.dump_json(pio.system_to_document(random_system(1, 2, 0)), str(tmp_path / "sys.json"))
    doc = pio.state_to_document(pure_state(np.eye(3), np.zeros(3)), "j(b0+b1)")
    doc["terms"][0]["s"][0] = [value, 0.0]
    pio.dump_json(doc, str(tmp_path / "state.json"))
    relation = {
        "project": ("--from", "j(b0+b1)", "--to", "b0", "--out", "x.json"),
        "consistency": ("--chain", "j(b0+b1),b0,b0t"),
        "oracle": ("--from", "j(b0+b1)", "--to", "b0"),
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "pqk.cli", command, "--system", "sys.json",
         "--state", "state.json", *relation],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout.count("\n")) == (2, "", 1)
    assert json.loads(proc.stdout) == {"error": "DocumentError", "detail": detail}
    assert not (tmp_path / "x.json").exists()


def test_cli_reads_no_json_boolean_as_a_rational(system_doc, tmp_path, capsys):
    _, sys_path = system_doc
    doc = pio.load_json(sys_path)
    doc["faces"][0]["incidence"][0]["value"] = True
    path = str(tmp_path / "bool.json")
    pio.dump_json(doc, path)
    assert _one_error_line(capsys, "verify", path) == (
        "faces[0].incidence[0].value: not a rational value (True)"
    )


@pytest.mark.parametrize("defect, code", [(None, 0), ("witness", 1), ("document", 2)])
def test_cli_exits_with_its_verdict_when_stdout_is_closed(tmp_path, defect, code):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE.
    sys_path = tmp_path / "sys.json"
    doc = pio.system_to_document(random_system(3, 3, seed=0))
    if defect == "witness":
        entry = next(e for e in doc["order"] if any(e["combo_witness"].values()))
        row = next(r for r in entry["combo_witness"].values() if r)
        row[next(iter(row))] = "7/3"
    elif defect == "document":
        doc = {"nope": 1}
    pio.dump_json(doc, str(sys_path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pqk.cli", "verify", str(sys_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize("command", ["verify", "join"])
def test_cli_label_without_edges_exits_2(tmp_path, capsys, command):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "3",
            "--out", sys_path)
    doc = pio.load_json(sys_path)
    doc["labels"].append(EMPTY_LABEL)
    pio.dump_json(doc, sys_path)
    argv = {
        "verify": ("verify", sys_path),
        "join": ("join", "--system", sys_path, "--labels", "b0,empty",
                 "--out", str(tmp_path / "joined.json")),
    }[command]
    code, report = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"] == "DocumentError"
    assert report["detail"].startswith(f"labels[{len(doc['labels']) - 1}]: ")
    assert not (tmp_path / "joined.json").exists()


def test_cli_seed_comes_only_from_the_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PQK_SEED", raising=False)
    written = []
    for name in ("plain", "with_env"):
        sys_path = tmp_path / f"{name}.json"
        code, report = run_cli(
            capsys, "dpg-demo", "--seed", "7", "--out", str(sys_path)
        )
        assert code == 0 and report["seed"] == 7
        written.append(sys_path.read_bytes())
        monkeypatch.setenv("PQK_SEED", "123")
    assert written[0] == written[1]


def test_cli_dpg_demo_seed_defaults_to_0(tmp_path, capsys):
    written = []
    for name, seed in (("default", ()), ("zero", ("--seed", "0"))):
        sys_path = tmp_path / f"{name}.json"
        code, report = run_cli(capsys, "dpg-demo", *seed, "--out", str(sys_path))
        assert (code, report["seed"]) == (0, 0)
        written.append(sys_path.read_bytes())
    assert written[0] == written[1]


def test_cli_reports_are_deterministic(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "3",
            "--out", sys_path)
    code1 = main(["verify", sys_path])
    out1 = capsys.readouterr().out
    code2 = main(["verify", sys_path])
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)


def test_cli_verify_fails_on_defective_witness(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "4",
            "--out", sys_path)
    doc = pio.load_json(sys_path)
    entry = next(
        e for e in doc["order"] if any(len(r) > 0 for r in e["combo_witness"].values())
    )
    eid = next(iter(entry["combo_witness"]))
    src = next(iter(entry["combo_witness"][eid]))
    entry["combo_witness"][eid][src] = "7/3"
    pio.dump_json(doc, sys_path)
    code, report = run_cli(capsys, "verify", sys_path)
    assert code == 1 and not report["passed"]
    assert any(f["assumption"] == "A6" for f in report["failures"])
    assert all("Assumption" in f["anchor"] for f in report["failures"])


def test_cli_project_composes_missing_direct_witness(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "3", "--seed", "6",
            "--out", sys_path)
    doc = pio.load_json(sys_path)
    loaded = pio.document_to_system(doc)
    pairs = {(e.upper, e.lower) for e in loaded.order}
    chain = next(
        (e1.upper, e1.lower, e2.lower)
        for e1 in loaded.order
        for e2 in loaded.order
        if e1.lower == e2.upper and (e1.upper, e2.lower) in pairs
    )
    top, mid, bot = chain
    doc["order"] = [
        e for e in doc["order"] if (e["upper"], e["lower"]) != (top, bot)
    ]
    pio.dump_json(doc, sys_path)
    _, state_path = _write_state(tmp_path, loaded, top, seed=8)
    direct_out = str(tmp_path / "direct.json")
    code, report = run_cli(
        capsys, "project", "--system", sys_path, "--state", state_path,
        "--from", top, "--to", bot, "--out", direct_out,
    )
    assert code == 0 and report["passed"]


def test_cli_join_adds_every_reachable_relation(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "3", "--seed", "6",
            "--out", sys_path)
    doc = pio.load_json(sys_path)
    doc["order"] = [
        e for e in doc["order"] if (e["upper"], e["lower"]) != ("c2", "b0")
    ]
    pio.dump_json(doc, sys_path)
    out_path = str(tmp_path / "joined.json")
    code, _ = run_cli(
        capsys, "join", "--system", sys_path, "--labels", "c2,b2", "--out", out_path
    )
    assert code == 0
    relations = {(e["upper"], e["lower"]) for e in pio.load_json(out_path)["order"]}
    new = "j(c2+b2)"
    reachable, frontier = set(), [new]
    while frontier:
        current = frontier.pop()
        for upper, lower in relations:
            if upper == current and lower not in reachable:
                reachable.add(lower)
                frontier.append(lower)
    # b0 lies two steps below c2 now, so one level of composition misses it.
    assert "b0" in reachable
    assert {lower for upper, lower in relations if upper == new} == reachable
    code, report = run_cli(capsys, "verify", out_path)
    assert code == 0 and report["passed"]


def test_cli_join_keeps_edge_ids_and_takes_the_first_free_one(tmp_path, capsys):
    """On a document whose ids are not e0..e7 (e0 is x, e1 is e8), every
    existing id stays and the join's one new word takes e9, the first free
    id counting from the document's eight edges.  The bytes are those the
    join has always written for it."""
    sys_path = str(tmp_path / "sys.json")
    run_cli(capsys, "dpg-demo", "--edges", "2", "--depth", "2", "--seed", "1",
            "--out", sys_path)
    doc = pio.load_json(sys_path)
    assert [e["id"] for e in doc["edges"]] == [f"e{i}" for i in range(8)]
    rename = {"e0": "x", "e1": "e8"}
    for entry in doc["edges"]:
        entry["id"] = rename.get(entry["id"], entry["id"])
    for label in doc["labels"]:
        label["graph"] = [rename.get(e, e) for e in label["graph"]]
    for entry in doc["order"]:
        entry["combo_witness"] = {
            rename.get(e, e): {rename.get(f, f): c for f, c in row.items()}
            for e, row in entry["combo_witness"].items()
        }
    pio.dump_json(doc, sys_path)
    out_path = tmp_path / "joined.json"
    code, report = run_cli(
        capsys, "join", "--system", sys_path, "--labels", "b0,b0t",
        "--out", str(out_path),
    )
    assert code == 0 and report["edges"] == 2
    before = {e["id"]: e["letters"] for e in doc["edges"]}
    after = {e["id"]: e["letters"] for e in pio.load_json(str(out_path))["edges"]}
    assert {eid: after[eid] for eid in before} == before
    assert set(after) - set(before) == {"e9"}
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "2f558c2c462764522c263cb3db9def372f5a6da2eb64960e83ea599930bf6805"
    )


CLI_CHAIN = (
    ("dpg-demo", "--edges", "2", "--depth", "3", "--seed", "5", "--out", "sys.json"),
    ("verify", "sys.json", "--report", "audit.json"),
    ("join", "--system", "sys.json", "--labels", "j(b0+b2),b1", "--out", "joined.json"),
    ("project", "--system", "joined.json", "--state", "state.json",
     "--from", "j(j(b0+b2)+b1)", "--to", "b0", "--out", "projected.json"),
)


def _run_cli_chain(work, hash_seed):
    env = subprocess_env(PYTHONHASHSEED=str(hash_seed))
    stdout = []
    for argv in CLI_CHAIN:
        if argv[0] == "project":
            joined = pio.document_to_system(pio.load_json(str(work / "joined.json")))
            _write_state(work, joined, "j(j(b0+b2)+b1)", seed=2)
        proc = subprocess.run(
            [sys.executable, "-m", "pqk.cli", *argv],
            cwd=work, env=env, capture_output=True, check=True,
        )
        stdout.append(proc.stdout)
    files = {
        name: (work / name).read_bytes()
        for name in ("sys.json", "audit.json", "joined.json", "projected.json")
    }
    return stdout, files


def test_cli_bytes_ignore_hash_seed(tmp_path):
    runs = []
    for hash_seed in (0, 5):
        work = tmp_path / f"seed{hash_seed}"
        work.mkdir()
        runs.append(_run_cli_chain(work, hash_seed))
    assert runs[0] == runs[1]


def test_failing_audit_bytes_ignore_hash_seed(tmp_path):
    doc = pio.system_to_document(random_system(3, 2, seed=7))
    first = next(iter(doc["order"][0]["op_witness"]))
    doc["order"][0]["op_witness"][first] = {"x1": 1, "x2": 1, "x3": 1}
    pio.dump_json(doc, str(tmp_path / "sys.json"))
    outputs = set()
    for hash_seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "pqk.cli", "verify", "sys.json"],
            cwd=tmp_path, env=subprocess_env(PYTHONHASHSEED=str(hash_seed)),
            capture_output=True,
        )
        assert proc.returncode == 1
        outputs.add(proc.stdout)
    (out,) = outputs
    assert b"['x1', 'x2', 'x3']" in out


# Runs each argv in one interpreter and reports, after each command,
# whether numpy has been imported so far.
NUMPY_PROBE = """
import json, sys
from pqk.cli import main
seen = [(argv[0], main(argv), "numpy" in sys.modules) for argv in json.load(sys.stdin)]
print(json.dumps(seen), file=sys.stderr)
"""


def test_exact_commands_never_import_numpy(tmp_path):
    """dpg-demo, verify, join and ap stay exact; project loads the float layer."""
    pio.dump_json({"frame": ["k1"], "terms": [{"freq": [1], "re": 2}]},
                  str(tmp_path / "v.json"))
    pio.dump_json({"target_frame": ["k1"], "source_frame": ["k1", "k2"],
                   "entries": [[1, 1]]}, str(tmp_path / "p.json"))
    _write_state(tmp_path, random_system(3, 2, seed=7), "j(b0+b1)", seed=3)
    argvs = [
        ["dpg-demo", "--edges", "3", "--depth", "2", "--seed", "7", "--out", "sys.json"],
        ["verify", "sys.json"],
        ["join", "--system", "sys.json", "--labels", "b0t,b1", "--out", "joined.json"],
        ["ap", "--op", "inner", "--in", "v.json", "v.json"],
        ["ap", "--op", "promote", "--in", "v.json", "p.json"],
        ["project", "--system", "sys.json", "--state", "state.json",
         "--from", "j(b0+b1)", "--to", "b0", "--out", "projected.json"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], input=json.dumps(argvs), cwd=tmp_path,
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    seen = json.loads(proc.stderr.splitlines()[-1])
    assert seen == [[argv[0], 0, argv[0] == "project"] for argv in argvs]


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    code, report = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "atomic_edges" in report["detail"]
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    code, report = run_cli(capsys, "verify", str(worse))
    assert code == 2

    sys_path = str(tmp_path / "sys.json")
    pio.dump_json(pio.system_to_document(random_system(2, 2, seed=7)), sys_path)
    ap_path = str(tmp_path / "ap.json")
    pio.dump_json({"frame": ["k1", "k2"], "terms": []}, ap_path)
    bad_path = str(tmp_path / "malformed.json")
    commands = {
        "system": ("verify", bad_path),
        "state": ("project", "--system", sys_path, "--state", bad_path,
                  "--from", "b0", "--to", "b0t", "--out", str(tmp_path / "x.json")),
        "ap": ("ap", "--op", "inner", "--in", bad_path, bad_path),
        "projection": ("ap", "--op", "promote", "--in", ap_path, bad_path),
    }
    for kind, bad, field in malformed_documents():
        pio.dump_json(bad, bad_path)
        code, report = run_cli(capsys, *commands[kind])
        assert code == 2, (kind, field, report)
        assert report["error"] == "DocumentError"
        assert re.search(field, report["detail"]), (field, report)


def _one_error_line(capsys, *argv):
    """Run the CLI on argv; it must exit 2 printing one DocumentError line."""
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1, (code, out)
    report = json.loads(out)
    assert report["error"] == "DocumentError"
    return report["detail"]


@pytest.mark.parametrize("content, cause", [
    (b"\xff\xfe garbage", "not UTF-8"),
    (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
], ids=["non-utf8", "nested-200000-deep"])
def test_cli_undecodable_file_exits_2(tmp_path, capsys, content, cause):
    path = tmp_path / "sys.json"
    path.write_bytes(content)
    detail = _one_error_line(capsys, "verify", str(path))
    assert detail.startswith(f"{path}: ") and cause in detail


@pytest.mark.parametrize("command", ["verify", "dpg-demo", "join", "project", "ap"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_cli_unwritable_output_exits_2(system_doc, tmp_path, capsys, command, target):
    rs, sys_path = system_doc
    _, state_path = _write_state(tmp_path, rs, "j(b0+b1)", seed=1, terms=1)
    v, p = str(tmp_path / "v.json"), str(tmp_path / "p.json")
    pio.dump_json({"frame": ["k1"], "terms": [{"freq": [1], "re": 2}]}, v)
    pio.dump_json({"target_frame": ["k1"], "source_frame": ["k1", "k2"],
                   "entries": [[1, 1]]}, p)
    out = {
        "missing-directory": str(tmp_path / "missing" / "out.json"),
        "directory": str(tmp_path),
    }[target]
    argv = {
        "verify": ("verify", sys_path, "--report", out),
        "dpg-demo": ("dpg-demo", "--out", out),
        "join": ("join", "--system", sys_path, "--labels", "b0t,b1", "--out", out),
        "project": ("project", "--system", sys_path, "--state", state_path,
                    "--from", "j(b0+b1)", "--to", "b0", "--out", out),
        "ap": ("ap", "--op", "promote", "--in", v, p, "--out", out),
    }[command]
    detail = _one_error_line(capsys, *argv)
    assert detail.startswith(f"{out}: ")


@pytest.mark.parametrize("command", ["project", "consistency", "oracle"])
def test_cli_non_object_state_exits_2(system_doc, tmp_path, capsys, command):
    _, sys_path = system_doc
    state_path = tmp_path / "state.json"
    state_path.write_text("[1]")
    relation = {
        "project": ("--from", "b0", "--to", "b0t", "--out", str(tmp_path / "x.json")),
        "consistency": ("--chain", "j(b0+b1),b0,b0t"),
        "oracle": ("--from", "b0", "--to", "b0t"),
    }[command]
    code, report = run_cli(
        capsys, command, "--system", sys_path, "--state", str(state_path), *relation
    )
    assert code == 2
    assert report["error"] == "DocumentError"
    assert report["detail"].startswith("state.label: ")


@pytest.mark.parametrize("label, detail", [
    ("zz", "state.label: unknown label 'zz'"),
    (["x"], "state.label: unknown label ['x']"),
], ids=["unknown", "list"])
def test_cli_refuses_a_state_with_an_unknown_label(system_doc, tmp_path, capsys, label, detail):
    rs, sys_path = system_doc
    _, state_path = _write_state(tmp_path, rs, "j(b0+b1)", seed=1, terms=1)
    doc = pio.load_json(state_path)
    doc["label"] = label
    pio.dump_json(doc, state_path)
    out_path = tmp_path / "x.json"
    assert _one_error_line(
        capsys, "project", "--system", sys_path, "--state", state_path,
        "--from", "j(b0+b1)", "--to", "b0", "--out", str(out_path),
    ) == detail
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("dpg-demo", "--edges", "0"),
        ("dpg-demo", "--depth", "0"),
        ("oracle", "--grid", "8"),
        ("oracle", "--extent", "nan"),
        ("oracle", "--extent", "inf"),
        ("oracle", "--extent", "0"),
        ("oracle", "--extent", "-1"),
        ("oracle", "--tol", "nan"),
        ("oracle", "--tol", "-0.5"),
        ("consistency", "--tol", "nan"),
        ("consistency", "--tol", "inf"),
        ("consistency", "--tol", "-1"),
    ],
)
def test_cli_out_of_range_flag_exits_2(system_doc, tmp_path, capsys, command, flag, value):
    rs, sys_path = system_doc
    _, state_path = _write_state(tmp_path, rs, "j(b0+b1)", seed=1, terms=1)
    out = str(tmp_path / "out.json")
    argv = {
        "dpg-demo": ("dpg-demo", "--out", out),
        "oracle": ("oracle", "--system", sys_path, "--state", state_path,
                   "--from", "j(b0+b1)", "--to", "b0", "--grid", "16"),
        "consistency": ("consistency", "--system", sys_path, "--state", state_path,
                        "--chain", "j(b0+b1),b0,b0t"),
    }[command]
    code, report = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert report["error"] == "DocumentError"
    assert report["detail"].startswith(f"{flag}: ")
    if flag == "--tol":
        assert report["detail"] == "--tol: tol must be finite and >= 0"


def test_cli_ap_inner_and_limit_equal(tmp_path, capsys):
    from pqk import ReducedFrame, ap_vector, QC, build_projection

    frame = ReducedFrame(("k1",))
    fine = ReducedFrame(("k1", "k2"))
    v = ap_vector(frame, {(Fraction(1),): QC(Fraction(2))})
    w = ap_vector(frame, {(Fraction(1),): QC(Fraction(0), Fraction(1))})
    proj = build_projection(frame, fine, {"k1": [1, 1]})
    paths = {}
    for name, doc in (
        ("v", pio.ap_to_document(v)),
        ("w", pio.ap_to_document(w)),
        ("p", pio.projection_to_document(proj)),
    ):
        p = tmp_path / f"{name}.json"
        pio.dump_json(doc, str(p))
        paths[name] = str(p)

    code, report = run_cli(
        capsys, "ap", "--op", "inner", "--in", paths["v"], paths["w"]
    )
    assert code == 0
    assert report["value"] == {"re": 0, "im": 2}

    code, report = run_cli(
        capsys, "ap", "--op", "promote", "--in", paths["v"], paths["p"]
    )
    assert code == 0
    assert report["result"]["terms"][0]["freq"] == [1, 1]

    code, report = run_cli(
        capsys, "ap", "--op", "limit-equal", "--in",
        paths["v"], paths["v"], paths["p"], paths["p"],
    )
    assert code == 0 and report["passed"]

    code, report = run_cli(
        capsys, "ap", "--op", "limit-equal", "--in",
        paths["v"], paths["w"], paths["p"], paths["p"],
    )
    assert code == 1 and not report["passed"]


@pytest.mark.parametrize("op, inputs", [
    ("inner", ("v", "v")),
    ("limit-equal", ("v", "v", "p", "p")),
])
def test_cli_ap_out_is_refused_where_no_vector_is_written(tmp_path, capsys, op, inputs):
    paths = {"v": str(tmp_path / "v.json"), "p": str(tmp_path / "p.json")}
    pio.dump_json({"frame": ["k1"], "terms": [{"freq": [1], "re": 2}]}, paths["v"])
    pio.dump_json({"target_frame": ["k1"], "source_frame": ["k1", "k2"],
                   "entries": [[1, 1]]}, paths["p"])
    out = tmp_path / "out.json"
    detail = _one_error_line(
        capsys, "ap", "--op", op, "--in", *(paths[k] for k in inputs), "--out", str(out)
    )
    assert detail == f"--out: {op} writes no vector"
    assert not out.exists()


@pytest.mark.parametrize("op, inputs, detail", [
    ("inner", ("v",), "--in: inner expects two vector files"),
    ("inner", ("v", "v", "v"), "--in: inner expects two vector files"),
    ("promote", ("v",), "--in: promote expects a vector and a projection"),
    ("promote", ("v", "p", "p"), "--in: promote expects a vector and a projection"),
    ("limit-equal", ("v", "v", "p"),
     "--in: limit-equal expects two vectors and two projections"),
], ids=["inner-one", "inner-three", "promote-one", "promote-three", "limit-equal-three"])
def test_cli_ap_names_the_files_each_op_reads(tmp_path, capsys, op, inputs, detail):
    paths = {"v": str(tmp_path / "v.json"), "p": str(tmp_path / "p.json")}
    pio.dump_json({"frame": ["k1"], "terms": [{"freq": [1], "re": 2}]}, paths["v"])
    pio.dump_json({"target_frame": ["k1"], "source_frame": ["k1", "k2"],
                   "entries": [[1, 1]]}, paths["p"])
    assert _one_error_line(
        capsys, "ap", "--op", op, "--in", *(paths[k] for k in inputs)
    ) == detail


def test_cli_limit_equal_rejects_rank_deficient_projections(tmp_path, capsys):
    docs = {
        "v": {"frame": ["k1", "k2"], "terms": [{"freq": [1, 0], "re": 1}]},
        "w": {"frame": ["k1", "k2"], "terms": [{"freq": [0, 1], "re": 1}]},
        "p": {"target_frame": ["k1", "k2"], "source_frame": ["s1", "s2"],
              "entries": [[1, 1], [1, 1]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        pio.dump_json(doc, paths[name])
    code, report = run_cli(
        capsys, "ap", "--op", "limit-equal", "--in",
        paths["v"], paths["w"], paths["p"], paths["p"],
    )
    assert code == 2
    assert report["error"] == "DocumentError"
    assert report["detail"].startswith("projection: ")
    assert "rank 1 < 2" in report["detail"]


@pytest.mark.parametrize("op, inputs, detail", [
    ("inner", ("v", "w"), "--in: inner product of vectors over different frames"),
    ("promote", ("w", "p"), "--in: vector frame differs from projection target"),
    ("limit-equal", ("v", "v", "p", "q"),
     "--in: upper projections disagree on the refined frame"),
], ids=["inner", "promote", "limit-equal"])
def test_cli_ap_frame_mismatch_is_malformed_input(tmp_path, capsys, op, inputs, detail):
    docs = {
        "v": {"frame": ["a", "b"], "terms": [{"freq": [1, 0], "re": 1}]},
        "w": {"frame": ["a", "c"], "terms": [{"freq": [1, 0], "re": 1}]},
        "p": {"target_frame": ["a", "b"], "source_frame": ["s1", "s2"],
              "entries": [[1, 0], [0, 1]]},
        "q": {"target_frame": ["a", "b"], "source_frame": ["t1", "t2"],
              "entries": [[1, 0], [0, 1]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        pio.dump_json(doc, paths[name])
    code, report = run_cli(capsys, "ap", "--op", op, "--in", *(paths[k] for k in inputs))
    assert code == 2
    assert report == {"error": "DocumentError", "detail": detail}
