import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pqk import DocumentError, hs_distance, pure_state
from pqk import io as pio
from pqk.cli import main
from pqk.dpg import random_system

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


def test_state_document_round_trip(tmp_path):
    st = random_mixture(2, 3, np.random.default_rng(1))
    doc = pio.state_to_document(st, "L")
    label, back = pio.document_to_state(doc, 2)
    assert label == "L"
    assert hs_distance(st, back) <= 1e-12
    assert pio.state_to_document(back, "L") == doc


def test_state_document_rejects_bad_trace():
    st = pure_state([[1.0]], [0.0])
    doc = pio.state_to_document(st, "L")
    doc["terms"][0]["weight"] = 2.0
    with pytest.raises(DocumentError, match="trace"):
        pio.document_to_state(doc, 1)


def test_state_document_rejects_nonhermitian():
    st = pure_state(np.eye(2), np.zeros(2))
    doc = pio.state_to_document(st, "L")
    doc["terms"][0]["R"][0][1] = [0.5, 0.0]
    with pytest.raises(DocumentError, match="Hermitian"):
        pio.document_to_state(doc, 2)


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
    combo_row = next(iter(system["order"][0]["combo_witness"]))
    op_row = next(iter(system["order"][0]["op_witness"]))
    e, k = next((e, k) for e, edge in enumerate(system["edges"])
                for k, letter in enumerate(edge["letters"]) if letter["sign"] == 1)
    return (
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
                          {src: True for src in
                           system["order"][0]["combo_witness"][combo_row]}),
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


@pytest.mark.parametrize("bound, grid", [(None, "2049"), (None, "100000"), (256, "17")])
def test_cli_oracle_refuses_a_grid_over_the_midpoint_bound(tmp_path, capsys, monkeypatch, bound, grid):
    # j(b0+b1) -> b0 of this system has a 2-dimensional kernel, so --grid
    # 100000 asks for 10**10 midpoints (numpy would need 74.5 GiB): exit 2
    # naming the flag.
    from pqk import gaussian

    if bound:
        monkeypatch.setattr(gaussian, "MAX_MIDPOINTS", bound)
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
        "detail": f"--grid: {grid}**2 midpoints exceed {bound or 2**22} on a "
        "2-dimensional kernel",
    }


def test_cli_oracle_runs_a_grid_at_the_midpoint_bound(tmp_path, capsys, monkeypatch):
    # The bound is inclusive: lowered to 16**2, --grid 16 on the
    # 2-dimensional kernel of j(b0+b1) -> b0 (a 3 -> 1 edge) still runs.
    from pqk import gaussian

    monkeypatch.setattr(gaussian, "MAX_MIDPOINTS", 256)
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
    code, report = run_cli(
        capsys, "ap", "--op", op, "--in", *(paths[k] for k in inputs),
        "--out", str(out),
    )
    assert code == 2
    assert report["error"] == "DocumentError"
    assert report["detail"].startswith("--out: ")
    assert not out.exists()


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
