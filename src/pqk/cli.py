"""Command-line interface.

Subcommands: verify, project, consistency, join, oracle, dpg-demo, ap.
Every command prints one JSON report to stdout.  Exit codes: 0 on success
or a passing check, 1 on a verification/consistency failure, 2 on
malformed input or an out-of-range flag (the message names the offending
field or flag).  Only project, consistency and oracle import the Gaussian
layer, and numpy with it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import io
from .dpg import System, random_system, system_join
from .errors import DocumentError, OrderViolationError, PqkError
from .almost_periodic import inner_product, limit_equal, promote
from .systems import (
    ASSUMPTION_TITLES,
    OrderEdge,
    check_assumptions,
    close_witnesses,
)


def _print(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _load_system(path: str) -> System:
    return io.document_to_system(io.load_json(path))


def _load_state(path: str, system: System, expected_label: str):
    doc = io.load_json(path)
    label = doc.get("label") if isinstance(doc, dict) else None
    if not isinstance(label, str) or label not in system.dlabels:
        raise DocumentError(f"state.label: unknown label {label!r}")
    if label != expected_label:
        raise DocumentError(
            f"state.label: state lives on {label!r}, expected {expected_label!r}"
        )
    return io.document_to_state(doc, system.labels[label].dim)[1]


def _require_label(system: System, name: str, field: str) -> None:
    if name not in system.dlabels:
        raise DocumentError(f"{field}: unknown label {name!r}")


def _require_flag(ok: bool, flag: str, rule: str) -> None:
    if not ok:
        raise DocumentError(f"{flag}: {rule}")


def _require_tol(tol: float) -> None:
    _require_flag(math.isfinite(tol) and tol >= 0, "--tol", "must be finite and >= 0")


def cmd_verify(args) -> int:
    system = _load_system(args.system)
    family = dict(system.labels)
    report = check_assumptions(family, system.order, io.default_probes(system))
    failures = [
        {
            "assumption": inst.assumption,
            "anchor": f"Assumption {inst.assumption} "
            f"({ASSUMPTION_TITLES.get(inst.assumption, 'unlisted check')})",
            "subject": inst.subject,
            "detail": inst.detail,
        }
        for inst in report.failures()
    ]
    out = {
        "command": "verify",
        "passed": report.passed,
        "checked": len(report.instances),
        "instances": [
            {
                "assumption": inst.assumption,
                "subject": inst.subject,
                "passed": inst.passed,
                "detail": inst.detail,
            }
            for inst in report.instances
        ],
        "failures": failures,
    }
    if args.report:
        io.dump_json(out, args.report)
    _print(out)
    return 0 if report.passed else 1


def cmd_project(args) -> int:
    from .gaussian import project_state, trace

    system = _load_system(args.system)
    _require_label(system, args.src, "--from")
    _require_label(system, args.dest, "--to")
    state = _load_state(args.state, system, args.src)
    witness = system.find_witness(args.src, args.dest)
    projected = project_state(
        state, system.labels[args.src], system.labels[args.dest], witness
    )
    io.dump_json(io.state_to_document(projected, args.dest), args.out)
    _print(
        {
            "command": "project",
            "passed": True,
            "from": args.src,
            "to": args.dest,
            "trace_drift": projected.trace_drift,
            "trace": trace(projected),
            "out": args.out,
        }
    )
    return 0


def cmd_consistency(args) -> int:
    from .gaussian import chain_consistency

    _require_tol(args.tol)
    system = _load_system(args.system)
    chain = args.chain.split(",")
    if len(chain) != 3:
        raise DocumentError("--chain: expected three comma-separated labels")
    top, mid, bot = chain
    for name in chain:
        _require_label(system, name, "--chain")
    state = _load_state(args.state, system, top)
    report = chain_consistency(
        state,
        system.labels[top],
        system.labels[mid],
        system.labels[bot],
        system.find_witness(top, mid),
        system.find_witness(mid, bot),
        system.find_witness(top, bot),
        tol=args.tol,
    )
    _print(
        {
            "command": "consistency",
            "chain": chain,
            "hs_distance": report.distance,
            "tol": report.tol,
            "passed": report.passed,
        }
    )
    return 0 if report.passed else 1


def cmd_join(args) -> int:
    system = _load_system(args.system)
    names = args.labels.split(",")
    if len(names) != 2:
        raise DocumentError("--labels: expected two comma-separated labels")
    for name in names:
        _require_label(system, name, "--labels")
    a, b = names
    join_name = f"j({a}+{b})"
    if join_name in system.dlabels:
        raise DocumentError(f"--labels: label {join_name!r} already present")
    result = system_join(system.dlabels[a], system.dlabels[b], join_name)

    words = dict(system.words)
    known = set(words.values())
    fresh = (f"e{i}" for i in itertools.count(len(words)) if f"e{i}" not in words)
    for e in result.label.graph.edges:
        if e not in known:
            words[next(fresh)] = e
            known.add(e)

    order = (
        *system.order,
        OrderEdge(join_name, a, result.witness_a),
        OrderEdge(join_name, b, result.witness_b),
    )
    closure = close_witnesses(order, join_name)
    dlabels = dict(system.dlabels)
    dlabels[join_name] = result.label
    merged = System(
        atoms=system.atoms,
        words=words,
        dlabels=dlabels,
        order=(
            *system.order,
            *(OrderEdge(join_name, lower, w) for lower, w in closure.items()),
        ),
    )
    io.dump_json(io.system_to_document(merged), args.out)
    _print(
        {
            "command": "join",
            "label": join_name,
            "edges": len(result.label.graph.edges),
            "span_dim": result.span_dim,
            "out": args.out,
        }
    )
    return 0


def cmd_oracle(args) -> int:
    from .gaussian import MAX_MIDPOINTS, decomposition_for, oracle_report

    _require_flag(args.grid >= 16, "--grid", "must be at least 16")
    _require_flag(
        math.isfinite(args.extent) and args.extent > 0,
        "--extent",
        "must be finite and > 0",
    )
    _require_tol(args.tol)
    system = _load_system(args.system)
    _require_label(system, args.src, "--from")
    _require_label(system, args.dest, "--to")
    state = _load_state(args.state, system, args.src)
    fine, coarse = system.labels[args.src], system.labels[args.dest]
    witness = system.find_witness(args.src, args.dest)
    d = decomposition_for(fine, coarse, witness).kernel_dim
    _require_flag(
        args.grid**d <= MAX_MIDPOINTS,
        "--grid",
        f"{args.grid}**{d} midpoints exceed {MAX_MIDPOINTS} on a {d}-dimensional kernel",
    )
    report = oracle_report(
        state, fine, coarse, witness, grid_points=args.grid, extent=args.extent
    )
    passed = report.max_rel_error <= args.tol
    _print(
        {
            "command": "oracle",
            "from": args.src,
            "to": args.dest,
            "grid": args.grid,
            "extent": args.extent,
            "max_rel_error": report.max_rel_error,
            "tol": args.tol,
            "passed": passed,
        }
    )
    return 0 if passed else 1


def cmd_dpg_demo(args) -> int:
    for flag, value in (("--edges", args.edges), ("--depth", args.depth)):
        _require_flag(value >= 1, flag, "must be at least 1")
    system = random_system(args.edges, args.depth, args.seed)
    io.dump_json(io.system_to_document(system), args.out)
    _print(
        {
            "command": "dpg-demo",
            "edges": args.edges,
            "depth": args.depth,
            "seed": args.seed,
            "labels": sorted(system.dlabels),
            "out": args.out,
        }
    )
    return 0


def cmd_ap(args) -> int:
    if args.out is not None and args.op != "promote":
        raise DocumentError(f"--out: {args.op} writes no vector")
    docs = [io.load_json(path) for path in args.inputs]
    if args.op == "inner":
        if len(docs) != 2:
            raise DocumentError("--in: inner expects two vector files")
        v, w = (io.document_to_ap(d) for d in docs)
        value = inner_product(v, w)
        _print(
            {
                "command": "ap",
                "op": "inner",
                "value": {"re": io.rat_to_json(value.re), "im": io.rat_to_json(value.im)},
                "value_float": [float(value.re), float(value.im)],
            }
        )
        return 0
    if args.op == "promote":
        if len(docs) != 2:
            raise DocumentError("--in: promote expects a vector and a projection")
        v = io.document_to_ap(docs[0])
        p = io.document_to_projection(docs[1])
        out_vec = promote(v, p)
        report = {
            "command": "ap",
            "op": "promote",
            "result": io.ap_to_document(out_vec),
        }
        if args.out:
            io.dump_json(io.ap_to_document(out_vec), args.out)
            report["out"] = args.out
        _print(report)
        return 0
    if args.op == "limit-equal":
        if len(docs) != 4:
            raise DocumentError(
                "--in: limit-equal expects two vectors and two projections"
            )
        v = io.document_to_ap(docs[0])
        w = io.document_to_ap(docs[1])
        pv = io.document_to_projection(docs[2])
        pw = io.document_to_projection(docs[3])
        equal = limit_equal(v, w, pv, pw)
        _print({"command": "ap", "op": "limit-equal", "passed": equal})
        return 0 if equal else 1
    raise DocumentError(f"--op: unknown operation {args.op!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqk",
        description="Reduced quantum systems: verify, project, and audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the assumption audit on a system file")
    p.add_argument("system")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("project", help="project a state onto a subsystem")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("consistency", help="check two-path projection agreement")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--chain", required=True, help="top,mid,bottom label ids")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("join", help="add the join of two labels to a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--labels", required=True, help="two comma-separated label ids")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("oracle", help="compare closed-form projection to quadrature")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dest", required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dpg-demo", help="emit a seeded random DPG system file")
    p.add_argument("--edges", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dpg_demo)

    p = sub.add_parser("ap", help="almost-periodic vector operations")
    p.add_argument("--op", required=True, choices=["inner", "promote", "limit-equal"])
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(json.dumps({"error": "DocumentError", "detail": str(exc)}))
        return 2
    except OrderViolationError as exc:
        _print(
            {
                "command": args.command,
                "passed": False,
                "error": "OrderViolation",
                "detail": str(exc),
            }
        )
        return 1
    except PqkError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
