"""Command-line interface.

Subcommands: verify, project, consistency, join, oracle, dpg-demo, ap.
Each command returns its report; :func:`main` names it by the command,
writes it to ``--report`` where asked, prints it as one JSON document to
stdout and exits 0 if the report passes (a report without ``passed``
passes) and 1 if it fails.  Malformed input or an out-of-range flag prints
one error line and exits 2; its message names the offending field or flag,
by the one rule :func:`pqk.io.named` (ap inputs over mismatched frames
name --in), or the path of a file that cannot be read, decoded or written.
Any other pqk error prints one error line and exits 1.  Only project,
consistency and oracle import the Gaussian layer, and numpy with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import io
from .dpg import System, random_system
from .errors import DocumentError, OrderViolationError, PqkError
from .almost_periodic import inner_product, limit_equal, promote
from .systems import ASSUMPTION_TITLES, check_assumptions


def _emit(text: str) -> None:
    """Write one report to stdout.  A reader that closed stdout early does
    not want it; the command still ends with its own verdict, and stdout
    goes to devnull so that the exit flush stays quiet."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    return io.document_to_state(doc, system.labels[label].dim)


def _require_label(system: System, name: str, field: str) -> None:
    _require_flag(name in system.dlabels, field, f"unknown label {name!r}")


def _load_edge(args):
    """The state on ``--from`` and the witnessed edge to ``--to``: (state,
    fine label, coarse label, witness)."""
    system = _load_system(args.system)
    _require_label(system, args.src, "--from")
    _require_label(system, args.dest, "--to")
    _require_flag(args.dest != args.src, "--to", f"is the --from label {args.src!r}")
    state = _load_state(args.state, system, args.src)
    fine, coarse = system.labels[args.src], system.labels[args.dest]
    return state, fine, coarse, system.find_witness(args.src, args.dest)


def _require_flag(ok: bool, flag: str, rule: str) -> None:
    if not ok:
        raise DocumentError(f"{flag}: {rule}")


def cmd_verify(args) -> dict:
    system = _load_system(args.system)
    family = dict(system.labels)
    report = check_assumptions(family, system.order, io.default_probes(system))
    failures = [
        {
            "assumption": inst.assumption,
            "anchor": f"Assumption {inst.assumption} "
            f"({ASSUMPTION_TITLES[inst.assumption]})",
            "subject": inst.subject,
            "detail": inst.detail,
        }
        for inst in report.failures()
    ]
    return {
        "passed": report.passed,
        "checked": len(report.instances),
        "instances": [dataclasses.asdict(inst) for inst in report.instances],
        "failures": failures,
    }


def cmd_project(args) -> dict:
    from .gaussian import project_state, trace

    projected = project_state(*_load_edge(args))
    io.dump_json(io.state_to_document(projected, args.dest), args.out)
    return {
        "passed": True,
        "from": args.src,
        "to": args.dest,
        "trace_drift": projected.trace_drift,
        "trace": trace(projected),
        "out": args.out,
    }


def cmd_consistency(args) -> dict:
    from .gaussian import chain_consistency, check_tol

    io.named("--tol", check_tol, args.tol)
    system = _load_system(args.system)
    chain = args.chain.split(",")
    _require_flag(len(chain) == 3, "--chain", "expected three comma-separated labels")
    top, mid, bot = chain
    for name in chain:
        _require_label(system, name, "--chain")
    _require_flag(len(set(chain)) == 3, "--chain", "must name three distinct labels")
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
    return {
        "chain": chain,
        "hs_distance": report.distance,
        "tol": report.tol,
        "passed": report.passed,
    }


def cmd_join(args) -> dict:
    system = _load_system(args.system)
    names = args.labels.split(",")
    _require_flag(len(names) == 2, "--labels", "expected two comma-separated labels")
    a, b = names
    swapped = f"j({b}+{a})"
    present = a != b and swapped in system.dlabels
    _require_flag(not present, "--labels", f"label {swapped!r} already present")
    join_name = f"j({a}+{b})"
    merged, result = io.named("--labels", system.with_join, a, b, join_name)
    io.dump_json(io.named("--labels", io.system_to_document, merged), args.out)
    return {
        "label": join_name,
        "edges": len(result.label.graph.edges),
        "span_dim": result.span_dim,
        "out": args.out,
    }


def cmd_oracle(args) -> dict:
    from .gaussian import (
        check_extent, check_kernel_points, check_tol, decomposition_for, oracle_report,
    )

    io.named("--tol", check_tol, args.tol)
    state, fine, coarse, witness = _load_edge(args)
    kdec = decomposition_for(fine, coarse, witness)
    io.named("--grid", check_kernel_points, args.grid, kdec)
    io.named("--extent", check_extent, args.extent, args.grid, kdec, state)
    report = oracle_report(
        state, fine, coarse, witness, grid_points=args.grid, extent=args.extent
    )
    return {
        "from": args.src,
        "to": args.dest,
        "grid": args.grid,
        "extent": args.extent,
        "max_rel_error": report.max_rel_error,
        "tol": args.tol,
        "passed": report.max_rel_error <= args.tol,
    }


def cmd_dpg_demo(args) -> dict:
    for flag, value in (("--edges", args.edges), ("--depth", args.depth)):
        _require_flag(value >= 1, flag, "must be at least 1")
    system = random_system(args.edges, args.depth, args.seed)
    io.dump_json(io.system_to_document(system), args.out)
    return {
        "edges": args.edges,
        "depth": args.depth,
        "seed": args.seed,
        "labels": sorted(system.dlabels),
        "out": args.out,
    }


# Each ap operation: what it computes, its vector files, then its projection
# files (read in that order), and how --in names them.
AP_OPS = {
    "inner": (inner_product, 2, 0, "two vector files"),
    "promote": (promote, 1, 1, "a vector and a projection"),
    "limit-equal": (limit_equal, 2, 2, "two vectors and two projections"),
}


def cmd_ap(args) -> dict:
    op, vectors, projections, files = AP_OPS[args.op]
    writes = args.op == "promote"
    _require_flag(args.out is None or writes, "--out", f"{args.op} writes no vector")
    docs = [io.load_json(path) for path in args.inputs]
    count = vectors + projections
    _require_flag(len(docs) == count, "--in", f"{args.op} expects {files}")
    vs = [io.document_to_ap(d) for d in docs[:vectors]]
    ps = [io.document_to_projection(d) for d in docs[vectors:]]
    result = io.named("--in", op, *vs, *ps)
    report = {"op": args.op}
    if args.op == "inner":
        re, im = result.re, result.im
        report["value"] = {"re": io.rat_to_json(re), "im": io.rat_to_json(im)}
        report["value_float"] = [float(re), float(im)]
    elif writes:
        report["result"] = io.ap_to_document(result)
        if args.out:
            io.dump_json(report["result"], args.out)
            report["out"] = args.out
    else:
        report["passed"] = result
    return report


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
    p.add_argument("--op", required=True, choices=list(AP_OPS))
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"command": args.command}
    try:
        report.update(args.func(args))
        if getattr(args, "report", None):
            io.dump_json(report, args.report)
    except DocumentError as exc:
        _emit(json.dumps({"error": "DocumentError", "detail": str(exc)}))
        return 2
    except OrderViolationError as exc:
        report.update(passed=False, error="OrderViolation", detail=str(exc))
    except PqkError as exc:
        _emit(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    _emit(json.dumps(report, sort_keys=True, indent=2))
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
