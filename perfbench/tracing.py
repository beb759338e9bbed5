"""Spans around the calls into each pqk layer, recorded from outside.

``Tracer.install()`` replaces each function named in ``TARGETS`` with a
wrapper, in every ``pqk`` module namespace that binds it, so calls made
through a module attribute (``ratlin.rref``) and calls made through a name
imported into another module (``gaussian.refines``) are both seen.  Each
wrapper records one span ``[name, start, end, parent, op]`` in memory;
``uninstall()`` puts the original functions back.  Nothing is written
until the run ends, and ``layer_metrics`` turns the spans into per-layer
calls, self times and ratios.

Layer names are the module names with the leading underscore dropped, so
``pqk._kernels`` reports as ``kernels``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

TARGETS = {
    "ratlin": ("rref", "rank", "inv", "det", "nullspace", "matmul"),
    "dpg": ("random_system", "system_join", "graph_join", "materialize"),
    "systems": (
        "refines",
        "projection_from_witness",
        "embedding_matrix",
        "check_assumptions",
        "select_independent_dofs",
        "compose_witnesses",
    ),
    "frames": ("build_projection", "kernel_decomposition"),
    "gaussian": (
        "decomposition_for",
        "project_with",
        "hs_distance",
        "chain_consistency",
        "check_coherent_family",
        "quadrature_partial_trace",
        "oracle_report",
        "min_eigenvalue",
    ),
    "_kernels": ("quad_table", "kernel_table"),
    "almost_periodic": ("promote", "inner_product"),
    "io": (
        "document_to_system",
        "system_to_document",
        "load_json",
        "dump_json",
        "document_to_state",
        "state_to_document",
        "default_probes",
    ),
}

CLI_COMMANDS = (
    "verify",
    "project",
    "consistency",
    "join",
    "oracle",
    "ap_inner",
    "ap_promote",
)

# hs_distance is split by call site: calls made inside the family checks
# compare two projections of one state (the matched branch), calls made
# directly by a workload compare unrelated mixtures (the generic branch).
_MATCHED_CALLERS = ("gaussian.chain_consistency", "gaussian.check_coherent_family")


def layer_of(module: str) -> str:
    return module.lstrip("_")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    spec = []
    for name in span_names():
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{layer_of(m)}.errors", "count", "lower") for m in TARGETS]
    spec += [
        ("systems.refines.calls_per_edge", "ratio", "lower"),
        ("kernels.quad_table.points", "count", "higher"),
        ("kernels.quad_table.points_per_s", "1/s", "higher"),
        ("kernels.quad_table.bytes_computed", "B", "lower"),
        ("io.read_mb", "MB", "lower"),
        ("io.write_mb", "MB", "lower"),
        ("cli.start_ms", "ms", "lower"),
        *((f"cli.{c}.ms", "ms", "lower") for c in CLI_COMMANDS),
        ("cli.errors", "count", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


def span_names() -> list[str]:
    names = []
    for module, functions in TARGETS.items():
        for fn in functions:
            if fn == "hs_distance":
                names += [f"gaussian.{fn}.matched", f"gaussian.{fn}.generic"]
            else:
                names.append(f"{layer_of(module)}.{fn}")
    return names


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.refine_pairs: set[tuple] = set()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def export(self) -> dict:
        """What a child process hands back to the parent's tracer."""
        return {
            "spans": [s[:4] for s in self.spans],
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "refine_pairs": len(self.refine_pairs),
        }

    def adopt(self, child: dict, parent: int) -> None:
        """Merge a child process's export under span ``parent``.

        Child spans carry indices local to the child; they are shifted here.
        perf_counter is CLOCK_MONOTONIC on Linux, so the child's times are
        on the parent's time line.
        """
        base = len(self.spans)
        for name, start, end, local_parent in child["spans"]:
            p = parent if local_parent < 0 else base + local_parent
            self.spans.append([name, start, end, p, self.op])
        for layer, n in child["errors"].items():
            self.errors[layer] += n
        for key, value in child["counters"].items():
            self.counters[key] += value
        self.counters["refine_pairs"] += child["refine_pairs"]

    def _wrap(self, layer: str, fn_name: str, fn):
        tracer = self
        name = f"{layer}.{fn_name}"
        extra = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close(idx)
            if extra is not None:
                extra(tracer, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        for module in (*TARGETS, "cli"):
            importlib.import_module(f"pqk.{module}")
        modules = [m for n, m in sys.modules.items() if n == "pqk" or n.startswith("pqk.")]
        for module, functions in TARGETS.items():
            owner = sys.modules[f"pqk.{module}"]
            for fn_name in functions:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(layer_of(module), fn_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-function counters ------------------------------------------------------


def _quad_table_counts(tracer, idx, args, kwargs, result):
    xps, yps, uks = args[4], args[5], args[6]
    tracer.counters["kernels.quad_table.points"] += len(xps) * len(yps) * len(uks)
    arrays = [a for a in args if hasattr(a, "nbytes")] + [result]
    tracer.counters["kernels.quad_table.bytes_computed"] += sum(a.nbytes for a in arrays)


def _load_json_counts(tracer, idx, args, kwargs, result):
    tracer.counters["io.read_bytes"] += os.path.getsize(args[0])


def _dump_json_counts(tracer, idx, args, kwargs, result):
    tracer.counters["io.write_bytes"] += os.path.getsize(args[1])


def _refines_counts(tracer, idx, args, kwargs, result):
    fine, coarse = args[0], args[1]
    tracer.refine_pairs.add((tracer.op, id(fine), id(coarse)))


def _hs_distance_site(tracer, idx, args, kwargs, result):
    span = tracer.spans[idx]
    parent = span[3]
    matched = parent >= 0 and tracer.spans[parent][0] in _MATCHED_CALLERS
    span[0] = "gaussian.hs_distance." + ("matched" if matched else "generic")


_EXTRA = {
    "kernels.quad_table": _quad_table_counts,
    "io.load_json": _load_json_counts,
    "io.dump_json": _dump_json_counts,
    "systems.refines": _refines_counts,
    "gaussian.hs_distance": _hs_distance_site,
}


# -- derived metrics --------------------------------------------------------------


def self_times(spans: list) -> tuple[dict, dict]:
    """Per-name call counts and self seconds (span minus its children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
    return calls, self_s


def covered_seconds(spans: list) -> float:
    """Wall time covered by the union of top-level spans."""
    tops = sorted((s[1], s[2]) for s in spans if s[3] < 0)
    total, cur_start, cur_end = 0.0, None, None
    for start, end in tops:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, op_seconds: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every span-derived per-layer metric.

    ``op_seconds`` is the summed wall time of the traced ops, the base of
    ``trace.coverage``.
    """
    calls, self_s = self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for module in TARGETS:
        layer = layer_of(module)
        out[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    out["cli.errors"] = (tracer.errors.get("cli", 0), "count")
    pairs = len(tracer.refine_pairs) + tracer.counters["refine_pairs"]
    refines = calls.get("systems.refines", 0)
    out["systems.refines.calls_per_edge"] = (refines / pairs if pairs else 0.0, "ratio")
    points = tracer.counters["kernels.quad_table.points"]
    quad_s = self_s.get("kernels.quad_table", 0.0)
    out["kernels.quad_table.points"] = (int(points), "count")
    out["kernels.quad_table.points_per_s"] = (points / quad_s if quad_s > 0 else 0.0, "1/s")
    out["kernels.quad_table.bytes_computed"] = (
        int(tracer.counters["kernels.quad_table.bytes_computed"]),
        "B",
    )
    out["io.read_mb"] = (tracer.counters["io.read_bytes"] / 1e6, "MB")
    out["io.write_mb"] = (tracer.counters["io.write_bytes"] / 1e6, "MB")
    covered = covered_seconds(tracer.spans)
    out["trace.coverage"] = (covered / op_seconds if op_seconds > 0 else 0.0, "ratio")
    return out
