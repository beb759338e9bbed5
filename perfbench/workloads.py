"""The four workloads: build, reduce, oracle and cli.

A workload builds its inputs in ``setup`` (repeatable, deterministic in the
seed), and hands the harness one *cycle* of ops at a time; ``cycle_s`` is
the speed-scaled seconds one cycle took when the benchmark was made, which
sets how many cycles a run of a given length does.  An op is a
``(kind, run, check)`` triple: ``run()`` is the timed call and returns the
output, ``check(output)`` returns ``None`` when the output is right or a
one-line reason when it is not.  A cycle covers every input shape once, so
runs of any length measure the same mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from pqk import almost_periodic, dpg, gaussian, io, systems

import inputs
from inputs import derive

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# build: every (edges, depth) shape once per cycle.  Each shape has a pool
# of BUILD_POOL system seeds, whose document digests are committed in
# refs/build_digests.json; the run seed sets where each shape starts in its
# pool and cycles step through it, so any BUILD_POOL consecutive cycles
# build every pooled system once.  Runs on different seeds then do the
# same work in a different order, and their timings compare.
BUILD_SHAPES = tuple((e, d) for d in (3, 4, 5) for e in range(1, 7))
BUILD_SHAPES_TINY = ((1, 3), (2, 3))
BUILD_POOL = 5

# cli: the system documents come from ``pqk dpg-demo`` with fixed sizes and
# seed.  The run seed picks one of CLI_POOL entries, which sets the state
# and AP values and the labels each command names; the stdout digest of
# every command for every entry is committed in refs/cli_stdout.json.
CLI_POOL = 16
CLI_MEDIUM = (6, 5)
CLI_TINY = (1, 2)
CLI_DOC_SEED = 0

ORACLE_FIXTURES = (
    ("2->1", ((1, 1),)),
    ("3->1", ((1, 1, 0),)),
    ("3->2", ((1, 0, 0), (0, 1, 1))),
)
ORACLE_GRIDS = (64, 128, 256)
# Projected states of dimension 1, 2 and 3 for the positivity probe.
EIGEN_FIXTURES = (
    ((1, 1),),
    ((1, 0, 0), (0, 1, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
)

# reduce: a fixed corpus of REDUCE_DOCS generated systems, edges 1-4 and
# depth 3-4; the run seed sets the states, the AP vectors and the unrelated
# pair, which leave the amount of work unchanged.
REDUCE_DOCS = 12
REDUCE_TERMS = (1, 3, 8)
TOL = 1e-9


def document_bytes(doc: dict) -> bytes:
    """The bytes ``io.dump_json`` writes for ``doc``."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_refs(name: str) -> dict:
    with open(REFS / name) as fh:
        return json.load(fh)


class Workload:
    """Shared plumbing; subclasses define setup, warmup and cycle."""

    name = ""
    cycle_s = 1.0

    def __init__(self, seed: int, work: Path, tiny: bool = False, refs: dict | None = None):
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.refs = refs
        self.tracer = None

    def setup(self) -> None:
        pass

    def warmup(self) -> list:
        """Ops run once, untimed, at the end of each setup repetition."""
        return self.cycle(0)[:1]

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self, latencies_by_kind: dict, speed) -> dict:
        return {}


# -- build ----------------------------------------------------------------------


class Build(Workload):
    """Generate a family, serialize it, and compare its digest."""

    name = "build"
    cycle_s = 3.2

    def setup(self):
        if self.refs is None:
            self.refs = load_refs("build_digests.json")

    def cycle(self, index):
        shapes = BUILD_SHAPES_TINY if self.tiny else BUILD_SHAPES
        ops = []
        for i, (edges, depth) in enumerate(shapes):
            pool_seed = (derive(self.seed, "build", i) + index) % BUILD_POOL
            key = f"{edges}:{depth}:{pool_seed}"
            ops.append(
                (
                    f"{edges}x{depth}",
                    partial(self._build, edges, depth, pool_seed),
                    partial(self._check, key),
                )
            )
        return ops

    def _build(self, edges, depth, seed):
        data = document_bytes(io.system_to_document(dpg.random_system(edges, depth, seed)))
        if self.tracer is not None:
            self.tracer.counters["io.write_bytes"] += len(data)
        return data

    def _check(self, key, data):
        want = self.refs.get(key)
        if want is None:
            return f"no reference digest for {key}"
        return None if sha256(data) == want else f"document digest differs for {key}"


# -- reduce ---------------------------------------------------------------------


@dataclass
class ReduceDoc:
    path: str
    top: str
    state: object
    chains: list
    pair: tuple
    ap: dict


class Reduce(Workload):
    """Load, audit, project, check coherence, compare, and promote."""

    name = "reduce"
    cycle_s = 3.0

    def setup(self):
        n_docs = 3 if self.tiny else REDUCE_DOCS
        self.docs = []
        for i in range(n_docs):
            edges, depth = 1 + i % 4, 3 + (i // 6) % 2
            system = dpg.random_system(edges, depth, derive("reduce-corpus", i))
            path = str(self.work / f"reduce-{i}.json")
            io.dump_json(io.system_to_document(system), path)
            top = inputs.top_label(system.order)
            below = sorted(e.lower for e in system.order if e.upper == top)
            rng = np.random.default_rng(derive(self.seed, "reduce-state", i))
            state = inputs.random_mixture(
                system.labels[top].dim, REDUCE_TERMS[i % len(REDUCE_TERMS)], rng
            )
            pair_dim = system.labels[below[-1]].dim
            pair = tuple(inputs.random_mixture(pair_dim, 2, rng) for _ in range(2))
            ap_rng = random.Random(derive(self.seed, "reduce-ap", i))
            ap = {
                name: [inputs.ap_terms(ap_rng, system.labels[name].dim) for _ in range(2)]
                for name in below
            }
            self.docs.append(
                ReduceDoc(path, top, state, inputs.chains_from(system.order, top), pair, ap)
            )

    def cycle(self, index):
        return [
            (f"doc{i}", partial(self._reduce, doc), self._check)
            for i, doc in enumerate(self.docs)
        ]

    def _reduce(self, doc: ReduceDoc):
        system = io.document_to_system(io.load_json(doc.path))
        labels = system.labels
        audit = systems.check_assumptions(
            dict(labels), system.order, io.default_probes(system)
        )
        top = labels[doc.top]
        states = {doc.top: doc.state}
        for edge in system.order:
            if edge.upper == doc.top:
                kdec = gaussian.decomposition_for(top, labels[edge.lower], edge.witness)
                states[edge.lower] = gaussian.project_with(doc.state, kdec)
        edges = tuple(e for e in system.order if e.upper in states and e.lower in states)
        family = gaussian.check_coherent_family(
            gaussian.CoherentFamily({n: labels[n] for n in states}, states, edges), tol=TOL
        )
        witness = {(e.upper, e.lower): e.witness for e in system.order}
        chain_distances = [
            gaussian.chain_consistency(
                doc.state,
                labels[a],
                labels[b],
                labels[c],
                witness[a, b],
                witness[b, c],
                witness[a, c],
                tol=TOL,
            ).distance
            for a, b, c in doc.chains
        ]
        generic = gaussian.hs_distance(*doc.pair)
        ap_equal = []
        for edge in edges:
            if edge.lower not in doc.ap:
                continue
            projection = systems.projection_from_witness(
                labels[edge.upper], labels[edge.lower], edge.witness
            )
            frame = labels[edge.lower].frame
            v, w = (almost_periodic.ap_vector(frame, t) for t in doc.ap[edge.lower])
            lifted = (almost_periodic.promote(v, projection), almost_periodic.promote(w, projection))
            ap_equal.append(
                almost_periodic.inner_product(v, w) == almost_periodic.inner_product(*lifted)
            )
        return audit, family, chain_distances, generic, ap_equal

    @staticmethod
    def _check(out):
        audit, family, chain_distances, generic, ap_equal = out
        if not audit.passed:
            return f"audit failed: {[i.subject for i in audit.failures()][:3]}"
        if not family.passed:
            return f"family distance {max(e.distance for e in family.edges):.3e} > {TOL}"
        if chain_distances and max(chain_distances) > TOL:
            return f"chain distance {max(chain_distances):.3e} > {TOL}"
        if not (math.isfinite(generic) and generic > 0):
            return f"generic HS distance {generic!r} is not a positive number"
        if not ap_equal or not all(ap_equal):
            return "promotion changed an almost-periodic inner product"
        return None


# -- oracle ---------------------------------------------------------------------


class Oracle(Workload):
    """Quadrature against the closed form, plus the grid positivity probe."""

    name = "oracle"
    cycle_s = 2.9

    def setup(self):
        fixtures = ORACLE_FIXTURES[::2] if self.tiny else ORACLE_FIXTURES
        self.cases = []
        for f, (name, rows) in enumerate(fixtures):
            fine, coarse, witness = inputs.generic_reduction(rows)
            n = fine.dim
            rng = np.random.default_rng(derive(self.seed, "oracle", f))
            states = (
                ("generic", inputs.random_mixture(n, 2, rng, displacement=0.3)),
                ("displaced", gaussian.pure_state(np.eye(n), 0.5 * np.ones(n))),
                ("sharp", gaussian.pure_state(6.0 * np.eye(n), np.zeros(n))),
            )
            for label, state in states:
                self.cases.append((f"{name} {label}", state, fine, coarse, witness))
        self.projected = []
        for k, rows in enumerate(EIGEN_FIXTURES):
            fine, coarse, witness = inputs.generic_reduction(rows)
            rng = np.random.default_rng(derive(self.seed, "oracle-eig", k))
            mixture = inputs.random_mixture(fine.dim, 3, rng)
            self.projected.append(gaussian.project_state(mixture, fine, coarse, witness))

    def cycle(self, index):
        grids = ORACLE_GRIDS[:2] if self.tiny else ORACLE_GRIDS
        ops = []
        for name, state, fine, coarse, witness in self.cases:
            previous: dict = {}
            for grid in grids:
                run = partial(
                    self._oracle, state, fine, coarse, witness, grid
                )
                ops.append((f"{name} g{grid}", run, partial(self._check, grid, previous)))
        for state in self.projected:
            ops.append(
                (f"eig d{state.dim}", partial(gaussian.min_eigenvalue, state), self._check_eig)
            )
        return ops

    @staticmethod
    def _oracle(state, fine, coarse, witness, grid):
        return gaussian.oracle_report(
            state, fine, coarse, witness, grid_points=grid, extent=8.0
        ).max_rel_error

    @staticmethod
    def _check(grid, previous, err):
        """Criterion-3 thresholds: <= 1e-4 on the first grid, then at
        least halving (or <= 1e-9) on each doubling."""
        coarser = previous.get("err")
        previous["err"] = err
        if coarser is None:
            return None if err <= 1e-4 else f"grid {grid}: rel error {err:.2e} > 1e-4"
        if err <= coarser / 2 or err <= 1e-9:
            return None
        return f"grid {grid}: rel error {err:.2e} did not halve from {coarser:.2e}"

    @staticmethod
    def _check_eig(value):
        return None if value >= -1e-8 else f"min eigenvalue {value:.2e} < -1e-8"


# -- cli ------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list, cwd: Path, env: dict) -> tuple[int, bytes, float]:
    """Run one child to completion; (exit code, stdout, peak RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def prepare_cli(work: Path, index: int, env: dict) -> list[tuple[str, list[str]]]:
    """Write the inputs of pool entry ``index`` into ``work``; return the
    commands as (name, argv) pairs.

    The two system documents come from ``pqk dpg-demo``; the state, AP and
    projection documents are written with pqk.io.  Every choice derives
    from the pool index, so the stdout digests in refs/cli_stdout.json
    apply to every run seed that maps to it.
    """
    for name, (edges, depth) in (("med", CLI_MEDIUM), ("tiny", CLI_TINY)):
        argv = [sys.executable, "-m", "pqk.cli", "dpg-demo", "--edges", str(edges),
                "--depth", str(depth), "--seed", str(CLI_DOC_SEED), "--out", f"{name}.json"]
        code, _, _ = run_child(argv, work, env)
        if code != 0:
            raise RuntimeError(f"dpg-demo for {name}.json exited with {code}")
    med = io.document_to_system(io.load_json(str(work / "med.json")))
    tiny = io.document_to_system(io.load_json(str(work / "tiny.json")))
    rng = random.Random(derive("cli", index))
    nrng = np.random.default_rng(derive("cli-state", index))

    top = inputs.top_label(med.order)
    lowers = sorted(e.lower for e in med.order if e.upper == top)
    dest = rng.choice(lowers)
    chain = rng.choice(inputs.chains_from(med.order, top))
    joins = [a for a in sorted(med.dlabels) if a.startswith("j(")]
    bases = [b for b in sorted(med.dlabels) if b.startswith("b") and not b.endswith("t")]
    first = rng.choice(joins)
    second = rng.choice([b for b in bases if b not in first])
    tiny_top = inputs.top_label(tiny.order)
    tiny_dest = rng.choice(sorted(e.lower for e in tiny.order if e.upper == tiny_top))

    io.dump_json(
        io.state_to_document(inputs.random_mixture(med.labels[top].dim, 3, nrng), top),
        str(work / "med_state.json"),
    )
    io.dump_json(
        io.state_to_document(inputs.random_mixture(tiny.labels[tiny_top].dim, 2, nrng), tiny_top),
        str(work / "tiny_state.json"),
    )
    frame = med.labels[dest].frame
    for name in ("ap_v", "ap_w"):
        vector = almost_periodic.ap_vector(frame, inputs.ap_terms(rng, frame.dim))
        io.dump_json(io.ap_to_document(vector), str(work / f"{name}.json"))
    projection = systems.projection_from_witness(
        med.labels[top], med.labels[dest], med.find_witness(top, dest)
    )
    io.dump_json(io.projection_to_document(projection), str(work / "proj.json"))

    return [
        ("verify", ["verify", "med.json"]),
        (
            "project",
            ["project", "--system", "med.json", "--state", "med_state.json",
             "--from", top, "--to", dest, "--out", "projected.json"],
        ),
        (
            "consistency",
            ["consistency", "--system", "med.json", "--state", "med_state.json",
             "--chain", ",".join(chain)],
        ),
        ("join", ["join", "--system", "med.json", "--labels", f"{first},{second}", "--out", "joined.json"]),
        (
            "oracle",
            ["oracle", "--system", "tiny.json", "--state", "tiny_state.json",
             "--from", tiny_top, "--to", tiny_dest],
        ),
        ("ap_inner", ["ap", "--op", "inner", "--in", "ap_v.json", "ap_w.json"]),
        ("ap_promote", ["ap", "--op", "promote", "--in", "ap_v.json", "proj.json"]),
    ]


class Cli(Workload):
    """One ``python -m pqk.cli`` subprocess per op, one at a time."""

    name = "cli"
    cycle_s = 2.1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = child_env(HERE.parent)
        self.index = derive(self.seed, "cli-pool") % CLI_POOL
        self.child_rss: list[float] = []

    def setup(self):
        if self.refs is None:
            self.refs = load_refs("cli_stdout.json")
        self.commands = prepare_cli(self.work, self.index, self.env)

    def warmup(self):
        # The cheapest command; one child also warms the file cache.
        return [op for op in self.cycle(0) if op[0] == "ap_inner"]

    def cycle(self, index):
        return [
            (name, partial(self._run, name, args), partial(self._check, name))
            for name, args in self.commands
        ]

    def _run(self, name, args):
        tracer = self.tracer
        if tracer is None:
            argv = [sys.executable, "-m", "pqk.cli", *args]
            code, out, rss = run_child(argv, self.work, self.env)
            self.child_rss.append(rss)
            return code, out
        span = tracer.open(f"cli.{name}")
        try:
            argv = [sys.executable, str(HERE / "cli_child.py"), "spans.json", *args]
            code, out, _ = run_child(argv, self.work, self.env)
        finally:
            tracer.close(span)
        if code != 0:
            tracer.errors["cli"] += 1
        with open(self.work / "spans.json") as fh:
            tracer.adopt(json.load(fh), span)
        return code, out

    def _check(self, name, result):
        code, out = result
        if code != 0:
            return f"{name} exited with {code}"
        want = self.refs.get(f"{self.index}:{name}")
        if want is None:
            return f"no reference stdout for {self.index}:{name}"
        return None if sha256(out) == want else f"{name} stdout differs from reference"

    def peak_rss_mb(self):
        return max(self.child_rss, default=0.0)

    def layer_extras(self, latencies_by_kind, speed):
        starts = []
        for _ in range(5):
            scale = speed.scale()
            t0 = time.perf_counter()
            run_child([sys.executable, "-m", "pqk.cli", "--help"], self.work, self.env)
            starts.append((time.perf_counter() - t0) * scale)
        extras = {"cli.start_ms": (statistics.median(starts) * 1e3, "ms")}
        for name, _ in self.commands:
            lat = latencies_by_kind.get(name, [])
            extras[f"cli.{name}.ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
        return extras


WORKLOADS = {w.name: w for w in (Build, Reduce, Oracle, Cli)}
