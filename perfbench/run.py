"""pqk benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload {build,reduce,oracle,cli} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is one single-threaded, closed-loop process: the
next op starts when the previous one has ended.  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing, over the whole cycles
of ops that take ``--seconds`` at the baseline's speed; with ``--trace 1``
it runs two cycles plain and the same two cycles with spans around every
call into a pqk layer, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# A traced run times this many cycles plain and then the same cycles
# traced, whatever --seconds is, so its call counts repeat exactly.
TRACE_CYCLES = 2
HELD_OUT_SEED = 9973
# Times are reported as they would read on a machine where Speed.kernel
# takes CAL_REF_S (about its median on the 2-vCPU machine of the baseline);
# see Speed.
CAL_REF_S = 0.003
CAL_WINDOW = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_imports() -> None:
    """Import pqk from this checkout's src/, or stop without a result."""
    if not (ROOT / "src" / "pqk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pqk sources under {ROOT / 'src'}; run from a source checkout")
    for var in BLAS_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(ROOT / "src"))
    import pqk

    if Path(pqk.__file__).resolve().parent != ROOT / "src" / "pqk":
        sys.exit(f"perfbench: imported pqk from {pqk.__file__}, not from this checkout")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "nproc": nproc(),
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Speed:
    """How fast this CPU runs right now, from a fixed calibration kernel.

    On a shared machine CPU speed drifts by a third over minutes as tenants
    come and go, and every op slows with it.  Timing the kernel just before
    each op and scaling the op's wall time by ``CAL_REF_S / kernel time``
    (the median of the last CAL_WINDOW kernel times) reports every time as
    it would read on a machine where the kernel takes CAL_REF_S.  The
    kernel uses only the standard library, so no change to pqk moves it.
    """

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=CAL_WINDOW)

    @staticmethod
    def kernel() -> None:
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        f = Fraction(1, 3)
        for i in range(300):
            f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)

    def scale(self) -> float:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        return CAL_REF_S / statistics.median(self.samples)


class Tally:
    """Latencies and failures of the ops a pass ran.

    ``latencies`` are speed-scaled (see Speed); ``raw`` are wall times."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, kind: str, raw: float, scale: float, reason: str | None) -> None:
        self.raw.append(raw)
        self.latencies.append(raw * scale)
        self.by_kind[kind].append(raw * scale)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{kind}: {reason}")


def run_op(op, tally: Tally, speed: Speed) -> None:
    kind, run, check = op
    scale = speed.scale()
    start = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failed op is counted, not fatal
        tally.record(kind, time.perf_counter() - start, scale, f"raised {exc!r}")
        return
    elapsed = time.perf_counter() - start
    tally.record(kind, elapsed, scale, check(out))


def run_cycles(workload, tally: Tally, speed: Speed, cycles: int, tracer=None) -> None:
    for index in range(cycles):
        for op in workload.cycle(index):
            if tracer is not None:
                tracer.op = len(tally.latencies)
            run_op(op, tally, speed)


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles that fill ``seconds`` at the baseline's speed.

    A fixed count, not a deadline, so every run of a workload does the
    same work and a faster program finishes sooner instead of doing more.
    """
    return max(1, round(seconds / workload.cycle_s))


def timed_setup(workload, tally: Tally, speed: Speed) -> tuple[float, float]:
    """Median over SETUP_REPEATS of: imports in a fresh interpreter, input
    generation, and the warm-up op; (speed-scaled, wall) seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(CAL_WINDOW - 1):
            speed.scale()
        scale = speed.scale()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import pqk, pqk.io, pqk.cli"], env=env, check=True
        )
        workload.setup()
        for op in workload.warmup():
            run_op(op, tally, speed)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69 (1982) 635).

    A Beta-weighted mean of all order statistics: it moves smoothly where
    the plain sample quantile jumps between two neighbouring ops, which
    matters when ops of a cycle come in groups of similar cost."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` ops beyond it."""
    return max(50.0, 100.0 * (n - 10) / n)


def end_to_end(workload, tally: Tally, setup: tuple[float, float]) -> tuple[dict, dict]:
    n = len(tally.latencies)
    tail_pct = tail_percentile(n)
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (n / sum(tally.latencies), "1/s"),
        "op_p50_ms": (quantile(tally.latencies, 0.5) * 1e3, "ms"),
        "op_tail_ms": (quantile(tally.latencies, tail_pct / 100) * 1e3, "ms"),
        "ok_ratio": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    details = {
        "ops": n,
        "op_tail_percentile": round(tail_pct, 2),
        "fail_ratio": tally.failed / n,
        "wall": {
            "setup_s": setup[1],
            "ops_per_s": n / sum(tally.raw),
            "op_p50_ms": quantile(tally.raw, 0.5) * 1e3,
            "op_tail_ms": quantile(tally.raw, tail_pct / 100) * 1e3,
        },
    }
    return metrics, details


def per_layer(workload, speed: Speed) -> tuple[dict, dict, list[Tally]]:
    import tracing

    plain = Tally()
    run_cycles(workload, plain, speed, TRACE_CYCLES)
    traced = Tally()
    with tracing.Tracer() as tracer:
        workload.tracer = tracer
        try:
            run_cycles(workload, traced, speed, TRACE_CYCLES, tracer=tracer)
        finally:
            workload.tracer = None
    metrics = {name: (0, unit) for name, unit, _ in tracing.per_layer_spec()}
    metrics.update(tracing.layer_metrics(tracer, sum(traced.raw)))
    metrics.update(workload.layer_extras(plain.by_kind, speed))
    metrics["trace.overhead"] = (sum(traced.latencies) / sum(plain.latencies), "ratio")
    details = {"cycles": TRACE_CYCLES, "spans": len(tracer.spans)}
    return metrics, details, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "reduce", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    prepare_imports()
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, work, tiny=args.size == "tiny"
        )
        speed = Speed()
        warm = Tally()
        setup = timed_setup(workload, warm, speed)
        if args.trace:
            metrics, details, tallies = per_layer(workload, speed)
        else:
            tally = Tally()
            run_cycles(workload, tally, speed, cycles_for(workload, args.seconds))
            metrics, details = end_to_end(workload, tally, setup)
            tallies = [tally]
        details["calibration_ms"] = statistics.median(speed.samples) * 1e3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    tallies.append(warm)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:42s} {value:>16.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for reason in (r for t in tallies for r in t.reasons):
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
