"""Run workloads on several seeds; report each metric's median and quartiles.

    python3 perfbench/spread.py --workloads build oracle --seeds 1-10 \\
        [--seconds 20] [--trace 0] [--out FILE]

Runs one seed at a time, in order, and prints per metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the bound in BENCHMARK.json.  ``--out``
writes the same figures and every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, args.trace) for s in report["seeds"]]
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {**summarize(values), "unit": runs[0]["metrics"][name]["unit"],
                             "values": values}
            s = summary[name]
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "  WIDE" if s["spread"] > bound / 3 and name != "setup_s" else "")
            print(f"{workload:7s} {name:40s} median {s['median']:12.5g} {s['unit']:6s}"
                  f" q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f}{flag}")
        correct = all(r["correct"] for r in runs)
        print(f"{workload:7s} correct on every run: {correct}")
        report["workloads"][workload] = {"correct": correct, "metrics": summary}
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
