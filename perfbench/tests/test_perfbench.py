"""Tests of the benchmark itself; run with

    python3 -m pytest perfbench/tests -q

Each workload runs one cycle at its tiny size and must pass every check;
a corrupted reference must be counted as a failed op, not crash the run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_imports()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["build", "reduce", "oracle", "cli"])
def test_tiny_workload_passes_its_checks(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(result["metrics"]) == set(names)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "oracle", "--seed", "3", "--seconds", "0",
                 "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["kernels.quad_table.calls"] > 0
    assert metrics["kernels.quad_table.points"] > 0


def test_spec_lists_what_tracing_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(t) for t in tracing.per_layer_spec()
    ]


def run_one_cycle(workload):
    tally = run.Tally()
    workload.setup()
    run.run_cycles(workload, tally, run.Speed(), 1)
    return tally


def test_corrupted_build_reference_counts_as_failure(tmp_path):
    refs = dict(workloads.load_refs("build_digests.json"))
    refs = {key: "0" * 64 for key in refs}
    tally = run_one_cycle(workloads.Build(3, tmp_path, tiny=True, refs=refs))
    assert tally.failed == len(tally.latencies) == len(workloads.BUILD_SHAPES_TINY)
    assert all("digest differs" in r for r in tally.reasons)


def test_corrupted_cli_reference_counts_as_failure(tmp_path):
    cli = workloads.Cli(3, tmp_path, tiny=True)
    refs = dict(workloads.load_refs("cli_stdout.json"))
    refs[f"{cli.index}:verify"] = "corrupt"
    cli.refs = refs
    tally = run_one_cycle(cli)
    assert tally.failed == 1 and len(tally.latencies) == 7
    assert "verify stdout differs" in tally.reasons[0]


def test_missing_sources_exit_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(12) == 50.0


def test_harrell_davis_quantile():
    values = [float(i) for i in range(100)]
    assert run.quantile(values, 0.5) == pytest.approx(49.5, abs=1e-9)
    assert run.quantile(values, 0.9) == pytest.approx(89.5, abs=1e-6)
    assert run.quantile([7.0] * 15, 0.3) == pytest.approx(7.0)
    assert run.betainc(2.5, 2.5, 0.5) == pytest.approx(0.5)


def test_self_time_subtracts_children_and_coverage_merges_tops():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["a", 12.0, 14.0, -1, 1],
    ]
    calls, self_s = tracing.self_times(spans)
    assert calls == {"a": 2, "b": 1, "c": 1}
    assert self_s == {"a": 9.0, "b": 2.0, "c": 1.0}
    assert tracing.covered_seconds(spans) == 12.0


def test_tracer_restores_the_original_functions():
    from pqk import gaussian, ratlin

    rref, refines = ratlin.rref, gaussian.refines
    with tracing.Tracer() as tracer:
        assert ratlin.rref is not rref and gaussian.refines is not refines
        ratlin.rank(((1, 2), (2, 4)))
    assert ratlin.rref is rref and gaussian.refines is refines
    names = [s[0] for s in tracer.spans]
    assert names == ["ratlin.rank", "ratlin.rref"]
    assert tracer.spans[1][3] == 0
