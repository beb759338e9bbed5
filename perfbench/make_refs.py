"""Regenerate the committed reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py [--check]

refs/build_digests.json holds the SHA-256 of every document the build
workload can produce (each shape times each pool seed); refs/cli_stdout.json
holds the SHA-256 of each cli command's stdout for every pool entry.  They
pin the outputs of the commit they were made at: a later change that must
keep documents and reports byte-identical is checked against them, so do
not regenerate them to make a run pass.  ``--check`` recomputes everything
and reports differences without writing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def build_digests() -> dict:
    import workloads
    from pqk import dpg, io

    return {
        f"{e}:{d}:{p}": workloads.sha256(
            workloads.document_bytes(io.system_to_document(dpg.random_system(e, d, p)))
        )
        for e, d in workloads.BUILD_SHAPES
        for p in range(workloads.BUILD_POOL)
    }


def cli_digests() -> dict:
    import workloads

    env = workloads.child_env(run.ROOT)
    out = {}
    for index in range(workloads.CLI_POOL):
        work = run.ROOT / ".perfbench_work" / f"refs-{os.getpid()}-{index}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            for name, args in workloads.prepare_cli(work, index, env):
                argv = [sys.executable, "-m", "pqk.cli", *args]
                code, stdout, _ = workloads.run_child(argv, work, env)
                if code != 0:
                    raise SystemExit(f"pool entry {index}: {name} exited with {code}")
                out[f"{index}:{name}"] = workloads.sha256(stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="regenerate perfbench reference outputs")
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args()
    run.prepare_imports()
    import workloads

    differ = 0
    for name, make in (("build_digests.json", build_digests), ("cli_stdout.json", cli_digests)):
        fresh = make()
        path = workloads.REFS / name
        if args.check:
            old = json.loads(path.read_text())
            bad = sorted(k for k in fresh if old.get(k) != fresh[k])
            differ += len(bad)
            print(f"{name}: {len(fresh)} entries, {len(bad)} differ {bad[:5]}")
        else:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
            print(f"{name}: wrote {len(fresh)} entries")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
