"""Run ``pqk.cli.main(argv)`` with the benchmark's span wrappers installed.

Used by the cli workload's traced run in place of ``python -m pqk.cli``:

    python perfbench/cli_child.py SPANS_OUT ARGV...

Prints exactly what the command prints, exits with its exit code, and
writes the recorded spans and counters to SPANS_OUT as JSON.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    try:
        with tracer:
            import pqk.cli

            return pqk.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
