"""A sweep of operator mutants over one module, beside the hand-written gate
in ``mutants.py``: each mutant changes one operator or constant of the
module, and the module's tests must fail on it.

The operators are ``+`` and ``-`` swapped (also in ``+=`` and ``-=``),
``*`` made ``//``, a comparison moved across its boundary or negated
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``), ``and`` and ``or`` swapped, a ``not`` dropped, and
the constants 0 and 1 swapped.  Sites inside f-strings are left out.  When
the module has more sites than the budget, the sites taken are spread
evenly over it, so a sweep of a given budget always makes the same mutants.

Each mutant runs, as in ``mutants.py``, on a fresh copy of ``src``,
``tests`` and ``pyproject.toml``, against the test files with
``--hypothesis-seed=0 -x``; a mutant is killed when pytest exits with an
error or runs past its time limit, which ``mutants.limit_for`` takes from
the test files' unmutated run.  A mutant the test files miss runs again
against the whole of ``tests`` less ``STALE_CHECK`` (under a limit from
that suite's own unmutated run), and one caught there is reported apart,
as caught by another file.  A mutant that survives both either gets a
test or is listed in ``mutation_equivalents.txt`` with the reason that no
test can tell it from the module; listed survivors are reported apart.
The run exits 1 when an unlisted mutant survives.

The test files default to ``tests/test_<module>.py``, less a leading
``_``; where that file does not exist, to the ``tests/test_*.py`` files
whose name, split at ``_``, holds the module's stem (``io.py`` and
``cli.py`` both take ``tests/test_io_cli.py``).

A sweep runs for minutes, so it is not part of the test suite.  Run it
from the repository root with the test dependencies installed::

    python3 tests/mutation_sweep.py gaussian.py --sites 30
    python3 tests/mutation_sweep.py dpg.py --tests tests/test_dpg.py --sites 30
"""

from __future__ import annotations

import argparse
import ast
import copy
import sys
import tempfile
import time
from pathlib import Path

from mutants import ROOT, _copy, _failed, limit_for

EQUIVALENTS = Path(__file__).with_name("mutation_equivalents.txt")
STALE_CHECK = "tests/test_mutation_equivalents.py"
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def _mutation(node: ast.AST) -> tuple[str, ast.AST] | None:
    """The mutant of ``node`` as (operator change, replacement node), or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        old = node.op
    elif isinstance(node, ast.Compare):
        old = node.ops[0]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return "not -> (dropped)", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float) \
            and node.value in (0, 1):
        return f"{node.value!r} -> {1 - node.value!r}", ast.Constant(type(node.value)(1 - node.value))
    else:
        return None
    new = SWAPS.get(type(old))
    if new is None:
        return None
    mutant = copy.deepcopy(node)
    if isinstance(mutant, ast.Compare):
        mutant.ops[0] = new()
    else:
        mutant.op = new()
    return f"{type(old).__name__} -> {new.__name__}", mutant


def sites(source: str) -> list[tuple[ast.AST, str, ast.AST]]:
    """Every (node, operator change, replacement) of ``source``, in order."""
    tree = ast.parse(source)
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        made = None if id(node) in in_fstring else _mutation(node)
        if made is not None:
            found.append((node, *made))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def mutate(source: str, node: ast.AST, replacement: ast.AST) -> str:
    """``source`` with ``node``'s text replaced by ``replacement``'s; an
    expression is parenthesized, so the mutant parses as one operand."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + len(
        lines[node.lineno - 1].encode()[: node.col_offset].decode())
    end = sum(map(len, lines[: node.end_lineno - 1])) + len(
        lines[node.end_lineno - 1].encode()[: node.end_col_offset].decode())
    text = ast.unparse(replacement)
    if not isinstance(node, ast.stmt):
        text = f"({text})"
    return source[:start] + text + source[end:]


def key(module: str, source: str, node: ast.AST, change: str) -> str:
    """A survivor's line in ``mutation_equivalents.txt``, before its reason:
    the module, the change, the text changed and the line it starts on."""
    text = " ".join(ast.get_source_segment(source, node).split())
    return f"{module} | {change} | {text} | {source.splitlines()[node.lineno - 1].strip()}"


def listed() -> set[str]:
    """The survivors ``mutation_equivalents.txt`` lists, each as :func:`key`
    gives it."""
    return {line.rsplit(" | ", 1)[0] for line in EQUIVALENTS.read_text().splitlines()
            if line.strip() and not line.startswith("#")}


def default_tests(module: str) -> tuple[str, ...]:
    """``tests/test_<module>.py``, less a leading ``_``, or where that file
    does not exist, the test files whose name, split at ``_``, holds the
    module's stem."""
    stem = Path(module).stem.lstrip("_")
    if (ROOT / "tests" / f"test_{stem}.py").exists():
        return (f"tests/test_{stem}.py",)
    return tuple(sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py")
                        if stem in p.stem.split("_")[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a file of src/pqk, such as gaussian.py")
    parser.add_argument("--tests", nargs="+",
                        help="default: tests/test_<module>, less a leading _, or "
                             "else the test files whose name holds the module's stem")
    parser.add_argument("--sites", type=int, default=30, help="mutants to run")
    args = parser.parse_args(argv)
    if args.sites < 1:
        parser.error("--sites must be at least 1")
    tests = tuple(args.tests or default_tests(args.module))
    if not tests:
        parser.error(f"no test file names {args.module}; give --tests")
    source = (ROOT / "src" / "pqk" / args.module).read_text()
    every = sites(source)
    step = max(len(every) / args.sites, 1)
    chosen = [every[int(i * step)] for i in range(min(args.sites, len(every)))]
    known = listed()
    print(f"{args.module}: {len(chosen)} of {len(every)} sites, against {' '.join(tests)}")

    limits: dict[tuple[str, ...], float] = {}

    def unmutated(files: tuple[str, ...]) -> bool:
        """Run ``files`` on an unmutated copy; set their limit if they pass."""
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            code, _ = _failed(Path(tmp), files, "-x")
        if code != 0:
            print(f"BASELINE  {' '.join(files)} do not pass unmutated (pytest exit {code})")
            return False
        limits[files] = limit_for(time.perf_counter() - start)
        print(f"limit     {limits[files]:.0f} s a mutant, against {' '.join(files)}")
        return True

    def run(files: tuple[str, ...], mutated: str) -> tuple[int | None, set[str]]:
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            _copy(dest)
            (dest / "src" / "pqk" / args.module).write_text(mutated)
            return _failed(dest, files, "-x", limit=limits[files])

    if not unmutated(tests):
        return 1
    # A mutant of a listed line makes that line stale by its text alone, so
    # the check that each line names a site does not count as catching it.
    everything = ("tests", f"--ignore={STALE_CHECK}")
    survivors = equivalent = elsewhere = 0
    for node, change, replacement in chosen:
        mutated = mutate(source, node, replacement)
        code, _ = run(tests, mutated)
        name = key(args.module, source, node, change)
        if code == 0 and name in known:
            equivalent += 1
            print(f"listed    line {node.lineno}: {name}")
        elif code == 0:
            if everything not in limits and not unmutated(everything):
                return 1
            code, failed = run(everything, mutated)
            if code == 0:
                survivors += 1
                print(f"SURVIVED  line {node.lineno}: {name}")
            else:
                elsewhere += 1
                by = ", ".join(sorted(failed)) or (
                    f"timed out past {limits[everything]:.0f} s" if code is None
                    else f"pytest exit {code}")
                print(f"elsewhere line {node.lineno}: {name} (caught by another file: {by})")
        else:
            how = f"timed out past {limits[tests]:.0f} s" if code is None \
                else f"pytest exit {code}"
            print(f"killed    line {node.lineno}: {change} ({how})")
    killed = len(chosen) - survivors - equivalent - elsewhere
    print(f"{killed} of {len(chosen)} killed, {elsewhere} caught by another file, "
          f"{equivalent} listed as equivalent, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
