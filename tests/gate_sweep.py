"""Mutation sweep over the invariant gates.

Every runtime invariant of the package is one ``enforce(...)`` call.  For
each call in ``src/qcoherence``, this script disables that one call in a
temporary copy of the tree, runs the tier-1 suite there with ``-x`` and
records whether a test failed.  A gate *survives* when tier-1 still passes
without it, that is when no test guards it.

    python tests/gate_sweep.py

It prints a Markdown table, one row per call, and exits 1 when the intact
copy fails or a gate survives that is not in ``UNREACHABLE``: the gates
that no upstream fault can reach (ROADMAP item 2).  The name of this file
has no ``test_`` prefix, so tier-1 does not collect it.  About 5 minutes
on 2 cores.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "qcoherence"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
DISABLED = "(lambda *_: None)"
# commutator entry (i, i) is x_i M_ii - M_ii x_i, exactly 0 in IEEE arithmetic
UNREACHABLE = {"infdim.py: commutator trace", "infdim.py: commutator diagonal max"}


def gate_calls(source: str) -> list[tuple[int, int, str]]:
    """(line, column, name) of every ``enforce(...)`` call, the name being
    the source text of its first argument."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "enforce":
            name = re.sub(r'^f?"|"$', "", ast.get_source_segment(source, node.args[0]))
            calls.append((node.func.lineno, node.func.col_offset, name))
    return sorted(calls)


def disabled(source: str, line: int, column: int) -> str:
    """``source`` with the call at (line, column) turned into a no-op."""
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[column:].startswith("enforce(")
    lines[line - 1] = text[:column] + DISABLED + text[column + len("enforce"):]
    return "".join(lines)


def run_tier1(tree: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or summary line, seconds)."""
    # no bytecode cache, so each run compiles the sources as they are now
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    summary = failed.group(1) if failed else done.stdout.strip().rpartition("\n")[2]
    return done.returncode == 0, summary, seconds


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        tree = Path(workdir)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)

        passed, summary, seconds = run_tier1(tree)
        print(f"intact tree: {'pass' if passed else 'FAIL'} ({summary}, {seconds:.0f} s)\n")
        if not passed:
            return 1
        print("| gate | call | tier-1 without it | s |")
        print("| --- | --- | --- | --- |")
        unexpected = []
        for path in sorted((tree / PACKAGE).glob("*.py")):
            source = path.read_text()
            for line, column, name in gate_calls(source):
                path.write_text(disabled(source, line, column))
                passed, summary, seconds = run_tier1(tree)
                path.write_text(source)
                gate = f"{path.name}: {name}"
                if passed and gate not in UNREACHABLE:
                    unexpected.append(gate)
                verdict = "survives" if passed else f"fails: `{summary}`"
                print(f"| {gate} | `{path.name}:{line}` | {verdict} | {seconds:.0f} |", flush=True)
    if unexpected:
        print(f"\nunguarded gates: {', '.join(unexpected)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
