"""List the statements of the package that the tier-1 tests never run.

Usage, from the repository root:

    python tools/uncovered.py [extra pytest arguments]

Runs the tier-1 suite in this process under a `sys.settrace` line
tracer (standard library only; no coverage package is needed), then
prints each statement of `src/squeezer_sim/*.py` that never ran as
`path:line: source`, and a count.  Docstrings are not statements here.
A compound statement (`def`, `if`, `for`, ...) counts as run when a
line of its header runs; a simple one when any of its lines does.

Two kinds of result need a second look:

  * Paths that tests reach only in a child process (`cli`'s `__main__`
    guard, and the `break` of `svg._ticks` for a range finer than its
    tick resolution, which runs under a timeout) show as unrun: the
    tracer does not follow subprocesses.
  * The two `test_sweep_memory_is_its_columns_and_one_branch` cases are
    deselected.  They bound tracemalloc's peak over one sweep, and the
    tracer's own records are allocated inside that window.

A full run takes about 35 s on a 2-CPU x86-64 VM.  The exit code
is pytest's, so a failing test is not mistaken for a coverage result.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squeezer_sim"
DESELECT = [
    "tests/test_steadystate.py::test_sweep_memory_is_its_columns_and_one_branch"
    f"[{grid}]" for grid in ("linear", "log")]


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> dict[int, range]:
    """First line of each statement, mapped to the lines that count as
    running it: a simple statement's lines, or a compound statement's
    decorators and header up to its first body line."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        first = min([node.lineno, *(d.lineno for d in
                                    getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(first, max(end, node.lineno) + 1)
    return found


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            *(f"--deselect={t}" for t in DESELECT),
                            str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno, span in sorted(statements(source).items()):
            total += 1
            if not any((str(path), k) in ran for k in span):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{unrun} of {total} statements unrun")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
