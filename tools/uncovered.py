"""List the statements of the package that the tier-1 tests never run.

Usage, from the repository root:

    python tools/uncovered.py [extra pytest arguments]

Runs the tier-1 suite as a child `python -m pytest` under a
`sys.settrace` line tracer (standard library only; no coverage package
is needed), then prints each statement of `src/squeezer_sim/*.py` that
never ran as `path:line: source`, and a count.  Docstrings are not
statements here.  A compound statement (`def`, `if`, `for`, ...) counts
as run when a line of its header runs; a simple one when any of its
lines does.

The tracer is one `sitecustomize` module in a temporary directory that
goes first on the child's PYTHONPATH.  The tests start their own Python
children with that PYTHONPATH, so the same module loads into every
process of the run, the pytest process included: it traces the
package's lines, writes them to that directory at exit as
`<pid>.lines`, and then runs any `sitecustomize` it shadows.  That is
how `cli`'s `__main__` guard and the `break` of `svg._ticks` for a range
finer than its tick resolution, tested only in children, count as run.

The two `test_sweep_memory_is_its_columns_and_one_branch` cases are
deselected.  They bound tracemalloc's peak over one sweep, and the
tracer's own records are allocated inside that window.

A full run takes about 35 s on a 2-CPU x86-64 VM.  The exit code is
pytest's when that is nonzero, so a failing test is not mistaken for a
coverage result; otherwise 1 when any statement is unrun, else 0.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squeezer_sim"
DESELECT = [
    "tests/test_steadystate.py::test_sweep_memory_is_its_columns_and_one_branch"
    f"[{grid}]" for grid in ("linear", "log")]

# The body of the `sitecustomize` that every process of the run loads,
# after the two lines that set _PREFIX (the package directory) and _OUT
# (where to write).
CHILD_TRACER = """
import atexit, importlib.machinery, importlib.util, os, sys, threading

_ran = set()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _tracer(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _local(frame, event, arg)
    return None


def _write():
    with open(os.path.join(_OUT, f"{os.getpid()}.lines"), "w") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in _ran)


atexit.register(_write)
threading.settrace(_tracer)
sys.settrace(_tracer)

_spec = importlib.machinery.PathFinder.find_spec(
    "sitecustomize", [p for p in sys.path if os.path.abspath(p or ".") != _OUT])
if _spec is not None:
    _spec.loader.exec_module(importlib.util.module_from_spec(_spec))
"""


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
    prefix = str(PACKAGE) + "/"
    with tempfile.TemporaryDirectory() as children:
        children = os.path.abspath(children)
        Path(children, "sitecustomize.py").write_text(
            f"_PREFIX = {prefix!r}\n_OUT = {children!r}\n{CHILD_TRACER}", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (children, os.environ.get("PYTHONPATH"))))}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--rootdir", str(ROOT), *(f"--deselect={t}" for t in DESELECT),
             str(ROOT / "tests"), *argv], env=env).returncode
        ran = set()
        for record in Path(children).glob("*.lines"):
            for row in record.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                ran.add((name, int(line)))

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
    return code or int(unrun > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
