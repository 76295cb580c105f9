import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("uncovered", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


_SOURCE = '''"""Module docstring."""

import os


@decorator(
    1)
def f(x,
      y):
    """Function docstring."""
    if (x and
            y):
        return [x,
                y]
    for i in x:
        while i:
            i -= 1
    return None
'''


def test_statement_rule_of_the_coverage_gate():
    # Docstrings (lines 1 and 10) are not statements; a decorated def
    # spans its decorators through its header, an `if` its header, a
    # simple statement all its lines, and each nested one counts once.
    assert _load_tool().statements(_SOURCE) == {
        3: range(3, 4),
        8: range(6, 10),
        11: range(11, 13),
        13: range(13, 15),
        15: range(15, 16),
        16: range(16, 17),
        17: range(17, 18),
        18: range(18, 19),
    }
