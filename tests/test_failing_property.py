"""A failing property test reports as a failure under warnings-as-errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

_TESTS = Path(__file__).resolve().parent

_CHILD = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # Reporting the failure makes Hypothesis import a module that warns;
    # the conftest must keep that warning from ending the session with
    # INTERNALERROR (exit 3) before the later test runs.  Plain asserts
    # spare the child rewriting every module it imports.
    (tmp_path / "test_child.py").write_text(_CHILD, encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(_TESTS), str(_TESTS.parent / "src")])}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain",
         "-W", "error", "-p", "conftest", "test_child.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
