"""Smoke-run the fastest examples as subprocesses.

The examples are the documentation users actually execute; a refactor
that breaks their imports or output must fail the suite.  Only the
fastest example runs here (the rest exceed unit-test time budgets and are
exercised piecewise by the feature tests).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent.parent / "examples"


def _run(name: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "converged=True" in out
    assert "true relative residual" in out


def test_all_examples_importable():
    """Every example at least compiles (catches stale imports without
    paying the full runtime)."""
    import py_compile

    for path in sorted(EXAMPLES.glob("*.py")):
        py_compile.compile(str(path), doraise=True)
