"""Everything executable is executed.

``tools/profile_solve.py`` sat in the tree with an ``IndentationError``
and nothing noticed, because nothing ever loaded it.  Every script under
``tools/`` and ``examples/`` must at least compile, and the profiler —
which no other test drives — must run end to end.
"""

from __future__ import annotations

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    p for d in ("tools", "examples") for p in (REPO / d).glob("*.py")
)


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[str(p.relative_to(REPO)) for p in SCRIPTS]
)
def test_script_compiles(script, tmp_path):
    py_compile.compile(
        str(script), cfile=str(tmp_path / "out.pyc"), doraise=True
    )


def test_profile_solve_runs():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "profile_solve.py"), "1", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "profiling: Mesh1" in proc.stdout


def test_resident_speedup_runs(tmp_path):
    """The Table 3 measurement script end to end on a small mesh (forced
    resident: Mesh2 sits below the default threshold)."""
    out = tmp_path / "rows.json"
    env = dict(
        os.environ, PYTHONPATH=str(REPO / "src"),
        REPRO_PROCESS_MIN_WORK="0", REPRO_PROCESS_WORKERS="2",
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "resident_speedup.py"),
         "--mesh", "2", "--degree", "3", "--solves", "1",
         "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    import json

    (row,) = json.loads(out.read_text())["rows"]
    assert row["resident"] and row["bitwise_vs_virtual"]
    assert row["iterations"]["resident"] == row["iterations"]["virtual"]


def test_resident_speedup_block_rows(tmp_path):
    """``--nrhs`` times a block solve and checks every column bitwise."""
    out = tmp_path / "rows.json"
    env = dict(
        os.environ, PYTHONPATH=str(REPO / "src"),
        REPRO_PROCESS_MIN_WORK="0", REPRO_PROCESS_WORKERS="2",
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "resident_speedup.py"),
         "--mesh", "2", "--degree", "3", "--solves", "1", "--nrhs", "3",
         "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    import json

    (row,) = json.loads(out.read_text())["rows"]
    assert row["nrhs"] == 3 and row["resident"] and row["bitwise_vs_virtual"]
