"""Everything executable is executed.

``tools/profile_solve.py`` sat in the tree with an ``IndentationError``
and nothing noticed, because nothing ever loaded it.  Every script under
``tools/`` and ``examples/`` must at least compile, every ``repro`` name
imported by a script there or under ``benchmarks/`` must exist (compiling
does not notice an import of a deleted module), and the profiler — which
no other test drives — must run end to end.
"""

from __future__ import annotations

import ast
import importlib
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


IMPORTING = SCRIPTS + sorted((REPO / "benchmarks").glob("*.py"))


def _repro_imports(script: Path):
    """``(module, name)`` for every ``repro`` import anywhere in the
    script; ``name`` is None for a plain ``import repro.x``."""
    for node in ast.walk(ast.parse(script.read_text(), str(script))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize(
    "script", IMPORTING, ids=[str(p.relative_to(REPO)) for p in IMPORTING]
)
def test_script_repro_imports_resolve(script):
    for module, name in _repro_imports(script):
        mod = importlib.import_module(module)
        if name is None or name == "*" or hasattr(mod, name):
            continue
        # ``from package import submodule`` names a module, not an attribute.
        importlib.import_module(f"{module}.{name}")


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
