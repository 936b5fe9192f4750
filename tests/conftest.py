"""Shared fixtures: small FEM problems reused across the suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.fem.cantilever import cantilever_problem
from repro.fem.material import Material


def pytest_addoption(parser):
    """``--update-golden`` regenerates tests/golden/*.json in place
    (review the diff!) instead of comparing against them."""
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden record files from the current code",
    )


@pytest.fixture
def update_golden(request):
    """Whether this run should refresh golden files instead of asserting."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def tiny_problem():
    """4x3-element cantilever: small enough for dense reference solves."""
    return cantilever_problem(nx=4, ny=3)


@pytest.fixture(scope="session")
def tiny_dynamic_problem():
    """Same mesh with the consistent mass matrix."""
    return cantilever_problem(nx=4, ny=3, with_mass=True)


@pytest.fixture(scope="session")
def mesh1_problem():
    """The paper's Mesh1 (7x1, 28 equations)."""
    return cantilever_problem(1)


@pytest.fixture(scope="session")
def mesh2_problem():
    """The paper's Mesh2 (40x8, 656 equations)."""
    return cantilever_problem(2)


@pytest.fixture(scope="session")
def soft_material():
    """A mild material that keeps matrix entries O(1)."""
    return Material(E=100.0, nu=0.3, rho=1.0, thickness=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def child_python():
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``repro``; returns its stdout.  ``env`` entries override the
    inherited environment (``None`` unsets).  For checks on what an
    import pulls in, which the test process itself has long since
    imported."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)

    def run(code: str, **env) -> str:
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, child_env.get("PYTHONPATH")])
        )
        for name, value in env.items():
            if value is None:
                child_env.pop(name, None)
            else:
                child_env[name] = value
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture(
    params=["virtual", "process"],
    ids=["comm-virtual", "comm-process"],
)
def comm_backend(request, monkeypatch):
    """Parameterize a test over the two execution strategies: inline in
    the orchestrator (``virtual``) and worker-resident rank ops
    (``process`` with the residency threshold forced to zero).

    Results must be bit-identical across both (the Comm contract); solver
    tests taking this fixture therefore run once per strategy and assert
    the same numbers each time.
    """
    from repro.parallel.comm import use_comm_backend

    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    with use_comm_backend(request.param):
        yield request.param
