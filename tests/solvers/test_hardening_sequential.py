"""Hardening of the short-recurrence solver (cg).

The GMRES family is hardened by a ConvergenceMonitor; these tests pin
the same contract for CG: a numerically poisoned or broken-down solve
terminates early with a structured DiagnosticEvent — never a silent NaN
loop to ``max_iter`` — while healthy solves keep empty diagnostics and
bit-identical iterates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.cg import cg
from repro.solvers.diagnostics import EVENT_KINDS


def spd_system(n=40, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def test_breakdown_is_a_known_event_kind():
    assert "breakdown" in EVENT_KINDS


# ----------------------------------------------------------------------
# Healthy solves: empty diagnostics, monitor does not perturb iterates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver", [cg])
def test_clean_solve_has_empty_diagnostics(solver):
    a, b = spd_system()
    res = solver(lambda v: a @ v, b, tol=1e-10)
    assert res.converged
    assert res.diagnostics == []


# ----------------------------------------------------------------------
# CG
# ----------------------------------------------------------------------
def test_cg_non_spd_breakdown_event():
    a, b = spd_system(20)
    res = cg(lambda v: -(a @ v), b, max_iter=50)
    assert not res.converged
    assert res.iterations < 50
    assert any(e.kind == "breakdown" for e in res.diagnostics)


def test_cg_exact_zero_rz_guarded():
    # A 90-degree-rotation "preconditioner" keeps z exactly orthogonal to
    # r, so rz == 0 from the start; the old code computed rz_new / rz =
    # NaN and looped silently on NaN iterates until max_iter.
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    res = cg(lambda v: v.copy(), b, precond=lambda v: rot @ v, max_iter=100)
    assert not res.converged
    assert res.iterations < 100
    kinds = {e.kind for e in res.diagnostics}
    assert "breakdown" in kinds
    assert np.all(np.isfinite(res.x))


def test_cg_nan_matvec_terminates_with_diagnostic():
    a, b = spd_system(30)
    calls = {"n": 0}

    def poisoned(v):
        calls["n"] += 1
        out = a @ v
        if calls["n"] == 4:
            out = out.copy()
            out[0] = np.nan
        return out

    res = cg(poisoned, b, tol=1e-12, max_iter=500)
    assert not res.converged
    assert res.iterations < 500
    assert any(e.kind == "non_finite" for e in res.diagnostics)


@pytest.mark.parametrize("solver", [cg])
def test_unconverged_never_empty_diagnostics(solver):
    a, b = spd_system(40, seed=3)
    res = solver(lambda v: a @ v, b, tol=1e-15, max_iter=3)
    if not res.converged:
        assert res.diagnostics
