"""No-silent-wrong-answer coverage for the sequential short-recurrence
solver (cg).

The comm-level chaos backend cannot reach this solver (it never touches
a communicator), so the faults are injected at the operator boundary
instead: NaN/Inf poisoning of the matvec or preconditioner at a swept
call index.  The invariant is the same as the distributed sweep's:

1. **converged** — and the true residual ``||b - A x|| / ||b||``
   recomputed against the clean operator meets the tolerance (possible
   when the fault fires after convergence was already decided); or
2. **not converged** — with at least one structured diagnostic from the
   known event vocabulary, having stopped *before* ``max_iter`` (a quiet
   full-budget loop on poisoned iterates is the failure mode this file
   exists to pin).

The reduced CI sweep is selected with ``-k smoke``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.cg import cg
from repro.solvers.diagnostics import EVENT_KINDS

pytestmark = pytest.mark.chaos

MAX_ITER = 400
TOL = 1e-10


def spd_system(n=60, seed=7):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


class PoisonedOp:
    """Wrap a linear operator; fault fires once at ``call_index``."""

    def __init__(self, op, call_index, value):
        self.op = op
        self.call_index = call_index
        self.value = value
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        out = np.asarray(self.op(v), dtype=np.float64).copy()
        if self.calls == self.call_index:
            out[0] = self.value
        return out


def _check_invariant(solver_name, res, a, b):
    """Converged-and-right or diagnosed-and-early — nothing else."""
    if res.converged:
        rel = float(np.linalg.norm(b - a @ res.x) / np.linalg.norm(b))
        assert rel <= TOL * 1e4, (
            f"{solver_name}: claimed convergence with true residual {rel:.3e}"
        )
        return
    assert res.iterations < MAX_ITER, (
        f"{solver_name}: unconverged run silently exhausted max_iter "
        f"({res.iterations} iterations) — the poisoned loop was not caught"
    )
    assert res.diagnostics, f"{solver_name}: unconverged without diagnostics"
    assert all(e.kind in EVENT_KINDS for e in res.diagnostics)


SOLVERS = {
    "cg": lambda mv, b, pc: cg(mv, b, precond=pc, tol=TOL, max_iter=MAX_ITER),
}

VALUES = {"nan": np.nan, "inf": np.inf}


@pytest.mark.parametrize("value_name", sorted(VALUES))
@pytest.mark.parametrize("call_index", [1, 2, 5, 9])
@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_poisoned_matvec_never_silently_wrong(
    solver_name, call_index, value_name
):
    a, b = spd_system()
    mv = PoisonedOp(lambda v: a @ v, call_index, VALUES[value_name])
    with np.errstate(invalid="ignore"):
        res = SOLVERS[solver_name](mv, b, None)
    _check_invariant(solver_name, res, a, b)


@pytest.mark.parametrize("call_index", [1, 3, 7])
@pytest.mark.parametrize("solver_name", ["cg"])
def test_poisoned_precond_never_silently_wrong(solver_name, call_index):
    a, b = spd_system(seed=11)
    pc = PoisonedOp(lambda v: v, call_index, np.nan)
    with np.errstate(invalid="ignore"):
        res = SOLVERS[solver_name](lambda v: a @ v, b, pc)
    _check_invariant(solver_name, res, a, b)


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_sequential_nan_fault_smoke(solver_name):
    """Reduced sweep for CI (-k smoke): one mid-solve NaN per solver."""
    a, b = spd_system(seed=3)
    mv = PoisonedOp(lambda v: a @ v, 4, np.nan)
    with np.errstate(invalid="ignore"):
        res = SOLVERS[solver_name](mv, b, None)
    _check_invariant(solver_name, res, a, b)
    assert not res.converged
    assert any(e.kind == "non_finite" for e in res.diagnostics)
