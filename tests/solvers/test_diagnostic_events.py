"""Exits of the convergence monitor, asserted by event kind.

``no_convergence`` is the catch-all of a solve that runs out of
iterations with nothing more specific to say; ``happy_breakdown`` marks
an Arnoldi step whose new direction vanished (the Krylov space looks
invariant), and ``breakdown_restart`` the restart that follows when the
recomputed residual does not confirm it as a convergence;
``stagnation`` marks restart cycles that no longer reduce the residual.
Each must reach ``SolveResult.diagnostics`` by name, from the serial
FGMRES and (where the operator allows it) from a distributed one alike.
"""
import numpy as np
import pytest

from repro.core.distributed import DistVector, build_edd_system
from repro.core.edd import edd_fgmres
from repro.partition.element_partition import ElementPartition
from repro.solvers.fgmres import fgmres

SOLVERS = ["fgmres", "edd"]


def _laplacian(n=40):
    off = -np.ones(n - 1)
    return 2.0 * np.eye(n) + np.diag(off, 1) + np.diag(off, -1)


def _solve(problem, solver, rhs, **kw):
    """``solver`` on a small operator with right-hand side ``rhs(A)``:
    the serial FGMRES on a 1-D Laplacian, or the enhanced EDD FGMRES on
    the scaled cantilever (whose assembled operator is ``D K D``)."""
    if solver == "fgmres":
        a = _laplacian()
        return fgmres(lambda x: a @ x, rhs(a), **kw)
    part = ElementPartition.build(problem.mesh, 3)
    system = build_edd_system(
        problem.mesh, problem.material, problem.bc, part,
        problem.bc.expand(problem.load),
    )
    try:
        d = system.to_global_vector(
            DistVector(system.d_parts, "global", system.comm)
        )
        a = d[:, None] * problem.stiffness.toarray() * d[None, :]
        b = system.distribute(rhs(a))
        system.b_local = system.localize(b).parts
        return edd_fgmres(system, None, **kw)
    finally:
        system.comm.close()


@pytest.mark.parametrize("solver", SOLVERS)
def test_max_iter_cap_reports_no_convergence(tiny_problem, solver):
    res = _solve(
        tiny_problem, solver, lambda a: np.ones(len(a)), tol=1e-10, max_iter=3
    )
    assert not res.converged
    assert res.iterations == 3
    assert [(e.kind, e.iteration) for e in res.diagnostics] == [
        ("no_convergence", 3)
    ]


@pytest.mark.parametrize("solver", SOLVERS)
def test_eigenvector_rhs_reports_happy_breakdown(tiny_problem, solver):
    """With ``b`` an eigenvector, ``A b`` adds nothing to the Krylov
    space: the first step's ``h[1,0]`` is rounding noise.  The tolerance
    sits below that noise, so the step is not a convergence and the
    breakdown branch takes it."""

    def eigenvector(a):
        return np.linalg.eigh(a)[1][:, -1]

    res = _solve(tiny_problem, solver, eigenvector, tol=1e-20, max_iter=5)
    kinds = [e.kind for e in res.diagnostics]
    assert [(e.kind, e.iteration) for e in res.diagnostics[:2]] == [
        ("happy_breakdown", 1), ("breakdown_restart", 1)
    ]
    assert "no_convergence" not in kinds


def test_rotation_under_gmres1_reports_stagnation():
    """GMRES(1) on a 90-degree rotation: ``A b`` is orthogonal to ``b``,
    so every one-step cycle's least-squares correction is zero and the
    residual never moves."""
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = fgmres(lambda x: a @ x, np.array([1.0, 0.0]), restart=1)
    assert not res.converged
    assert [(e.kind, e.iteration) for e in res.diagnostics] == [
        ("stagnation", 4)
    ]
