"""Elastodynamics substrate (Section 6.1, Eqs. 51-52).

Newmark-family time integration turns the semi-discrete system
:math:`M\\ddot u + Ku = f` into one linear solve per step with the
effective matrix :math:`\\bar K = \\alpha M + \\beta K`; the transient
driver re-solves it each step with any of the package's solvers, which is
the paper's "dynamic analysis" workload (Figs. 12 and 14).
"""

from repro.dynamics.newmark import NewmarkIntegrator, effective_matrix
from repro.dynamics.transient import TransientResult, run_transient
from repro.dynamics.parallel_transient import (
    ParallelTransientResult,
    run_parallel_transient,
)

__all__ = [
    "NewmarkIntegrator",
    "effective_matrix",
    "TransientResult",
    "run_transient",
    "ParallelTransientResult",
    "run_parallel_transient",
]
