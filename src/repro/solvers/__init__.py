"""Sequential Krylov solvers.

:func:`fgmres` is the paper's Algorithm 1 — flexible GMRES with restart,
where the preconditioner may change between iterations (which is what
allows polynomial preconditioners to be applied as an inner iteration).
It, and the distributed Algorithms 5, 6 and 8 in :mod:`repro.core`
(single and multi-RHS), are one restart cycle:
:func:`repro.solvers.krylov.restarted_fgmres`, which owns the restart
loop, the Givens least-squares problems, convergence monitoring, tracing
and result assembly, and runs over a small
:class:`~repro.solvers.krylov.KrylovSpace` that owns the vectors.  Plain
left-preconditioned :func:`gmres` (kept apart on purpose: it is the
independent reference FGMRES is validated against) and preconditioned
:func:`cg` are included as baselines.

All Krylov solvers are hardened through
:class:`~repro.solvers.diagnostics.ConvergenceMonitor`: non-finite
guards, divergence/stagnation detection and true-residual confirmation
of claimed convergence, surfaced as structured
:class:`~repro.solvers.diagnostics.DiagnosticEvent` entries on
:attr:`SolveResult.diagnostics`.
"""

from repro.solvers.result import SolveResult
from repro.solvers.diagnostics import (
    EVENT_KINDS,
    ConvergenceMonitor,
    DiagnosticEvent,
)
from repro.solvers.givens import GivensLSQ
from repro.solvers.fgmres import fgmres
from repro.solvers.gmres import gmres
from repro.solvers.cg import cg

__all__ = [
    "SolveResult",
    "DiagnosticEvent",
    "ConvergenceMonitor",
    "EVENT_KINDS",
    "GivensLSQ",
    "fgmres",
    "gmres",
    "cg",
]
