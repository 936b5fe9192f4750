"""The paper's contribution: distributed FGMRES solvers.

* :mod:`repro.core.distributed` — local/global distributed vector and
  matrix formats (Definitions 1-2), the distributed norm-1 scaling
  (Algorithms 3-4) and the EDD system builder.
* :mod:`repro.core.edd` — element-based-decomposition FGMRES: the basic
  Algorithm 5 and the enhanced Algorithm 6 (one nearest-neighbour exchange
  per Arnoldi step).
* :mod:`repro.core.rdd` — the row-based baseline, Algorithm 8.
* :mod:`repro.core.driver` — one-call API building mesh → partition →
  scale → precondition → solve, returning solution plus communication
  statistics and modeled machine times.
* :mod:`repro.core.session` — prepared-system sessions, the one
  :class:`SolveSummary` every solve returns, and the batched multi-RHS
  solve path (block Arnoldi over ``(n, k)`` right-hand-side
  blocks with coalesced interface exchanges).
* :mod:`repro.core.complexity` — the Table 1 analytic cost model, asserted
  against the recorded counters.
"""

from repro.core.distributed import (
    DistVector,
    EDDSystem,
    build_edd_system,
)
from repro.core.edd import edd_fgmres, edd_fgmres_block
from repro.core.rdd import (
    RDDSystem,
    build_rdd_system,
    rdd_fgmres,
    rdd_fgmres_block,
)
from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem, SolveSession, SolveSummary
from repro.core.complexity import ArnoldiStepCost, arnoldi_step_cost
from repro.core.schur import SchurResult, schur_solve

__all__ = [
    "SolverOptions",
    "DistVector",
    "EDDSystem",
    "build_edd_system",
    "edd_fgmres",
    "edd_fgmres_block",
    "RDDSystem",
    "build_rdd_system",
    "rdd_fgmres",
    "rdd_fgmres_block",
    "solve_cantilever",
    "SolveSummary",
    "PreparedSystem",
    "SolveSession",
    "ArnoldiStepCost",
    "arnoldi_step_cost",
    "SchurResult",
    "schur_solve",
]
