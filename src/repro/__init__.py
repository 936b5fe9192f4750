"""repro — parallel FE-based domain-decomposition FGMRES with polynomial
preconditioning.

A from-scratch reproduction of Liang, Kanapady & Tamma, *"An Efficient
Parallel Finite-Element-Based Domain Decomposition Iterative Technique With
Polynomial Preconditioning"* (UMN TR 05-001 / ICPP 2006).

Quick start::

    from repro import SolverOptions, solve_cantilever
    summary = solve_cantilever(4, n_parts=8, options=SolverOptions(precond="gls(7)"))
    print(summary.result)

Package layout:

- :mod:`repro.fem` — finite elements, meshes, assembly, the Table 2
  cantilever family.
- :mod:`repro.sparse` — CSR/COO sparse kernels.
- :mod:`repro.partition` — element-based (EDD) and node-based (RDD)
  partitions with interface maps.
- :mod:`repro.parallel` — virtual communicator, operation counters,
  SP2/Origin machine models.
- :mod:`repro.spectrum` — Gershgorin/Lanczos spectrum estimates.
- :mod:`repro.precond` — norm-1 scaling, Neumann/GLS/Chebyshev polynomial
  preconditioners, ILU(0), Jacobi.
- :mod:`repro.solvers` — sequential FGMRES/GMRES/CG.
- :mod:`repro.core` — the distributed EDD (Algorithms 5-6) and RDD
  (Algorithm 8) FGMRES solvers and the high-level driver.
- :mod:`repro.dynamics` — Newmark elastodynamics.
- :mod:`repro.service` — the asyncio multi-tenant solver service.
- :mod:`repro.api` — the frozen, versioned public facade; the names
  below are its re-exports and follow its compatibility contract.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "API_VERSION",
    "SCHEMA_VERSION",
    "solve_cantilever",
    "solve_cantilever_batch",
    "SolveSession",
    "PreparedSystem",
    "BatchSolveSummary",
    "SolverOptions",
    "SolveOutcome",
    "SolveResult",
    "SolverService",
    "ServiceConfig",
    "SolveRequest",
    "SolveResponse",
    "serve_jsonl",
    "make_preconditioner",
    "spec_of",
    "cantilever_problem",
    "ParallelSolveSummary",
    "Tracer",
    "fgmres",
    "gmres",
    "cg",
    "__version__",
]

#: Where each re-export lives.  They resolve on first access (PEP 562),
#: so importing a light submodule — a spawned pool worker imports
#: ``repro.parallel._process_worker`` — does not import the solver
#: stack and the service behind the facade.
_HOMES = {name: "repro.api" for name in __all__}
_HOMES.update(dict.fromkeys(("cg", "fgmres", "gmres"), "repro.solvers"))
del _HOMES["__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
