"""The frozen, versioned public API facade.

``repro.api`` is the **supported surface** of the package: everything
re-exported here follows the compatibility contract below, everything
else in ``repro.*`` is internal and may change between PRs without
notice.  Import from here (or from the package root, which re-exports
the same names) when you want stability::

    from repro.api import API_VERSION, SolverOptions, solve_cantilever

Contract
--------
* :data:`API_VERSION` names this facade's surface.  It bumps only when a
  name listed in ``__all__`` is removed or changes signature/semantics
  incompatibly; additions don't bump it.
* Every serialized artifact produced by this surface — summary
  ``to_dict()`` payloads, :class:`SolveRequest`/:class:`SolveResponse`
  messages, ``repro solve --json`` run records, golden files — carries
  ``"schema_version"`` equal to :data:`SCHEMA_VERSION`
  (:mod:`repro.core.outcome`), versioned independently of the facade.
* All solve entry points return a :class:`SolveOutcome`-conforming
  object (``result`` / ``stats`` / ``trace`` / ``to_dict()``), so
  callers never branch on the concrete summary type.

Surface map
-----------
Solving: :func:`solve_cantilever`, :class:`SolverOptions`, :class:`PreparedSystem`, :class:`SolveSession`.
Serving: :class:`SolverService`, :class:`ServiceConfig`,
:class:`SolveRequest`, :class:`SolveResponse`, :func:`serve_jsonl`.
Results: :class:`SolveOutcome`, :class:`SolveSummary`,
:class:`SolveResult`.
Preconditioners: :func:`make_preconditioner`, :func:`spec_of`,
:data:`SPEC_GRAMMAR`.  Problems: :func:`cantilever_problem`.
Observability: :class:`Tracer`.
"""

from __future__ import annotations

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.core.outcome import SCHEMA_VERSION, SolveOutcome
from repro.core.session import PreparedSystem, SolveSession, SolveSummary
from repro.fem.cantilever import CantileverProblem, cantilever_problem
from repro.obs import Tracer
from repro.precond.spec import SPEC_GRAMMAR, make_preconditioner, spec_of
from repro.service import (
    ServiceConfig,
    SolveRequest,
    SolveResponse,
    SolverService,
    serve_jsonl,
)
from repro.solvers.result import SolveResult

#: Version of the frozen facade surface (bumped on incompatible change
#: to any ``__all__`` member; see the module docstring's contract).
API_VERSION = "2"

__all__ = [
    "API_VERSION",
    "SCHEMA_VERSION",
    # solving
    "solve_cantilever",
    "SolverOptions",
    "PreparedSystem",
    "SolveSession",
    # serving
    "SolverService",
    "ServiceConfig",
    "SolveRequest",
    "SolveResponse",
    "serve_jsonl",
    # results
    "SolveOutcome",
    "SolveSummary",
    "SolveResult",
    # preconditioners & problems
    "make_preconditioner",
    "spec_of",
    "SPEC_GRAMMAR",
    "cantilever_problem",
    "CantileverProblem",
    # observability
    "Tracer",
]
