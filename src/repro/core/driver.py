"""High-level solve driver: the one-call public API.

``solve_cantilever`` wires the full pipeline of Algorithm 2 — mesh,
partition, subdomain assembly, distributed norm-1 scaling, polynomial
preconditioning, FGMRES solve — and returns the solution together with the
recorded communication statistics and modeled machine times, which is what
every benchmark consumes.

Configuration travels in one :class:`repro.core.options.SolverOptions`
value passed as ``options=``.  The former keyword-per-knob signature
(``method=``, ``precond=``, ``restart=`` ...) was deprecated in PR 2 and
has been removed: stray keywords now raise ``TypeError`` pointing at
``SolverOptions``.
"""

from __future__ import annotations

import time  # noqa: F401  (re-exported for timing call sites)
from typing import TYPE_CHECKING

import numpy as np

from repro.core.options import SolverOptions
from repro.fem.cantilever import CantileverProblem
from repro.precond.spec import make_preconditioner  # noqa: F401  (re-export)
from repro.solvers.diagnostics import DiagnosticEvent
from repro.solvers.result import SolveResult  # noqa: F401  (public re-export)

if TYPE_CHECKING:
    from repro.core.session import SolveSummary

#: Convergence-verification slack: a solve that claims convergence at
#: ``tol`` (measured on the scaled, preconditioned system) is demoted when
#: its *unscaled* residual against the serially assembled operator exceeds
#: ``tol * _VERIFY_SLACK`` — generous enough for the norm-1 scaling's
#: conditioning, tight enough that any injected-fault wrong answer trips it.
_VERIFY_SLACK = 100.0


def solve_cantilever(
    problem: CantileverProblem | int,
    n_parts: int = 1,
    options: SolverOptions | None = None,
    tracer=None,
    **kwargs,
) -> SolveSummary:
    """Solve a cantilever problem with the chosen decomposition.

    Parameters
    ----------
    problem:
        A prebuilt :class:`CantileverProblem` or a Table 2 mesh id.
    n_parts:
        Number of subdomains / ranks ``P``.
    options:
        A :class:`SolverOptions` bundling every solver knob — method,
        preconditioner spec, restart/tol/max_iter, partitioner, kernel and
        communicator backends, orthogonalization and the elastodynamics
        shift.  Defaults to ``SolverOptions()`` (enhanced EDD, GLS(7)).
    tracer:
        Optional :class:`repro.obs.Tracer`; records the setup / solve /
        verify phases, per-step solver spans, exchange spans and a
        per-iteration metrics stream, attached to the returned
        :class:`~repro.core.session.SolveSummary` as ``summary.trace`` (and
        ``summary.result.trace``).
    **kwargs:
        Rejected.  The PR 2 per-knob keywords (``method=``, ``precond=``,
        ...) completed their deprecation cycle; any keyword here raises
        ``TypeError`` naming :class:`SolverOptions`.
    """
    if kwargs:
        raise TypeError(
            "solve_cantilever() got unexpected keyword argument(s) "
            f"{sorted(kwargs)}; solver knobs are fields of SolverOptions — "
            "pass options=SolverOptions(...)"
        )
    options = options if options is not None else SolverOptions()
    from repro.core.session import PreparedSystem

    prepared = PreparedSystem.build(problem, n_parts, options, tracer=tracer)
    try:
        return prepared.solve(tracer=tracer)
    finally:
        prepared.close()


def _verify_operator(problem, options: SolverOptions):
    """The clean serially assembled operator ground truth is measured
    against — ``problem.stiffness`` (or the dynamic combination) exactly as
    it existed before any communicator was created."""
    if options.dynamic:
        alpha, beta = options.mass_shift
        return _combine(problem.stiffness, problem.mass, beta, alpha)
    return problem.stiffness


def _verify_verdict(rel: float, options: SolverOptions, result) -> float:
    """Shared demotion logic of the verification paths: a claimed
    convergence whose true residual exceeds ``tol * _VERIFY_SLACK`` loses
    its ``converged`` flag and gains a ``residual_mismatch`` diagnostic."""
    if result.converged and not (rel <= options.tol * _VERIFY_SLACK):
        result.converged = False
        result.diagnostics.append(
            DiagnosticEvent(
                result.iterations,
                "residual_mismatch",
                "driver verification against the serially assembled operator: "
                f"unscaled relative residual {rel:.3e} exceeds "
                f"{options.tol:.1e} x {_VERIFY_SLACK:g}",
            )
        )
    return rel


def _verify_residual(a, b, options: SolverOptions, result) -> float:
    """Unscaled relative residual of ``result`` against operator ``a`` and
    right-hand side ``b``, demoting a claimed convergence that fails the
    :data:`_VERIFY_SLACK` check.

    The distributed solve only ever sees data that flowed through the
    communicator; a fault injected during *system construction* makes
    the solver coherently solve a corrupted operator, which no
    solver-internal guard can detect.  ``a`` (see :func:`_verify_operator`)
    was assembled serially before any communicator existed, so this
    residual is ground truth."""
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return 0.0
    rel = float(np.linalg.norm(b - a @ result.x) / norm_b)
    return _verify_verdict(rel, options, result)


def streamed_matvec(
    mesh,
    material,
    bc,
    x: np.ndarray,
    kind: str = "stiffness",
    scale: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``out += scale * (A_free @ x)`` without materializing ``A``.

    Streams element COO chunks through
    :func:`repro.fem.assembly.iter_element_coo` and scatter-accumulates
    ``scale * data * x[col]`` into ``out`` per chunk — so verification of
    a large-mesh solve costs one chunk of COO entries at a time instead
    of the global CSR the serial verification operator would build.  The
    summation order differs from a CSR matvec, so results agree to
    rounding (fine for the tolerance-based residual check), not bitwise.
    """
    from repro.fem import assembly

    full_to_free = bc.full_to_free()
    if out is None:
        out = np.zeros(bc.n_free)
    for rows, cols, data in assembly.iter_element_coo(
        mesh, material, kind, chunk=assembly.DEFAULT_CHUNK
    ):
        r = full_to_free[rows]
        c = full_to_free[cols]
        keep = (r >= 0) & (c >= 0)
        np.add.at(out, r[keep], scale * data[keep] * x[c[keep]])
    return out


def streamed_verify_residual(
    mesh,
    material,
    bc,
    b: np.ndarray,
    options: SolverOptions,
    result,
) -> float:
    """Memory-bounded counterpart of :func:`_verify_residual`.

    Recomputes the unscaled relative residual ``||b - A x|| / ||b||``
    with :func:`streamed_matvec` (the dynamic combination streams scaled
    stiffness then scaled mass chunks) and applies the same
    :data:`_VERIFY_SLACK` demotion verdict — so large-mesh runs built
    through :func:`repro.fem.cantilever.cantilever_inputs` get the same
    trustworthy ground-truth check without a global matrix ever existing.
    """
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return 0.0
    if options.dynamic:
        alpha, beta = options.mass_shift
        ax = streamed_matvec(mesh, material, bc, result.x, "stiffness", beta)
        ax = streamed_matvec(
            mesh, material, bc, result.x, "mass", alpha, out=ax
        )
    else:
        ax = streamed_matvec(mesh, material, bc, result.x)
    rel = float(np.linalg.norm(b - ax) / norm_b)
    return _verify_verdict(rel, options, result)


def _combine(k, m, beta: float, alpha: float):
    """``beta*K + alpha*M`` via COO concatenation (patterns coincide for
    consistent FEM matrices but this stays general)."""
    from repro.sparse.coo import COOMatrix

    kc = k.tocoo()
    mc = m.tocoo()
    return COOMatrix(
        kc.shape,
        np.concatenate([kc.rows, mc.rows]),
        np.concatenate([kc.cols, mc.cols]),
        np.concatenate([beta * kc.data, alpha * mc.data]),
    ).tocsr()
