"""Solver-side anomaly detection and structured diagnostics.

The paper's robustness pitch — EDD-FGMRES with polynomial preconditioning
keeps working where local factorizations break — only holds in production
if the solver can *prove* it: a run must either converge with a verified
true residual or say, in structured form, what went wrong.  This module is
that reporting surface.  Every Krylov driver (:func:`repro.solvers.fgmres`,
:func:`repro.solvers.gmres`, :func:`repro.core.edd.edd_fgmres`,
:func:`repro.core.rdd.rdd_fgmres`) owns a :class:`ConvergenceMonitor` and
returns its event list in :attr:`repro.solvers.result.SolveResult.diagnostics`.

Event vocabulary (the ``kind`` field of every :class:`DiagnosticEvent`):

* ``non_finite`` — NaN/Inf detected in a Hessenberg column or residual
  norm; fatal (the Arnoldi recurrence is poisoned beyond repair).
* ``divergence`` — the relative residual exceeded ``divergence_factor``;
  fatal.
* ``stagnation`` — ``stagnation_cycles`` consecutive restart cycles ended
  without relative improvement beyond ``stagnation_rtol``; fatal.
* ``happy_breakdown`` — ``h_{j+1,j}`` fell below the breakdown tolerance
  (informational: the Krylov space looks invariant).
* ``breakdown`` — a short-recurrence scalar collapsed (CG's ``p.Ap`` not
  positive or ``r.z`` exactly zero); the solver stops instead of dividing
  by (near-)zero and looping on garbage.
* ``breakdown_restart`` — a breakdown was *not* confirmed by the
  recomputed true residual; the solver restarted instead of declaring
  victory (the recovery path for corrupted "lucky" breakdowns).
* ``residual_mismatch`` — the Givens recurrence claimed convergence but
  the true residual recomputed from ``b - A x`` disagreed by more than
  ``mismatch_factor``; convergence is demoted and iteration continues
  (the classic "recurrence residual lies" failure).
* ``no_convergence`` — catch-all appended at exit when the solve failed
  without any more specific event (e.g. plain ``max_iter`` exhaustion),
  so an unconverged result always carries a non-empty diagnosis.

The guards are tuned to be inert on healthy runs: finiteness checks
operate on O(restart) data, convergence demotion needs a
``mismatch_factor``-fold (default 100x) disagreement, and stagnation needs
multiple full restart cycles with essentially zero progress — none of
which a converging solve exhibits.  Iteration counts of healthy runs are
therefore bit-identical with and without the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The closed vocabulary of event kinds (documented above and in
#: docs/TESTING.md); tests assert membership so new kinds must be added
#: here deliberately.
EVENT_KINDS = (
    "non_finite",
    "divergence",
    "stagnation",
    "happy_breakdown",
    "breakdown",
    "breakdown_restart",
    "residual_mismatch",
    "no_convergence",
)


@dataclass(frozen=True)
class DiagnosticEvent:
    """One detected anomaly: where (iteration), what (kind), and detail."""

    iteration: int
    kind: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown diagnostic kind {self.kind!r}; known: {EVENT_KINDS}"
            )

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--json`` record representation)."""
        return {
            "iteration": int(self.iteration),
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DiagnosticEvent":
        return cls(
            iteration=int(payload["iteration"]),
            kind=payload["kind"],
            detail=payload.get("detail", ""),
        )


class ConvergenceMonitor:
    """Shared anomaly detector for the restarted Krylov drivers.

    One instance lives for one solve.  The solver feeds it Hessenberg
    columns, per-iteration relative residuals and the recomputed true
    residual at every restart boundary; it accumulates
    :class:`DiagnosticEvent` records and raises :attr:`fatal` when the
    solve cannot meaningfully continue.

    Parameters
    ----------
    tol:
        The solve's convergence tolerance (used to judge true residuals).
    divergence_factor:
        Fatal when the relative residual exceeds this (default ``1e8``).
    stagnation_cycles:
        Fatal after this many consecutive restart cycles without
        meaningful progress (default 3).
    stagnation_rtol:
        Minimum per-cycle relative improvement that counts as progress
        (default ``1e-3``, i.e. 0.1%).
    mismatch_factor:
        A claimed convergence is demoted when the recomputed true relative
        residual exceeds ``tol * mismatch_factor`` (default 100).
    """

    def __init__(
        self,
        tol: float,
        divergence_factor: float = 1e8,
        stagnation_cycles: int = 3,
        stagnation_rtol: float = 1e-3,
        mismatch_factor: float = 100.0,
    ):
        self.tol = float(tol)
        self.divergence_factor = float(divergence_factor)
        self.stagnation_cycles = int(stagnation_cycles)
        self.stagnation_rtol = float(stagnation_rtol)
        self.mismatch_factor = float(mismatch_factor)
        self.events: list = []
        self.fatal = False
        self._prev_cycle_res: float | None = None
        self._stagnant = 0

    def record(self, kind: str, iteration: int, detail: str = "") -> None:
        """Append an event (public so solvers can add context of their own)."""
        self.events.append(DiagnosticEvent(int(iteration), kind, detail))

    # ------------------------------------------------------------------
    # Per-iteration guards
    # ------------------------------------------------------------------
    def check_finite(self, values, iteration: int, where: str) -> bool:
        """NaN/Inf guard; fatal and False when anything is non-finite.

        ``values`` is a Hessenberg column, a residual norm, or any small
        array/scalar — the check is O(restart), never O(n).
        """
        if bool(np.all(np.isfinite(values))):
            return True
        self.fatal = True
        self.record("non_finite", iteration, f"non-finite value in {where}")
        return False

    def check_divergence(self, rel_res: float, iteration: int) -> bool:
        """Fatal (and False) when the relative residual has exploded."""
        if not (rel_res > self.divergence_factor):
            return True
        self.fatal = True
        self.record(
            "divergence",
            iteration,
            f"relative residual {rel_res:.3e} exceeds "
            f"{self.divergence_factor:.1e}",
        )
        return False

    def note_breakdown(self, h_last: float, iteration: int) -> None:
        """Record a (possible) happy breakdown — informational, the
        recomputed residual at the restart boundary decides the outcome."""
        self.record(
            "happy_breakdown", iteration, f"h[j+1,j] = {h_last:.3e}"
        )

    # ------------------------------------------------------------------
    # Restart-boundary checks
    # ------------------------------------------------------------------
    def confirm_convergence(self, true_rel: float, iteration: int) -> bool:
        """Verify a recurrence-claimed convergence against the recomputed
        true residual; demotes (returns False) on a gross mismatch."""
        if true_rel <= self.tol * self.mismatch_factor:
            return True
        self.record(
            "residual_mismatch",
            iteration,
            f"recurrence claimed convergence but recomputed relative "
            f"residual is {true_rel:.3e} (tol {self.tol:.1e})",
        )
        return False

    def confirm_breakdown(self, true_rel: float, iteration: int) -> bool:
        """After a breakdown, accept only when the recomputed residual
        agrees; otherwise record the restart recovery and continue."""
        if true_rel <= self.tol:
            return True
        self.record(
            "breakdown_restart",
            iteration,
            f"breakdown unconfirmed (true relative residual "
            f"{true_rel:.3e}); restarting",
        )
        return False

    def cycle_end(self, rel_res: float, iteration: int) -> None:
        """Stagnation bookkeeping at the end of an unconverged cycle."""
        prev = self._prev_cycle_res
        if prev is not None and not (rel_res < prev * (1.0 - self.stagnation_rtol)):
            self._stagnant += 1
            if self._stagnant >= self.stagnation_cycles:
                self.fatal = True
                self.record(
                    "stagnation",
                    iteration,
                    f"{self._stagnant} restart cycles without progress "
                    f"(relative residual {rel_res:.3e})",
                )
        else:
            self._stagnant = 0
        self._prev_cycle_res = rel_res

    # ------------------------------------------------------------------
    # Exit
    # ------------------------------------------------------------------
    def finalize(self, converged: bool, iteration: int, final_rel: float) -> list:
        """The event list for :attr:`SolveResult.diagnostics`; guarantees
        an unconverged result never leaves with empty diagnostics."""
        if not converged and not self.events:
            self.record(
                "no_convergence",
                iteration,
                f"iteration budget exhausted at relative residual "
                f"{final_rel:.3e}",
            )
        return list(self.events)
