"""The restarted flexible-GMRES cycle, written once.

Algorithms 1, 5, 6 and 8 of the paper are one numerical method —
restarted FGMRES — that differs only in *where the vectors live* and
*when they are exchanged*.  :func:`restarted_fgmres` owns everything the
five public solvers (:func:`~repro.solvers.fgmres.fgmres`,
:func:`~repro.core.edd.edd_fgmres` / ``edd_fgmres_block``,
:func:`~repro.core.rdd.rdd_fgmres` / ``rdd_fgmres_block``) have in
common:

* the restart loop and the per-column Givens least-squares problems;
* the :class:`~repro.solvers.diagnostics.ConvergenceMonitor` flow —
  NaN/Inf guards, divergence, confirmation of claimed convergence and of
  breakdowns against the recomputed residual, stagnation bookkeeping;
* per-column exit from the Arnoldi recurrence (convergence, breakdown,
  divergence, ``max_iter``) while the other columns keep iterating;
* the ``cycle`` / ``arnoldi_step`` / ``precond_apply`` / ``matvec`` /
  ``orthogonalize`` / ``givens_update`` spans and the per-iteration
  metric stream;
* :class:`~repro.solvers.result.SolveResult` assembly.

It is written for ``k`` columns; a single right-hand side is the
one-column case of the *control flow*.  All arithmetic and all
communication belong to a :class:`KrylovSpace`, so the driver never
touches a vector: the sequential space keeps its zero-allocation
workspaces, the distributed ones their exchange structure (one
neighbour exchange per step for Algorithm 6, three for Algorithm 5).

:func:`repro.solvers.gmres.gmres` deliberately stays outside: it is the
independent reference implementation FGMRES is validated against.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.solvers.diagnostics import ConvergenceMonitor
from repro.solvers.givens import GivensLSQ
from repro.solvers.result import SolveResult


class KrylovSpace(Protocol):
    """Storage, arithmetic and communication of one FGMRES solve.

    Columns are named two ways.  A *column id* ``c`` in ``range(k)`` is
    fixed for the solve; a *live position* ``p`` indexes the columns
    still inside the current cycle's Arnoldi recurrence, in the order
    :meth:`start_cycle` received them minus the ones retired since.
    The driver calls, per cycle: :meth:`start_cycle`; per step
    :meth:`precondition`, :meth:`matvec`, :meth:`orthogonalize`, then
    :meth:`retire` for each exiting column and :meth:`commit` if any
    remain; after the last step :meth:`update` and :meth:`residual`.
    """

    #: Number of right-hand-side columns.
    k: int
    #: The communicator's ``CommStats`` (per-iteration metric deltas are
    #: read off it), or None for a sequential space.
    stats: object

    def residual(self, cols: Sequence[int]) -> np.ndarray:
        """Recompute ``r = b - A x`` for column ids ``cols`` and keep it
        for the next :meth:`start_cycle`; returns their 2-norms."""

    def start_cycle(self, cols: Sequence[int], betas: np.ndarray) -> None:
        """Open a cycle on column ids ``cols``: ``v_0 = r / beta``."""

    def precondition(self, j: int) -> None:
        """``z_j = C v_j`` (kept for the solution update)."""

    def matvec(self, j: int) -> None:
        """``w = A z_j``, including the exchange the operator needs."""

    def orthogonalize(self, j: int) -> np.ndarray:
        """Orthogonalise ``w`` against ``v_0..v_j``; returns the
        ``(j + 2, live)`` Hessenberg columns, last row ``||w||``."""

    def retire(self, pos: int, col: int, y: np.ndarray) -> None:
        """Column ``col`` at live position ``pos`` leaves the cycle:
        apply ``x_col += Z_col y`` and drop it from the live blocks."""

    def commit(self, j: int, keep, h_next: np.ndarray) -> None:
        """``v_{j+1} = w / h_next``.  ``keep`` lists the pre-retirement
        positions of the columns still live when some were retired in
        this step (``w`` still holds them all), else None."""

    def update(self, cols: Sequence[int], ys: list) -> None:
        """Solution update for the columns that rode out the whole
        cycle (all ``ys`` share one Krylov dimension)."""

    def solutions(self) -> list:
        """The ``k`` solution vectors, unscaled and gathered."""


def restarted_fgmres(
    space: KrylovSpace,
    restart: int,
    tol: float,
    max_iter: int,
    breakdown_tol: float,
    tracer=None,
) -> list:
    """Run restarted FGMRES over ``space``; one :class:`SolveResult`
    per column.

    Convergence is judged per column on ``||r_i|| / ||r_0||`` from the
    Givens recurrence, and never trusted: at every restart boundary the
    residual is recomputed, a claimed convergence or happy breakdown is
    confirmed against it (and demoted on gross mismatch), so a corrupted
    recurrence restarts instead of returning a wrong answer as
    converged.

    With a ``tracer`` every inner iteration of every live column emits
    ``{iteration, rel_res}`` and every restart boundary ``{iteration,
    true_rel, cycle}``; when ``k > 1`` the records carry ``column``.
    Where the space has ``stats`` the first record of each step also
    carries the ``nbr_messages`` / ``nbr_words`` / ``reductions`` deltas
    since the previous such record.
    """
    k = space.k
    trc = tracer if tracer is not None else NULL_TRACER
    traced = trc.enabled
    stats = space.stats if traced else None

    def emit(c: int, **fields) -> None:
        if k > 1:
            fields["column"] = c
        trc.metric(**fields)

    norm_r0 = space.residual(list(range(k)))
    if stats is not None:
        # Deltas start after the initial residual: its exchange belongs
        # to no Arnoldi step.
        last = (stats.total_nbr_messages, stats.total_nbr_words,
                stats.max_reductions)
    histories = [[1.0] for _ in range(k)]
    monitors = [ConvergenceMonitor(tol) for _ in range(k)]
    iters = [0] * k
    restarts = [0] * k
    converged = [False] * k
    for c in range(k):
        if norm_r0[c] == 0.0:
            converged[c] = True
        else:
            monitors[c].check_finite(norm_r0[c], 0, "initial residual")

    def running(c: int) -> bool:
        return not (converged[c] or monitors[c].fatal or iters[c] >= max_iter)

    def retire(positions: list) -> None:
        for p in reversed(positions):
            c = cols.pop(p)
            space.retire(p, c, lsqs[c].solve())

    beta = np.array(norm_r0, dtype=np.float64)
    active = [c for c in range(k) if running(c)]
    cycle = 0
    while active:
        cycle += 1
        if traced:
            trc.begin("cycle", "solver", cycle=cycle, k=len(active))
        for c in active:
            restarts[c] = cycle
        space.start_cycle(active, beta[active])
        lsqs = {c: GivensLSQ(restart, float(beta[c])) for c in active}
        claimed: set = set()
        broke: set = set()
        cols = list(active)
        j = 0
        while j < restart and cols:
            retire([p for p, c in enumerate(cols) if iters[c] >= max_iter])
            if not cols:
                break
            if traced:
                trc.begin("arnoldi_step", "solver", j=j, k=len(cols))
                trc.begin("precond_apply", "solver")
            space.precondition(j)
            if traced:
                trc.end()
                trc.begin("matvec", "solver")
            space.matvec(j)
            if traced:
                trc.end()
                trc.begin("orthogonalize", "solver")
            h = space.orthogonalize(j)
            if traced:
                trc.end()
                trc.begin("givens_update", "solver")

            exits: list = []
            deltas = {}
            if stats is not None:
                now = (stats.total_nbr_messages, stats.total_nbr_words,
                       stats.max_reductions)
                deltas = {
                    "nbr_messages": now[0] - last[0],
                    "nbr_words": now[1] - last[1],
                    "reductions": now[2] - last[2],
                }
                last = now
            for p, c in enumerate(cols):
                mon = monitors[c]
                hcol = h[:, p]
                if not mon.check_finite(hcol, iters[c] + 1, "Hessenberg column"):
                    exits.append(p)
                    continue
                rel = lsqs[c].append_column(hcol) / norm_r0[c]
                iters[c] += 1
                histories[c].append(rel)
                if traced:
                    # The step's comm deltas ride on its first record.
                    emit(c, iteration=iters[c], rel_res=rel, **deltas)
                    deltas = {}
                if not mon.check_divergence(rel, iters[c]):
                    exits.append(p)
                elif rel <= tol:
                    claimed.add(c)
                    exits.append(p)
                elif h[j + 1, p] <= breakdown_tol:
                    # Possible happy breakdown: the Krylov space looks
                    # invariant.  Do NOT trust the recurrence — the
                    # recomputed residual below decides, so a corrupted
                    # "lucky" breakdown restarts instead of returning a
                    # wrong answer as converged.
                    mon.note_breakdown(float(h[j + 1, p]), iters[c])
                    broke.add(c)
                    exits.append(p)
            if traced:
                trc.end()  # givens_update

            keep = None
            if exits:
                keep = [p for p in range(len(cols)) if p not in exits]
                retire(exits)
            if cols:
                space.commit(
                    j, keep, h[j + 1] if keep is None else h[j + 1, keep]
                )
            j += 1
            if traced:
                trc.end()  # arnoldi_step

        if cols:
            space.update(cols, [lsqs[c].solve() for c in cols])

        # One residual recompute for every column of the cycle, mid-cycle
        # exits included: their claims are verified here (the
        # no-silent-wrong-answer invariant).
        beta[active] = space.residual(active)
        true_rels = []
        for c in active:
            mon = monitors[c]
            if not mon.check_finite(beta[c], iters[c], "recomputed residual"):
                continue
            true_rel = beta[c] / norm_r0[c]
            true_rels.append(true_rel)
            if traced:
                emit(c, iteration=iters[c], true_rel=true_rel, cycle=cycle)
            if true_rel <= tol:
                converged[c] = True
            elif c in claimed:
                converged[c] = mon.confirm_convergence(true_rel, iters[c])
            elif c in broke:
                mon.confirm_breakdown(true_rel, iters[c])
            if not converged[c]:
                mon.cycle_end(true_rel, iters[c])
        active = [c for c in active if running(c)]
        if traced:
            if true_rels:
                trc.end(true_rel=max(true_rels))  # the worst column's
            else:
                trc.end()

    xs = space.solutions()
    return [
        SolveResult(
            xs[c],
            converged[c],
            iters[c],
            restarts[c],
            histories[c],
            monitors[c].finalize(converged[c], iters[c], histories[c][-1]),
        )
        for c in range(k)
    ]
