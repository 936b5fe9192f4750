"""A-priori polynomial degree selection.

Table 3's closing remark: "a trade-off between convergence performance and
CPU time should be made" — GLS(10) converges in fewer iterations than
GLS(7) but each iteration costs three more matvecs.  This module makes the
trade-off *predictive* instead of empirical:

* convergence rate: the preconditioned operator's spectrum lies in the
  range of :math:`\\lambda P_m(\\lambda)` over :math:`\\Theta`, so its
  condition number :math:`\\kappa_m` is the max/min of that function on a
  fine grid, and the classical Krylov bound gives
  :math:`\\mathrm{iters}(m) \\approx \\lceil \\tfrac{1}{2}\\sqrt{\\kappa_m}
  \\ln(2/tol)\\rceil` — which *saturates* as the degree grows, unlike the
  Richardson sup-norm bound, producing the interior optimum Table 3
  observes;
* cost per iteration: the Table 1 collective counts and the per-rank
  matvec flops, priced by a machine model.

``choose_degree`` evaluates candidates and returns the predicted-cheapest
one.  The prediction is a bound, not an equality — the bench checks it
ranks degrees correctly, which is all the selection needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.parallel.machine import MachineModel
from repro.precond.gls import GLSPolynomial
from repro.spectrum.intervals import SpectrumIntervals


@dataclass(frozen=True)
class DegreeEstimate:
    """Prediction for one candidate degree.

    Attributes
    ----------
    degree:
        Candidate polynomial degree.
    kappa:
        Condition-number estimate of the preconditioned operator
        (``inf`` when the polynomial loses definiteness on Theta).
    iterations:
        Predicted iterations to the tolerance.
    time:
        Predicted solve time on the machine model, seconds.
    """

    degree: int
    kappa: float
    iterations: int
    time: float


def estimate_degree_cost(
    theta: SpectrumIntervals,
    degree: int,
    tol: float,
    machine: MachineModel,
    nnz_per_rank: float,
    n_per_rank: float,
    exchange_words: float,
    n_neighbors: float,
    n_ranks: int,
) -> DegreeEstimate:
    """Predict iterations and time for one GLS degree.

    ``nnz_per_rank``/``n_per_rank`` size the local matvec and vector work;
    ``exchange_words``/``n_neighbors`` size one interface assembly from
    one rank's perspective.
    """
    g = GLSPolynomial(theta, degree)
    grid = theta.sample(400)
    s = grid * g.evaluate(grid)
    if s.min() <= 0:
        kappa = float("inf")
        iters = 10**9
    else:
        kappa = float(s.max() / s.min())
        iters = max(1, math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 / tol)))
    # Per Arnoldi step (enhanced EDD): degree+1 matvecs + exchanges,
    # 2 allreduces, ~2*restart/2 axpys on average — model the dominant
    # terms only.
    matvec_t = 2.0 * nnz_per_rank / machine.flop_rate
    exch_t = n_neighbors * machine.latency + exchange_words * (
        machine.word_bytes / machine.bandwidth
    )
    red_t = 2.0 * machine.reduce_time(n_ranks, 8)
    gs_t = 2.0 * 12 * 2.0 * n_per_rank / machine.flop_rate  # ~12 avg basis
    per_iter = (degree + 1) * (matvec_t + exch_t) + red_t + gs_t
    return DegreeEstimate(
        degree=degree, kappa=kappa, iterations=iters, time=iters * per_iter
    )


def choose_degree(
    theta: SpectrumIntervals,
    tol: float,
    machine: MachineModel,
    nnz_per_rank: float,
    n_per_rank: float,
    exchange_words: float,
    n_neighbors: float,
    n_ranks: int,
    candidates=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> tuple:
    """Return ``(best_degree, [DegreeEstimate...])`` over the candidates."""
    estimates = [
        estimate_degree_cost(
            theta,
            m,
            tol,
            machine,
            nnz_per_rank,
            n_per_rank,
            exchange_words,
            n_neighbors,
            n_ranks,
        )
        for m in candidates
    ]
    best = min(estimates, key=lambda e: e.time)
    return best.degree, estimates


def choose_degree_for_system(
    system,
    machine: MachineModel,
    tol: float = 1e-6,
    theta: SpectrumIntervals | None = None,
    candidates=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> tuple:
    """Convenience wrapper extracting the size parameters from a built
    EDD system (``EDDSystem``)."""
    if theta is None:
        theta = SpectrumIntervals.single(1e-6, 1.0)
    nnz = max(a.nnz for a in system.a_local)
    n_loc = float(system.submap.local_sizes.max())
    words = max(
        system.submap.exchange_words(s) for s in range(system.n_parts)
    )
    nbrs = max(
        len(system.submap.neighbors(s)) for s in range(system.n_parts)
    )
    return choose_degree(
        theta,
        tol,
        machine,
        nnz_per_rank=nnz,
        n_per_rank=n_loc,
        exchange_words=words,
        n_neighbors=nbrs,
        n_ranks=system.n_parts,
        candidates=candidates,
    )
