"""The no-silent-wrong-answer invariant, swept over a fault matrix.

Every chaos run must end in one of exactly two states:

1. **converged** — and the solution's unscaled residual against the
   serially assembled operator (computed here, independently of the
   solver AND of the driver) is within the verification slack; or
2. **not converged** — and ``result.diagnostics`` names at least one
   structured anomaly from the known event vocabulary.

Any other outcome is a silently wrong answer, and the assertion message
prints the offending :class:`FaultPlan` as JSON so the exact run can be
replayed (``REPRO_CHAOS_PLAN='<json>' repro solve ... --comm-backend
chaos``; see docs/TESTING.md).

The reduced CI sweep is selected with ``-k smoke``.
"""

import numpy as np
import pytest

from repro.core.driver import _VERIFY_SLACK, solve_cantilever
from repro.core.options import SolverOptions
from repro.parallel.chaos import FaultPlan, FaultRule, use_fault_plan
from repro.solvers.diagnostics import EVENT_KINDS

pytestmark = pytest.mark.chaos

TOL = 1e-8

#: One transient fault per plan (count=1 default): a persistent fault on
#: every call is a coherently different operator — undetectable from the
#: inside by design — so transience is what the invariant sweeps.
PLANS = {
    "assemble-sign": FaultRule("interface_assemble", "sign_flip", call_index=5),
    "assemble-nan": FaultRule("interface_assemble", "nan", call_index=4),
    "assemble-drop": FaultRule(
        "interface_assemble", "drop_contribution", call_index=6
    ),
    "assemble-dup": FaultRule(
        "interface_assemble", "duplicate_payload", call_index=3
    ),
    "halo-nan": FaultRule("halo_exchange", "nan", call_index=4),
    "halo-zero": FaultRule("halo_exchange", "zero_word", call_index=2),
    "halo-drop": FaultRule("halo_exchange", "drop_contribution", call_index=3),
    "halo-stale-dup": FaultRule(
        "halo_exchange", "duplicate_payload", call_index=5
    ),
    "halo-reorder": FaultRule("halo_exchange", "reorder_payload", call_index=2),
    "allreduce-inf": FaultRule("allreduce_sum", "inf", call_index=2),
    "allreduce-flip": FaultRule("allreduce_sum", "sign_flip", call_index=3),
    "allreduce-drop": FaultRule(
        "allreduce_sum", "drop_contribution", call_index=4
    ),
    "allreduce-reorder": FaultRule(
        "allreduce_sum", "reorder_payload", call_index=1, count=None
    ),
    "any-stall": FaultRule("*", "stall", call_index=1, param=0.0, count=None),
}

CONFIGS = [
    ("edd-enhanced", "gls(7)"),
    ("edd-enhanced", "neumann(20)"),
    ("rdd", "gls(7)"),
    ("rdd", "neumann(20)"),
    ("rdd", "bj-ilu0"),
]

#: The reduced matrix the CI chaos smoke job runs (select with
#: ``-k smoke``).
SMOKE = [
    ("assemble-nan", "edd-enhanced", "gls(7)"),
    ("assemble-drop", "edd-enhanced", "neumann(20)"),
    ("halo-nan", "rdd", "gls(7)"),
    ("allreduce-flip", "rdd", "bj-ilu0"),
]


def _check_invariant(problem, plan, method, precond):
    """Run one chaos solve and assert the invariant; returns the summary."""
    options = SolverOptions(
        method=method, precond=precond, tol=TOL, comm_backend="chaos"
    )
    with use_fault_plan(plan):
        summary = solve_cantilever(problem, n_parts=2, options=options)
    result = summary.result
    replay = (
        f"replay with REPRO_CHAOS_PLAN='{plan.to_json()}' "
        f"({method}, {precond})"
    )
    if result.converged:
        # Independent ground truth: residual against the serial operator.
        rel = float(
            np.linalg.norm(problem.load - problem.stiffness @ result.x)
            / np.linalg.norm(problem.load)
        )
        assert rel <= TOL * _VERIFY_SLACK, (
            f"silent wrong answer: claims convergence with true residual "
            f"{rel:.3e}; {replay}"
        )
    else:
        assert result.diagnostics, (
            f"failed without naming an anomaly (empty diagnostics); {replay}"
        )
        for event in result.diagnostics:
            assert event.kind in EVENT_KINDS, (
                f"unknown diagnostic kind {event.kind!r}; {replay}"
            )
    return summary


@pytest.mark.parametrize("method,precond", CONFIGS,
                         ids=[f"{m}-{p}" for m, p in CONFIGS])
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_no_silent_wrong_answer(tiny_problem, plan_name, method, precond):
    """The full fault matrix."""
    plan = FaultPlan(rules=(PLANS[plan_name],), seed=20060815)
    _check_invariant(tiny_problem, plan, method, precond)


@pytest.mark.parametrize("plan_name,method,precond", SMOKE,
                         ids=[f"{n}-{m}-{p}" for n, m, p in SMOKE])
def test_no_silent_wrong_answer_smoke(tiny_problem, plan_name, method, precond):
    """The reduced sweep — this is what the CI chaos job runs
    (``-k smoke``)."""
    plan = FaultPlan(rules=(PLANS[plan_name],), seed=20060815)
    _check_invariant(tiny_problem, plan, method, precond)


#: Two-level sweep: faults aimed at the *coarse* allreduce.  On the tiny
#: problem the coarse correction's allreduce is every third
#: ``allreduce_sum`` call starting at call 2 (verified from traced runs,
#: same layout for both configs below), so call indices 5 and 8 land on
#: coarse reductions deterministically.
TWO_LEVEL_CONFIGS = [
    ("edd-enhanced", "2l(gls(7),deflate)"),
    ("rdd", "2l(bj-ilu0,deflate)"),
]

TWO_LEVEL_PLANS = {
    "coarse-nan": FaultRule("allreduce_sum", "nan", call_index=5),
    "coarse-flip": FaultRule("allreduce_sum", "sign_flip", call_index=8),
    "coarse-zero": FaultRule("allreduce_sum", "zero_word", call_index=5),
}


@pytest.mark.parametrize("method,precond", TWO_LEVEL_CONFIGS,
                         ids=[f"{m}-{p}" for m, p in TWO_LEVEL_CONFIGS])
@pytest.mark.parametrize("plan_name", sorted(TWO_LEVEL_PLANS))
def test_no_silent_wrong_answer_two_level(
    tiny_problem, plan_name, method, precond
):
    """A corrupted coarse correction must never produce a silently wrong
    answer: the redundant dense solve amplifies whatever the faulted
    allreduce delivered to every rank, so the downstream hardening
    (finite-residual checks, verification slack) has to catch it."""
    plan = FaultPlan(rules=(TWO_LEVEL_PLANS[plan_name],), seed=20060815)
    _check_invariant(tiny_problem, plan, method, precond)


#: Batched-path sweep: every fault site, over one EDD and one RDD config.
#: The k-RHS solvers ride the *block* collectives (single coalesced
#: exchange per step), so this exercises the ChaosComm block proxies.
BATCH_CONFIGS = [("edd-enhanced", "gls(7)"), ("rdd", "bj-ilu0")]


@pytest.mark.parametrize("method,precond", BATCH_CONFIGS,
                         ids=[f"{m}-{p}" for m, p in BATCH_CONFIGS])
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_no_silent_wrong_answer_batched(tiny_problem, plan_name, method,
                                        precond):
    """The invariant holds per column of a k=4 batched solve under every
    fault plan: a fault injected into one coalesced exchange corrupts all
    columns at once, and every one of them must either verify or name an
    anomaly."""
    from repro.core.session import PreparedSystem

    plan = FaultPlan(rules=(PLANS[plan_name],), seed=20060815)
    options = SolverOptions(
        method=method, precond=precond, tol=TOL, comm_backend="chaos"
    )
    k = 4
    b_block = np.column_stack(
        [(1.0 + 0.25 * c) * tiny_problem.load for c in range(k)]
    )
    with use_fault_plan(plan), PreparedSystem.build(
        tiny_problem, 2, options
    ) as prepared:
        summary = prepared.solve_batch(b_block)
    replay = (
        f"replay with REPRO_CHAOS_PLAN='{plan.to_json()}' "
        f"({method}, {precond}, nrhs={k})"
    )
    assert summary.n_rhs == k
    for c, result in enumerate(summary.results):
        if result.converged:
            rel = float(
                np.linalg.norm(
                    b_block[:, c] - tiny_problem.stiffness @ result.x
                )
                / np.linalg.norm(b_block[:, c])
            )
            assert rel <= TOL * _VERIFY_SLACK, (
                f"silent wrong answer in column {c}: claims convergence "
                f"with true residual {rel:.3e}; {replay}"
            )
        else:
            assert result.diagnostics, (
                f"column {c} failed without naming an anomaly; {replay}"
            )
            for event in result.diagnostics:
                assert event.kind in EVENT_KINDS, (
                    f"unknown diagnostic kind {event.kind!r}; {replay}"
                )


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_random_rank_fault_sweep(tiny_problem, seed):
    """Rules with no fixed rank pick seeded-random targets; the invariant
    must hold for any of them."""
    plan = FaultPlan(
        rules=(FaultRule("interface_assemble", "sign_flip", call_index=7),
               FaultRule("allreduce_sum", "zero_word", call_index=5)),
        seed=seed,
    )
    _check_invariant(tiny_problem, plan, "edd-enhanced", "gls(7)")


def test_chaos_run_is_reproducible(tiny_problem):
    """Same plan, same solve => identical iteration history, diagnostics
    and solution — the property that makes a printed plan a full repro."""
    plan = FaultPlan(rules=(PLANS["assemble-nan"],), seed=99)
    options = SolverOptions(
        method="edd-enhanced", precond="gls(7)", tol=TOL,
        comm_backend="chaos",
    )
    runs = []
    for _ in range(2):
        with use_fault_plan(plan):
            runs.append(solve_cantilever(tiny_problem, 2, options=options))
    a, b = (s.result for s in runs)
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.residual_history == b.residual_history
    assert [e.to_dict() for e in a.diagnostics] == [
        e.to_dict() for e in b.diagnostics
    ]
    assert np.array_equal(a.x, b.x, equal_nan=True)


def test_transient_fault_then_recovery(tiny_problem):
    """A single early NaN must not doom the solve: the hardened solvers
    detect it, and a restart from the (finite) recomputed residual may
    still converge — but never silently."""
    plan = FaultPlan(
        rules=(FaultRule("allreduce_sum", "nan", call_index=1),), seed=5
    )
    summary = _check_invariant(tiny_problem, plan, "edd-enhanced", "gls(7)")
    # Whatever the outcome, the record must tell the story.
    d = summary.to_dict()
    assert d["result"]["converged"] or d["result"]["diagnostics"]


def test_stall_only_plan_converges_identically(tiny_problem):
    """Stalls perturb latency, never numerics: the solve must match the
    healthy run bit for bit."""
    healthy = solve_cantilever(
        tiny_problem, 2,
        options=SolverOptions(precond="gls(7)", tol=TOL,
                              comm_backend="virtual"),
    )
    plan = FaultPlan(rules=(PLANS["any-stall"],), seed=0)
    with use_fault_plan(plan):
        stalled = solve_cantilever(
            tiny_problem, 2,
            options=SolverOptions(precond="gls(7)", tol=TOL,
                                  comm_backend="chaos"),
        )
    assert stalled.result.converged
    assert stalled.result.iterations == healthy.result.iterations
    assert np.array_equal(stalled.result.x, healthy.result.x)


def test_stalled_process_worker_times_out_not_deadlocks(tiny_problem):
    """A *worker-side* stall (a hung process, not a chaos latency fault)
    must surface as :class:`WorkerTimeoutError` within the per-call
    timeout instead of deadlocking the pool."""
    import time

    from repro.core.session import PreparedSystem
    from repro.parallel.process_comm import (
        ProcessComm,
        WorkerTimeoutError,
        shutdown_pool,
    )

    options = SolverOptions(precond="gls(7)", tol=TOL, comm_backend="process")
    prepared = PreparedSystem.build(tiny_problem, 2, options)
    try:
        comm = prepared.system.comm
        assert isinstance(comm, ProcessComm)
        comm._debug_stall(0.0)  # warm the pool
        comm.call_timeout = 0.4
        t0 = time.monotonic()
        with pytest.raises(WorkerTimeoutError, match="did not reply"):
            comm._debug_stall(3.0)
        assert time.monotonic() - t0 < 2.5
    finally:
        prepared.close()
        shutdown_pool(force=True)
