"""The no-silent-wrong-answer invariant, end-to-end through the service.

Same contract as tests/chaos/test_chaos_invariant.py, but the fault plan
now fires under coalesced batches, worker threads and the session cache:
every response must either claim convergence *and* pass an independent
residual check against the serially assembled operator (computed here
from the response's own solution vector), or carry structured
diagnostics naming a known anomaly.  Nothing in between.
"""

import asyncio

import numpy as np
import pytest

from repro.core.driver import _VERIFY_SLACK
from repro.core.options import SolverOptions
from repro.parallel.chaos import FaultPlan, use_fault_plan
from repro.service import ServiceConfig, SolveRequest, SolverService
from repro.solvers.diagnostics import EVENT_KINDS

from tests.chaos.test_chaos_invariant import PLANS

pytestmark = pytest.mark.chaos

TOL = 1e-8
METHODS = ["edd-enhanced", "rdd"]

#: The reduced matrix the CI service job runs (select with ``-k smoke``).
SMOKE_PLANS = ("assemble-nan", "halo-drop", "allreduce-flip")


def _assert_response_invariant(resp, problem, rhs_scale, replay):
    """One response: verified-ok, diagnosed-failure, or loud error."""
    assert resp.status in ("ok", "failed", "error"), replay
    if resp.status == "error":
        assert resp.error, replay  # loud, never silent
        return
    if resp.status == "ok":
        b = rhs_scale * problem.load
        x = np.asarray(resp.result["x"])
        rel = float(
            np.linalg.norm(b - problem.stiffness @ x) / np.linalg.norm(b)
        )
        assert rel <= TOL * _VERIFY_SLACK, (
            f"silent wrong answer: service claims ok with true residual "
            f"{rel:.3e}; {replay}"
        )
    else:
        assert resp.diagnostics, (
            f"failed response without diagnostics; {replay}"
        )
        for event in resp.diagnostics:
            assert event["kind"] in EVENT_KINDS, replay


def _run_service_under_plan(plan_name, method):
    """Three coalescing requests against a chaos-backed solve."""
    plan = FaultPlan(rules=(PLANS[plan_name],), seed=20060815)
    options = SolverOptions(
        method=method, precond="gls(7)", tol=TOL, comm_backend="chaos"
    )

    async def scenario():
        config = ServiceConfig(batch_window=0.05, default_timeout=60.0)
        async with SolverService(config) as svc:
            reqs = [
                SolveRequest(
                    mesh=1, n_parts=2, options=options,
                    rhs_scale=1.0 + 0.5 * i, include_x=True,
                )
                for i in range(3)
            ]
            return await asyncio.gather(*(svc.submit(r) for r in reqs))

    with use_fault_plan(plan):
        resps = asyncio.run(scenario())
    return plan, resps


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_service_no_silent_wrong_answer(mesh1_problem, plan_name, method):
    """The full fault matrix (14 plans x EDD/RDD) through the service."""
    plan, resps = _run_service_under_plan(plan_name, method)
    replay = (
        f"replay with REPRO_CHAOS_PLAN='{plan.to_json()}' "
        f"({method}, gls(7), via SolverService)"
    )
    assert len(resps) == 3
    for i, resp in enumerate(resps):
        _assert_response_invariant(
            resp, mesh1_problem, 1.0 + 0.5 * i, f"column {i}: {replay}"
        )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("plan_name", SMOKE_PLANS)
def test_service_no_silent_wrong_answer_smoke(mesh1_problem, plan_name, method):
    """The reduced sweep the CI service job runs."""
    plan, resps = _run_service_under_plan(plan_name, method)
    replay = f"plan={plan.to_json()} ({method}, via SolverService)"
    for i, resp in enumerate(resps):
        _assert_response_invariant(
            resp, mesh1_problem, 1.0 + 0.5 * i, f"column {i}: {replay}"
        )


def test_chaos_failure_counted_not_raised(mesh1_problem):
    """A diagnosed non-convergence is a 'failed' *response* — the service
    loop survives and the tenant's accounting records the failure."""
    seen_failure = False
    for plan_name in sorted(PLANS):
        plan, resps = _run_service_under_plan(plan_name, "edd-enhanced")
        if any(r.status == "failed" for r in resps):
            seen_failure = True
            break
    # At least one plan in the matrix must actually trip the solver —
    # otherwise this sweep stopped testing the failure branch entirely.
    assert seen_failure, "no fault plan produced a diagnosed failure"
