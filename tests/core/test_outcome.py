"""SolveOutcome: every solve entry point returns one conforming shape.

``SolveSummary`` (one-shot driver, prepared systems and the multi-RHS
session path) and ``SolveResponse`` (service wire format) both satisfy
the protocol — ``result`` / ``stats`` / ``trace`` / ``to_dict()``
— and every ``to_dict()`` payload carries the single shared
``schema_version`` stamp.
"""

import asyncio

import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.core.outcome import SCHEMA_VERSION, SolveOutcome
from repro.core.session import SolveSession
from repro.obs import Tracer
from repro.service import ServiceConfig, SolveRequest, SolverService


@pytest.fixture(scope="module")
def outcomes(request):
    """One instance of each outcome-bearing type, solved once."""
    tiny = request.getfixturevalue("tiny_problem")
    summary = solve_cantilever(
        tiny, n_parts=2, options=SolverOptions(), tracer=Tracer()
    )
    with SolveSession() as session:
        batch = session.solve_batch(tiny, tiny.load.reshape(-1, 1), 2)
        batch_k2 = session.solve_batch(tiny, tiny.load[:, None] * [1, 2], 2)

    async def serve_one():
        async with SolverService(ServiceConfig()) as svc:
            return await svc.submit(
                SolveRequest(mesh=1, n_parts=2, trace=True)
            )

    response = asyncio.run(serve_one())
    return {"driver": summary, "batch": batch, "batch-k2": batch_k2,
            "service": response}


@pytest.mark.parametrize("kind", ["driver", "batch", "batch-k2", "service"])
def test_outcome_protocol_conformance(outcomes, kind):
    outcome = outcomes[kind]
    assert isinstance(outcome, SolveOutcome)
    assert outcome.result is not None
    assert outcome.stats is not None
    payload = outcome.to_dict()
    assert payload["schema_version"] == SCHEMA_VERSION


@pytest.mark.parametrize("kind", ["driver", "service"])
def test_traced_outcomes_expose_trace(outcomes, kind):
    trace = outcomes[kind].trace
    assert trace is not None
    assert trace["schema"] == "repro-trace/1"


def test_summary_columns(outcomes):
    """``result`` / ``true_residual`` are the single column of a
    one-column summary and the per-column lists otherwise."""
    one, two = outcomes["batch"], outcomes["batch-k2"]
    assert one.result is one.results[0]
    assert one.true_residual == one.true_residuals[0]
    assert one.to_dict()["result"] == one.to_dict()["results"][0]
    assert two.result is two.results and len(two.results) == 2
    assert two.true_residual is two.true_residuals
    assert "result" not in two.to_dict()
    assert outcomes["driver"].result.trace is outcomes["driver"].trace


def test_callers_never_branch_on_concrete_type(outcomes):
    """The facade promise: uniform handling across all outcome shapes."""
    def digest(outcome: SolveOutcome) -> dict:
        payload = outcome.to_dict()
        return {
            "schema_version": payload["schema_version"],
            "has_stats": outcome.stats is not None,
        }

    digests = [digest(o) for o in outcomes.values()]
    assert all(d == digests[0] for d in digests)


def test_run_record_carries_schema_version(tiny_problem, tmp_path):
    from dataclasses import asdict

    from repro.io.records import (
        load_records,
        record_from_summary,
        save_records,
    )

    summary = solve_cantilever(tiny_problem, n_parts=2)
    record = record_from_summary(summary, label="tiny/p2", n_eqn=40)
    assert record.schema_version == SCHEMA_VERSION
    assert asdict(record)["schema_version"] == SCHEMA_VERSION
    path = tmp_path / "records.json"
    save_records([record], path)
    assert load_records(path)[0].schema_version == SCHEMA_VERSION
