"""SolveRequest/SolveResponse: the canonical wire contract.

Exact JSON round-trips, eager validation, unknown-key rejection, and the
single ``schema_version`` stamp shared with every other serialized
artifact in the repo.
"""

import json
import math

import pytest

from repro.core.options import SolverOptions
from repro.core.outcome import SCHEMA_VERSION
from repro.service import RESPONSE_STATUSES, SolveRequest, SolveResponse


# ----------------------------------------------------------------------
# SolveRequest
# ----------------------------------------------------------------------
def test_request_defaults_and_auto_id():
    a = SolveRequest(mesh=2)
    b = SolveRequest(mesh=2)
    assert a.n_parts == 4
    assert a.options == SolverOptions()
    assert a.tenant == "default"
    assert a.request_id and a.request_id != b.request_id


def test_request_json_roundtrip():
    req = SolveRequest(
        mesh=3,
        n_parts=8,
        options=SolverOptions(method="rdd", precond="neumann(20)", tol=1e-8),
        rhs=[1.0, 2.0, 3.0],
        rhs_scale=2.5,
        tenant="acme",
        request_id="r-42",
        timeout=1.5,
        trace=True,
        include_x=True,
    )
    text = req.to_json()
    payload = json.loads(text)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["options"]["precond"] == "neumann(20)"
    assert SolveRequest.from_json(text) == req


@pytest.mark.parametrize(
    "bad",
    [
        {"mesh": "two"},
        {"mesh": True},
        {"mesh": 1, "n_parts": 0},
        {"mesh": 1, "timeout": 0.0},
        {"mesh": 1, "timeout": -1.0},
        {"mesh": 1, "options": {"precond": "gls(7)"}},  # dict, not options
    ],
)
def test_request_validation_rejects(bad):
    with pytest.raises(ValueError):
        SolveRequest(**bad)


def test_request_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="preconditioner"):
        SolveRequest.from_dict({"mesh": 1, "preconditioner": "gls(7)"})


def test_request_options_naming_kernel_backend_rejected():
    """The kernel is a process setting: a request cannot pick one."""
    options = dict(SolverOptions().to_dict(), kernel_backend="scipy")
    with pytest.raises(ValueError, match="kernel_backend"):
        SolveRequest.from_dict({"mesh": 1, "options": options})


def test_request_from_dict_parses_nested_options():
    req = SolveRequest.from_dict(
        {"mesh": 1, "options": SolverOptions(precond="gls(3)").to_dict()}
    )
    assert req.options == SolverOptions(precond="gls(3)")


def test_request_is_frozen():
    with pytest.raises(Exception):
        SolveRequest(mesh=1).mesh = 2


# ----------------------------------------------------------------------
# SolveResponse
# ----------------------------------------------------------------------
def test_response_json_roundtrip():
    resp = SolveResponse(
        request_id="r-1",
        tenant="acme",
        status="ok",
        result={"converged": True, "diagnostics": []},
        stats={"total_nbr_messages": 10},
        converged=True,
        iterations=7,
        true_residual=1.25e-8,
        coalesced=4,
        queue_seconds=0.01,
        solve_seconds=0.02,
        setup_time=0.0,
    )
    back = SolveResponse.from_json(resp.to_json())
    assert back == resp
    assert json.loads(resp.to_json())["schema_version"] == SCHEMA_VERSION


def test_response_nan_residual_is_json_safe():
    resp = SolveResponse(request_id="r", status="timeout", error="deadline")
    assert math.isnan(resp.true_residual)
    payload = json.loads(resp.to_json())  # strict JSON: no NaN literal
    assert payload["true_residual"] is None
    back = SolveResponse.from_json(resp.to_json())
    assert math.isnan(back.true_residual)
    assert back.status == "timeout"


def test_response_status_vocabulary_enforced():
    for status in RESPONSE_STATUSES:
        SolveResponse(request_id="r", status=status)
    with pytest.raises(ValueError, match="status"):
        SolveResponse(request_id="r", status="pending")


def test_response_diagnostics_fallback():
    assert SolveResponse(request_id="r", status="rejected").diagnostics == []
    resp = SolveResponse(
        request_id="r",
        status="failed",
        result={"converged": False, "diagnostics": [{"kind": "nan_detected"}]},
    )
    assert resp.diagnostics == [{"kind": "nan_detected"}]
