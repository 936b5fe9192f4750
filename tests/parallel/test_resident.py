"""Resident rank execution: gating, parity, fault recovery, observability.

The resident engines (``repro.parallel.resident``) move per-rank solver
arithmetic into the worker-process pool while keeping every collective,
counter and chaos hook at the orchestrator.  These tests pin the parts
the solver-level parity suites cannot see directly: the inline/resident
mode decision, generation invalidation across pool respawns, the named
error taxonomy for crashed/stalled/unshipped workers, and the per-worker
busy-seconds observability contract.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.obs import Tracer
from repro.obs.tracer import chrome_trace_from_dict
from repro.parallel.chaos import ChaosComm
from repro.parallel.comm import VirtualComm
from repro.parallel.process_comm import (
    ProcessComm,
    ProcessPoolError,
    ProcessWorkerError,
    WorkerTimeoutError,
    pool_process_count,
    shutdown_pool,
)
from repro.parallel.resident import engine_mode
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


@pytest.fixture(autouse=True)
def _drain_pool():
    shutdown_pool(force=True)
    yield
    shutdown_pool(force=True)
    assert pool_process_count() == 0


@pytest.fixture(autouse=True)
def _default_threshold_env(monkeypatch):
    """Start every test from the unset-env default."""
    monkeypatch.delenv("REPRO_PROCESS_MIN_WORK", raising=False)


def _submap(n_parts=4):
    mesh = structured_quad_mesh(8, 2)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition.build(mesh, n_parts)
    return build_subdomain_map(mesh, part, bc)


def _solve(problem, backend, **changes):
    opts = SolverOptions(**changes).replace(comm_backend=backend)
    return solve_cantilever(problem, n_parts=4, options=opts)


# ----------------------------------------------------------------------
# Mode gating
# ----------------------------------------------------------------------
def test_non_process_backends_always_inline(monkeypatch):
    """Virtual and chaos comms run inline even when the env forces
    resident — only a live multi-rank ProcessComm qualifies."""
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    submap = _submap()
    for comm in (VirtualComm(submap), ChaosComm(submap)):
        try:
            assert engine_mode(comm, 10**9) == "inline", comm.backend_name
        finally:
            comm.close()


def test_env_overrides_and_closed_comm(monkeypatch):
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    comm = ProcessComm(_submap(), n_workers=2)
    try:
        assert engine_mode(comm, 0) == "resident"
    finally:
        comm.close()
    # A closed comm can never host resident state.
    assert engine_mode(comm, 10**9) == "inline"


def test_unset_env_defers_to_dispatch_threshold():
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=10**6)
    try:
        assert engine_mode(comm, 10**6 - 1) == "inline"
        assert engine_mode(comm, 10**6) == "resident"
    finally:
        comm.close()


def test_single_rank_is_inline():
    comm = ProcessComm(_submap(n_parts=1), n_workers=2, min_dispatch_work=0)
    try:
        assert engine_mode(comm, 10**9) == "inline"
    finally:
        comm.close()


# ----------------------------------------------------------------------
# Respawn invalidation and crash recovery
# ----------------------------------------------------------------------
def test_forced_pool_shutdown_reships_next_solve(tiny_problem, monkeypatch):
    """A drained pool loses the resident state; the next solve re-ships
    transparently and still matches virtual bitwise."""
    sv = _solve(tiny_problem, "virtual")
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
    s1 = _solve(tiny_problem, "process")
    shutdown_pool(force=True)
    s2 = _solve(tiny_problem, "process")
    for sp in (s1, s2):
        assert sv.result.residual_history == sp.result.residual_history
        assert np.array_equal(sv.result.x, sp.result.x)
        for rv, rp in zip(sv.stats.ranks, sp.stats.ranks):
            assert rv == rp


def test_killed_worker_named_error_then_bitwise_recovery(
    tiny_problem, monkeypatch
):
    """SIGKILLing a pool worker mid-session surfaces as the pool's named
    error (never a hang or wrong floats); the solve after that respawns,
    re-ships and matches virtual bitwise again."""
    sv = _solve(tiny_problem, "virtual")
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
    s1 = _solve(tiny_problem, "process")
    assert np.array_equal(sv.result.x, s1.result.x)

    from repro.parallel.process_comm import _shared_pool

    victim = _shared_pool[0].process_ids()[0]
    os.kill(victim, signal.SIGKILL)
    with pytest.raises(ProcessPoolError):
        _solve(tiny_problem, "process")

    s2 = _solve(tiny_problem, "process")
    assert sv.result.residual_history == s2.result.residual_history
    assert np.array_equal(sv.result.x, s2.result.x)
    for rv, rp in zip(sv.stats.ranks, s2.stats.ranks):
        assert rv == rp


def test_stalled_rank_op_times_out_not_deadlocks():
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    try:
        comm._debug_stall(0.0)  # spawn + warm up
        comm.call_timeout = 0.4
        with pytest.raises(WorkerTimeoutError, match="did not reply"):
            comm.run_rank_op({"name": "stall", "seconds": 3.0}, [], [], 1)
    finally:
        comm.close()
        shutdown_pool(force=True)  # don't wait for the sleeper


def test_unshipped_generation_is_a_named_error():
    """A rank op against a generation the worker never received raises
    the structured worker error naming the re-ship contract."""
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    try:
        with pytest.raises(ProcessWorkerError, match="not shipped"):
            comm.run_rank_op({"name": "mv", "gen": 10**9}, [], [], 1)
    finally:
        comm.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_trace_has_worker_busy_seconds_and_rank_op_spans(
    tiny_problem, monkeypatch
):
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
    trc = Tracer()
    opts = SolverOptions(precond="gls(3)", comm_backend="process")
    summary = solve_cantilever(
        tiny_problem, n_parts=4, options=opts, tracer=trc
    )
    assert summary.result.converged
    trace = summary.result.trace
    workers = trace["worker_seconds"]
    assert len(workers) >= 1
    assert sum(workers) > 0.0
    names = {s["name"] for s in trace["spans"]}
    assert "resident_ship" in names
    rank_ops = [s for s in trace["spans"] if s["name"] == "rank_op"]
    assert rank_ops and all(s["cat"] == "comm" for s in rank_ops)
    ops = {s["args"]["op"] for s in rank_ops}
    # Fused vocabulary: polynomial applies are ONE "chain" dispatch and
    # each CGS coefficient round ONE "arn" dispatch — the per-piece
    # "dots"/"ortho" pair never appears on this path.
    assert {"mv", "chain", "arn"} <= ops
    assert "dots" not in ops and "ortho" not in ops
    # Chrome export renders one busy track per worker process.
    chrome = chrome_trace_from_dict(trace)
    chrome_names = {e["name"] for e in chrome["traceEvents"]}
    assert "worker0 busy" in chrome_names
