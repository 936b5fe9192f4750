"""Held worker state: one prepared system survives losing its pool.

A resident system keeps several kinds of state in the pool workers —
each rank's CSR blocks with its part of the exchange plan, ILU factors,
coarse bases and the factorized coarse matrix — all shipped through
``ProcessComm.ship`` under a key the comm remembers until its pool goes
away.  These tests pin that one ``PreparedSystem`` re-ships every kind
after a forced pool shutdown and after a SIGKILLed worker, and solves
bitwise as before; that the loss is logged; and that the worker ops the
keyed ship replaced are gone.
"""

import logging
import os
import re
import signal

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem
from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.obs import Tracer
from repro.parallel.process_comm import (
    ProcessComm,
    ProcessWorkerError,
    WorkerCrashedError,
    WorkerTimeoutError,
    pool_process_count,
    shutdown_pool,
)
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


@pytest.fixture(autouse=True)
def _drain_pool():
    shutdown_pool(force=True)
    yield
    shutdown_pool(force=True)
    assert pool_process_count() == 0


#: (method, preconditioner, keys the system holds, pool workers).  The
#: rdd composite holds base blocks + halo plan, ILU factors, coarse bases
#: and the coarse factor (three keys); the edd one base blocks +
#: interface plan and the coarse state (two).  Three workers at P = 4
#: stride unevenly: worker 0 holds ranks 0 and 3.
CASES = [
    (method, precond, keys, workers)
    for method, precond, keys in (
        ("rdd", "2l(bj-ilu0,deflate)", 3),
        ("edd-enhanced", "2l(gls(3))", 2),
    )
    for workers in (2, 3)
]


def _traced_solve(ps):
    trc = Tracer()
    out = ps.solve(tracer=trc)
    return out, trc.to_dict()


def _assert_same(a, b):
    assert a.result.residual_history == b.result.residual_history
    assert a.result.x.tobytes() == b.result.x.tobytes()
    assert a.stats.ranks == b.stats.ranks


def _ships(trace) -> tuple:
    """(base ships, aux ships) among a trace's ``resident_ship`` spans."""
    spans = [s for s in trace["spans"] if s["name"] == "resident_ship"]
    aux = sum("aux" in s["args"] for s in spans)
    return len(spans) - aux, aux


@pytest.mark.parametrize(
    "method,precond,keys,workers", CASES,
    ids=[f"{m}-{p}-w{w}" for m, p, _, w in CASES],
)
def test_prepared_system_survives_pool_loss(
    tiny_problem, monkeypatch, caplog, method, precond, keys, workers
):
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", str(workers))
    caplog.set_level(logging.INFO, logger="repro.parallel")
    options = SolverOptions(
        method=method, precond=precond, comm_backend="process"
    )
    with PreparedSystem.build(tiny_problem, 4, options) as ps:
        engine = ps.system.rank_engine()
        assert engine.resident
        comm = ps.system.comm
        first, trace = _traced_solve(ps)
        assert first.result.converged
        assert _ships(trace) == (0, 0)  # all of it shipped at build
        assert comm._pool.n_workers == workers

        def invalidations():
            pattern = rf"comm {comm._comm_id} met a respawned pool: (\d+) "
            return [
                int(m.group(1)) for r in caplog.records
                if (m := re.match(pattern, r.getMessage()))
            ]

        shutdown_pool(force=True)
        again, trace = _traced_solve(ps)
        _assert_same(first, again)
        base, aux = _ships(trace)
        assert base == 1 and aux == keys - 1
        assert invalidations() == [keys]

        victim = comm._pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        with pytest.raises(WorkerCrashedError):
            ps.solve()
        warnings = [
            r for r in caplog.records
            if r.levelno == logging.WARNING
            and r.name.startswith("repro.parallel")
        ]
        assert len(warnings) == 1
        assert warnings[0].getMessage() == (
            "comm worker 0 died during 'rankop' (exitcode -9)"
        )

        recovered, trace = _traced_solve(ps)
        _assert_same(first, recovered)
        base, aux = _ships(trace)
        assert base == 1 and aux == keys - 1
        assert invalidations() == [keys, keys]


def _submap():
    mesh = structured_quad_mesh(8, 2)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition.build(mesh, 4)
    return build_subdomain_map(mesh, part, bc)


@pytest.mark.parametrize("op", ["register", "plan", "resident"])
def test_replaced_worker_ops_are_unknown(op):
    """``ship`` is the one way state gets into a worker: the per-kind
    ops it replaced are unknown worker ops."""
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    try:
        pool = comm._ensure_pool()
        with pool.lock:
            with pytest.raises(ProcessWorkerError, match="unknown worker op"):
                comm._control(pool, op)
    finally:
        comm.close()


def test_a_stalled_worker_logs_one_warning(caplog):
    """A timeout is logged once, naming the worker, the op and the
    timeout."""
    caplog.set_level(logging.INFO, logger="repro.parallel")
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    try:
        comm._debug_stall(0.0)  # spawn + warm up
        with pytest.raises(WorkerTimeoutError):
            comm._debug_stall(3.0, timeout=0.3)
    finally:
        comm.close()
        shutdown_pool(force=True)  # don't wait for the sleeper
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        "comm worker 0 did not reply to 'sleep' within 0.3s"
    ]


def test_ship_is_once_per_key_and_pool():
    """A key the pool holds ships nothing; a respawn forgets it."""
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    built = []

    def states():
        built.append(1)
        return [{"rank": None, "arrays": {"v": np.arange(3.0)}}]

    try:
        for _ in range(3):
            comm.ship("k", states)
        assert len(built) == 1
        shutdown_pool(force=True)
        comm.ship("k", states)
        assert len(built) == 2
    finally:
        comm.close()
