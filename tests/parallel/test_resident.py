"""Resident rank execution: gating, the protocol, fault recovery,
observability.

The resident engines (``repro.parallel.resident``) run the restart cycle
of every CGS solve shape — one right-hand side or a block — inside the
worker-process pool as ``seed`` / one ``step`` per Arnoldi step /
``axpy``, while every collective, counter and chaos hook stays at the
orchestrator.  These tests pin the parts the solver-level parity suites
cannot see directly: the inline/resident mode decision, the rank-op
vocabulary and its dispatch count, generation invalidation across pool
respawns, the named error taxonomy for crashed/stalled/unshipped
workers, the per-worker busy-seconds observability contract, and the
engine surface ``bench/probes.py`` reads.
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


def _build_system(problem, method):
    if method == "edd":
        from repro.core.distributed import build_edd_system

        part = ElementPartition.build(problem.mesh, 4)
        return build_edd_system(
            problem.mesh, problem.material, problem.bc, part,
            problem.bc.expand(problem.load), comm_backend="process",
        )
    from repro.core.rdd import build_rdd_system
    from repro.partition.node_partition import NodePartition

    part = NodePartition.build(problem.mesh, 4)
    return build_rdd_system(
        problem.mesh, problem.bc, part, problem.stiffness, problem.load,
        comm_backend="process",
    )


@pytest.mark.parametrize("method", ["edd", "rdd"])
def test_dropped_solved_system_releases_its_comm_without_gc(
    tiny_problem, monkeypatch, method
):
    """A system and its resident engine form no reference cycle: with
    the collector off, dropping an unclosed, once-solved system frees its
    ``ProcessComm`` at once, so ``shutdown_pool()`` may drain the pool."""
    import gc

    from repro.core.edd import edd_fgmres
    from repro.core.rdd import rdd_fgmres
    from repro.parallel import process_comm

    _force_resident(monkeypatch)
    solver = edd_fgmres if method == "edd" else rdd_fgmres
    gc.collect()
    assert len(process_comm._live_comms) == 0
    gc.disable()
    try:
        system = _build_system(tiny_problem, method)
        result = solver(system, options=SolverOptions(precond="gls(3)"))
        assert result.converged
        assert system.rank_engine().resident
        del system
        assert len(process_comm._live_comms) == 0
        assert shutdown_pool()
    finally:
        gc.enable()


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
            comm.run_rank_op({"name": "axpy", "gen": 10**9}, [], [], 1)
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
    # Fused vocabulary: a whole Arnoldi step — polynomial apply, matvec,
    # exchange, CGS round — is ONE "step" dispatch between the cycle's
    # "seed" and "axpy"; the per-piece "dots"/"ortho" pair never appears
    # on this path.
    assert {"seed", "step", "axpy"} <= ops
    assert "dots" not in ops and "ortho" not in ops
    # Chrome export renders one busy track per worker process.
    chrome = chrome_trace_from_dict(trace)
    chrome_names = {e["name"] for e in chrome["traceEvents"]}
    assert "worker0 busy" in chrome_names


# ----------------------------------------------------------------------
# One dispatch per Arnoldi step
# ----------------------------------------------------------------------
import glob
import time

from repro.obs import exchanges_per_step, verify_exchange_invariant
from repro.parallel.process_comm import WorkerCrashedError
from repro.parallel.resident import ResidentEngine

FUSED_CONFIGS = [
    ("edd-enhanced", "gls(7)"),
    ("edd-basic", "gls(3)"),
    ("rdd", "gls(3)"),
    ("rdd", "bj-ilu0"),
    ("edd-enhanced", "2l(gls(3),deflate)"),
]
PHASES = {"precondition", "matvec", "exchange", "orthogonalize"}


def _force_resident(monkeypatch):
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")


@pytest.mark.parametrize(
    "method,precond", FUSED_CONFIGS,
    ids=[f"{m}-{p}" for m, p in FUSED_CONFIGS],
)
def test_one_rank_op_per_arnoldi_step(tiny_problem, monkeypatch, method, precond):
    """A resident single-RHS CGS solve dispatches once per Arnoldi step
    plus two per cycle (``seed``, ``axpy``; the residual runs inline),
    whatever the preconditioner, and the replayed exchange spans still
    read the paper's 1 (Algorithm 6, RDD) / 3 (Algorithm 5) per step."""
    _force_resident(monkeypatch)
    trc = Tracer()
    summary = solve_cantilever(
        tiny_problem, n_parts=4, tracer=trc,
        options=SolverOptions(
            method=method, precond=precond, comm_backend="process"
        ),
    )
    result, trace = summary.result, summary.result.trace
    assert result.converged
    rank_ops = [s for s in trace["spans"] if s["name"] == "rank_op"]
    ops = [s["args"]["op"] for s in rank_ops]
    assert ops.count("step") == result.iterations
    assert len(ops) == result.iterations + 2 * result.restarts
    assert set(ops) == {"step", "seed", "axpy"}
    if method.startswith("edd-"):
        verify_exchange_invariant(trace, method[len("edd-"):])
    else:
        assert set(exchanges_per_step(trace).values()) == {1}
    # Every step names its phases; their worker seconds add up to the
    # workers' wall inside the op, which the dispatch's own wall bounds.
    n_workers = len(trace["worker_seconds"])
    stepped = 0.0
    for span in rank_ops:
        if span["args"]["op"] == "step":
            phases = span["args"]["phases"]
            assert set(phases) == PHASES
            assert 0.0 < sum(phases.values()) <= n_workers * span["dur"]
            stepped += sum(phases.values())
    # ... and all of it reached Tracer.add_worker_time.
    assert stepped <= sum(trace["worker_seconds"]) * (1.0 + 1e-9)


def test_mgs_issues_no_rank_op(tiny_problem, monkeypatch):
    """MGS has no worker form: it runs inline, so a resident engine
    dispatches nothing for it."""
    _force_resident(monkeypatch)
    trc = Tracer()
    solve_cantilever(
        tiny_problem, n_parts=4, tracer=trc,
        options=SolverOptions(
            precond="gls(3)", orthogonalization="mgs", comm_backend="process"
        ),
    )
    assert [s for s in trc.spans if s["name"] == "rank_op"] == []


def test_blocks_run_the_one_resident_protocol(mesh2_problem, monkeypatch):
    """A k=3 block solve runs its cycles in the workers like one column
    does: ``seed``, one ``step`` per Arnoldi step, ``axpy`` — nothing
    else."""
    from repro.core.session import PreparedSystem

    _force_resident(monkeypatch)
    trc = Tracer()
    load = mesh2_problem.load
    block = np.column_stack([load, 2.0 * load, load[::-1].copy()])
    options = SolverOptions(precond="gls(3)", comm_backend="process")
    with PreparedSystem.build(mesh2_problem, 4, options) as ps:
        assert ps.system.rank_engine().resident
        ps.solve_batch(block, tracer=trc)
    ops = {s["args"]["op"] for s in trc.spans if s["name"] == "rank_op"}
    assert ops == {"seed", "step", "axpy"}


#: The per-operation rank ops the one resident protocol replaced.
DELETED_OPS = ("mv", "mvb", "mv_rdd", "mvb_rdd", "coarse", "prec")


@pytest.mark.parametrize("name", DELETED_OPS)
def test_deleted_rank_ops_are_unknown(name):
    """A worker accepts ``seed`` / ``step`` / ``axpy`` / ``chain`` (and
    the test-only ``stall``); the per-operation vocabulary is gone."""
    comm = ProcessComm(_submap(), n_workers=2, min_dispatch_work=0)
    try:
        with pytest.raises(ProcessWorkerError, match="unknown rank op"):
            comm.run_rank_op({"name": name, "gen": 10**9}, [], [], 1)
    finally:
        comm.close()


def test_bench_probe_surface_resident_and_inline(mesh2_problem, monkeypatch):
    """``bench/probes.py`` times the preconditioner through
    ``rank_engine().resident`` and ``ResidentEngine.poly_chain``:
    both must keep working, resident and inline, with the same bits."""
    import sys
    from pathlib import Path

    from repro.core.session import PreparedSystem

    root = str(Path(__file__).resolve().parents[2])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.probes import _precond_entry

    out = {}
    for backend in ("virtual", "process"):
        if backend == "process":
            _force_resident(monkeypatch)
        options = SolverOptions(precond="gls(7)", comm_backend=backend)
        with PreparedSystem.build(mesh2_problem, 4, options) as ps:
            resident = ps.system.rank_engine().resident
            z = _precond_entry(ps, np.random.default_rng(5))()
            out[backend] = (resident, ps.system.to_global_vector(z))
    assert [r for r, _ in out.values()] == [False, True]
    assert out["virtual"][1].tobytes() == out["process"][1].tobytes()


# ----------------------------------------------------------------------
# Faults inside a fused step
# ----------------------------------------------------------------------
def _assert_same(sv, sp):
    assert sv.result.residual_history == sp.result.residual_history
    assert sv.result.x.tobytes() == sp.result.x.tobytes()
    for rv, rp in zip(sv.stats.ranks, sp.stats.ranks):
        assert rv == rp


def _before_third_step(monkeypatch, action, target="run_rank_op"):
    """Run ``action(comm, payload)`` once, right before the ``step``
    dispatch of Arnoldi step 2 of the next resident solve: either inside
    the dispatch (``run_rank_op``: the generation check already passed)
    or ahead of it (``step``: the engine re-checks what is shipped)."""
    fired = []
    if target == "run_rank_op":
        real = ProcessComm.run_rank_op

        def wrapped(self, payload, *args):
            if payload["name"] == "step" and payload["j"] == 2 and not fired:
                fired.append(True)
                action(self, payload)
            return real(self, payload, *args)

        monkeypatch.setattr(ProcessComm, "run_rank_op", wrapped)
    else:
        real = ResidentEngine.step

        def wrapped(self, j, *args):
            if j == 2 and not fired:
                fired.append(True)
                action(self.system.comm, None)
            return real(self, j, *args)

        monkeypatch.setattr(ResidentEngine, "step", wrapped)
    return fired


@pytest.fixture
def no_new_shm():
    """Fails the test if it leaves a shared-memory segment behind
    (delta-based: a comm another module still holds open is not ours)."""
    base = set(glob.glob("/dev/shm/repro-pc-*"))
    yield
    assert set(glob.glob("/dev/shm/repro-pc-*")) - base == set()


def test_worker_killed_inside_a_cycle_named_error_then_recovery(
    tiny_problem, monkeypatch, no_new_shm
):
    sv = _solve(tiny_problem, "virtual")
    _force_resident(monkeypatch)
    monkeypatch.setenv("REPRO_PROCESS_TIMEOUT", "5")
    fired = _before_third_step(
        monkeypatch,
        lambda comm, payload: os.kill(
            comm._pool.process_ids()[1], signal.SIGKILL
        ),
    )
    t0 = time.monotonic()
    with pytest.raises(WorkerCrashedError, match="worker 1 died"):
        _solve(tiny_problem, "process")
    assert fired and time.monotonic() - t0 < 5.0
    # Respawn, re-ship, bitwise again.
    _assert_same(sv, _solve(tiny_problem, "process"))


def test_worker_stalled_inside_a_step_times_out(
    tiny_problem, monkeypatch, no_new_shm
):
    """A worker that hangs between two barriers of a step is the
    orchestrator's timeout, not a deadlock."""
    sv = _solve(tiny_problem, "virtual")
    _force_resident(monkeypatch)
    _solve(tiny_problem, "process")  # spawn under the default timeout
    monkeypatch.setenv("REPRO_PROCESS_TIMEOUT", "0.4")
    fired = _before_third_step(
        monkeypatch,
        lambda comm, payload: payload.update(stall=[1, 2, 1.5]),
    )
    t0 = time.monotonic()
    with pytest.raises(WorkerTimeoutError, match="did not reply"):
        _solve(tiny_problem, "process")
    assert fired and time.monotonic() - t0 < 1.4
    monkeypatch.setenv("REPRO_PROCESS_TIMEOUT", "30")
    _assert_same(sv, _solve(tiny_problem, "process"))


def test_barrier_deadline_when_a_peer_never_reaches_the_second_barrier(
    tiny_problem, monkeypatch, no_new_shm
):
    """Below the pipe timeout the barrier deadline speaks first: the
    waiting worker reports which barrier its peer missed, the pool
    survives (a worker-level error) and the next solve is bitwise."""
    sv = _solve(tiny_problem, "virtual")
    _force_resident(monkeypatch)
    monkeypatch.setenv("REPRO_PROCESS_TIMEOUT", "2.4")  # barrier: 1.2 s
    _solve(tiny_problem, "process")  # spawn outside the timed drill
    from repro.parallel.process_comm import _shared_pool

    pids = _shared_pool[0].process_ids()
    fired = _before_third_step(
        monkeypatch,
        lambda comm, payload: payload.update(stall=[1, 2, 1.8]),
    )
    with pytest.raises(ProcessWorkerError, match="barrier phase 2"):
        _solve(tiny_problem, "process")
    assert fired
    _assert_same(sv, _solve(tiny_problem, "process"))
    assert _shared_pool[0].process_ids() == pids


def test_step_after_the_pool_was_lost_is_a_named_error(
    tiny_problem, monkeypatch, no_new_shm
):
    """A pool drained mid-cycle takes the workers' Krylov state with
    it.  Drained inside the dispatch, the step meets a generation the
    fresh workers never received; drained ahead of it, the engine
    re-ships the blocks and the step meets a cycle nobody seeded.  Both
    are named worker errors, and the solve after is bitwise."""
    sv = _solve(tiny_problem, "virtual")
    _force_resident(monkeypatch)
    for target, message in (
        ("run_rank_op", "not shipped"),
        ("step", "must re-seed"),
    ):
        with monkeypatch.context() as patch:
            fired = _before_third_step(
                patch, lambda comm, payload: shutdown_pool(force=True),
                target,
            )
            with pytest.raises(ProcessWorkerError, match=message):
                _solve(tiny_problem, "process")
            assert fired
        _assert_same(sv, _solve(tiny_problem, "process"))
