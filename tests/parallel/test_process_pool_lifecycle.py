"""ProcessComm pool lifecycle: no leaked processes, no leaked shared
memory, structured (never hanging) failure on crashed or stalled workers.

Two properties of the process pool are pinned down explicitly:
``close()`` *parks* the workers instead of draining them (a spawn is
paid once per session instead of once per solve), and a killed or
silent worker raises a named error within the per-call timeout instead of
deadlocking the orchestrator.  Every case drives the pool through
``ship`` / ``run_rank_op`` — the only traffic it carries.
"""

import glob
import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import use_comm_backend
from repro.parallel.process_comm import (
    ProcessComm,
    WorkerCrashedError,
    WorkerTimeoutError,
    pool_process_count,
    shutdown_pool,
)
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map
from tests.parallel.test_process_comm import exercise_pool as _exercise


@pytest.fixture(autouse=True)
def _drain_pool():
    shutdown_pool(force=True)
    yield
    shutdown_pool(force=True)
    assert pool_process_count() == 0


@pytest.fixture
def submap4():
    mesh = structured_quad_mesh(8, 2)
    bc = clamp_edge_dofs(mesh, "left")
    labels = np.repeat(np.arange(4), 2)
    part = ElementPartition(mesh, np.concatenate([labels, labels]), 4)
    return build_subdomain_map(mesh, part, bc)


def _comm(submap, **kw):
    kw.setdefault("n_workers", 2)
    return ProcessComm(submap, **kw)


def _shm_segments(base=frozenset()):
    """Segments created since ``base`` — delta-based so a leak from an
    unrelated earlier failure cannot cascade into these assertions."""
    return set(glob.glob("/dev/shm/repro-pc-*")) - set(base)


# ----------------------------------------------------------------------
# Parked-pool contract and shared-memory hygiene
# ----------------------------------------------------------------------
def test_close_parks_processes_and_unlinks_segments(submap4):
    base = _shm_segments()
    comm = _comm(submap4)
    _exercise(comm)
    assert pool_process_count() == 2
    assert len(_shm_segments(base)) == 1  # the comm's arena
    comm.close()
    assert _shm_segments(base) == set()  # arena unlinked eagerly
    assert pool_process_count() == 2  # workers parked, not drained
    assert shutdown_pool()  # no live borrowers left -> drains
    assert pool_process_count() == 0


def test_close_is_idempotent(submap4):
    base = _shm_segments()
    comm = _comm(submap4)
    _exercise(comm)
    comm.close()
    comm.close()
    assert _shm_segments(base) == set()


def test_shutdown_refused_while_comm_live(submap4):
    comm = _comm(submap4)
    _exercise(comm)
    assert not shutdown_pool()  # refused: comm still borrows
    assert pool_process_count() == 2
    assert shutdown_pool(force=True)
    assert pool_process_count() == 0
    # The comm transparently re-acquires a fresh pool afterwards.
    _exercise(comm)
    assert pool_process_count() == 2
    comm.close()


def test_parked_pool_reused_across_comms(submap4):
    with _comm(submap4) as a:
        _exercise(a)
        pids = set(a._pool.process_ids())
    with _comm(submap4) as b:
        _exercise(b)
        assert set(b._pool.process_ids()) == pids  # same parked workers


def test_arena_regrowth_unlinks_old_generation(submap4):
    base = _shm_segments()
    with _comm(submap4) as comm:
        _exercise(comm)
        first = _shm_segments(base)
        assert len(first) == 1
        # A larger payload forces a larger arena: new generation, old gone.
        comm.run_rank_op(
            {"name": "stall", "seconds": 0.0}, [(0, np.ones(40000))], [], 40000
        )
        second = _shm_segments(base)
        assert len(second) == 1 and second != first
    assert _shm_segments(base) == set()


def test_use_comm_backend_exit_drains_processes(tiny_problem, monkeypatch):
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    with use_comm_backend("process"):
        summary = solve_cantilever(
            tiny_problem, 2, options=SolverOptions(precond="gls(7)")
        )
        assert summary.result.converged
        assert pool_process_count() > 0
    assert pool_process_count() == 0


# ----------------------------------------------------------------------
# Structured failure instead of hangs
# ----------------------------------------------------------------------
def test_killed_worker_raises_named_error(submap4):
    comm = _comm(submap4)
    _exercise(comm)
    victim = comm._pool.process_ids()[1]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    with pytest.raises(WorkerCrashedError, match="worker 1 died"):
        while time.monotonic() < deadline:
            _exercise(comm)
    assert comm._pool.broken
    # The next dispatch transparently respawns a fresh pool and works.
    ref = _exercise(_comm(submap4))
    assert ref is not None
    comm.close()


def test_unguarded_script_names_the_main_guard(tmp_path):
    """A script that starts a pool at module level: each spawned worker
    re-imports it as ``__main__``, starts a pool again and dies before it
    answers.  The error gives the real exit code and names the guard."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from repro.core.driver import solve_cantilever\n"
        "from repro.core.options import SolverOptions\n"
        "solve_cantilever(2, n_parts=2,\n"
        "                 options=SolverOptions(comm_backend='process'))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(
        os.environ, PYTHONPATH=str(src),
        REPRO_PROCESS_MIN_WORK="0", REPRO_PROCESS_WORKERS="2",
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    (last,) = [
        line for line in proc.stderr.splitlines()
        if line.startswith(WorkerCrashedError.__module__)
    ]
    assert re.search(r"\(exitcode -?\d+\)", last), last
    assert "if __name__ == \"__main__\":" in last


def test_every_spawn_is_logged_with_reason_and_pids(submap4, caplog):
    """One INFO record on ``repro.parallel`` per pool spawn, naming why
    and the worker pids: the first use, the respawn after a SIGKILL
    broke the pool, and a wider comm growing it; a parked pool is reused
    without a record."""
    caplog.set_level(logging.INFO, logger="repro.parallel")
    pids = []
    with _comm(submap4) as comm:
        _exercise(comm)
        pids.append(comm._pool.process_ids())
        _exercise(comm)
        os.kill(pids[0][0], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        with pytest.raises(WorkerCrashedError):
            while time.monotonic() < deadline:
                _exercise(comm)
        _exercise(comm)
        pids.append(comm._pool.process_ids())
    with _comm(submap4, n_workers=3) as comm:
        _exercise(comm)
        pids.append(comm._pool.process_ids())
    records = [r for r in caplog.records if r.name == "repro.parallel"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    for record, reason, n, p in zip(
        records, ("first use", "broken", "grown"), (2, 2, 3), pids
    ):
        assert record.getMessage() == (
            f"process pool spawned ({reason}): {n} workers, pids {p}"
        )


def test_stalled_worker_raises_timeout_not_deadlock(submap4):
    comm = _comm(submap4)
    _exercise(comm)  # spawn + warm up under the default timeout
    comm.call_timeout = 0.4
    t0 = time.monotonic()
    with pytest.raises(WorkerTimeoutError, match="did not reply"):
        comm._debug_stall(3.0)
    assert time.monotonic() - t0 < 2.5  # bounded by the timeout, not 3 s
    assert comm._pool.broken
    comm.close()
    shutdown_pool(force=True)  # don't wait for the sleeper to wake

def test_crashed_pool_close_still_unlinks_segments(submap4):
    base = _shm_segments()
    comm = _comm(submap4)
    _exercise(comm)
    assert len(_shm_segments(base)) == 1
    for pid in comm._pool.process_ids():
        os.kill(pid, signal.SIGKILL)
    comm.close()
    assert _shm_segments(base) == set()


# ----------------------------------------------------------------------
# Worker BLAS pools are capped through the spawn environment
# ----------------------------------------------------------------------
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_environ(pid):
    with open(f"/proc/{pid}/environ", "rb") as fh:
        pairs = (item.split(b"=", 1) for item in fh.read().split(b"\0") if item)
        return {k.decode(): v.decode() for k, v in pairs}


@pytest.mark.skipif(
    not os.path.exists("/proc/self/environ"), reason="needs procfs"
)
def test_workers_spawn_with_capped_blas_pools(submap4, monkeypatch):
    """Every worker starts with its BLAS thread variables at the cap
    ``max(1, usable_cores // n_workers)``, the orchestrator's own
    environment is byte for byte what it was, and a lower value the user
    set is passed through unchanged."""
    from repro.parallel.process_comm import usable_cores

    monkeypatch.delenv("REPRO_PROCESS_WORKERS", raising=False)
    for name in _BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    with _comm(submap4) as comm:
        _exercise(comm)
        cap = str(max(1, usable_cores() // comm._pool.n_workers))
        for pid in comm._pool.process_ids():
            env = _worker_environ(pid)
            assert [env[name] for name in _BLAS_VARS] == [cap] * 3
    assert dict(os.environ) == before

    # Respawn as if on 8 cores (cap 4) with a user setting below the cap
    # (passed through) and one above it (lowered to it).
    from repro.parallel import process_comm

    shutdown_pool(force=True)
    monkeypatch.setattr(process_comm, "usable_cores", lambda: 8)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "4096")
    before = dict(os.environ)
    with _comm(submap4) as comm:
        _exercise(comm)
        for pid in comm._pool.process_ids():
            env = _worker_environ(pid)
            assert env["OPENBLAS_NUM_THREADS"] == "2"
            assert env["OMP_NUM_THREADS"] == "4"
            assert env["MKL_NUM_THREADS"] == "4"
    assert dict(os.environ) == before


def test_pool_is_sized_from_usable_cores(monkeypatch):
    """The default worker count and the BLAS cap read the affinity mask,
    not the host's core count: a cpuset-limited container sizes its pool
    from its own share."""
    from repro.parallel import process_comm

    monkeypatch.delenv("REPRO_PROCESS_WORKERS", raising=False)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert process_comm.usable_cores() == 3
    assert process_comm._default_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert process_comm.usable_cores() == 64
