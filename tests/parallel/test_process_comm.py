"""ProcessComm backend: shared-memory collectives parity, dispatch
thresholds, registry wiring, error taxonomy.

Every test forces ``min_dispatch_work=0`` so even tiny payloads travel
through the worker processes — the point is to exercise the shared-memory
fan-out, not the inline fallback (which is literally ``VirtualComm``'s
code).  The pool is shared across tests and force-drained once at module
teardown so no worker processes leak into the rest of the session.
"""

import numpy as np
import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import VirtualComm, make_comm, use_comm_backend
from repro.parallel.process_comm import (
    ProcessComm,
    ProcessWorkerError,
    pool_process_count,
    shutdown_pool,
)
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


@pytest.fixture(scope="module", autouse=True)
def _drain_pool_at_end():
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


def _process_comm(submap, **kw):
    kw.setdefault("min_dispatch_work", 0)
    kw.setdefault("n_workers", 2)
    return ProcessComm(submap, **kw)


def _ring_plan(sizes):
    """A symmetric halo plan pairing neighbouring ranks ``(s, s+1)``.

    Each rank receives its right neighbour's values into slots [0, 1] and
    its left neighbour's into slots [2, 3] — disjoint, like a real RDD
    plan."""
    size = len(sizes)
    plan = {s: {} for s in range(size)}
    for s in range(size - 1):
        plan[s][s + 1] = (
            np.arange(2, dtype=np.int64),
            np.arange(2, dtype=np.int64),
        )
        plan[s + 1][s] = (
            np.arange(1, 3, dtype=np.int64),
            np.arange(2, 4, dtype=np.int64),
        )
    return plan


def _rank_parts(submap, seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = lambda n: (n,) if k is None else (n, k)
    return [rng.standard_normal(shape(n)) for n in submap.local_sizes]


# ----------------------------------------------------------------------
# Collective parity (bitwise) against VirtualComm
# ----------------------------------------------------------------------
def test_interface_assemble_bitwise(submap4):
    parts = _rank_parts(submap4)
    ref = VirtualComm(submap4).interface_assemble([p.copy() for p in parts])
    with _process_comm(submap4) as comm:
        got = comm.interface_assemble(parts)
    for a, b in zip(ref, got):
        assert a.tobytes() == b.tobytes()


def test_interface_assemble_block_bitwise(submap4):
    parts = _rank_parts(submap4, seed=1, k=3)
    ref = VirtualComm(submap4).interface_assemble(
        [p.copy() for p in parts]
    )
    with _process_comm(submap4) as comm:
        got = comm.interface_assemble(parts)
    for a, b in zip(ref, got):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_allreduce_scalar_and_array_bitwise(submap4):
    vals = [0.1 * (r + 1) ** 3 for r in range(4)]
    arrs = [np.linspace(r, r + 1, 5) for r in range(4)]
    ref_s = VirtualComm(submap4).allreduce_sum(list(vals))
    ref_a = VirtualComm(submap4).allreduce_sum([a.copy() for a in arrs], words=5)
    with _process_comm(submap4) as comm:
        got_s = comm.allreduce_sum(vals)
        got_a = comm.allreduce_sum(arrs, words=5)
    assert np.float64(ref_s).tobytes() == np.float64(got_s).tobytes()
    assert ref_a.tobytes() == got_a.tobytes()


def test_halo_exchange_bitwise(submap4):
    sizes = submap4.local_sizes
    plan = _ring_plan(sizes)
    parts = _rank_parts(submap4, seed=2)
    ref = VirtualComm(submap4).halo_exchange([p.copy() for p in parts], plan)
    with _process_comm(submap4) as comm:
        got = comm.halo_exchange(parts, plan)
        # Cached-plan second round must agree too.
        got2 = comm.halo_exchange(parts, plan)
    for a, b, c in zip(ref, got, got2):
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_halo_exchange_block_bitwise(submap4):
    plan = _ring_plan(submap4.local_sizes)
    parts = _rank_parts(submap4, seed=3, k=2)
    ref = VirtualComm(submap4).halo_exchange(
        [p.copy() for p in parts], plan
    )
    with _process_comm(submap4) as comm:
        got = comm.halo_exchange(parts, plan)
    for a, b in zip(ref, got):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stats_identical_to_virtual(submap4):
    parts = _rank_parts(submap4, seed=4)
    plan = _ring_plan(submap4.local_sizes)
    ref = VirtualComm(submap4)
    ref.interface_assemble([p.copy() for p in parts])
    ref.allreduce_sum([1.0, 2.0, 3.0, 4.0])
    ref.halo_exchange([p.copy() for p in parts], plan)
    with _process_comm(submap4) as comm:
        comm.interface_assemble(parts)
        comm.allreduce_sum([1.0, 2.0, 3.0, 4.0])
        comm.halo_exchange(parts, plan)
        assert comm.stats.ranks == ref.stats.ranks


# ----------------------------------------------------------------------
# Dispatch behaviour
# ----------------------------------------------------------------------
def test_run_ranks_inline_in_orchestrator(submap4):
    import os

    with _process_comm(submap4) as comm:
        pids = comm.run_ranks(lambda r: os.getpid())
        assert pids == [os.getpid()] * 4


def test_small_work_never_starts_pool(submap4):
    shutdown_pool(force=True)
    with ProcessComm(submap4, n_workers=2, min_dispatch_work=10**9) as comm:
        parts = _rank_parts(submap4, seed=5)
        ref = VirtualComm(submap4).interface_assemble(
            [p.copy() for p in parts]
        )
        got = comm.interface_assemble(parts)
        for a, b in zip(ref, got):
            assert a.tobytes() == b.tobytes()
        assert pool_process_count() == 0  # inline path, pool stayed cold


def test_non_float64_reduce_falls_back_inline(submap4):
    with _process_comm(submap4) as comm:
        got = comm.allreduce_sum([1, 2, 3, 4])  # python ints
        assert got == VirtualComm(submap4).allreduce_sum([1, 2, 3, 4])


def test_worker_error_carries_remote_traceback(submap4):
    with _process_comm(submap4) as comm:
        comm._ensure_arena(64)
        pool = comm._ensure_pool()
        with pool.lock:
            with pytest.raises(ProcessWorkerError, match="unknown worker op"):
                comm._control(pool, "no-such-op")
        # The pool survives a worker-level error (only crashes break it).
        assert not pool.broken
        assert comm.allreduce_sum([1.0, 1.0, 1.0, 1.0]) == 4.0


# ----------------------------------------------------------------------
# Registry / construction wiring
# ----------------------------------------------------------------------
def test_make_comm_selects_process(submap4):
    comm = make_comm(submap4, backend="process")
    try:
        assert isinstance(comm, ProcessComm)
        assert comm.backend_name == "process"
    finally:
        comm.close()


def test_use_comm_backend_process_drains_pool(submap4):
    with use_comm_backend("process"):
        with _process_comm(submap4) as comm:
            comm.interface_assemble(_rank_parts(submap4, seed=6))
        assert pool_process_count() > 0  # parked for the next comm
    assert pool_process_count() == 0  # context exit drained it
