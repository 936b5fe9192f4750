"""ProcessComm backend: VirtualComm collectives, the rank-op data plane,
registry wiring, error taxonomy.

``ProcessComm`` is ``VirtualComm`` plus a worker pool that executes
resident rank ops, so there are two things to pin here: collectives never
touch the pool whatever their size, and the pool's safety protocol
(sequence words, named errors) holds when driven through
``ship`` / ``run_rank_op``.  The pool is shared across tests and
force-drained once at module teardown so no worker processes leak into
the rest of the session.
"""

import itertools

import numpy as np
import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import VirtualComm, make_comm, use_comm_backend
from repro.parallel.process_comm import (
    ProcessComm,
    ProcessPoolError,
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
    kw.setdefault("n_workers", 2)
    return ProcessComm(submap, **kw)


_generations = itertools.count(10**6)


def exercise_pool(comm, seed=7):
    """Drive the pool end to end: ship an identity block per rank with
    ``ship``, then ``run_rank_op`` a ``seed`` of random vectors
    and an ``axpy`` of them with no coefficients, which hands its input
    back.  Returns ``(inputs, outputs)`` per rank — equal bit for bit
    when the data plane is healthy."""
    sizes = [int(n) for n in comm.submap.local_sizes]
    gen = next(_generations)
    comm.ship(
        gen,
        lambda: [
            {
                "rank": r,
                "arrays": {
                    "a_indptr": np.arange(n + 1, dtype=np.int64),
                    "a_indices": np.arange(n, dtype=np.int64),
                    "a_data": np.ones(n),
                },
                "meta": {"csr": {"a": (n, n)}},
            }
            for r, n in enumerate(sizes)
        ],
    )
    offsets = [int(o) for o in np.cumsum([0] + sizes[:-1])]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    x = [rng.standard_normal(n) for n in sizes]
    common = {
        "gen": gen, "backend": "numpy", "offsets": offsets, "sizes": sizes,
        "k": None,
    }
    comm.run_rank_op(
        dict(common, name="seed", restart=1, formats=1),
        list(zip(offsets, x)), [], total,
    )
    y = comm.run_rank_op(
        dict(common, name="axpy", terms=[]),
        list(zip(offsets, x)),
        [(off, n) for off, n in zip(offsets, sizes)],
        total,
    )
    return x, y


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


# ----------------------------------------------------------------------
# Collectives are VirtualComm's, at every size
# ----------------------------------------------------------------------
def test_collectives_never_spawn_the_pool(submap4, monkeypatch):
    """Collectives far above the default residency threshold (32768
    words) return VirtualComm's bits and counters and leave the pool
    cold: the threshold gates resident rank ops and nothing else."""
    monkeypatch.delenv("REPRO_PROCESS_MIN_WORK", raising=False)
    shutdown_pool(force=True)
    k = 8192  # 48 * k assembled words, 12 * k halo words: all >= 32768
    rng = np.random.default_rng(5)
    parts = [rng.standard_normal((n, k)) for n in submap4.local_sizes]
    plan = _ring_plan(submap4.local_sizes)
    rows = [rng.standard_normal(32768) for _ in range(4)]

    def collectives(comm):
        out = comm.interface_assemble([p.copy() for p in parts])
        out += comm.halo_exchange([p.copy() for p in parts], plan)
        out.append(comm.allreduce_sum([r.copy() for r in rows], words=32768))
        return out

    ref = VirtualComm(submap4)
    with _process_comm(submap4) as comm:
        assert comm.min_dispatch_work == 32768
        for a, b in zip(collectives(ref), collectives(comm)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert comm.stats.ranks == ref.stats.ranks
        assert pool_process_count() == 0


def test_run_ranks_inline_in_orchestrator(submap4):
    import os

    with _process_comm(submap4) as comm:
        pids = comm.run_ranks(lambda r: os.getpid())
        assert pids == [os.getpid()] * 4


# ----------------------------------------------------------------------
# The rank-op data plane and its safety protocol
# ----------------------------------------------------------------------
def test_rank_op_round_trip_bitwise(submap4):
    with _process_comm(submap4) as comm:
        x, y = exercise_pool(comm)
        assert pool_process_count() == 2
    for a, b in zip(x, y):
        assert a.tobytes() == b.tobytes()


def test_worker_error_carries_remote_traceback(submap4):
    with _process_comm(submap4) as comm:
        comm._ensure_arena(64)
        pool = comm._ensure_pool()
        with pool.lock:
            with pytest.raises(ProcessWorkerError, match="unknown worker op"):
                comm._control(pool, "no-such-op")
        # The pool survives a worker-level error (only crashes break it).
        assert not pool.broken
        x, y = exercise_pool(comm)
        assert all(np.array_equal(a, b) for a, b in zip(x, y))


def test_stale_arena_header_word_is_refused(submap4, monkeypatch):
    """A command whose sequence number is not the one stamped in the
    arena header means the worker would read a stale or swapped segment:
    it must refuse, not permute the wrong bytes."""
    with _process_comm(submap4) as comm:
        exercise_pool(comm)

        def stamp_nothing():
            comm._seq += 1
            return comm._seq

        monkeypatch.setattr(comm, "_stamp", stamp_nothing)
        with pytest.raises(ProcessWorkerError, match="stale arena"):
            exercise_pool(comm)
        monkeypatch.undo()
        assert not comm._pool.broken
        x, y = exercise_pool(comm)
        assert all(np.array_equal(a, b) for a, b in zip(x, y))


def test_out_of_sequence_reply_breaks_the_pool(submap4):
    """A reply that does not echo the command's sequence number means a
    worker is out of phase: the dispatch raises the named pool error and
    the next one gets a fresh pool."""
    with _process_comm(submap4) as comm:
        exercise_pool(comm)
        pool = comm._pool
        pool._conns[0].send(("ping", 10**9))  # an undrained stray reply
        with pytest.raises(ProcessPoolError, match="out of sequence"):
            exercise_pool(comm)
        assert pool.broken
        x, y = exercise_pool(comm)  # respawns and re-registers
        assert comm._pool is not pool
        assert all(np.array_equal(a, b) for a, b in zip(x, y))


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
            exercise_pool(comm)
        assert pool_process_count() > 0  # parked for the next comm
    assert pool_process_count() == 0  # context exit drained it


# ----------------------------------------------------------------------
# The workers' peer-to-peer ⊕Σ∂Ω
# ----------------------------------------------------------------------
def test_worker_side_interface_assembly_is_the_collective_bitwise():
    """``_Fused.assemble`` — run here in-process, as one worker owning
    every rank — returns ``Comm.interface_assemble``'s bits: same
    ascending-rank summation from 0.0 on DOFs shared by up to four
    ranks, and the same ``-0.0 -> 0.0`` on the others."""
    from repro.parallel._process_worker import _Fused

    mesh = structured_quad_mesh(4, 3)
    bc = clamp_edge_dofs(mesh, "left")
    submap = build_subdomain_map(mesh, ElementPartition.build(mesh, 8), bc)
    assert submap.multiplicity.max() == 4
    sizes = [int(n) for n in submap.local_sizes]
    workers = pool_process_count()
    with _process_comm(submap) as comm:
        plan = comm.interface_plan()
        assert plan["words"] == sum(len(idx) for idx, _, _ in plan["ranks"])
        rng = np.random.default_rng(11)
        for _ in range(5):
            parts = [rng.standard_normal(n) for n in sizes]
            for p in parts:
                p[rng.integers(0, len(p), 3)] = -0.0
            fused = _Fused(
                {0: {r: {"iface": rp} for r, rp in enumerate(plan["ranks"])}},
                np.zeros(2 * plan["words"] + 1),
                {
                    "gen": 0, "mode": "edd", "sizes": sizes,
                    "offsets": list(np.cumsum([0] + sizes[:-1])),
                    "slots": 0, "slot_words": plan["words"],
                    "flags": 2 * plan["words"], "nflags": 1, "btimeout": 1.0,
                },
                0, 1,
            )
            mine = fused.assemble(dict(enumerate(parts)))
            for r, ref in enumerate(comm.interface_assemble(parts)):
                assert mine[r].tobytes() == ref.tobytes()
        assert pool_process_count() == workers  # no worker was needed
