"""Property-based cross-backend parity: virtual and process
communicators must produce bitwise-equal collective results and exactly
equal counters on seeded random topologies and payloads.

Hypothesis drives the *shape* space — mesh dimensions, part counts, block
widths, payload seeds, halo-plan density — while numpy generates the
payloads deterministically from the drawn seed, so every example is
reproducible from its draw alone.  Equality is `tobytes()`-exact: the Comm
contract promises bit-identity, not closeness, and these tests are the
fence that keeps backend-specific data-plane tricks (worker pools, shared
memory) from ever perturbing an association.

The worker pool is shared across examples (spawning processes per
example would dominate runtime) and drained once at module teardown.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import VirtualComm
from repro.parallel.process_comm import ProcessComm
from repro.parallel.process_comm import shutdown_pool as shutdown_processes
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map

@pytest.fixture(scope="module", autouse=True)
def _drain_pools_at_end():
    yield
    shutdown_processes(force=True)


def _submap(nx, ny, n_parts):
    mesh = structured_quad_mesh(nx, ny)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition.build(mesh, min(n_parts, mesh.n_elements))
    return build_subdomain_map(mesh, part, bc)


def _backends(submap):
    """One communicator per backend."""
    return {
        "virtual": VirtualComm(submap),
        "process": ProcessComm(submap, n_workers=2, min_dispatch_work=0),
    }


def _close_all(comms):
    # The process pool stays parked until the module fixture drains it.
    for comm in comms.values():
        comm.close()


def _random_plan(rng, sizes, density):
    """A random symmetric halo plan: each unordered pair exchanges with
    probability ``density``; send indices and receive slots are arbitrary
    (possibly repeating across neighbours, like aliased ghost layouts)."""
    size = len(sizes)
    plan = {s: {} for s in range(size)}
    for s in range(size):
        for t in range(s + 1, size):
            if rng.random() > density:
                continue
            n_st = int(rng.integers(1, min(sizes[s], 4) + 1))
            n_ts = int(rng.integers(1, min(sizes[t], 4) + 1))
            plan[s][t] = (
                rng.integers(0, sizes[s], n_st),
                rng.integers(0, 6, n_ts),
            )
            plan[t][s] = (
                rng.integers(0, sizes[t], n_ts),
                rng.integers(0, 6, n_st),
            )
    return plan


def _assert_bitwise(results):
    ref = results["virtual"]
    got = results["process"]
    assert len(got) == len(ref)
    for a, b in zip(ref, got):
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(2, 8),
    ny=st.integers(1, 4),
    n_parts=st.integers(2, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_interface_assemble_parity(nx, ny, n_parts, k, seed):
    submap = _submap(nx, ny, n_parts)
    rng = np.random.default_rng(seed)
    base = [
        rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 7)
        for n in submap.local_sizes
    ]
    comms = _backends(submap)
    try:
        vec_results = {}
        blk_results = {}
        for name, comm in comms.items():
            vec_results[name] = comm.interface_assemble(
                [p[:, 0].copy() for p in base]
            )
            blk_results[name] = comm.interface_assemble(
                [p.copy() for p in base]
            )
        _assert_bitwise(vec_results)
        _assert_bitwise(blk_results)
        # Column 0 of the block form must equal the vector form bitwise.
        for a, b in zip(vec_results["process"], blk_results["process"]):
            assert a.tobytes() == np.ascontiguousarray(b[:, 0]).tobytes()
        ref_ranks = comms["virtual"].stats.ranks
        assert comms["process"].stats.ranks == ref_ranks
    finally:
        _close_all(comms)


@settings(max_examples=20, deadline=None)
@given(
    n_parts=st.integers(2, 6),
    words=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_allreduce_parity(n_parts, words, seed):
    submap = _submap(6, 2, n_parts)
    rng = np.random.default_rng(seed)
    size = submap.n_parts
    arrays = [
        rng.standard_normal(words) * 10.0 ** rng.integers(-9, 10)
        for _ in range(size)
    ]
    scalars = [float(a[0]) for a in arrays]
    comms = _backends(submap)
    try:
        arr_results = {}
        sca_results = {}
        for name, comm in comms.items():
            arr_results[name] = [
                comm.allreduce_sum([a.copy() for a in arrays], words=words)
            ]
            sca_results[name] = [np.float64(comm.allreduce_sum(scalars))]
        _assert_bitwise(arr_results)
        _assert_bitwise(sca_results)
        ref_ranks = comms["virtual"].stats.ranks
        assert comms["process"].stats.ranks == ref_ranks
    finally:
        _close_all(comms)


@settings(max_examples=8, deadline=None)
@given(
    method=st.sampled_from(["edd-enhanced", "edd-basic", "rdd"]),
    degree=st.integers(0, 7),
    restart=st.integers(5, 25),
    n_parts=st.integers(2, 5),
)
def test_resident_solver_parity(method, degree, restart, n_parts):
    """Whole-solve parity with worker-resident rank execution forced on:
    any (method, GLS degree, restart, P) drawn must reproduce the virtual
    backend's floats and counters exactly.  This is the property-level
    fence for the resident engines — the collective tests above cannot
    see the rank-op command path at all."""
    from repro.core.driver import solve_cantilever
    from repro.core.options import SolverOptions
    from repro.fem.cantilever import cantilever_problem

    problem = cantilever_problem(nx=6, ny=3)
    opts = SolverOptions(precond=f"gls({degree})", restart=restart,
                         method=method)
    sv = solve_cantilever(
        problem, n_parts=n_parts,
        options=opts.replace(comm_backend="virtual"),
    )
    import os

    saved = {
        k: os.environ.get(k)
        for k in ("REPRO_PROCESS_MIN_WORK", "REPRO_PROCESS_WORKERS")
    }
    os.environ["REPRO_PROCESS_MIN_WORK"] = "0"
    os.environ["REPRO_PROCESS_WORKERS"] = "2"
    try:
        sp = solve_cantilever(
            problem, n_parts=n_parts,
            options=opts.replace(comm_backend="process"),
        )
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    assert sv.result.residual_history == sp.result.residual_history
    assert np.asarray(sv.result.x).tobytes() == np.asarray(
        sp.result.x
    ).tobytes()
    assert sv.stats.ranks == sp.stats.ranks


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(3, 8),
    n_parts=st.integers(2, 5),
    k=st.integers(1, 3),
    density=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_halo_exchange_parity(nx, n_parts, k, density, seed):
    submap = _submap(nx, 3, n_parts)
    rng = np.random.default_rng(seed)
    plan = _random_plan(rng, submap.local_sizes, density)
    base = [rng.standard_normal((n, k)) for n in submap.local_sizes]
    comms = _backends(submap)
    try:
        vec_results = {}
        blk_results = {}
        for name, comm in comms.items():
            vec_results[name] = comm.halo_exchange(
                [p[:, 0].copy() for p in base], plan
            )
            blk_results[name] = comm.halo_exchange(
                [p.copy() for p in base], plan
            )
        _assert_bitwise(vec_results)
        _assert_bitwise(blk_results)
        ref_ranks = comms["virtual"].stats.ranks
        assert comms["process"].stats.ranks == ref_ranks
    finally:
        _close_all(comms)
