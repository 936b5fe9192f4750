"""Virtual communicator collectives and the backend registry."""

import numpy as np
import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import (
    VirtualComm,
    available_comm_backends,
    get_comm_backend,
    make_comm,
    set_comm_backend,
    use_comm_backend,
)
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


@pytest.fixture
def comm2():
    mesh = structured_quad_mesh(4, 2)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition(mesh, np.array([0, 0, 1, 1] * 2), 2)
    submap = build_subdomain_map(mesh, part, bc)
    return VirtualComm(submap), submap, bc


def test_interface_assemble_values(comm2):
    """Assembling local parts gives the multiplicity-weighted global sum."""
    comm, submap, bc = comm2
    x = np.random.default_rng(1).standard_normal(bc.n_free)
    parts = submap.restrict(x)  # global-distributed: same x on interface
    out = comm.interface_assemble(parts)
    # each subdomain now holds multiplicity * x on its dofs
    for s, g in enumerate(submap.l2g):
        assert np.allclose(out[s], submap.multiplicity[g] * x[g])


def test_interface_assemble_charges_messages(comm2):
    comm, submap, _ = comm2
    parts = [np.zeros(n) for n in submap.local_sizes]
    comm.interface_assemble(parts)
    for s in range(2):
        assert comm.stats.ranks[s].nbr_messages == 1
        assert comm.stats.ranks[s].nbr_words == 6


def test_allreduce_sum_scalars(comm2):
    comm, _, _ = comm2
    total = comm.allreduce_sum([1.5, 2.5])
    assert total == 4.0
    assert all(r.reductions == 1 for r in comm.stats.ranks)


def test_allreduce_sum_arrays(comm2):
    comm, _, _ = comm2
    total = comm.allreduce_sum([np.array([1.0, 2.0]), np.array([3.0, 4.0])], words=2)
    assert np.array_equal(total, [4.0, 6.0])
    assert comm.stats.ranks[0].reduction_words == 2


def test_wrong_part_count_rejected(comm2):
    comm, _, _ = comm2
    with pytest.raises(ValueError):
        comm.allreduce_sum([1.0])
    with pytest.raises(ValueError):
        comm.interface_assemble([np.zeros(3)])


def test_halo_exchange_roundtrip():
    """Two ranks exchanging boundary entries into each other's ext buffer."""
    from repro.partition.interface import SubdomainMap

    own = [np.array([0, 1]), np.array([2, 3])]
    submap = SubdomainMap(4, 2, own, np.ones(4, dtype=np.int64), [dict(), dict()])
    comm = VirtualComm(submap)
    # rank 0 needs dof 2 (owner 1, its local 0); rank 1 needs dof 1.
    plan = {
        0: {1: (np.array([1]), np.array([0]))},
        1: {0: (np.array([0]), np.array([0]))},
    }
    x = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    ext = comm.halo_exchange(x, plan)
    assert np.array_equal(ext[0], [12.0])  # rank 1 sent its local 0 -> 12
    assert np.array_equal(ext[1], [11.0])  # rank 0 sent its local 1 -> 11
    assert comm.stats.ranks[0].nbr_messages == 1
    assert comm.stats.ranks[0].nbr_words == 1


def test_reset_stats(comm2):
    comm, submap, _ = comm2
    comm.interface_assemble([np.zeros(n) for n in submap.local_sizes])
    comm.reset_stats()
    assert comm.stats.total_flops == 0
    assert comm.stats.total_nbr_messages == 0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_roundtrip():
    assert available_comm_backends() == ("virtual", "process", "chaos")
    prev = get_comm_backend()
    try:
        set_comm_backend("chaos")
        assert get_comm_backend() == "chaos"
        with use_comm_backend("virtual"):
            assert get_comm_backend() == "virtual"
        assert get_comm_backend() == "chaos"
    finally:
        set_comm_backend(prev)


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown comm backend"):
        set_comm_backend("mpi")


def test_make_comm_selects_backend(comm2):
    _, submap, _ = comm2
    for name in available_comm_backends():
        comm = make_comm(submap, backend=name)
        assert comm.backend_name == name
        assert isinstance(comm, VirtualComm)  # one implementation of collectives
        comm.close()
    with use_comm_backend("chaos"):
        assert make_comm(submap).backend_name == "chaos"
