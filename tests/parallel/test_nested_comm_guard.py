"""Registry-level guard against constructing a communicator inside a
worker of another communicator (the nested-pool footgun).

Code in a pool worker that builds its own ProcessComm would recurse into
the shared pool — at best serializing everything, at worst deadlocking on
the pool lock.  The guard lives in the registry (``repro.parallel.comm``):
spawned process-pool children advertise themselves through
``REPRO_COMM_WORKER`` and every construction path checks it.
"""

import numpy as np
import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import (
    NestedCommError,
    VirtualComm,
    current_worker_backend,
    make_comm,
)
from repro.parallel.process_comm import ProcessComm
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


@pytest.fixture
def submap4():
    mesh = structured_quad_mesh(8, 2)
    bc = clamp_edge_dofs(mesh, "left")
    labels = np.repeat(np.arange(4), 2)
    part = ElementPartition(mesh, np.concatenate([labels, labels]), 4)
    return build_subdomain_map(mesh, part, bc)


def test_process_worker_env_marker_raises(submap4, monkeypatch):
    """Spawned process-pool children set ``REPRO_COMM_WORKER``; any comm
    construction there must be refused the same way."""
    monkeypatch.setenv("REPRO_COMM_WORKER", "process")
    assert current_worker_backend() == "process"
    with pytest.raises(NestedCommError, match="process"):
        make_comm(submap4, backend="virtual")
    with pytest.raises(NestedCommError):
        ProcessComm(submap4)
    # Back in the orchestrator, construction is unaffected.
    monkeypatch.delenv("REPRO_COMM_WORKER")
    assert current_worker_backend() is None
    assert isinstance(make_comm(submap4, backend="virtual"), VirtualComm)
