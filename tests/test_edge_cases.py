"""Edge-case battery: small behaviours not covered by the feature suites."""

import numpy as np
import pytest

from repro.parallel.comm import VirtualComm
from repro.partition.interface import SubdomainMap
from repro.solvers.givens import GivensLSQ
from repro.solvers.result import SolveResult
from repro.sparse.csr import CSRMatrix
from repro.spectrum.intervals import SpectrumIntervals


def test_solve_result_empty_history_nan():
    res = SolveResult(np.zeros(1), False, 0, 0, residual_history=[])
    assert np.isnan(res.final_residual)


def test_solve_result_repr_contains_state():
    res = SolveResult(np.zeros(1), True, 5, 1, [1.0, 1e-7])
    text = repr(res)
    assert "converged=True" in text and "iterations=5" in text


def test_intervals_iterable():
    th = SpectrumIntervals([(1.0, 2.0), (3.0, 4.0)])
    assert list(th) == [(1.0, 2.0), (3.0, 4.0)]


def test_givens_residual_norm_before_columns():
    lsq = GivensLSQ(3, 2.5)
    assert lsq.residual_norm == pytest.approx(2.5)


def test_csr_repr():
    a = CSRMatrix.eye(3)
    assert "nnz=3" in repr(a)


def test_csr_is_symmetric_explicit_zero_pattern():
    """Pattern asymmetry with value symmetry: still symmetric."""
    dense = np.array([[1.0, 0.0], [0.0, 2.0]])
    a = CSRMatrix((2, 2), [0, 2, 3], [0, 1, 1], [1.0, 0.0, 2.0])
    assert a.is_symmetric()
    assert np.allclose(a.toarray(), dense)


def test_add_flops_all():
    submap = SubdomainMap(
        4, 2, [np.array([0, 1]), np.array([2, 3])],
        np.ones(4, dtype=np.int64), [dict(), dict()],
    )
    comm = VirtualComm(submap)
    comm.add_flops_all([5, 7])
    assert comm.stats.ranks[0].flops == 5
    assert comm.stats.ranks[1].flops == 7


def test_mesh_element_coords():
    from repro.fem.mesh import structured_quad_mesh

    mesh = structured_quad_mesh(2, 1, lx=2.0)
    c = mesh.element_coords(1)
    assert c.shape == (4, 2)
    assert c[:, 0].min() == 1.0


def test_subdomain_map_neighbors_empty():
    submap = SubdomainMap(
        4, 2, [np.array([0, 1]), np.array([2, 3])],
        np.ones(4, dtype=np.int64), [dict(), dict()],
    )
    assert submap.neighbors(0) == []
    assert submap.exchange_words(0) == 0
    assert len(submap.interface_dofs()) == 0


def test_subdomain_map_restrict_validates_length():
    submap = SubdomainMap(
        4, 2, [np.array([0, 1]), np.array([2, 3])],
        np.ones(4, dtype=np.int64), [dict(), dict()],
    )
    with pytest.raises(ValueError):
        submap.restrict(np.zeros(3))


def test_machine_model_frozen():
    from repro.parallel.machine import SGI_ORIGIN

    with pytest.raises(Exception):
        SGI_ORIGIN.latency = 0.0


def test_material_default_steel_constant():
    from repro.fem.material import STEEL

    assert STEEL.E == pytest.approx(200e9)
    assert STEEL.plane_stress


def test_scaled_system_roundtrip_guess():
    from repro.fem.cantilever import cantilever_problem
    from repro.precond.scaling import scale_system

    p = cantilever_problem(nx=3, ny=2)
    ss = scale_system(p.stiffness, p.load)
    with pytest.raises(ValueError):
        ss.unscale_solution(np.zeros(3))
    with pytest.raises(ValueError):
        ss.scale_initial_guess(np.zeros(3))


def test_partition_metrics_dataclass_frozen():
    from repro.partition.metrics import PartitionMetrics

    m = PartitionMetrics(2, 1.0, 0.1, 10, 1, 1.0)
    with pytest.raises(Exception):
        m.n_parts = 3


def test_dist_vector_rejects_bad_kind():
    from repro.core.distributed import DistVector

    submap = SubdomainMap(
        4, 2, [np.array([0, 1]), np.array([2, 3])],
        np.ones(4, dtype=np.int64), [dict(), dict()],
    )
    comm = VirtualComm(submap)
    with pytest.raises(ValueError, match="kind"):
        DistVector([np.zeros(2), np.zeros(2)], "sideways", comm)


def test_dist_vector_rejects_non_distvector_operand():
    from repro.core.distributed import DistVector

    submap = SubdomainMap(
        4, 2, [np.array([0, 1]), np.array([2, 3])],
        np.ones(4, dtype=np.int64), [dict(), dict()],
    )
    comm = VirtualComm(submap)
    v = DistVector([np.zeros(2), np.zeros(2)], "local", comm)
    with pytest.raises(TypeError):
        _ = v + np.zeros(2)


def test_newmark_alpha_matches_a0():
    from repro.dynamics.newmark import NewmarkIntegrator

    k = CSRMatrix.eye(2)
    m = CSRMatrix.eye(2)
    nm = NewmarkIntegrator(k, m, dt=0.5)
    assert nm.alpha == nm.a0 == pytest.approx(1 / (0.25 * 0.25))


def test_cantilever_problem_neqn_property(tiny_problem):
    assert tiny_problem.n_eqn == tiny_problem.bc.n_free
