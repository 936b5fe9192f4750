"""RDD-FGMRES (Algorithm 8)."""

import numpy as np
import pytest

from repro.core.rdd import build_rdd_system, rdd_fgmres, rdd_fgmres_block
from repro.partition.node_partition import NodePartition
from repro.precond.diagonal import JacobiPreconditioner
from repro.precond.gls import GLSPolynomial
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.neumann import NeumannPolynomial


def _build(problem, n_parts):
    part = NodePartition.build(problem.mesh, n_parts)
    return build_rdd_system(
        problem.mesh, problem.bc, part, problem.stiffness, problem.load
    )


def _direct(problem):
    return np.linalg.solve(problem.stiffness.toarray(), problem.load)


def test_matvec_matches_global_product(tiny_problem):
    system = _build(tiny_problem, 3)
    from repro.precond.scaling import norm1_scaling

    d = norm1_scaling(tiny_problem.stiffness)
    a = (
        tiny_problem.stiffness.scale_rows(d).scale_cols(d).toarray()
    )
    x = np.random.default_rng(0).standard_normal(system.n_global)
    x_parts = [x[o] for o in system.own]
    y_parts = system.matvec(x_parts)
    y = np.zeros(system.n_global)
    for o, p in zip(system.own, y_parts):
        y[o] = p
    assert np.allclose(y, a @ x, atol=1e-12)


def test_matches_direct_solve(tiny_problem, comm_backend):
    system = _build(tiny_problem, 3)
    assert system.comm.backend_name == comm_backend
    res = rdd_fgmres(
        system, GLSPolynomial.unit_interval(7, eps=1e-6), tol=1e-10
    )
    assert res.converged
    assert np.allclose(res.x, _direct(tiny_problem), rtol=1e-6, atol=1e-12)


def test_unpreconditioned_solve(tiny_problem):
    system = _build(tiny_problem, 2)
    res = rdd_fgmres(system, None, tol=1e-9, restart=60)
    assert res.converged
    assert np.allclose(res.x, _direct(tiny_problem), rtol=1e-5, atol=1e-12)


def test_iterations_match_edd(mesh2_problem):
    """EDD and RDD implement the same preconditioned FGMRES on the same
    (scaled) system, up to the slightly different distributed scaling —
    iteration counts must land in the same ballpark."""
    from repro.core.distributed import build_edd_system
    from repro.core.edd import edd_fgmres
    from repro.partition.element_partition import ElementPartition

    pre = GLSPolynomial.unit_interval(7, eps=1e-6)
    rdd_sys = _build(mesh2_problem, 4)
    rdd_res = rdd_fgmres(rdd_sys, pre, tol=1e-6)
    f_full = mesh2_problem.bc.expand(mesh2_problem.load)
    edd_sys = build_edd_system(
        mesh2_problem.mesh,
        mesh2_problem.material,
        mesh2_problem.bc,
        ElementPartition.build(mesh2_problem.mesh, 4),
        f_full,
    )
    edd_res = edd_fgmres(edd_sys, pre, tol=1e-6)
    assert rdd_res.converged and edd_res.converged
    assert abs(rdd_res.iterations - edd_res.iterations) <= 5
    # both solved to 1e-6 relative residual, so agreement is ~1e-6-ish
    scale = np.abs(edd_res.x).max()
    assert np.allclose(rdd_res.x, edd_res.x, rtol=1e-3, atol=1e-6 * scale)


def test_halo_messages_per_iteration(tiny_problem):
    """Algorithm 8: deg+1 halo exchanges per Arnoldi step."""
    system = _build(tiny_problem, 2)
    deg = 4
    snap = system.comm.stats.snapshot()
    res = rdd_fgmres(system, NeumannPolynomial(deg), tol=1e-8, restart=50)
    delta = system.comm.stats.delta(snap)
    expected = (deg + 1) * res.iterations + 2 * res.restarts
    assert delta.ranks[0].nbr_messages == pytest.approx(expected, abs=2)


def test_replication_factor_above_one(tiny_problem):
    system = _build(tiny_problem, 4)
    assert system.replication_factor() > 1.0


def test_empty_rank_rejected():
    from repro.fem.cantilever import cantilever_problem
    from repro.fem.mesh import structured_quad_mesh
    from repro.partition.node_partition import NodePartition

    p = cantilever_problem(nx=2, ny=1)
    part = NodePartition(p.mesh, np.zeros(p.mesh.n_nodes, dtype=int), 2)
    with pytest.raises(ValueError, match="owns no DOFs"):
        build_rdd_system(p.mesh, p.bc, part, p.stiffness, p.load)


def test_rank_invariance(tiny_problem):
    iters = set()
    for p in (1, 2, 4):
        system = _build(tiny_problem, p)
        res = rdd_fgmres(
            system, GLSPolynomial.unit_interval(5, eps=1e-6), tol=1e-8
        )
        assert res.converged
        iters.add(res.iterations)
    assert len(iters) == 1  # RDD scaling is rank-count independent


def test_local_reordering_interior_first(tiny_problem):
    """With reorder_local (default), each rank's owned list starts with
    its interior rows: a_loc rows before n_interior have no a_ext entries."""
    system = _build(tiny_problem, 3)
    for s in range(system.n_parts):
        ni = system.n_interior[s]
        row_lengths = system.a_ext[s].row_lengths()
        assert np.all(row_lengths[:ni] == 0)
        assert np.all(row_lengths[ni:] > 0)
    assert 0 < system.interior_fraction() < 1


def test_reordering_does_not_change_solution(tiny_problem):
    from repro.fem.cantilever import cantilever_problem
    from repro.partition.node_partition import NodePartition

    part = NodePartition.build(tiny_problem.mesh, 3)
    kwargs = dict(tol=1e-9)
    sys_a = build_rdd_system(
        tiny_problem.mesh, tiny_problem.bc, part,
        tiny_problem.stiffness, tiny_problem.load, reorder_local=True,
    )
    sys_b = build_rdd_system(
        tiny_problem.mesh, tiny_problem.bc, part,
        tiny_problem.stiffness, tiny_problem.load, reorder_local=False,
    )
    pre = GLSPolynomial.unit_interval(5, eps=1e-6)
    ra = rdd_fgmres(sys_a, pre, **kwargs)
    rb = rdd_fgmres(sys_b, pre, **kwargs)
    assert ra.converged and rb.converged
    assert ra.iterations == rb.iterations
    assert np.allclose(ra.x, rb.x, rtol=1e-7, atol=1e-12)


def test_interior_fraction_grows_with_fewer_ranks(mesh2_problem):
    fracs = []
    for p in (8, 2):
        system = _build(mesh2_problem, p)
        fracs.append(system.interior_fraction())
    assert fracs[1] > fracs[0]  # fewer ranks -> relatively less boundary


def _two_rhs(problem):
    return np.column_stack([problem.load, 2.0 * problem.load[::-1]])


def test_block_rhs_accepts_array_like(tiny_problem):
    """An array-like RHS goes through ``rhs_block`` exactly like an
    ndarray (and like ``edd_fgmres_block`` has always accepted)."""
    b = _two_rhs(tiny_problem)
    pre = GLSPolynomial.unit_interval(5, eps=1e-6)
    ref = rdd_fgmres_block(_build(tiny_problem, 3), b, pre, tol=1e-9)
    got = rdd_fgmres_block(_build(tiny_problem, 3), b.tolist(), pre, tol=1e-9)
    assert [r.converged for r in got] == [True, True]
    for r, g in zip(ref, got):
        assert np.array_equal(r.x, g.x)


@pytest.mark.parametrize("damage", ["missing-rank", "wrong-rows", "mixed-k", "1-d"])
def test_block_rhs_rejects_malformed_part_list(tiny_problem, damage):
    """A per-rank part list is taken only with ``n_parts`` arrays of shapes
    ``(n_own, k)``; anything else names the shapes it needed."""
    system = _build(tiny_problem, 3)
    good = system.rhs_block(_two_rhs(tiny_problem))
    bad = {
        "missing-rank": good[:-1],
        "wrong-rows": [good[0][:-1]] + good[1:],
        "mixed-k": good[:-1] + [good[-1][:, :1]],
        "1-d": [p[:, 0] for p in good],
    }[damage]
    expected = str([(len(o), "k") for o in system.own])
    with pytest.raises(ValueError) as err:
        rdd_fgmres_block(system, bad)
    assert expected in str(err.value)
    # the well-formed list is still taken as is
    assert all(r.converged for r in rdd_fgmres_block(system, good, tol=1e-8, restart=60))


@pytest.mark.parametrize(
    "make", [ILU0Preconditioner, JacobiPreconditioner], ids=["ilu0", "jacobi"]
)
def test_global_preconditioner_rejected_before_anything_is_charged(
    tiny_problem, make
):
    """A global preconditioner has no step program: building the space
    raises TypeError, so no iteration runs and nothing is charged."""
    system = _build(tiny_problem, 2)
    with pytest.raises(TypeError, match="step program"):
        rdd_fgmres(system, make(tiny_problem.stiffness))
    per_rank = system.comm.stats.to_dict()["per_rank"]
    assert all(v == 0 for r in per_rank for v in r.values())
