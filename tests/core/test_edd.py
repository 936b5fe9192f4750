"""EDD-FGMRES (Algorithms 5-6): correctness, rank-invariance, communication
structure."""

import numpy as np
import pytest

from repro.core.distributed import build_edd_system
from repro.core.edd import edd_fgmres
from repro.fem.bc import clamp_edge_dofs
from repro.fem.cantilever import cantilever_problem
from repro.partition.element_partition import ElementPartition
from repro.precond.gls import GLSPolynomial
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.neumann import NeumannPolynomial
from repro.precond.scaling import scale_system


def _build(problem, n_parts, **kw):
    f_full = problem.bc.expand(problem.load)
    part = ElementPartition.build(problem.mesh, n_parts)
    return build_edd_system(
        problem.mesh, problem.material, problem.bc, part, f_full, **kw
    )


def _direct(problem):
    return np.linalg.solve(problem.stiffness.toarray(), problem.load)


def test_matches_direct_solve(tiny_problem, comm_backend):
    system = _build(tiny_problem, 3)
    assert system.comm.backend_name == comm_backend
    res = edd_fgmres(system, GLSPolynomial.unit_interval(7, eps=1e-6), tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, _direct(tiny_problem), rtol=1e-6, atol=1e-12)


def test_unpreconditioned_matches_direct(tiny_problem, comm_backend):
    system = _build(tiny_problem, 2)
    res = edd_fgmres(system, None, tol=1e-10, restart=60)
    assert res.converged
    assert np.allclose(res.x, _direct(tiny_problem), rtol=1e-5, atol=1e-12)


@pytest.mark.parametrize("variant", ["basic", "enhanced"])
def test_variants_numerically_identical(tiny_problem, variant):
    """Algorithms 5 and 6 differ only in communication, not numerics."""
    system = _build(tiny_problem, 3)
    res = edd_fgmres(
        system,
        GLSPolynomial.unit_interval(5, eps=1e-6),
        tol=1e-8,
        variant=variant,
    )
    assert res.converged
    assert np.allclose(res.x, _direct(tiny_problem), rtol=1e-5, atol=1e-12)


def test_iterations_independent_of_rank_count(mesh2_problem):
    """Partitioning is purely algebraic bookkeeping: same iterations for
    every P (the paper's Table 3 shows the same behaviour)."""
    iters = []
    for p in (1, 2, 4):
        system = _build(mesh2_problem, p)
        res = edd_fgmres(
            system, GLSPolynomial.unit_interval(7, eps=1e-6), tol=1e-6
        )
        assert res.converged
        iters.append(res.iterations)
    assert iters[0] == iters[1] == iters[2]


def test_enhanced_one_exchange_per_iteration(tiny_problem):
    """Algorithm 6's claim: 1 non-preconditioner exchange per Arnoldi step
    (degree m polynomial adds m more)."""
    system = _build(tiny_problem, 2)
    deg = 4
    pre = NeumannPolynomial(deg)
    snap = system.comm.stats.snapshot()
    res = edd_fgmres(system, pre, tol=1e-8, variant="enhanced", restart=50)
    delta = system.comm.stats.delta(snap)
    n_pairs = 1  # 2 subdomains -> rank 0 has 1 neighbour
    iters = res.iterations
    # total exchanges = (deg+1) per iteration + 2 per restart cycle (initial
    # residual assembly) -> count rank-0 messages
    expected = (deg + 1) * iters + 2 * (res.restarts + 0)
    msgs = delta.ranks[0].nbr_messages / n_pairs
    assert msgs == pytest.approx(expected, abs=2)


def test_basic_three_exchanges_per_iteration(tiny_problem):
    system = _build(tiny_problem, 2)
    deg = 4
    snap = system.comm.stats.snapshot()
    res = edd_fgmres(
        system, NeumannPolynomial(deg), tol=1e-8, variant="basic", restart=50
    )
    delta = system.comm.stats.delta(snap)
    iters = res.iterations
    expected = (deg + 3) * iters + 2 * res.restarts
    msgs = delta.ranks[0].nbr_messages
    assert msgs == pytest.approx(expected, abs=2)


def test_two_allreduces_per_iteration(tiny_problem):
    system = _build(tiny_problem, 2)
    snap = system.comm.stats.snapshot()
    res = edd_fgmres(
        system, NeumannPolynomial(3), tol=1e-8, restart=50
    )
    delta = system.comm.stats.delta(snap)
    # 2 per iteration + 2 per restart cycle (initial/final norm)
    expected = 2 * res.iterations + 2 * res.restarts
    assert delta.ranks[0].reductions == pytest.approx(expected, abs=2)


def test_ilu_rejected_for_distributed_system(tiny_problem):
    system = _build(tiny_problem, 2)
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    ilu = ILU0Preconditioner(ss.a)
    with pytest.raises(TypeError, match="polynomial"):
        edd_fgmres(system, ilu)


def test_block_jacobi_rejected_before_anything_is_charged(tiny_problem):
    """Block-Jacobi ILU(0) factors an RDD system's assembled blocks; the
    EDD space rejects it with TypeError when it is built, before any
    iteration or exchange is charged."""
    from repro.core.rdd import build_rdd_system
    from repro.partition.node_partition import NodePartition
    from repro.precond.block_jacobi import BlockJacobiILU

    rdd = build_rdd_system(
        tiny_problem.mesh, tiny_problem.bc,
        NodePartition.build(tiny_problem.mesh, 2),
        tiny_problem.stiffness, tiny_problem.load,
    )
    system = _build(tiny_problem, 2)
    with pytest.raises(TypeError, match="another system"):
        edd_fgmres(system, BlockJacobiILU(rdd))
    per_rank = system.comm.stats.to_dict()["per_rank"]
    assert all(v == 0 for r in per_rank for v in r.values())


def test_invalid_variant(tiny_problem):
    system = _build(tiny_problem, 2)
    with pytest.raises(ValueError):
        edd_fgmres(system, None, variant="turbo")


def test_restart_validation(tiny_problem):
    system = _build(tiny_problem, 2)
    with pytest.raises(ValueError):
        edd_fgmres(system, None, restart=0)


def test_dynamic_effective_system(tiny_dynamic_problem):
    """EDD on the alpha*M + beta*K effective matrix (Eq. 52)."""
    alpha, beta = 2.0, 1.0
    system = _build(tiny_dynamic_problem, 2, mass_shift=(alpha, beta))
    res = edd_fgmres(
        system, GLSPolynomial.unit_interval(7, eps=1e-6), tol=1e-10
    )
    assert res.converged
    k_eff = (
        beta * tiny_dynamic_problem.stiffness.toarray()
        + alpha * tiny_dynamic_problem.mass.toarray()
    )
    u_ref = np.linalg.solve(k_eff, tiny_dynamic_problem.load)
    assert np.allclose(res.x, u_ref, rtol=1e-6, atol=1e-12)


def test_max_iter_unconverged_flag(tiny_problem):
    system = _build(tiny_problem, 2)
    res = edd_fgmres(system, None, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
