"""Batched multi-RHS solve paths: parity and communication invariants.

The contract of ``edd_fgmres_block`` / ``rdd_fgmres_block`` has three
layers, each pinned here:

* **k=1 is the single solver, bitwise.**  A one-column block solve takes
  the exact same floating-point path as the single-RHS solver — residual
  histories and solutions are compared with ``==``, not ``allclose``,
  across {EDD basic/enhanced, RDD} x {virtual, process} x {GLS(7),
  Neumann(20)}.
* **Columns are independent.**  In a mixed batch each column tracks its
  own convergence; per-column iteration counts equal the corresponding
  one-column solves, and histories agree to roundoff (cross-column
  bitwise equality is not promised for k > 1: per-column reductions over
  a strided block and over a contiguous vector round differently).
* **Communication coalesces.**  A k-RHS solve issues the *same number of
  nearest-neighbour messages* as a single solve of the same trajectory,
  with word volume and flops scaling exactly k-fold — that is the whole
  point of the batched exchanges, and it is asserted from CommStats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem

N_PARTS = 4

METHODS = ["edd-enhanced", "edd-basic", "rdd"]
PRECONDS = ["gls(7)", "neumann(20)"]


def _prepared(problem, method, precond, backend, **kw):
    options = SolverOptions(method=method, precond=precond,
                            comm_backend=backend, **kw)
    return PreparedSystem.build(problem, N_PARTS, options)


# ----------------------------------------------------------------------
# k = 1: exact single-RHS equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precond", PRECONDS)
@pytest.mark.parametrize("method", METHODS)
def test_k1_block_is_bitwise_single(mesh2_problem, method, precond,
                                    comm_backend):
    ps = _prepared(mesh2_problem, method, precond, comm_backend)
    try:
        single = ps.solve()
        batch = ps.solve_batch(mesh2_problem.load.reshape(-1, 1))
    finally:
        ps.close()
    rs, rb = single.result, batch.results[0]
    assert rb.converged and rs.converged
    assert rb.iterations == rs.iterations
    assert rb.restarts == rs.restarts
    assert np.array_equal(
        np.asarray(rb.residual_history), np.asarray(rs.residual_history)
    )
    assert np.array_equal(rb.x, rs.x)
    assert batch.true_residuals[0] == pytest.approx(single.true_residual)


def test_k1_bitwise_across_restart_cycles(mesh2_problem):
    """restart=5 forces several cycles (and cycle-boundary recomputes);
    the k=1 equivalence must survive them."""
    ps = _prepared(mesh2_problem, "edd-enhanced", "neumann(20)", "virtual",
                   restart=5)
    try:
        single = ps.solve()
        batch = ps.solve_batch(mesh2_problem.load.reshape(-1, 1))
    finally:
        ps.close()
    rs, rb = single.result, batch.results[0]
    assert rs.restarts > 1
    assert rb.restarts == rs.restarts
    assert np.array_equal(
        np.asarray(rb.residual_history), np.asarray(rs.residual_history)
    )
    assert np.array_equal(rb.x, rs.x)


@pytest.mark.parametrize("method", ["edd-enhanced", "rdd"])
def test_k1_bitwise_under_max_iter_cap(mesh2_problem, method):
    """A capped, non-converged solve exits through the diagnostics path;
    the block solver must mirror it exactly, including the failure."""
    ps = _prepared(mesh2_problem, method, "gls(7)", "virtual",
                   tol=1e-14, max_iter=6)
    try:
        single = ps.solve()
        batch = ps.solve_batch(mesh2_problem.load.reshape(-1, 1))
    finally:
        ps.close()
    rs, rb = single.result, batch.results[0]
    assert not rs.converged and not rb.converged
    assert rb.iterations == rs.iterations == 6
    assert np.array_equal(
        np.asarray(rb.residual_history), np.asarray(rs.residual_history)
    )
    assert np.array_equal(rb.x, rs.x)
    assert [e.kind for e in rb.diagnostics] == [
        e.kind for e in rs.diagnostics
    ]


# ----------------------------------------------------------------------
# Mixed batches: per-column independence and masking
# ----------------------------------------------------------------------
def _mixed_block(problem, k=3):
    rng = np.random.default_rng(7)
    scale = float(np.linalg.norm(problem.load))
    cols = [problem.load, scale * rng.standard_normal(problem.n_eqn)]
    while len(cols) < k:
        e = np.zeros(problem.n_eqn)
        e[3 * len(cols)] = scale
        cols.append(e)
    return np.column_stack(cols)


@pytest.mark.parametrize("method", ["edd-enhanced", "rdd"])
def test_mixed_batch_matches_one_column_solves(mesh2_problem, method):
    b_block = _mixed_block(mesh2_problem)
    ps = _prepared(mesh2_problem, method, "gls(7)", "virtual")
    try:
        batch = ps.solve_batch(b_block)
        singles = [
            ps.solve_batch(b_block[:, c].reshape(-1, 1)).results[0]
            for c in range(b_block.shape[1])
        ]
    finally:
        ps.close()
    for c, (rb, rs) in enumerate(zip(batch.results, singles)):
        assert rb.converged, c
        assert rb.iterations == rs.iterations, c
        np.testing.assert_allclose(
            np.asarray(rb.residual_history),
            np.asarray(rs.residual_history),
            rtol=1e-8, err_msg=f"column {c}",
        )
        np.testing.assert_allclose(rb.x, rs.x, rtol=1e-8, atol=1e-12)
    assert all(t <= 1e-4 for t in batch.true_residuals)


def test_mixed_batch_masking_across_restarts(mesh2_problem):
    """With restart=5 the fast columns finish mid-cycle and are compacted
    out while slow ones keep iterating — counts must still match the
    one-column runs."""
    b_block = _mixed_block(mesh2_problem, k=4)
    ps = _prepared(mesh2_problem, "edd-enhanced", "neumann(20)", "virtual",
                   restart=5)
    try:
        batch = ps.solve_batch(b_block)
        singles = [
            ps.solve_batch(b_block[:, c].reshape(-1, 1)).results[0]
            for c in range(b_block.shape[1])
        ]
    finally:
        ps.close()
    assert [r.iterations for r in batch.results] == [
        r.iterations for r in singles
    ]
    assert len({r.iterations for r in batch.results}) > 1, (
        "want columns that converge at different speeds"
    )
    for rb in batch.results:
        assert rb.converged


def test_zero_column_converges_immediately(mesh2_problem):
    b_block = np.column_stack([mesh2_problem.load,
                               np.zeros(mesh2_problem.n_eqn)])
    for method in ("edd-enhanced", "rdd"):
        ps = _prepared(mesh2_problem, method, "gls(7)", "virtual")
        try:
            batch = ps.solve_batch(b_block)
        finally:
            ps.close()
        assert batch.results[1].converged
        assert batch.results[1].iterations == 0
        assert np.array_equal(batch.results[1].x,
                              np.zeros(mesh2_problem.n_eqn))
        assert batch.results[0].converged
        assert batch.results[0].iterations > 0


def test_rdd_bj_ilu0_batched(mesh2_problem):
    """The assembled-block ILU preconditioner has its own batched apply;
    k=1 stays bitwise and a mixed batch converges per column."""
    ps = _prepared(mesh2_problem, "rdd", "bj-ilu0", "virtual")
    try:
        single = ps.solve()
        batch1 = ps.solve_batch(mesh2_problem.load.reshape(-1, 1))
        batch = ps.solve_batch(_mixed_block(mesh2_problem))
    finally:
        ps.close()
    assert np.array_equal(
        np.asarray(batch1.results[0].residual_history),
        np.asarray(single.result.residual_history),
    )
    assert np.array_equal(batch1.results[0].x, single.result.x)
    assert all(r.converged for r in batch.results)
    assert all(t <= 1e-4 for t in batch.true_residuals)


# ----------------------------------------------------------------------
# Communication invariant: k-RHS traffic = 1 x messages, k x words
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [2, 4, 8])
def test_batched_exchange_coalescing(mesh2_problem, method, k):
    """Identical columns take identical trajectories, so the batched solve
    must replay the single solve's message pattern exactly: equal message
    and reduction counts, word volume and flops scaled by exactly k."""
    ps = _prepared(mesh2_problem, method, "gls(7)", "virtual")
    try:
        single = ps.solve()
        b_block = np.repeat(mesh2_problem.load.reshape(-1, 1), k, axis=1)
        batch = ps.solve_batch(b_block)
    finally:
        ps.close()
    assert [r.iterations for r in batch.results] == (
        [single.result.iterations] * k
    )
    ss, sb = single.stats, batch.stats
    assert sb.total_nbr_messages == ss.total_nbr_messages
    assert sb.total_nbr_words == k * ss.total_nbr_words
    assert sb.total_flops == k * ss.total_flops
    assert sb.max_reductions == ss.max_reductions
