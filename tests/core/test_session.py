"""Prepared-system sessions: setup/solve split, caching, reuse.

``PreparedSystem`` freezes the setup pipeline's output; ``SolveSession``
caches prepared systems by (problem, n_parts, setup-relevant options).
The measurable contracts pinned here:

* a session solve is numerically identical to the one-shot driver
  (bitwise histories — same code path, same prepared state);
* a cache hit costs no setup: same ``PreparedSystem`` object, summary
  reports ``setup_time == 0.0``;
* solve-time knobs (tol, restart) vary against one prepared system,
  setup-relevant knobs are rejected without a rebuild;
* the serial verification operator is built once per prepared system.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem, SolveSession

N_PARTS = 4


def test_session_solve_matches_driver(mesh2_problem):
    options = SolverOptions(precond="gls(7)")
    reference = solve_cantilever(mesh2_problem, N_PARTS, options)
    with SolveSession() as session:
        summary = session.solve(mesh2_problem, N_PARTS, options)
    assert np.array_equal(
        np.asarray(summary.result.residual_history),
        np.asarray(reference.result.residual_history),
    )
    assert np.array_equal(summary.result.x, reference.result.x)
    assert summary.true_residual == pytest.approx(reference.true_residual)
    assert summary.stats.total_flops == reference.stats.total_flops


def test_driver_reports_setup_time(mesh2_problem):
    summary = solve_cantilever(mesh2_problem, N_PARTS)
    assert summary.setup_time > 0.0
    assert summary.to_dict()["setup_time"] == summary.setup_time


def test_cache_hit_reuses_prepared_system(mesh2_problem):
    options = SolverOptions()
    with SolveSession() as session:
        first = session.solve(mesh2_problem, N_PARTS, options)
        ps = session.prepared(mesh2_problem, N_PARTS, options)
        second = session.solve(mesh2_problem, N_PARTS, options)
        assert session.misses == 1
        assert session.hits == 2  # prepared() + second solve
        assert session.prepared(mesh2_problem, N_PARTS, options) is ps
        assert first.setup_time > 0.0
        assert second.setup_time == 0.0
        assert np.array_equal(first.result.x, second.result.x)
        assert first.stats.total_flops == second.stats.total_flops
        assert len(session) == 1


def test_cache_keys_on_setup_relevant_fields(mesh2_problem):
    with SolveSession() as session:
        session.solve(mesh2_problem, N_PARTS, SolverOptions())
        # tol/restart are solve-time knobs: same prepared system.
        session.solve(
            mesh2_problem, N_PARTS, SolverOptions(tol=1e-8, restart=10)
        )
        assert (session.misses, session.hits) == (1, 1)
        # method/precond are setup-relevant: new prepared systems.
        session.solve(mesh2_problem, N_PARTS, SolverOptions(method="rdd"))
        session.solve(
            mesh2_problem, N_PARTS, SolverOptions(precond="neumann(20)")
        )
        assert (session.misses, session.hits) == (3, 1)
        assert len(session) == 3
        session.solve(mesh2_problem, 2, SolverOptions())
        assert session.misses == 4  # n_parts is part of the key
    assert len(session) == 0  # close() emptied the cache


def test_mesh_id_problems_share_cache_entries():
    with SolveSession() as session:
        a = session.solve(1, 2)
        b = session.solve(1, 2)
    assert (session.misses, session.hits) == (1, 1)
    assert b.setup_time == 0.0
    assert np.array_equal(a.result.x, b.result.x)


def test_prepared_system_rejects_setup_field_change(mesh2_problem):
    with PreparedSystem.build(mesh2_problem, 2, SolverOptions()) as ps:
        ps.solve(SolverOptions(tol=1e-4))  # solve-time knob: fine
        with pytest.raises(ValueError, match="setup-relevant"):
            ps.solve(SolverOptions(precond="neumann(20)"))
        with pytest.raises(ValueError, match="setup-relevant"):
            ps.solve_batch(
                mesh2_problem.load.reshape(-1, 1),
                SolverOptions(method="rdd"),
            )


def test_verify_operator_cached(mesh2_problem):
    with PreparedSystem.build(mesh2_problem, 2, SolverOptions()) as ps:
        assert ps.verify_operator() is ps.verify_operator()
        assert ps.verify_operator() is mesh2_problem.stiffness


def test_verify_operator_dynamic_combines_mass(tiny_dynamic_problem):
    options = SolverOptions(dynamic=True)
    with PreparedSystem.build(tiny_dynamic_problem, 2, options) as ps:
        a = ps.verify_operator()
        assert a is ps.verify_operator()
        assert a is not tiny_dynamic_problem.stiffness
        summary = ps.solve()
    assert summary.result.converged


def test_session_batch_solve_and_reuse(mesh2_problem):
    b_block = np.column_stack(
        [mesh2_problem.load, 2.0 * mesh2_problem.load]
    )
    with SolveSession() as session:
        first = session.solve_batch(mesh2_problem, b_block, N_PARTS)
        second = session.solve_batch(mesh2_problem, b_block, N_PARTS)
    assert first.n_rhs == 2
    assert first.all_converged
    assert first.setup_time > 0.0
    assert second.setup_time == 0.0
    assert (session.misses, session.hits) == (1, 1)
    for rb, rs in zip(first.results, second.results):
        assert np.array_equal(rb.x, rs.x)


def test_batch_summary_to_dict(mesh2_problem):
    with PreparedSystem.build(mesh2_problem, 2, SolverOptions()) as ps:
        summary = ps.solve_batch(mesh2_problem.load.reshape(-1, 1))
    payload = summary.to_dict()
    assert payload["n_rhs"] == 1
    # A one-column payload carries the single-solve keys too.
    assert set(payload) == {
        "schema_version", "method", "precond", "n_parts", "n_rhs",
        "comm_backend", "wall_time", "setup_time", "true_residuals",
        "results", "stats", "options", "result", "true_residual",
    }
    assert payload["schema_version"] == 1
    assert payload["results"][0]["converged"] is True
    assert payload["true_residuals"][0] <= 1e-4


def test_summaries_survive_later_solves(mesh2_problem):
    """Counters on a returned summary are a snapshot, not a live view of
    the (reused, reset) communicator."""
    with SolveSession() as session:
        first = session.solve(mesh2_problem, N_PARTS)
        flops = first.stats.total_flops
        session.solve(mesh2_problem, N_PARTS, SolverOptions(tol=1e-2))
        assert first.stats.total_flops == flops


def test_prepared_system_close_idempotent(mesh2_problem):
    ps = PreparedSystem.build(mesh2_problem, 2, SolverOptions())
    ps.solve()
    ps.close()
    ps.close()


# ----------------------------------------------------------------------
# Bounded cache: LRU eviction by entry count and by resident bytes
# ----------------------------------------------------------------------
OPTS_A = SolverOptions()
OPTS_B = SolverOptions(precond="neumann(20)")
OPTS_C = SolverOptions(precond="gls(3)")


def test_cache_bounds_validated():
    with pytest.raises(ValueError):
        SolveSession(max_entries=0)
    with pytest.raises(ValueError):
        SolveSession(max_bytes=0)
    with pytest.raises(ValueError):
        SolveSession(max_entries=-1)


def test_lru_evicts_least_recently_used(tiny_problem):
    with SolveSession(max_entries=2) as session:
        a = session.prepared(tiny_problem, 2, OPTS_A)
        b = session.prepared(tiny_problem, 2, OPTS_B)
        # Touch A so B becomes the least recently used entry.
        assert session.prepared(tiny_problem, 2, OPTS_A) is a
        c = session.prepared(tiny_problem, 2, OPTS_C)
        assert len(session) == 2
        assert session.evictions == 1
        # A survived (recently used), C is resident, B was evicted ...
        assert session.prepared(tiny_problem, 2, OPTS_A) is a
        assert session.prepared(tiny_problem, 2, OPTS_C) is c
        assert session.misses == 3
        # ... so asking for B again is a rebuild, evicting A (now LRU).
        b2 = session.prepared(tiny_problem, 2, OPTS_B)
        assert b2 is not b
        assert session.misses == 4
        assert session.evictions == 2


def test_evicted_entry_rebuilds_bitwise_identical(tiny_problem):
    with SolveSession(max_entries=1) as session:
        first = session.solve(tiny_problem, 2, OPTS_A)
        session.solve(tiny_problem, 2, OPTS_B)  # evicts the OPTS_A entry
        assert session.evictions == 1
        again = session.solve(tiny_problem, 2, OPTS_A)  # rebuilt, not hit
        assert session.misses == 3
    assert again.setup_time > 0.0
    assert np.array_equal(first.result.x, again.result.x)
    assert first.result.residual_history == again.result.residual_history


def test_byte_bound_evicts_and_tracks_resident_bytes(tiny_problem):
    with SolveSession() as probe:
        nbytes = probe.prepared(tiny_problem, 2, OPTS_A).nbytes
    assert nbytes > 0
    # Room for one entry but not two: each insert evicts the previous.
    with SolveSession(max_bytes=int(nbytes * 1.5)) as session:
        session.prepared(tiny_problem, 2, OPTS_A)
        assert session.cache_bytes > 0
        session.prepared(tiny_problem, 2, OPTS_B)
        assert session.evictions == 1
        assert len(session) == 1
        assert session.cache_bytes <= int(nbytes * 1.5)


def test_sole_entry_never_evicted(tiny_problem):
    """An over-budget lone entry stays resident: the bound sheds history,
    it never denies the solve in progress."""
    with SolveSession(max_bytes=1) as session:
        summary = session.solve(tiny_problem, 2, OPTS_A)
        assert summary.result.converged
        assert len(session) == 1
        assert session.evictions == 0
        session.solve(tiny_problem, 2, OPTS_B)
        assert len(session) == 1
        assert session.evictions == 1


def test_cache_stats_snapshot(tiny_problem):
    with SolveSession(max_entries=4, max_bytes=10**9) as session:
        session.solve(tiny_problem, 2, OPTS_A)
        session.solve(tiny_problem, 2, OPTS_A)
        stats = session.cache_stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["max_entries"] == 4
    assert stats["max_bytes"] == 10**9
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["evictions"] == 0
