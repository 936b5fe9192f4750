"""Trace correctness on real solves.

Pins the contracts the observability layer is allowed to be trusted for:

* structural invariants — every span closed, parent links valid, solver
  spans nested under their cycle/step;
* paper claim 3, machine-checked — enhanced EDD does exactly 1 interface
  exchange per Arnoldi step, basic EDD exactly 3 (preconditioner
  exchanges excluded), straight from recorded traces;
* accounting consistency — exchange-span message/word counts equal the
  independently recorded CommStats deltas;
* zero perturbation — solver outputs are bitwise identical traced vs
  untraced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem
from repro.obs import (
    EXPECTED_EXCHANGES,
    Tracer,
    exchanges_per_step,
    verify_exchange_invariant,
)

MESH = 2
PARTS = 4


def _solve(method, tracer=None, comm_backend=None, precond="gls(7)"):
    opts = SolverOptions(
        method=method, precond=precond, comm_backend=comm_backend
    )
    ps = PreparedSystem.build(MESH, PARTS, opts)
    try:
        return ps.solve(tracer=tracer)
    finally:
        ps.close()


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def test_all_spans_closed_and_parents_valid():
    trc = Tracer()
    _solve("edd-enhanced", tracer=trc)
    assert trc._stack == [], "unclosed spans after a solve"
    for i, span in enumerate(trc.spans):
        assert span["dur"] >= 0.0
        p = span["parent"]
        assert p == -1 or (0 <= p < i), f"span {i} has invalid parent {p}"
        if p >= 0:
            assert trc.spans[p]["depth"] == span["depth"] - 1


def test_solver_span_hierarchy():
    trc = Tracer()
    _solve("edd-enhanced", tracer=trc)
    spans = trc.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    assert by_name["cycle"], "no restart cycles recorded"
    for step in by_name["arnoldi_step"]:
        assert spans[step["parent"]]["name"] == "cycle"
    for name in ("matvec", "precond_apply", "orthogonalize", "givens_update"):
        assert by_name[name], f"no {name} spans"
        for s in by_name[name]:
            assert spans[s["parent"]]["name"] == "arnoldi_step"
    # one matvec / precond / givens per step
    n_steps = len(by_name["arnoldi_step"])
    assert len(by_name["matvec"]) == n_steps
    assert len(by_name["precond_apply"]) == n_steps
    assert len(by_name["givens_update"]) == n_steps


def test_metrics_stream_matches_history():
    trc = Tracer()
    summary = _solve("edd-enhanced", tracer=trc)
    res = summary.result
    per_iter = [m for m in trc.metrics if "rel_res" in m]
    assert len(per_iter) == res.iterations
    assert [m["iteration"] for m in per_iter] == list(
        range(1, res.iterations + 1)
    )
    # metrics echo the recurrence residual history exactly
    np.testing.assert_array_equal(
        [m["rel_res"] for m in per_iter], res.residual_history[1:]
    )
    boundaries = [m for m in trc.metrics if "true_rel" in m]
    assert len(boundaries) == res.restarts


# ----------------------------------------------------------------------
# Claim 3: exchanges per Arnoldi step
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method,variant", [("edd-enhanced", "enhanced"), ("edd-basic", "basic")]
)
def test_claim3_exchange_invariant(method, variant):
    trc = Tracer()
    _solve(method, tracer=trc)
    report = verify_exchange_invariant(trc.to_dict(), variant)
    assert report["expected"] == EXPECTED_EXCHANGES[variant]
    assert set(report["per_step"].values()) == {EXPECTED_EXCHANGES[variant]}


def test_claim3_holds_without_preconditioner_too():
    # The invariant excludes precond_apply exchanges; with no
    # preconditioner at all the counts must be unchanged.
    trc = Tracer()
    _solve("edd-enhanced", tracer=trc, precond=None)
    verify_exchange_invariant(trc.to_dict(), "enhanced")


def test_claim3_checker_rejects_solverless_trace():
    with pytest.raises(ValueError):
        verify_exchange_invariant(Tracer().to_dict(), "enhanced")


def test_exchanges_per_step_counts_directly():
    trc = Tracer()
    _solve("edd-basic", tracer=trc)
    counts = exchanges_per_step(trc.to_dict())
    assert counts and all(c == 3 for c in counts.values())


# ----------------------------------------------------------------------
# CommStats-delta consistency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["edd-enhanced", "edd-basic", "rdd"])
def test_exchange_span_words_match_stats(method):
    trc = Tracer()
    summary = _solve(method, tracer=trc)
    spans = trc.spans
    words = sum(
        s["args"]["words"] for s in spans if s["cat"] == "exchange"
    )
    messages = sum(
        s["args"]["messages"] for s in spans if s["cat"] == "exchange"
    )
    assert words == summary.stats.total_nbr_words
    assert messages == summary.stats.total_nbr_messages
    if method == "rdd":
        assert any(s["name"] == "halo_exchange" for s in spans)
    else:
        assert any(s["name"] == "interface_assemble" for s in spans)


def test_metric_word_deltas_sum_to_stats():
    trc = Tracer()
    summary = _solve("edd-enhanced", tracer=trc)
    per_iter = [m for m in trc.metrics if "nbr_words" in m]
    assert per_iter, "no per-iteration comm deltas recorded"
    # Per-iteration deltas cover the exchanges inside the Arnoldi loop;
    # they can never exceed the solve totals and must land close (the
    # remainder is the initial-residual assembly outside the loop).
    assert 0 < sum(m["nbr_words"] for m in per_iter) <= (
        summary.stats.total_nbr_words
    )


# ----------------------------------------------------------------------
# Zero perturbation: traced vs untraced bitwise parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["virtual"])
@pytest.mark.parametrize("method", ["edd-enhanced", "rdd"])
def test_bitwise_parity_traced_vs_untraced(method, backend):
    plain = _solve(method, comm_backend=backend)
    traced = _solve(method, tracer=Tracer(), comm_backend=backend)
    np.testing.assert_array_equal(plain.result.x, traced.result.x)
    assert plain.result.iterations == traced.result.iterations
    np.testing.assert_array_equal(
        plain.result.residual_history, traced.result.residual_history
    )
    assert plain.stats.total_nbr_words == traced.stats.total_nbr_words


def test_rank_bodies_record_rank_seconds():
    trc = Tracer()
    _solve("edd-enhanced", tracer=trc)
    assert len(trc.rank_seconds) == PARTS
    assert all(t > 0.0 for t in trc.rank_seconds)


# ----------------------------------------------------------------------
# Batch + session surfaces
# ----------------------------------------------------------------------
def test_batch_trace_attached_and_consistent():
    from repro.fem.cantilever import cantilever_problem

    prob = cantilever_problem(MESH)
    b = prob.load[:, None] * np.array([1.0, 1.1])
    trc = Tracer()
    options = SolverOptions(precond="gls(7)")
    with PreparedSystem.build(prob, PARTS, options, tracer=trc) as ps:
        summary = ps.solve_batch(b, tracer=trc)
    assert summary.all_converged
    assert summary.trace is not None
    assert summary.trace["meta"]["n_rhs"] == 2
    names = {s["name"] for s in summary.trace["spans"]}
    assert {"setup", "solve", "verify", "arnoldi_step"} <= names
    assert trc._stack == []
    # block path batches columns: span words match stats here too
    words = sum(
        s["args"]["words"] for s in summary.trace["spans"]
        if s["cat"] == "exchange"
    )
    assert words == summary.stats.total_nbr_words


@pytest.mark.parametrize("method", ["edd-enhanced", "rdd"])
def test_batch_metric_stream_matches_single(method):
    """One FGMRES driver, one metric stream: a traced ``solve_batch``
    emits per-iteration records like ``solve`` does — for k = 1 the
    very same records, for k > 1 one per live column (tagged ``column``)
    with the per-step comm deltas riding on one record per step."""
    from repro.fem.cantilever import cantilever_problem

    load = cantilever_problem(MESH).load
    # restart=5 forces several cycles, so boundary records are compared too
    opts = SolverOptions(method=method, precond="gls(7)", restart=5)
    ps = PreparedSystem.build(MESH, PARTS, opts)
    try:
        single, one, two = Tracer(), Tracer(), Tracer()
        ps.solve(tracer=single)
        ps.solve_batch(load[:, None], tracer=one)
        batch = ps.solve_batch(load[:, None] * np.array([1.0, -2.5]), tracer=two)
    finally:
        ps.close()
    assert single.metrics, "single solve emitted no metrics"
    assert one.metrics == single.metrics

    n_steps = sum(s["name"] == "arnoldi_step" for s in two.spans)
    assert sum("nbr_words" in m for m in two.metrics) == n_steps
    for c, res in enumerate(batch.results):
        mine = [m for m in two.metrics if m["column"] == c]
        per_iter = [m for m in mine if "rel_res" in m]
        assert [m["iteration"] for m in per_iter] == list(
            range(1, res.iterations + 1)
        )
        np.testing.assert_array_equal(
            [m["rel_res"] for m in per_iter], res.residual_history[1:]
        )
        boundaries = [m for m in mine if "true_rel" in m]
        assert [m["cycle"] for m in boundaries] == list(
            range(1, res.restarts + 1)
        )
    deltas = [m for m in two.metrics if "nbr_words" in m]
    assert 0 < sum(m["nbr_words"] for m in deltas) <= (
        batch.stats.total_nbr_words
    )


def test_untraced_solve_result_has_no_trace():
    summary = _solve("edd-enhanced")
    assert summary.result.trace is None
    assert "trace" not in summary.to_dict()["result"]
