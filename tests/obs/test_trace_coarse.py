"""Tracing the two-level coarse correction.

Pins the observability contract of ``coarse_solve`` spans:

* every coarse correction is one ``coarse_solve`` span nested inside the
  ``precond_apply`` span of its Arnoldi step;
* the coarse allreduce children reconcile *exactly* with the CommStats
  reduction-word charges — both against the span's own ``n_coarse``/``k``
  arguments and against the per-rank counter deltas vs a one-level run;
* paper claim 3 (exchanges per step) is untouched — the correction adds
  reductions and (in deflate mode) a preconditioner-internal exchange,
  both of which the invariant excludes;
* tracing remains zero-perturbation for two-level solves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem
from repro.obs import Tracer, verify_exchange_invariant

MESH = 2
PARTS = 4


def _solve(precond, method="edd-enhanced", tracer=None, comm_backend=None):
    opts = SolverOptions(
        method=method, precond=precond, comm_backend=comm_backend
    )
    ps = PreparedSystem.build(MESH, PARTS, opts)
    try:
        return ps.solve(tracer=tracer)
    finally:
        ps.close()


def _spans(trc, name=None, cat=None):
    return [
        s
        for s in trc.spans
        if (name is None or s["name"] == name)
        and (cat is None or s["cat"] == cat)
    ]


@pytest.mark.parametrize(
    "precond", ["2l(gls(3),deflate)", "2l(gls(3))"]
)
def test_coarse_solve_span_per_precond_apply(precond):
    trc = Tracer()
    _solve(precond, tracer=trc)
    coarse = _spans(trc, "coarse_solve")
    applies = _spans(trc, "precond_apply")
    assert coarse, "no coarse_solve spans recorded"
    assert len(coarse) == len(applies)
    for s in coarse:
        assert s["cat"] == "solver"
        assert trc.spans[s["parent"]]["name"] == "precond_apply"


def test_coarse_allreduce_words_reconcile_with_stats():
    trc = Tracer()
    summary = _solve("2l(gls(3),deflate)", tracer=trc)
    spans = trc.spans
    coarse_idx = {
        i for i, s in enumerate(spans) if s["name"] == "coarse_solve"
    }
    kids = [
        s for s in spans
        if s["parent"] in coarse_idx and s["cat"] == "reduction"
    ]
    # exactly ONE allreduce per correction, of n_coarse * k words
    assert len(kids) == len(coarse_idx) > 0
    for i in sorted(coarse_idx):
        mine = [k for k in kids if k["parent"] == i]
        assert len(mine) == 1
        assert mine[0]["args"]["words"] == (
            spans[i]["args"]["n_coarse"] * spans[i]["args"]["k"]
        )
    # all reduction spans together reconcile exactly with the per-rank
    # CommStats charge (reductions are charged uniformly to every rank)
    span_words = sum(
        s["args"]["words"] for s in spans if s["cat"] == "reduction"
    )
    for rank in summary.stats.to_dict()["per_rank"]:
        assert rank["reduction_words"] == span_words


def test_claim3_exchange_invariant_with_two_level():
    trc = Tracer()
    _solve("2l(gls(3),deflate)", tracer=trc)
    verify_exchange_invariant(trc.to_dict(), "enhanced")


@pytest.mark.parametrize("backend", ["virtual"])
@pytest.mark.parametrize("method", ["edd-enhanced", "rdd"])
def test_two_level_bitwise_parity_traced_vs_untraced(method, backend):
    plain = _solve("2l(gls(3),deflate)", method=method, comm_backend=backend)
    traced = _solve(
        "2l(gls(3),deflate)", method=method, tracer=Tracer(),
        comm_backend=backend,
    )
    np.testing.assert_array_equal(plain.result.x, traced.result.x)
    assert plain.result.iterations == traced.result.iterations
    assert plain.stats.to_dict() == traced.stats.to_dict()


def test_block_coarse_allreduce_coalesced():
    """The block path does ONE coarse allreduce of ``n_coarse * k`` words
    per correction, not k of them."""
    from repro.core.session import PreparedSystem
    from repro.fem.cantilever import cantilever_problem

    prob = cantilever_problem(MESH)
    b = prob.load[:, None] * np.array([1.0, 1.1, 1.2])
    trc = Tracer()
    options = SolverOptions(precond="2l(gls(3),deflate)")
    with PreparedSystem.build(prob, PARTS, options, tracer=trc) as ps:
        summary = ps.solve_batch(b, tracer=trc)
    assert summary.all_converged
    spans = summary.trace["spans"]
    coarse = [
        (i, s) for i, s in enumerate(spans) if s["name"] == "coarse_solve"
    ]
    assert coarse
    for i, s in coarse:
        assert s["args"]["k"] == 3
        kids = [
            q for q in spans
            if q["parent"] == i and q["cat"] == "reduction"
        ]
        assert len(kids) == 1
        assert kids[0]["args"]["words"] == s["args"]["n_coarse"] * 3
