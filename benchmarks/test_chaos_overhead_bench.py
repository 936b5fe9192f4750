"""Chaos-proxy passthrough overhead benchmark.

The ``chaos`` backend is meant to be left on in stress rigs, so its
no-fault cost matters: with an empty :class:`FaultPlan` every collective
does one extra rule scan and otherwise delegates to the shared base-class
implementation.  This harness measures full solves on Mesh2 through the
virtual backend and through an idle chaos communicator, asserts the
results stay bit-identical, and bounds the wall-clock overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.fem.cantilever import cantilever_problem
from repro.parallel.chaos import FaultPlan, use_fault_plan

pytestmark = pytest.mark.bench

REPEATS = 3


def _best_wall(problem, comm_backend: str) -> tuple:
    opts = SolverOptions(precond="gls(7)", comm_backend=comm_backend)
    best, summary = float("inf"), None
    for _ in range(REPEATS):
        summary = solve_cantilever(problem, n_parts=4, options=opts)
        best = min(best, summary.wall_time)
    return best, summary


def test_bench_idle_chaos_overhead(benchmark):
    problem = cantilever_problem(2)

    def run():
        base, ref = _best_wall(problem, "virtual")
        with use_fault_plan(FaultPlan.empty()):
            chaos, got = _best_wall(problem, "chaos")
        return base, ref, chaos, got

    base, ref, chaos, got = benchmark.pedantic(run, rounds=1, iterations=1)

    # Bit-identical numerics through the idle proxy.
    assert got.result.iterations == ref.result.iterations
    assert np.array_equal(got.result.x, ref.result.x)

    overhead = chaos / base
    print(
        f"\nidle-chaos overhead: virtual {base * 1e3:.2f} ms, "
        f"chaos(empty plan) {chaos * 1e3:.2f} ms  ->  {overhead:.2f}x"
    )
    # Generous bound: the proxy adds a per-collective rule scan, nothing
    # O(n); anything past 2x means a passthrough regression (timer noise
    # on loaded CI machines is why this is not tighter).
    assert overhead < 2.0
