#!/usr/bin/env python
"""Profile a representative solve and print the hot spots.

Per the optimization workflow (measure before optimizing), this script
cProfiles one EDD-FGMRES-GLS(7) solve on a chosen mesh and prints the top
functions by cumulative time — the starting point for any performance
work on the package.

    python tools/profile_solve.py [mesh_id] [n_parts]
"""

from __future__ import annotations

import cProfile
import pstats
import sys


def main() -> None:
    mesh_id = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    n_parts = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    from repro.core.driver import solve_cantilever
    from repro.core.options import SolverOptions
    from repro.fem.cantilever import cantilever_problem

    problem = cantilever_problem(mesh_id)
    print(
        f"profiling: Mesh{mesh_id} ({problem.n_eqn} eqns), "
        f"EDD-FGMRES-GLS(7), P={n_parts}\n"
    )

    profiler = cProfile.Profile()
    profiler.enable()
    summary = solve_cantilever(
        problem, n_parts=n_parts, options=SolverOptions(precond="gls(7)")
    )
    profiler.disable()

    assert summary.result.converged
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(18)
    print(
        "expected hot spots: CSRMatrix.matvec (the polynomial chain), "
        "interface_assemble, DistVector arithmetic"
    )


if __name__ == "__main__":
    main()
