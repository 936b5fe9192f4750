#!/usr/bin/env python
"""Quickstart: solve the paper's cantilever with EDD-FGMRES + GLS(7).

Builds Table 2's Mesh4 (50x50 Q4 elements, 5100 equations), partitions it
into 8 element-based subdomains, applies the distributed norm-1 diagonal
scaling, and solves with the enhanced EDD flexible GMRES under a GLS(7)
polynomial preconditioner — the paper's recommended configuration.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SolverOptions, solve_cantilever
from repro.fem.cantilever import cantilever_problem
from repro.parallel.machine import IBM_SP2, SGI_ORIGIN


def main() -> None:
    problem = cantilever_problem(4)  # Table 2, Mesh4
    print(
        f"Mesh4: {problem.mesh.n_elements} Q4 elements, "
        f"{problem.mesh.n_nodes} nodes, {problem.n_eqn} equations"
    )

    # comm_backend="process" runs the rank ops of large systems resident
    # in a pool of worker processes — bit-identical to the default serial
    # "virtual" backend.
    options = SolverOptions(precond="gls(7)")
    summary = solve_cantilever(problem, n_parts=8, options=options)
    res = summary.result
    print(f"\nEDD-FGMRES-GLS(7) on P=8 subdomains: {res}")

    # Verify against the assembled system.
    r = problem.load - problem.stiffness.matvec(res.x)
    rel = np.linalg.norm(r) / np.linalg.norm(problem.load)
    print(f"true relative residual: {rel:.2e}")

    # What the run cost, per the recorded counters.
    st = summary.stats
    print(
        f"\nper-run totals: {st.total_flops:,} flops, "
        f"{st.total_nbr_messages} neighbour messages "
        f"({st.total_nbr_words:,} words), "
        f"{st.max_reductions} allreduces"
    )
    for machine in (SGI_ORIGIN, IBM_SP2):
        print(
            f"modeled wall-clock on {machine.name}: "
            f"{summary.modeled_time(machine):.4f} s"
        )

    tip = res.x[-2]  # x-displacement of the last free DOF (top-right node)
    print(f"\ntip axial displacement: {tip:.6e}")


if __name__ == "__main__":
    main()
