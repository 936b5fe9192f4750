#!/usr/bin/env python
"""GLS polynomial preconditioning on a symmetric *indefinite* system.

The paper motivates the generalized least-squares construction by its
ability to take Theta as a union of intervals straddling zero (Eq. 18) —
something Neumann and Chebyshev preconditioners cannot do.  This example
builds a shifted stiffness matrix K - sigma*M (indefinite for sigma inside
the spectrum, the kernel of eigenvalue and Helmholtz-like problems),
estimates its two-sided spectrum, and compares GLS-preconditioned FGMRES
against the unpreconditioned solver.

Run:  python examples/indefinite_spectrum.py
"""

import numpy as np

from repro.dynamics.newmark import effective_matrix
from repro.fem.cantilever import cantilever_problem
from repro.precond.gls import GLSPolynomial
from repro.precond.scaling import scale_system
from repro.reporting.tables import format_table
from repro.solvers.fgmres import fgmres
from repro.spectrum.intervals import SpectrumIntervals
from repro.spectrum.lanczos import lanczos_extreme_eigenvalues


def main() -> None:
    problem = cantilever_problem(nx=12, ny=4, with_mass=True)
    # Shift into indefiniteness: K - sigma*M with sigma between two
    # generalized eigenvalues of (K, M).
    import scipy.linalg

    evals_low = scipy.linalg.eigh(
        problem.stiffness.toarray(),
        problem.mass.toarray(),
        eigvals_only=True,
        subset_by_index=(0, 5),
    )
    sigma = 0.5 * (evals_low[2] + evals_low[3])
    shifted = effective_matrix(problem.stiffness, problem.mass, alpha=-sigma)
    ss = scale_system(shifted, problem.load)
    print(
        f"shifted system K - {sigma:.3f} M: {ss.a.shape[0]} equations "
        "(symmetric indefinite)"
    )

    # Two-sided spectrum estimate via Lanczos.
    lo, hi = lanczos_extreme_eigenvalues(ss.a.matvec, ss.a.shape[0], n_steps=60)
    print(f"Lanczos spectrum estimate: [{lo:.4f}, {hi:.4f}]")
    gap = 0.01 * (hi - lo)
    theta = SpectrumIntervals([(lo - gap, -gap), (gap, hi + gap)])
    print(f"Theta = ({lo - gap:.4f}, {-gap:.4f}) u ({gap:.4f}, {hi + gap:.4f})")

    mv = ss.a.matvec
    rows = []
    for name, pre in {
        "none": None,
        "GLS(8) on union": (
            lambda g: (lambda v: g.apply_linear(mv, v))
        )(GLSPolynomial(theta, 8)),
        "GLS(16) on union": (
            lambda g: (lambda v: g.apply_linear(mv, v))
        )(GLSPolynomial(theta, 16)),
    }.items():
        res = fgmres(mv, ss.b, pre, restart=40, tol=1e-8, max_iter=5000)
        rows.append([name, res.iterations, "yes" if res.converged else "NO"])
    print()
    print(
        format_table(
            ["preconditioner", "iterations", "converged"],
            rows,
            title="FGMRES on the indefinite shifted system",
        )
    )


if __name__ == "__main__":
    main()
