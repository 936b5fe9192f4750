"""Preconditioners (Section 2).

The paper's pipeline is: norm-1 diagonal scaling (maps the spectrum into
``(0, 1)``), then a *polynomial* preconditioner — Neumann series or
generalized least-squares (GLS) — applied as a chain of matvecs.  ILU(0),
Jacobi and Chebyshev preconditioners are provided as the comparison
baselines the paper measures against.

Polynomial preconditioners expose two application paths: ``apply(v)`` bound
to a CSR matrix for sequential solves, and ``apply_linear(matvec, v)``
parameterized over an abstract matvec so the distributed EDD/RDD solvers
can run the identical recurrence with communicating operators.

:mod:`repro.precond.coarse` adds a two-level composite — any of the above
as the fine-level preconditioner plus an algebraic partition-of-unity
coarse correction — selected with the ``"2l(inner[,mode][,tr])"`` spec
(see :data:`repro.precond.spec.SPEC_GRAMMAR`).
"""

from repro.precond.base import (
    Preconditioner,
    IdentityPreconditioner,
    SingularPreconditionerError,
)
from repro.precond.diagonal import JacobiPreconditioner
from repro.precond.scaling import ScaledSystem, norm1_scaling, scale_system
from repro.precond.neumann import NeumannPolynomial
from repro.precond.gls import GLSPolynomial
from repro.precond.block_jacobi import BlockJacobiILU
from repro.precond.degree_selection import (
    DegreeEstimate,
    choose_degree,
    choose_degree_for_system,
)
from repro.precond.chebyshev import ChebyshevPolynomial
from repro.precond.ilu import ILU0Preconditioner
from repro.precond.ssor import SSORPreconditioner
from repro.precond.stability import (
    coefficient_error_bound,
    stability_curve,
)
from repro.precond.spec import SPEC_GRAMMAR, make_preconditioner, spec_of
from repro.precond.coarse import TwoLevelPreconditioner, TwoLevelSpec

__all__ = [
    "make_preconditioner",
    "spec_of",
    "SPEC_GRAMMAR",
    "TwoLevelPreconditioner",
    "TwoLevelSpec",
    "Preconditioner",
    "IdentityPreconditioner",
    "SingularPreconditionerError",
    "JacobiPreconditioner",
    "ScaledSystem",
    "norm1_scaling",
    "scale_system",
    "NeumannPolynomial",
    "GLSPolynomial",
    "BlockJacobiILU",
    "DegreeEstimate",
    "choose_degree",
    "choose_degree_for_system",
    "ChebyshevPolynomial",
    "ILU0Preconditioner",
    "SSORPreconditioner",
    "coefficient_error_bound",
    "stability_curve",
]
