"""Classical least-squares (Jacobi-weight) polynomial preconditioner."""

import numpy as np
import pytest

from repro.precond.base import PolynomialPreconditioner
from repro.precond.gls import GLSPolynomial
from repro.precond.least_squares import LeastSquaresPolynomial
from repro.precond.scaling import scale_system
from repro.solvers.fgmres import fgmres
from repro.spectrum.intervals import SpectrumIntervals

THETA = SpectrumIntervals.single(1e-4, 1.0)


def test_residual_shrinks_with_degree():
    grid = THETA.sample(300)
    sups = []
    for m in (2, 5, 9, 14):
        p = LeastSquaresPolynomial(THETA, m)
        sups.append(np.max(np.abs(p.residual(grid))))
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_union_rejected():
    with pytest.raises(ValueError, match="single interval"):
        LeastSquaresPolynomial(SpectrumIntervals([(-2, -1), (1, 2)]), 4)


def test_invalid_jacobi_exponents():
    with pytest.raises(ValueError):
        LeastSquaresPolynomial(THETA, 3, alpha=-1.5)


def test_matvec_count():
    calls = []
    p = LeastSquaresPolynomial(THETA, 6)
    p.apply_linear(lambda v: (calls.append(1), 0.5 * v)[1], np.ones(3))
    assert len(calls) == 6


def test_power_coefficients_match_evaluate():
    p = LeastSquaresPolynomial(THETA, 5)
    lam = np.linspace(0.05, 0.9, 9)
    assert np.allclose(
        np.polynomial.Polynomial(p.power_coefficients())(lam), p.evaluate(lam)
    )


def test_accelerates_fgmres(mesh2_problem):
    ss = scale_system(mesh2_problem.stiffness, mesh2_problem.load)
    mv = ss.a.matvec
    plain = fgmres(mv, ss.b, tol=1e-6)
    p = LeastSquaresPolynomial(THETA, 7)
    pre = fgmres(mv, ss.b, lambda v: p.apply_linear(mv, v), tol=1e-6)
    assert pre.converged
    assert pre.iterations < plain.iterations / 3


def test_comparable_to_gls_on_single_interval(mesh2_problem):
    """On its home turf (one interval) LS is in GLS's ballpark; GLS's
    advantage is generality, not single-interval supremacy."""
    ss = scale_system(mesh2_problem.stiffness, mesh2_problem.load)
    mv = ss.a.matvec
    m = 7
    ls = LeastSquaresPolynomial(THETA, m)
    gls = GLSPolynomial(THETA, m)
    it_ls = fgmres(mv, ss.b, lambda v: ls.apply_linear(mv, v), tol=1e-6).iterations
    it_gls = fgmres(
        mv, ss.b, lambda v: gls.apply_linear(mv, v), tol=1e-6
    ).iterations
    assert abs(it_ls - it_gls) <= max(3, 0.5 * it_gls)


def test_jacobi_weight_emphasizes_small_lambda():
    """beta = -1/2 pushes weight toward lambda -> 0, so the LS residual is
    smaller near zero than an unweighted (Chebyshev-per-interval GLS)
    residual of equal degree."""
    m = 8
    ls = LeastSquaresPolynomial(THETA, m)
    gls = GLSPolynomial(THETA, m)
    lam_small = np.linspace(2e-4, 2e-2, 50)
    r_ls = np.abs(ls.residual(lam_small)).mean()
    r_gls = np.abs(gls.residual(lam_small)).mean()
    assert r_ls <= r_gls * 1.05


def test_name():
    assert LeastSquaresPolynomial(THETA, 7).name == "LS(7)"


def test_polynomial_family_without_a_program_cannot_be_built():
    """``chain_terms`` is abstract: a family that names no recurrence
    fails at construction, before any solve could charge anything."""

    class NoProgram(PolynomialPreconditioner):
        def apply_linear(self, matvec, v, out=None):
            return v

        def power_coefficients(self):
            return np.ones(1)

    with pytest.raises(TypeError, match="chain_terms"):
        NoProgram(1)
