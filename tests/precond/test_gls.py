"""Generalized least-squares polynomial preconditioner (Section 2.1.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precond.base import PolynomialPreconditioner
from repro.precond.gls import GLSPolynomial, _discrete_measure, _stieltjes
from repro.precond.scaling import scale_system
from repro.spectrum.intervals import SpectrumIntervals


def test_stieltjes_orthonormality():
    """The recurrence generates polynomials orthonormal under the measure."""
    th = SpectrumIntervals.single(0.1, 1.0)
    nodes, weights = _discrete_measure(th, 64)
    m = 6
    alphas, betas = _stieltjes(nodes, weights, m)
    # Rebuild the polynomial table and check Gram matrix == identity.
    table = [np.ones_like(nodes) / betas[0]]
    for i in range(m):
        nxt = (nodes - alphas[i]) * table[-1]
        if i > 0:
            nxt = nxt - betas[i] * table[-2]
        table.append(nxt / betas[i + 1])
    gram = np.array(
        [[np.sum(weights * p * q) for q in table] for p in table]
    )
    assert np.allclose(gram, np.eye(m + 1), atol=1e-8)


def test_residual_decreases_with_degree():
    sups = [
        GLSPolynomial.unit_interval(m, eps=0.01).residual_sup_norm()
        for m in (1, 3, 7, 10, 20)
    ]
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_residual_small_on_theta_large_degree():
    g = GLSPolynomial(SpectrumIntervals.single(0.1, 2.5), 16)
    assert g.residual_sup_norm() < 0.05


def test_indefinite_union_fig2b():
    """Theta = (-4,-1) u (7,10): residual small on Theta, and P changes the
    sign structure so lambda*P(lambda) > 0 on both sides."""
    th = SpectrumIntervals([(-4, -1), (7, 10)])
    g = GLSPolynomial(th, 10)
    grid = th.sample(300)
    resid = g.residual(grid)
    assert np.max(np.abs(resid)) < 0.5
    assert np.all(grid * g.evaluate(grid) > 0.5)


def test_four_interval_union_fig2c():
    th = SpectrumIntervals([(-6.0, -4.1), (-3.9, -0.1), (0.1, 5.9), (6.1, 8.0)])
    g = GLSPolynomial(th, 14)
    # The window nearly touches 0 where the residual is pinned at 1, so the
    # sup norm stays near 1 — but the weighted-average residual must beat
    # the trivial P=0 polynomial decisively.
    assert g.residual_sup_norm() < 1.2
    grid = th.sample(200)
    assert np.mean(np.abs(g.residual(grid))) < 0.6


def test_apply_matches_eigendecomposition(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    a = ss.a.toarray()
    evals, evecs = np.linalg.eigh(a)
    g = GLSPolynomial(
        SpectrumIntervals.single(evals.min() * 0.9, evals.max() * 1.1),
        7,
        matvec=ss.a.matvec,
    )
    v = np.random.default_rng(3).standard_normal(len(ss.b))
    z = g.apply(v)
    z_ref = evecs @ (g.evaluate(evals) * (evecs.T @ v))
    assert np.allclose(z, z_ref, atol=1e-10)


def test_preconditioned_condition_number_improves(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    evals = np.linalg.eigvalsh(ss.a.toarray())
    g = GLSPolynomial(
        SpectrumIntervals.single(evals.min() * 0.9, evals.max() * 1.1), 7
    )
    pa = evals * g.evaluate(evals)
    assert (pa > 0).all()  # preconditioned operator stays definite
    assert pa.max() / pa.min() < 0.2 * (evals.max() / evals.min())


def test_matvec_count_is_degree():
    calls = []

    def mv(v):
        calls.append(1)
        return 0.5 * v

    g = GLSPolynomial.unit_interval(9, eps=0.01)
    g.apply_linear(mv, np.ones(4))
    assert len(calls) == 9


def test_power_coefficients_match_evaluate():
    g = GLSPolynomial.unit_interval(6, eps=0.05)
    coef = g.power_coefficients()
    lam = np.linspace(0.1, 0.9, 11)
    assert np.allclose(np.polynomial.Polynomial(coef)(lam), g.evaluate(lam))


def test_quadrature_count_validation():
    with pytest.raises(ValueError, match="n_quad"):
        GLSPolynomial(SpectrumIntervals.single(0.1, 1.0), 5, n_quad=4)


def test_name():
    assert GLSPolynomial.unit_interval(7).name == "GLS(7)"


def test_theta_sensitivity_fig10():
    """Fig. 10's point: a Theta matching the true spectrum beats the naive
    (0, 1) window at equal degree."""
    lam = np.linspace(0.02, 0.45, 60)  # "true" spectrum well inside (0,1)
    naive = GLSPolynomial.unit_interval(10, eps=1e-6)
    sharp = GLSPolynomial(SpectrumIntervals.single(0.015, 0.5), 10)
    r_naive = np.max(np.abs(naive.residual(lam)))
    r_sharp = np.max(np.abs(sharp.residual(lam)))
    assert r_sharp < r_naive


@settings(max_examples=20, deadline=None)
@given(
    lo=st.floats(0.01, 0.5),
    width=st.floats(0.2, 2.0),
    m=st.integers(1, 12),
)
def test_gls_optimality_property(lo, width, m):
    """Property: the GLS residual has smaller weighted L2 norm than simple
    competitor polynomials of the same degree (here: scaled Neumann)."""
    th = SpectrumIntervals.single(lo, lo + width)
    nodes, weights = _discrete_measure(th, 80)
    g = GLSPolynomial(th, m)
    r_gls = g.residual(nodes)
    norm_gls = np.sum(weights * r_gls**2)
    from repro.precond.neumann import NeumannPolynomial

    nm = NeumannPolynomial.for_interval(th, m)
    r_nm = nm.residual(nodes)
    norm_nm = np.sum(weights * r_nm**2)
    assert norm_gls <= norm_nm + 1e-12


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
