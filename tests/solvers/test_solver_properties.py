"""Cross-solver property tests on random SPD systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precond.gls import GLSPolynomial
from repro.solvers.cg import cg
from repro.solvers.fgmres import fgmres
from repro.solvers.gmres import gmres
from repro.sparse.csr import CSRMatrix
from repro.spectrum.intervals import SpectrumIntervals


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    dense = m @ m.T + n * np.eye(n)
    return CSRMatrix.from_dense(dense, tol=-1.0), dense, rng.standard_normal(n)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 14), seed=st.integers(0, 3000))
def test_all_solvers_agree(n, seed):
    """Property: FGMRES, GMRES and CG find the same solution of the same SPD
    system."""
    a, dense, b = _spd(n, seed)
    x_ref = np.linalg.solve(dense, b)
    scale = np.linalg.norm(x_ref)
    for solver in (fgmres, gmres, cg):
        res = solver(a.matvec, b, tol=1e-11, max_iter=20 * n)
        assert res.converged, solver.__name__
        assert np.linalg.norm(res.x - x_ref) < 1e-6 * scale, solver.__name__


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 14), seed=st.integers(0, 3000))
def test_gmres_history_monotone_within_cycle(n, seed):
    """Property: the GMRES least-squares residual never increases inside a
    restart cycle."""
    a, _, b = _spd(n, seed)
    res = fgmres(a.matvec, b, restart=n + 1, tol=1e-12, max_iter=n + 1)
    hist = np.asarray(res.residual_history)
    assert np.all(np.diff(hist) <= 1e-12)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 3000), m=st.integers(1, 6))
def test_polynomial_preconditioning_never_breaks_correctness(n, seed, m):
    """Property: a GLS window bracketing the true spectrum gives a solver
    that still converges to the right answer, for any degree."""
    a, dense, b = _spd(n, seed)
    evals = np.linalg.eigvalsh(dense)
    theta = SpectrumIntervals.single(evals.min() * 0.9, evals.max() * 1.1)
    g = GLSPolynomial(theta, m)
    res = fgmres(
        a.matvec,
        b,
        lambda v: g.apply_linear(a.matvec, v),
        tol=1e-10,
        max_iter=30 * n,
    )
    assert res.converged
    x_ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(res.x - x_ref) < 1e-5 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("solver", [fgmres, gmres, cg])
def test_nan_rhs_rejected(solver):
    a = CSRMatrix.eye(3)
    b = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        solver(a.matvec, b)


@pytest.mark.parametrize("solver", [fgmres, gmres, cg])
def test_inf_rhs_rejected(solver):
    a = CSRMatrix.eye(3)
    b = np.array([1.0, np.inf, 0.0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        solver(a.matvec, b)
