"""ILU(0) factorization and the floating-subdomain failure mode."""

import numpy as np
import pytest

from repro.fem.assembly import assemble_matrix
from repro.fem.material import Material
from repro.fem.mesh import structured_quad_mesh
from repro.precond.base import SingularPreconditionerError
from repro.precond.ilu import ILU0Preconditioner, ilu0_factor
from repro.precond.scaling import scale_system
from repro.sparse.csr import CSRMatrix


def test_exact_lu_on_dense_pattern():
    """With a full pattern, ILU(0) IS the LU factorization."""
    rng = np.random.default_rng(0)
    a_dense = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    a = CSRMatrix.from_dense(a_dense, tol=-1.0)  # keep every entry
    ilu = ILU0Preconditioner(a)
    v = rng.standard_normal(6)
    assert np.allclose(ilu.apply(v), np.linalg.solve(a_dense, v), atol=1e-9)


def test_tridiagonal_exact():
    """Tridiagonal matrices incur no fill, so ILU(0) is exact."""
    n = 12
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a = CSRMatrix.from_dense(dense)
    ilu = ILU0Preconditioner(a)
    v = np.random.default_rng(1).standard_normal(n)
    assert np.allclose(ilu.apply(v), np.linalg.solve(dense, v), atol=1e-9)


def test_factor_preserves_pattern(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    lu = ilu0_factor(ss.a)
    assert lu.nnz == ss.a.nnz
    assert np.array_equal(np.sort(lu.indices), np.sort(ss.a.indices))


def test_preconditioner_reduces_residual(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    ilu = ILU0Preconditioner(ss.a)
    z = ilu.apply(ss.b)
    r = ss.b - ss.a.matvec(z)
    assert np.linalg.norm(r) < 0.7 * np.linalg.norm(ss.b)


def test_zero_pivot_raises():
    a = CSRMatrix.from_dense(
        np.array([[0.0, 1.0], [1.0, 0.0]]), tol=-1.0
    )
    with pytest.raises(SingularPreconditionerError, match="pivot"):
        ilu0_factor(a)


def test_missing_diagonal_raises():
    a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularPreconditionerError, match="diagonal"):
        ilu0_factor(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_names_its_row(bad):
    """A NaN used to make the pivot threshold NaN (the factor then
    "succeeded" and every apply returned NaN); an Inf made it infinite
    (and row 0, pivot 4.0, was blamed).  Both now name the row that
    holds the non-finite entry."""
    dense = 4.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    dense[1, 1] = bad
    # Full pattern built by hand: from_dense would drop a NaN.
    a = CSRMatrix((3, 3), [0, 3, 6, 9], np.tile(np.arange(3), 3), dense.ravel())
    with pytest.raises(
        SingularPreconditionerError, match="non-finite entry in row 1"
    ):
        ilu0_factor(a)


def test_overflow_to_nan_pivot_names_its_row():
    """Finite entries whose elimination overflows: rows 0 and 1 pivot
    on 1e287 (above the 1e-14 * 1e300 threshold), so ``l_20 = l_21 =
    1e13`` and row 2's pivot takes ``1 - inf`` from step 0 and
    ``- (-inf)`` from step 1: NaN.  A NaN pivot is not above the
    threshold, so it is rejected like a zero one (a ``<= tiny`` test
    would let it through)."""
    big, piv = 1e300, 1e287
    a = CSRMatrix(
        (3, 3),
        [0, 2, 4, 7],
        [0, 2, 1, 2, 0, 1, 2],
        [piv, big, piv, -big, big, big, 1.0],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            SingularPreconditionerError, match="zero pivot at row 2"
        ):
            ilu0_factor(a)


def test_floating_subdomain_singular():
    """Section 3.2.3: a subdomain with no Dirichlet support 'floats' — its
    local stiffness is singular and local ILU breaks down."""
    mesh = structured_quad_mesh(2, 2)
    mat = Material(E=100.0, nu=0.3)
    # Assemble only the right column of elements; its matrix restricted to
    # its own DOFs has the rigid-body null space -> singular.
    k = assemble_matrix(mesh, mat, element_subset=np.array([1, 3]))
    csr = k.tocsr()
    touched = np.unique(np.concatenate([csr.tocoo().rows]))
    local = csr.submatrix(touched, touched)
    with pytest.raises(SingularPreconditionerError):
        ilu0_factor(local)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        ilu0_factor(CSRMatrix.from_dense(np.ones((2, 3))))


def test_vector_length_checked(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    ilu = ILU0Preconditioner(ss.a)
    with pytest.raises(ValueError):
        ilu.apply(np.zeros(3))


def test_name(tiny_problem):
    ss = scale_system(tiny_problem.stiffness, tiny_problem.load)
    assert ILU0Preconditioner(ss.a).name == "ILU(0)"


# ----------------------------------------------------------------------
# Property tests: random seeded CSR patterns vs the dense LU reference
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st


def _random_spd_ish(seed, n, density):
    """Seeded random diagonally-dominant matrix with a full diagonal —
    every leading pivot is safely nonzero, so ILU(0) always factors."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n))
    d[rng.random((n, n)) > density] = 0.0
    d += (n + np.abs(d).sum(axis=1)) * np.eye(n)
    return d


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=14),
    density=st.floats(min_value=0.1, max_value=1.0),
)
def test_factor_exact_on_pattern(seed, n, density):
    """The defining ILU(0) property: L U reproduces A **exactly on A's
    sparsity pattern** (the residual A - L U lives entirely on fill
    positions outside the pattern)."""
    dense = _random_spd_ish(seed, n, density)
    a = CSRMatrix.from_dense(dense, tol=-1.0)
    lu = ilu0_factor(a)
    f = lu.toarray()
    low = np.tril(f, -1) + np.eye(n)
    up = np.triu(f)
    resid = dense - low @ up
    pattern = a.toarray() != 0.0
    pattern |= np.eye(n, dtype=bool)  # explicit zeros stored on the diag
    scale = np.abs(dense).max()
    assert np.abs(resid[pattern]).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=14),
    density=st.floats(min_value=0.1, max_value=1.0),
)
def test_apply_matches_dense_triangular_reference(seed, n, density):
    """``apply`` equals the dense forward/backward substitution through
    the same factor — the kernel dispatch adds nothing numerically."""
    dense = _random_spd_ish(seed, n, density)
    a = CSRMatrix.from_dense(dense, tol=-1.0)
    ilu = ILU0Preconditioner(a)
    f = ilu._lu.toarray()
    low = np.tril(f, -1) + np.eye(n)
    up = np.triu(f)
    v = np.random.default_rng(seed ^ 0xA5A5A5).standard_normal(n)
    ref = np.linalg.solve(up, np.linalg.solve(low, v))
    np.testing.assert_allclose(ilu.apply(v), ref, rtol=1e-11, atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=10),
)
def test_full_pattern_apply_is_the_dense_lu_solve(seed, n):
    """With no zero entries there is no dropped fill: ILU(0) **is** LU
    and ``apply`` solves the system to roundoff."""
    dense = _random_spd_ish(seed, n, density=1.1)  # keep everything
    a = CSRMatrix.from_dense(dense, tol=-1.0)
    ilu = ILU0Preconditioner(a)
    v = np.random.default_rng(seed ^ 0x5A5A5A).standard_normal(n)
    x = ilu.apply(v)
    np.testing.assert_allclose(dense @ x, v, rtol=1e-8, atol=1e-8)
