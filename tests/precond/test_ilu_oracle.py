"""The right-looking ILU(0) factor and the plan solve, pinned to the bit
against the IKJ factor and the row loop they replaced
(``tests/precond/ilu_seed.py``).

Both rewrites keep every floating-point operation of the old code, in
the same order, so the comparisons are ``tobytes()`` equalities: the
factor's ``indices`` and ``data``, the solve output, and — where the old
code raised — the exception type and message (which names the row).
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem
from repro.fem.cantilever import cantilever_problem
from repro.precond.base import SingularPreconditionerError
from repro.precond.ilu import ILU0Preconditioner, diag_positions, ilu0_factor
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import ILU0Plan, ilu0_solve
from tests.precond.ilu_seed import seed_ilu0_factor, seed_ilu0_solve


def _outcome(factor, a):
    """``(factor, None)`` or ``(None, (exception type, message))``."""
    try:
        return factor(a), None
    except (SingularPreconditionerError, ValueError) as exc:
        return None, (type(exc), str(exc))


def _assert_same_bits(a, v):
    """Factor ``a`` both ways, then solve ``v`` through both factors."""
    with np.errstate(all="ignore"):
        seed, seed_err = _outcome(seed_ilu0_factor, a)
        new, new_err = _outcome(ilu0_factor, a)
        assert new_err == seed_err
        if seed_err is not None:
            return seed_err
        assert new.indptr.tobytes() == seed.indptr.tobytes()
        assert new.indices.tobytes() == seed.indices.tobytes()
        assert new.data.tobytes() == seed.data.tobytes()
        diag = diag_positions(new)
        want = seed_ilu0_solve(
            seed.indptr, seed.indices, seed.data, diag, diag, v.copy()
        )
        got = ilu0_solve(
            ILU0Plan(new.indptr, new.indices, new.data, diag), v.copy()
        )
        assert got.tobytes() == want.tobytes()
    return None


@st.composite
def patterns(draw):
    """A random square CSR: non-symmetric pattern, columns shuffled in
    each row, ``n`` from 1, sparse enough that many rows have an empty
    lower or upper part.  ``kind`` picks the values: diagonally dominant
    (always factors), small integers (exact cancellations, so zero
    pivots) or plain normals; one draw in ten drops a diagonal entry."""
    n = draw(st.integers(min_value=1, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    kind = draw(st.sampled_from(["dominant", "integer", "normal"]))
    drop_diag = draw(st.integers(min_value=0, max_value=9)) == 0
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    if drop_diag:
        k = int(rng.integers(n))
        mask[k, k] = False
    if kind == "integer":
        dense = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
    else:
        dense = rng.standard_normal((n, n))
    if kind == "dominant":
        dense += (n + np.abs(dense).sum(axis=1)) * np.eye(n)
    rows, cols = np.nonzero(mask)  # explicit zeros stay in the pattern
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    perm = np.concatenate(
        [lo + rng.permutation(hi - lo) for lo, hi in zip(indptr, indptr[1:])]
    ).astype(np.int64)
    a = CSRMatrix((n, n), indptr, cols[perm], dense[rows, cols][perm])
    return a, rng.standard_normal(n)


@settings(max_examples=400, deadline=None)
@given(case=patterns())
def test_random_patterns_match_the_seed_bitwise(case):
    _assert_same_bits(*case)


@pytest.mark.parametrize(
    "dense,needle",
    [
        ([[0.0, 1.0], [1.0, 0.0]], "zero pivot at row 0"),
        ([[1.0, 1.0], [1.0, 1.0]], "zero pivot at row 1"),
        (
            [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
            "zero pivot at row 2",
        ),
    ],
)
def test_singular_cases_name_the_seed_row(dense, needle):
    a = CSRMatrix.from_dense(np.array(dense), tol=-1.0)
    err = _assert_same_bits(a, np.ones(a.shape[0]))
    assert err is not None and err[0] is SingularPreconditionerError
    assert needle in err[1]


def test_missing_diagonal_matches_the_seed():
    a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
    err = _assert_same_bits(a, np.ones(2))
    assert err == (
        SingularPreconditionerError, "missing diagonal entry in pattern"
    )


@pytest.fixture(scope="module")
def rdd_blocks():
    """Every block-Jacobi block the ``bj-ilu0`` RDD solves factor, on
    Mesh2 and Mesh3 at P = 1 and 4."""
    blocks = {}
    for mesh in (2, 3):
        problem = cantilever_problem(mesh)
        for p in (1, 4):
            ps = PreparedSystem.build(
                problem, n_parts=p,
                options=SolverOptions(method="rdd", precond="bj-ilu0"),
            )
            try:
                for r, a in enumerate(ps.system.a_loc):
                    blocks[f"mesh{mesh}-P{p}-rank{r}"] = a
            finally:
                ps.close()
    return blocks


def test_rdd_blocks_match_the_seed_bitwise(rdd_blocks):
    assert len(rdd_blocks) == 10
    rng = np.random.default_rng(33)
    for name, a in rdd_blocks.items():
        err = _assert_same_bits(a, rng.standard_normal(a.shape[0]))
        assert err is None, name


def test_preconditioner_apply_is_the_seed_solve(rdd_blocks):
    """``ILU0Preconditioner.apply`` (copy + plan solve) returns the bits
    of the seed loop over the seed factor."""
    a = rdd_blocks["mesh3-P4-rank1"]
    v = np.random.default_rng(7).standard_normal(a.shape[0])
    lu = seed_ilu0_factor(a)
    diag = diag_positions(lu)
    want = seed_ilu0_solve(
        lu.indptr, lu.indices, lu.data, diag, diag, v.copy()
    )
    assert ILU0Preconditioner(a).apply(v).tobytes() == want.tobytes()


def test_solve_beside_another_thread_is_the_seed_solve(rdd_blocks):
    """With a second thread alive the kernel takes its GIL-holding loop
    (fancy indexing and ``@``); it must give the same bits as the seed
    loop and as the single-thread loop."""
    rng = np.random.default_rng(12)
    cases = []
    for a in rdd_blocks.values():
        lu = ilu0_factor(a)
        diag = diag_positions(lu)
        v = rng.standard_normal(a.shape[0])
        plan = ILU0Plan(lu.indptr, lu.indices, lu.data, diag)
        cases.append((lu, diag, plan, v, ilu0_solve(plan, v.copy())))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert threading.active_count() > 1
        for lu, diag, plan, v, alone in cases:
            want = seed_ilu0_solve(
                lu.indptr, lu.indices, lu.data, diag, diag, v.copy()
            )
            got = ilu0_solve(plan, v.copy())
            assert got.tobytes() == want.tobytes() == alone.tobytes()
    finally:
        release.set()
        other.join()
