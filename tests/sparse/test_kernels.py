"""Kernel-layer correctness edges and backend parity.

The backends of ``repro.sparse.kernels`` must be interchangeable: every
registered backend answers matvec / rmatvec / SpMM identically (to
roundoff) on matrices with empty rows, empty columns, and explicit zeros,
and the ``out=`` contract (full overwrite, no aliasing) holds everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import CSRMatrix, scaled_matvec, spmm_dense
from repro.sparse.kernels import (
    accepts_out,
    available_backends,
    get_backend,
    ilu0_solve,
    set_backend,
    use_backend,
)

BACKENDS = available_backends()


def _random_csr(rng, n, m, density=0.2):
    d = rng.random((n, m))
    d[d > density] = 0.0
    return CSRMatrix.from_dense(d), d


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
def test_numpy_backend_always_available():
    assert "numpy" in BACKENDS


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        set_backend("fortran77")


def test_use_backend_restores_previous():
    before = get_backend()
    with use_backend("numpy"):
        assert get_backend().name == "numpy"
    assert get_backend() is before


# scipy's kernels are probed on the first request for a name the
# registry does not know yet, never at import: each check below runs in a
# fresh interpreter, whose registry has not probed anything.
_PROBE = """
import sys
from repro.sparse import kernels
{body}
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


def test_import_probes_no_scipy(child_python):
    out = child_python(
        _PROBE.format(body="assert kernels.get_backend().name == 'numpy'"),
        REPRO_KERNEL_BACKEND=None,
    )
    assert out.split() == ["False"]


@pytest.mark.parametrize(
    "body, env, expected",
    [
        ("print(kernels.available_backends())", None, "('numpy', 'scipy')"),
        ("print(kernels.get_backend().name)", "scipy", "scipy"),
        (
            "kernels.set_backend('scipy')\nprint(kernels.get_backend().name)",
            None,
            "scipy",
        ),
        (
            "with kernels.use_backend('scipy') as b:\n    print(b.name)",
            None,
            "scipy",
        ),
    ],
    ids=["available", "env", "set", "use"],
)
def test_every_lookup_probes_scipy(child_python, body, env, expected):
    out = child_python(_PROBE.format(body=body), REPRO_KERNEL_BACKEND=env)
    assert out.splitlines() == [expected, "True"]


@pytest.mark.parametrize(
    "call, env, error",
    [
        ("kernels.get_backend()", "bogus", "EnvKnobError"),
        ("kernels.set_backend('bogus')", None, "ValueError"),
    ],
    ids=["env", "set"],
)
def test_unknown_name_still_raises_after_the_probe(
    child_python, call, env, error
):
    body = (
        f"try:\n    {call}\n"
        "except ValueError as e:\n    print(type(e).__name__, e)"
    )
    out = child_python(_PROBE.format(body=body), REPRO_KERNEL_BACKEND=env)
    message, probed = out.splitlines()
    assert message.startswith(error) and "bogus" in message
    assert "('numpy', 'scipy')" in message
    assert probed == "True"


def test_accepts_out_detection():
    a = CSRMatrix.eye(3)
    assert accepts_out(a.matvec)
    assert accepts_out(a.rmatvec)
    assert not accepts_out(lambda x: x)

    def plain(x):
        return x

    assert not accepts_out(plain)


# ----------------------------------------------------------------------
# Correctness edges, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_matvec_empty_rows(backend, rng):
    d = np.zeros((6, 4))
    d[0, 1] = 2.0
    d[4, 3] = -1.5
    a = CSRMatrix.from_dense(d)
    x = rng.standard_normal(4)
    with use_backend(backend):
        assert np.allclose(a.matvec(x), d @ x)
        out = np.full(6, 99.0)  # stale values must be fully overwritten
        a.matvec(x, out=out)
        assert np.allclose(out, d @ x)


@pytest.mark.parametrize("backend", BACKENDS)
def test_matvec_all_zero_matrix(backend):
    a = CSRMatrix.from_dense(np.zeros((3, 5)))
    with use_backend(backend):
        assert np.allclose(a.matvec(np.ones(5)), 0.0)
        assert np.allclose(a.rmatvec(np.ones(3)), 0.0)
        assert np.allclose(a.matmat(np.ones((5, 2))), 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_aliasing_raises(backend):
    a = CSRMatrix.eye(4)
    x = np.ones(4)
    with use_backend(backend):
        with pytest.raises(ValueError, match="alias"):
            a.matvec(x, out=x)
        with pytest.raises(ValueError, match="alias"):
            a.rmatvec(x, out=x)
        X = np.ones((4, 2))
        with pytest.raises(ValueError, match="alias"):
            a.matmat(X, out=X)
        # overlapping views count as aliasing too
        buf = np.ones(8)
        with pytest.raises(ValueError, match="alias"):
            a.matvec(buf[:4], out=buf[2:6])


@pytest.mark.parametrize("backend", BACKENDS)
def test_spmm_equals_column_matvecs(backend, rng):
    a, d = _random_csr(rng, 17, 11)
    X = rng.standard_normal((11, 5))
    with use_backend(backend):
        got = a.matmat(X)
        cols = np.column_stack([a.matvec(X[:, j]) for j in range(5)])
    assert np.allclose(got, cols)
    assert np.allclose(got, d @ X)
    assert np.allclose(spmm_dense(a, X), d @ X)


@pytest.mark.parametrize("backend", BACKENDS)
def test_matmat_noncontiguous_out(backend, rng):
    a, d = _random_csr(rng, 9, 7)
    X = rng.standard_normal((7, 3))
    with use_backend(backend):
        big = np.zeros((9, 6))
        a.matmat(X, out=big[:, ::2])  # strided destination
    assert np.allclose(big[:, ::2], d @ X)
    assert np.allclose(big[:, 1::2], 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_parity_matvec_rmatvec(backend, rng):
    a, d = _random_csr(rng, 31, 23)
    x = rng.standard_normal(23)
    y = rng.standard_normal(31)
    with use_backend(backend):
        assert np.allclose(a.matvec(x), d @ x, rtol=1e-12)
        assert np.allclose(a.rmatvec(y), d.T @ y, rtol=1e-12)


def test_all_backends_agree_bitwise_tolerance(rng):
    """Every available backend returns the same results on one matrix."""
    a, _ = _random_csr(rng, 40, 40, density=0.3)
    x = rng.standard_normal(40)
    X = rng.standard_normal((40, 3))
    refs = None
    for backend in BACKENDS:
        with use_backend(backend):
            got = (a.matvec(x), a.rmatvec(x), a.matmat(X))
        if refs is None:
            refs = got
        else:
            for g, r in zip(got, refs):
                assert np.allclose(g, r, rtol=1e-13, atol=1e-14)


# ----------------------------------------------------------------------
# Fused scaled matvec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_scaled_matvec_matches_materialized(backend, rng):
    a, d = _random_csr(rng, 20, 20, density=0.4)
    dl = rng.random(20) + 0.5
    dr = rng.random(20) + 0.5
    x = rng.standard_normal(20)
    materialized = a.scale_sym(dl, dr)
    with use_backend(backend):
        fused = scaled_matvec(dl, a, dr, x)
        assert np.allclose(fused, materialized.matvec(x), rtol=1e-12)
        # workspace-reusing call gives the same answer
        out = np.empty(20)
        work = np.empty(20)
        scaled_matvec(dl, a, dr, x, out=out, work=work)
        assert np.allclose(out, fused)


def test_scale_sym_matches_chained_scaling(rng):
    a, _ = _random_csr(rng, 15, 12)
    dl = rng.random(15) + 0.1
    dr = rng.random(12) + 0.1
    one_pass = a.scale_sym(dl, dr)
    chained = a.scale_rows(dl).scale_cols(dr)
    assert np.allclose(one_pass.toarray(), chained.toarray())


# ----------------------------------------------------------------------
# Cached derived arrays (immutability contract)
# ----------------------------------------------------------------------
def test_row_indices_cached_and_correct(rng):
    a, d = _random_csr(rng, 12, 9)
    rows = a.row_indices()
    assert rows is a.row_indices()  # cached, same object
    expect = np.repeat(np.arange(12), np.diff(a.indptr))
    assert np.array_equal(rows, expect)


def test_matvec_results_stable_across_repeats(rng):
    """Workspace reuse must not leak state between calls."""
    a, d = _random_csr(rng, 25, 25, density=0.3)
    x1 = rng.standard_normal(25)
    x2 = rng.standard_normal(25)
    r1 = a.matvec(x1).copy()
    a.matvec(x2)
    assert np.allclose(a.matvec(x1), r1)


# ----------------------------------------------------------------------
# ILU(0) triangular-solve kernel
# ----------------------------------------------------------------------
def _ilu0_case(rng, n=10):
    from repro.precond.ilu import ILU0Preconditioner

    d = rng.standard_normal((n, n))
    d[np.abs(d) < 0.8] = 0.0
    d += (n + np.abs(d).sum(axis=1)) * np.eye(n)  # diag dominant, full diag
    a = CSRMatrix.from_dense(d, tol=-1.0)
    ilu = ILU0Preconditioner(a)
    return ilu._lu, ilu._diag_pos, ilu._plan, rng.standard_normal(n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ilu0_solve_matches_dense_triangular(backend, rng):
    """The plan's forward/backward solve equals the dense unit-lower /
    upper triangular solves through the same factor, under every
    kernel backend (none of them takes part)."""
    lu, diag_pos, plan, v = _ilu0_case(rng)
    dense = lu.toarray()
    low = np.tril(dense, -1) + np.eye(lu.shape[0])
    up = np.triu(dense)
    ref = np.linalg.solve(up, np.linalg.solve(low, v))
    with use_backend(backend):
        z = ilu0_solve(plan, v.copy())
    np.testing.assert_allclose(z, ref, rtol=1e-12, atol=1e-12)


def test_ilu0_solve_backends_agree_bitwise(rng):
    """The exact-arithmetic-order contract: under every backend the plan
    solve runs the seed's slice-dot row loop's arithmetic, so results
    are bitwise equal to that loop, not just close."""
    from tests.precond.ilu_seed import seed_ilu0_solve

    lu, diag_pos, plan, v = _ilu0_case(rng)
    results = {}
    for backend in BACKENDS:
        with use_backend(backend):
            results[backend] = ilu0_solve(plan, v.copy())
    ref = seed_ilu0_solve(
        lu.indptr, lu.indices, lu.data, diag_pos, diag_pos, v.copy()
    )
    for backend, z in results.items():
        assert z.tobytes() == ref.tobytes(), backend


def test_ilu0_solve_is_in_place(rng):
    lu, diag_pos, plan, v = _ilu0_case(rng)
    z = v.copy()
    out = ilu0_solve(plan, z)
    assert out is z
