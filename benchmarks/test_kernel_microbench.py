"""Micro-benchmarks of the hot kernels.

Unlike the experiment harnesses (single-shot), these run repeated rounds
under pytest-benchmark and guard the performance of the four kernels that
dominate every solve: the CSR matvec, the interface assembly, the GLS
polynomial application and the Givens least-squares update.  Regressions
here silently inflate every experiment's wall-clock.
"""

import numpy as np
import pytest

from repro.core.distributed import build_edd_system
from repro.fem.cantilever import cantilever_problem
from repro.partition.element_partition import ElementPartition
from repro.precond.gls import GLSPolynomial
from repro.precond.scaling import scale_system
from repro.solvers.givens import GivensLSQ


@pytest.fixture(scope="module")
def mesh4_scaled():
    p = cantilever_problem(4)  # 5100 equations
    return scale_system(p.stiffness, p.load)


def test_bench_csr_matvec(benchmark, mesh4_scaled):
    a = mesh4_scaled.a
    x = np.random.default_rng(0).standard_normal(a.shape[1])
    out = np.empty(a.shape[0])
    result = benchmark(a.matvec, x, out)
    assert np.isfinite(result).all()


def test_bench_interface_assembly(benchmark):
    p = cantilever_problem(4)
    part = ElementPartition.build(p.mesh, 8)
    system = build_edd_system(
        p.mesh, p.material, p.bc, part, p.bc.expand(p.load)
    )
    rng = np.random.default_rng(1)
    parts = [rng.standard_normal(n) for n in system.submap.local_sizes]
    result = benchmark(system.comm.interface_assemble, parts)
    assert len(result) == 8


def test_bench_gls_apply(benchmark, mesh4_scaled):
    a = mesh4_scaled.a
    g = GLSPolynomial.unit_interval(7, eps=1e-6)
    v = np.random.default_rng(2).standard_normal(a.shape[0])
    result = benchmark(g.apply_linear, a.matvec, v)
    assert np.isfinite(result).all()


def test_bench_gls_construction(benchmark):
    result = benchmark(GLSPolynomial.unit_interval, 10, 1e-6)
    assert result.degree == 10


def test_bench_givens_cycle(benchmark):
    rng = np.random.default_rng(3)
    m = 25
    cols = [rng.standard_normal(j + 2) for j in range(m)]
    for c in cols:
        c[-1] = abs(c[-1]) + 0.5

    def cycle():
        lsq = GivensLSQ(m, 1.0)
        for c in cols:
            lsq.append_column(c)
        return lsq.solve()

    y = benchmark(cycle)
    assert len(y) == m


def test_bench_row_norms(benchmark, mesh4_scaled):
    result = benchmark(mesh4_scaled.a.row_norms1)
    assert (result > 0).all()


# ----------------------------------------------------------------------
# Cross-backend kernel suite -> BENCH_kernels.json
#
# Manual perf_counter timing (pytest-benchmark keeps its own storage
# format; the repo's perf trajectory lives in BENCH_*.json files).  The
# "seed" rows re-run faithful replicas of the pre-kernel-layer
# implementations — per-call index recomputation and the allocating
# polynomial recurrence — so the recorded speedups are against a fixed
# baseline, not against whatever the previous commit shipped.
# ----------------------------------------------------------------------
import json
import time
from pathlib import Path

from repro.precond.scaling import ScaledOperator
from repro.sparse.kernels import available_backends, use_backend
from repro.sparse.ops import scaled_matvec

REPO_ROOT = Path(__file__).resolve().parents[1]


def _best_mean_us(fn, reps: int, trials: int = 5) -> float:
    """Best-of-``trials`` mean microseconds over ``reps`` calls."""
    fn()  # warm caches / workspaces
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = (time.perf_counter() - t0) / reps
        best = min(best, dt)
    return best * 1e6


def _seed_matvec(a, x, out=None):
    """The seed's CSR matvec: allocates the product array and recomputes
    row lengths / segment starts on every call."""
    n, m = a.shape
    if out is None:
        out = np.empty(n)
    prod = a.data * x[a.indices]
    lengths = np.diff(a.indptr)
    nonempty = lengths > 0
    out[:] = 0.0
    starts = a.indptr[:-1][nonempty]
    out[nonempty] = np.add.reduceat(prod, starts)
    return out


def _seed_gls_apply(g, matvec, v):
    """The seed's allocating three-term recurrence (one fresh array per
    arithmetic op, ``degree`` allocating matvecs)."""
    a, b, mu = g._alphas, g._betas, g._mus
    phi_prev = None
    phi = (1.0 / b[0]) * v
    z = mu[0] * phi
    for i in range(g.degree):
        nxt = matvec(phi) - a[i] * phi
        if phi_prev is not None:
            nxt = nxt - b[i] * phi_prev
        nxt = (1.0 / b[i + 1]) * nxt
        z = z + mu[i + 1] * nxt
        phi_prev, phi = phi, nxt
    return z


@pytest.fixture(scope="module")
def mesh2_scaled():
    p = cantilever_problem(2)  # Table 2 Mesh2: the degree-7 target size
    return scale_system(p.stiffness, p.load)


def _ilu0_block_rows(rng) -> dict:
    """Seed vs current ILU(0) on rank 0's block of the Mesh2 and Mesh3
    ``bj-ilu0`` RDD systems at P = 4 (what the ``ilu-rdd-virtual``
    workload factors and solves): the IKJ factor against the
    right-looking one, the seed's row loop against the plan solve.
    Asserts the two give the same bits."""
    from repro.core.options import SolverOptions
    from repro.core.session import PreparedSystem
    from repro.precond.ilu import diag_positions, ilu0_factor
    from repro.sparse.kernels import ILU0Plan, ilu0_solve
    from tests.precond.ilu_seed import seed_ilu0_factor, seed_ilu0_solve

    rows = {}
    for mesh in (2, 3):
        ps = PreparedSystem.build(
            cantilever_problem(mesh), n_parts=4,
            options=SolverOptions(method="rdd", precond="bj-ilu0"),
        )
        a = ps.system.a_loc[0]
        ps.close()
        seed, lu = seed_ilu0_factor(a), ilu0_factor(a)
        assert seed.indices.tobytes() == lu.indices.tobytes()
        assert seed.data.tobytes() == lu.data.tobytes()
        diag = diag_positions(lu)
        plan = ILU0Plan(lu.indptr, lu.indices, lu.data, diag)
        v = rng.standard_normal(a.shape[0])

        def seed_apply():
            return seed_ilu0_solve(
                lu.indptr, lu.indices, lu.data, diag, diag, v.copy()
            )

        assert seed_apply().tobytes() == ilu0_solve(plan, v.copy()).tobytes()
        row = {
            "n": a.shape[0],
            "nnz": a.nnz,
            "factor_us": {
                "seed": _best_mean_us(lambda: seed_ilu0_factor(a), reps=3),
                "right_looking": _best_mean_us(lambda: ilu0_factor(a), reps=3),
            },
            "apply_us": {
                "seed": _best_mean_us(seed_apply, reps=20),
                "plan": _best_mean_us(
                    lambda: ilu0_solve(plan, v.copy()), reps=20
                ),
            },
            "plan_build_us": _best_mean_us(
                lambda: ILU0Plan(lu.indptr, lu.indices, lu.data, diag),
                reps=3,
            ),
        }
        row["factor_speedup_vs_seed"] = (
            row["factor_us"]["seed"] / row["factor_us"]["right_looking"]
        )
        row["apply_speedup_vs_seed"] = (
            row["apply_us"]["seed"] / row["apply_us"]["plan"]
        )
        rows[f"mesh{mesh}_p4_rank0"] = row
    return rows


def test_bench_kernel_suite_json(mesh4_scaled, mesh2_scaled):
    """Time every kernel on every available backend, record the table to
    ``BENCH_kernels.json``, and assert the headline acceptance number:
    >= 2x on the degree-7 polynomial application vs the seed."""
    backends = list(available_backends())
    a4 = mesh4_scaled.a
    n4 = a4.shape[0]
    rng = np.random.default_rng(11)
    x4 = rng.standard_normal(n4)
    y4 = np.empty(n4)
    X4 = rng.standard_normal((n4, 8))
    Y4 = np.empty((n4, 8))
    d4 = mesh4_scaled.d

    report: dict = {
        "suite": "kernel-microbench",
        "backends": backends,
        "matvec": {"n": n4, "nnz": a4.nnz, "us": {}},
        "rmatvec": {"n": n4, "us": {}},
        "spmm_k8": {"n": n4, "us": {}},
        "fused_scaled_matvec": {"n": n4, "us": {}},
        "poly_apply_gls7": {},
    }

    report["matvec"]["us"]["seed"] = _best_mean_us(
        lambda: _seed_matvec(a4, x4, y4), reps=30
    )
    for name in backends:
        with use_backend(name):
            report["matvec"]["us"][name] = _best_mean_us(
                lambda: a4.matvec(x4, out=y4), reps=30
            )
            report["rmatvec"]["us"][name] = _best_mean_us(
                lambda: a4.rmatvec(x4, out=y4), reps=30
            )
            report["spmm_k8"]["us"][name] = _best_mean_us(
                lambda: a4.matmat(X4, out=Y4), reps=10
            )
            report["fused_scaled_matvec"]["us"][name] = _best_mean_us(
                lambda: scaled_matvec(d4, a4, d4, x4, out=y4), reps=30
            )
    # SpMM must beat k column matvecs to justify existing; record the ratio.
    report["spmm_k8"]["us"]["column_loop"] = _best_mean_us(
        lambda: np.column_stack([a4.matvec(X4[:, j]) for j in range(8)]),
        reps=10,
    )
    # The fused path's materializing strawman: scale, then matvec.
    report["fused_scaled_matvec"]["us"]["materialized"] = _best_mean_us(
        lambda: a4.scale_sym(d4, d4).matvec(x4, out=y4), reps=10
    )

    # Degree-7 GLS application at Mesh2 scale — the acceptance target.
    a2 = mesh2_scaled.a
    n2 = a2.shape[0]
    v2 = rng.standard_normal(n2)
    z2 = np.empty(n2)
    g7 = GLSPolynomial.unit_interval(7, eps=1e-6)
    poly = {"n": n2, "degree": 7, "us": {}}
    poly["us"]["seed"] = _best_mean_us(
        lambda: _seed_gls_apply(g7, lambda x: _seed_matvec(a2, x), v2),
        reps=30,
    )
    for name in backends:
        with use_backend(name):
            poly["us"][name] = _best_mean_us(
                lambda: g7.apply_linear(a2.matvec, v2, out=z2), reps=30
            )
    poly["speedup_vs_seed"] = {
        name: poly["us"]["seed"] / poly["us"][name] for name in backends
    }
    best = max(poly["speedup_vs_seed"].values())
    poly["speedup_vs_seed"]["best"] = best
    report["poly_apply_gls7"] = poly

    # ILU(0) at Mesh2 scale: the diagonal scan.  The seed scanned for the
    # diagonal positions with one Python ``searchsorted`` per row; the
    # fix is a single searchsorted over the whole row-sorted index array
    # (repro.precond.ilu.diag_positions).
    from repro.precond.ilu import ILU0Preconditioner, diag_positions

    ilu2 = ILU0Preconditioner(a2)
    lu2 = ilu2._lu

    def _seed_diag_scan():
        indptr, indices = lu2.indptr, lu2.indices
        dp = np.empty(n2, dtype=np.int64)
        for i in range(n2):
            lo, hi = indptr[i], indptr[i + 1]
            dp[i] = lo + int(np.searchsorted(indices[lo:hi], i))
        return dp

    ilu0 = {
        "n": n2,
        "nnz": lu2.nnz,
        "diag_scan_us": {
            "seed": _best_mean_us(_seed_diag_scan, reps=10),
            "vectorized": _best_mean_us(
                lambda: diag_positions(lu2), reps=10
            ),
        },
        "blocks": _ilu0_block_rows(rng),
    }
    ilu0["diag_scan_speedup_vs_seed"] = (
        ilu0["diag_scan_us"]["seed"] / ilu0["diag_scan_us"]["vectorized"]
    )
    report["ilu0"] = ilu0

    out_path = REPO_ROOT / "BENCH_kernels.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\nkernel microbench (best-mean us):")
    print(json.dumps(report, indent=2, sort_keys=True))

    # Correctness spot-checks so the timed closures can't silently rot.
    assert np.allclose(_seed_matvec(a4, x4), a4.matvec(x4))
    assert np.allclose(
        _seed_gls_apply(g7, lambda x: _seed_matvec(a2, x), v2),
        g7.apply_linear(a2.matvec, v2),
        rtol=1e-12,
    )
    assert best >= 2.0, (
        f"degree-7 polynomial application is only {best:.2f}x the seed "
        f"(need >= 2x): {poly['us']}"
    )
    # The vectorized diagonal scan must beat the per-row Python loop and
    # agree with it exactly.
    assert np.array_equal(_seed_diag_scan(), diag_positions(lu2))
    assert ilu0["diag_scan_speedup_vs_seed"] >= 2.0, (
        f"ILU0 diagonal scan is only "
        f"{ilu0['diag_scan_speedup_vs_seed']:.2f}x the seed (need >= 2x): "
        f"{ilu0['diag_scan_us']}"
    )
    # The right-looking factor and the plan solve must beat the seed's
    # IKJ loop and row loop (bitwise equality is asserted while timing).
    for mesh, row in ilu0["blocks"].items():
        assert row["factor_speedup_vs_seed"] >= 3.0, (mesh, row)
        assert row["apply_speedup_vs_seed"] >= 1.5, (mesh, row)
