"""Allocation-regression guards for the zero-allocation hot paths.

These tests pin down the acceptance criterion of the kernel-layer rework:
in steady state (workspaces warmed), one polynomial-preconditioner
application and one FGMRES inner iteration perform **zero per-iteration
array allocations**.  Measured with :mod:`tracemalloc` rather than by
inspecting the code: a probe wraps the matvec and records the peak
traced-memory delta between consecutive calls, so any temporary ndarray
created inside the recurrence or the Gram-Schmidt sweep shows up as a
spike of at least ``n * 8`` bytes.

The problem size (``N = 20_000``) makes a single solution-length vector
160 KB while the allowed slack per step is 8 KB — two orders of magnitude
apart, so the assertion cannot pass by accident.  Small O(restart)
allocations (Givens scratch, float boxing, history appends) fit well
inside the slack.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.precond.chebyshev import ChebyshevPolynomial
from repro.precond.gls import GLSPolynomial
from repro.precond.neumann import NeumannPolynomial
from repro.solvers.fgmres import fgmres
from repro.solvers.gmres import gmres
from repro.sparse.csr import CSRMatrix
from repro.spectrum.intervals import SpectrumIntervals

N = 20_000
VECTOR_BYTES = N * 8
# Any hidden temporary of solution length would exceed this 20x over.
SLACK_BYTES = 8_192


def _laplacian_1d(n: int) -> CSRMatrix:
    """Tridiagonal SPD 1-D Laplacian, scaled into the unit window the
    polynomial preconditioners expect."""
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    rows = np.concatenate(
        [np.arange(n), np.arange(n - 1), np.arange(1, n)]
    )
    cols = np.concatenate(
        [np.arange(n), np.arange(1, n), np.arange(n - 1)]
    )
    data = np.concatenate([main, off, off]) / 4.0
    order = np.lexsort((cols, rows))
    lens = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return CSRMatrix((n, n), indptr, cols[order], data[order])


@pytest.fixture(scope="module")
def lap():
    return _laplacian_1d(N)


class MatvecProbe:
    """Matvec wrapper recording the peak traced-memory delta between
    consecutive calls (i.e. allocations made by the *caller's* code in
    between, plus our own kernel's)."""

    def __init__(self, a: CSRMatrix):
        self._a = a
        self.deltas: list[int] = []
        self._baseline: int | None = None

    def __call__(self, x, out=None):
        current, peak = tracemalloc.get_traced_memory()
        if self._baseline is not None:
            self.deltas.append(peak - self._baseline)
        result = self._a.matvec(x, out=out)
        tracemalloc.reset_peak()
        self._baseline = tracemalloc.get_traced_memory()[0]
        return result

    def steady_state_deltas(self, skip: int) -> list[int]:
        """Deltas after the first ``skip`` calls (workspace warm-up and
        per-solve basis allocation land in the skipped prefix)."""
        return self.deltas[skip:]


def _make_preconditioners():
    theta = SpectrumIntervals.single(0.05, 1.0)
    return [
        NeumannPolynomial(7),
        ChebyshevPolynomial(theta, 7),
        GLSPolynomial(theta, 7),
    ]


@pytest.mark.parametrize(
    "pc", _make_preconditioners(), ids=lambda p: p.name
)
def test_polynomial_apply_steady_state_allocations(pc, lap):
    """After warm-up, P_m(A) v with out= allocates nothing vector-sized
    across the whole application (degree matvecs + recurrence updates)."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(N)
    out = np.empty(N)
    pc.apply_linear(lap.matvec, v, out=out)  # warm workspaces
    expected = pc.apply_linear(lap.matvec, v).copy()

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            pc.apply_linear(lap.matvec, v, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < SLACK_BYTES, (
        f"polynomial apply allocated {peak - base} B in steady state "
        f"(vector size is {VECTOR_BYTES} B)"
    )
    assert np.allclose(out, expected)


@pytest.mark.parametrize("solver", [fgmres, gmres], ids=["fgmres", "gmres"])
def test_krylov_inner_loop_steady_state_allocations(solver, lap):
    """Between consecutive matvecs inside a restart cycle, the solver
    allocates no solution-length temporaries: the basis is preallocated
    and Gram-Schmidt runs in place."""
    rng = np.random.default_rng(6)
    b = rng.standard_normal(N)
    probe = MatvecProbe(lap)
    pc = NeumannPolynomial(3)

    tracemalloc.start()
    try:
        solver(
            probe,
            b,
            precond=lambda v, out=None: pc.apply_linear(probe, v, out=out),
            restart=8,
            tol=1e-10,
            max_iter=40,
        )
    finally:
        tracemalloc.stop()

    # Skip the first restart cycle: per-solve workspace (V, Z, w, tmp)
    # and preconditioner warm-up are one-time costs by design.
    degree_calls = pc.degree  # matvecs per preconditioner application
    skip = (degree_calls + 1) * 9  # first cycle, generously
    steady = probe.steady_state_deltas(skip)
    assert len(steady) >= 10, "problem too easy: not enough steady calls"
    worst = max(steady)
    assert worst < SLACK_BYTES, (
        f"inner loop allocated {worst} B between matvecs "
        f"(vector size is {VECTOR_BYTES} B)"
    )


K_BLOCK = 4
BLOCK_BYTES = N * K_BLOCK * 8
# Block kernels scale columns with (n, k) x (k,) broadcast ufuncs, which
# numpy routes through its internal iteration buffer — a *fixed* 8192
# elements (64 KiB, ``np.getbufsize()``) regardless of problem size, freed
# on return.  The block slack sits just above it: a genuine O(n) leak is
# still 2.3x (one column, 160 KB) to 9.5x (one block, 640 KB) over.
BLOCK_SLACK_BYTES = 8192 * 8 + SLACK_BYTES


@pytest.mark.parametrize(
    "pc", _make_preconditioners(), ids=lambda p: p.name
)
def test_polynomial_block_apply_steady_state_allocations(pc, lap):
    """The multi-vector polynomial application is as allocation-free as
    the single-vector one: after the (n, k)-shaped workspaces warm up,
    P_m(A) V with out= allocates nothing block-sized."""
    rng = np.random.default_rng(15)
    v = rng.standard_normal((N, K_BLOCK))
    out = np.empty((N, K_BLOCK))
    pc.apply_linear(lap.matmat, v, out=out)  # warm (n, k) workspaces
    expected = pc.apply_linear(lap.matmat, v).copy()

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            pc.apply_linear(lap.matmat, v, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < BLOCK_SLACK_BYTES, (
        f"block polynomial apply allocated {peak - base} B in steady "
        f"state (block size is {BLOCK_BYTES} B)"
    )
    assert np.allclose(out, expected)


def test_probe_detects_allocations(lap):
    """Sanity check that the measurement itself works: a vector-sized
    allocation between two matvecs must trip the probe (so the green
    solver tests above cannot be green by measurement failure)."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal(N)
    out = np.empty(N)
    probe = MatvecProbe(lap)
    keep = []  # hold references so no allocation is elided or reused
    tracemalloc.start()
    try:
        for _ in range(5):
            probe(v, out=out)
            keep.append(np.zeros(N))  # deliberate between-call allocation
    finally:
        tracemalloc.stop()
    assert max(probe.steady_state_deltas(1)) >= VECTOR_BYTES
