"""Sequential multi-RHS flexible GMRES over ``(n, k)`` blocks.

The batched counterpart of :func:`repro.solvers.fgmres.fgmres`: all ``k``
right-hand sides advance through one shared Arnoldi recurrence, so every
matvec and preconditioner application is a single SpMM over the whole
block — ``k`` solves cost ``k``-column kernel sweeps instead of ``k``
Python-level iteration loops.  The shared restart cycle
(:func:`repro.solvers.krylov.restarted_fgmres`) keeps a Givens
least-squares problem, convergence monitor, and residual history per
column, so the per-column numerics mirror a single-RHS solve (identical up to summation
order: the single-RHS path reduces dot products through BLAS ``dot``
while the block path reduces per column over the block, so histories
agree to rounding, not bitwise).

Zero allocations per iteration in steady state: the basis ``V``
(``(restart+1, n, k)``), the preconditioned block ``Z``, and all scratch
blocks are preallocated once per solve and reused across restart cycles;
Gram-Schmidt runs through ufunc ``out=`` reductions and the
matvec/preconditioner write into workspace blocks whenever they accept
``out=``.  Finished columns are masked (their basis columns are zeroed,
so they ride along as inert zero columns) rather than compacted, keeping
the workspaces fixed-size.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.fgmres import _VectorSpace, _identity_precond
from repro.solvers.krylov import restarted_fgmres


class _BlockSpace(_VectorSpace):
    """The :class:`~repro.solvers.krylov.KrylovSpace` of
    :func:`fgmres_block`: all ``k`` columns in fixed-size ``(n, k)``
    workspace blocks.  Columns that leave a cycle are masked — their
    basis columns are zeroed, so they ride along inert — rather than
    compacted, which keeps the workspaces allocation-free."""

    def __init__(self, matvec, b, precond, x, restart):
        super().__init__(matvec, b, precond, x, restart)
        n, self.k = b.shape
        self.tmp_col = np.empty(n)
        self.colsq = np.empty(self.k)
        self.scale = np.empty(self.k)
        self.live: list = []  # column ids still in the Arnoldi recurrence

    def residual(self, cols):
        """The whole block is recomputed (masked columns ride along);
        returns the norms of columns ``cols``."""
        self._recompute_r()
        np.multiply(self.r, self.r, out=self.tmp)
        np.sum(self.tmp, axis=0, out=self.colsq)
        return np.sqrt(self.colsq)[cols]

    def _normalize(self, src, norms, dst):
        """``dst = src / norms`` on the live columns, zero elsewhere."""
        self.scale[:] = 0.0
        self.scale[self.live] = 1.0 / norms
        np.multiply(src, self.scale, out=dst)

    def start_cycle(self, cols, betas):
        self.live = list(cols)
        self._normalize(self.r, betas, self.v[0])

    def orthogonalize(self, j):
        v, w, tmp, colsq = self.v, self.w, self.tmp, self.colsq
        h = self.hbuf[: j + 2]
        # Classical Gram-Schmidt, per column: all coefficients off the
        # unmodified w (ufunc reductions into the h rows — no BLAS, no
        # allocations), then the batched correction sweep.
        for i in range(j + 1):
            np.multiply(v[i], w, out=tmp)
            np.sum(tmp, axis=0, out=h[i])
        for i in range(j + 1):
            np.multiply(v[i], h[i], out=tmp)
            np.subtract(w, tmp, out=w)
        np.multiply(w, w, out=tmp)
        np.sum(tmp, axis=0, out=colsq)
        np.sqrt(np.maximum(colsq, 0.0, out=colsq), out=h[j + 1])
        return h[:, self.live]

    def retire(self, pos, col, y):
        self.live.pop(pos)
        self._add_solution(col, y)

    def commit(self, j, keep, h_next):
        # Retired columns get zero basis columns and ride along inert
        # (their z and w columns stay exactly zero from here on).
        self._normalize(self.w, h_next, self.v[j + 1])

    def update(self, cols, ys):
        for c, y in zip(cols, ys):
            self._add_solution(c, y)

    def _add_solution(self, c, y):
        xcol = self.x[:, c]
        for i, yi in enumerate(y):
            np.multiply(self.z[i, :, c], yi, out=self.tmp_col)
            np.add(xcol, self.tmp_col, out=xcol)

    def solutions(self):
        return [np.ascontiguousarray(self.x[:, c]) for c in range(self.k)]


def fgmres_block(
    matvec,
    b: np.ndarray,
    precond=None,
    x0: np.ndarray | None = None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    breakdown_tol: float = 1e-14,
    tracer=None,
) -> list:
    """Solve ``A x_c = b_c`` for every column of ``b``; one
    :class:`SolveResult` per column.

    Parameters mirror :func:`repro.solvers.fgmres.fgmres` with two batched
    requirements: ``matvec`` must accept ``(n, k)`` blocks (an SpMM such as
    :meth:`repro.sparse.csr.CSRMatrix.matmat`), and ``precond`` — when not
    None — must likewise map blocks to blocks (the polynomial
    preconditioners do, column-exactly).  ``b`` may be 1-D (treated as one
    column).  Convergence, breakdown, divergence, and ``max_iter`` are
    tracked per column; a finished column stops updating its history and
    monitor while the rest of the block keeps iterating.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains NaN or Inf")
    n, k = b.shape
    if restart < 1:
        raise ValueError("restart must be >= 1")
    if k == 0:
        return []
    if precond is None:
        precond = _identity_precond
    if x0 is None:
        x = np.zeros((n, k))
    else:
        x = np.array(x0, dtype=np.float64).reshape(n, k)
    space = _BlockSpace(matvec, b, precond, x, restart)
    return restarted_fgmres(space, restart, tol, max_iter, breakdown_tol, tracer)
