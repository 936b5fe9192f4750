"""Sequential flexible GMRES with restart (Algorithm 1).

FGMRES differs from GMRES in that solution updates are built from the
*preconditioned* vectors ``z_j = C v_j`` (kept in ``Z``), so the
preconditioner may vary from step to step — the property the paper relies
on to plug in polynomial preconditioners "constructed at required stages".

The inner loop is allocation-free in steady state: the Krylov basis ``V``
(``(restart+1, n)``) and the preconditioned block ``Z`` are preallocated
once per solve and reused across restart cycles, Gram-Schmidt runs through
``np.dot(..., out=...)`` and in-place AXPYs, and the matvec/preconditioner
write into workspace rows whenever they accept ``out=`` (detected via
:func:`repro.sparse.kernels.accepts_out`; allocating callables still
work, just without the zero-allocation guarantee).

The restart cycle — Givens least squares, the
:class:`repro.solvers.diagnostics.ConvergenceMonitor` guards (NaN/Inf,
divergence, stagnation, claimed convergence and breakdowns confirmed
against the recomputed residual, all reported in
:attr:`SolveResult.diagnostics`) and tracing — is
:func:`repro.solvers.krylov.restarted_fgmres`; this module is the
workspace arithmetic it runs over for one dense right-hand side.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.krylov import restarted_fgmres
from repro.solvers.result import SolveResult
from repro.sparse.kernels import accepts_out


def _identity_precond(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is not None:
        out[:] = v
        return out
    return v.copy()


class _VectorSpace:
    """The :class:`~repro.solvers.krylov.KrylovSpace` of :func:`fgmres`:
    one column in preallocated workspace arrays, BLAS dots, in-place
    AXPYs — nothing solution-length is allocated after construction."""

    k = 1
    stats = None

    def __init__(self, matvec, b, precond, x, restart):
        self._matvec = matvec
        self._precond = precond
        self._mv_out = accepts_out(matvec)
        self._pc_out = accepts_out(precond)
        self.b = b
        self.x = x
        # Per-solve workspace, reused across restart cycles.
        self.v = np.empty((restart + 1, *b.shape))
        self.z = np.empty((restart, *b.shape))
        self.w = np.empty(b.shape)
        self.tmp = np.empty(b.shape)
        self.r = np.empty(b.shape)
        self.hbuf = np.empty((restart + 1, *b.shape[1:]))

    def _recompute_r(self):
        """r = b - A x, through the workspace when possible."""
        r = self.r
        if self._mv_out:
            self._matvec(self.x, out=r)
        else:
            r[:] = self._matvec(self.x)
        np.subtract(self.b, r, out=r)

    def residual(self, cols):
        self._recompute_r()
        return np.array([np.linalg.norm(self.r)])

    def start_cycle(self, cols, betas):
        np.divide(self.r, betas[0], out=self.v[0])

    def precondition(self, j):
        if self._pc_out:
            self._precond(self.v[j], out=self.z[j])
        else:
            self.z[j] = self._precond(self.v[j])

    def matvec(self, j):
        if self._mv_out:
            self._matvec(self.z[j], out=self.w)
        else:
            self.w[:] = self._matvec(self.z[j])

    def orthogonalize(self, j):
        v, w, tmp = self.v, self.w, self.tmp
        h = self.hbuf[: j + 2]
        # Classical Gram-Schmidt: all projections off the unmodified w,
        # matching the paper's listings (and its communication count).
        np.dot(v[: j + 1], w, out=h[: j + 1])
        np.dot(h[: j + 1], v[: j + 1], out=tmp)
        w -= tmp
        h[j + 1] = np.linalg.norm(w)
        return h[:, None]

    def commit(self, j, keep, h_next):
        np.divide(self.w, h_next[0], out=self.v[j + 1])

    def retire(self, pos, col, y):
        self.update([col], [y])

    def update(self, cols, ys):
        y = ys[0]
        if len(y):
            np.dot(y, self.z[: len(y)], out=self.tmp)
            self.x += self.tmp

    def solutions(self):
        return [self.x]


def fgmres(
    matvec,
    b: np.ndarray,
    precond=None,
    x0: np.ndarray | None = None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    breakdown_tol: float = 1e-14,
    tracer=None,
) -> SolveResult:
    """Solve ``A x = b`` with restarted flexible GMRES.

    Parameters
    ----------
    matvec:
        Callable ``v -> A v``; may accept ``out=`` for workspace reuse.
    b:
        Right-hand side.
    precond:
        Callable ``v -> z ~= A^{-1} v`` (the flexible preconditioner);
        identity when None.  May accept ``out=``.
    x0:
        Initial guess (zero when None).
    restart:
        Krylov subspace dimension ``m`` before restarting (the paper
        uses 25).
    tol:
        Convergence on ``||r_i||_2 / ||r_0||_2`` (the paper uses 1e-6).
    max_iter:
        Cap on total inner iterations.
    breakdown_tol:
        Happy-breakdown threshold on ``h_{j+1,j}``.
    tracer:
        Optional :class:`repro.obs.Tracer` recording per-cycle /
        per-step spans and a per-iteration ``rel_res`` metrics stream;
        None costs one hoisted bool check per site (the hot loop stays
        allocation-free).
    """
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains NaN or Inf")
    if restart < 1:
        raise ValueError("restart must be >= 1")
    if precond is None:
        precond = _identity_precond
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=np.float64)
    space = _VectorSpace(matvec, b, precond, x, restart)
    return restarted_fgmres(
        space, restart, tol, max_iter, breakdown_tol, tracer
    )[0]
