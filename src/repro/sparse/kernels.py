"""Pluggable sparse-kernel backends.

Every solve in this codebase is a chain of CSR mat-vecs (polynomial
preconditioning turns the preconditioner itself into ``m`` matvecs per
Krylov step — DESIGN.md §1), so the matvec substrate is the single knob
that moves end-to-end throughput.  This module isolates that substrate
behind a tiny registry so faster implementations drop in without touching
any caller:

* ``"numpy"`` — pure-NumPy gather + ``np.add.reduceat`` segmented sum,
  always available, allocation-free through cached per-matrix workspaces.
* ``"scipy"`` — ``scipy.sparse._sparsetools`` C kernels (``csr_matvec``,
  ``csc_matvec``, ``csr_matvecs``), registered when scipy is importable
  and its private kernels behave; accumulates directly into caller
  buffers.  Probed on first request, not at import (see ``_known``).

Selection: ``set_backend(name)`` programmatically, or the environment
variable ``REPRO_KERNEL_BACKEND`` (read at first use).  All backends
implement the same three kernels against the *duck-typed* matrix object
(anything exposing ``shape``, ``indptr``, ``indices``, ``data`` and the
``CSRMatrix`` cache helpers) and fully overwrite ``out``:

* ``matvec(a, x, out)``   — ``out = A @ x``
* ``rmatvec(a, y, out)``  — ``out = A.T @ y``
* ``matmat(a, X, out)``   — ``out = A @ X`` for ``(m, k)`` blocks (SpMM)

plus one raw-array kernel used by the ILU(0) preconditioner (and by
resident workers applying shipped factors):

* ``ilu0_solve(indptr, indices, data, diag_pos, split, z)`` — in-place
  forward/backward substitution ``z <- U^{-1} L^{-1} z`` through an
  in-pattern LU whose rows are column-sorted, with ``split[i]`` the index
  one past row ``i``'s strictly-lower entries and ``diag_pos[i]`` the
  position of its diagonal entry.

Backends assume matrices are immutable after construction (the repo-wide
convention ``CSRMatrix`` documents): cached derived arrays are never
invalidated.
"""

from __future__ import annotations

import inspect
import os
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "available_backends",
    "active_backend_name",
    "get_backend",
    "set_backend",
    "use_backend",
    "accepts_out",
]


# ----------------------------------------------------------------------
# out=-capability probe (shared by the polynomial and Krylov hot loops)
# ----------------------------------------------------------------------
_accepts_out_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def accepts_out(fn) -> bool:
    """True when ``fn`` takes an ``out=`` keyword (workspace-reuse capable).

    Bound methods are resolved to their underlying function so the cache
    survives the fresh method objects Python creates on every attribute
    access.  Callables that cannot be introspected report False and fall
    back to the allocating path.
    """
    key = getattr(fn, "__func__", fn)
    try:
        return _accepts_out_cache[key]
    except (KeyError, TypeError):
        pass
    try:
        params = inspect.signature(key).parameters
    except (TypeError, ValueError):
        result = False
    else:
        p = params.get("out")
        result = p is not None and p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    try:
        _accepts_out_cache[key] = result
    except TypeError:
        pass
    return result


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class NumpyBackend:
    """Vectorized gather + segmented-reduction kernels; always available.

    Reuses two cached per-matrix buffers (an ``nnz``-sized product buffer
    and, for matrices with empty rows, a compacted row-sum buffer) so the
    steady-state matvec performs zero array allocations.
    """

    name = "numpy"

    def matvec(self, a, x, out):
        """``out = A @ x`` via gather + ``np.add.reduceat`` segmented sum."""
        work = a._nnz_buffer()
        # mode="clip" skips np.take's exception-safe temporary copy (the
        # default mode="raise" allocates nnz doubles per call); CSR
        # construction guarantees the indices are in range.
        np.take(x, a.indices, out=work, mode="clip")
        np.multiply(work, a.data, out=work)
        starts, nonempty, all_nonempty = a._row_segments()
        if all_nonempty:
            np.add.reduceat(work, starts, out=out)
        else:
            out[:] = 0.0
            if len(starts):
                sums = a._rowsum_buffer()
                np.add.reduceat(work, starts, out=sums)
                out[nonempty] = sums
        return out

    def rmatvec(self, a, y, out):
        """``out = A.T @ y`` via gather + ``np.add.at`` scatter-add."""
        work = a._nnz_buffer()
        np.take(y, a.row_indices(), out=work, mode="clip")
        np.multiply(work, a.data, out=work)
        out[:] = 0.0
        np.add.at(out, a.indices, work)
        return out

    def matmat(self, a, x, out):
        """``out = A @ X`` column by column through cached scratch columns."""
        n, m = a.shape
        xcol, ycol = a._matmat_buffers()
        for j in range(x.shape[1]):
            xcol[:] = x[:, j]
            self.matvec(a, xcol, ycol)
            out[:, j] = ycol
        return out

    def ilu0_solve(self, indptr, indices, data, diag_pos, split, z):
        """In-place ``z <- U^{-1} L^{-1} z`` through an in-pattern LU.

        Row ``i``'s strictly-lower entries live at ``[indptr[i],
        split[i])`` and its diagonal at ``diag_pos[i]``; this is the
        reference implementation every other backend must match in exact
        arithmetic order (slice-dot per row, forward then backward).
        """
        n = len(indptr) - 1
        # Forward solve  L z = v  (unit lower triangular).
        for i in range(n):
            lo, d = indptr[i], split[i]
            if d > lo:
                z[i] -= data[lo:d] @ z[indices[lo:d]]
        # Backward solve  U z = z.
        for i in range(n - 1, -1, -1):
            d, hi = diag_pos[i], indptr[i + 1]
            s = z[i]
            if hi > d + 1:
                s -= data[d + 1 : hi] @ z[indices[d + 1 : hi]]
            z[i] = s / data[d]
        return z


class ScipyBackend(NumpyBackend):
    """C-loop kernels from ``scipy.sparse._sparsetools``.

    ``csr_matvec``/``csc_matvec``/``csr_matvecs`` accumulate ``y += A x``
    into a caller buffer, so they compose with the workspace-reuse
    discipline (zero allocations) while running the row loop in C.  A CSR
    matrix read column-wise is the CSC form of its transpose, which gives
    ``rmatvec`` for free.  Falls back to the NumPy kernels only through
    explicit registration failure, never silently.
    """

    name = "scipy"

    def __init__(self, sparsetools):
        self._st = sparsetools

    def matvec(self, a, x, out):
        """``out = A @ x`` through scipy's C ``csr_matvec`` accumulator."""
        out[:] = 0.0
        n, m = a.shape
        self._st.csr_matvec(n, m, a.indptr, a.indices, a.data, x, out)
        return out

    def rmatvec(self, a, y, out):
        """``out = A.T @ y``: the CSR arrays read as the CSC of ``A.T``."""
        out[:] = 0.0
        n, m = a.shape
        self._st.csc_matvec(m, n, a.indptr, a.indices, a.data, y, out)
        return out

    def matmat(self, a, x, out):
        """``out = A @ X`` in one C sweep via ``csr_matvecs`` (true SpMM)."""
        n, m = a.shape
        k = x.shape[1]
        x = np.ascontiguousarray(x)
        if out.flags.c_contiguous:
            out[:] = 0.0
            self._st.csr_matvecs(
                n, m, k, a.indptr, a.indices, a.data, x.ravel(), out.ravel()
            )
            return out
        buf = np.zeros((n, k))
        self._st.csr_matvecs(
            n, m, k, a.indptr, a.indices, a.data, x.ravel(), buf.ravel()
        )
        out[:] = buf
        return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: ``numpy`` is registered at import; scipy's kernels are probed on the
#: first request for a name not registered yet, so a process that only
#: ever computes on ``numpy`` — a pool worker on the default backend —
#: never imports scipy.
_BACKENDS: dict = {"numpy": NumpyBackend()}
_current: list = [None]  # resolved lazily so the env var wins at first use
_probed: list = [False]


def _known(name: str) -> bool:
    """True when ``name`` is a usable backend, probing scipy's kernels
    (once per process) the first time an unregistered name is asked for."""
    if name not in _BACKENDS and not _probed[0]:
        _probed[0] = True
        try:
            from scipy.sparse import _sparsetools

            # Smoke-test the private kernels on a 2x2 before trusting them.
            indptr = np.array([0, 1, 2], dtype=np.int64)
            indices = np.array([0, 1], dtype=np.int64)
            data = np.array([2.0, 3.0])
            out = np.zeros(2)
            _sparsetools.csr_matvec(
                2, 2, indptr, indices, data, np.ones(2), out
            )
            if np.allclose(out, [2.0, 3.0]):
                _BACKENDS["scipy"] = ScipyBackend(_sparsetools)
        except Exception:  # pragma: no cover - scipy absent or API drift
            pass
    return name in _BACKENDS


def available_backends() -> tuple:
    """Names of the backends usable in this environment."""
    _known("scipy")
    return tuple(sorted(_BACKENDS))


def get_backend():
    """The active backend (env var ``REPRO_KERNEL_BACKEND`` on first use)."""
    if _current[0] is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND", "numpy").strip().lower()
        if not _known(name):
            # Imported here: repro.parallel's package import reaches back
            # into this module.
            from repro.parallel.env_knobs import EnvKnobError

            raise EnvKnobError(
                "REPRO_KERNEL_BACKEND", name,
                f"one of {available_backends()}",
            )
        _current[0] = _BACKENDS[name]
    return _current[0]


def active_backend_name() -> str:
    """Name of the active backend (resolves the env default on first use).

    Resident rank operations ship this name with every command so worker
    processes compute with the same kernels as the orchestrator would.
    """
    return get_backend().name


def set_backend(name: str):
    """Select the kernel backend by name; returns the previous backend."""
    if not _known(name):
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        )
    prev = _current[0]
    _current[0] = _BACKENDS[name]
    return prev


@contextmanager
def use_backend(name: str):
    """Context manager: run a block under a specific kernel backend."""
    prev = _current[0]
    set_backend(name)
    try:
        yield _BACKENDS[name]
    finally:
        _current[0] = prev
