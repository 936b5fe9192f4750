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

The ILU(0) triangular solves are not a backend method: both backends
would run the same row loop.  One kernel serves the inline preconditioner
and the resident workers applying shipped factors:

* ``ILU0Plan(indptr, indices, data, diag_pos)`` — the per-row operands of
  the solves through an in-pattern LU whose rows are column-sorted, with
  ``diag_pos[i]`` the position of row ``i``'s diagonal; built once per
  factor.
* ``ilu0_solve(plan, z)`` — in-place forward/backward substitution
  ``z <- U^{-1} L^{-1} z`` over that plan.

Backends assume matrices are immutable after construction (the repo-wide
convention ``CSRMatrix`` documents): cached derived arrays are never
invalidated.
"""

from __future__ import annotations

import inspect
import os
import threading
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
    "ILU0Plan",
    "ilu0_solve",
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
# ILU(0) triangular solves
# ----------------------------------------------------------------------
class ILU0Plan:
    """The operands of the triangular solves through one ILU(0) factor,
    sliced out once so a solve pays no per-row index arithmetic.

    ``lower`` holds ``(i, values, columns)`` for every row with a
    strictly-lower part, in forward order; ``upper`` holds ``(i, values,
    columns, pivot)`` for every row, in backward order, the slices
    covering the entries right of the diagonal.  The slices are views of
    the factor's arrays and the pivots are copied out, so a plan belongs
    to the one (immutable) factor it was built from.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, indptr, indices, data, diag_pos):
        ptr = indptr.tolist()
        diag = diag_pos.tolist()
        self.lower = [
            (i, data[lo:d], indices[lo:d])
            for i, (lo, d) in enumerate(zip(ptr, diag))
            if d > lo
        ]
        self.upper = [
            (i, data[diag[i] + 1:ptr[i + 1]],
             indices[diag[i] + 1:ptr[i + 1]], float(data[diag[i]]))
            for i in range(len(diag) - 1, -1, -1)
        ]


def ilu0_solve(plan: ILU0Plan, z):
    """In-place ``z <- U^{-1} L^{-1} z`` over an :class:`ILU0Plan`.

    One dot of a row's values with ``z`` gathered at its columns per
    row, forward then backward: the row loop is Python, so the plan
    keeps everything but that gather and dot out of it.  An empty upper
    slice dots to ``+0.0``, which leaves the row's value unchanged to
    the bit.  Both loops below run the same BLAS ddot on the same
    operands, so they give the same bits.
    """
    if threading.active_count() > 1:
        # ``take`` and ``ndarray.dot`` release the GIL on every call,
        # however small: beside another thread (the service's executor)
        # each row would hand the GIL over twice and wait for it back.
        # Fancy indexing and ``@`` keep it (below 500 elements), at
        # about a fifth more time per row.
        for i, dl, il in plan.lower:
            z[i] = z[i] - dl @ z[il]
        for i, du, iu, piv in plan.upper:
            z[i] = (z[i] - du @ z[iu]) / piv
        return z
    take = z.take
    for i, dl, il in plan.lower:
        z[i] = z[i] - dl.dot(take(il))
    for i, du, iu, piv in plan.upper:
        z[i] = (z[i] - du.dot(take(iu))) / piv
    return z


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
