"""ILU(0) — incomplete LU with zero fill-in (the paper's serial baseline).

The paper's comparison preconditioner (Figs. 11-12) and the motivating
failure case for EDD: a subdomain matrix :math:`\\hat K^{(s)}` without
enough Dirichlet support "floats" and is singular, so its local ILU
factorization breaks down (Section 3.2.3) while polynomial preconditioning
— built only from the spectrum window — keeps working.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner, SingularPreconditionerError
from repro.sparse import kernels
from repro.sparse.csr import CSRMatrix


def ilu0_factor(a: CSRMatrix, pivot_tol: float = 0.0) -> CSRMatrix:
    """In-pattern LU factorization, right-looking (KIJ) and vectorised.

    Returns a single CSR holding ``L`` (strictly lower, unit diagonal
    implied) and ``U`` (upper including diagonal) in the pattern of ``a``,
    its rows column-sorted.  Step ``k`` divides column ``k``'s
    strictly-lower entries by the pivot ``u_kk``, then subtracts
    ``l_ik * u_kj`` from every in-pattern ``(i, j)`` in one scatter whose
    index arrays are built up front.  Every entry receives its updates in
    ascending ``k`` with the operands the row-by-row (IKJ) order gives
    it, so the factor is the IKJ factor to the bit.

    Raises :class:`SingularPreconditionerError` on a missing diagonal, on
    a non-finite entry (naming its row) and on a zero/tiny pivot, which is
    exactly how a floating-subdomain matrix manifests.
    """
    return _factor(a, pivot_tol)[0]


def _factor(a: CSRMatrix, pivot_tol: float = 0.0):
    """:func:`ilu0_factor`'s factor and the diagonal positions
    (:func:`diag_positions`) it was computed with."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    rows = a.row_indices()
    order = np.lexsort((a.indices, rows))
    lu = CSRMatrix(a.shape, a.indptr.copy(), a.indices[order], a.data[order])
    indptr, indices, data = lu.indptr, lu.indices, lu.data
    diag_pos = diag_positions(lu)
    if np.any(diag_pos < 0):
        raise SingularPreconditionerError("missing diagonal entry in pattern")
    finite = np.isfinite(data)
    if not finite.all():
        raise SingularPreconditionerError(
            f"non-finite entry in row {int(rows[np.argmin(finite)])} "
            "of the local matrix"
        )
    scale = float(np.max(np.abs(data))) if len(data) else 1.0
    tiny = max(pivot_tol, 1e-14) * max(scale, 1e-300)
    # Column k's strictly-lower entries, grouped by k (rows ascending).
    lower = np.flatnonzero(indices < rows)
    lower = lower[np.argsort(indices[lower], kind="stable")]
    l_ptr = np.searchsorted(indices[lower], np.arange(n + 1))
    # Every (l_ik, u_kj) pair, j > k, whose target (i, j) is in pattern:
    # u_kj runs over row k's entries right of the diagonal.
    k_of = indices[lower]
    u_start = diag_pos[k_of] + 1
    counts = indptr[k_of + 1] - u_start
    src_l = np.repeat(lower, counts)
    first = np.cumsum(counts) - counts
    src_u = np.arange(len(src_l)) + np.repeat(u_start - first, counts)
    key = rows * np.int64(n) + indices  # row-sorted (row, col) keys
    tgt = _find(key, rows[src_l] * np.int64(n) + indices[src_u])
    hit = tgt >= 0
    src_l, src_u, tgt = src_l[hit], src_u[hit], tgt[hit]
    p_ptr = np.searchsorted(indices[src_l], np.arange(n + 1))
    l_ptr, p_ptr, diag = l_ptr.tolist(), p_ptr.tolist(), diag_pos.tolist()
    for k in range(n):
        pivot = data[diag[k]]
        if not abs(pivot) > tiny:
            raise SingularPreconditionerError(
                f"zero pivot at row {k}; local matrix is singular "
                "(floating subdomain?)"
            )
        lo, hi = l_ptr[k], l_ptr[k + 1]
        if lo == hi:
            continue
        col = lower[lo:hi]
        data[col] = data[col] / pivot
        lo, hi = p_ptr[k], p_ptr[k + 1]
        if lo < hi:
            t = tgt[lo:hi]
            data[t] = data[t] - data[src_l[lo:hi]] * data[src_u[lo:hi]]
    return lu, diag_pos


def _find(key: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Position of each ``wanted`` key in the sorted ``key``, or -1."""
    pos = np.searchsorted(key, wanted)
    inside = pos < len(key)
    found = np.zeros(len(wanted), dtype=bool)
    found[inside] = key[pos[inside]] == wanted[inside]
    return np.where(found, pos, -1)


def diag_positions(lu: CSRMatrix) -> np.ndarray:
    """Index of each row's diagonal entry in a row-sorted CSR factor, or
    -1 for a row without one.

    One searchsorted over the whole (row-sorted) index array: the key
    ``rows*n + indices`` is globally sorted, so the diagonal of row ``i``
    is the insertion point of ``i*(n+1)`` when it is an exact hit.  This
    replaces the per-row Python scan that used to dominate
    preconditioner setup on large blocks.
    """
    n = lu.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(lu.indptr))
    key = rows * np.int64(n) + lu.indices
    return _find(key, np.arange(n, dtype=np.int64) * np.int64(n + 1))


class ILU0Preconditioner(Preconditioner):
    """``z = U^{-1} L^{-1} v`` with in-pattern ``L``, ``U`` from
    :func:`ilu0_factor`."""

    def __init__(self, a: CSRMatrix):
        self._lu, self._diag_pos = _factor(a)
        self._plan = kernels.ILU0Plan(
            self._lu.indptr, self._lu.indices, self._lu.data, self._diag_pos
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Forward/backward triangular solves through the stored factors,
        over the plan built with them (``repro.sparse.kernels``)."""
        n = self._lu.shape[0]
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (n,):
            raise ValueError("vector length mismatch")
        return kernels.ilu0_solve(self._plan, v.copy())

    @property
    def name(self) -> str:
        return "ILU(0)"
