"""The ILU(0) factorisation and triangular solves as they were before
the right-looking factor and the per-factor solve plan: the IKJ loop
over a ``(row, col) -> position`` dict and the row loop every kernel
backend used to share, copied verbatim (only the names and the
``NumpyBackend`` ``self`` changed).  They are the bitwise oracles of
``tests/precond/test_ilu_oracle.py``, ``tests/sparse/test_kernels.py``
and the ILU rows of ``benchmarks/test_kernel_microbench.py``.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import SingularPreconditionerError


def seed_ilu0_factor(a, pivot_tol: float = 0.0):
    """In-pattern LU factorization (IKJ variant).

    Returns a single CSR holding ``L`` (strictly lower, unit diagonal
    implied) and ``U`` (upper including diagonal) in the pattern of ``a``.
    Raises :class:`SingularPreconditionerError` on a zero/tiny pivot, which
    is exactly how a floating-subdomain matrix manifests.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    lu = a.copy()
    indptr, indices, data = lu.indptr, lu.indices, lu.data
    # Sort columns within each row (factorization scans them in order).
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        order = np.argsort(indices[lo:hi], kind="stable")
        indices[lo:hi] = indices[lo:hi][order]
        data[lo:hi] = data[lo:hi][order]
    # Position of each (row, col) entry for the in-pattern updates.
    pos = {}
    diag_pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for p in range(indptr[i], indptr[i + 1]):
            j = int(indices[p])
            pos[(i, j)] = p
            if j == i:
                diag_pos[i] = p
    if np.any(diag_pos < 0):
        raise SingularPreconditionerError("missing diagonal entry in pattern")
    scale = float(np.max(np.abs(data))) if len(data) else 1.0
    tiny = max(pivot_tol, 1e-14) * max(scale, 1e-300)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        for p in range(lo, hi):
            k = int(indices[p])
            if k >= i:
                break
            pivot = data[diag_pos[k]]
            if abs(pivot) <= tiny:
                raise SingularPreconditionerError(
                    f"zero pivot at row {k}; local matrix is singular "
                    "(floating subdomain?)"
                )
            lik = data[p] / pivot
            data[p] = lik
            # Subtract lik * U[k, j] for j > k present in row i's pattern.
            for q in range(diag_pos[k] + 1, indptr[k + 1]):
                j = int(indices[q])
                tgt = pos.get((i, j))
                if tgt is not None:
                    data[tgt] -= lik * data[q]
        if abs(data[diag_pos[i]]) <= tiny:
            raise SingularPreconditionerError(
                f"zero pivot at row {i}; local matrix is singular "
                "(floating subdomain?)"
            )
    return lu


def seed_ilu0_solve(indptr, indices, data, diag_pos, split, z):
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
