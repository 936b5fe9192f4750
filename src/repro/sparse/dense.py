"""Column arithmetic on per-rank dense arrays, shared by the orchestrator
and the pool workers.

A rank's part of a distributed vector is an ``(n,)`` array, or an
``(n, k)`` block of ``k`` right-hand-side columns.  The helpers below are
the shape-generic arithmetic both execution strategies run on those
parts: the inline rank bodies of :mod:`repro.core.distributed` and the
resident workers of :mod:`repro.parallel._process_worker`.  Writing each
once is what keeps the two bit-identical.

This is a leaf module — numpy only — so a spawned worker can import it
without pulling in the solver stack.
"""

from __future__ import annotations

import numpy as np


def _as_cols(p: np.ndarray) -> np.ndarray:
    """2-D view of a per-rank array: ``(n,)`` -> ``(n, 1)``, ``(n, k)``
    as is — for code that walks columns whichever shape it was given."""
    return p if p.ndim == 2 else p[:, None]


def _n_cols(p: np.ndarray) -> int:
    """Columns a per-rank array carries: 1 for ``(n,)``, ``k`` for
    ``(n, k)`` — the factor flop and word charges scale by."""
    return p.shape[1] if p.ndim == 2 else 1


def _take_cols(p: np.ndarray, idx) -> np.ndarray:
    """Columns ``idx`` of a per-rank array as a new contiguous block (a
    gather, for the per-column convergence masking); a vector is its own
    only column and comes back as is."""
    return p if p.ndim == 1 else np.ascontiguousarray(p[:, idx])


def _rows(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """View of the per-row array ``a`` (``(n,)``) that broadcasts down
    the columns of ``like`` — ``(n,)`` or ``(n, k)`` — so a row scaling
    or row mask is one expression for either shape."""
    return a.reshape(a.shape + (1,) * (like.ndim - 1))


#: Most elements one BLAS ddot is ever handed.  OpenBLAS threads ddot
#: above 10000 elements, and a threaded ddot sums in an order that
#: depends on the thread count; below the block a ddot is one thread's
#: work whatever the pool size, so the bits are the same everywhere.
DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` of two vectors, taken in blocks of :data:`DOT_BLOCK`
    summed left to right (one plain ddot when they fit in a block)."""
    n = a.shape[0]
    if n <= DOT_BLOCK:
        return a @ b
    s = a[:DOT_BLOCK] @ b[:DOT_BLOCK]
    for lo in range(DOT_BLOCK, n, DOT_BLOCK):
        s += a[lo:lo + DOT_BLOCK] @ b[lo:lo + DOT_BLOCK]
    return s


def col_dots(a: np.ndarray, b: np.ndarray):
    """Inner product per column of two equally-shaped per-rank arrays:
    a scalar for ``(n,)`` vectors, a ``(k,)`` array of one product per
    column for ``(n, k)`` blocks.  The only place an inner product is
    written — the orchestrator's rank bodies and the pool workers both
    call it — and it never hands BLAS more than :data:`DOT_BLOCK`
    elements, so its bits do not depend on the BLAS thread count of the
    process that runs it.

    A one-column block gives the vector product bit for bit (its column
    is contiguous); at ``k > 1`` a column is read with stride ``k`` and
    BLAS sums it in another order, so column ``c`` matches the vector
    product of column ``c`` to rounding — the one kernel of the block
    path that is not column-exact."""
    if a.ndim == 1:
        return _dot(a, b)
    return np.array([_dot(a[:, c], b[:, c]) for c in range(a.shape[1])])


def add_columns(x: np.ndarray, zs, cols, sel, ys) -> None:
    """One rank's FGMRES solution update, in place:
    ``x[:, cols] += sum_i zs[i][:, sel] * ys[:, i]`` — row ``c`` of
    ``ys`` holds the coefficients of column ``cols[c]``, which sits at
    position ``sel[c]`` of the live blocks ``zs[i]`` (``cols`` and
    ``sel`` are index arrays, or two ints when ``ys`` has one row).  Works
    on 2-D views, so vectors and blocks share it.  The only place the
    update is written — the orchestrator's rank bodies and the pool
    workers' ``axpy`` both call it."""
    y_mat = np.array(ys)
    xr = _as_cols(x)
    for i in range(y_mat.shape[1]):
        zr = _as_cols(zs[i])
        xr[:, cols] = xr[:, cols] + zr[:, sel] * y_mat[:, i]
