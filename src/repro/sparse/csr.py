"""Compressed sparse row matrix with the kernels the solvers need.

The matvec is the time-dominant kernel of every algorithm in the paper
(polynomial preconditioning *is* a chain of matvecs), so it is implemented
with a fully vectorized gather + segmented reduction, dispatched through
the pluggable backends of :mod:`repro.sparse.kernels`.

**Immutability convention.**  A ``CSRMatrix`` is frozen after
construction: no method mutates ``indptr``/``indices``/``data`` (scaling
and transposition return new matrices).  This lets the hot kernels cache
derived arrays — the COO row-index view, the ``reduceat`` segment starts,
the nonempty-row mask and the per-matrix scratch buffers — lazily and
*never invalidate them*.  Anything that needs a modified matrix must build
a new one.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import kernels


class CSRMatrix:
    """Compressed sparse row matrix (immutable by convention, see module doc).

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, ordered within each row.
    data:
        Values aligned with ``indices``.
    """

    def __init__(self, shape, indptr, indices, data):
        self.shape = tuple(shape)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        n = self.shape[0]
        if len(self.indptr) != n + 1:
            raise ValueError("indptr must have length n_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr endpoints inconsistent with data")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have equal length")
        # Lazy caches of derived arrays and kernel workspaces; safe because
        # the matrix is immutable after this point.
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= tol``."""
        a = np.asarray(a, dtype=np.float64)
        mask = np.abs(a) > tol
        rows, cols = np.nonzero(mask)
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(a.shape, indptr, cols, a[rows, cols])

    @classmethod
    def eye(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def diag(cls, d: np.ndarray) -> "CSRMatrix":
        """Diagonal matrix from a vector."""
        d = np.asarray(d, dtype=np.float64)
        n = len(d)
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.arange(n + 1, dtype=np.int64), idx, d.copy())

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy()
        )

    # ------------------------------------------------------------------
    # Cached derived arrays (lazy; never invalidated — see module doc)
    # ------------------------------------------------------------------
    def row_indices(self) -> np.ndarray:
        """The COO row-index view ``repeat(arange(n), row_lengths)``.

        Computed once and cached; shared by every kernel that needs
        per-entry row identities (rmatvec, diagonal, scaling, transpose,
        conversions).  Treat as read-only.
        """
        rows = self._cache.get("rows")
        if rows is None:
            rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
            self._cache["rows"] = rows
        return rows

    def _row_segments(self):
        """``(starts, nonempty_mask, all_nonempty)`` for segmented sums.

        ``starts`` are the ``reduceat`` segment starts restricted to rows
        owning at least one entry; when every row is nonempty (the common
        FEM case) kernels reduce straight into ``out``.
        """
        seg = self._cache.get("segments")
        if seg is None:
            lengths = np.diff(self.indptr)
            nonempty = lengths > 0
            all_nonempty = bool(nonempty.all())
            starts = (
                self.indptr[:-1]
                if all_nonempty
                else self.indptr[:-1][nonempty]
            )
            seg = (starts, nonempty, all_nonempty)
            self._cache["segments"] = seg
        return seg

    def _nnz_buffer(self) -> np.ndarray:
        """Scratch array of length ``nnz`` for gathered products."""
        buf = self._cache.get("nnz_buf")
        if buf is None:
            buf = np.empty(self.nnz)
            self._cache["nnz_buf"] = buf
        return buf

    def _rowsum_buffer(self) -> np.ndarray:
        """Scratch array holding one partial sum per nonempty row."""
        buf = self._cache.get("rowsum_buf")
        if buf is None:
            buf = np.empty(len(self._row_segments()[0]))
            self._cache["rowsum_buf"] = buf
        return buf

    def _matmat_buffers(self):
        """Contiguous column scratch pair for the column-loop SpMM."""
        bufs = self._cache.get("matmat_bufs")
        if bufs is None:
            bufs = (np.empty(self.shape[1]), np.empty(self.shape[0]))
            self._cache["matmat_bufs"] = bufs
        return bufs

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x``, dispatched to the active kernel backend.

        ``out`` (when given) is fully overwritten and returned; it must not
        alias ``x`` — backends stream products while reading ``x``, so an
        aliased call raises rather than silently corrupting.
        """
        n, m = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (m,):
            raise ValueError(f"x has shape {x.shape}, expected ({m},)")
        if out is None:
            out = np.empty(n)
        elif out.shape != (n,):
            raise ValueError(f"out has shape {out.shape}, expected ({n},)")
        elif np.shares_memory(out, x):
            raise ValueError("matvec out= must not alias x")
        if self.nnz == 0:
            out[:] = 0.0
            return out
        return kernels.get_backend().matvec(self, x, out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # The kernel follows the operand: a vector stays on ``matvec``
        # (never promoted to a one-column SpMM, which is slower).
        return self.matmat(x) if np.ndim(x) == 2 else self.matvec(x)

    def rmatvec(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x = A.T @ y`` via scatter-add (backend-dispatched).

        Same ``out`` contract as :meth:`matvec`.
        """
        n, m = self.shape
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"y has shape {y.shape}, expected ({n},)")
        if out is None:
            out = np.empty(m)
        elif out.shape != (m,):
            raise ValueError(f"out has shape {out.shape}, expected ({m},)")
        elif np.shares_memory(out, y):
            raise ValueError("rmatvec out= must not alias y")
        if self.nnz == 0:
            out[:] = 0.0
            return out
        return kernels.get_backend().rmatvec(self, y, out)

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Multi-RHS product ``Y = A @ X`` for an ``(m, k)`` block (SpMM).

        Lets callers apply the operator to several vectors per sparse-matrix
        sweep (block orthogonalization, multi-vector polynomial
        application).  ``out`` (``(n, k)``, fully overwritten) must not
        alias ``X``.

        Inputs are normalized here, once, so the backends only ever see a
        C-contiguous float64 ``(m, k)`` block: a 1-D length-``m`` vector is
        treated as a single column (``k = 1``, output ``(n, 1)``), and
        Fortran-ordered / non-contiguous blocks are copied to C order.
        """
        n, m = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(m, 1) if x.shape[0] == m else x
        if x.ndim != 2 or x.shape[0] != m:
            raise ValueError(f"X has shape {x.shape}, expected ({m}, k)")
        x = np.ascontiguousarray(x)
        k = x.shape[1]
        if out is None:
            out = np.empty((n, k))
        elif out.shape != (n, k):
            raise ValueError(f"out has shape {out.shape}, expected ({n}, {k})")
        elif np.shares_memory(out, x):
            raise ValueError("matmat out= must not alias X")
        if self.nnz == 0 or k == 0:
            out[:] = 0.0
            return out
        return kernels.get_backend().matmat(self, x, out)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where not stored)."""
        n, m = self.shape
        k = min(n, m)
        out = np.zeros(k)
        rows = self.row_indices()
        on_diag = rows == self.indices
        out[rows[on_diag]] = self.data[on_diag]
        return out[:k]

    def row_norms1(self) -> np.ndarray:
        """Discrete :math:`L_1` norm of every row, :math:`\\|k_i\\|_1` (Eq. 10)."""
        n = self.shape[0]
        out = np.zeros(n)
        if self.nnz == 0:
            return out
        starts, nonempty, all_nonempty = self._row_segments()
        if all_nonempty:
            np.add.reduceat(np.abs(self.data), starts, out=out)
        else:
            out[nonempty] = np.add.reduceat(np.abs(self.data), starts)
        return out

    def scale_rows(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``diag(d) @ A`` without changing the pattern."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[0],):
            raise ValueError("row scaling vector has wrong length")
        return CSRMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data * d[self.row_indices()],
        )

    def scale_cols(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``A @ diag(d)`` without changing the pattern."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[1],):
            raise ValueError("column scaling vector has wrong length")
        return CSRMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data * d[self.indices],
        )

    def scale_sym(self, d_left: np.ndarray, d_right: np.ndarray) -> "CSRMatrix":
        """``diag(d_left) @ A @ diag(d_right)`` in a single data pass.

        One new matrix instead of the two that chaining
        :meth:`scale_rows` / :meth:`scale_cols` would materialize — the
        setup-time half of the fused scaled matvec (the solve-time half is
        :func:`repro.sparse.ops.scaled_matvec`).
        """
        d_left = np.asarray(d_left, dtype=np.float64)
        d_right = np.asarray(d_right, dtype=np.float64)
        if d_left.shape != (self.shape[0],):
            raise ValueError("row scaling vector has wrong length")
        if d_right.shape != (self.shape[1],):
            raise ValueError("column scaling vector has wrong length")
        data = self.data * d_left[self.row_indices()]
        data *= d_right[self.indices]
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), data)

    def transpose(self) -> "CSRMatrix":
        """Explicit transpose (CSR of :math:`A^T`)."""
        n, m = self.shape
        rows = self.row_indices()
        order = np.lexsort((rows, self.indices))
        t_indices = rows[order]
        t_data = self.data[order]
        t_indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(t_indptr, self.indices + 1, 1)
        np.cumsum(t_indptr, out=t_indptr)
        return CSRMatrix((m, n), t_indptr, t_indices, t_data)

    def submatrix(self, row_idx: np.ndarray, col_idx: np.ndarray) -> "CSRMatrix":
        """Extract ``A[row_idx][:, col_idx]`` (both index arrays, no slices).

        Columns outside ``col_idx`` are dropped; the result is re-indexed to
        the local numbering implied by ``col_idx``.  Fully vectorized: the
        per-row entry ranges are flattened into one gather index built from
        the row pointer, so cost is O(selected nnz), with no Python loop.
        """
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        n, m = self.shape
        col_map = np.full(m, -1, dtype=np.int64)
        col_map[col_idx] = np.arange(len(col_idx))
        lens = self.indptr[row_idx + 1] - self.indptr[row_idx]
        total = int(lens.sum())
        # gather[p] walks each selected row's [indptr[r], indptr[r+1]) range.
        offsets = np.zeros(len(row_idx) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        gather = (
            np.repeat(self.indptr[row_idx] - offsets[:-1], lens)
            + np.arange(total, dtype=np.int64)
        )
        cols = col_map[self.indices[gather]]
        keep = cols >= 0
        new_rows = np.repeat(
            np.arange(len(row_idx), dtype=np.int64), lens
        )[keep]
        indptr = np.zeros(len(row_idx) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(new_rows, minlength=len(row_idx)).astype(np.int64),
            out=indptr[1:],
        )
        return CSRMatrix(
            (len(row_idx), len(col_idx)),
            indptr,
            cols[keep],
            self.data[gather][keep],
        )

    def toarray(self) -> np.ndarray:
        """Dense copy; for tests and tiny examples."""
        out = np.zeros(self.shape)
        out[self.row_indices(), self.indices] = self.data
        return out

    def tocoo(self):
        """Convert back to triplet format."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            self.shape,
            self.row_indices().copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Check :math:`A = A^T` up to ``tol`` (pattern-independent).

        When the transpose has the identical sparsity pattern the check is
        a direct (exact, cheap) data comparison; a pattern or nnz mismatch
        — possible for symmetric values padded with explicit zeros — falls
        through to random matvec probes.
        """
        n, m = self.shape
        if n != m:
            return False
        t = self.transpose()
        if (
            self.nnz == t.nnz
            and np.array_equal(self.indptr, t.indptr)
            and np.array_equal(self.indices, t.indices)
        ):
            return bool(np.allclose(self.data, t.data, atol=tol, rtol=1e-10))
        # Patterns differ (explicit zeros); decide by matvec probes.
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(m)
            if not np.allclose(self.matvec(x), t.matvec(x), atol=tol, rtol=1e-10):
                return False
        return True

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
