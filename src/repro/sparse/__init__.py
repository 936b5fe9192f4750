"""Sparse-matrix substrate.

A small, NumPy-vectorized sparse-matrix kernel library built from scratch
(the paper's solver never calls a general-purpose sparse library: each
subdomain needs exactly matvec, row 1-norms, diagonal extraction, symmetric
diagonal scaling and — for the ILU(0) comparison — an in-pattern
factorization with triangular solves).

``COOMatrix`` is the assembly-friendly triplet format produced by the FEM
layer; ``CSRMatrix`` is the compute format used by every solver kernel.
:mod:`repro.sparse.kernels` hosts the pluggable matvec/SpMM backends
(NumPy always; scipy auto-detected; ``REPRO_KERNEL_BACKEND``
selects).  Matrices are immutable by convention so kernels may cache
derived index arrays forever — see :mod:`repro.sparse.csr`.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import (
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.sparse.ops import (
    matvec_flops,
    row_norms1,
    scale_symmetric,
    scaled_matvec,
    spmm_dense,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "matvec_flops",
    "row_norms1",
    "scale_symmetric",
    "scaled_matvec",
    "spmm_dense",
]
