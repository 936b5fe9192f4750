"""Block-Jacobi / additive-Schwarz preconditioner for the RDD solver.

Section 4.1.2: the preconditioners used with row-based decompositions in
pARMS/PSPARSLIB/Aztec are "extensions of the block Jacobi method whose
kernel is to solve the local system  K_loc z = v" — each rank solves with
its diagonal block and no communication.  Here the local solve is an
ILU(0) application (the standard choice), giving the baseline the paper's
RDD competitors actually ship with.

Note the contrast with EDD exploited by the paper: a *principal submatrix*
of an SPD matrix is SPD, so RDD's local blocks never go singular — the
floating-subdomain breakdown is specific to EDD's unassembled Neumann-type
local matrices.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.precond.ilu import ILU0Preconditioner


class BlockJacobiILU(Preconditioner):
    """Per-rank ILU(0) solves on the diagonal blocks of an RDD system.

    Parameters
    ----------
    system:
        A built RDD system (``RDDSystem``); one ILU(0)
        factorization per rank's ``a_loc`` block is computed up front.
    """

    def __init__(self, system):
        self._system = system
        self._local = [ILU0Preconditioner(a) for a in system.a_loc]

    def apply_parts(self, v_parts: list) -> list:
        """Apply per rank: ``z^(s) = ILU0(K_loc^(s)) v^(s)`` — zero
        communication (the defining property of block Jacobi).  Charges
        each rank the triangular-solve flops (~2 nnz).

        The triangular solves are inherently per-column, so ``(n_own, k)``
        blocks loop their columns through the vector apply; column ``c``
        of the result is bit-identical to the apply of column ``c``.
        """
        if v_parts[0].ndim == 2:
            out = [np.empty_like(v) for v in v_parts]
            for c in range(v_parts[0].shape[1]):
                cols = self.apply_parts(
                    [np.ascontiguousarray(v[:, c]) for v in v_parts]
                )
                for o, z in zip(out, cols):
                    o[:, c] = z
            return out
        out = []
        for r, (ilu, v) in enumerate(zip(self._local, v_parts)):
            out.append(ilu.apply(v))
            self._system.comm.add_flops(r, 2 * self._system.a_loc[r].nnz)
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Global-vector interface (scatter, solve, gather) for sequential
        use and testing."""
        v = np.asarray(v, dtype=np.float64)
        parts = [v[o] for o in self._system.own]
        z_parts = self.apply_parts(parts)
        out = np.zeros(self._system.n_global)
        for o, z in zip(self._system.own, z_parts):
            out[o] = z
        return out

    @property
    def name(self) -> str:
        return f"BJ-ILU0(P={self._system.n_parts})"

    @property
    def spec(self) -> str:
        """Round-trippable spec string (``"bj-ilu0"``; rebuilding needs
        the RDD system, which the driver supplies)."""
        return "bj-ilu0"
