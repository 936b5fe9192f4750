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

import itertools

import numpy as np

from repro.precond.base import Preconditioner
from repro.precond.ilu import ILU0Preconditioner

#: Resident-state keys; a fresh key per instance so worker-side aux
#: caches can never confuse two preconditioners' factors.
_RESIDENT_KEYS = itertools.count(1)


class BlockJacobiILU(Preconditioner):
    """Per-rank ILU(0) solves on the diagonal blocks of an RDD system.

    Parameters
    ----------
    system:
        A built :class:`repro.core.rdd.RDDSystem`; one ILU(0)
        factorization per rank's ``a_loc`` block is computed up front.
    """

    def __init__(self, system):
        self._system = system
        self._local = [ILU0Preconditioner(a) for a in system.a_loc]
        self._resident_key = f"bj-ilu0-{next(_RESIDENT_KEYS)}"

    def _resident_states(self) -> list:
        """Per-rank ILU0 factor state for worker-resident execution: the
        combined L/U CSR factor plus the diagonal-position/split tables
        the backend triangular-solve kernel consumes."""
        states = []
        for r, ilu in enumerate(self._local):
            lu = ilu._lu
            states.append(
                {
                    "kind": "aux",
                    "arrays": {
                        "indptr": lu.indptr,
                        "indices": lu.indices,
                        "data": lu.data,
                        "diag_pos": ilu._diag_pos,
                        "split": ilu._split,
                    },
                    "meta": {"rank": r, "key": self._resident_key},
                }
            )
        return states

    def apply_parts(self, v_parts: list) -> list:
        """Apply per rank: ``z^(s) = ILU0(K_loc^(s)) v^(s)`` — zero
        communication (the defining property of block Jacobi).  Charges
        each rank the triangular-solve flops (~2 nnz).  Under a resident
        engine the factors live worker-side and the P solves run as ONE
        ``prec`` dispatch, bit-identical to the inline loop.

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
        engine = self._system.rank_engine()
        if engine.resident:
            return engine.prec_apply(self, v_parts)
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
