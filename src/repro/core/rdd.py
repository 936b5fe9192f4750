"""Row-based (node) domain-decomposition FGMRES (Section 4, Algorithm 8).

The baseline the paper compares EDD against: the *assembled* global matrix
is row-partitioned by node ownership; each rank holds
:math:`\\bar K^{(s)}_{loc}` (couplings among owned DOFs) and
:math:`\\bar K^{(s)}_{ext}` (couplings to external interface DOFs).  Every
matvec — including each step of the polynomial preconditioner — performs
the Eq. 48 halo scatter/gather.  Vectors live on disjoint DOF sets, so the
local/global format distinction disappears and inner products are plain
local dots plus an allreduce (Eq. 47).

The restart cycle lives in :func:`repro.solvers.krylov.restarted_fgmres`;
the Arnoldi step in :mod:`repro.sparse.arnoldi`; this module supplies the
system and the Krylov space they run over — :class:`_RDDSpace`, per-rank
parts that are vectors (:func:`rdd_fgmres`) or ``(n_own, k)`` blocks with one
coalesced halo exchange per matvec (:func:`rdd_fgmres_block`).
Orthogonalization is classical Gram-Schmidt only.

The structural costs the paper attributes to this approach are modeled
faithfully: the system is built from the *assembled* global matrix (the
assembly EDD avoids), and :meth:`RDDSystem.replication_factor` reports the
Fig. 8 duplicated-element overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributed import (
    _as_cols, _n_cols, _rows, _take_cols, col_dots,
)
from repro.fem.bc import DirichletBC
from repro.fem.mesh import Mesh
from repro.parallel.comm import Comm, make_comm
from repro.parallel.resident import KrylovCycle, step_program
from repro.partition.interface import SubdomainMap
from repro.partition.node_partition import NodePartition
from repro.precond.base import PolynomialPreconditioner
from repro.precond.coarse import TwoLevelPreconditioner, TwoLevelSpec
from repro.precond.scaling import norm1_scaling
from repro.solvers.krylov import restarted_fgmres
from repro.solvers.result import SolveResult
from repro.sparse.csr import CSRMatrix


@dataclass
class RDDSystem:
    """The diagonally-scaled row-partitioned system (Eq. 49).

    Attributes
    ----------
    comm:
        Communicator backend (a trivial :class:`SubdomainMap` backs it;
        all traffic goes through :meth:`halo_exchange`).
    own:
        Per rank, the global free-DOF indices it owns (disjoint).
    a_loc:
        Per rank, owned-rows x owned-cols block of the scaled matrix.
    a_ext:
        Per rank, owned-rows x external-cols block.
    ext:
        Per rank, the global indices of its external (halo) DOFs.
    plan:
        Halo plan consumed by :meth:`VirtualComm.halo_exchange`.
    b:
        Per rank, the scaled right-hand side on owned DOFs.
    d:
        Per rank, the scaling vector on owned DOFs.
    n_global:
        Total free DOFs.
    duplicated_elements:
        Per rank, Fig. 8 element-copy counts (setup redundancy metric).
    """

    comm: Comm
    own: list
    a_loc: list
    a_ext: list
    ext: list
    plan: dict
    b: list
    d: list
    n_global: int
    duplicated_elements: np.ndarray

    @property
    def n_parts(self) -> int:
        return len(self.own)

    def rank_engine(self):
        """This system's :func:`~repro.parallel.resident.rank_engine`."""
        from repro.parallel import resident

        return resident.rank_engine(self)

    def matvec(self, x_parts: list) -> list:
        """Eq. 48: halo exchange then
        ``y = K_loc x_loc + K_ext x_ext`` per rank — on vectors, or on
        ``(n_own, k)`` blocks with ONE coalesced halo exchange for all
        ``k`` columns and per-rank SpMMs (column ``c`` bit-identical to
        the matvec of column ``c``), in the orchestrator.  (A resident
        Krylov cycle multiplies inside its worker-side ``step``; this is
        every other product.)"""
        comm = self.comm
        ext_vals = comm.halo_exchange(x_parts, self.plan)
        k = _n_cols(x_parts[0])
        out = [None] * len(self.a_loc)

        def body(r: int) -> None:
            loc, ext = self.a_loc[r], self.a_ext[r]
            y = loc @ x_parts[r]
            comm.add_flops(r, 2 * loc.nnz * k)
            if ext.shape[1]:
                y = y + ext @ ext_vals[r]
                comm.add_flops(r, 2 * ext.nnz * k + y.size)
            out[r] = y

        comm.run_ranks(body)
        return out

    @property
    def nnz_total(self) -> int:
        """Total stored entries across rank blocks (cached); the
        per-matvec work estimate behind :meth:`rank_engine`'s mode gate."""
        cached = self.__dict__.get("_nnz_total")
        if cached is None:
            cached = sum(a.nnz for a in self.a_loc) + sum(
                a.nnz for a in self.a_ext
            )
            self.__dict__["_nnz_total"] = cached
        return cached

    def rhs_block(self, b: np.ndarray) -> list:
        """Scaled row-partitioned RHS block from an ``(n_free, k)`` array
        of raw right-hand sides (column ``c`` bit-identical to the builder's
        scaling of ``b[:, c]``)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if b.shape[0] != self.n_global:
            raise ValueError(
                f"RHS block has {b.shape[0]} rows, expected {self.n_global}"
            )
        return [
            np.ascontiguousarray(ds[:, None] * b[o])
            for ds, o in zip(self.d, self.own)
        ]

    def dot(self, x_parts: list, y_parts: list):
        """Eq. 47: local dots + ONE allreduce — a float for vectors, the
        ``(k,)`` per-column products (``k`` words) for blocks."""
        comm = self.comm
        partial = np.empty((self.n_parts,) + x_parts[0].shape[1:])

        def body(r: int) -> None:
            partial[r] = col_dots(x_parts[r], y_parts[r])
            comm.add_flops(r, 2 * x_parts[r].size)

        comm.run_ranks(body)
        return comm.allreduce_sum(list(partial), words=partial[0].size)

    def replication_factor(self) -> float:
        """Total element copies over unique elements (Fig. 8 overhead);
        1.0 would mean no interface element is duplicated."""
        return float(self.duplicated_elements.sum()) / self._n_unique_elements

    def interior_fraction(self) -> float:
        """Fraction of owned rows with no external coupling — the portion
        of every matvec a real implementation could overlap with the halo
        exchange (available when built with ``reorder_local``)."""
        total = sum(len(o) for o in self.own)
        return float(sum(self.n_interior)) / total if total else 0.0

    # populated by the builder
    _n_unique_elements: int = 1
    n_interior: list = None


def build_rdd_system(
    mesh: Mesh,
    bc: DirichletBC,
    partition: NodePartition,
    k_reduced: CSRMatrix,
    f_reduced: np.ndarray,
    reorder_local: bool = True,
    comm_backend: str | None = None,
) -> RDDSystem:
    """Split the assembled, reduced system into the RDD structure.

    Norm-1 scaling happens here row-wise (no communication, as the paper
    notes for RDD) before the split.  ``reorder_local`` applies the local
    DOF reordering the paper says RDD requires "to achieve satisfactory
    parallel performance": each rank's interior rows (no external
    coupling) come first, boundary rows last, so a real implementation
    could overlap the interior matvec with the halo exchange.  Setup
    traffic is not charged — counters start at zero for the solve.
    ``comm_backend`` selects the communicator implementation (one of
    :func:`repro.parallel.comm.available_comm_backends`; None uses the
    session default).
    """
    d = norm1_scaling(k_reduced)
    a = k_reduced.scale_sym(d, d)  # fused one-pass DKD
    b_scaled = d * f_reduced

    dof_parts_full = np.repeat(partition.parts, mesh.dofs_per_node)
    dof_parts = dof_parts_full[bc.free]
    p = partition.n_parts
    own = [np.flatnonzero(dof_parts == s) for s in range(p)]
    if any(len(o) == 0 for o in own):
        raise ValueError("a rank owns no DOFs; reduce the rank count")

    owner_of = np.empty(a.shape[0], dtype=np.int64)
    for s in range(p):
        owner_of[own[s]] = s

    # Classify each owned row as interior (no external columns) or
    # boundary; optionally reorder interior-first.
    n_interior = []
    for s in range(p):
        has_ext = np.zeros(len(own[s]), dtype=bool)
        for li, r in enumerate(own[s]):
            lo, hi = a.indptr[r], a.indptr[r + 1]
            if np.any(owner_of[a.indices[lo:hi]] != s):
                has_ext[li] = True
        if reorder_local:
            order = np.concatenate(
                [np.flatnonzero(~has_ext), np.flatnonzero(has_ext)]
            )
            own[s] = own[s][order]
        n_interior.append(int((~has_ext).sum()))

    a_loc, a_ext, ext_lists = [], [], []
    for s in range(p):
        rows = own[s]
        cols_needed = set()
        for r in rows:
            lo, hi = a.indptr[r], a.indptr[r + 1]
            for cjj in a.indices[lo:hi]:
                if owner_of[cjj] != s:
                    cols_needed.add(int(cjj))
        ext = np.array(sorted(cols_needed), dtype=np.int64)
        ext_lists.append(ext)
        a_loc.append(a.submatrix(rows, rows))
        a_ext.append(a.submatrix(rows, ext))

    # Halo plan: plan[s][t] = (positions in own[s] that s sends to t,
    # slots in ext[s] where values received from t land).  Built from the
    # receiver's perspective, then merged per ordered pair.
    pos_in_own = np.empty(a.shape[0], dtype=np.int64)
    for s in range(p):
        pos_in_own[own[s]] = np.arange(len(own[s]))
    send_map: dict = {}
    recv_map: dict = {}
    for s in range(p):
        ext = ext_lists[s]
        owners = owner_of[ext]
        for t in np.unique(owners):
            t = int(t)
            recv_slots = np.flatnonzero(owners == t)
            recv_map[(s, t)] = recv_slots
            send_map[(t, s)] = pos_in_own[ext[recv_slots]]
    empty = np.zeros(0, dtype=np.int64)
    plan: dict = {s: {} for s in range(p)}
    for s, t in set(send_map) | set(recv_map):
        plan[s][t] = (send_map.get((s, t), empty), recv_map.get((s, t), empty))

    trivial_map = SubdomainMap(
        n_global=a.shape[0],
        n_parts=p,
        l2g=own,
        multiplicity=np.ones(a.shape[0], dtype=np.int64),
        shared=[dict() for _ in range(p)],
    )
    comm = make_comm(trivial_map, backend=comm_backend)

    system = RDDSystem(
        comm=comm,
        own=own,
        a_loc=a_loc,
        a_ext=a_ext,
        ext=ext_lists,
        plan=plan,
        b=[b_scaled[o] for o in own],
        d=[d[o] for o in own],
        n_global=a.shape[0],
        duplicated_elements=partition.duplicated_elements(),
    )
    system._n_unique_elements = mesh.n_elements
    system.n_interior = n_interior
    return system


def _axpy_parts(comm, y_parts, alpha, x_parts):
    """``y + alpha * x`` per rank, on vectors or ``(n_own, k)`` blocks."""
    out = [None] * len(y_parts)

    def body(r: int) -> None:
        out[r] = y_parts[r] + alpha * x_parts[r]
        comm.add_flops(r, 2 * y_parts[r].size)

    comm.run_ranks(body)
    return out


def _scale_parts(comm, alpha, x_parts):
    """``alpha * x`` per rank, on vectors or ``(n_own, k)`` blocks;
    ``alpha`` is one scalar, or one scalar per column."""
    out = [None] * len(x_parts)

    def body(r: int) -> None:
        out[r] = alpha * x_parts[r]
        comm.add_flops(r, x_parts[r].size)

    comm.run_ranks(body)
    return out


class _RDDVector:
    """Minimal arithmetic wrapper so polynomial ``apply_linear`` recurrences
    run unchanged on row-partitioned vectors and ``(n_own, k)`` part
    blocks (elementwise, so block columns are exact single vectors)."""

    __slots__ = ("parts", "system")

    def __init__(self, parts, system):
        self.parts = parts
        self.system = system

    def copy(self):
        return _RDDVector([p.copy() for p in self.parts], self.system)

    def __add__(self, other):
        return _RDDVector(
            _axpy_parts(self.system.comm, self.parts, 1.0, other.parts),
            self.system,
        )

    def __sub__(self, other):
        return _RDDVector(
            _axpy_parts(self.system.comm, self.parts, -1.0, other.parts),
            self.system,
        )

    def __mul__(self, scalar):
        return _RDDVector(
            _scale_parts(self.system.comm, float(scalar), self.parts),
            self.system,
        )

    __rmul__ = __mul__


def _resolve_precond_rdd(system: RDDSystem, options):
    """Parse ``options.precond`` and bind system-dependent markers
    (``"bj-ilu0"``, two-level composites) to the built system."""
    from repro.precond.spec import BJ_ILU0_MARKER, make_preconditioner

    precond = make_preconditioner(options.precond)
    if precond == BJ_ILU0_MARKER:
        from repro.precond.block_jacobi import BlockJacobiILU

        precond = BlockJacobiILU(system)
    elif isinstance(precond, TwoLevelSpec):
        precond = TwoLevelPreconditioner.build(system, precond)
    return precond


def _precondition_rdd(system: RDDSystem, precond, v_parts: list) -> list:
    """``z = C v`` on per-rank parts — vectors, or ``(n_own, k)`` blocks
    for the batched path: polynomial recurrences run through the
    (coalesced) halo-exchanging matvec, one exchange per degree for all
    ``k`` columns; block-Jacobi solves per rank (and column) locally."""
    if precond is None:
        return [p.copy() for p in v_parts]
    if isinstance(precond, TwoLevelPreconditioner):
        return precond.apply_rdd(system, v_parts)
    if hasattr(precond, "apply_parts"):
        # Block-Jacobi-style local preconditioner (Section 4.1.2): solve
        # per-rank with the diagonal block, no communication.
        return precond.apply_parts(v_parts)
    if not isinstance(precond, PolynomialPreconditioner):
        raise TypeError(
            "rdd_fgmres applies polynomial preconditioners through the "
            "halo-exchanging matvec; wrap other preconditioners yourself"
        )
    vec = _RDDVector([p.copy() for p in v_parts], system)
    out = precond.apply_linear(
        lambda v: _RDDVector(system.matvec(v.parts), system), vec
    )
    return out.parts


def _take_cols_parts(parts, idx):
    idx = np.asarray(idx, dtype=np.int64)
    return [_take_cols(p, idx) for p in parts]


class _RDDSpace(KrylovCycle):
    """The :class:`~repro.solvers.krylov.KrylovSpace` of
    :func:`rdd_fgmres` and :func:`rdd_fgmres_block`: per-rank parts on
    disjoint DOF sets shaped like the right-hand side ``b`` — vectors for
    one column, ``(n_own, k)`` blocks for ``k``.  Its cycle
    (:class:`~repro.parallel.resident.KrylovCycle`) runs inline through
    ``Comm.run_ranks``, or in the pool workers given a step ``plan``."""

    formats = 1

    def __init__(self, system: RDDSystem, b: list, precond, restart, plan):
        super().__init__(
            system, precond, restart, plan, [len(bb) for bb in b]
        )
        self.b = b
        self.k = _n_cols(b[0])
        self.x = [np.zeros_like(bb) for bb in b]
        self.ops = (system.matvec, None, None)

    def residual(self, cols):
        system = self.system
        self.x = self._flush(self.x)
        idx = np.asarray(cols)
        ax = system.matvec(_take_cols_parts(self.x, idx))
        self.r = _axpy_parts(
            self.comm, _take_cols_parts(self.b, idx), -1.0, ax
        )
        self.r_cols = list(cols)
        return np.sqrt(np.atleast_1d(system.dot(self.r, self.r)))

    def start_cycle(self, cols, betas):
        """``v_0 = r / beta`` for column ids ``cols``."""
        r = self.r
        sel = [self.r_cols.index(c) for c in cols]
        if sel != list(range(len(self.r_cols))):
            r = _take_cols_parts(r, sel)
        self._open(cols, [_scale_parts(self.comm, 1.0 / betas, r)])

    def _apply(self, v):
        return _precondition_rdd(self.system, self.precond, v)

    def solutions(self):
        system = self.system
        u = np.zeros((system.n_global,) + self.x[0].shape[1:])
        for o, xs, ds in zip(system.own, self.x, system.d):
            u[o] = _rows(ds, xs) * xs
        u = _as_cols(u)
        return [np.ascontiguousarray(u[:, c]) for c in range(self.k)]


def _make_space(system, b, precond, restart):
    """The Krylov space of one solve, vectors or blocks alike: its cycle
    runs in the pool workers when the engine is resident and the
    preconditioner has a worker-side program
    (:func:`~repro.parallel.resident.step_program`); inline otherwise."""
    plan = step_program(precond) if system.rank_engine().resident else None
    return _RDDSpace(system, b, precond, restart, plan)


def _configure(system, precond, restart, tol, max_iter, options):
    """Fold ``options`` over the keyword arguments and validate; returns
    ``(precond, restart, tol, max_iter)``."""
    if options is not None:
        restart = options.restart
        tol = options.tol
        max_iter = options.max_iter
        if precond is None:
            precond = _resolve_precond_rdd(system, options)
    if restart < 1:
        raise ValueError("restart must be >= 1")
    return precond, restart, tol, max_iter


def rdd_fgmres(
    system: RDDSystem,
    precond=None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    breakdown_tol: float = 1e-14,
    options=None,
    tracer=None,
) -> SolveResult:
    """Algorithm 8: restarted FGMRES on the row-partitioned scaled system.

    Returns the *unscaled* global solution, like :func:`edd_fgmres`.
    ``options`` — a :class:`repro.core.options.SolverOptions` — supplies
    ``restart``/``tol``/``max_iter`` and, when ``precond`` is None, the
    preconditioner parsed from ``options.precond`` (the same unified
    surface :func:`edd_fgmres` accepts).
    """
    precond, restart, tol, max_iter = _configure(
        system, precond, restart, tol, max_iter, options
    )
    space = _make_space(
        system, [bb.copy() for bb in system.b], precond, restart
    )
    return restarted_fgmres(
        space, restart, tol, max_iter, breakdown_tol, tracer
    )[0]


def rdd_fgmres_block(
    system: RDDSystem,
    b,
    precond=None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    breakdown_tol: float = 1e-14,
    options=None,
    tracer=None,
) -> list:
    """Batched multi-RHS Algorithm 8: solve for all ``k`` columns of ``b``
    simultaneously; returns one :class:`SolveResult` per column (unscaled
    global solutions).

    ``b`` is an ``(n_free, k)`` array (or array-like) of raw right-hand
    sides, or a pre-scaled per-rank part-block list — ``n_parts`` ndarrays
    of shapes ``(n_own, k)``; a list of ndarrays of any other shapes is
    rejected with a ValueError.  The same
    guarantees as :func:`repro.core.edd.edd_fgmres_block` hold: column
    ``c`` runs exactly the single-RHS floating-point trajectory of
    :func:`rdd_fgmres` (bit-identical residual history), one halo exchange
    and one allreduce per Arnoldi step serve all ``k`` columns, and
    finished columns are masked out of the Krylov blocks.
    """
    precond, restart, tol, max_iter = _configure(
        system, precond, restart, tol, max_iter, options
    )
    if isinstance(b, (list, tuple)) and all(
        isinstance(p, np.ndarray) for p in b
    ):
        b_blk = list(b)
        rows = [len(o) for o in system.own]
        k = b_blk[0].shape[1] if b_blk and b_blk[0].ndim == 2 else None
        if k is None or [p.shape for p in b_blk] != [(n, k) for n in rows]:
            raise ValueError(
                f"a per-rank RHS part list needs {system.n_parts} arrays of "
                f"shapes {[(n, 'k') for n in rows]} with one common k; got "
                f"{[p.shape for p in b_blk]}"
            )
    else:
        b_blk = system.rhs_block(b)
    if b_blk[0].shape[1] == 0:
        return []
    space = _make_space(system, b_blk, precond, restart)
    return restarted_fgmres(space, restart, tol, max_iter, breakdown_tol, tracer)
