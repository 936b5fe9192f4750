"""Distributed data structures of the EDD formulation (Section 3.1).

Two vector formats coexist (Definitions 1 and 2, Fig. 5):

* **local distributed** :math:`\\tilde u^{(s)}` — each subdomain holds only
  the contributions of its own elements; interface values are partial and
  the true global vector is :math:`u = \\sum_s B_s^T \\tilde u^{(s)}`.
* **global distributed** :math:`\\hat u^{(s)}` — interface values are fully
  assembled and identical across sharing subdomains:
  :math:`\\hat u^{(s)} = B_s u`.

The nearest-neighbour exchange ``⊕Σ∂Ω`` converts local → global.  The
subdomain matrices :math:`\\hat K^{(s)}` are kept in *local distributed*
(unassembled) form forever — the paper's point is that no interface
assembly of the matrix ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import assemble_matrix
from repro.fem.bc import DirichletBC
from repro.fem.material import Material
from repro.fem.mesh import Mesh
from repro.parallel.comm import Comm, make_comm
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import SubdomainMap, build_subdomain_map
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
# The column arithmetic lives in a numpy-only leaf that the pool workers
# import too; re-exported here, where the rest of the solver finds it.
from repro.sparse.dense import (  # noqa: F401
    DOT_BLOCK,
    _as_cols,
    _n_cols,
    _rows,
    _take_cols,
    col_dots,
)


class DistVector:
    """A distributed array: one NumPy array per rank, all ``(n_local,)``
    (a vector) or all C-ordered ``(n_local, k)`` (a block of ``k``
    right-hand-side columns).

    "Vector or block" is the shape of the parts, nothing else: every
    operation below is elementwise or per column, so column ``c`` of any
    expression over blocks is bit-identical to the same expression over
    the vectors of column ``c`` (inner products at ``k > 1``: to
    rounding, see :func:`col_dots`).  Flop charging scales with ``size``
    (``k`` columns cost ``k`` times one column), while communication done
    through the collectives costs the *same message count* as a single
    vector.  1-D parts are never promoted to ``(n, 1)``: they keep
    running the vector kernels (``matvec``, a scalar inner product).

    Supports the arithmetic the Krylov recurrences need (``+``, ``-``,
    ``*`` by a scalar or by one scalar per column, ``copy``) and charges
    the owning communicator one flop per element per arithmetic
    operation — so the recorded flops of a distributed run mirror what
    each MPI rank would execute.  Every operation is expressed as a
    per-rank closure dispatched through :meth:`Comm.run_ranks`, so the
    concurrent backends execute the P rank bodies genuinely in parallel
    while the serial backend runs them in rank order; results are
    identical either way.

    ``kind`` tags the format (``"local"`` or ``"global"``); arithmetic
    requires operands of matching kind (adding mixed formats is the classic
    EDD bug, Definition 1 vs 2).
    """

    __slots__ = ("parts", "kind", "comm")

    def __init__(self, parts: list, kind: str, comm: Comm):
        if kind not in ("local", "global"):
            raise ValueError("kind must be 'local' or 'global'")
        self.parts = parts
        self.kind = kind
        self.comm = comm

    @property
    def k(self) -> int:
        """Number of columns (right-hand sides) carried: 1 for vectors."""
        return _n_cols(self.parts[0])

    def copy(self) -> "DistVector":
        """Deep copy (same kind, same communicator)."""
        return DistVector([p.copy() for p in self.parts], self.kind, self.comm)

    def _zip_map(self, other: "DistVector", op) -> "DistVector":
        """Elementwise binary op as a per-rank SPMD body (1 flop/element)."""
        comm = self.comm
        a, b = self.parts, other.parts
        out = [None] * len(a)

        def body(r: int) -> None:
            out[r] = op(a[r], b[r])
            comm.add_flops(r, out[r].size)

        comm.run_ranks(body)
        return DistVector(out, self.kind, comm)

    def __add__(self, other: "DistVector") -> "DistVector":
        self._require_same(other)
        return self._zip_map(other, np.add)

    def __sub__(self, other: "DistVector") -> "DistVector":
        self._require_same(other)
        return self._zip_map(other, np.subtract)

    def __mul__(self, scale) -> "DistVector":
        """``scale`` is one scalar, or one scalar per column (column
        ``c`` of the result is ``scale[c] * column c``)."""
        scale = np.asarray(scale, dtype=np.float64)
        comm = self.comm
        a = self.parts
        out = [None] * len(a)

        def body(r: int) -> None:
            out[r] = scale * a[r]
            comm.add_flops(r, a[r].size)

        comm.run_ranks(body)
        return DistVector(out, self.kind, comm)

    __rmul__ = __mul__

    def _require_same(self, other: "DistVector") -> None:
        if not isinstance(other, DistVector):
            raise TypeError("DistVector arithmetic needs DistVector operands")
        if other.kind != self.kind:
            raise ValueError(
                f"cannot combine {self.kind!r} and {other.kind!r} distributed "
                "vectors; assemble first (Definitions 1-2)"
            )

    def take_cols(self, idx) -> "DistVector":
        """New block holding columns ``idx`` (a gather; no flops charged —
        pure data movement used by the per-column convergence masking).
        A vector is its own only column: returned as is."""
        if self.parts[0].ndim == 1:
            return self
        idx = np.asarray(idx, dtype=np.int64)
        comm = self.comm
        a = self.parts
        out = [None] * len(a)

        def body(r: int) -> None:
            out[r] = _take_cols(a[r], idx)

        comm.run_ranks(body)
        return DistVector(out, self.kind, comm)

    def local_dots(self, other: "DistVector") -> np.ndarray:
        """Per-rank partial inner products — ``(n_parts,)`` for vectors,
        ``(n_parts, k)`` per column for blocks (no communication, no
        format check: Eq. 33 deliberately pairs a local with a global
        vector)."""
        comm = self.comm
        a, b = self.parts, other.parts
        out = np.empty((len(a),) + a[0].shape[1:])

        def body(r: int) -> None:
            out[r] = col_dots(a[r], b[r])
            comm.add_flops(r, 2 * a[r].size)

        comm.run_ranks(body)
        return out


@dataclass
class EDDSystem:
    """The diagonally-scaled element-based-decomposition system (Eq. 44).

    Attributes
    ----------
    submap:
        DOF sharing structure.
    comm:
        The communicator (any backend of :func:`repro.parallel.comm.make_comm`;
        owns the counters).
    a_local:
        Per rank, the scaled local-distributed matrix
        :math:`\\hat A^{(s)} = \\hat D^{(s)}\\hat K^{(s)}\\hat D^{(s)}` in
        subdomain-local numbering.
    b_local:
        The scaled RHS in local-distributed format.
    d_parts:
        The global-distributed norm-1 scaling vector.
    owner_mask:
        Per rank, boolean over local DOFs marking the DOFs this rank owns
        (lowest sharing rank); used to convert global→local distributed
        without changing values.
    """

    submap: SubdomainMap
    comm: Comm
    a_local: list
    b_local: list
    d_parts: list
    owner_mask: list

    @property
    def n_parts(self) -> int:
        return self.submap.n_parts

    @property
    def nnz_total(self) -> int:
        """Total stored entries across subdomain matrices (cached); the
        per-matvec work estimate behind :meth:`rank_engine`'s mode gate."""
        cached = self.__dict__.get("_nnz_total")
        if cached is None:
            cached = sum(a.nnz for a in self.a_local)
            self.__dict__["_nnz_total"] = cached
        return cached

    @property
    def n_global(self) -> int:
        return self.submap.n_global

    # ------------------------------------------------------------------
    # Array constructors / converters (vectors and ``(n, k)`` blocks alike)
    # ------------------------------------------------------------------
    def zeros(self, kind: str = "global") -> DistVector:
        """A zero distributed vector in the requested format."""
        return DistVector(
            [np.zeros(n) for n in self.submap.local_sizes], kind, self.comm
        )

    def distribute(self, x: np.ndarray) -> DistVector:
        """True global vector -> global-distributed (Definition 2)."""
        return DistVector(self.submap.restrict(x), "global", self.comm)

    def rhs_block(self, b: np.ndarray) -> DistVector:
        """Scaled local-distributed RHS block from an ``(n_free, k)`` array
        of raw (unscaled, reduced) right-hand sides.

        Column ``c`` is bit-identical to the ``b_local`` the system builder
        would produce from ``b[:, c]`` — ownership split then ``D`` scaling.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if b.shape[0] != self.n_global:
            raise ValueError(
                f"RHS block has {b.shape[0]} rows, expected {self.n_global}"
            )
        parts = _ownership_split(self.submap, b)
        return DistVector(
            [_rows(d, p) * p for d, p in zip(self.d_parts, parts)],
            "local",
            self.comm,
        )

    def localize(self, v: DistVector) -> DistVector:
        """Global-distributed -> an equivalent local-distributed array by
        ownership masking (each shared DOF kept on its lowest-rank owner).
        Value-preserving: assembling the result reproduces ``v``."""
        if v.kind != "global":
            raise ValueError("localize expects a global-distributed vector")
        parts = [p * _rows(m, p) for p, m in zip(v.parts, self.owner_mask)]
        return DistVector(parts, "local", self.comm)

    def assemble(self, v: DistVector) -> DistVector:
        """The ``⊕Σ∂Ω`` nearest-neighbour interface assembly (Eq. 28):
        local-distributed -> global-distributed.  Communicates: one
        message per neighbour pair, carrying all ``k`` columns of a block
        (the coalesced exchange of the batched solve path)."""
        if v.kind != "local":
            raise ValueError("assemble expects a local-distributed vector")
        return DistVector(
            self.comm.interface_assemble(v.parts), "global", self.comm
        )

    def to_global_vector(self, v: DistVector) -> np.ndarray:
        """Collapse a distributed array to one true global array —
        ``(n_global,)``, or ``(n_global, k)`` for a block (host-side
        gather; used only for verification and output, never in the
        solver loop)."""
        out = np.zeros((self.n_global,) + v.parts[0].shape[1:])
        for g, p in zip(self.submap.l2g, v.parts):
            if v.kind == "local":
                np.add.at(out, g, p)
            else:
                out[g] = p
        return out

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def rank_engine(self):
        """This system's :func:`~repro.parallel.resident.rank_engine`.
        Besides the solver, ``bench/probes.py`` reads the engine's
        ``resident`` flag (and its ``poly_chain``)."""
        from repro.parallel import resident

        return resident.rank_engine(self)

    def matvec_local(self, v: DistVector) -> DistVector:
        """:math:`\\tilde y^{(s)} = \\hat A^{(s)} \\hat x^{(s)}` (Eq. 37):
        global-distributed in, local-distributed out, zero communication;
        per rank one matvec, or one SpMM over all ``k`` columns of a block,
        in the orchestrator.  (A resident Krylov cycle multiplies inside
        its worker-side ``step``; this is every other product.)"""
        if v.kind != "global":
            raise ValueError("matvec needs a global-distributed input")
        comm = self.comm
        a_local = self.a_local
        x_parts = v.parts
        k = v.k
        parts = [None] * len(a_local)

        def body(r: int) -> None:
            a = a_local[r]
            parts[r] = a @ x_parts[r]
            comm.add_flops(r, 2 * a.nnz * k)

        comm.run_ranks(body)
        return DistVector(parts, "local", comm)

    def matvec_assembled(self, v: DistVector) -> DistVector:
        """Matvec followed by interface assembly: global in, global out.
        This is the operator the polynomial recurrences iterate."""
        return self.assemble(self.matvec_local(v))

    def dot(self, local: DistVector, glob: DistVector):
        """The mixed-format inner product of Eq. 33:
        :math:`\\langle x, y\\rangle = \\sum_s \\langle \\tilde x^{(s)},
        \\hat y^{(s)}\\rangle` — ONE allreduce, no neighbour exchange.  A
        float for vectors; for blocks the ``(k,)`` per-column products,
        the one allreduce carrying ``k`` words."""
        if local.kind != "local" or glob.kind != "global":
            raise ValueError("dot pairs a local with a global vector (Eq. 33)")
        partial = local.local_dots(glob)
        return self.comm.allreduce_sum(list(partial), words=partial[0].size)


def _ownership_split(submap: SubdomainMap, x: np.ndarray) -> list:
    """Split a true global vector — or an ``(n_global, k)`` block of them —
    into local-distributed parts by assigning each DOF's full value to its
    lowest-rank owner."""
    owner = np.full(submap.n_global, -1, dtype=np.int64)
    for s in range(submap.n_parts - 1, -1, -1):
        owner[submap.l2g[s]] = s
    parts = []
    for s in range(submap.n_parts):
        g = submap.l2g[s]
        xg = x[g]
        parts.append(np.where(_rows(owner[g] == s, xg), xg, 0.0))
    return parts


def build_edd_system(
    mesh: Mesh,
    material: Material,
    bc: DirichletBC,
    partition: ElementPartition,
    f_full: np.ndarray,
    mass_shift: tuple | None = None,
    comm_backend: str | None = None,
) -> EDDSystem:
    """Assemble the per-subdomain scaled *elasticity* system of Algorithm 4.

    Per subdomain: assemble :math:`\\hat K^{(s)}` from its own elements only
    (never across the interface), reduce by the Dirichlet conditions,
    restrict to subdomain-local numbering.  Then run the distributed norm-1
    scaling (Algorithm 3): local row 1-norms, one interface assembly to sum
    them, :math:`\\hat D^{(s)} = 1/\\sqrt{\\hat d^{(s)}}`, and scale matrix
    and RHS in place.

    ``mass_shift = (alpha, beta)`` builds the elastodynamics effective
    matrix :math:`\\alpha M + \\beta K` per subdomain instead (Eq. 52).
    ``comm_backend`` selects the communicator backend (one of
    :func:`repro.parallel.comm.available_comm_backends`; None uses the
    session default of :func:`repro.parallel.comm.get_comm_backend`).

    Other PDEs plug in through :func:`build_edd_system_from_assembler`.

    Setup communication is *not* charged: counters are reset before
    returning so recorded statistics cover the solve only, matching the
    paper's timed region.
    """

    def assembler(elems: np.ndarray) -> COOMatrix:
        coo = assemble_matrix(mesh, material, "stiffness", element_subset=elems)
        if mass_shift is not None:
            alpha, beta = mass_shift
            m_coo = assemble_matrix(mesh, material, "mass", element_subset=elems)
            coo = COOMatrix(
                coo.shape,
                np.concatenate([coo.rows, m_coo.rows]),
                np.concatenate([coo.cols, m_coo.cols]),
                np.concatenate([beta * coo.data, alpha * m_coo.data]),
            )
        return coo

    return build_edd_system_from_assembler(
        mesh, bc, partition, f_full, assembler, comm_backend=comm_backend
    )


def build_edd_system_from_assembler(
    mesh: Mesh,
    bc: DirichletBC,
    partition: ElementPartition,
    f_full: np.ndarray,
    assembler,
    comm_backend: str | None = None,
) -> EDDSystem:
    """Generic EDD system builder for any PDE.

    ``assembler(element_subset) -> COOMatrix`` must return the subdomain's
    unassembled matrix contribution on *full* (unreduced) DOF numbering —
    e.g. a scalar conductivity assembly for heat problems.  Everything
    else (reduction, localization, distributed norm-1 scaling, rhs
    ownership split) is PDE-independent.  ``comm_backend`` picks the
    communicator implementation (None = session default).
    """
    submap = build_subdomain_map(mesh, partition, bc)
    comm = make_comm(submap, backend=comm_backend)
    full_to_free = bc.full_to_free()

    a_local = []
    for s in range(partition.n_parts):
        elems = partition.subdomain_elements(s)
        coo = assembler(elems)
        r = full_to_free[coo.rows]
        c = full_to_free[coo.cols]
        keep = (r >= 0) & (c >= 0)
        g = submap.l2g[s]
        g2l = np.full(bc.n_free, -1, dtype=np.int64)
        g2l[g] = np.arange(len(g))
        local = COOMatrix(
            (len(g), len(g)), g2l[r[keep]], g2l[c[keep]], coo.data[keep]
        )
        a_local.append(local.tocsr())

    return _finish_edd_system(submap, comm, a_local, bc, f_full)


def build_edd_system_streamed(
    mesh: Mesh,
    material: Material,
    bc: DirichletBC,
    partition: ElementPartition,
    f_full: np.ndarray,
    mass_shift: tuple | None = None,
    comm_backend: str | None = None,
    chunk: int | None = None,
) -> EDDSystem:
    """Memory-bounded variant of :func:`build_edd_system`.

    Streams each subdomain's element contributions through
    :func:`repro.fem.assembly.iter_element_coo` in chunks of ``chunk``
    elements (default :data:`repro.fem.assembly.DEFAULT_CHUNK`), localizing
    and Dirichlet-filtering every chunk as it arrives — so peak memory per
    process is one chunk of COO entries plus the (sparse) per-subdomain
    CSRs, and **no process ever materializes the global stiffness CSR** or
    the full element-matrix array.  Pair with
    :func:`repro.fem.cantilever.cantilever_inputs` (which skips the serial
    verification assembly) for large-mesh runs.

    Bit-identity with :func:`build_edd_system` holds by construction: the
    streamed chunks concatenate to the exact entry arrays the monolithic
    assembler produces (``mass_shift`` streams all scaled stiffness chunks,
    then all scaled mass chunks, matching the monolithic concatenation
    order), so ``tocsr`` and everything downstream agree bitwise.
    """
    from repro.fem.assembly import DEFAULT_CHUNK, iter_element_coo

    if chunk is None:
        chunk = DEFAULT_CHUNK
    submap = build_subdomain_map(mesh, partition, bc)
    comm = make_comm(submap, backend=comm_backend)
    full_to_free = bc.full_to_free()

    a_local = []
    for s in range(partition.n_parts):
        elems = partition.subdomain_elements(s)
        g = submap.l2g[s]
        g2l = np.full(bc.n_free, -1, dtype=np.int64)
        g2l[g] = np.arange(len(g))
        lrows: list = []
        lcols: list = []
        ldata: list = []

        def consume(kind: str, scale: float | None) -> None:
            for rows, cols, data in iter_element_coo(
                mesh, material, kind, element_subset=elems, chunk=chunk
            ):
                r = full_to_free[rows]
                c = full_to_free[cols]
                keep = (r >= 0) & (c >= 0)
                lrows.append(g2l[r[keep]])
                lcols.append(g2l[c[keep]])
                kept = data[keep]
                ldata.append(kept if scale is None else scale * kept)

        if mass_shift is None:
            consume("stiffness", None)
        else:
            alpha, beta = mass_shift
            consume("stiffness", beta)
            consume("mass", alpha)
        local = COOMatrix(
            (len(g), len(g)),
            np.concatenate(lrows) if lrows else np.empty(0, dtype=np.int64),
            np.concatenate(lcols) if lcols else np.empty(0, dtype=np.int64),
            np.concatenate(ldata) if ldata else np.empty(0),
        )
        a_local.append(local.tocsr())

    return _finish_edd_system(submap, comm, a_local, bc, f_full)


def _finish_edd_system(
    submap: SubdomainMap,
    comm: Comm,
    a_local: list,
    bc: DirichletBC,
    f_full: np.ndarray,
) -> EDDSystem:
    """Shared PDE-independent tail of the EDD builders: distributed norm-1
    scaling (Algorithm 3), rhs ownership split, owner masks, and the
    stats reset that keeps setup communication out of the solve counters."""
    # Distributed norm-1 scaling (Algorithm 3): d_i = sum_s ||k_i^(s)||_1.
    d_tilde = [a.row_norms1() for a in a_local]
    d_hat = comm.interface_assemble(d_tilde)
    if any(np.any(d == 0.0) for d in d_hat):
        raise ValueError("zero scaled row; partition left an isolated DOF")
    d_parts = [1.0 / np.sqrt(d) for d in d_hat]
    # One-pass fused symmetric scaling: a single new matrix per subdomain
    # instead of the intermediate DA that scale_rows().scale_cols() builds.
    a_local = [a.scale_sym(d, d) for a, d in zip(a_local, d_parts)]

    f_free = f_full[bc.free]
    b_parts = _ownership_split(submap, f_free)
    b_local = [d * p for d, p in zip(d_parts, b_parts)]

    owner = np.full(submap.n_global, -1, dtype=np.int64)
    for s in range(submap.n_parts - 1, -1, -1):
        owner[submap.l2g[s]] = s
    owner_mask = [
        (owner[submap.l2g[s]] == s).astype(np.float64)
        for s in range(submap.n_parts)
    ]

    comm.reset_stats()
    return EDDSystem(
        submap=submap,
        comm=comm,
        a_local=a_local,
        b_local=b_local,
        d_parts=d_parts,
        owner_mask=owner_mask,
    )
