"""Where a distributed Krylov cycle runs: inline, or resident in the workers.

A distributed solve (:mod:`repro.core.edd`, :mod:`repro.core.rdd`) runs
its restart cycle through :class:`KrylovCycle`, over the one Arnoldi
step of :mod:`repro.sparse.arnoldi`, in one of two places:

* *inline*, in the orchestrator: each phase of the step runs in the
  driver call it belongs to, its per-rank bodies through
  :meth:`Comm.run_ranks` (virtual and chaos backends, and process
  communicators below the residency threshold);
* *resident*: :class:`ResidentEngine` ships each rank's CSR blocks with
  its part of the exchange plan, and the preconditioner's factor state,
  to the worker processes **once** (:meth:`ProcessComm.ship`, keyed by a
  generation id) and runs the cycle there as three **named rank ops** —
  ``seed`` opens a cycle, one ``step`` per Arnoldi step runs every phase
  of the step back to back, ``axpy`` updates ``x`` at the cycle's end.

A CGS solve — Algorithms 5, 6 and 8 as the paper lists them, one
right-hand side or a block — whose preconditioner :func:`step_program`
can express runs resident when :func:`rank_engine` says so: basis, ``z``
slots and work vectors never leave the workers and only the partial
rows of the step's reductions come back.  MGS, a preconditioner without
a program, and every residual run inline.  The ``chain`` op (one
polynomial apply) is issued by no solve and stays for
``bench/probes.py``.

Bit-identity contract
---------------------
Workers and inline solves run the same code: the step phases of
:mod:`repro.sparse.arnoldi`, the preconditioner bodies of
:mod:`repro.sparse.recurrences` and the column kernels of
:mod:`repro.sparse.dense`; the workers' ``⊕Σ∂Ω`` sums each shared DOF
in the order :meth:`Comm.interface_assemble` does and their reductions
pair rows as :meth:`Comm.allreduce_sum` does.  **All charging stays
orchestrator-side**: after a dispatch the orchestrator *replays* the
inline charging — the real ``allreduce_sum`` on the partial rows it
reads back, :meth:`Comm.charge_interface_assemble` /
:meth:`Comm.charge_halo_exchange` driven by the same preconditioner
program over charge-only ghost vectors, and the step's flops from
:func:`repro.sparse.arnoldi.flops`, the function the inline path charges
with.  So the returned floats are bitwise identical and ``CommStats``,
tracer exchange/reduction spans and message logs *exactly equal* to an
inline solve.  The chaos communicator is never resident, which keeps
fault injection at the orchestrator.

State lifecycle
---------------
A resident engine draws a fresh generation id per system; its states
ship under that key, a preconditioner's under a key of its own.  Before
every dispatch the engine asks :meth:`ProcessComm.ship` for each key it
needs, which ships only what the current pool does not hold — a respawn
(crash recovery, forced shutdown) forgets every key, so the engine
re-ships transparently.  A worker that receives a rank op for a
generation it does not hold, or a ``step`` or ``axpy`` for a cycle it
holds no basis of, raises, which surfaces as the pool's named error
taxonomy rather than silent garbage.
"""

from __future__ import annotations

import itertools
import weakref
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.core.distributed import DistVector
from repro.sparse import arnoldi
from repro.sparse.recurrences import run_program

__all__ = [
    "engine_mode",
    "rank_engine",
    "step_program",
    "StepRows",
    "KrylovCycle",
    "ResidentEngine",
]

#: Generation ids for resident system state; unique per engine instance
#: so a worker can never confuse two systems' CSR blocks.
_generations = itertools.count(1)

#: Worker-side keys of preconditioner state, one per preconditioner
#: object (held weakly): a preconditioner built where a dead one lived
#: never inherits its shipped factors.
_aux_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_aux_ids = itertools.count(1)

#: What :func:`rank_engine` returns for a system that runs inline.
INLINE = SimpleNamespace(resident=False)


def _aux_key(precond) -> str:
    key = _aux_keys.get(precond)
    if key is None:
        key = _aux_keys[precond] = f"aux-{next(_aux_ids)}"
    return key


def _width(tail: tuple) -> int:
    """Columns of parts with trailing shape ``tail``: 1 for ``()``."""
    return tail[0] if tail else 1


def engine_mode(comm, work_hint: int) -> str:
    """``"inline"`` or ``"resident"`` for this communicator.

    Resident iff ``comm`` is a live multi-rank :class:`ProcessComm` and
    ``work_hint`` (one matvec's scalar-op estimate) reaches its
    ``min_dispatch_work`` (``REPRO_PROCESS_MIN_WORK``; ``0`` forces
    residency).  The chaos communicator is not a ``ProcessComm`` and
    therefore always runs inline, keeping fault injection deterministic
    at the orchestrator.
    """
    from repro.parallel.process_comm import ProcessComm

    if (
        isinstance(comm, ProcessComm)
        and not comm._closed
        and comm.size > 1
        and int(work_hint) >= comm.min_dispatch_work
    ):
        return "resident"
    return "inline"


def rank_engine(system):
    """The engine of an EDD or RDD system: a :class:`ResidentEngine`
    whose state lives in the worker-process pool, or :data:`INLINE`
    (virtual/chaos, and small process systems).  The mode gate is
    re-evaluated on every call (a closed communicator falls back to
    inline); the engine is cached per mode so resident state ships once
    per system."""
    mode = engine_mode(system.comm, 2 * system.nnz_total)
    cached = system.__dict__.get("_engine")
    if cached is None or cached[0] != mode:
        engine = ResidentEngine(system) if mode == "resident" else INLINE
        cached = system.__dict__["_engine"] = (mode, engine)
    return cached[1]


def _layout(sizes: list) -> tuple:
    """``(sizes, offsets, total)`` of per-rank segments laid end to end
    in an arena region."""
    offsets = [0]
    for n in sizes:
        offsets.append(offsets[-1] + n)
    return sizes, offsets[:-1], offsets[-1]


def _btimeout(comm) -> float:
    """Spin-barrier deadline for fused multi-phase dispatches: generous
    (half the pipe timeout, at least a second) so a dead or stuck peer
    surfaces through the pool's named error taxonomy, never a deadlock."""
    return max(1.0, 0.5 * float(comm.call_timeout))


def _aux_states(precond) -> list:
    """What of a factor-state preconditioner ships to the workers.
    Block-Jacobi ILU0: each rank's combined L/U CSR factor plus the
    diagonal-position/split tables the backend ``ilu0_solve`` reads.
    Two-level: the small factorized Galerkin matrix, kept by every
    worker (rank None — the redundant-solve trade the inline path
    makes), plus each rank's restriction/prolongation basis blocks (both
    ship even where RDD aliases them, so worker-side entries stay
    uniform)."""
    from repro.precond.coarse import TwoLevelPreconditioner

    if not isinstance(precond, TwoLevelPreconditioner):
        return [
            {
                "rank": r,
                "arrays": {
                    "indptr": ilu._lu.indptr,
                    "indices": ilu._lu.indices,
                    "data": ilu._lu.data,
                    "diag_pos": ilu._diag_pos,
                    "split": ilu._split,
                },
            }
            for r, ilu in enumerate(precond._local)
        ]
    kind, factor = precond._factor
    if kind == "cho":
        c, lower = factor
        shared = {
            "rank": None, "arrays": {"fmat": c},
            "meta": {"fkind": "cho", "lower": bool(lower)},
        }
    else:
        lu, piv = factor
        shared = {
            "rank": None, "arrays": {"fmat": lu, "piv": piv.astype(np.int64)},
            "meta": {"fkind": "lu"},
        }
    return [shared] + [
        {"rank": r, "arrays": {"wl": wl, "wg": wg}}
        for r, (wl, wg) in enumerate(
            zip(precond._wl_parts, precond._wg_parts)
        )
    ]


def _csr_arrays(name: str, a) -> dict:
    """The arrays of CSR matrix ``a`` as a worker rebuilds it under
    ``name`` (see the ``csr`` entry of a state's metadata)."""
    return {
        f"{name}_indptr": a.indptr,
        f"{name}_indices": a.indices,
        f"{name}_data": a.data,
    }


class _ChargeVec:
    """Charge-only ghost vector for replaying a preconditioner program.

    After a ``step`` (or ``chain``) dispatch the orchestrator runs the
    dispatched program through the shared interpreter
    (:func:`repro.sparse.recurrences.run_program`) on one of these:
    every vector op charges precisely what the inline
    distributed vector charges per rank — ``axpy`` flops per element for
    ``+``/``-`` (1 for EDD :class:`DistVector`, 2 for the RDD axpy
    parts), one per element for scalar ``*``, nothing for ``copy`` — so
    CommStats can never drift from the inline path, even if a recurrence
    changes shape.  ``sizes`` are per-rank element counts (rows times
    columns for a block).
    """

    __slots__ = ("comm", "sizes", "axpy")

    def __init__(self, comm, sizes, axpy):
        self.comm = comm
        self.sizes = sizes
        self.axpy = axpy

    def copy(self):
        return self

    def _charge(self, per_elem):
        for r, n in enumerate(self.sizes):
            self.comm.add_flops(r, per_elem * n)
        return self

    def __add__(self, other):
        return self._charge(self.axpy)

    def __sub__(self, other):
        return self._charge(self.axpy)

    def __mul__(self, scalar):
        return self._charge(1)

    __rmul__ = __mul__


def _edd_states(system) -> list:
    """Per rank: :math:`\\hat A^{(s)}`, the owner mask and the rank's
    part of the interface plan its ``⊕Σ∂Ω`` runs on."""
    iface = system.comm.interface_plan()["ranks"]
    return [
        {
            "rank": r,
            "arrays": dict(_csr_arrays("a", a), mask=mask),
            "meta": {"csr": {"a": tuple(a.shape)}, "iface": iface[r]},
        }
        for r, (a, mask) in enumerate(zip(system.a_local, system.owner_mask))
    ]


def _rdd_states(system) -> list:
    """Per rank: the Eq. 48 blocks and the rank's part of the halo plan
    — per neighbour ``t`` the indices ``t`` sends and the slots they land
    in — plus its external-buffer length, sized by the rule of
    :meth:`Comm.halo_exchange` (max referenced slot + 1) so worker-side
    halo fills allocate identical buffers."""
    plan = system.plan
    states = []
    for s, (a_loc, a_ext) in enumerate(zip(system.a_loc, system.a_ext)):
        halo = [
            (int(t), np.asarray(plan[t][s][0]), np.asarray(recv))
            for t, (_, recv) in plan[s].items()
        ]
        ext = max(
            (int(recv.max()) + 1 for _, _, recv in halo if len(recv)),
            default=0,
        )
        states.append({
            "rank": s,
            "arrays": dict(
                _csr_arrays("a_loc", a_loc), **_csr_arrays("a_ext", a_ext)
            ),
            "meta": {
                "csr": {
                    "a_loc": tuple(a_loc.shape), "a_ext": tuple(a_ext.shape),
                },
                "halo": halo,
                "ext": ext,
            },
        })
    return states


class StepRows(NamedTuple):
    """What one fused ``step`` dispatch hands back: the partial rows of
    its reductions, one entry per rank."""

    #: ``n_coarse`` words per column (empty without a two-level
    #: preconditioner).
    coarse: list
    #: The ``j + 1`` CGS coefficients ``<v_i, w>`` per column.
    arn: list
    #: ``<w, w>`` after the orthogonalization: a scalar per rank, or a
    #: ``(k,)`` row for a block.
    norm: list


def step_program(precond):
    """The preconditioner as a program the workers' ``step`` op runs —
    nested tuples ``("copy",)``, ``("chain", kind, params)``,
    ``("ilu0", key)``, ``("2l", mode, key, n_coarse, inner)`` — plus
    the preconditioners whose resident state it reads (shipped with
    :meth:`ResidentEngine.ensure_aux`) and the coarse dimension.  The
    workers and the charge replay both run it through
    :func:`repro.sparse.recurrences.run_program`.  None
    when some part has no worker-side form (a polynomial family without
    ``chain_terms``, a user-supplied object): such a solve runs
    inline."""
    from repro.precond.base import PolynomialPreconditioner
    from repro.precond.block_jacobi import BlockJacobiILU
    from repro.precond.coarse import TwoLevelPreconditioner

    aux: list = []
    n_coarse = 0

    def build(pc):
        nonlocal n_coarse
        if pc is None:
            return ("copy",)
        if isinstance(pc, TwoLevelPreconditioner):
            inner = build(pc._inner)
            if inner is None or pc._trivial:
                return inner
            aux.append(pc)
            n_coarse = pc.n_coarse
            return ("2l", pc._spec.mode, _aux_key(pc), n_coarse, inner)
        if isinstance(pc, BlockJacobiILU):
            aux.append(pc)
            return ("ilu0", _aux_key(pc))
        if isinstance(pc, PolynomialPreconditioner):
            terms = pc.chain_terms()
            return None if terms is None else ("chain",) + terms
        return None

    program = build(precond)
    return None if program is None else (program, aux, n_coarse)


# ----------------------------------------------------------------------
# The cycle
# ----------------------------------------------------------------------
class KrylovCycle:
    """The restart-cycle half of an EDD or RDD Krylov space, inline or
    resident.  The space supplies ``formats`` (EDD carries each vector
    local- *and* global-distributed, RDD in one format), ``residual``,
    ``solutions`` and, for the inline strategy, ``_apply`` (the
    preconditioner on per-rank parts), ``ops`` (the
    :func:`repro.sparse.arnoldi.matvec` callables) and ``_mgs``; it calls
    :meth:`_open` from ``start_cycle`` and :meth:`_flush` from
    ``residual``.

    ``plan`` — the solve's :func:`step_program` result — is given iff
    the cycle is resident.  Then one Arnoldi step is ONE ``step``
    dispatch, issued by :meth:`precondition` so its wall time lands in
    the driver's ``precond_apply`` span, and the three driver calls of a
    step replay, each inside its own span, what their inline
    counterparts charge and reduce.  Inline, each driver call runs its
    phase of the step.

    Columns are tracked by id: ``cols`` are the live ones in the
    driver's position order, ``layout`` the order the rank state's
    blocks hold them in.  The two differ from a retirement until the
    next step, whose commit compacts the blocks to the positions it
    keeps and sets the retired columns' ``z`` slots aside (``saved``);
    every ``x`` update the cycle owes (``pending``) is applied at its end
    in one pass."""

    basic = False
    cgs = True
    pending: tuple | list = ()

    def __init__(self, system, precond, restart, plan, sizes):
        self.system = system
        self.precond = precond
        self.restart = restart
        self.plan = plan
        self.comm = system.comm
        self.stats = system.comm.stats
        self.sizes = sizes
        self.engine = None if plan is None else system.rank_engine()
        #: Inline, each rank's Krylov state (see :mod:`repro.sparse.arnoldi`).
        self.ranks = [{} for _ in sizes]

    def _charge(self, per_row) -> None:
        for r, n in enumerate(self.sizes):
            self.comm.add_flops(r, per_row * n)

    def _reduce(self, partial):
        rows = [partial[r] for r in range(len(self.sizes))]
        return self.comm.allreduce_sum(rows, words=np.size(rows[0]))

    def _open(self, cols, v0) -> None:
        """Open a cycle on column ids ``cols``: ``v0`` is ``v_0``, one
        parts list per format."""
        self.block = v0[0][0].ndim == 2
        self.cols = list(cols)
        self.layout = list(cols)
        self.saved: list = []
        self.pending = []
        if self.plan is not None:
            self.engine.seed_basis(self.restart, *v0)
            return
        ranks, restart = self.ranks, self.restart
        self.comm.run_ranks(
            lambda r: arnoldi.open_cycle(ranks[r], restart, [v[r] for v in v0])
        )

    def precondition(self, j):
        """Commit ``v_j`` (compacting retired columns) and ``z_j = C
        v_j`` — resident: dispatch step ``j``, all of it, and replay
        what the preconditioner charges."""
        keep = inv_h = None
        if self.layout != self.cols:
            keep = [self.layout.index(c) for c in self.cols]
            self.saved += [c for c in self.layout if c not in self.cols]
            self.layout = list(self.cols)
        if j:
            inv_h = [self.inv_h[c] for c in self.cols]
            if not self.block:
                inv_h = inv_h[0]
        self.tail = (len(self.cols),) if self.block else ()
        if self.plan is not None:
            self.rows = self.engine.step(
                j, inv_h, keep, self.plan, self.basic, self.tail
            )
            self.engine.replay_precondition(
                self.plan, self.rows.coarse, self.tail
            )
            return
        ranks = self.ranks
        if inv_h is not None:
            self.comm.run_ranks(
                lambda r: arnoldi.commit(ranks[r], j, keep, inv_h)
            )
        self.z = self._apply([e["basis"][-1][j] for e in ranks])

    def matvec(self, j):
        """``w = A z_j`` and its exchange (resident: their charges)."""
        if self.plan is None:
            self.z, self.w = arnoldi.matvec(self.z, *self.ops)
            return
        if self.basic:
            self.comm.charge_interface_assemble(self.tail)
        self.engine.charge_operator(self.tail)

    def orthogonalize(self, j):
        """The CGS round and the norm — resident: the step's two
        reductions, for real, on the workers' partial rows (identical
        tree pairing, so identical bits to the ``h`` the workers
        orthogonalized with); returns the ``(j + 2, live)`` Hessenberg
        columns."""
        if not self.cgs:
            return self._mgs(j)
        comm, tail = self.comm, self.tail
        c = _width(tail)
        h = np.empty((j + 2,) + tail)
        if self.plan is None:
            each = comm.run_ranks
            h[: j + 1] = arnoldi.cgs(
                each, self.ranks, j, self.w, self._reduce, self.z
            )
            norm = arnoldi.norm(
                each, self.ranks, self.w, self._reduce, self.ops[2]
            )
        else:
            rows = self.rows
            h[: j + 1] = comm.allreduce_sum(
                rows.arn, words=(j + 1) * c
            ).reshape((j + 1,) + tail)
            if self.basic:
                comm.charge_interface_assemble(tail)
            norm = comm.allreduce_sum(rows.norm, words=c)
        self._charge(c * (
            arnoldi.flops("coef", j) + arnoldi.flops("ortho", j, self.formats)
            + arnoldi.flops("norm")
        ))
        h[j + 1] = np.sqrt(np.maximum(norm, 0.0))
        return h.reshape(j + 2, -1)

    def retire(self, pos, col, y):
        """Column ``col`` leaves at live position ``pos``: its update
        waits for the cycle's end, its slots for the next commit."""
        self.pending.append((col, [y]))
        del self.cols[pos]

    def commit(self, j, keep, h_next):
        """``v_{j+1} = w / h_next``: charged now, done at the head of
        the next step, which knows the positions ``w`` keeps."""
        self.inv_h = dict(zip(self.cols, (1.0 / h_next).tolist()))
        self._charge(
            arnoldi.flops("commit", formats=self.formats) * len(self.cols)
        )

    def update(self, cols, ys):
        """The columns that rode out the cycle: one batched term of the
        cycle's ``x`` update."""
        self.pending.append((list(cols), ys))

    def _flush(self, x_parts):
        """Apply every ``x`` update the cycle owes in one pass (resident:
        ONE ``axpy``), each with the ``(cols, sel)`` arguments of
        :func:`~repro.sparse.dense.add_columns` (a retired column: its id
        and position, or its set-aside slots); returns the updated
        parts."""
        terms = []
        for cols, ys in self.pending:
            if isinstance(cols, list):
                sel = [self.layout.index(c) for c in cols]
                terms.append((np.asarray(cols), sel, ys, None))
            elif cols in self.saved:
                terms.append((cols, 0, ys, self.saved.index(cols)))
            else:
                terms.append((cols, self.layout.index(cols), ys, None))
        self.pending = []
        terms = [t for t in terms if np.shape(t[2])[1]]
        if not terms:
            return x_parts
        if self.plan is not None:
            x_parts = self.engine.axpy_update(x_parts, terms)
        else:
            ranks = self.ranks
            self.comm.run_ranks(
                lambda r: arnoldi.add_x(ranks[r], x_parts[r], terms)
            )
        for _cols, _sel, ys, _saved in terms:
            n_cols, m = np.shape(ys)
            self._charge(2 * m * n_cols)
        return x_parts


# ----------------------------------------------------------------------
# The resident engine
# ----------------------------------------------------------------------
class ResidentEngine:
    """State shipping, command dispatch and charge replay of a
    worker-resident EDD or RDD system — the ``seed`` / ``step`` /
    ``axpy`` rank ops a resident :class:`KrylovCycle` issues.

    The two decompositions differ only in data: what ships (EDD
    :math:`\\hat A^{(s)}` blocks, owner masks and the interface plan;
    RDD the Eq. 48 blocks and the halo plan), what one operator
    application charges, ``formats`` (parts lists per vector: EDD 2, RDD
    1), ``axpy_flops`` (what ``y + x`` charges per element) and
    ``slot_words`` (the words of one exchange slot per column: EDD one
    exchange publishes every rank's interface DOFs, packed; RDD every
    rank's whole operand).  The replay methods take ``tail``, the
    trailing shape of the step's parts (``()``, or ``(k,)`` for ``k``
    live columns).
    """

    resident = True

    def __init__(self, system):
        self.system = system
        self.gen = next(_generations)
        self.mode = "edd" if hasattr(system, "a_local") else "rdd"
        if self.mode == "edd":
            sizes = [len(p) for p in system.d_parts]
            self.slot_words = system.comm.interface_plan()["words"]
            self.formats, self.axpy_flops = 2, 1
        else:
            sizes = [len(o) for o in system.own]
            self.slot_words = sum(sizes)
            self.formats, self.axpy_flops = 1, 2
        self.sizes, self.offsets, self.n_total = _layout(sizes)

    # -- shipping ------------------------------------------------------
    def ensure_shipped(self) -> None:
        """Ship each rank's system state — its CSR blocks and its part
        of the exchange plan — unless the current pool holds this
        generation (a respawned pool re-ships here)."""
        states = _edd_states if self.mode == "edd" else _rdd_states
        self.system.comm.ship(self.gen, lambda: states(self.system))

    def ensure_aux(self, precond) -> None:
        """Ship a preconditioner's resident state (ILU factors, coarse
        bases and the factorized Galerkin matrix) unless the current
        pool holds it."""
        key = _aux_key(precond)
        self.system.comm.ship(key, lambda: _aux_states(precond), aux=key)

    def ship_precond(self, precond) -> None:
        """Ship the state every part of ``precond``'s step program reads
        (nothing for a preconditioner without a program: its solves run
        inline)."""
        plan = step_program(precond)
        for pc in plan[1] if plan is not None else ():
            self.ensure_aux(pc)

    def _dispatch(self, payload, writes, reads, total_words):
        from repro.sparse.kernels import active_backend_name

        self.ensure_shipped()
        payload = dict(
            payload,
            gen=self.gen,
            backend=active_backend_name(),
            mode=self.mode,
            offsets=self.offsets,
            sizes=self.sizes,
        )
        return self.system.comm.run_rank_op(payload, writes, reads, total_words)

    def _fused(self, payload, words, writes, reads):
        """Dispatch a fused op: ``words`` are the arena words its own
        regions take; the barrier flags (zeroed here) follow them."""
        comm = self.system.comm
        nflags = comm.pool_width()
        payload = dict(
            payload, flags=words, nflags=nflags, btimeout=_btimeout(comm),
            slot_words=self.slot_words,
        )
        writes = writes + [(words, np.zeros(nflags))]
        return self._dispatch(payload, writes, reads, words + nflags)

    def _vec_writes(self, parts, base=0, k=1):
        return [
            (base + off * k, p) for off, p in zip(self.offsets, parts)
        ]

    def _vec_reads(self, base, k=1):
        return [
            (base + off * k, n * k)
            for off, n in zip(self.offsets, self.sizes)
        ]

    def _row_reads(self, base, m):
        """Reads of ``(P, m)`` partial rows laid end to end at ``base``."""
        return [(base + r * m, m) for r in range(len(self.sizes))]

    # -- charge replay -------------------------------------------------
    def charge_operator(self, tail=()) -> None:
        """What one application of the communicating operator charges
        inline: EDD ``matvec_assembled``, RDD ``RDDSystem.matvec``."""
        system = self.system
        comm = system.comm
        c = _width(tail)
        if self.mode == "edd":
            for r, a in enumerate(system.a_local):
                comm.add_flops(r, 2 * a.nnz * c)
            comm.charge_interface_assemble(tail)
            return
        comm.charge_halo_exchange(system.plan, tail)
        for r, n in enumerate(self.sizes):
            comm.add_flops(r, 2 * system.a_loc[r].nnz * c)
            if system.a_ext[r].shape[1]:
                comm.add_flops(r, 2 * system.a_ext[r].nnz * c + n * c)

    def _replay_coarse(self, tl, rows, tail) -> None:
        """Replay the inline charging of one coarse correction around
        the real coarse allreduce on the workers' partial ``rows`` — the
        correction still costs exactly ONE reduction of ``n_coarse``
        words per column, and chaos plans aimed at it keep firing."""
        comm = self.system.comm
        p = len(self.sizes)
        nc, c = tl.n_coarse, _width(tail)
        trc = comm.tracer
        if trc.enabled:
            trc.begin("coarse_solve", "solver", n_coarse=nc, k=c)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wl_parts[r].size * c)
        comm.allreduce_sum(rows, words=nc * c)
        comm.add_flops_all([2 * nc * nc * c] * p)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wg_parts[r].size * c)
        if trc.enabled:
            trc.end()

    def replay_precondition(self, plan, rows, tail=()) -> None:
        """What a step's ``z_j = C v_j`` charges inline: the step's
        program (``plan`` is its :func:`step_program` result) run by the
        shared interpreter over a charge-only ghost, with an operator, a
        coarse solve and ILU0 solves that only charge — the coarse one
        around the real allreduce of ``rows``, the step's coarse partial
        rows (:attr:`StepRows.coarse`)."""
        program, aux, _nc = plan
        levels = {_aux_key(pc): pc for pc in aux}
        comm = self.system.comm
        c = _width(tail)
        vec = _ChargeVec(comm, [n * c for n in self.sizes], self.axpy_flops)

        def operator(u):
            self.charge_operator(tail)
            return u

        def coarse(key, u):
            self._replay_coarse(levels[key], rows, tail)
            return u

        def ilu0(_key, u):
            # What one ``BlockJacobiILU.apply_parts`` charges inline.
            for r, a in enumerate(self.system.a_loc):
                comm.add_flops(r, 2 * a.nnz * c)
            return u

        run_program(program, vec, operator, coarse, ilu0)

    # -- the resident Krylov cycle -------------------------------------
    def seed_basis(self, restart, *v0) -> None:
        """Open a cycle of at most ``restart`` steps in the workers:
        their basis becomes the cycle's first vector (one parts list per
        format; ``(n, k)`` parts open a block of ``k`` columns)."""
        k = v0[0][0].shape[1] if v0[0][0].ndim == 2 else None
        c = k or 1
        n = self.n_total * c
        writes = []
        for f, parts in enumerate(v0):
            writes += self._vec_writes(parts, base=f * n, k=c)
        self._dispatch(
            {
                "name": "seed", "restart": int(restart),
                "formats": self.formats, "k": k,
            },
            writes,
            [],
            self.formats * n,
        )

    def step(self, j, inv_h, keep, plan, basic=False, tail=()) -> StepRows:
        """Arnoldi step ``j`` as ONE dispatch: the workers commit
        ``v_j`` (``inv_h``: one scalar per column, None at ``j == 0``;
        ``keep``: the positions that stay, None for all), apply the
        preconditioner program, multiply, exchange, orthogonalize and
        take the norm dot, meeting in the arena where they need each
        other.  ``plan`` is this solve's :func:`step_program` result,
        ``tail`` the trailing shape of the step's parts."""
        program, aux, nc = plan
        for precond in aux:
            self.ensure_aux(precond)
        p, c = len(self.sizes), _width(tail)
        m = (j + 1) * c
        arn = 2 * self.slot_words * c
        norm = arn + p * m
        coarse = norm + p * c
        payload = {
            "name": "step",
            "j": int(j),
            "k": tail[0] if tail else None,
            "keep": keep,
            "commit": inv_h,
            "basic": bool(basic),
            "program": program,
            "slots": 0,
            "arn_rows": arn,
            "norm_rows": norm,
            "coarse_rows": coarse,
        }
        reads = (
            self._row_reads(coarse, nc * c) + self._row_reads(arn, m)
            + [(norm, p * c)]
        )
        outs = self._fused(payload, coarse + p * nc * c, [], reads)
        return StepRows(
            outs[:p], outs[p:2 * p], list(outs[2 * p].reshape((p,) + tail))
        )

    def axpy_update(self, x, terms):
        """The cycle's solution update against the workers' ``z``
        slots: :func:`repro.sparse.arnoldi.add_x` with ``terms`` in ONE
        dispatch; only ``x`` and the coefficients cross the boundary.
        Returns the new ``x`` parts."""
        k = x[0].shape[1] if x[0].ndim == 2 else None
        c = k or 1
        out = self._dispatch(
            {"name": "axpy", "k": k, "terms": terms},
            self._vec_writes(x, k=c), self._vec_reads(0, c), self.n_total * c,
        )
        return [o.reshape(xp.shape) for o, xp in zip(out, x)]

    def poly_chain(self, precond, terms, v_hat):
        """One polynomial apply ``z = P(A) v_hat`` on a global-distributed
        EDD vector as ONE ``chain`` dispatch: the workers run the
        recurrence (``terms`` is ``precond.chain_terms()``) against their
        resident blocks, exchanging peer to peer once per degree; the
        inline charging is replayed afterwards.  No solve calls this:
        ``bench/probes.py`` times the preconditioner through it, so it
        keeps this signature until that probe is re-pointed."""
        n = self.n_total
        kind, params = terms
        payload = {
            "name": "chain", "kind": kind, "params": params,
            "out": n, "slots": 2 * n,
        }
        out = self._fused(
            payload, 2 * n + 2 * self.slot_words,
            self._vec_writes(v_hat.parts), self._vec_reads(n),
        )
        self.replay_precondition((("chain",) + tuple(terms), [], 0), None)
        return DistVector(out, "global", self.system.comm)
