"""Rank-operation engines: inline execution vs. worker-resident execution.

A distributed Krylov solve (:mod:`repro.core.edd`, :mod:`repro.core.rdd`)
runs its per-rank arithmetic in one of two places:

* *inline*, in the orchestrator through :meth:`Comm.run_ranks` (virtual
  and chaos backends, and process communicators below the residency
  threshold) — :class:`RankEngine` holds the CGS coefficient round;
* *resident*: :class:`ResidentEDDEngine` / :class:`ResidentRDDEngine`
  ship each rank's CSR blocks and the preconditioner's factor state to
  its owning worker process **once** (keyed by a generation id) and run
  the restart cycle there as three **named rank ops** — ``seed`` opens a
  cycle, one ``step`` per Arnoldi step does all of the step's arithmetic,
  ``axpy`` updates ``x`` at the cycle's end.  Their base
  :class:`ResidentEngine` carries shipping, dispatch and charge replay;
  the subclasses what to ship and what one operator application
  charges.

A CGS solve — Algorithms 5, 6 and 8 as the paper lists them, one
right-hand side or a block — whose preconditioner :func:`step_program`
can express runs resident (:class:`ResidentCycle`): basis, ``z`` slots
and work vectors never leave the workers, 1-D parts stay 1-D, and the
workers precondition, multiply, exchange peer to peer through the arena,
orthogonalize and take the norm dot back to back; only the partial rows
of the step's reductions come back.  A block column that leaves
mid-cycle is compacted out at the head of the next step and its ``x``
update rides in the cycle's ``axpy``.  Everything else — MGS, a
preconditioner without a program, every residual — runs inline.  Outside
this package only ``_make_space`` and ``PreparedSystem.build`` ask
whether an engine is ``resident``; the ``chain`` op (one polynomial
apply) is issued by no solve and stays for ``bench/probes.py``.

Bit-identity contract
---------------------
Worker-side arithmetic mirrors the inline bodies token for token (same
numpy expressions, same association order, the same
:func:`~repro.core.distributed.col_dots` and
:func:`~repro.core.distributed.add_columns`), the workers' ``⊕Σ∂Ω`` sums
each shared DOF in the order :meth:`Comm.interface_assemble` does, a
retired column is dropped with the inline ``np.delete`` (so later column
dots read the same strides), and **all charging stays
orchestrator-side**: after a dispatch the orchestrator *replays* the
inline charging — the real ``allreduce_sum`` on the partial rows it
reads back, and :meth:`Comm.charge_interface_assemble` /
:meth:`Comm.charge_halo_exchange` driven by the actual polynomial
recurrence over charge-only ghost vectors.  So the returned floats are
bitwise identical and ``CommStats``, tracer exchange/reduction spans and
message logs *exactly equal* to an inline solve.  The chaos communicator
is never resident, which keeps fault injection at the orchestrator.

State lifecycle
---------------
A resident engine draws a fresh generation id per system.  Before every
dispatch it checks :meth:`ProcessComm.resident_ready` — which acquires
the pool first, so a respawn (crash recovery, forced shutdown) honestly
invalidates the generation and the engine re-ships transparently.  A
worker that receives a rank op for an unknown generation, or a ``step``
or ``axpy`` for a cycle it holds no basis of, raises, which surfaces as
the pool's named error taxonomy rather than silent garbage.
"""

from __future__ import annotations

import itertools
import weakref
from typing import NamedTuple

import numpy as np

from repro.core.distributed import DistVector, col_dots

__all__ = [
    "engine_mode",
    "step_program",
    "StepRows",
    "ResidentCycle",
    "RankEngine",
    "ResidentEngine",
    "ResidentEDDEngine",
    "ResidentRDDEngine",
]

#: Generation ids for resident system state; unique per engine instance
#: so a worker can never confuse two systems' CSR blocks.
_generations = itertools.count(1)

#: Worker-side keys of preconditioner state, one per preconditioner
#: object (held weakly): a preconditioner built where a dead one lived
#: never inherits its shipped factors.
_aux_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_aux_ids = itertools.count(1)


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
    diagonal-position/split tables the backend ``ilu0_solve`` reads
    (``aux``, kept by the owning worker).  Two-level: the small
    factorized Galerkin matrix, broadcast to every worker
    (``aux_shared`` — the redundant-solve trade the inline path makes),
    plus each rank's restriction/prolongation basis blocks (both ship
    even where RDD aliases them, so worker-side keys stay uniform)."""
    from repro.precond.coarse import TwoLevelPreconditioner

    key = _aux_key(precond)
    if not isinstance(precond, TwoLevelPreconditioner):
        return [
            {
                "kind": "aux",
                "arrays": {
                    "indptr": ilu._lu.indptr,
                    "indices": ilu._lu.indices,
                    "data": ilu._lu.data,
                    "diag_pos": ilu._diag_pos,
                    "split": ilu._split,
                },
                "meta": {"rank": r, "key": key},
            }
            for r, ilu in enumerate(precond._local)
        ]
    kind, factor = precond._factor
    if kind == "cho":
        c, lower = factor
        arrays = {"fmat": c}
        meta = {"key": key, "fkind": "cho", "lower": bool(lower)}
    else:
        lu, piv = factor
        arrays = {"fmat": lu, "piv": piv.astype(np.int64)}
        meta = {"key": key, "fkind": "lu"}
    return [{"kind": "aux_shared", "arrays": arrays, "meta": meta}] + [
        {
            "kind": "aux",
            "arrays": {"wl": wl, "wg": wg},
            "meta": {"rank": r, "key": key},
        }
        for r, (wl, wg) in enumerate(
            zip(precond._wl_parts, precond._wg_parts)
        )
    ]


class _ChargeVec:
    """Charge-only ghost vector for replaying a polynomial recurrence.

    After a ``step`` (or ``chain``) dispatch the orchestrator re-runs
    the *exact* preconditioner recurrence (`apply_linear` itself) on one
    of these: every vector op charges precisely what the inline
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


# ----------------------------------------------------------------------
# The inline engine
# ----------------------------------------------------------------------
class RankEngine:
    """The inline engine — what ``rank_engine()`` returns unless the
    system is resident: the CGS Arnoldi coefficient round as per-rank
    closures through ``Comm.run_ranks``, in the orchestrator.

    ``basis`` and ``w`` hold one entry per vector format — EDD
    ``(local, global)``, RDD one — as per-rank parts (``basis[f][i]`` is
    basis vector ``i``), all ``(n,)`` vectors or all ``(n, k)`` blocks.
    The dots pair the first format's basis with the last format's ``w``:
    the mixed-format inner product of Eq. 33 for EDD, the plain Eq. 47
    one for RDD.
    """

    resident = False

    def __init__(self, system):
        self.system = system

    def arnoldi_step(self, j, h, basis, w):
        """One CGS round: fused partial dots (per column for blocks, each
        the ddot the vector round performs), ONE allreduce of ``j + 1``
        words per column for all columns, then ``w[f] -= sum_i h[i] *
        basis[f][i]`` per rank and format (a row of ``h`` broadcasts over
        a block's columns).  Returns the orthogonalized ``w``, one parts
        list per format."""
        comm = self.system.comm
        v_dot, w_dot = basis[0], w[-1]
        partial = np.empty((comm.size, j + 1) + w_dot[0].shape[1:])

        def dots_body(r: int) -> None:
            wr = w_dot[r]
            for i in range(j + 1):
                partial[r, i] = col_dots(v_dot[i][r], wr)
            comm.add_flops(r, 2 * (j + 1) * wr.size)

        comm.run_ranks(dots_body)
        h[: j + 1] = comm.allreduce_sum(list(partial), words=partial[0].size)
        nf = len(w)
        new_w = [[None] * len(w[0]) for _ in range(nf)]

        def ortho_body(r: int) -> None:
            for f in range(nf):
                wr = w[f][r]
                for i in range(j + 1):
                    wr = wr - h[i] * basis[f][i][r]
                new_w[f][r] = wr
            comm.add_flops(r, 2 * nf * (j + 1) * w[0][r].size)

        comm.run_ranks(ortho_body)
        return new_w


# ----------------------------------------------------------------------
# The resident cycle
# ----------------------------------------------------------------------
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
    :meth:`ResidentEngine.ensure_aux`) and the coarse dimension.  None
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


class ResidentCycle:
    """The half of a Krylov space whose restart cycle lives in the
    workers (mixed into ``_ResidentEDDSpace`` / ``_ResidentRDDSpace``,
    which supply ``engine``, ``precond``, ``restart``, ``plan`` and, for
    Algorithm 5, ``basic``, and call :meth:`_seed` from ``start_cycle``
    and :meth:`_flush` from ``residual``).  One Arnoldi step is ONE
    ``step`` dispatch, issued by :meth:`precondition` — so its wall time
    lands in the driver's ``precond_apply`` span — and the three driver
    calls of a step replay, each inside its own span, what their inline
    counterparts charge and reduce.

    Columns are tracked by id: ``cols`` are the live ones in the
    driver's position order, ``layout`` the order the workers' blocks
    hold them in.  The two differ from a retirement until the next
    step, whose dispatch carries the positions to keep; the workers set
    the retired columns' ``z`` slots aside (``saved``) for the cycle's
    one ``axpy``, which applies every ``x`` update the cycle owes
    (``pending``)."""

    basic = False
    pending: tuple | list = ()

    def _seed(self, cols, *v0) -> None:
        self.engine.seed_basis(self.restart, *v0)
        self.block = v0[0][0].ndim == 2
        self.cols = list(cols)
        self.layout = list(cols)
        self.saved: list = []
        self.pending = []

    def precondition(self, j):
        """Dispatch step ``j`` — all of it — and replay what
        ``z_j = C v_j`` charges inline."""
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
        self.rows = self.engine.step(
            j, inv_h, keep, self.plan, self.basic, self.tail
        )
        self.engine.replay_precondition(
            self.precond, self.rows.coarse, self.tail
        )

    def matvec(self, j):
        """Replay what ``w = A z_j`` and its exchange charge inline."""
        self.engine.replay_matvec(self.basic, self.tail)

    def orthogonalize(self, j):
        """The step's two reductions on the workers' partial rows;
        returns the ``(j + 2, live)`` Hessenberg columns."""
        return self.engine.replay_orthogonalize(
            j, self.rows, self.basic, self.tail
        )

    def retire(self, pos, col, y):
        """Column ``col`` leaves at live position ``pos``: its update
        waits for the cycle's ``axpy``, its slots for the next step."""
        self.pending.append((col, [y]))
        del self.cols[pos]

    def commit(self, j, keep, h_next):
        """``v_{j+1} = w / h_next``: the workers do it at the head of
        the next step's dispatch, which carries the scalars (and the
        positions ``w`` keeps)."""
        self.inv_h = dict(zip(self.cols, (1.0 / h_next).tolist()))
        self.engine.charge_commit(len(self.cols))

    def update(self, cols, ys):
        """The columns that rode out the cycle: one batched term of the
        cycle's ``axpy``."""
        self.pending.append((list(cols), ys))

    def _flush(self, x_parts):
        """Apply every ``x`` update the cycle owes in ONE ``axpy``, each
        with the ``(cols, sel)`` arguments of the inline update (a
        retired column: its id and live position, or its set-aside
        slots); returns the updated parts."""
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
        return self.engine.axpy_update(x_parts, terms)


# ----------------------------------------------------------------------
# Resident engines
# ----------------------------------------------------------------------
class ResidentEngine(RankEngine):
    """What the EDD and RDD resident engines share: state shipping,
    command dispatch, charge replay and the worker-resident Krylov
    cycle of CGS FGMRES — ``seed`` / ``step`` / ``axpy``.

    In a resident cycle the basis, the ``z`` slots and the work vectors
    live in the workers (allocated at the first ``seed`` of a system,
    reused afterwards) and one Arnoldi step is ONE ``step`` dispatch.
    The orchestrator keeps the iterate and computes the residual,
    nothing else; per step only the partial rows of the step's
    reductions come back, and it replays on them — in the driver's
    ``precond_apply`` / ``matvec`` / ``orthogonalize`` order — the real
    ``allreduce_sum`` and the charge-only collectives, so ``CommStats``,
    exchange and reduction spans and the per-iteration metric deltas are
    the inline ones.  The replay methods take ``tail``, the trailing
    shape of the step's parts (``()``, or ``(k,)`` for ``k`` live
    columns).  ``formats`` is how many parts lists a vector has (EDD
    carries each basis vector local- *and* global-distributed, RDD
    vectors have one format); ``axpy_flops`` what ``y + x`` charges per
    element.
    """

    resident = True
    formats = 1
    axpy_flops = 2
    mode = "rdd"

    def __init__(self, system, sizes, slot_words):
        super().__init__(system)
        self.gen = next(_generations)
        self.sizes, self.offsets, self.n_total = _layout(sizes)
        #: Words of one exchange slot of a fused op (per column): what
        #: the ranks publish for their peers in one exchange.
        self.slot_words = slot_words
        self._aux_sent: set = set()

    # -- shipping ------------------------------------------------------
    def ensure_shipped(self) -> None:
        """Ship the per-rank CSR blocks unless the current pool already
        holds this generation (a respawned pool re-ships here)."""
        comm = self.system.comm
        if not comm.resident_ready(self.gen):
            self._ship()
            self._aux_sent.clear()

    def ensure_aux(self, precond) -> None:
        """Ship a preconditioner's resident state (ILU factors, coarse
        bases and the factorized Galerkin matrix) once per pool
        generation; a pool respawn invalidates the generation, so the
        next dispatch re-ships the base system *and* every aux state."""
        self.ensure_shipped()
        key = _aux_key(precond)
        if key in self._aux_sent:
            return
        comm = self.system.comm
        trc = comm.tracer
        if trc.enabled:
            trc.begin("resident_ship", "phase", aux=key)
        try:
            comm.resident_ship_aux(self.gen, _aux_states(precond))
        finally:
            if trc.enabled:
                trc.end()
        self._aux_sent.add(key)

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
            slot_words=self.slot_words, **self._peer_args(),
        )
        writes = writes + [(words, np.zeros(nflags))]
        return self._dispatch(payload, writes, reads, words + nflags)

    def _peer_args(self) -> dict:
        """What a fused op needs, beyond the slots, to read its peers."""
        return {}

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
    def _charge_all(self, per_elem: int) -> None:
        comm = self.system.comm
        for r, n in enumerate(self.sizes):
            comm.add_flops(r, per_elem * n)

    def _replay_chain(self, precond, tail=()) -> None:
        """Replay the inline charging of one polynomial application:
        drive ``precond.apply_linear`` over charge-only ghosts with a
        ghost operator — identical CommStats, tracer exchange spans and
        message logs to the inline path, with zero data movement."""
        c = _width(tail)
        vec = _ChargeVec(
            self.system.comm, [n * c for n in self.sizes], self.axpy_flops
        )

        def matvec(_v):
            self.charge_operator(tail)
            return vec

        precond.apply_linear(matvec, vec)

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

    def replay_precondition(self, precond, rows, tail=()) -> None:
        """What a step's ``z_j = C v_j`` charges inline, in the order the
        ``_precondition`` dispatchers and ``TwoLevelPreconditioner.
        apply_edd`` / ``apply_rdd`` charge it; ``rows`` are the coarse
        partial rows of the step (:attr:`StepRows.coarse`)."""
        from repro.precond.block_jacobi import BlockJacobiILU
        from repro.precond.coarse import TwoLevelPreconditioner

        axpy = self.axpy_flops * _width(tail)
        if precond is None:
            return
        if isinstance(precond, BlockJacobiILU):
            self.charge_ilu0(tail)
        elif not isinstance(precond, TwoLevelPreconditioner):
            self._replay_chain(precond, tail)
        elif precond._trivial:
            self.replay_precondition(precond._inner, rows, tail)
        elif precond._spec.mode == "additive":
            self.replay_precondition(precond._inner, rows, tail)
            self._replay_coarse(precond, rows, tail)
            self._charge_all(axpy)
        else:
            self._replay_coarse(precond, rows, tail)
            self.charge_operator(tail)
            self._charge_all(axpy)
            self.replay_precondition(precond._inner, rows, tail)
            self._charge_all(axpy)

    def replay_matvec(self, basic=False, tail=()) -> None:
        """What the step's ``w = A z_j`` and its exchange charge inline
        (Algorithm 5 re-assembles ``z_j`` first: exchange 1 of 3)."""
        if basic:
            self.system.comm.charge_interface_assemble(tail)
        self.charge_operator(tail)

    def replay_orthogonalize(self, j, rows: StepRows, basic=False, tail=()):
        """The step's two reductions, for real, on the workers' partial
        rows — identical tree pairing, so identical bits to the ``h``
        the workers orthogonalized with — between the flop (and, for
        Algorithm 5, exchange 3 of 3) charges of the inline round;
        returns the ``(j + 2, live)`` Hessenberg columns."""
        comm = self.system.comm
        c = _width(tail)
        h = np.empty((j + 2,) + tail)
        self._charge_all(2 * (j + 1) * c)
        h[: j + 1] = comm.allreduce_sum(
            rows.arn, words=(j + 1) * c
        ).reshape((j + 1,) + tail)
        self._charge_all(2 * self.formats * (j + 1) * c)
        if basic:
            comm.charge_interface_assemble(tail)
        self._charge_all(2 * c)
        h[j + 1] = np.sqrt(
            np.maximum(comm.allreduce_sum(rows.norm, words=c), 0.0)
        )
        return h.reshape(j + 2, -1)

    def charge_commit(self, live: int) -> None:
        """What normalising ``live`` columns of ``w`` into ``v_{j+1}``
        charges inline: one flop per element and format (the workers do
        it at the head of the next ``step``)."""
        self._charge_all(self.formats * live)

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
        """Arnoldi step ``j`` as ONE dispatch: the workers keep the
        columns at positions ``keep`` (None: all), append ``inv_h`` (one
        scalar per column; None at ``j == 0``) times the previous step's
        vector to the basis, apply the preconditioner program, multiply,
        exchange, orthogonalize and take the norm dot, meeting in the
        arena where they need each other.  ``plan`` is this solve's
        :func:`step_program` result, ``tail`` the trailing shape of the
        step's parts."""
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
        slots: one :func:`~repro.core.distributed.add_columns` per term
        ``(cols, sel, ys, saved)``, all in ONE dispatch; only ``x`` and
        the coefficients cross the boundary.  Charges what the inline
        updates charge; returns the new ``x`` parts."""
        terms = [t for t in terms if np.shape(t[2])[1]]
        if not terms:
            return x
        k = x[0].shape[1] if x[0].ndim == 2 else None
        c = k or 1
        out = self._dispatch(
            {"name": "axpy", "k": k, "terms": terms},
            self._vec_writes(x, k=c), self._vec_reads(0, c), self.n_total * c,
        )
        for _cols, _sel, ys, _saved in terms:
            n_cols, m = np.shape(ys)
            self._charge_all(2 * m * n_cols)
        return [o.reshape(xp.shape) for o, xp in zip(out, x)]


class ResidentEDDEngine(ResidentEngine):
    """Named rank ops against worker-resident :math:`\\hat A^{(s)}` blocks."""

    formats = 2
    axpy_flops = 1
    mode = "edd"

    def __init__(self, system):
        # One exchange publishes every rank's interface DOFs, packed.
        super().__init__(
            system, [len(p) for p in system.d_parts],
            system.comm.interface_plan()["words"],
        )

    def _ship(self) -> None:
        system = self.system
        rank_states = [
            {
                "kind": "edd",
                "arrays": {
                    "indptr": a.indptr,
                    "indices": a.indices,
                    "data": a.data,
                    "owner_mask": mask,
                },
                "meta": {"shape": tuple(a.shape)},
            }
            for a, mask in zip(system.a_local, system.owner_mask)
        ]
        system.comm.resident_ship(self.gen, rank_states)

    def charge_operator(self, tail=()) -> None:
        """What one ``matvec_assembled`` charges inline."""
        comm = self.system.comm
        c = _width(tail)
        for r, a in enumerate(self.system.a_local):
            comm.add_flops(r, 2 * a.nnz * c)
        comm.charge_interface_assemble(tail)

    def poly_chain(self, precond, terms, v_hat):
        """One polynomial apply ``z = P(A) v_hat`` on a global-distributed
        vector as ONE ``chain`` dispatch: the workers run the recurrence
        (``terms`` is ``precond.chain_terms()``) against their resident
        blocks, exchanging peer to peer once per degree; the inline
        charging is replayed afterwards.  No solve calls this:
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
        self._replay_chain(precond)
        return DistVector(out, "global", self.system.comm)


class ResidentRDDEngine(ResidentEngine):
    """Named rank ops against worker-resident row blocks (Eq. 48)."""

    def __init__(self, system):
        # One exchange publishes every rank's whole operand.
        sizes = [len(o) for o in system.own]
        super().__init__(system, sizes, sum(sizes))
        self._ext_sizes: list | None = None

    def _halo_ext_sizes(self) -> list:
        """Per-rank external-buffer lengths, computed with the *exact*
        sizing rule of :meth:`Comm.halo_exchange` (max referenced recv
        slot + 1) so worker-side halo fills allocate identical buffers."""
        if self._ext_sizes is None:
            plan = self.system.plan
            sizes = [0] * len(self.sizes)
            for s in range(len(sizes)):
                for _t, (_send, recv_slots) in plan[s].items():
                    if len(recv_slots):
                        sizes[s] = max(sizes[s], int(recv_slots.max()) + 1)
            self._ext_sizes = sizes
        return self._ext_sizes

    def _ship(self) -> None:
        system = self.system
        rank_states = []
        for a_loc, a_ext in zip(system.a_loc, system.a_ext):
            rank_states.append(
                {
                    "kind": "rdd",
                    "arrays": {
                        "loc_indptr": a_loc.indptr,
                        "loc_indices": a_loc.indices,
                        "loc_data": a_loc.data,
                        "ext_indptr": a_ext.indptr,
                        "ext_indices": a_ext.indices,
                        "ext_data": a_ext.data,
                    },
                    "meta": {
                        "loc_shape": tuple(a_loc.shape),
                        "ext_shape": tuple(a_ext.shape),
                    },
                }
            )
        system.comm.resident_ship(self.gen, rank_states)

    def _peer_args(self) -> dict:
        """Workers fill their halos from the peers' published operands
        through the exchange plan, shipped once per pool."""
        self.ensure_shipped()
        token = self.system.comm.resident_ship_plan(
            self.system.plan, self.sizes, self._halo_ext_sizes()
        )
        return {"plan": token}

    def charge_operator(self, tail=()) -> None:
        """What one ``RDDSystem.matvec`` charges inline."""
        system = self.system
        comm = system.comm
        c = _width(tail)
        comm.charge_halo_exchange(system.plan, tail)
        for r, n in enumerate(self.sizes):
            comm.add_flops(r, 2 * system.a_loc[r].nnz * c)
            if system.a_ext[r].shape[1]:
                comm.add_flops(r, 2 * system.a_ext[r].nnz * c + n * c)

    def charge_ilu0(self, tail=()) -> None:
        """What one ``BlockJacobiILU.apply_parts`` charges inline."""
        comm = self.system.comm
        c = _width(tail)
        for r, a in enumerate(self.system.a_loc):
            comm.add_flops(r, 2 * a.nnz * c)
