"""Rank-operation engines: inline execution vs. worker-resident execution.

The per-rank compute regions of the FGMRES Krylov spaces
(:mod:`repro.core.edd`, :mod:`repro.core.rdd`) — subdomain matvecs and
the fused CGS coefficient round — go through one of the engines below:

* the *inline* engines run the original per-rank closures through
  :meth:`Comm.run_ranks` in the orchestrator process (virtual and chaos
  backends, and process communicators below the residency threshold);
  the EDD and RDD ones differ only in their matvecs;
* the *resident* engines ship each rank's CSR blocks to its owning
  worker process **once** (keyed by a generation id) and then dispatch
  small command descriptors — **named rank ops** — so the dominant flops
  run truly concurrently across cores.  They share one base (shipping,
  dispatch, charge replay, the worker-resident Krylov cycle ``seed`` /
  ``step`` / ``axpy`` and the single-op dispatches ``chain`` /
  ``coarse``); the subclasses add what depends on the decomposition:
  what to ship, the matvecs, what one operator application charges and,
  for RDD, ``prec``.

A caller that needs a resident-only op asks ``engine.resident`` first;
inline, the same arithmetic is the caller's own code.

One dispatch per Arnoldi step
-----------------------------
A single right-hand side under CGS — Algorithms 5, 6 and 8 as the paper
lists them — runs its whole restart cycle in the workers
(``_ResidentEDDSpace`` / ``_ResidentRDDSpace``): basis, ``z`` slots and
work vectors never leave them, a step is ONE ``step`` dispatch in which
the workers precondition, multiply, exchange peer to peer through the
arena, orthogonalize and take the norm dot back to back, and only the
partial rows of the step's reductions come back.  :func:`step_program`
turns the preconditioner into the program that dispatch carries.  Blocks
(``k > 1``), MGS and preconditioners without a worker-side form keep
their Krylov vectors in the orchestrator and go resident per operation:
``mv`` / ``mvb``, ``chain``, ``coarse``, ``prec``.

Bit-identity contract
---------------------
Worker-side arithmetic mirrors the inline bodies token for token (same
numpy expressions, same association order, the same
:func:`~repro.core.distributed.col_dots`), the workers' ``⊕Σ∂Ω`` sums
each shared DOF in the order :meth:`Comm.interface_assemble` does, and
**all charging stays orchestrator-side** using the exact inline
formulas: after a dispatch the orchestrator *replays* the inline
charging — the real ``allreduce_sum`` on the partial rows it reads back,
and :meth:`Comm.charge_interface_assemble` /
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
for a cycle it holds no basis of, raises, which surfaces as the pool's
named error taxonomy rather than silent garbage.  Preconditioner state
ships alongside the CSR blocks: Block-Jacobi ILU0 factors and coarse
restriction bases as per-rank ``aux`` state, the small factorized
Galerkin matrix as redundant ``aux_shared`` state.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from repro.core.distributed import DistVector, _n_cols, col_dots

__all__ = [
    "engine_mode",
    "step_program",
    "StepRows",
    "ResidentCycle",
    "RankEngine",
    "InlineEDDEngine",
    "InlineRDDEngine",
    "ResidentEngine",
    "ResidentEDDEngine",
    "ResidentRDDEngine",
]

#: Generation ids for resident system state; unique per engine instance
#: so a worker can never confuse two systems' CSR blocks.
_generations = itertools.count(1)


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


class _ChargeVec:
    """Charge-only ghost vector for replaying a polynomial recurrence.

    After a fused ``chain`` dispatch the orchestrator re-runs the *exact*
    preconditioner recurrence (`apply_linear` itself) on one of these:
    every vector op charges precisely what the inline distributed vector
    charges per rank — ``axpy`` flops per element for ``+``/``-`` (1 for
    EDD :class:`DistVector`, 2 for the RDD axpy parts), one per element
    for scalar ``*``, nothing for ``copy`` — so CommStats can never drift
    from the inline path, even if a recurrence changes shape.
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
# Inline engines
# ----------------------------------------------------------------------
class RankEngine:
    """What every engine can do in the orchestrator: the CGS Arnoldi
    coefficient round as per-rank closures through ``Comm.run_ranks``.

    ``basis`` and ``w`` hold one entry per vector format — EDD
    ``(local, global)``, RDD one — as per-rank parts (``basis[f][i]`` is
    basis vector ``i``), all ``(n,)`` vectors or all ``(n, k)`` blocks.
    The dots pair the first format's basis with the last format's ``w``:
    the mixed-format inner product of Eq. 33 for EDD, the plain Eq. 47
    one for RDD.  The round returns the orthogonalized ``w``, one parts
    list per format.
    """

    resident = False

    def __init__(self, system):
        self.system = system

    def arnoldi_step(self, j, h, basis, w):
        """One CGS round: fused partial dots (per column for blocks, each
        the ddot the vector round performs), ONE allreduce of ``j + 1``
        words per column for all columns, fused orthogonalization."""
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
        return self._orthogonalize(j, h, basis, w)

    def _orthogonalize(self, j, h, basis, w):
        """``w[f] -= sum_i h[i] * basis[f][i]`` per rank and format (a
        row of ``h`` broadcasts over a block's columns)."""
        comm = self.system.comm
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


class InlineEDDEngine(RankEngine):
    """Original per-rank subdomain matvecs (Eq. 37), any backend."""

    def matvec_local(self, v):
        """Per-rank subdomain product (Eq. 37) — a matvec, or one SpMM
        over all ``k`` columns of a block."""
        system = self.system
        comm = system.comm
        a_local = system.a_local
        x_parts = v.parts
        k = v.k
        parts = [None] * len(a_local)

        def body(r: int) -> None:
            a = a_local[r]
            parts[r] = a @ x_parts[r]
            comm.add_flops(r, 2 * a.nnz * k)

        comm.run_ranks(body)
        return DistVector(parts, "local", comm)


class InlineRDDEngine(RankEngine):
    """Original per-rank row-block products (Eq. 48), any backend."""

    def matvec(self, x_parts, ext_vals):
        """Per-rank Eq. 48 block products — matvecs, or SpMMs over all
        ``k`` columns of a block."""
        system = self.system
        comm = system.comm
        a_loc = system.a_loc
        a_ext = system.a_ext
        k = _n_cols(x_parts[0])
        out = [None] * len(a_loc)

        def body(r: int) -> None:
            loc, ext = a_loc[r], a_ext[r]
            y = loc @ x_parts[r]
            comm.add_flops(r, 2 * loc.nnz * k)
            if ext.shape[1]:
                y = y + ext @ ext_vals[r]
                comm.add_flops(r, 2 * ext.nnz * k + y.size)
            out[r] = y

        comm.run_ranks(body)
        return out


# ----------------------------------------------------------------------
# Resident engines
# ----------------------------------------------------------------------
class StepRows(NamedTuple):
    """What one fused ``step`` dispatch hands back: the partial rows of
    its reductions, one entry per rank."""

    #: ``n_coarse`` words each (empty without a two-level preconditioner).
    coarse: list
    #: The ``j + 1`` CGS coefficients ``<v_i, w>``.
    arn: list
    #: ``<w, w>`` after the orthogonalization, one word per rank.
    norm: np.ndarray


def step_program(precond):
    """The preconditioner as a program the workers' ``step`` op runs —
    nested tuples ``("copy",)``, ``("chain", kind, params)``,
    ``("prec", key)``, ``("2l", mode, key, n_coarse, inner)`` — plus
    the preconditioners whose resident state it reads (shipped with
    :meth:`ResidentEngine.ensure_aux`) and the coarse dimension.  None
    when some part has no worker-side form (a polynomial family without
    ``chain_terms``, a user-supplied object): such a solve keeps its
    Krylov vectors in the orchestrator."""
    from repro.precond.base import PolynomialPreconditioner
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
            return ("2l", pc._spec.mode, pc._resident_key, n_coarse, inner)
        if hasattr(pc, "apply_parts"):
            aux.append(pc)
            return ("prec", pc._resident_key)
        if isinstance(pc, PolynomialPreconditioner):
            terms = pc.chain_terms()
            return None if terms is None else ("chain",) + terms
        return None

    program = build(precond)
    return None if program is None else (program, aux, n_coarse)


class ResidentCycle:
    """The per-step half of a Krylov space whose restart cycle lives in
    the workers (mixed into ``_ResidentEDDSpace`` / ``_ResidentRDDSpace``,
    which supply ``engine``, ``precond``, ``restart``, ``plan`` and, for
    Algorithm 5, ``basic``).  One Arnoldi step is ONE ``step`` dispatch,
    issued by :meth:`precondition` — so its wall time lands in the
    driver's ``precond_apply`` span — and the three driver calls of a
    step replay, each inside its own span, what their inline
    counterparts charge and reduce."""

    basic = False

    def _seed(self, *v0) -> None:
        self.engine.seed_basis(self.restart, *v0)
        self.inv_h = None

    def precondition(self, j):
        """Dispatch step ``j`` — all of it — and replay what
        ``z_j = C v_j`` charges inline."""
        self.rows = self.engine.step(j, self.inv_h, self.plan, self.basic)
        self.engine.replay_precondition(self.precond, self.rows.coarse)

    def matvec(self, j):
        """Replay what ``w = A z_j`` and its exchange charge inline."""
        self.engine.replay_matvec(self.basic)

    def orthogonalize(self, j):
        """The step's two reductions on the workers' partial rows;
        returns the ``(j + 2, 1)`` Hessenberg column."""
        return self.engine.replay_orthogonalize(j, self.rows, self.basic)

    def commit(self, j, keep, h_next):
        """``v_{j+1} = w / h_next``: the workers do it at the head of
        the next step's dispatch, which carries the scalar."""
        self.inv_h = 1.0 / h_next[0]
        self.engine.charge_commit()


class ResidentEngine(RankEngine):
    """What the EDD and RDD resident engines share: state shipping,
    command dispatch, the single-op dispatches (matvecs, ``chain``,
    ``coarse``) any solve may use, and the worker-resident Krylov cycle
    of single-RHS CGS FGMRES — ``seed`` / ``step`` / ``axpy``.

    In a resident cycle the basis, the ``z`` slots and the work vectors
    live in the workers (allocated at the first ``seed`` of a system,
    reused afterwards) and one Arnoldi step is ONE ``step`` dispatch.
    The orchestrator keeps the iterate and the residual, nothing else;
    per step only the partial rows of the step's reductions come back,
    and it replays on them — in the driver's ``precond_apply`` /
    ``matvec`` / ``orthogonalize`` order — the real ``allreduce_sum``
    and the charge-only collectives, so ``CommStats``, exchange and
    reduction spans and the per-iteration metric deltas are the inline
    ones.  ``formats`` is how many parts lists a vector has (EDD carries
    each basis vector local- *and* global-distributed, RDD vectors have
    one format); ``axpy_flops`` what ``y + x`` charges per element.

    The worker slots hold vectors: ``(n, k)`` blocks go resident for the
    matvec only (``mvb`` / ``mvb_rdd``); handed a block, ``poly_chain``
    and ``coarse_correct`` return None so the caller stays on its
    generic path.
    """

    resident = True
    formats = 1
    axpy_flops = 2
    mode = "rdd"

    def __init__(self, system, sizes, slot_words):
        super().__init__(system)
        self.gen = next(_generations)
        self.sizes, self.offsets, self.n_total = _layout(sizes)
        #: Words of one exchange slot of a fused op: what the ranks
        #: publish for their peers in one exchange.
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
        key = precond._resident_key
        if key in self._aux_sent:
            return
        comm = self.system.comm
        trc = comm.tracer
        if trc.enabled:
            trc.begin("resident_ship", "phase", aux=key)
        try:
            comm.resident_ship_aux(self.gen, precond._resident_states())
        finally:
            if trc.enabled:
                trc.end()
        self._aux_sent.add(key)

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

    def _replay_chain(self, precond) -> None:
        """Replay the inline charging of one polynomial application:
        drive ``precond.apply_linear`` over charge-only ghosts with a
        ghost operator — identical CommStats, tracer exchange spans and
        message logs to the inline path, with zero data movement."""
        vec = _ChargeVec(self.system.comm, self.sizes, self.axpy_flops)

        def matvec(_v):
            self.charge_operator()
            return vec

        precond.apply_linear(matvec, vec)

    def _replay_coarse(self, tl, rows) -> None:
        """Replay the inline charging of one coarse correction around
        the real coarse allreduce on the workers' partial ``rows`` — the
        correction still costs exactly ONE reduction of ``n_coarse``
        words, and chaos plans aimed at it keep firing."""
        comm = self.system.comm
        p = len(self.sizes)
        nc = tl.n_coarse
        trc = comm.tracer
        if trc.enabled:
            trc.begin("coarse_solve", "solver", n_coarse=nc, k=1)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wl_parts[r].size)
        comm.allreduce_sum(rows, words=nc)
        comm.add_flops_all([2 * nc * nc] * p)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wg_parts[r].size)
        if trc.enabled:
            trc.end()

    def replay_precondition(self, precond, rows) -> None:
        """What a step's ``z_j = C v_j`` charges inline, in the order the
        ``_precondition`` dispatchers and ``TwoLevelPreconditioner.
        apply_edd`` / ``apply_rdd`` charge it; ``rows`` are the coarse
        partial rows of the step (:attr:`StepRows.coarse`)."""
        from repro.precond.coarse import TwoLevelPreconditioner

        if precond is None:
            return
        if not isinstance(precond, TwoLevelPreconditioner):
            if hasattr(precond, "apply_parts"):
                self.charge_ilu0()
            else:
                self._replay_chain(precond)
        elif precond._trivial:
            self.replay_precondition(precond._inner, rows)
        elif precond._spec.mode == "additive":
            self.replay_precondition(precond._inner, rows)
            self._replay_coarse(precond, rows)
            self._charge_all(self.axpy_flops)
        else:
            self._replay_coarse(precond, rows)
            self.charge_operator()
            self._charge_all(self.axpy_flops)
            self.replay_precondition(precond._inner, rows)
            self._charge_all(self.axpy_flops)

    # -- the resident Krylov cycle -------------------------------------
    def seed_basis(self, restart, *v0) -> None:
        """Open a cycle of at most ``restart`` steps in the workers:
        their basis becomes the cycle's first vector (one parts list per
        format)."""
        n = self.n_total
        writes = []
        for f, parts in enumerate(v0):
            writes += self._vec_writes(parts, base=f * n)
        self._dispatch(
            {
                "name": "seed", "restart": int(restart),
                "formats": self.formats, "n_total": n,
            },
            writes,
            [],
            self.formats * n,
        )

    def step(self, j, inv_h, plan, basic=False) -> StepRows:
        """Arnoldi step ``j`` as ONE dispatch: the workers append
        ``inv_h`` times the previous step's vector to the basis (None at
        ``j == 0``), apply the preconditioner program, multiply,
        exchange, orthogonalize and take the norm dot, meeting in the
        arena where they need each other.  ``plan`` is this solve's
        :func:`step_program` result."""
        program, aux, nc = plan
        for precond in aux:
            self.ensure_aux(precond)
        p = len(self.sizes)
        arn = 2 * self.slot_words
        norm = arn + p * (j + 1)
        coarse = norm + p
        payload = {
            "name": "step",
            "j": int(j),
            "commit": None if inv_h is None else float(inv_h),
            "basic": bool(basic),
            "prec": program,
            "slots": 0,
            "arn_rows": arn,
            "norm_rows": norm,
            "coarse_rows": coarse,
        }
        reads = (
            self._row_reads(coarse, nc) + self._row_reads(arn, j + 1)
            + [(norm, p)]
        )
        outs = self._fused(payload, coarse + p * nc, [], reads)
        return StepRows(outs[:p], outs[p:2 * p], outs[2 * p])

    def replay_matvec(self, basic=False) -> None:
        """What the step's ``w = A z_j`` and its exchange charge inline
        (Algorithm 5 re-assembles ``z_j`` first: exchange 1 of 3)."""
        if basic:
            self.system.comm.charge_interface_assemble()
        self.charge_operator()

    def replay_orthogonalize(self, j, rows: StepRows, basic=False):
        """The step's two reductions, for real, on the workers' partial
        rows — identical tree pairing, so identical bits to the ``h``
        the workers orthogonalized with — between the flop (and, for
        Algorithm 5, exchange 3 of 3) charges of the inline round;
        returns the ``(j + 2, 1)`` Hessenberg column."""
        comm = self.system.comm
        h = np.empty(j + 2)
        self._charge_all(2 * (j + 1))
        h[: j + 1] = comm.allreduce_sum(rows.arn, words=j + 1)
        self._charge_all(2 * self.formats * (j + 1))
        if basic:
            comm.charge_interface_assemble()
        self._charge_all(2)
        h[j + 1] = np.sqrt(
            np.maximum(comm.allreduce_sum(list(rows.norm), words=1), 0.0)
        )
        return h.reshape(j + 2, 1)

    def charge_commit(self) -> None:
        """What normalising ``w`` into ``v_{j+1}`` charges inline: one
        flop per element and format (the workers do it at the head of
        the next ``step``)."""
        self._charge_all(self.formats)

    def axpy_update(self, x, y):
        """Solution update against the workers' ``z`` slots; only ``x``
        and the ``y`` coefficients cross the boundary."""
        if len(y) == 0:
            return x
        n = self.n_total
        payload = {
            "name": "axpy",
            "y": [float(yi) for yi in y],
            "out": n,
        }
        out = self._dispatch(
            payload, self._vec_writes(x), self._vec_reads(n), 2 * n
        )
        self._charge_all(2 * len(y))
        return out

    # -- single-op dispatches ------------------------------------------
    def _poly_chain(self, precond, terms, v_parts):
        """One fused dispatch for a whole degree-``k`` polynomial apply
        on vector parts: the workers run the recurrence against their
        resident blocks, exchanging peer to peer with one spin barrier
        per degree — O(1) pipe round-trips instead of O(k); the inline
        charging is replayed afterwards over the real recurrence."""
        n = self.n_total
        kind, params = terms
        payload = {
            "name": "chain", "kind": kind, "params": params,
            "out": n, "slots": 2 * n,
        }
        out = self._fused(
            payload, 2 * n + 2 * self.slot_words,
            self._vec_writes(v_parts), self._vec_reads(n),
        )
        self._replay_chain(precond)
        return out

    def coarse_correct(self, tl, v_parts):
        """One fused dispatch for the two-level coarse correction:
        rank-local restriction, redundant tree reduction, redundant
        dense solve of the shipped factorized Galerkin matrix and
        rank-local prolongation.  None for blocks."""
        if v_parts[0].ndim == 2:
            return None
        self.ensure_aux(tl)
        n = self.n_total
        p = len(self.sizes)
        nc = tl.n_coarse
        payload = {
            "name": "coarse", "nc": nc, "key": tl._resident_key,
            "coarse_rows": n, "out": n + p * nc,
        }
        outs = self._fused(
            payload, 2 * n + p * nc, self._vec_writes(v_parts),
            self._row_reads(n, nc) + self._vec_reads(n + p * nc),
        )
        self._replay_coarse(tl, outs[:p])
        return outs[p:]


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

    def charge_operator(self) -> None:
        """What one ``matvec_assembled`` charges inline."""
        comm = self.system.comm
        for r, a in enumerate(self.system.a_local):
            comm.add_flops(r, 2 * a.nnz)
        comm.charge_interface_assemble()

    def matvec_local(self, v):
        """Worker-resident subdomain product: ``mv`` for vectors, or
        ``mvb``, one SpMM over all ``k`` columns of a block."""
        system = self.system
        comm = system.comm
        x_parts = v.parts
        k = v.k
        out = self.n_total * k
        if x_parts[0].ndim == 1:
            payload = {"name": "mv", "out": out}
        else:
            payload = {"name": "mvb", "k": k, "out": out}
        outs = self._dispatch(
            payload,
            self._vec_writes(x_parts, k=k),
            self._vec_reads(out, k),
            2 * out,
        )
        parts = [o.reshape(x.shape) for o, x in zip(outs, x_parts)]
        for r, a in enumerate(system.a_local):
            comm.add_flops(r, 2 * a.nnz * k)
        return DistVector(parts, "local", comm)

    def poly_chain(self, precond, terms, v_hat):
        """:meth:`ResidentEngine._poly_chain` on a global-distributed
        vector; None (caller stays inline) for blocks."""
        if v_hat.parts[0].ndim == 2:
            return None
        parts = self._poly_chain(precond, terms, v_hat.parts)
        return DistVector(parts, "global", self.system.comm)


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

    def charge_operator(self) -> None:
        """What one ``RDDSystem.matvec`` charges inline."""
        system = self.system
        comm = system.comm
        comm.charge_halo_exchange(system.plan)
        for r, n in enumerate(self.sizes):
            comm.add_flops(r, 2 * system.a_loc[r].nnz)
            if system.a_ext[r].shape[1]:
                comm.add_flops(r, 2 * system.a_ext[r].nnz + n)

    def matvec(self, x_parts, ext_vals):
        """Worker-resident Eq. 48 products: ``mv_rdd`` for vectors, or
        ``mvb_rdd``, SpMMs over all ``k`` columns of a block."""
        system = self.system
        comm = system.comm
        k = _n_cols(x_parts[0])
        n = self.n_total
        ext_sizes, ext_offsets, e_total = _layout([len(e) for e in ext_vals])
        writes = self._vec_writes(x_parts, k=k) + [
            (n * k + eoff * k, e) for eoff, e in zip(ext_offsets, ext_vals)
        ]
        payload = {
            "ext": n * k,
            "ext_offsets": ext_offsets,
            "ext_sizes": ext_sizes,
            "out": (n + e_total) * k,
        }
        if x_parts[0].ndim == 1:
            payload.update(name="mv_rdd")
        else:
            payload.update(name="mvb_rdd", k=k)
        outs = self._dispatch(
            payload,
            writes,
            self._vec_reads((n + e_total) * k, k),
            (2 * n + e_total) * k,
        )
        out = [o.reshape(x.shape) for o, x in zip(outs, x_parts)]
        for r in range(len(self.sizes)):
            comm.add_flops(r, 2 * system.a_loc[r].nnz * k)
            if system.a_ext[r].shape[1]:
                comm.add_flops(
                    r, 2 * system.a_ext[r].nnz * k + self.sizes[r] * k
                )
        return out

    def poly_chain(self, precond, terms, v_parts):
        """:meth:`ResidentEngine._poly_chain` on row-partitioned parts;
        None (caller stays inline) for blocks."""
        if v_parts[0].ndim == 2:
            return None
        return self._poly_chain(precond, terms, v_parts)

    def prec_apply(self, precond, v_parts):
        """Block-Jacobi ILU0 apply against worker-resident factors: ONE
        dispatch instead of an orchestrator-side loop over rank solves.
        Factors ship once per generation through :meth:`ensure_aux`;
        charging mirrors the inline ``apply_parts`` exactly."""
        self.ensure_aux(precond)
        n = self.n_total
        payload = {
            "name": "prec",
            "key": precond._resident_key,
            "out": n,
        }
        out = self._dispatch(
            payload, self._vec_writes(v_parts), self._vec_reads(n), 2 * n
        )
        self.charge_ilu0()
        return out

    def charge_ilu0(self) -> None:
        """What one ``BlockJacobiILU.apply_parts`` charges inline."""
        comm = self.system.comm
        for r, a in enumerate(self.system.a_loc):
            comm.add_flops(r, 2 * a.nnz)
