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
  small command descriptors — **named rank ops** — so only vectors cross
  the process boundary and the dominant flops run truly concurrently
  across cores.  They share one base (shipping, dispatch, the ops that
  keep the workers' mirrored Krylov basis in step — ``seed`` /
  ``commit`` / ``axpy`` — and the ``arn`` / ``coarse`` fused ops);
  the subclasses add what depends on the decomposition: what to ship,
  the matvecs, the polynomial ``chain`` and, for RDD, ``prec``.

A caller that needs a resident-only op asks ``engine.resident`` first;
inline, the same arithmetic is the caller's own code.

Bit-identity contract
---------------------
Worker-side arithmetic mirrors the inline bodies token for token (same
numpy expressions, same association order), and **all flop charging stays
orchestrator-side** using the exact inline formulas — so ``CommStats``
of a resident solve are *exactly equal* to an inline solve, and the
returned floats are bitwise identical.  Collectives (interface assembly,
halo exchange, allreduce) are untouched: they always run through the
communicator, which keeps chaos injection and message counting at the
orchestrator.

State lifecycle
---------------
A resident engine draws a fresh generation id per system.  Before every
dispatch it checks :meth:`ProcessComm.resident_ready` — which acquires
the pool first, so a respawn (crash recovery, forced shutdown) honestly
invalidates the generation and the engine re-ships transparently.  A
worker that receives a rank op for an unknown generation raises, which
surfaces as the pool's named error taxonomy rather than silent garbage.

Preconditioner note: preconditioner state ships to the workers alongside
the CSR blocks.  Block-Jacobi ILU0 factors and coarse restriction bases
travel as per-rank ``aux`` state (the small factorized Galerkin matrix as
redundant ``aux_shared`` state), so BJ-ILU0 applies run as a single
``prec`` dispatch and the two-level coarse correction as a single
``coarse`` dispatch.  Polynomial applies fuse the whole degree-``k``
matvec/recurrence chain into one ``chain`` dispatch (one arena spin
barrier per degree instead of one pipe round-trip per matvec), and the
Arnoldi dots+ortho pair fuses into one ``arn`` dispatch.  The modeled
communication stays exact: after a fused dispatch the orchestrator
*replays* the inline charging — the real ``allreduce_sum`` on the partial
rows it reads back, and :meth:`Comm.charge_interface_assemble` /
:meth:`Comm.charge_halo_exchange` driven by the actual polynomial
recurrence over charge-only ghost vectors — so CommStats, tracer exchange
spans and chaos call indices are exactly the inline ones.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.distributed import DistVector, _n_cols, col_dots

__all__ = [
    "engine_mode",
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


def _replay_chain_charges(engine, precond, mode: str) -> None:
    """Replay the inline charging of one polynomial application.

    Drives ``precond.apply_linear`` over charge-only ghosts with a ghost
    matvec that charges the inline engine's exact flop formulas and
    records the collective through ``charge_interface_assemble`` /
    ``charge_halo_exchange`` — identical CommStats, tracer exchange spans
    and message logs to the inline path, with zero data movement.
    """
    system = engine.system
    comm = system.comm
    sizes = engine.sizes
    if mode == "edd":
        vec = _ChargeVec(comm, sizes, 1)

        def matvec(_v):
            for r, a in enumerate(system.a_local):
                comm.add_flops(r, 2 * a.nnz)
            comm.charge_interface_assemble()
            return vec

    else:
        vec = _ChargeVec(comm, sizes, 2)

        def matvec(_v):
            comm.charge_halo_exchange(system.plan)
            for r in range(len(sizes)):
                comm.add_flops(r, 2 * system.a_loc[r].nnz)
                if system.a_ext[r].shape[1]:
                    comm.add_flops(r, 2 * system.a_ext[r].nnz + sizes[r])
            return vec

    precond.apply_linear(matvec, vec)


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

    def matvec_local(self, v, cache=None):
        """Per-rank subdomain product (Eq. 37) — a matvec, or one SpMM
        over all ``k`` columns of a block; ``cache`` is ignored inline."""
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

    def matvec(self, x_parts, ext_vals, cache=None):
        """Per-rank Eq. 48 block products — matvecs, or SpMMs over all
        ``k`` columns of a block; ``cache`` is ignored inline."""
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
class ResidentEngine(RankEngine):
    """What the EDD and RDD resident engines share: state shipping,
    command dispatch and the Krylov-basis ops against the workers'
    mirrored basis.

    The orchestrator keeps bitwise-identical copies of everything it
    needs for collectives and recurrences; workers cache the Arnoldi
    slots (``z[j]`` and, for EDD, the matvec output from each ``cache=j``
    matvec, the dot input, the post-ortho vectors) so the basis ops and
    the final AXPY transfer only what genuinely changes.  Basis ops take
    and return raw per-rank parts; ``formats`` is how many a vector has
    (EDD carries each basis vector local- *and* global-distributed, RDD
    vectors have one format).

    The worker slots hold vectors, so this is where a part's shape picks
    the wire op: ``(n, k)`` blocks go resident for the matvec only
    (``mvb`` / ``mvb_rdd``); handed a block, the fused ops fall back to
    the orchestrator-side round (``arnoldi_step``) or return None so the
    caller stays on its generic path (``poly_chain``, ``coarse_correct``).
    The mirror ops (``seed`` / ``commit`` / ``axpy``) are only ever
    called by a space whose parts are vectors.
    """

    resident = True
    formats = 1

    def __init__(self, system, sizes):
        super().__init__(system)
        self.gen = next(_generations)
        self.sizes, self.offsets, self.n_total = _layout(sizes)
        self._aux_sent: set = set()

    # -- shipping ------------------------------------------------------
    def ensure_shipped(self) -> None:
        """Ship the per-rank CSR blocks unless the current pool already
        holds this generation (a respawned pool re-ships here)."""
        comm = self.system.comm
        if not comm.resident_ready(self.gen):
            self._ship()
            self._aux_sent.clear()

    def ensure_aux(self, key: str, make_states) -> None:
        """Ship a preconditioner's resident state (ILU factors, coarse
        bases and the factorized Galerkin matrix) once per pool
        generation; a pool respawn invalidates the generation, so the
        next dispatch re-ships the base system *and* every aux state."""
        self.ensure_shipped()
        if key in self._aux_sent:
            return
        comm = self.system.comm
        trc = comm.tracer
        if trc.enabled:
            trc.begin("resident_ship", "phase", aux=key)
            try:
                comm.resident_ship_aux(self.gen, make_states())
            finally:
                trc.end()
        else:
            comm.resident_ship_aux(self.gen, make_states())
        self._aux_sent.add(key)

    def _dispatch(self, payload, writes, reads, total_words):
        from repro.sparse.kernels import active_backend_name

        self.ensure_shipped()
        comm = self.system.comm
        payload = dict(payload)
        payload["gen"] = self.gen
        payload["backend"] = active_backend_name()
        payload["offsets"] = self.offsets
        payload["sizes"] = self.sizes
        trc = comm.tracer
        if trc.enabled:
            trc.begin("rank_op", "comm", op=payload["name"])
            try:
                return comm.run_rank_op(payload, writes, reads, total_words)
            finally:
                trc.end()
        return comm.run_rank_op(payload, writes, reads, total_words)

    def _vec_writes(self, parts, base=0, k=1):
        return [
            (base + off * k, p) for off, p in zip(self.offsets, parts)
        ]

    def _vec_reads(self, base, k=1):
        return [
            (base + off * k, n * k)
            for off, n in zip(self.offsets, self.sizes)
        ]

    # -- Krylov-basis ops ----------------------------------------------
    def seed_basis(self, *v0) -> None:
        """Reset the workers' basis mirror to the cycle's first vector
        (one parts list per format)."""
        n = self.n_total
        writes = []
        for f, parts in enumerate(v0):
            writes += self._vec_writes(parts, base=f * n)
        self._dispatch(
            {"name": "seed", "two": self.formats == 2, "hat": n},
            writes,
            [],
            self.formats * n,
        )

    def arnoldi_step(self, j, h, basis, w):
        """Fused dots + reduction + ortho in ONE dispatch (the inline
        pair costs two).  Workers compute the partial dots of the last
        format of ``w`` (the other is already cached worker-side), spin
        once on the arena barrier, redundantly tree-reduce the
        ``(P, j+1)`` partial rows (same pairing as ``Comm._tree_reduce``,
        so the same bits) and orthogonalize immediately.  The
        orchestrator re-runs the *real* ``allreduce_sum`` on the partial
        rows it reads back — identical result, and the reduction's
        charging, tracer span and chaos call index stay exactly where
        the inline path puts them.  ``basis`` is unused: the workers
        hold its mirror."""
        if w[-1][0].ndim == 2:
            return super().arnoldi_step(j, h, basis, w)
        comm = self.system.comm
        n = self.n_total
        p = len(self.sizes)
        nf = self.formats
        pbase = nf * n
        nflags = comm.pool_width()
        flags = pbase + p * (j + 1)
        payload = {
            "name": "arn",
            "j": j,
            "two": nf == 2,
            "hat": n,
            "partial": pbase,
            "flags": flags,
            "nflags": nflags,
            "btimeout": _btimeout(comm),
        }
        writes = self._vec_writes(w[-1]) + [(flags, np.zeros(nflags))]
        reads = []
        for f in range(nf):
            reads += self._vec_reads(f * n)
        reads += [(pbase + r * (j + 1), j + 1) for r in range(p)]
        outs = self._dispatch(payload, writes, reads, flags + nflags)
        for r in range(p):
            comm.add_flops(r, 2 * (j + 1) * self.sizes[r])
        h[: j + 1] = comm.allreduce_sum(outs[nf * p:], words=j + 1)
        for r in range(p):
            comm.add_flops(r, 2 * nf * (j + 1) * self.sizes[r])
        return tuple(outs[f * p:(f + 1) * p] for f in range(nf))

    def commit_basis(self, inv_h, hat_parts=None) -> None:
        """Append ``inv_h`` times the post-ortho vector to the worker
        basis mirror from the cached slots; ``hat_parts`` overrides the
        hat (EDD basic variant's re-assembled vector).  Charges nothing:
        the orchestrator's own basis append does the charging."""
        override = hat_parts is not None
        self._dispatch(
            {
                "name": "commit",
                "inv_h": float(inv_h),
                "two": self.formats == 2,
                "override": override,
            },
            self._vec_writes(hat_parts) if override else [],
            [],
            self.n_total if override else 1,
        )

    def axpy_update(self, x, y):
        """Solution update against the worker-cached ``z`` slots; only
        ``x`` and the ``y`` coefficients cross the boundary."""
        if len(y) == 0:
            return x
        comm = self.system.comm
        n = self.n_total
        payload = {
            "name": "axpy",
            "y": [float(yi) for yi in y],
            "out": n,
        }
        out = self._dispatch(
            payload, self._vec_writes(x), self._vec_reads(n), 2 * n
        )
        for r, sz in enumerate(self.sizes):
            comm.add_flops(r, 2 * len(y) * sz)
        return out

    def coarse_correct(self, tl, v_parts):
        """One fused dispatch for the two-level coarse correction:
        rank-local restriction, redundant tree reduction, redundant
        dense solve of the shipped factorized Galerkin matrix and
        rank-local prolongation.  The orchestrator replays the real
        coarse allreduce on the partial rows it reads back, so the
        correction still costs exactly ONE reduction of ``n_coarse``
        words — and chaos plans aimed at it keep firing.  None for
        blocks."""
        if v_parts[0].ndim == 2:
            return None
        comm = self.system.comm
        self.ensure_aux(tl._resident_key, tl._resident_states)
        n = self.n_total
        p = len(self.sizes)
        nc = tl.n_coarse
        pbase = n
        obase = n + p * nc
        nflags = comm.pool_width()
        flags = obase + n
        trc = comm.tracer
        traced = trc.enabled
        if traced:
            trc.begin("coarse_solve", "solver", n_coarse=nc, k=1)
        payload = {
            "name": "coarse",
            "nc": nc,
            "key": tl._resident_key,
            "partial": pbase,
            "out": obase,
            "flags": flags,
            "nflags": nflags,
            "btimeout": _btimeout(comm),
        }
        writes = self._vec_writes(v_parts) + [(flags, np.zeros(nflags))]
        reads = [(pbase + r * nc, nc) for r in range(p)] + self._vec_reads(
            obase
        )
        outs = self._dispatch(payload, writes, reads, flags + nflags)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wl_parts[r].size)
        comm.allreduce_sum(outs[:p], words=nc)
        comm.add_flops_all([2 * nc * nc] * p)
        for r in range(p):
            comm.add_flops(r, 2 * tl._wg_parts[r].size)
        if traced:
            trc.end()
        return outs[p:]


class ResidentEDDEngine(ResidentEngine):
    """Named rank ops against worker-resident :math:`\\hat A^{(s)}` blocks."""

    formats = 2

    def __init__(self, system):
        super().__init__(system, [len(p) for p in system.d_parts])

    def _ship(self) -> None:
        system = self.system
        rank_states = [
            {
                "kind": "edd",
                "arrays": {
                    "indptr": a.indptr,
                    "indices": a.indices,
                    "data": a.data,
                },
                "meta": {"shape": tuple(a.shape)},
            }
            for a in system.a_local
        ]
        system.comm.resident_ship(self.gen, rank_states)

    def matvec_local(self, v, cache=None):
        """Worker-resident subdomain product: ``mv`` for vectors —
        ``cache=j`` retains the input slot ``z[j]`` and the output for
        later basis ops — or ``mvb``, one SpMM over all ``k`` columns of
        a block (nothing cached)."""
        system = self.system
        comm = system.comm
        x_parts = v.parts
        k = v.k
        out = self.n_total * k
        if x_parts[0].ndim == 1:
            payload = {
                "name": "mv",
                "cache": None if cache is None else int(cache),
                "out": out,
            }
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
        """One fused dispatch for a whole degree-``k`` polynomial apply.

        Workers run the recurrence against their resident blocks,
        replaying the ``⊕Σ∂Ω`` interface assembly redundantly from the
        shared arena with one spin barrier per degree — O(1) pipe
        round-trips instead of O(k).  The inline charging (matvec flops,
        assembly messages/words, vector-op flops) is replayed afterwards
        by :func:`_replay_chain_charges` over the real recurrence.
        Returns None (caller stays inline) for blocks."""
        if v_hat.parts[0].ndim == 2:
            return None
        comm = self.system.comm
        n = self.n_total
        nflags = comm.pool_width()
        kind, params = terms
        payload = {
            "name": "chain",
            "mode": "edd",
            "kind": kind,
            "params": params,
            "n_global": int(comm.submap.n_global),
            "out": n,
            "slots": 2 * n,
            "n_total": n,
            "flags": 4 * n,
            "nflags": nflags,
            "btimeout": _btimeout(comm),
        }
        writes = self._vec_writes(v_hat.parts) + [(4 * n, np.zeros(nflags))]
        parts = self._dispatch(
            payload, writes, self._vec_reads(n), 4 * n + nflags
        )
        _replay_chain_charges(self, precond, "edd")
        return DistVector(parts, "global", comm)


class ResidentRDDEngine(ResidentEngine):
    """Named rank ops against worker-resident row blocks (Eq. 48)."""

    def __init__(self, system):
        super().__init__(system, [len(o) for o in system.own])
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

    def matvec(self, x_parts, ext_vals, cache=None):
        """Worker-resident Eq. 48 products: ``mv_rdd`` for vectors —
        ``cache=j`` retains the input slot ``z[j]`` for the final AXPY —
        or ``mvb_rdd``, SpMMs over all ``k`` columns of a block."""
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
            payload.update(
                name="mv_rdd", cache=None if cache is None else int(cache)
            )
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
        """One fused dispatch for a whole degree-``k`` polynomial apply.

        Workers run the recurrence against their resident block pairs,
        filling their halo buffers straight from the shared arena using
        the shipped exchange plan — O(1) pipe round-trips instead of
        O(k).  Returns None (caller stays inline) for blocks; the inline
        charging is replayed afterwards by :func:`_replay_chain_charges`
        over the real recurrence."""
        if v_parts[0].ndim == 2:
            return None
        comm = self.system.comm
        self.ensure_shipped()
        token = comm.resident_ship_plan(
            self.system.plan, self.sizes, self._halo_ext_sizes()
        )
        n = self.n_total
        nflags = comm.pool_width()
        kind, params = terms
        payload = {
            "name": "chain",
            "mode": "rdd",
            "kind": kind,
            "params": params,
            "plan": token,
            "out": n,
            "slots": 2 * n,
            "n_total": n,
            "flags": 4 * n,
            "nflags": nflags,
            "btimeout": _btimeout(comm),
        }
        writes = self._vec_writes(v_parts) + [(4 * n, np.zeros(nflags))]
        out = self._dispatch(
            payload, writes, self._vec_reads(n), 4 * n + nflags
        )
        _replay_chain_charges(self, precond, "rdd")
        return out

    def prec_apply(self, precond, v_parts):
        """Block-Jacobi ILU0 apply against worker-resident factors: ONE
        dispatch instead of an orchestrator-side loop over rank solves.
        Factors ship once per generation through :meth:`ensure_aux`;
        charging mirrors the inline ``apply_parts`` exactly."""
        comm = self.system.comm
        self.ensure_aux(precond._resident_key, precond._resident_states)
        n = self.n_total
        payload = {
            "name": "prec",
            "key": precond._resident_key,
            "out": n,
        }
        out = self._dispatch(
            payload, self._vec_writes(v_parts), self._vec_reads(n), 2 * n
        )
        for r in range(len(self.sizes)):
            comm.add_flops(r, 2 * self.system.a_loc[r].nnz)
        return out
