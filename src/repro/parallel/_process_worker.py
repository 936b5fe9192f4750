"""Spawn entry point for :class:`~repro.parallel.process_comm.ProcessComm`
worker processes.

This module is deliberately light: a spawned child imports numpy, the
stdlib, this module and the numpy-only :mod:`repro.sparse` leaves it
runs — the CSR matrix, the kernel registry (scipy only if a command
names the ``scipy`` backend) and the Arnoldi step of
:mod:`repro.sparse.arnoldi`, whose phases the inline solves run too —
and never the solver stack, the service or scipy up front.  The package
roots ``repro`` and ``repro.parallel`` resolve their re-exports lazily,
so reaching this module costs nothing else.
``tests/parallel/test_worker_imports.py`` enforces the diet.  The
orchestrator sends small pickled command tuples over a per-worker pipe;
bulk payloads travel through a per-communicator
``multiprocessing.shared_memory`` arena, which is also where the workers
of a fused rank op meet each other.  The rank ops are the resident
Krylov cycle's ``seed`` / ``step`` / ``axpy``, the ``chain`` a benchmark
probe issues, and the test-only ``stall``.  What this module adds to the
leaf is where the step runs: the owned ranks, the arena exchanges and
the tree reductions a step's phases are handed as callables.

Protocol
--------
Commands are ``(op, seq, ...)`` tuples — ``ping``, ``sleep``, ``ship``,
``rankop``, ``release`` and ``shutdown`` — and every reply echoes the
sequence number: ``(seq, "ok", payload)`` or ``(seq, "err",
traceback_text)``.  A worker keeps per communicator one keyed store of
what ``ship`` brought: ``held[key][rank]`` for a state of one rank (kept
only by the worker owning it), ``held[key][None]`` for one every worker
keeps.
Data-plane commands additionally validate the arena's **header sequence
word** (the orchestrator stamps it immediately before dispatching): a
mismatch means the worker is looking at a stale or swapped segment and is
reported as an error instead of silently permuting the wrong bytes.

Rank striding: worker ``w`` of ``n`` owns ranks ``w, w + n, w + 2n, ...``.

Coverage note: everything below executes in spawned children, outside the
coverage tracer — hence the module-wide ``pragma: no cover``.
"""

from __future__ import annotations

import os
import time
import traceback
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.sparse import arnoldi, kernels
from repro.sparse.csr import CSRMatrix
from repro.sparse.dense import _rows

#: Bytes reserved at the start of every arena: ``uint64 seq`` plus one
#: padding word (keeps the float64 payload 16-byte aligned).
HEADER_BYTES = 16


def _attach(name: str):  # pragma: no cover - runs in spawned children
    """Attach to an orchestrator-owned segment.

    Python 3.11 registers *attaches* with the resource tracker too
    (bpo-39959).  Workers share the orchestrator's tracker process (the
    fd travels in the spawn preparation data), whose name cache is a set
    — so the duplicate registration is an idempotent no-op and must NOT
    be unregistered here: that would erase the orchestrator's own entry
    and break its unlink-time bookkeeping.
    """
    return shared_memory.SharedMemory(name=name)


def _arena_view(state, name, total_words, seq):  # pragma: no cover
    """Float64 view of the comm's arena, after the header-seq check."""
    if state.get("arena_name") != name:
        old = state.get("shm")
        if old is not None:
            old.close()
        state["shm"] = _attach(name)
        state["arena_name"] = name
    shm = state["shm"]
    header = np.ndarray((2,), dtype=np.uint64, buffer=shm.buf)
    if int(header[0]) != seq:
        raise RuntimeError(
            f"stale arena {name!r}: header seq {int(header[0])} != "
            f"command seq {seq}"
        )
    return np.ndarray(
        (total_words,), dtype=np.float64, buffer=shm.buf, offset=HEADER_BYTES
    )


def _owned(w, n_workers, size):  # pragma: no cover
    return range(w, size, n_workers)


def _read_fields(view, fields):  # pragma: no cover
    """Rebuild typed arrays from a ``ship`` command's field table.

    8-byte integer arrays crossed the float64 arena as raw bytes and are
    re-viewed here; every shipped array is float64 or int64 by contract.
    """
    arrays = {}
    for name, dtype, shape, off in fields:
        n_words = 1
        for s in shape:
            n_words *= s
        raw = np.array(view[off:off + n_words])
        arr = raw.view(np.int64) if dtype == "int64" else raw
        arrays[name] = arr.reshape(shape)
    return arrays


def _do_ship(state, cmd, w, n_workers):  # pragma: no cover
    """Keep one shipped state under its key: a rank's state at the worker
    owning that rank (rank striding), a rank-less one at every worker.
    The entry is the state's metadata plus its arrays; each matrix the
    metadata lists under ``csr`` (name -> shape) is rebuilt from the
    arrays ``<name>_indptr`` / ``_indices`` / ``_data``.  Every worker
    records the key, so a rank op finds it even where no rank is owned.
    """
    _op, seq, _cid, arena, total_words, meta = cmd
    rank = meta["rank"]
    held = state.setdefault("held", {}).setdefault(meta["key"], {})
    if rank is not None and rank % n_workers != w:
        return []
    view = _arena_view(state, arena, total_words, seq)
    entry = dict(meta["meta"])
    entry.update(_read_fields(view, meta["fields"]))
    for name, shape in entry.pop("csr", {}).items():
        entry[name] = CSRMatrix(
            shape, entry.pop(f"{name}_indptr"), entry.pop(f"{name}_indices"),
            entry.pop(f"{name}_data"),
        )
    held[rank] = entry
    return []


def _tree_rows(view, off, p_rows, m):  # pragma: no cover
    """Fixed binary-tree reduction over ``(p_rows, m)`` arena rows.

    The pairing ``(v0+v1)+(v2+v3)...`` matches ``Comm._tree_reduce``
    exactly, so the float64 result is bit-identical to the inline
    allreduce every worker replays redundantly after a fused barrier.
    """
    rows = view[off:off + p_rows * m].reshape(p_rows, m)
    vals = [rows[i] for i in range(p_rows)]
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


class _Fused:  # pragma: no cover
    """One fused rank op in flight at one worker: the arena view, the
    rank layout, the peer synchronisation and the phase clock.

    A fused op (``step``, ``chain``) runs several phases back to back and
    meets its peers in the arena where a phase needs their data.  Every
    worker executes the same sequence of barriers and exchanges whether
    or not it owns a rank, so the counters below agree across the pool.
    The op's vectors are ``(n,)`` parts, or ``(n, k)`` blocks when the
    command carries ``k`` (a column is ``k`` words wide in every region).

    Arena regions come from the command: ``flags`` (one barrier word per
    pool worker, zeroed by the orchestrator before the dispatch), two
    ping-pong exchange ``slots`` of ``slot_words`` rows each, and the
    partial rows of the reductions.  Exchange ``e`` publishes into slot
    ``e % 2``; that is safe because a worker can only reach exchange
    ``e + 2`` after passing barrier ``e + 1``, which its peers signal
    only once they finished reading slot ``e``.

    The phase clock splits the worker's wall time inside the op into
    named laps (``precondition`` / ``matvec`` / ``exchange`` /
    ``orthogonalize``) that add up to it exactly; time spent waiting
    for peers counts towards the phase that waits.

    ``held`` is the worker's keyed store; the op's own ranks are the
    states shipped under its ``gen``, each carrying its part of the
    exchange plan (``iface`` for EDD; ``halo`` and ``ext`` for RDD).
    """

    def __init__(self, held, view, p, w, n_workers):
        self.held = held
        self.ranks = held[p["gen"]]
        self.view = view
        self.p = p
        self.w = w
        self.offsets, self.sizes = p["offsets"], p["sizes"]
        self.size = len(self.sizes)
        self.owned = list(_owned(w, n_workers, self.size))
        self.edd = p["mode"] == "edd"
        k = p.get("k")
        self.width = k or 1
        self.tail = () if k is None else (k,)
        self.flags = view[p["flags"]:p["flags"] + p["nflags"]]
        self.deadline = time.monotonic() + p["btimeout"]
        self.barriers = 0
        self.exchanges = 0
        self.laps: dict = {}
        #: While set, every lap counts towards this phase (an exchange
        #: inside the preconditioner is preconditioning time).
        self.within = None
        self.clock = time.perf_counter()

    def part(self, base, r):
        """Rank ``r``'s segment of the per-rank vector region at ``base``."""
        off = self.offsets[r]
        return self.view[base + off:base + off + self.sizes[r]]

    def lap(self, phase):
        """Charge the time since the previous lap to ``phase``."""
        now = time.perf_counter()
        key = self.within or phase
        self.laps[key] = self.laps.get(key, 0.0) + now - self.clock
        self.clock = now

    def times(self):
        """The op's reply: per owned rank, its share of this worker's
        wall inside the op and of every phase (a worker's ranks run
        interleaved, so they share it evenly)."""
        n = len(self.owned)
        total = sum(self.laps.values())
        return [
            (r, total / n, {k: v / n for k, v in self.laps.items()})
            for r in self.owned
        ]

    def barrier(self):
        """Arena spin barrier.

        Each pool worker owns one float64 flag word; a worker signals
        its ``k``-th barrier by storing ``k`` into its word (an aligned
        8-byte store, atomic on every supported platform) and then spins
        until every peer's word has reached ``k``.  The op's deadline
        bounds the spin so a dead or stuck peer surfaces as this
        worker's error reply instead of a deadlock — the orchestrator
        drains every reply and raises the first error through its named
        taxonomy.
        """
        self.barriers += 1
        k = self.barriers
        stall = self.p.get("stall")
        if stall is not None and stall[0] == self.w and stall[1] == k:
            # Test-only fault: this worker never reaches barrier ``k``
            # in time (see the barrier-deadline drill).
            time.sleep(float(stall[2]))
        flags = self.flags
        flags[self.w] = float(k)
        while True:
            if all(f >= k for f in flags):
                return
            if time.monotonic() > self.deadline:
                raise RuntimeError(
                    f"worker {self.w} timed out waiting for peers at "
                    f"fused-op barrier phase {k}"
                )
            time.sleep(0)

    def _slot(self):
        words = self.p["slot_words"] * self.width
        base = self.p["slots"] + (self.exchanges % 2) * words
        self.exchanges += 1
        return self.view[base:base + words].reshape((-1,) + self.tail)

    def assemble(self, loc):
        """The ``⊕Σ∂Ω`` of EDD (Eq. 28), peer to peer: every rank
        publishes the values of its interface DOFs, and after one
        barrier sums each shared DOF's contributions from 0.0 in
        ascending rank order — the order ``Comm.interface_assemble``'s
        scatter-add runs in, so the result is that collective's bits
        (``+ 0.0`` on the interior DOFs included: it turns a ``-0.0``
        into the ``0.0`` the scatter-add onto zeros produces).  Level
        ``k`` of a rank's plan holds, for its DOFs with more than ``k``
        sharers, where the ``k``-th lowest-ranked sharer published."""
        seg = self._slot()
        for r in self.owned:
            idx, pub, _ = self.ranks[r]["iface"]
            seg[pub:pub + len(idx)] = loc[r][idx]
        self.barrier()
        out = {}
        for r in self.owned:
            idx, _, levels = self.ranks[r]["iface"]
            hat = loc[r] + 0.0
            if len(idx):
                acc = np.zeros((len(idx),) + self.tail)
                for sel, src in levels:
                    if sel is None:
                        acc = acc + seg[src]
                    else:
                        acc[sel] = acc[sel] + seg[src]
                hat[idx] = acc
            out[r] = hat
        self.lap("exchange")
        return out

    def product(self, x):
        """EDD's subdomain products (Eq. 37) on this worker's ranks."""
        out = {r: self.ranks[r]["a"] @ x[r] for r in self.owned}
        self.lap("matvec")
        return out

    def operator(self, x):
        """The communicating operator both decompositions iterate, on
        this worker's ranks: EDD — subdomain product, then ``⊕Σ∂Ω``;
        RDD — halo fill from the peers' published operands (each rank
        publishes its whole operand at its offset) through the shipped
        plan, then the Eq. 48 block products."""
        if self.edd:
            return self.assemble(self.product(x))
        ranks, offsets, sizes = self.ranks, self.offsets, self.sizes
        seg = self._slot()
        for r in self.owned:
            seg[offsets[r]:offsets[r] + sizes[r]] = x[r]
        self.barrier()
        bufs = {}
        for r in self.owned:
            buf = np.zeros((ranks[r]["ext"],) + self.tail)
            for t, send_idx, recv_slots in ranks[r]["halo"]:
                peer = seg[offsets[t]:offsets[t] + sizes[t]]
                buf[recv_slots] = peer[send_idx]
            bufs[r] = buf
        self.lap("exchange")
        out = {}
        for r in self.owned:
            e = ranks[r]
            y = e["a_loc"] @ x[r]
            if e["a_ext"].shape[1]:
                y = y + e["a_ext"] @ bufs[r]
            out[r] = y
        self.lap("matvec")
        return out

    def each(self, body):
        """The per-rank loop of :mod:`repro.sparse.arnoldi`: this
        worker's ranks."""
        for r in self.owned:
            body(r)

    def rows(self, name, shape):
        """A reduction for :mod:`repro.sparse.arnoldi`: the partial rows
        (rank -> ``shape`` array) go to the command's region ``name``,
        then every worker tree-reduces them (:meth:`reduce`)."""
        base, m = self.p[name], int(np.prod(shape))

        def reduce(partial):
            for r in self.owned:
                self.view[base + r * m:base + (r + 1) * m] = np.reshape(
                    partial[r], -1
                )
            return self.reduce(base, m).reshape(shape)

        return reduce

    def reduce(self, base, m):
        """Meet the peers, then tree-reduce the ``(P, m)`` partial rows
        at ``base`` redundantly (every worker gets the same bits)."""
        self.barrier()
        return _tree_rows(self.view, base, self.size, m)


def _coarse(f, key, v):  # pragma: no cover
    """Two-level coarse correction ``W E^-1 W^T v``: rank-local
    restriction, one reduction of ``n_coarse`` words per column, a
    redundant solve of the shipped factorized Galerkin matrix (it is
    tiny, so no second exchange is needed) and rank-local prolongation.
    The orchestrator replays the real ``allreduce_sum`` on the partial
    rows it reads back, for charging and chaos targeting."""
    held = f.held[key]
    shared = held[None]
    fmat = shared["fmat"]
    rhs = f.rows("coarse_rows", fmat.shape[:1] + f.tail)(
        {r: held[r]["wl"].T @ v[r] for r in f.owned}
    )
    if shared["fkind"] == "cho":
        from scipy.linalg import cho_solve

        y = cho_solve((fmat, shared["lower"]), rhs)
    else:
        from scipy.linalg import lu_solve

        y = lu_solve((fmat, shared["piv"].astype(np.int32)), rhs)
    return {r: held[r]["wg"] @ y for r in f.owned}


def _ilu0_apply(aux, v):  # pragma: no cover
    """Block-Jacobi ILU0 apply against one rank's shipped factors: the
    copy the inline ``z = v.copy()`` makes, then the kernel solve the
    inline path runs, over a plan built on first use and kept in the
    held entry beside the factor it slices; a block is solved column by
    column, as ``BlockJacobiILU.apply_parts`` does."""
    plan = aux.get("plan")
    if plan is None:
        plan = aux["plan"] = kernels.ILU0Plan(
            aux["indptr"], aux["indices"], aux["data"], aux["diag_pos"]
        )
    if v.ndim == 2:
        out = np.empty_like(v)
        for c in range(v.shape[1]):
            out[:, c] = kernels.ilu0_solve(
                plan, np.array(v[:, c], order="C")
            )
        return out
    return kernels.ilu0_solve(plan, np.array(v))


def _precondition(f, program, v):  # pragma: no cover
    """``z = C v`` on this worker's ranks: the preconditioner program
    (``resident.step_program``) with this worker's operator, coarse
    solve and ILU0 solves (the caller holds ``f.within`` at
    ``"precondition"``, so the exchanges in here count as that)."""
    return arnoldi.precondition(
        program, v, f.operator, lambda key, u: _coarse(f, key, u),
        lambda key, u: {
            r: _ilu0_apply(f.held[key][r], a) for r, a in u.items()
        },
    )


def _op_chain(f):  # pragma: no cover
    """One polynomial apply as a rank op of its own: ``[0, n)`` in,
    ``out`` out.  No solve issues it — ``bench/probes.py`` times the
    preconditioner through ``ResidentEngine.poly_chain``, which
    does."""
    p = f.p
    f.within = "precondition"
    v = {r: np.array(f.part(0, r)) for r in f.owned}
    z = _precondition(f, ("chain", p["kind"], p["params"]), v)
    for r in f.owned:
        f.part(p["out"], r)[...] = z[r]
    f.lap("precondition")
    return f.times()


def _reseed_error(w, r, held, need):  # pragma: no cover
    return RuntimeError(
        f"worker {w} holds {held} Krylov basis vectors of rank {r}, the "
        f"op needs {need} (respawned pool mid-cycle?); the orchestrator "
        "must re-seed"
    )


def _op_step(f):  # pragma: no cover
    """One whole Arnoldi step of CGS FGMRES (Algorithms 5, 6 and 8)
    against this worker's resident Krylov state, for ``(n,)`` parts or a
    block of ``k`` live columns: the phases of
    :mod:`repro.sparse.arnoldi` back to back — commit (``keep``,
    ``commit``), ``z_j = C v_j``, ``w = A z_j`` with its exchange, the
    CGS round and the norm partial — over this worker's ranks, arena
    exchanges and tree reductions.  Nothing but the partial rows of the
    two reductions leaves the workers: the orchestrator reads them from
    the arena and replays the real ``allreduce_sum``.
    """
    p, ranks, owned = f.p, f.ranks, f.owned
    j, inv_h = p["j"], p["commit"]
    for r in owned:
        need = j + 1 if inv_h is None else j
        if ranks[r].get("filled") != need:
            raise _reseed_error(f.w, r, ranks[r].get("filled"), need)
    if inv_h is not None:
        f.each(lambda r: arnoldi.commit(ranks[r], j, p["keep"], inv_h))
    f.lap("orthogonalize")  # normalising v_j closes the previous round

    f.within = "precondition"
    z = _precondition(
        f, p["program"], {r: ranks[r]["basis"][-1][j] for r in owned}
    )
    f.lap("precondition")
    f.within = None
    reassemble = None
    if p["basic"]:
        def reassemble(v):
            f.lap("orthogonalize")
            return f.assemble(
                {r: v[r] * _rows(ranks[r]["mask"], v[r]) for r in owned}
            )
    if f.edd:
        z, w = arnoldi.matvec(z, f.product, f.assemble, reassemble)
    else:
        z, w = arnoldi.matvec(z, f.operator)
    arnoldi.cgs(
        f.each, ranks, j, w, f.rows("arn_rows", (j + 1,) + f.tail), z
    )
    arnoldi.norm(f.each, ranks, w, f.rows("norm_rows", f.tail), reassemble)
    f.lap("orthogonalize")
    return f.times()


def _per_rank(owned, body):  # pragma: no cover
    """Run ``body(r)`` for each owned rank; ``(rank, seconds)`` each."""
    times = []
    for r in owned:
        t0 = time.perf_counter()
        body(r)
        times.append((r, time.perf_counter() - t0))
    return times


def _op_seed(ranks, view, p, owned, w):  # pragma: no cover
    """Open a cycle: store ``v_0`` (one region per format) as the first
    basis vector of each owned rank
    (:func:`repro.sparse.arnoldi.open_cycle`)."""
    k, c, n_total = p["k"], p["k"] or 1, sum(p["sizes"])

    def body(r):
        off, n = p["offsets"][r], p["sizes"][r]
        shape = (n,) if k is None else (n, k)
        v0 = [
            view[(f * n_total + off) * c:(f * n_total + off + n) * c]
            .reshape(shape)
            for f in range(p["formats"])
        ]
        arnoldi.open_cycle(ranks[r], p["restart"], v0)

    return _per_rank(owned, body)


def _op_axpy(ranks, view, p, owned, w):  # pragma: no cover
    """The cycle's solution update, in place on ``x`` in the arena
    (:func:`repro.sparse.arnoldi.add_x`)."""
    k = p["k"]
    c = k or 1

    def body(r):
        e = ranks[r]
        if "zs" not in e:
            raise _reseed_error(w, r, 0, len(p["terms"][0][2][0]))
        off, n = p["offsets"][r], p["sizes"][r]
        x = view[off * c:(off + n) * c].reshape((n,) if k is None else (n, k))
        arnoldi.add_x(e, x, p["terms"])

    return _per_rank(owned, body)


#: The rank ops a worker accepts (besides the test-only ``stall``):
#: fused ops meet their peers in the arena, the others touch only
#: their own ranks.
_FUSED_OPS = {"step": _op_step, "chain": _op_chain}
_RANK_OPS = {"seed": _op_seed, "axpy": _op_axpy}


def _do_rank_op(state, cmd, w, n_workers):  # pragma: no cover
    """Execute one named rank operation against the state shipped under
    the op's ``gen``.

    The arithmetic is the orchestrator's inline arithmetic — the step
    phases of :mod:`repro.sparse.arnoldi` and the preconditioner bodies
    of :mod:`repro.sparse.recurrences` — so the floats written back are
    bit-identical to inline execution.  Replies list ``(rank, seconds)``
    per owned rank — fused ops add the per-phase split as a third field.
    """
    _op, seq, _cid, arena, total_words, p = cmd
    name = p["name"]
    if name == "stall":
        # Test-only fault: a worker that hangs mid-rank-op.
        time.sleep(float(p["seconds"]))
        return []
    if name not in _FUSED_OPS and name not in _RANK_OPS:
        raise ValueError(f"unknown rank op {name!r}")
    held = state.get("held", {})
    if p["gen"] not in held:
        raise RuntimeError(
            f"resident generation {p.get('gen')!r} is not shipped to "
            f"worker {w} (respawned pool?); the orchestrator must re-ship"
        )
    kernels.set_backend(p["backend"])
    view = _arena_view(state, arena, total_words, seq)
    if name in _FUSED_OPS:
        return _FUSED_OPS[name](_Fused(held, view, p, w, n_workers))
    owned = list(_owned(w, n_workers, len(p["sizes"])))
    return _RANK_OPS[name](held[p["gen"]], view, p, owned, w)


def _release(state):  # pragma: no cover
    shm = state.get("shm")
    if shm is not None:
        shm.close()


def worker_main(w: int, n_workers: int, conn) -> None:  # pragma: no cover
    """Worker process body: park on the pipe, execute commands forever.

    ``REPRO_COMM_WORKER`` advertises the worker context to the
    nested-comm guard (:func:`repro.parallel.comm.guard_nested_comm`) in
    case user code ever runs here.
    """
    os.environ["REPRO_COMM_WORKER"] = "process"
    comms: dict = {}
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            op = cmd[0]
            if op == "shutdown":
                break
            seq = cmd[1]
            try:
                if op == "ping":
                    result = []
                elif op == "sleep":
                    # Test-only fault: simulate a stalled worker so the
                    # orchestrator's per-call timeout can be exercised.
                    time.sleep(float(cmd[2]))
                    result = []
                else:
                    state = comms.setdefault(cmd[2], {})
                    if op == "ship":
                        result = _do_ship(state, cmd, w, n_workers)
                    elif op == "rankop":
                        result = _do_rank_op(state, cmd, w, n_workers)
                    elif op == "release":
                        _release(state)
                        comms.pop(cmd[2], None)
                        result = []
                    else:
                        raise ValueError(f"unknown worker op {op!r}")
                conn.send((seq, "ok", result))
            except BaseException:
                try:
                    conn.send((seq, "err", traceback.format_exc()))
                except (OSError, BrokenPipeError):
                    break
    finally:
        for state in comms.values():
            _release(state)
        try:
            conn.close()
        except OSError:
            pass
