"""Spawn entry point for :class:`~repro.parallel.process_comm.ProcessComm`
worker processes.

This module is deliberately light — numpy plus stdlib at import time, so
a spawned child never pays for the solver stack up front; the sparse CSR
layer is imported lazily on the first ``resident`` command and the one
inner-product function (:func:`repro.core.distributed.col_dots`, shared
with the orchestrator so both sides sum in the same order) on the first
``step``.  The orchestrator sends small pickled command tuples over a
per-worker pipe; bulk payloads travel through a per-communicator
``multiprocessing.shared_memory`` arena, which is also where the workers
of a fused rank op meet each other.

Protocol
--------
Commands are ``(op, seq, ...)`` tuples; every reply echoes the sequence
number: ``(seq, "ok", payload)`` or ``(seq, "err", traceback_text)``.
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
import pickle
import time
import traceback
from multiprocessing import resource_tracker, shared_memory

import numpy as np

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


def _do_register(state, cmd):  # pragma: no cover
    """Per-rank interface plans, for the worker-side ``⊕Σ∂Ω``
    (:meth:`_Fused.assemble`; built by ``ProcessComm.interface_plan``)."""
    state["iface"] = pickle.loads(cmd[3])
    return []


def _do_plan(state, cmd):  # pragma: no cover
    """A halo plan, for the worker-side halo fills of fused rank ops."""
    plan_id = cmd[3]
    plan = pickle.loads(cmd[4])
    offsets = [0]
    for n in plan["xsizes"]:
        offsets.append(offsets[-1] + n)
    plan["x_offsets"] = offsets
    state.setdefault("plans", {})[plan_id] = plan
    return []


def _read_fields(view, fields):  # pragma: no cover
    """Rebuild typed arrays from a ``resident`` command's field table.

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


def _do_resident(state, cmd, w, n_workers):  # pragma: no cover
    """Install resident solver state from the arena.

    Base kinds (``edd``/``rdd``) install one rank's CSR blocks; a new
    generation id drops every older generation first and only the owning
    worker (rank striding) keeps the state.  Aux kinds attach
    preconditioner state to an existing generation: ``aux`` per owning
    rank (ILU factors, coarse restriction bases), ``aux_shared`` kept by
    every worker (the small redundant factorized coarse matrix).  Aux
    arriving for an unknown generation raises — the orchestrator must
    ship the base system first.  Imports of the sparse layer are lazy so
    spawned children stay light until a resident system actually arrives.
    """
    _op, seq, _cid, arena, total_words, meta = cmd
    res = state.get("resident")
    kind = meta["kind"]
    if kind in ("aux", "aux_shared"):
        if res is None or res.get("gen") != meta["gen"]:
            raise RuntimeError(
                f"aux resident state for generation {meta.get('gen')!r} "
                f"arrived at worker {w} before its base system"
            )
        if kind == "aux":
            r = meta["rank"]
            if r % n_workers != w:
                return []
        view = _arena_view(state, arena, total_words, seq)
        box = {"arrays": _read_fields(view, meta["fields"]), "meta": meta}
        if kind == "aux_shared":
            res["shared"][meta["key"]] = box
        else:
            res["ranks"][r].setdefault("aux", {})[meta["key"]] = box
        return []
    if res is None or res.get("gen") != meta["gen"]:
        res = {"gen": meta["gen"], "ranks": {}, "shared": {}}
        state["resident"] = res
    r = meta["rank"]
    if r % n_workers != w:
        return []
    view = _arena_view(state, arena, total_words, seq)
    arrays = _read_fields(view, meta["fields"])
    from repro.sparse.csr import CSRMatrix

    entry = {}
    if kind == "edd":
        entry["a"] = CSRMatrix(
            meta["shape"], arrays["indptr"], arrays["indices"], arrays["data"]
        )
        entry["mask"] = arrays.get("owner_mask")
    else:
        entry["a_loc"] = CSRMatrix(
            meta["loc_shape"],
            arrays["loc_indptr"],
            arrays["loc_indices"],
            arrays["loc_data"],
        )
        entry["a_ext"] = CSRMatrix(
            meta["ext_shape"],
            arrays["ext_indptr"],
            arrays["ext_indices"],
            arrays["ext_data"],
        )
    res["ranks"][r] = entry
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

    A fused op (``chain``, ``coarse``, ``step``) runs several phases
    back to back and meets its peers in the arena where a phase needs
    their data.  Every worker executes the same sequence of barriers and
    exchanges whether or not it owns a rank, so the counters below agree
    across the pool.

    Arena regions come from the command: ``flags`` (one barrier word per
    pool worker, zeroed by the orchestrator before the dispatch), two
    ping-pong exchange ``slots`` of ``slot_words`` each, and the partial
    rows of the reductions.  Exchange ``e`` publishes into slot
    ``e % 2``; that is safe because a worker can only reach exchange
    ``e + 2`` after passing barrier ``e + 1``, which its peers signal
    only once they finished reading slot ``e``.

    The phase clock splits the worker's wall time inside the op into
    named laps (``precondition`` / ``matvec`` / ``exchange`` /
    ``orthogonalize``) that add up to it exactly; time spent waiting
    for peers counts towards the phase that waits.
    """

    def __init__(self, state, res, view, p, w, n_workers):
        self.ranks = res["ranks"]
        self.shared = res["shared"]
        self.view = view
        self.p = p
        self.w = w
        self.offsets, self.sizes = p["offsets"], p["sizes"]
        self.size = len(self.sizes)
        self.owned = list(_owned(w, n_workers, self.size))
        self.edd = p["mode"] == "edd"
        self.iface = state.get("iface")
        self.plan = state.get("plans", {}).get(p.get("plan"))
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
        """Rank ``r``'s segment of the per-rank region at ``base``."""
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
        words = self.p["slot_words"]
        base = self.p["slots"] + (self.exchanges % 2) * words
        self.exchanges += 1
        return self.view[base:base + words]

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
            idx, pub, _ = self.iface[r]
            seg[pub:pub + len(idx)] = loc[r][idx]
        self.barrier()
        out = {}
        for r in self.owned:
            idx, _, levels = self.iface[r]
            hat = loc[r] + 0.0
            if len(idx):
                acc = np.zeros(len(idx))
                for sel, src in levels:
                    if sel is None:
                        acc = acc + seg[src]
                    else:
                        acc[sel] = acc[sel] + seg[src]
                hat[idx] = acc
            out[r] = hat
        return out

    def operator(self, x):
        """The communicating operator both decompositions iterate, on
        this worker's ranks: EDD — subdomain product (Eq. 37), then
        ``⊕Σ∂Ω``; RDD — halo fill from the peers' published operands
        through the shipped plan, then the Eq. 48 block products."""
        ranks = self.ranks
        if self.edd:
            loc = {r: ranks[r]["a"].matvec(x[r]) for r in self.owned}
            self.lap("matvec")
            out = self.assemble(loc)
            self.lap("exchange")
            return out
        plan = self.plan
        xsizes, x_offsets = plan["xsizes"], plan["x_offsets"]
        seg = self._slot()
        for r in self.owned:
            off = self.offsets[r]
            seg[off:off + self.sizes[r]] = x[r]
        self.barrier()
        bufs = {}
        for r in self.owned:
            buf = np.zeros(plan["ext_sizes"][r])
            for t, send_idx, recv_slots in plan["ranks"][r]:
                xoff = x_offsets[t]
                buf[recv_slots] = seg[xoff:xoff + xsizes[t]][send_idx]
            bufs[r] = buf
        self.lap("exchange")
        out = {}
        for r in self.owned:
            e = ranks[r]
            y = e["a_loc"].matvec(x[r])
            if e["a_ext"].shape[1]:
                y = y + e["a_ext"].matvec(bufs[r])
            out[r] = y
        self.lap("matvec")
        return out

    def reduce(self, base, m):
        """Meet the peers, then tree-reduce the ``(P, m)`` partial rows
        at ``base`` redundantly (every worker gets the same bits)."""
        self.barrier()
        return _tree_rows(self.view, base, self.size, m)


def _chain(f, kind, prm, v):  # pragma: no cover
    """Degree-``k`` polynomial apply ``z = P(A) v`` through the
    communicating operator, one exchange per degree.  Recurrence bodies
    mirror the generic ``apply_linear`` paths of the polynomial
    preconditioners token for token (``x - y`` is bitwise the
    ``x + (-1.0) * y`` the RDD vector wrapper computes)."""
    owned = f.owned
    if kind == "neumann":
        degree = prm["degree"]
        omega = prm["omega"]
        s = dict(v)
        z = dict(v)
        cur = s
    elif kind == "cheb":
        coef = prm["coef"]
        degree = len(coef) - 1
        z = {r: coef[-1] * v[r] for r in owned}
        cur = z
    else:  # gls
        a, b, mu = prm["a"], prm["b"], prm["mu"]
        degree = prm["degree"]
        phi = {r: (1.0 / b[0]) * v[r] for r in owned}
        phi_prev = None
        z = {r: mu[0] * phi[r] for r in owned}
        cur = phi
    for d in range(degree):
        g = f.operator(cur)
        if kind == "neumann":
            for r in owned:
                s[r] = s[r] - omega * g[r]
                z[r] = z[r] + s[r]
            cur = s
        elif kind == "cheb":
            c = coef[len(coef) - 2 - d]
            for r in owned:
                z[r] = g[r] + c * v[r]
            cur = z
        else:
            nxt = {}
            for r in owned:
                t_ = g[r] - a[d] * phi[r]
                if phi_prev is not None:
                    t_ = t_ - b[d] * phi_prev[r]
                nxt[r] = (1.0 / b[d + 1]) * t_
                z[r] = z[r] + mu[d + 1] * nxt[r]
            phi_prev, phi = phi, nxt
            cur = phi
    if kind == "neumann":
        z = {r: omega * z[r] for r in owned}
    return z


def _coarse(f, key, nc, v):  # pragma: no cover
    """Two-level coarse correction ``W E^-1 W^T v``: rank-local
    restriction, one reduction of ``nc`` words, a redundant solve of the
    shipped factorized Galerkin matrix (``nc`` is tiny, so no second
    exchange is needed) and rank-local prolongation.  The orchestrator
    replays the real ``allreduce_sum`` on the partial rows it reads
    back, for charging and chaos targeting."""
    base = f.p["coarse_rows"]
    for r in f.owned:
        aux = f.ranks[r]["aux"][key]["arrays"]
        f.view[base + r * nc:base + (r + 1) * nc] = aux["wl"].T @ v[r]
    rhs = f.reduce(base, nc)
    shared = f.shared[key]
    smeta = shared["meta"]
    fmat = shared["arrays"]["fmat"]
    if smeta["fkind"] == "cho":
        from scipy.linalg import cho_solve

        y = cho_solve((fmat, smeta["lower"]), rhs)
    else:
        from scipy.linalg import lu_solve

        piv = shared["arrays"]["piv"].astype(np.int32)
        y = lu_solve((fmat, piv), rhs)
    return {r: f.ranks[r]["aux"][key]["arrays"]["wg"] @ y for r in f.owned}


def _ilu0_apply(e, key, v):  # pragma: no cover
    """Block-Jacobi ILU0 apply against the shipped factors: the copy
    mirrors the inline ``z = v.copy()`` and the backend solve is the
    kernel the inline path runs."""
    from repro.sparse import kernels

    aux = e["aux"][key]["arrays"]
    zv = np.array(v)
    kernels.get_backend().ilu0_solve(
        aux["indptr"], aux["indices"], aux["data"],
        aux["diag_pos"], aux["split"], zv,
    )
    return zv


def _precondition(f, prog, v):  # pragma: no cover
    """Run a preconditioner program (``resident.step_program``) on this
    worker's ranks: ``z = C v`` (the caller holds ``f.within`` at
    ``"precondition"``, so the exchanges in here count as that).  The
    two-level composites follow
    ``TwoLevelPreconditioner.apply_edd`` / ``apply_rdd`` (whose
    ``y + 1.0 * x`` / ``y + (-1.0) * x`` are bitwise ``y + x`` /
    ``y - x``)."""
    owned = f.owned
    kind = prog[0]
    if kind == "copy":
        return {r: v[r].copy() for r in owned}
    if kind == "chain":
        return _chain(f, prog[1], prog[2], v)
    if kind == "prec":
        return {r: _ilu0_apply(f.ranks[r], prog[1], v[r]) for r in owned}
    _, mode, key, nc, inner = prog
    if mode == "additive":
        z = _precondition(f, inner, v)
        q = _coarse(f, key, nc, v)
    else:
        q = _coarse(f, key, nc, v)
        aq = f.operator(q)
        z = _precondition(f, inner, {r: v[r] - aq[r] for r in owned})
    return {r: z[r] + q[r] for r in owned}


def _op_apply(f):  # pragma: no cover
    """A preconditioner piece as a rank op of its own — ``chain`` (a
    polynomial apply) or ``coarse`` (a coarse correction): ``[0, n)``
    in, ``out`` out."""
    p = f.p
    f.within = "precondition"
    v = {r: np.array(f.part(0, r)) for r in f.owned}
    if p["name"] == "chain":
        z = _chain(f, p["kind"], p["params"], v)
    else:
        z = _coarse(f, p["key"], p["nc"], v)
    for r in f.owned:
        f.part(p["out"], r)[...] = z[r]
    f.lap("precondition")
    return f.times()


def _op_step(f):  # pragma: no cover
    """One whole Arnoldi step of single-RHS CGS FGMRES (Algorithms 5, 6
    and 8) against this worker's resident Krylov state.

    Phases, back to back: append the previous step's normalised vector
    to the basis (``commit``); ``z_j = C v_j``; ``w = A z_j`` with its
    exchange (the basic EDD variant re-assembles ``z_j`` first and ``w``
    after the orthogonalization — its three exchanges per step); the CGS
    coefficients ``<v_i, w>`` (one reduction of ``j + 1`` words) and the
    orthogonalization; the partial ``<w, w>``.  Nothing but the partial
    rows of the two reductions leaves the workers: the orchestrator
    reads them from the arena and replays the real ``allreduce_sum``.
    """
    from repro.core.distributed import col_dots

    p, view, ranks, owned = f.p, f.view, f.ranks, f.owned
    j, inv_h, basic = p["j"], p["commit"], p["basic"]
    for r in owned:
        e = ranks[r]
        if e.get("filled") != (j + 1 if inv_h is None else j):
            raise RuntimeError(
                f"worker {f.w} holds {e.get('filled')} Krylov basis "
                f"vectors of rank {r}, step {j} needs {j + 1} (respawned "
                "pool mid-cycle?); the orchestrator must re-seed"
            )
        if inv_h is not None:
            for basis, w_f in zip(e["basis"], e["w"]):
                np.multiply(w_f, inv_h, out=basis[j])
            e["filled"] = j + 1
    f.lap("orthogonalize")  # normalising v_j closes the previous round

    f.within = "precondition"
    z = _precondition(
        f, p["prec"], {r: ranks[r]["basis"][-1][j] for r in owned}
    )
    f.lap("precondition")
    f.within = None
    if basic:
        z = f.assemble({r: z[r] * ranks[r]["mask"] for r in owned})
        f.lap("exchange")
    for r in owned:
        ranks[r]["zs"][j] = z[r]
    # ``w`` per rank: one array per format, the exchanged one last.
    if f.edd:
        wl = {r: ranks[r]["a"].matvec(z[r]) for r in owned}
        f.lap("matvec")
        wh = f.assemble(wl)
        f.lap("exchange")
        ws = {r: [wl[r], wh[r]] for r in owned}
    else:
        ws = {r: [y] for r, y in f.operator(z).items()}

    rows = p["arn_rows"]
    for r in owned:
        first = ranks[r]["basis"][0]
        out = np.empty(j + 1)
        for i in range(j + 1):
            out[i] = col_dots(first[i], ws[r][-1])
        view[rows + r * (j + 1):rows + (r + 1) * (j + 1)] = out
    h = f.reduce(rows, j + 1)
    for r in owned:
        for k, basis in enumerate(ranks[r]["basis"]):
            w_f = ws[r][k]
            for i in range(j + 1):
                w_f = w_f - h[i] * basis[i]
            ws[r][k] = w_f
    if basic:
        f.lap("orthogonalize")
        wh = f.assemble({r: ws[r][1] * ranks[r]["mask"] for r in owned})
        f.lap("exchange")
        for r in owned:
            ws[r][1] = wh[r]
    for r in owned:
        ranks[r]["w"] = ws[r]
        view[p["norm_rows"] + r] = col_dots(ws[r][0], ws[r][-1])
    f.lap("orthogonalize")
    return f.times()


_FUSED_OPS = {"chain": _op_apply, "coarse": _op_apply, "step": _op_step}


def _do_rank_op(state, cmd, w, n_workers):  # pragma: no cover
    """Execute one named rank operation against resident state.

    Every arithmetic expression below mirrors the orchestrator's inline
    engine token for token (same numpy calls, same association order), so
    the floats written back are bit-identical to inline execution.
    Replies list ``(rank, seconds)`` per owned rank — fused ops add the
    per-phase split as a third field.
    """
    _op, seq, _cid, arena, total_words, p = cmd
    name = p["name"]
    if name == "stall":
        # Test-only fault: a worker that hangs mid-rank-op.
        time.sleep(float(p["seconds"]))
        return []
    res = state.get("resident")
    if res is None or res.get("gen") != p["gen"]:
        raise RuntimeError(
            f"resident generation {p.get('gen')!r} is not shipped to "
            f"worker {w} (respawned pool?); the orchestrator must re-ship"
        )
    from repro.sparse import kernels

    kernels.set_backend(p["backend"])
    view = _arena_view(state, arena, total_words, seq)
    if name in _FUSED_OPS:
        return _FUSED_OPS[name](_Fused(state, res, view, p, w, n_workers))
    offsets = p["offsets"]
    sizes = p["sizes"]
    times = []
    for r in _owned(w, n_workers, len(sizes)):
        t0 = time.perf_counter()
        e = res["ranks"][r]
        off = offsets[r]
        n = sizes[r]
        if name in ("mv", "mvb", "mv_rdd", "mvb_rdd"):
            # Subdomain product (EDD, Eq. 37), or the Eq. 48 block
            # products on an operand plus its halo values (RDD); the
            # ``mvb`` ops carry ``(n, k)`` blocks, row-major in the arena.
            k = p.get("k", 1)
            tail = (k,) if name.startswith("mvb") else ()
            x = np.array(view[off * k:(off + n) * k]).reshape((n,) + tail)
            if name.endswith("rdd"):
                y = e["a_loc"] @ x
                if e["a_ext"].shape[1]:
                    eoff = p["ext"] + p["ext_offsets"][r] * k
                    en = p["ext_sizes"][r]
                    ext = np.array(view[eoff:eoff + en * k])
                    y = y + e["a_ext"] @ ext.reshape((en,) + tail)
            else:
                y = e["a"] @ x
            view[p["out"] + off * k:p["out"] + (off + n) * k] = y.ravel()
        elif name == "seed":
            # Open a cycle: (re)use the rank's Krylov buffers — basis
            # vectors per format, ``z`` slots — sized once for this
            # system and restart length, and store ``v_0``.
            m = p["restart"]
            bases = [off + f_ * p["n_total"] for f_ in range(p["formats"])]
            basis = e.get("basis")
            if (
                basis is None
                or len(basis) != len(bases)
                or basis[0].shape != (m + 1, n)
            ):
                e["basis"] = basis = [np.empty((m + 1, n)) for _ in bases]
                e["zs"] = np.empty((m, n))
            for b_f, base in zip(basis, bases):
                b_f[0] = view[base:base + n]
            e["filled"] = 1
            e["w"] = None
        elif name == "axpy":
            x = np.array(view[off:off + n])
            zs = e["zs"]
            for i, yi in enumerate(p["y"]):
                x = x + yi * zs[i]
            view[p["out"] + off:p["out"] + off + n] = x
        elif name == "prec":
            view[p["out"] + off:p["out"] + off + n] = _ilu0_apply(
                e, p["key"], view[off:off + n]
            )
        else:
            raise ValueError(f"unknown rank op {name!r}")
        times.append((r, time.perf_counter() - t0))
    return times


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
                    if op == "register":
                        result = _do_register(state, cmd)
                    elif op == "plan":
                        result = _do_plan(state, cmd)
                    elif op == "resident":
                        result = _do_resident(state, cmd, w, n_workers)
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
