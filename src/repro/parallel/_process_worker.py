"""Spawn entry point for :class:`~repro.parallel.process_comm.ProcessComm`
worker processes.

This module is deliberately light — numpy plus stdlib at import time, so
a spawned child never pays for the solver stack up front; the sparse CSR
layer is imported lazily on the first ``resident`` command.  The
orchestrator sends small pickled command tuples over a per-worker pipe;
bulk payloads travel through a per-communicator
``multiprocessing.shared_memory`` arena.

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
    """Per-rank local->global maps, for the fused chain's ``⊕Σ∂Ω``."""
    state["l2g"] = pickle.loads(cmd[3])
    return []


def _do_plan(state, cmd):  # pragma: no cover
    """A halo plan, for the fused chain's worker-side halo fills."""
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

    entry = {"z": {}, "wl": None, "wh": None, "bl": [], "bh": []}
    if kind == "edd":
        entry["a"] = CSRMatrix(
            meta["shape"], arrays["indptr"], arrays["indices"], arrays["data"]
        )
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


def _barrier(view, flags_off, nflags, w, phase, deadline):  # pragma: no cover
    """Arena spin barrier for fused rank ops.

    Each pool worker owns one float64 flag word; a worker signals phase
    ``p`` by storing ``p`` into its word (an aligned 8-byte store, atomic
    on every supported platform) and then spins until every peer's word
    has reached ``p``.  A relative ``deadline`` bounds the spin so a dead
    or stuck peer surfaces as this worker's error reply instead of a
    deadlock — the orchestrator drains every reply and raises the first
    error through its named taxonomy.
    """
    flags = view[flags_off:flags_off + nflags]
    flags[w] = float(phase)
    while True:
        done = True
        for i in range(nflags):
            if flags[i] < phase:
                done = False
                break
        if done:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"worker {w} timed out waiting for peers at fused-op "
                f"barrier phase {phase}"
            )
        time.sleep(0)


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


def _do_chain(state, res, view, p, w, n_workers):  # pragma: no cover
    """Fused degree-``k`` polynomial apply: the whole matvec/recurrence
    chain runs worker-side with one barrier per degree.

    Arena layout: ``[0, n)`` input, ``[n, 2n)`` output, ``[2n, 3n)`` and
    ``[3n, 4n)`` ping-pong exchange slots, flag words after.  Each degree
    publishes into slot ``d % 2``; the ping-pong is safe because a worker
    can only overwrite slot ``d % 2`` at degree ``d + 2`` after passing
    barrier ``d + 2``, which peers only signal once they finished reading
    slot ``d``.  EDD workers redundantly replay the interface assembly
    (same zeros + ordered ``np.add.at`` as ``Comm.interface_assemble``);
    RDD workers fill their halo buffers straight from the slot using the
    resident exchange plan.  Recurrence bodies mirror the generic
    ``apply_linear`` paths of the polynomial preconditioners token for
    token.
    """
    offsets, sizes = p["offsets"], p["sizes"]
    size = len(sizes)
    mode = p["mode"]
    kind = p["kind"]
    prm = p["params"]
    out_base = p["out"]
    slot_base = p["slots"]
    n_total = p["n_total"]
    deadline = time.monotonic() + p["btimeout"]
    owned = list(_owned(w, n_workers, size))
    rank_t = dict.fromkeys(owned, 0.0)

    def part(base, r):
        off = offsets[r]
        return view[base + off:base + off + sizes[r]]

    v = {r: np.array(part(0, r)) for r in owned}
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

    plan = state["plans"][p["plan"]] if mode == "rdd" else None

    for d in range(degree):
        slot = slot_base + (d % 2) * n_total
        for r in owned:
            t0 = time.perf_counter()
            if mode == "edd":
                # Publish the matvec result; assembly follows the barrier.
                part(slot, r)[...] = res["ranks"][r]["a"].matvec(cur[r])
            else:
                # Publish the operand; peers read it for their halos.
                part(slot, r)[...] = cur[r]
            rank_t[r] += time.perf_counter() - t0
        _barrier(view, p["flags"], p["nflags"], w, d + 1, deadline)
        g = {}
        if mode == "edd":
            l2g = state["l2g"]
            glob = np.zeros(p["n_global"])
            for t in range(size):
                np.add.at(glob, l2g[t], part(slot, t))
            for r in owned:
                g[r] = glob[l2g[r]]
        else:
            xsizes = plan["xsizes"]
            x_offsets = plan["x_offsets"]
            for r in owned:
                t0 = time.perf_counter()
                buf = np.zeros(plan["ext_sizes"][r])
                for t, send_idx, recv_slots in plan["ranks"][r]:
                    xoff = x_offsets[t]
                    buf[recv_slots] = view[
                        slot + xoff:slot + xoff + xsizes[t]
                    ][send_idx]
                e = res["ranks"][r]
                y = e["a_loc"].matvec(cur[r])
                if e["a_ext"].shape[1]:
                    y = y + e["a_ext"].matvec(buf)
                g[r] = y
                rank_t[r] += time.perf_counter() - t0
        t0 = time.perf_counter()
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
        if owned:
            dt = (time.perf_counter() - t0) / len(owned)
            for r in owned:
                rank_t[r] += dt
    for r in owned:
        if kind == "neumann":
            part(out_base, r)[...] = omega * z[r]
        else:
            part(out_base, r)[...] = z[r]
    return [(r, t) for r, t in rank_t.items()]


def _do_arn(res, view, p, w, n_workers):  # pragma: no cover
    """Fused Arnoldi step: partial dots, redundant tree reduction of the
    ``(P, j+1)`` rows, and the CGS orthogonalization update — one
    dispatch, one barrier.

    The orchestrator re-runs the *real* ``allreduce_sum`` on the partial
    rows it reads back (identical tree pairing, so identical bits) to
    keep reduction charging, tracer spans and chaos targeting exactly
    where the inline path puts them.
    """
    offsets, sizes = p["offsets"], p["sizes"]
    size = len(sizes)
    j = p["j"]
    two = p["two"]
    pbase = p["partial"]
    deadline = time.monotonic() + p["btimeout"]
    owned = list(_owned(w, n_workers, size))
    rank_t = dict.fromkeys(owned, 0.0)
    for r in owned:
        t0 = time.perf_counter()
        e = res["ranks"][r]
        off, n = offsets[r], sizes[r]
        wvec = np.array(view[off:off + n])
        e["wh"] = wvec
        bl = e["bl"]
        out = np.empty(j + 1)
        for i in range(j + 1):
            out[i] = bl[i] @ wvec
        o = pbase + r * (j + 1)
        view[o:o + j + 1] = out
        rank_t[r] += time.perf_counter() - t0
    _barrier(view, p["flags"], p["nflags"], w, 1, deadline)
    h = _tree_rows(view, pbase, size, j + 1)
    for r in owned:
        t0 = time.perf_counter()
        e = res["ranks"][r]
        off, n = offsets[r], sizes[r]
        wh = e["wh"]
        if two:
            wl = e["wl"]
            bl, bh = e["bl"], e["bh"]
            for i in range(j + 1):
                hi = h[i]
                wl = wl - hi * bl[i]
                wh = wh - hi * bh[i]
            e["wl"] = wl
            e["wh"] = wh
            view[off:off + n] = wl
            view[p["hat"] + off:p["hat"] + off + n] = wh
        else:
            bl = e["bl"]
            for i in range(j + 1):
                wh = wh - h[i] * bl[i]
            e["wh"] = wh
            view[off:off + n] = wh
        rank_t[r] += time.perf_counter() - t0
    return [(r, t) for r, t in rank_t.items()]


def _do_coarse(res, view, p, w, n_workers):  # pragma: no cover
    """Fused two-level coarse correction: restriction, redundant tree
    reduction, redundant (small, dense) coarse solve and prolongation —
    one dispatch, one barrier.

    Every worker solves the redundantly-stored factorized Galerkin
    system itself (``nc`` is tiny), so no second exchange is needed; the
    orchestrator replays the real ``allreduce_sum`` on the partial rows
    for charging/chaos exactly as :func:`_do_arn` does.
    """
    offsets, sizes = p["offsets"], p["sizes"]
    size = len(sizes)
    nc = p["nc"]
    key = p["key"]
    pbase = p["partial"]
    obase = p["out"]
    deadline = time.monotonic() + p["btimeout"]
    owned = list(_owned(w, n_workers, size))
    rank_t = dict.fromkeys(owned, 0.0)
    for r in owned:
        t0 = time.perf_counter()
        aux = res["ranks"][r]["aux"][key]["arrays"]
        off, n = offsets[r], sizes[r]
        vr = np.array(view[off:off + n])
        view[pbase + r * nc:pbase + (r + 1) * nc] = aux["wl"].T @ vr
        rank_t[r] += time.perf_counter() - t0
    _barrier(view, p["flags"], p["nflags"], w, 1, deadline)
    rhs = _tree_rows(view, pbase, size, nc)
    shared = res["shared"][key]
    smeta = shared["meta"]
    fmat = shared["arrays"]["fmat"]
    if smeta["fkind"] == "cho":
        from scipy.linalg import cho_solve

        y = cho_solve((fmat, smeta["lower"]), rhs)
    else:
        from scipy.linalg import lu_solve

        piv = shared["arrays"]["piv"].astype(np.int32)
        y = lu_solve((fmat, piv), rhs)
    for r in owned:
        t0 = time.perf_counter()
        aux = res["ranks"][r]["aux"][key]["arrays"]
        off, n = offsets[r], sizes[r]
        view[obase + off:obase + off + n] = aux["wg"] @ y
        rank_t[r] += time.perf_counter() - t0
    return [(r, t) for r, t in rank_t.items()]


def _do_rank_op(state, cmd, w, n_workers):  # pragma: no cover
    """Execute one named rank operation against resident state.

    Every arithmetic expression below mirrors the orchestrator's inline
    engine token for token (same numpy calls, same association order), so
    the floats written back are bit-identical to inline execution.
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
    if name == "chain":
        return _do_chain(state, res, view, p, w, n_workers)
    if name == "arn":
        return _do_arn(res, view, p, w, n_workers)
    if name == "coarse":
        return _do_coarse(res, view, p, w, n_workers)
    offsets = p["offsets"]
    sizes = p["sizes"]
    times = []
    for r in _owned(w, n_workers, len(sizes)):
        t0 = time.perf_counter()
        e = res["ranks"][r]
        off = offsets[r]
        n = sizes[r]
        if name == "mv":
            x = np.array(view[off:off + n])
            y = e["a"].matvec(x)
            if p["cache"] is not None:
                e["z"][p["cache"]] = x
                e["wl"] = y
            view[p["out"] + off:p["out"] + off + n] = y
        elif name == "mvb":
            k = p["k"]
            x = np.array(view[off * k:(off + n) * k]).reshape(n, k)
            y = e["a"].matmat(x)
            view[p["out"] + off * k:p["out"] + (off + n) * k] = y.ravel()
        elif name == "mv_rdd":
            eoff = p["ext_offsets"][r]
            en = p["ext_sizes"][r]
            x = np.array(view[off:off + n])
            y = e["a_loc"].matvec(x)
            if e["a_ext"].shape[1]:
                ext = np.array(view[p["ext"] + eoff:p["ext"] + eoff + en])
                y = y + e["a_ext"].matvec(ext)
            if p["cache"] is not None:
                e["z"][p["cache"]] = x
            view[p["out"] + off:p["out"] + off + n] = y
        elif name == "mvb_rdd":
            k = p["k"]
            eoff = p["ext_offsets"][r]
            en = p["ext_sizes"][r]
            x = np.array(view[off * k:(off + n) * k]).reshape(n, k)
            y = e["a_loc"].matmat(x)
            if e["a_ext"].shape[1]:
                ext = np.array(
                    view[p["ext"] + eoff * k:p["ext"] + (eoff + en) * k]
                ).reshape(en, k)
                y = y + e["a_ext"].matmat(ext)
            view[p["out"] + off * k:p["out"] + (off + n) * k] = y.ravel()
        elif name == "seed":
            e["z"] = {}
            e["wl"] = None
            e["wh"] = None
            e["bl"] = [np.array(view[off:off + n])]
            if p["two"]:
                e["bh"] = [np.array(view[p["hat"] + off:p["hat"] + off + n])]
            else:
                e["bh"] = []
        elif name == "commit":
            inv_h = p["inv_h"]
            if p["two"]:
                e["bl"].append(inv_h * e["wl"])
                hat = np.array(view[off:off + n]) if p["override"] else e["wh"]
                e["bh"].append(inv_h * hat)
            else:
                e["bl"].append(inv_h * e["wh"])
        elif name == "axpy":
            x = np.array(view[off:off + n])
            z = e["z"]
            for i, yi in enumerate(p["y"]):
                x = x + yi * z[i]
            view[p["out"] + off:p["out"] + off + n] = x
        elif name == "prec":
            # Block-Jacobi ILU0 apply against the shipped factors; the
            # arena copy mirrors the inline ``z = v.copy()`` and the
            # backend solve is the same kernel the inline path runs.
            aux = e["aux"][p["key"]]["arrays"]
            zv = np.array(view[off:off + n])
            kernels.get_backend().ilu0_solve(
                aux["indptr"],
                aux["indices"],
                aux["data"],
                aux["diag_pos"],
                aux["split"],
                zv,
            )
            view[p["out"] + off:p["out"] + off + n] = zv
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
