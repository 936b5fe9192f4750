"""Process-parallel communicator backend (``"process"``): escape the GIL.

:class:`ProcessComm` is :class:`~repro.parallel.comm.VirtualComm` — the
same inline ``run_ranks`` and collectives, hence bit-identical numerics
and identical :class:`~repro.parallel.stats.CommStats` — plus a
persistent pool of spawned worker **processes** that execute *resident
rank ops* (:mod:`repro.parallel.resident`).  The per-rank closures
solvers hand to ``run_ranks`` close over rank-local numpy/CSR state and
cannot cross a process boundary; resident execution escapes that
constraint for the solver hot loops: :meth:`resident_ship` streams each
rank's CSR blocks to its owning worker once (keyed by a generation id,
invalidated on pool respawn) and :meth:`run_rank_op` dispatches named
operations — matvec, polynomial chain, a whole fused Arnoldi step — as
small command descriptors that workers execute against the resident
state, meeting each other through a ``multiprocessing.shared_memory``
arena where an operation needs its peers' data (:meth:`interface_plan`
is what their ``⊕Σ∂Ω`` runs on), so at most vectors — inside a resident
Krylov cycle only reduction scalars — cross process boundaries while all
charging stays with the orchestrator.

Collectives never touch the pool: a communicator whose systems stay
below the residency threshold never spawns a worker and is, literally,
``VirtualComm``.

Pool lifecycle
--------------
The pool is **lazy** (the first resident ship spawns it) and **persistent**
(``ProcessComm.close()`` releases the comm's worker-side registration and
unlinks its shared-memory arena, but parks the processes for the next
communicator — spawning costs ~1 s, a per-solve price short-lived sessions
cannot pay).  ``shutdown_pool()`` drains the processes once no live
communicator borrows them; ``use_comm_backend("process")`` drains on exit,
and an ``atexit`` hook is the backstop.  A crashed or stalled worker
surfaces as a structured :class:`WorkerCrashedError` /
:class:`WorkerTimeoutError` within the per-call timeout instead of a hang,
and marks the pool broken; the next dispatch transparently respawns it.

BLAS threading
--------------
Workers are spawned with ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` /
``MKL_NUM_THREADS`` at ``max(1, usable_cores // n_workers)`` (a lower
value the user set wins; the orchestrator's own environment is restored
after the spawn), so a pool never asks for more BLAS threads than there
are cores — and nothing a solve computes depends on that count: the only
BLAS call whose bits vary with it, a ddot above OpenBLAS's 10000-element
threading threshold, is never issued
(:func:`repro.core.distributed.col_dots` works in blocks of 8192).

Sequence protocol
-----------------
Every arena starts with a ``uint64`` sequence word.  The orchestrator
stamps it immediately before each data-plane dispatch and sends the same
number in the command; workers refuse a mismatch (stale or swapped
segment) and every reply echoes the sequence so the orchestrator can
detect out-of-phase workers.

Tuning environment variables (read at construction):

* ``REPRO_PROCESS_WORKERS`` — worker count cap (default: usable cores, at
  least 2 so the multi-worker paths are exercised on single-core runners).
* ``REPRO_PROCESS_MIN_WORK`` — residency threshold: a system whose
  matvec costs at least this many scalar operations runs its rank ops
  worker-resident, a smaller one inline (default 32768; identical results
  either way, ``0`` forces residency).
* ``REPRO_PROCESS_TIMEOUT`` — per-dispatch timeout in seconds (default
  120) after which a silent pool raises :class:`WorkerTimeoutError`.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np

from repro.parallel._process_worker import HEADER_BYTES, worker_main
from repro.parallel.comm import VirtualComm, guard_nested_comm
from repro.parallel.env_knobs import read_float_env, read_int_env
from repro.partition.interface import SubdomainMap

_DEFAULT_MIN_WORK = 32768
_DEFAULT_TIMEOUT = 120.0


class ProcessPoolError(RuntimeError):
    """Base class of structured process-pool failures."""


class WorkerCrashedError(ProcessPoolError):
    """A worker process died (killed, segfaulted, OOM) mid-dispatch."""

    def __init__(self, worker: int, exitcode, op: str):
        self.worker = int(worker)
        self.exitcode = exitcode
        self.op = op
        super().__init__(
            f"comm worker {worker} died during {op!r} (exitcode "
            f"{exitcode}); the pool is marked broken and will respawn on "
            "the next dispatch"
        )


class WorkerTimeoutError(ProcessPoolError):
    """A worker failed to reply within the per-call timeout."""

    def __init__(self, worker: int, timeout: float, op: str):
        self.worker = int(worker)
        self.timeout = float(timeout)
        self.op = op
        super().__init__(
            f"comm worker {worker} did not reply to {op!r} within "
            f"{timeout:g}s; the pool is marked broken and will respawn on "
            "the next dispatch (tune REPRO_PROCESS_TIMEOUT)"
        )


class ProcessWorkerError(ProcessPoolError):
    """A worker raised while executing a command; carries its traceback."""

    def __init__(self, worker: int, op: str, remote_traceback: str):
        self.worker = int(worker)
        self.op = op
        self.remote_traceback = remote_traceback
        super().__init__(
            f"comm worker {worker} failed during {op!r}:\n{remote_traceback}"
        )


def usable_cores() -> int:
    """Cores this process may run on: the scheduler affinity mask where
    the platform has one (a cpuset-limited container sees its share, not
    the host's core count), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _default_workers() -> int:
    """Worker cap from ``REPRO_PROCESS_WORKERS`` or the usable cores (min 2)."""
    env = os.environ.get("REPRO_PROCESS_WORKERS")
    if env and env.strip():
        return max(1, read_int_env("REPRO_PROCESS_WORKERS", 1))
    return max(2, usable_cores())


#: What sizes a worker's BLAS thread pool when its library loads.
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


@contextmanager
def _blas_capped_environ(n_workers: int):
    """The environment pool workers are spawned with: every BLAS
    thread-count variable at ``max(1, usable_cores // n_workers)``, so
    ``n_workers`` workers never ask for more threads than there are
    cores; a lower value the user already set is passed through.  The
    orchestrator's own ``os.environ`` is restored on exit (the caller
    holds ``_pool_lock``, so no other spawn sees the patched values)."""
    cap = max(1, usable_cores() // n_workers)
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    try:
        for name, value in saved.items():
            try:
                keep = value is not None and 1 <= int(value) <= cap
            except ValueError:
                keep = False
            if not keep:
                os.environ[name] = str(cap)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class _ProcessPool:
    """A persistent pool of spawned workers driven over per-worker pipes.

    One dispatch = broadcast a command tuple to every worker, then gather
    one reply per worker under a deadline, polling liveness so a killed
    worker is detected in ~50 ms rather than at the timeout.  ``lock``
    serializes whole dispatches (arena write + command + replies), so
    concurrent communicators sharing the pool take turns.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self.lock = threading.Lock()
        self.broken = False
        self._closed = False
        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        with _blas_capped_environ(n_workers):
            for w in range(n_workers):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_main,
                    args=(w, n_workers, child),
                    name=f"repro-comm-proc-{w}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)

    def run_cmd(self, cmd: tuple, timeout: float) -> list:
        """Broadcast ``cmd`` and gather all replies (caller holds ``lock``).

        Returns the per-worker payloads.  Raises the structured error
        taxonomy on crash/timeout/protocol mismatch and marks the pool
        broken so no later caller blocks on a dead pipe.
        """
        if self.broken or self._closed:
            raise ProcessPoolError(
                "process pool is broken or closed; dispatch should have "
                "acquired a fresh pool"
            )
        op, seq = cmd[0], cmd[1]
        for w, conn in enumerate(self._conns):
            try:
                conn.send(cmd)
            except (BrokenPipeError, OSError):
                # A worker that died since the last dispatch breaks the
                # pipe on send; surface it as the same named error the
                # receive path raises instead of a raw BrokenPipeError.
                self.broken = True
                raise WorkerCrashedError(w, self._procs[w].exitcode, op)
        deadline = time.monotonic() + timeout
        payloads = []
        errors = []
        for w, conn in enumerate(self._conns):
            while not conn.poll(0.05):
                if not self._procs[w].is_alive():
                    self.broken = True
                    raise WorkerCrashedError(w, self._procs[w].exitcode, op)
                if time.monotonic() > deadline:
                    self.broken = True
                    raise WorkerTimeoutError(w, timeout, op)
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self.broken = True
                raise WorkerCrashedError(w, self._procs[w].exitcode, op)
            if reply[0] != seq:
                self.broken = True
                raise ProcessPoolError(
                    f"comm worker {w} replied out of sequence during "
                    f"{op!r}: got seq {reply[0]}, expected {seq}"
                )
            if reply[1] == "err":
                # Keep draining the other workers' replies before raising:
                # an undrained pipe would feed a stale reply to the next
                # dispatch and falsely break the pool.
                errors.append(ProcessWorkerError(w, op, reply[2]))
            else:
                payloads.append(reply[2])
        if errors:
            raise errors[0]
        return payloads

    def process_ids(self) -> list:
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Shut down all workers (graceful, then terminate); idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown", 0))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


# One shared pool per orchestrator process.  A ProcessComm only borrows
# it; live borrowers are tracked in a WeakSet so shutdown_pool() can
# refuse to pull workers out from under an open comm.
_pool_lock = threading.Lock()
_shared_pool: list = [None]
_live_comms: "weakref.WeakSet" = weakref.WeakSet()
_comm_ids = itertools.count(1)
#: Orchestrator-owned shared-memory segments by name; close()/regrowth
#: unlink eagerly, the atexit hook unlinks whatever is left.
_segments: dict = {}


def _acquire_pool(n_workers: int) -> _ProcessPool:
    """The process-wide pool, respawned when broken or too small."""
    with _pool_lock:
        pool = _shared_pool[0]
        if pool is None or pool.broken or pool.n_workers < n_workers:
            if pool is not None:
                pool.close()
            pool = _ProcessPool(n_workers)
            _shared_pool[0] = pool
        return pool


def shutdown_pool(force: bool = False) -> bool:
    """Drain the shared worker-process pool; idempotent.

    Without ``force`` the pool survives while any live (unclosed)
    :class:`ProcessComm` still borrows it.  ``ProcessComm.close()`` does
    **not** call this: spawning costs ~1 s per worker, so parked
    processes are reused across solves and drained here
    (``use_comm_backend`` exit, tests, atexit).  Returns True when the
    pool is down.
    """
    with _pool_lock:
        if not force and len(_live_comms):
            return False
        pool = _shared_pool[0]
        if pool is None:
            return True
        _shared_pool[0] = None
    pool.close()
    return True


def pool_process_count() -> int:
    """Worker processes currently alive in the shared pool (0 = drained);
    the observability hook the lifecycle tests assert against."""
    with _pool_lock:
        pool = _shared_pool[0]
        if pool is None:
            return 0
        return sum(p.is_alive() for p in pool._procs)


def _unlink_segment(name: str) -> None:
    shm = _segments.pop(name, None)
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter shutdown
    shutdown_pool(force=True)
    for name in list(_segments):
        _unlink_segment(name)


atexit.register(_atexit_cleanup)


class ProcessComm(VirtualComm):
    """``VirtualComm`` plus a worker-process pool for resident rank ops
    (``"process"``).

    Parameters
    ----------
    submap:
        DOF sharing structure (same as :class:`VirtualComm`).
    trace:
        Record per-message tuples in :attr:`message_log`.
    n_workers:
        Worker-process cap; defaults to ``REPRO_PROCESS_WORKERS`` or the
        usable cores.  Ranks beyond the cap are strided over the workers.
    min_dispatch_work:
        Residency threshold (:func:`repro.parallel.resident.engine_mode`):
        systems whose matvec costs at least this many scalar operations
        run their rank ops in the workers, smaller ones inline (identical
        results, no pipe latency); defaults to ``REPRO_PROCESS_MIN_WORK``
        or 32768.
    call_timeout:
        Seconds a dispatch may wait for worker replies before raising
        :class:`WorkerTimeoutError`; defaults to ``REPRO_PROCESS_TIMEOUT``
        or 120.
    """

    backend_name = "process"

    def __init__(
        self,
        submap: SubdomainMap,
        trace: bool = False,
        n_workers: int | None = None,
        min_dispatch_work: int | None = None,
        call_timeout: float | None = None,
    ):
        guard_nested_comm("process")
        super().__init__(submap, trace=trace)
        if n_workers is None:
            n_workers = _default_workers()
        self.n_workers = max(1, min(int(n_workers), self.size))
        if min_dispatch_work is None:
            min_dispatch_work = read_int_env(
                "REPRO_PROCESS_MIN_WORK", _DEFAULT_MIN_WORK
            )
        self.min_dispatch_work = min_dispatch_work
        if call_timeout is None:
            call_timeout = read_float_env(
                "REPRO_PROCESS_TIMEOUT", _DEFAULT_TIMEOUT
            )
        self.call_timeout = call_timeout
        self._comm_id = next(_comm_ids)
        self._closed = False
        self._pool = None
        self._registered = False
        self._seq = 0
        self._arena = None
        self._arena_name = None
        self._arena_words = 0
        self._arena_gen = 0
        #: plan id -> shipped halo plan; pinning the plan dict keeps
        #: ``id(plan)`` from being recycled under us.
        self._plans: dict = {}
        self._iface_plan = None
        #: resident-state generation ids the current pool has received;
        #: cleared on pool respawn so engines re-ship transparently.
        self._resident_sent: set = set()
        _live_comms.add(self)

    # ------------------------------------------------------------------
    # Pool / arena plumbing
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> _ProcessPool:
        pool = _acquire_pool(self.n_workers)
        if pool is not self._pool:
            # Fresh (or respawned) pool: worker-side state is gone.
            self._pool = pool
            self._registered = False
            self._resident_sent.clear()
            for entry in self._plans.values():
                entry["sent"] = False
        return pool

    def _ensure_arena(self, total_words: int) -> np.ndarray:
        """Float64 payload view of an arena with >= ``total_words`` words,
        growing geometrically (new name per generation so workers detect
        the swap through the command's arena field)."""
        if self._arena is None or self._arena_words < total_words:
            new_words = max(int(total_words), 2 * self._arena_words, 1024)
            self._arena_gen += 1
            name = (
                f"repro-pc-{os.getpid()}-{self._comm_id}-{self._arena_gen}"
            )
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=HEADER_BYTES + 8 * new_words
            )
            if self._arena is not None:
                _unlink_segment(self._arena_name)
            self._arena = shm
            self._arena_name = name
            self._arena_words = new_words
            _segments[name] = shm
        return np.ndarray(
            (self._arena_words,),
            dtype=np.float64,
            buffer=self._arena.buf,
            offset=HEADER_BYTES,
        )

    def _stamp(self) -> int:
        """Advance and write the arena header sequence word."""
        self._seq += 1
        header = np.ndarray((2,), dtype=np.uint64, buffer=self._arena.buf)
        header[0] = self._seq
        return self._seq

    def _control(self, pool: _ProcessPool, op: str, *args) -> list:
        """Send a control command (no arena payload) to every worker."""
        self._seq += 1
        return pool.run_cmd(
            (op, self._seq, self._comm_id) + args, self.call_timeout
        )

    def interface_plan(self) -> dict:
        """What the workers' peer-to-peer ``⊕Σ∂Ω`` runs on (cached; the
        subdomain map is immutable): ``words``, the length of one
        exchange slot — every rank's interface DOFs packed end to end —
        and per rank ``(idx, pub, levels)``: the local indices of its
        interface DOFs, where it publishes their values in a slot, and
        per level ``k`` a pair ``(sel, src)`` — ``src`` the slot
        positions holding the ``k``-th lowest-ranked sharer's value for
        the DOFs ``idx[sel]`` that have more than ``k`` sharers (``sel``
        None: all of them).  Summing the levels in order from 0.0 is the
        ascending-rank order :meth:`interface_assemble` adds in."""
        if self._iface_plan is None:
            shared = self.submap.shared
            idx = [
                np.unique(np.concatenate(list(sh.values())))
                if sh else np.zeros(0, dtype=np.int64)
                for sh in shared
            ]
            pub = np.concatenate([[0], np.cumsum([len(i) for i in idx])])
            ranks = []
            for s in range(self.size):
                # pos[t, c]: where rank t published DOF idx[s][c], or -1.
                pos = np.full((self.size, len(idx[s])), -1, dtype=np.int64)
                pos[s] = pub[s] + np.arange(len(idx[s]))
                for t, local in shared[s].items():
                    theirs = np.searchsorted(idx[t], shared[t][s])
                    pos[t, np.searchsorted(idx[s], local)] = pub[t] + theirs
                # Sharers first, in ascending rank order, per column.
                order = np.argsort(pos < 0, axis=0, kind="stable")
                pos = np.take_along_axis(pos, order, axis=0)
                sharers = (pos >= 0).sum(axis=0)
                levels = []
                for k in range(int(sharers.max()) if len(sharers) else 0):
                    sel = np.flatnonzero(sharers > k)
                    full = len(sel) == len(sharers)
                    levels.append((None if full else sel, pos[k, sel]))
                ranks.append((idx[s], int(pub[s]), levels))
            self._iface_plan = {"words": int(pub[-1]), "ranks": ranks}
        return self._iface_plan

    def _register(self, pool: _ProcessPool) -> None:
        if self._registered:
            return
        blob = pickle.dumps(self.interface_plan()["ranks"])
        self._control(pool, "register", blob)
        self._registered = True

    def _charge_times(self, payloads: list) -> dict:
        """Feed the workers' busy seconds to the tracer; returns the
        per-phase totals a fused op reported (empty otherwise)."""
        phases: dict = {}
        n_workers = self._pool.n_workers
        for times in payloads:
            for r, dt, *split in times:
                self.tracer.add_rank_time(int(r), float(dt))
                # Rank striding maps rank -> owning worker process.
                self.tracer.add_worker_time(int(r) % n_workers, float(dt))
                for phase, seconds in (split[0] if split else {}).items():
                    phases[phase] = phases.get(phase, 0.0) + seconds
        return phases

    # ------------------------------------------------------------------
    # Resident rank execution (see repro.parallel.resident)
    # ------------------------------------------------------------------
    def resident_ship(self, gen: int, rank_states: list) -> None:
        """Stream per-rank resident solver state to its owning worker.

        ``rank_states[r]`` is ``{"kind", "arrays", "meta"}``; each array
        is laid into the shared-memory arena (8-byte integer arrays cross
        as raw float64 bytes via ``.view``) and described by a typed field
        table in the command, one dispatch per rank so the arena stays
        bounded by a single rank's footprint.  Shipping charges no
        CommStats: it is transport, not modelled communication.
        """
        pool = self._ensure_pool()
        with pool.lock:
            self._register(pool)
            for rank, st in enumerate(rank_states):
                self._ship_state(pool, st, {"gen": int(gen), "rank": rank})
        self._resident_sent.add(int(gen))

    def _ship_state(self, pool, st: dict, extra_meta: dict) -> None:
        """Lay one state's typed arrays into the arena and dispatch a
        ``resident`` command describing them (caller holds the pool lock)."""
        arrays = list(st["arrays"].items())
        fields = []
        off = 0
        for name, arr in arrays:
            fields.append(
                (name, str(arr.dtype), tuple(arr.shape), off)
            )
            off += int(arr.size)
        total_words = max(off, 1)
        view = self._ensure_arena(total_words)
        for (_nm, _dt, _shape, foff), (_name, arr) in zip(
            fields, arrays
        ):
            flat = np.ascontiguousarray(arr).reshape(-1)
            if flat.dtype != np.float64:
                flat = flat.view(np.float64)
            view[foff:foff + flat.size] = flat
        meta = dict(st.get("meta", {}))
        meta.update(extra_meta)
        meta.update(kind=st["kind"], fields=fields)
        seq = self._stamp()
        pool.run_cmd(
            (
                "resident", seq, self._comm_id, self._arena_name,
                total_words, meta,
            ),
            self.call_timeout,
        )

    def resident_ship_aux(self, gen: int, states: list) -> None:
        """Attach auxiliary solver state (preconditioner factors, coarse
        bases) to an already-shipped generation.

        Each state is ``{"kind": "aux"|"aux_shared", "arrays", "meta"}``;
        ``aux`` metas name an owning ``rank`` (only that rank's worker
        keeps it, under ``meta["key"]``), ``aux_shared`` metas broadcast
        to every worker (small redundant state such as a factorized
        coarse matrix).  A worker that has not seen the base generation
        raises, surfacing as the pool's named error taxonomy.  Like
        :meth:`resident_ship` this charges no CommStats: transport, not
        modelled communication.
        """
        pool = self._ensure_pool()
        with pool.lock:
            self._register(pool)
            for st in states:
                self._ship_state(pool, st, {"gen": int(gen)})

    def resident_ship_plan(self, plan: dict, xsizes: list, ext_sizes: list):
        """Ship a halo plan for worker-side halo fills inside fused rank
        ops (once per pool); returns the plan token.  Entries are cached
        and pinned by ``id(plan)`` — plans, and so their sizes, are
        immutable for a system's lifetime."""
        entry = self._plans.get(id(plan))
        if entry is None:
            ranks = [
                [
                    (int(t), np.asarray(plan[t][s][0]), np.asarray(recv_slots))
                    for t, (_, recv_slots) in plan[s].items()
                ]
                for s in range(self.size)
            ]
            entry = self._plans[id(plan)] = {
                "token": len(self._plans) + 1,
                "plan": plan,  # pin, so id(plan) stays unique while cached
                "blob": pickle.dumps(
                    {
                        "ranks": ranks,
                        "xsizes": list(xsizes),
                        "ext_sizes": list(ext_sizes),
                    }
                ),
                "sent": False,
            }
        pool = self._ensure_pool()
        with pool.lock:
            self._register(pool)
            if not entry["sent"]:
                self._control(pool, "plan", entry["token"], entry["blob"])
                entry["sent"] = True
        return entry["token"]

    def pool_width(self) -> int:
        """Worker count of the acquired pool (>= ``n_workers``: an
        existing wider pool is reused as-is).  Fused rank ops size their
        barrier flag region with this."""
        return self._ensure_pool().n_workers

    def resident_ready(self, gen: int) -> bool:
        """True when generation ``gen`` is resident in the current pool
        (acquiring the pool first, so a respawn invalidates honestly)."""
        self._ensure_pool()
        return int(gen) in self._resident_sent

    def run_rank_op(
        self, payload: dict, writes: list, reads: list, total_words: int
    ) -> list:
        """Dispatch one named rank operation against resident state.

        ``writes`` are ``(offset_words, array)`` inputs copied into the
        arena before the command; ``reads`` are ``(offset_words, n_words)``
        output segments copied back out after every worker replied.
        Pure transport — flops charging is the calling engine's job, so
        CommStats stay exactly equal to inline execution.  Traced, the
        dispatch is one ``rank_op`` span naming the op, the phases a
        fused op carried and the worker seconds each phase took.
        """
        trc = self.tracer
        traced = trc.enabled
        if traced:
            trc.begin("rank_op", "comm", op=payload["name"])
        phases: dict = {}
        try:
            pool = self._ensure_pool()
            with pool.lock:
                self._register(pool)
                view = self._ensure_arena(max(total_words, 1))
                for off, arr in writes:
                    flat = np.asarray(arr).reshape(-1)
                    view[off:off + flat.size] = flat
                seq = self._stamp()
                payloads = pool.run_cmd(
                    (
                        "rankop", seq, self._comm_id, self._arena_name,
                        max(total_words, 1), payload,
                    ),
                    self.call_timeout,
                )
                outs = [np.array(view[off:off + n]) for off, n in reads]
            if traced:
                phases = self._charge_times(payloads)
        finally:
            if traced:
                trc.end(**({"phases": phases} if phases else {}))
        return outs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker-side state and unlink this comm's shared-memory
        arena; idempotent.  Worker *processes* stay parked for the next
        communicator (drain them with :func:`shutdown_pool`)."""
        if self._closed:
            return
        self._closed = True
        _live_comms.discard(self)
        pool = self._pool
        if pool is not None and self._registered and not pool.broken:
            try:
                with pool.lock:
                    self._control(pool, "release")
            except (ProcessPoolError, OSError):
                pass  # crashed pools cannot clean up; segments still unlink
        if self._arena is not None:
            _unlink_segment(self._arena_name)
            self._arena = None
            self._arena_name = None
            self._arena_words = 0
        self._plans.clear()
        self._resident_sent.clear()
        self._pool = None

    # Test hook: force a worker-side stall so the per-call timeout path
    # can be exercised deterministically (see the chaos stall suite).
    def _debug_stall(self, seconds: float, timeout: float | None = None):
        pool = self._ensure_pool()
        with pool.lock:
            self._seq += 1
            return pool.run_cmd(
                ("sleep", self._seq, float(seconds)),
                self.call_timeout if timeout is None else timeout,
            )
