"""Process-parallel communicator backend (``"process"``): escape the GIL.

:class:`ProcessComm` is :class:`~repro.parallel.comm.VirtualComm` — the
same inline ``run_ranks`` and collectives, hence bit-identical numerics
and identical :class:`~repro.parallel.stats.CommStats` — plus a
persistent pool of spawned worker **processes** that execute *resident
rank ops* (:mod:`repro.parallel.resident`).  The per-rank closures
solvers hand to ``run_ranks`` close over rank-local numpy/CSR state and
cannot cross a process boundary; resident execution escapes that
constraint for the solver hot loops: :meth:`ship` streams each piece of
resident state — a rank's CSR blocks with its part of the exchange plan,
a preconditioner's factors — to the workers that keep it, once per key
and pool (a respawn forgets every key), and :meth:`run_rank_op`
dispatches the named operations of a resident Krylov cycle — ``seed``,
one fused ``step`` per Arnoldi step, ``axpy`` — as small command
descriptors that workers execute against the resident state, meeting
each other through a ``multiprocessing.shared_memory`` arena where an
operation needs its peers' data (:meth:`interface_plan` is what their
``⊕Σ∂Ω`` runs on), so inside a cycle only reduction scalars cross
process boundaries while all charging stays with the orchestrator.

Collectives never touch the pool: a communicator whose systems stay
below the residency threshold never spawns a worker and is, literally,
``VirtualComm``.

Pool lifecycle
--------------
The pool is **lazy** (the first resident ship spawns it) and **persistent**
(``ProcessComm.close()`` releases the comm's worker-side state and
unlinks its shared-memory arena, but parks the processes for the next
communicator — spawning two workers and getting their first reply takes
0.13–0.18 s on a 2-vCPU Xeon, mostly each child's numpy import, a
per-solve price short-lived sessions should not pay).  Every spawn and
respawn is one INFO record on the ``repro.parallel`` logger.  ``shutdown_pool()`` drains the processes once no live
communicator borrows them; ``use_comm_backend("process")`` drains on exit,
and an ``atexit`` hook is the backstop.  A crashed or stalled worker
surfaces as a structured :class:`WorkerCrashedError` /
:class:`WorkerTimeoutError` within the per-call timeout instead of a hang
(one WARNING record naming the worker, the op and the exit code or
timeout), and marks the pool broken; the next dispatch transparently
respawns it, and the comm that meets the new pool logs at INFO how many
held keys it lost.

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
  120; positive and finite) after which a silent pool raises
  :class:`WorkerTimeoutError`.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import multiprocessing
import os
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

_log = logging.getLogger("repro.parallel")
#: Pool-loss and invalidation records: a child of ``repro.parallel``, so
#: they reach its handlers while the spawn records keep the parent's name
#: to themselves.
_events = logging.getLogger(__name__)


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
                raise self._lost(w, op)
        deadline = time.monotonic() + timeout
        payloads = []
        errors = []
        for w, conn in enumerate(self._conns):
            while not conn.poll(0.05):
                if not self._procs[w].is_alive():
                    raise self._lost(w, op)
                if time.monotonic() > deadline:
                    raise self._lost(w, op, timeout)
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise self._lost(w, op)
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

    def _lost(self, w: int, op: str, timeout: float | None = None):
        """Mark the pool broken and log a WARNING for worker ``w``: dead
        (its exit code) or silent past ``timeout``; returns the named
        error to raise."""
        self.broken = True
        if timeout is None:
            err = WorkerCrashedError(w, self._procs[w].exitcode, op)
            _events.warning(
                "comm worker %d died during %r (exitcode %s)",
                w, op, err.exitcode,
            )
        else:
            err = WorkerTimeoutError(w, timeout, op)
            _events.warning(
                "comm worker %d did not reply to %r within %gs",
                w, op, timeout,
            )
        return err

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
    """The process-wide pool, respawned when broken or too small; every
    spawn is one INFO record on the ``repro.parallel`` logger naming the
    reason and the worker pids."""
    with _pool_lock:
        pool = _shared_pool[0]
        if pool is None:
            reason = "first use"
        elif pool.broken:
            reason = "broken"
        elif pool.n_workers < n_workers:
            reason = "grown"
        else:
            return pool
        if pool is not None:
            pool.close()
        pool = _ProcessPool(n_workers)
        _shared_pool[0] = pool
        _log.info(
            "process pool spawned (%s): %d workers, pids %s",
            reason, n_workers, pool.process_ids(),
        )
        return pool


def shutdown_pool(force: bool = False) -> bool:
    """Drain the shared worker-process pool; idempotent.

    Without ``force`` the pool survives while any live (unclosed)
    :class:`ProcessComm` still borrows it.  ``ProcessComm.close()`` does
    **not** call this: a spawn costs a child interpreter and its numpy
    import per worker (0.13–0.18 s for two on a 2-vCPU Xeon), so parked
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
        self._seq = 0
        self._arena = None
        self._arena_name = None
        self._arena_words = 0
        self._arena_gen = 0
        self._iface_plan = None
        #: Keys of the states the current pool holds (:meth:`ship`).
        self._held: set = set()
        _live_comms.add(self)

    # ------------------------------------------------------------------
    # Pool / arena plumbing
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> _ProcessPool:
        """The shared pool; the one place held keys are forgotten — a
        fresh (or respawned) pool holds no worker-side state, and a
        respawn says so in one INFO record."""
        pool = _acquire_pool(self.n_workers)
        if pool is not self._pool:
            if self._pool is not None:
                _events.info(
                    "comm %d met a respawned pool: %d held keys invalidated",
                    self._comm_id, len(self._held),
                )
            self._pool = pool
            self._held.clear()
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
    def ship(self, key, states, **span) -> None:
        """Ship resident state under ``key`` unless the current pool
        holds it (a respawned pool holds nothing, so it ships again).

        ``states()`` lists the states, each ``{"rank", "arrays",
        "meta"}``: a state with a ``rank`` is kept by the worker owning
        that rank, one whose ``rank`` is None by every worker.  Each
        state is one dispatch: its arrays are laid into the
        shared-memory arena (8-byte integer arrays cross as raw float64
        bytes via ``.view``) and described by a typed field table in the
        command, its small ``meta`` rides in the command, so the arena
        stays bounded by one state's footprint.  Traced, an actual ship
        is one ``resident_ship`` span carrying ``span`` as its
        arguments.  Shipping charges no CommStats: it is transport, not
        modelled communication.
        """
        pool = self._ensure_pool()
        if key in self._held:
            return
        trc = self.tracer
        if trc.enabled:
            trc.begin("resident_ship", "phase", **span)
        try:
            with pool.lock:
                for st in states():
                    self._ship_state(pool, key, st)
            self._held.add(key)
        finally:
            if trc.enabled:
                trc.end()

    def _ship_state(self, pool, key, st: dict) -> None:
        """Lay one state's typed arrays into the arena and dispatch the
        ``ship`` command describing them (caller holds the pool lock)."""
        fields = []
        off = 0
        for name, arr in st["arrays"].items():
            fields.append((name, str(arr.dtype), tuple(arr.shape), off))
            off += int(arr.size)
        total_words = max(off, 1)
        view = self._ensure_arena(total_words)
        for (*_, foff), arr in zip(fields, st["arrays"].values()):
            flat = np.ascontiguousarray(arr).reshape(-1)
            if flat.dtype != np.float64:
                flat = flat.view(np.float64)
            view[foff:foff + flat.size] = flat
        meta = {
            "key": key, "rank": st["rank"], "fields": fields,
            "meta": st.get("meta", {}),
        }
        seq = self._stamp()
        pool.run_cmd(
            ("ship", seq, self._comm_id, self._arena_name, total_words, meta),
            self.call_timeout,
        )

    def pool_width(self) -> int:
        """Worker count of the acquired pool (>= ``n_workers``: an
        existing wider pool is reused as-is).  Fused rank ops size their
        barrier flag region with this."""
        return self._ensure_pool().n_workers

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
        if pool is not None and self._arena is not None and not pool.broken:
            # Workers hold state for this comm only once its arena
            # carried a command: release it.
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
