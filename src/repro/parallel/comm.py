"""Pluggable communicator backends.

The SPMD algorithms in :mod:`repro.core` are written exactly as the paper's
listings — per-rank local arrays, nearest-neighbour interface assemblies
``⊕Σ∂Ω``, halo scatter/gathers and allreduces — against the abstract
:class:`Comm` interface defined here.  Three backends implement it:

* :class:`VirtualComm` (``"virtual"``, the default) plays the role MPI
  plays in the paper's C implementation: all ranks live in one process and
  every rank body runs serially, which keeps execution deterministic while
  recording, per rank, precisely the traffic a real MPI run would generate.
* :class:`~repro.parallel.process_comm.ProcessComm` (``"process"``) is
  ``VirtualComm`` plus a persistent pool of spawned worker *processes*
  that execute **resident rank ops** (:mod:`repro.parallel.resident`):
  each rank's CSR blocks ship to its worker once, and the solver hot
  loops dispatch named operations against them.  Collectives and rank
  closures (which cannot cross a process boundary) run in the
  orchestrator, exactly as on ``virtual``.
* :class:`~repro.parallel.chaos.ChaosComm` (``"chaos"``) is
  ``VirtualComm`` plus deterministic message-level faults injected from a
  seeded :class:`~repro.parallel.chaos.FaultPlan` — the test seam proving
  the solvers never return a silently wrong answer when an exchange
  misbehaves.

So "how do rank bodies and collectives execute" has two answers: inline
in the orchestrator, or as resident rank ops in the process pool.  All
backends run the collective implementations in :class:`Comm` — including
the fixed-topology binary-tree allreduce — so a solve is **bit-identical**
across backends: same iteration counts, same residual histories, same
recorded counters.  Selection: ``make_comm(submap)`` consults
``set_comm_backend(name)`` / the ``REPRO_COMM_BACKEND`` environment
variable (read at first use), mirroring the kernel-backend registry in
:mod:`repro.sparse.kernels`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro.obs.tracer import NULL_TRACER, timed_rank_body
from repro.parallel.stats import CommStats
from repro.partition.interface import SubdomainMap


class NestedCommError(RuntimeError):
    """Constructing a communicator inside a worker of another communicator.

    Code running in a pool worker that builds its own ``ProcessComm``
    would recursively enter the shared worker pool — a region that is
    already executing — which used to surface as an opaque hang.  The
    registry (:func:`make_comm`) and the ``ProcessComm`` constructor
    detect the nesting and raise this named error instead.
    """


def current_worker_backend() -> str | None:
    """Backend name of the comm worker the caller runs inside, or None.

    Worker processes advertise themselves through the
    ``REPRO_COMM_WORKER`` environment variable, set in the spawned child
    before any user code runs."""
    return os.environ.get("REPRO_COMM_WORKER") or None


def guard_nested_comm(backend_name: str) -> None:
    """Raise :class:`NestedCommError` when called from inside a comm
    worker (the nested-pool footgun); no-op in the orchestrator."""
    inside = current_worker_backend()
    if inside is not None:
        raise NestedCommError(
            f"cannot construct a {backend_name!r} communicator inside a "
            f"{inside!r} comm worker: nested pools would re-enter a "
            "parallel region that is already executing.  Build the "
            "communicator in the orchestrator instead."
        )


class Comm:
    """Abstract P-rank communicator bound to a subdomain map.

    Subclasses supply the execution strategy through :meth:`run_ranks`;
    every collective defined here is expressed in terms of it plus
    deterministic orchestrator-side data movement, which is what
    guarantees backend-independent numerics.

    Parameters
    ----------
    submap:
        The EDD :class:`SubdomainMap` (used for interface assembly); RDD
        solvers use :meth:`halo_exchange` with explicit plans instead and
        may pass a map with empty sharing.
    trace:
        When tracing, every point-to-point message is appended to
        :attr:`message_log` as a ``(src, dst, words)`` tuple — the
        validation tests assert the symmetry properties a correct MPI
        exchange must have.
    """

    #: Registry name of the backend (``"virtual"``, ``"process"``, ...).
    backend_name = "abstract"

    def __init__(self, submap: SubdomainMap, trace: bool = False):
        self.submap = submap
        self.size = submap.n_parts
        self.stats = CommStats(self.size)
        self.trace = trace
        self.message_log: list = []
        #: Span tracer (``repro.obs``).  Defaults to the shared
        #: :data:`~repro.obs.tracer.NULL_TRACER`, whose class-level
        #: ``enabled = False`` makes every per-collective guard a plain
        #: attribute load — the zero-cost-when-off contract.
        self.tracer = NULL_TRACER
        self._iface_counts_cache = None

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a span tracer.

        An enabled tracer receives one ``exchange``/``reduction`` span
        per collective (with message/word counts in its args) and
        per-rank busy time accumulated around every rank body.
        """
        self.tracer = NULL_TRACER if tracer is None else tracer
        if self.tracer.enabled:
            self.tracer.ensure_ranks(self.size)

    def _iface_counts(self) -> tuple:
        """Cached ``(messages, words)`` totals of one interface assembly.

        The subdomain map is immutable for the comm's lifetime, so the
        per-pair loop runs once, not per traced collective.
        """
        if self._iface_counts_cache is None:
            messages = words = 0
            for s in range(self.size):
                for local_idx in self.submap.shared[s].values():
                    messages += 1
                    words += len(local_idx)
            self._iface_counts_cache = (messages, words)
        return self._iface_counts_cache

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------
    def run_ranks(self, body) -> list:
        """Execute ``body(rank)`` once per rank; return the P results.

        This is the SPMD dispatch point: solver loops hand each rank's
        loop body to the backend as a closure.  Bodies MUST only touch
        rank-``r`` state (their slice of the part lists and
        ``stats.ranks[r]``), as the code of one MPI rank would.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent."""

    def __enter__(self) -> "Comm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Flop accounting (kernels call these; data ops happen elsewhere)
    # ------------------------------------------------------------------
    def add_flops(self, rank: int, n: int) -> None:
        """Charge ``n`` flops to ``rank`` (disjoint per-rank update)."""
        self.stats.ranks[rank].flops += int(n)

    def add_flops_all(self, per_rank) -> None:
        """Charge each rank its own flop count from a sequence."""
        for r, n in enumerate(per_rank):
            self.stats.ranks[r].flops += int(n)

    # ------------------------------------------------------------------
    # Data movement of the collectives (numerics-free except the tree sum)
    # ------------------------------------------------------------------
    def _gather_back(self, glob: np.ndarray) -> list:
        """Gather the scatter-added global array back per rank.

        The second half of ``⊕Σ∂Ω``: ``out[s] = glob[l2g[s]]`` — a pure
        permutation copy.  ``glob`` is ``(n_global,)`` or
        ``(n_global, k)``.
        """
        submap = self.submap
        out = [None] * self.size

        def gather(s: int) -> None:
            out[s] = glob[submap.l2g[s]].copy()

        self.run_ranks(gather)
        return out

    def _halo_fill(self, x_parts: list, plan: dict, ext: list) -> None:
        """Fill the preallocated external buffers of a halo exchange.

        Receiver-centric permutation copy: rank ``s`` writes
        ``ext[s][recv_slots] = x_parts[t][send_idx]`` for each neighbour.
        Handles vectors and ``(n, k)`` blocks alike (fancy indexing is
        row-wise either way).
        """

        def receive(s: int) -> None:
            buf = ext[s]
            for t, (_, recv_slots) in plan[s].items():
                send_idx, _ = plan[t][s]
                buf[recv_slots] = x_parts[t][send_idx]

        self.run_ranks(receive)

    @staticmethod
    def _tree_reduce(vals: list):
        """Combine per-rank values in fixed binary-tree order.

        The pairing ``(v0+v1)+(v2+v3)...`` a recursive-doubling MPI
        allreduce performs; the resident workers' ``_tree_rows`` repeats
        this exact association (float addition is not associative) so
        results stay bit-reproducible.
        """
        while len(vals) > 1:
            nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
            if len(vals) % 2:
                nxt.append(vals[-1])
            vals = nxt
        return vals[0]

    # ------------------------------------------------------------------
    # Collectives (shared by all backends — deterministic by construction)
    # ------------------------------------------------------------------
    def interface_assemble(self, parts: list) -> list:
        """The paper's ``⊕Σ∂Ω`` (Eq. 28): local-distributed -> global-distributed.

        Every subdomain adds its neighbours' contributions on shared DOFs.
        Implemented with a scatter-add through the global numbering (which
        yields exactly the assembled values) followed by a per-rank
        gather-back dispatched through :meth:`run_ranks`; communication is
        charged per neighbouring pair: one message of ``len(shared)``
        words each way.  Interface-DOF additions are also charged as
        flops.

        ``parts`` are all ``(n_local,)`` vectors or all ``(n_local, k)``
        blocks.  One call assembles all ``k`` columns at once, which is
        the point: a k-RHS Arnoldi step still costs **one** message per
        neighbouring pair (Algorithm 6's invariant holds per step, not
        per column), with the payload simply ``k`` times wider —
        ``nbr_messages`` counts as a single exchange while
        ``nbr_words``/``flops`` scale with ``k``, so the coalescing win
        is visible in the modeled latency term.  Column ``c`` of the
        result is bit-identical to the assembly of column ``c`` alone
        (same scatter-add order).
        """
        submap = self.submap
        if len(parts) != self.size:
            raise ValueError("one part per rank required")
        tail = parts[0].shape[1:]

        def move() -> list:
            glob = np.zeros((submap.n_global,) + tail)
            for g, p in zip(submap.l2g, parts):
                np.add.at(glob, g, p)
            return self._gather_back(glob)

        return self._charge_interface(tail, move)

    def _charge_interface(self, tail: tuple, move=None):
        """Everything one ``⊕Σ∂Ω`` over parts of trailing shape ``tail``
        (``()`` or ``(k,)``) records — tracer span (``k`` among its args
        exactly for blocks), per-pair message/word/flop charges, message
        log — around the data movement ``move()`` when there is one."""
        k = tail[0] if tail else 1
        trc = self.tracer
        if trc.enabled:
            messages, words = self._iface_counts()
            trc.begin("interface_assemble", "exchange", messages=messages,
                      words=words * k, **({"k": k} if tail else {}))
        out = None if move is None else move()
        for s in range(self.size):
            rs = self.stats.ranks[s]
            for t, local_idx in self.submap.shared[s].items():
                rs.nbr_messages += 1
                rs.nbr_words += len(local_idx) * k
                rs.flops += len(local_idx) * k  # one add per received word
                if self.trace:
                    self.message_log.append((s, t, len(local_idx) * k))
        if trc.enabled:
            trc.end()
        return out

    def charge_interface_assemble(self, tail: tuple = ()) -> None:
        """Record exactly what :meth:`interface_assemble` of parts with
        trailing shape ``tail`` (``()`` for vectors, ``(k,)`` for
        blocks) records — tracer span, per-pair message/word/flop
        charges, message log — without moving any data.

        Resident fused rank ops (``repro.parallel.resident``) perform the
        ``⊕Σ∂Ω`` assembly at the workers; this keeps the *modeled*
        communication bit-identical to inline execution by running the
        same charging loop the real collective runs.
        """
        self._charge_interface(tail)

    def _charge_halo(self, plan: dict, tail: tuple, words=None, fill=None):
        """Everything one halo exchange of parts with trailing shape
        ``tail`` records — tracer span, sender-side message/word charges,
        message log — around the data movement ``fill()`` when there is
        one.  ``words`` is the receiver-side total when the caller already
        has it (== the sender-side charged total: the exchange is a
        permutation of the same payloads)."""
        k = tail[0] if tail else 1
        trc = self.tracer
        if trc.enabled:
            if words is None:
                words = k * sum(
                    len(recv_slots)
                    for s in range(self.size)
                    for _, recv_slots in plan[s].values()
                )
            trc.begin("halo_exchange", "exchange",
                      messages=sum(len(plan[s]) for s in range(self.size)),
                      words=words, **({"k": k} if tail else {}))
        if fill is not None:
            fill()
        for s in range(self.size):
            rs = self.stats.ranks[s]
            for t, (send_idx, _) in plan[s].items():
                rs.nbr_messages += 1
                rs.nbr_words += len(send_idx) * k
                if self.trace:
                    self.message_log.append((s, t, len(send_idx) * k))
        if trc.enabled:
            trc.end()

    def charge_halo_exchange(self, plan: dict, tail: tuple = ()) -> None:
        """Record exactly what :meth:`halo_exchange` of parts with
        trailing shape ``tail`` records — tracer span, sender-side
        message/word charges, message log — without the data movement
        (resident fused ops fill halos worker-side)."""
        self._charge_halo(plan, tail)

    def allreduce_sum(self, values, words: int = 1):
        """Global sum reduction across ranks.

        ``values`` is a per-rank list of scalars or equal-length arrays;
        returns the elementwise sum (same on every rank, as MPI_Allreduce
        would).  The sum is combined in **fixed binary-tree order** —
        ``(v0+v1)+(v2+v3)...`` — the pairing a recursive-doubling MPI
        allreduce performs, identical on every backend so results stay
        bit-reproducible.  Each rank is charged one reduction of
        ``words`` words.
        """
        if len(values) != self.size:
            raise ValueError("one value per rank required")
        trc = self.tracer
        if trc.enabled:
            trc.begin("allreduce_sum", "reduction", words=int(words))
        result = self._tree_reduce(list(values))
        self.stats.charge_all_ranks(reductions=1, reduction_words=int(words))
        if trc.enabled:
            trc.end()
        return result

    def halo_exchange(self, x_parts: list, plan: dict) -> list:
        """Row-partition halo scatter/gather (Eq. 48's first two steps).

        ``plan[s]`` maps neighbour rank ``t`` to ``(send_local_idx,
        recv_slots)``: rank ``s`` sends ``x_parts[s][send_local_idx]`` to
        ``t``; the values rank ``s`` *receives* from ``t`` land in its
        external buffer at positions ``recv_slots``.  Returns the per-rank
        external buffers.  Data movement is receiver-centric — each rank
        fills only its own external buffer — so the gather dispatches
        through :meth:`run_ranks`; sender-side charging stays serial.

        ``x_parts`` are all ``(n_own,)`` vectors or all ``(n_own, k)``
        blocks; for a block every neighbour message carries all ``k``
        columns — one message per ordered pair per call, ``k`` times the
        words — and column ``c`` of each external buffer is bit-identical
        to a per-column exchange.
        """
        if len(x_parts) != self.size:
            raise ValueError("one part per rank required")
        tail = x_parts[0].shape[1:]
        ext_sizes = [0] * self.size
        total_words = 0
        for s in range(self.size):
            for t, (_, recv_slots) in plan[s].items():
                ext_sizes[s] = max(
                    ext_sizes[s], (int(recv_slots.max()) + 1) if len(recv_slots) else 0
                )
                total_words += len(recv_slots)
        total_words *= tail[0] if tail else 1
        ext = [np.zeros((n,) + tail) for n in ext_sizes]
        self._charge_halo(
            plan, tail, total_words,
            lambda: self._halo_fill(x_parts, plan, ext),
        )
        return ext

    def reset_stats(self) -> None:
        """Zero all counters (e.g. after setup, before the timed solve)."""
        self.stats.reset()


class VirtualComm(Comm):
    """The deterministic serial backend (``"virtual"``, the default).

    Rank bodies execute one after another in the calling thread — the
    behaviour every prior version of this codebase had — so it is also the
    reference implementation resident execution is tested against.
    """

    backend_name = "virtual"

    def run_ranks(self, body) -> list:
        """Run ``body(rank)`` serially, in rank order."""
        if self.tracer.enabled:
            body = timed_rank_body(self.tracer, body)
        return [body(r) for r in range(self.size)]


# ----------------------------------------------------------------------
# Backend registry (mirrors repro.sparse.kernels)
# ----------------------------------------------------------------------
_COMM_BACKENDS = ("virtual", "process", "chaos")
_current: list = [None]  # resolved lazily so the env var wins at first use


def available_comm_backends() -> tuple:
    """Names of the registered communicator backends."""
    return _COMM_BACKENDS


def _resolve(name: str) -> str:
    name = name.strip().lower()
    if name not in _COMM_BACKENDS:
        raise ValueError(
            f"unknown comm backend {name!r}; available: {_COMM_BACKENDS}"
        )
    return name


def get_comm_backend() -> str:
    """The active backend name (env ``REPRO_COMM_BACKEND`` at first use)."""
    if _current[0] is None:
        _current[0] = _resolve(os.environ.get("REPRO_COMM_BACKEND", "virtual"))
    return _current[0]


def set_comm_backend(name: str) -> str | None:
    """Select the communicator backend by name; returns the previous one."""
    prev = _current[0]
    _current[0] = _resolve(name)
    return prev


@contextmanager
def use_comm_backend(name: str):
    """Context manager: run a block under a specific comm backend.

    Leaving a ``"process"`` block also drains the shared worker pool
    when no live communicator still borrows it, so tests (and short-lived
    sessions) don't leak parked worker processes.
    """
    prev = set_comm_backend(name)
    resolved = _current[0]
    try:
        yield
    finally:
        _current[0] = prev
        if resolved == "process":
            from repro.parallel.process_comm import shutdown_pool

            shutdown_pool()


def make_comm(
    submap: SubdomainMap, backend: str | None = None, trace: bool = False
) -> Comm:
    """Construct a communicator for ``submap`` on the chosen backend.

    ``backend=None`` uses the session default (``set_comm_backend`` /
    ``REPRO_COMM_BACKEND``, falling back to ``"virtual"``).  The
    ``"chaos"`` backend runs the fault plan selected via
    :func:`repro.parallel.chaos.set_fault_plan` / ``REPRO_CHAOS_PLAN``.

    Raises :class:`NestedCommError` when called from inside a comm
    worker — a communicator must be built in the orchestrator.
    """
    name = _resolve(backend) if backend is not None else get_comm_backend()
    guard_nested_comm(name)
    if name == "process":
        from repro.parallel.process_comm import ProcessComm

        return ProcessComm(submap, trace=trace)
    if name == "chaos":
        from repro.parallel.chaos import ChaosComm, get_fault_plan

        return ChaosComm(submap, trace=trace, plan=get_fault_plan())
    return VirtualComm(submap, trace=trace)
