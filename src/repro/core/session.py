"""Prepared-system solve sessions: build once, solve many right-hand sides.

The paper's timed region is the *solve*; everything before it — mesh
partitioning, per-subdomain assembly, distributed norm-1 scaling,
preconditioner construction — is setup that a production workflow (load
stepping, multiple load cases, time stepping with a frozen operator)
amortizes over many solves.  This module makes that split explicit:

* :class:`PreparedSystem` — the frozen product of the setup pipeline for
  one (problem, n_parts, setup-options) combination.  It keeps the
  communicator alive between solves (unlike the one-shot driver) and
  caches the serially-assembled verification operator, so repeated solves
  re-assemble nothing.
* :class:`SolveSession` — a keyed, *bounded* cache of prepared systems
  with hit/miss/eviction counters; a cache hit reports ``setup_time ~ 0``
  on the resulting summary, which is the measurable contract of reuse.
  Optional ``max_entries`` / ``max_bytes`` bounds evict least-recently-
  used systems (closing their communicators), so a long-lived service can
  cache aggressively without growing without bound.
* :class:`SolveSummary` — what every solve returns, whether it carried
  one right-hand side (:meth:`PreparedSystem.solve`) or ``k`` of them
  through the block solvers (:meth:`PreparedSystem.solve_batch`).

Setup-relevant options (those baked into the prepared system) are
``method``, ``precond``, ``partition_method``, ``dynamic``,
``mass_shift`` and ``comm_backend``; the remaining knobs (``tol``,
``restart``, ``max_iter``, ``orthogonalization``) may vary per solve
against the same prepared system.  The sparse-kernel backend is a process
setting (``REPRO_KERNEL_BACKEND`` / :func:`repro.sparse.use_backend`), not
a per-solve option.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.distributed import build_edd_system
from repro.core.driver import _combine, _verify_operator, _verify_residual
from repro.core.edd import edd_fgmres, edd_fgmres_block
from repro.core.options import SolverOptions
from repro.core.outcome import SCHEMA_VERSION
from repro.core.rdd import build_rdd_system, rdd_fgmres, rdd_fgmres_block
from repro.fem.cantilever import CantileverProblem, cantilever_problem
from repro.obs.tracer import NULL_TRACER
from repro.parallel.machine import MachineModel, modeled_time
from repro.parallel.stats import CommStats
from repro.partition.element_partition import ElementPartition
from repro.partition.node_partition import NodePartition
from repro.precond.coarse import TwoLevelSpec
from repro.precond.spec import BJ_ILU0_MARKER, _bind, make_preconditioner

#: SolverOptions fields baked into a prepared system (changing any of them
#: requires a rebuild); the complement may vary per solve.
SETUP_FIELDS = (
    "method",
    "precond",
    "partition_method",
    "dynamic",
    "mass_shift",
    "comm_backend",
)


def _setup_key(options: SolverOptions) -> tuple:
    return tuple(getattr(options, f) for f in SETUP_FIELDS)


def _resident_nbytes(*roots) -> int:
    """Estimated bytes of numpy storage reachable from ``roots``.

    Walks ``__dict__``/containers breadth-first with id-dedup (shared
    arrays count once), summing ``ndarray.nbytes``.  Deliberately skips
    modules/types/callables so the walk stays on data.  An estimate — the
    cache's byte bound is a resource guard, not an allocator ledger.
    """
    import types

    seen: set = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if isinstance(
            obj,
            (str, bytes, int, float, complex, bool,
             type, types.ModuleType, types.FunctionType,
             types.MethodType, types.BuiltinFunctionType),
        ):
            continue
        d = getattr(obj, "__dict__", None)
        if d is not None:
            stack.append(d)
    return total


@dataclass
class SolveSummary:
    """A finished solve of ``k >= 1`` right-hand sides plus everything the
    evaluation reports about it.

    Attributes
    ----------
    results:
        One :class:`repro.solvers.result.SolveResult` per right-hand-side
        column (``x`` is the unscaled global solution).
    true_residuals:
        Per column, the unscaled relative residual ``||b - A x|| / ||b||``
        recomputed against the *serially assembled* operator — built
        before any communicator exists, so it is trustworthy even when the
        distributed solve ran through a fault-injecting backend.  A column
        that claims convergence but fails this check is demoted (see
        :data:`repro.core.driver._VERIFY_SLACK`) with a
        ``residual_mismatch`` diagnostic.
    stats:
        Per-rank operation counters of the solve phase, shared by all
        columns (the batched exchanges serve every column at
        single-solve message counts).
    n_parts:
        Rank count.
    method:
        ``"edd-basic"``, ``"edd-enhanced"`` or ``"rdd"``.
    precond_name:
        Display name of the preconditioner used.
    options:
        The resolved :class:`SolverOptions` the solve ran with.
    comm_backend:
        Name of the communicator backend that executed the rank loops
        (``"virtual"``, ``"process"`` or ``"chaos"``).
    wall_time:
        Measured wall-clock seconds of the solve phase (system build
        excluded) — complements :meth:`modeled_time`.
    setup_time:
        Measured wall-clock seconds of the setup phase (partition,
        subdomain assembly, scaling, preconditioner construction).  Zero
        when the solve reused a cached :class:`PreparedSystem`.
    trace:
        The ``repro-trace/1`` export when the solve was traced; None
        otherwise.
    """

    results: list
    true_residuals: list
    stats: CommStats
    n_parts: int
    method: str
    precond_name: str
    options: SolverOptions | None = None
    comm_backend: str = "virtual"
    wall_time: float = field(default=0.0, compare=False)
    setup_time: float = field(default=0.0, compare=False)
    trace: dict | None = field(default=None, compare=False)

    @property
    def n_rhs(self) -> int:
        """Number of right-hand-side columns."""
        return len(self.results)

    @property
    def all_converged(self) -> bool:
        """True when every column converged (post-verification)."""
        return all(r.converged for r in self.results)

    @property
    def iterations(self) -> list:
        """Per-column iteration counts."""
        return [r.iterations for r in self.results]

    @property
    def result(self):
        """The :class:`SolveResult` of a one-column solve; the per-column
        list otherwise (the payload under the
        :class:`~repro.core.outcome.SolveOutcome` protocol)."""
        return self.results[0] if len(self.results) == 1 else self.results

    @property
    def true_residual(self):
        """The verified residual of a one-column solve; the per-column
        list otherwise."""
        rels = self.true_residuals
        return rels[0] if len(rels) == 1 else rels

    def modeled_time(self, machine: MachineModel) -> float:
        """Modeled wall-clock seconds on ``machine`` for the whole solve."""
        return modeled_time(self.stats, machine)

    def to_dict(self, include_x: bool = False) -> dict:
        """JSON-serializable summary (consumed by the CLI and benchmarks);
        carries ``schema_version`` like every serialized solve artifact.
        A one-column payload also carries ``result`` / ``true_residual``."""
        results = [r.to_dict(include_x=include_x) for r in self.results]
        out = {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "precond": self.precond_name,
            "n_parts": self.n_parts,
            "n_rhs": self.n_rhs,
            "comm_backend": self.comm_backend,
            "wall_time": float(self.wall_time),
            "setup_time": float(self.setup_time),
            "true_residuals": [float(t) for t in self.true_residuals],
            "results": results,
            "stats": self.stats.to_dict(),
            "options": None if self.options is None else self.options.to_dict(),
        }
        if len(results) == 1:
            out["result"] = results[0]
            out["true_residual"] = out["true_residuals"][0]
        if self.trace is not None:
            out["trace"] = self.trace
        return out


class PreparedSystem:
    """The setup pipeline's frozen output: partition + distributed system +
    scaling + preconditioner, built once and reusable for many solves.

    Build through :meth:`build` (or a :class:`SolveSession`).  The
    communicator stays open until :meth:`close` — counters are reset at
    the start of every solve so each summary reports that solve's traffic
    only.
    """

    def __init__(
        self,
        problem: CantileverProblem,
        n_parts: int,
        options: SolverOptions,
        system,
        pc,
        pc_name: str,
        setup_time: float,
    ):
        self.problem = problem
        self.n_parts = n_parts
        self.options = options
        self.system = system
        self.pc = pc
        self.pc_name = pc_name
        self.setup_time = setup_time
        self._verify_a = None
        self._closed = False

    @classmethod
    def build(
        cls,
        problem: CantileverProblem | int,
        n_parts: int = 1,
        options: SolverOptions | None = None,
        tracer=None,
    ) -> "PreparedSystem":
        """Run the full setup pipeline (timed into ``setup_time``).

        ``tracer`` — optional :class:`repro.obs.Tracer`; records a
        ``setup`` phase span with ``partition`` / ``assemble`` /
        ``precond_build`` children.
        """
        options = options if options is not None else SolverOptions()
        trc = tracer if tracer is not None else NULL_TRACER
        traced = trc.enabled
        t0 = time.perf_counter()
        if traced:
            trc.begin("setup", "phase", n_parts=n_parts,
                      method=options.method)
        if isinstance(problem, int):
            problem = cantilever_problem(problem, with_mass=options.dynamic)
        if options.dynamic and problem.mass is None:
            if traced:
                trc.end()
            raise ValueError(
                "dynamic solve requires a problem built with_mass=True"
            )
        try:
            if traced:
                trc.begin("precond_build", "phase")
            pc = make_preconditioner(options.precond)
            if traced:
                trc.end()
            inner_marker = (
                pc.inner_spec if isinstance(pc, TwoLevelSpec) else pc
            )
            if inner_marker == BJ_ILU0_MARKER and options.method != "rdd":
                raise ValueError(
                    "bj-ilu0 is a local (assembled-block) preconditioner; "
                    "it only applies to the rdd method"
                )
            method = options.method

            if method in ("edd-basic", "edd-enhanced"):
                if traced:
                    trc.begin("partition", "phase")
                epart = ElementPartition.build(
                    problem.mesh, n_parts, options.partition_method
                )
                if traced:
                    trc.end()
                    trc.begin("assemble", "phase")
                shift = options.mass_shift if options.dynamic else None
                f_full = problem.bc.expand(problem.load)
                system = build_edd_system(
                    problem.mesh,
                    problem.material,
                    problem.bc,
                    epart,
                    f_full,
                    mass_shift=shift,
                    comm_backend=options.comm_backend,
                )
                if traced:
                    trc.end()
            elif method == "rdd":
                if traced:
                    trc.begin("partition", "phase")
                npart = NodePartition.build(
                    problem.mesh, n_parts, options.partition_method
                )
                if traced:
                    trc.end()
                    trc.begin("assemble", "phase")
                if options.dynamic:
                    alpha, beta = options.mass_shift
                    k = _combine(problem.stiffness, problem.mass, beta, alpha)
                else:
                    k = problem.stiffness
                system = build_rdd_system(
                    problem.mesh,
                    problem.bc,
                    npart,
                    k,
                    problem.load,
                    comm_backend=options.comm_backend,
                )
                if traced:
                    trc.end()
            else:  # pragma: no cover - SolverOptions validates upstream
                raise ValueError(f"unknown method {method!r}")
            # Markers need the built system: block-Jacobi factors,
            # a coarse space's E = W^T A W (setup, cached with the
            # prepared system for every later solve).
            pc = _bind(
                pc, system,
                components=problem.bc.free % problem.mesh.dofs_per_node,
                tracer=trc,
            )
            pc_name = "I" if pc is None else pc.name
            engine = system.rank_engine()
            if engine.resident:
                # Ship the per-rank CSR blocks to the worker pool now
                # so the first solve pays no one-time transfer inside
                # its timed region.
                if traced:
                    trc.begin("resident_ship", "phase")
                engine.ensure_shipped()
                if traced:
                    trc.end()
                # Preconditioner factor state (ILU factors, coarse
                # bases) ships eagerly too, for the same reason.
                engine.ship_precond(pc)
        finally:
            if traced:
                trc.end()  # setup
        setup_time = time.perf_counter() - t0
        return cls(problem, n_parts, options, system, pc, pc_name, setup_time)

    # ------------------------------------------------------------------
    def _merge_options(self, options: SolverOptions | None) -> SolverOptions:
        if options is None:
            return self.options
        if _setup_key(options) != _setup_key(self.options):
            raise ValueError(
                "options change setup-relevant fields "
                f"{SETUP_FIELDS}; build a new PreparedSystem (or go through "
                "a SolveSession, which keys its cache on them)"
            )
        return options

    def verify_operator(self):
        """The serially assembled unscaled operator used for ground-truth
        residual checks — built once per prepared system and cached (the
        driver used to re-assemble it on every solve)."""
        if self._verify_a is None:
            self._verify_a = _verify_operator(self.problem, self.options)
        return self._verify_a

    def solve(
        self,
        options: SolverOptions | None = None,
        setup_time: float | None = None,
        tracer=None,
    ) -> SolveSummary:
        """One single-RHS solve of the system's baked-in load vector.

        ``setup_time`` overrides the summary's reported setup cost (a
        session cache hit reports ~0); defaults to this system's build
        time.  ``tracer`` — optional :class:`repro.obs.Tracer`; the
        communicator emits exchange spans into it for the duration of
        this solve, and the finished trace is attached as
        ``summary.trace`` and ``summary.result.trace``.
        """
        solver = rdd_fgmres if self.options.method == "rdd" else edd_fgmres
        summary = self._solve(
            lambda opts: [
                solver(self.system, self.pc, options=opts, tracer=tracer)
            ],
            [self.problem.load], options, setup_time, tracer,
        )
        summary.result.trace = summary.trace
        return summary

    def solve_batch(
        self,
        b_block: np.ndarray,
        options: SolverOptions | None = None,
        setup_time: float | None = None,
        tracer=None,
    ) -> SolveSummary:
        """Solve for every column of ``b_block`` (``(n_free, k)`` raw
        right-hand sides) through the batched block solvers: one SpMM-based
        Arnoldi recurrence, one coalesced exchange per step for all ``k``
        columns.  ``tracer`` records one shared trace for the whole batch,
        attached as ``summary.trace`` only (no per-column result carries
        it)."""
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim == 1:
            b_block = b_block.reshape(-1, 1)
        solver = (
            rdd_fgmres_block if self.options.method == "rdd"
            else edd_fgmres_block
        )
        return self._solve(
            lambda opts: solver(
                self.system, b_block, self.pc, options=opts, tracer=tracer
            ),
            list(b_block.T), options, setup_time, tracer,
        )

    def _solve(self, run, rhs, options, setup_time, tracer) -> SolveSummary:
        """The one solve body: ``run(opts)`` returns one result per column
        of ``rhs``, each verified against the cached serial operator."""
        opts = self._merge_options(options)
        comm = self.system.comm
        comm.reset_stats()
        trc = tracer if tracer is not None else NULL_TRACER
        traced = trc.enabled
        if traced:
            trc.meta.update(
                method=opts.method,
                precond=self.pc_name,
                n_parts=self.n_parts,
                n_rhs=len(rhs),
                comm_backend=comm.backend_name,
            )
            comm.set_tracer(trc)
        try:
            if traced:
                trc.begin("solve", "phase")
            t0 = time.perf_counter()
            results = run(opts)
            wall = time.perf_counter() - t0
            if traced:
                steps = max((r.iterations for r in results), default=0)
                trc.end(iterations=steps)
                trc.begin("verify", "phase")
            a = self.verify_operator()
            rels = [
                _verify_residual(a, b, opts, res)
                for b, res in zip(rhs, results)
            ]
            if traced:
                trc.end(true_residual=max(rels, default=0.0))
        finally:
            if traced:
                comm.set_tracer(None)
        return SolveSummary(
            results=results,
            true_residuals=rels,
            stats=comm.stats.snapshot(),
            n_parts=self.n_parts,
            method=opts.method,
            precond_name=self.pc_name,
            options=opts,
            comm_backend=comm.backend_name,
            wall_time=wall,
            setup_time=self.setup_time if setup_time is None else setup_time,
            trace=trc.to_dict() if traced else None,
        )

    @property
    def nbytes(self) -> int:
        """Estimated resident numpy bytes of this prepared system (the
        distributed system, preconditioner, problem arrays and the cached
        verification operator; shared arrays counted once).  Feeds the
        :class:`SolveSession` byte bound."""
        return _resident_nbytes(
            self.system, self.pc, self.problem, self._verify_a
        )

    def close(self) -> None:
        """Release the communicator's backend resources; idempotent."""
        if not self._closed:
            self._closed = True
            self.system.comm.close()

    def __enter__(self) -> "PreparedSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SolveSession:
    """A keyed, bounded LRU cache of :class:`PreparedSystem` instances.

    Key: (problem identity, ``n_parts``, the :data:`SETUP_FIELDS` of the
    options).  Problem identity is the mesh id for Table 2 integer inputs
    and object identity for prebuilt :class:`CantileverProblem` instances
    (the session holds a reference, so identity stays stable while
    cached).  ``hits`` / ``misses`` / ``evictions`` count cache outcomes;
    a hit's summary reports ``setup_time = 0.0``, a miss's the fresh
    build time.

    Bounds (both optional, enforced after every insert, LRU-first):

    ``max_entries``
        Maximum number of cached prepared systems.
    ``max_bytes``
        Maximum estimated resident numpy bytes
        (:attr:`PreparedSystem.nbytes`, recorded at insert) summed over
        entries.  The most recently inserted entry is never evicted, so a
        single system larger than the bound still solves — the cache just
        holds nothing else.

    Evicted systems are :meth:`closed <PreparedSystem.close>`; a later
    request for the same key rebuilds from scratch (a miss) and is
    bitwise identical to the evicted build — setup is deterministic.

    Thread safety: all cache operations hold one reentrant lock, so a
    multi-threaded caller (the service's worker executor) sees consistent
    counters and never double-builds a key.  Solves on a *returned*
    prepared system are not serialized here — callers must not run two
    solves on the same system concurrently (the service serializes per
    key).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._cache: OrderedDict = OrderedDict()
        self._entry_bytes: dict = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def cache_bytes(self) -> int:
        """Estimated resident bytes of all cached systems (as recorded
        at insert time)."""
        with self._lock:
            return sum(self._entry_bytes.values())

    def cache_stats(self) -> dict:
        """Snapshot of the cache's occupancy, bounds and counters
        (JSON-serializable; surfaced by the service's ``stats()``)."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "bytes": sum(self._entry_bytes.values()),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _evict_over_bounds(self) -> None:
        """Pop LRU entries until within bounds (lock held by caller).
        The newest entry (last in the OrderedDict) is never evicted."""
        def over() -> bool:
            if self.max_entries is not None and len(self._cache) > self.max_entries:
                return True
            return (
                self.max_bytes is not None
                and sum(self._entry_bytes.values()) > self.max_bytes
            )

        while len(self._cache) > 1 and over():
            key, ps = self._cache.popitem(last=False)
            self._entry_bytes.pop(key, None)
            self.evictions += 1
            ps.close()

    def _lookup(
        self,
        problem: CantileverProblem | int,
        n_parts: int,
        options: SolverOptions | None,
        tracer=None,
    ) -> tuple:
        options = options if options is not None else SolverOptions()
        pkey = (
            ("mesh", problem)
            if isinstance(problem, int)
            else ("obj", id(problem))
        )
        key = (pkey, n_parts, _setup_key(options))
        with self._lock:
            ps = self._cache.get(key)
            if ps is not None:
                self.hits += 1
                self._cache.move_to_end(key)
                return ps, True, options
            self.misses += 1
            ps = PreparedSystem.build(problem, n_parts, options, tracer=tracer)
            self._cache[key] = ps
            self._entry_bytes[key] = ps.nbytes
            self._evict_over_bounds()
        return ps, False, options

    def prepared(
        self,
        problem: CantileverProblem | int,
        n_parts: int = 1,
        options: SolverOptions | None = None,
    ) -> PreparedSystem:
        """The cached prepared system for this configuration (building it
        on a miss)."""
        ps, _, _ = self._lookup(problem, n_parts, options)
        return ps

    def solve(
        self,
        problem: CantileverProblem | int,
        n_parts: int = 1,
        options: SolverOptions | None = None,
        tracer=None,
    ) -> SolveSummary:
        """Single-RHS solve through the cache; ``setup_time`` on the
        summary is 0 on a hit.  A cache hit's trace has no ``setup``
        phase span (there was no setup)."""
        ps, hit, options = self._lookup(problem, n_parts, options, tracer)
        return ps.solve(
            options, setup_time=0.0 if hit else ps.setup_time, tracer=tracer
        )

    def solve_batch(
        self,
        problem: CantileverProblem | int,
        b_block: np.ndarray,
        n_parts: int = 1,
        options: SolverOptions | None = None,
        tracer=None,
    ) -> SolveSummary:
        """Multi-RHS solve through the cache; ``setup_time`` on the
        summary is 0 on a hit."""
        ps, hit, options = self._lookup(problem, n_parts, options, tracer)
        return ps.solve_batch(
            b_block, options, setup_time=0.0 if hit else ps.setup_time,
            tracer=tracer,
        )

    def close(self) -> None:
        """Close every cached prepared system and empty the cache
        (hit/miss/eviction counters are kept)."""
        with self._lock:
            for ps in self._cache.values():
                ps.close()
            self._cache.clear()
            self._entry_bytes.clear()

    def __enter__(self) -> "SolveSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
