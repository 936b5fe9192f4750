"""The four workloads and the code that measures them.

Three *solve* workloads drive ``PreparedSystem`` directly (a researcher
solving one FE system); ``service-mixed`` drives ``SolverService`` with a
closed loop of four clients (service tenants).  Every workload runs in
two modes: untraced, which yields the end-to-end metrics, and traced,
which yields the per-layer metrics (trace budget, probes, counts).  See
bench/README.md for why each workload exists and what it should move.

Only public ``repro`` functions are called; the program receives
generated inputs, never the seed.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import os
import random
import resource
import time
import traceback
from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

from bench.probes import PROBE_CALLS, probe_system
from bench.spans import SpanRecorder
from bench.trace_budget import budget, count_of, self_of, total_of

#: Floor of timed solves per run, whatever ``--seconds`` says.
MIN_SOLVES = 3
#: Reps of everything in ``--quick`` mode (same code paths, small meshes).
QUICK_REPS = 2
#: The driver's convergence-verification slack (``true_residual <= tol * 100``).
VERIFY_SLACK = 100.0


@dataclass(frozen=True)
class SolveSpec:
    """One solve workload: the system, the rep counts and the pinned
    iteration count (full mesh, quick mesh)."""

    name: str
    mesh: int
    quick_mesh: int
    n_parts: int
    method: str
    precond: str
    comm_backend: str
    setup_reps: int  # set-ups per run; the first is discarded
    iterations: int
    quick_iterations: int


SOLVE_SPECS = {
    spec.name: spec
    for spec in (
        SolveSpec("poly-edd-virtual", 9, 4, 4, "edd-enhanced", "gls(7)",
                  "virtual", 7, 167, 51),
        SolveSpec("ilu-rdd-virtual", 3, 2, 4, "rdd", "bj-ilu0",
                  "virtual", 9, 119, 39),
        SolveSpec("poly-edd-process", 9, 4, 2, "edd-enhanced", "gls(7)",
                  "process", 5, 167, 51),
    )
}

#: ``service-mixed``: (share of requests, method, preconditioner) per key,
#: all on Mesh2 / P=4.  Three keys against a two-entry session cache.
SERVICE_NAME = "service-mixed"
SERVICE_MESH = 2
SERVICE_PARTS = 4
SERVICE_KEYS = (
    (0.8, "edd-enhanced", "gls(7)"),
    (0.1, "rdd", "bj-ilu0"),
    (0.1, "edd-enhanced", "2l(gls(7),deflate,tr)"),
)
SERVICE_CLIENTS = 4
#: The timed loop runs in this many rounds of four-client / one-client load.
SERVICE_ROUNDS = 3
#: Floor of requests per client in the timed closed loop (full / quick).
SERVICE_MIN_REQUESTS = 50
SERVICE_QUICK_REQUESTS = 20
#: Leading requests per client that ask for their batch trace (traced run).
SERVICE_TRACED = 20
SERVICE_QUICK_TRACED = 10


class Checks:
    """Correctness ledger: one entry per timed solve, request or resource
    check; ``failed / attempted`` is the run's ``failed_frac``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, what: str, reasons: list) -> None:
        """Count one operation; any reason makes it a failure."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.messages.extend(f"{what}: {r}" for r in reasons)


@dataclass
class RunOutput:
    """What one workload run hands back to the entry point."""

    metrics: dict
    checks: Checks
    recorder: SpanRecorder
    samples: dict


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Solve workloads
# ----------------------------------------------------------------------
def _options(spec: SolveSpec, comm_backend: str | None = None):
    from repro.api import SolverOptions

    return SolverOptions(
        method=spec.method, precond=spec.precond,
        comm_backend=comm_backend or spec.comm_backend,
    )


def _cold_pool(spec: SolveSpec) -> None:
    """Drain the worker pool so the next build pays spawn + shipping."""
    if spec.comm_backend == "process":
        from repro.parallel import shutdown_process_pool

        shutdown_process_pool(force=True)


def _build(rec, problem_or_mesh, n_parts, options, tracer=None):
    """``cantilever_problem`` (when given a mesh id) + ``build``; returns
    ``(prepared, problem, problem_seconds, build_seconds)``."""
    from repro.api import PreparedSystem, cantilever_problem

    problem, problem_s = problem_or_mesh, 0.0
    if isinstance(problem_or_mesh, int):
        with rec.span("problem_build", mesh=problem_or_mesh) as sp:
            problem = cantilever_problem(problem_or_mesh)
        problem_s = sp["seconds"]
    with rec.span("build", n_parts=n_parts) as sp:
        prepared = PreparedSystem.build(problem, n_parts, options, tracer=tracer)
    return prepared, problem, problem_s, sp["seconds"]


def _solve_failures(summary, pinned, reference=None) -> list:
    """The ``failed_frac`` rules for one solve."""
    result, reasons = summary.result, []
    if not result.converged:
        reasons.append("did not converge")
    if not summary.true_residual <= summary.options.tol * VERIFY_SLACK:
        reasons.append(f"true residual {summary.true_residual:.3e} above tol*100")
    if pinned is not None and result.iterations != pinned:
        reasons.append(f"{result.iterations} iterations, pinned {pinned}")
    if reference is not None and not (
        np.array_equal(result.x, reference.x)
        and result.residual_history == reference.residual_history
    ):
        reasons.append("x / residual history not bitwise equal to the "
                       "virtual solve of the same system")
    return reasons


def _timed_solve(rec, checks, prepared, label, pinned, reference=None, tracer=None):
    """One timed, checked ``solve()``; returns ``(summary, seconds)``
    (``summary`` is None when the solve raised)."""
    summary = None
    with rec.span(label) as sp:
        try:
            summary = prepared.solve(tracer=tracer)
        except Exception:  # a failed solve is a counted failure, not a crash
            reasons = [f"exception: {traceback.format_exc(limit=3)}"]
    if summary is not None:
        reasons = _solve_failures(summary, pinned, reference)
    checks.record(label, reasons)
    return summary, sp["seconds"]


def _warm_up(prepared) -> None:
    """One restart cycle through every code path of a solve (kernel
    buffers, lazy verification operator, resident dispatch) at a seventh
    of a full solve's cost; its result is discarded."""
    options = prepared.options
    prepared.solve(options.replace(max_iter=options.restart))


def _solve_loop(rec, checks, prepared, twin, seconds, floor, pinned, reference):
    """Timed solves of the workload's system until ``seconds`` have
    elapsed and ``floor`` are done, with a solve of the serial twin after
    every second one, so both sides of ``speedup_vs_serial`` see the same
    stretch of host time.  Returns ``(solve seconds, twin solve seconds,
    wall spent on the workload's own solves and their checks)``."""
    solves, serial, own_wall = [], [], 0.0
    start = time.perf_counter()
    while len(solves) < floor or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        _, elapsed = _timed_solve(rec, checks, prepared, "solve", pinned, reference)
        own_wall += time.perf_counter() - t0
        solves.append(elapsed)
        if 2 * len(serial) < len(solves):
            serial.append(_timed_solve(rec, checks, twin, "serial_solve", None)[1])
    while len(serial) < floor:
        serial.append(_timed_solve(rec, checks, twin, "serial_solve", None)[1])
    return solves, serial, own_wall


def _release_process_pool(checks: Checks) -> float:
    """Shut the worker pool down, check that none of this process's
    shared-memory segments outlives it, and return the workers' peak RSS
    in MiB (children are reaped by the shutdown)."""
    from repro.parallel import shutdown_process_pool

    shutdown_process_pool(force=True)
    left = glob.glob(f"/dev/shm/repro-pc-{os.getpid()}-*")
    checks.record("shared-memory cleanup",
                  [f"segments left behind: {left}"] if left else [])
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_solve_untraced(spec: SolveSpec, seed: int, seconds: float,
                       quick: bool, pinned: int) -> RunOutput:
    """End-to-end metrics of one solve workload (tracing off)."""
    rec, checks = SpanRecorder(spec.name), Checks()
    mesh = spec.quick_mesh if quick else spec.mesh
    setup_reps = QUICK_REPS + 1 if quick else spec.setup_reps
    floor = QUICK_REPS if quick else MIN_SOLVES
    process = spec.comm_backend == "process"
    options = _options(spec)
    try:
        # Set-up, several times; the first pays imports and is discarded.
        setup = []
        for _ in range(setup_reps):
            _cold_pool(spec)
            with rec.span("setup_rep") as sp:
                prepared, problem, _, _ = _build(rec, mesh, spec.n_parts, options)
                prepared.close()
            setup.append(sp["seconds"])
            # Free the rep's system now, not whenever the cycle collector
            # runs: keeps peak RSS the same from run to run.
            del prepared
            gc.collect()
        setup = setup[1:]

        # The bitwise reference (process workload only): one virtual
        # solve of the same system, also a counted solve.
        reference = None
        if process:
            ref_ps, _, _, _ = _build(
                rec, problem, spec.n_parts, _options(spec, "virtual")
            )
            ref, _ = _timed_solve(rec, checks, ref_ps, "reference_solve", pinned)
            reference = ref.result if ref else None
            ref_ps.close()
            del ref_ps, ref
            gc.collect()

        # Serial twin: same mesh and preconditioner, one rank, in-process.
        twin_ps, _, _, _ = _build(rec, problem, 1, _options(spec, "virtual"))
        prepared, _, _, _ = _build(rec, problem, spec.n_parts, options)
        _warm_up(twin_ps)
        _warm_up(prepared)
        solves, twin, wall = _solve_loop(
            rec, checks, prepared, twin_ps, seconds, floor, pinned, reference
        )
        prepared.close()
        twin_ps.close()
    finally:
        if process:
            _release_process_pool(checks)
    solve_s = median(solves)
    metrics = {
        "setup_s": median(setup),
        "solve_s": solve_s,
        "speedup_vs_serial": median(twin) / solve_s,
        "rhs_per_s": len(solves) / wall,
        "latency_p50_s": solve_s,
        "latency_p95_s": float(np.percentile(solves, 95)),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": setup, "solve_s": solves, "serial_solve_s": twin}
    return RunOutput(metrics, checks, rec, samples)


def _budget_metrics(rollup: dict, iterations: int, workers: int) -> dict:
    """Map a trace roll-up onto the trace-sourced per-layer metrics."""
    solve_s = total_of(rollup, "solve")
    return {
        "partition.build_s": self_of(rollup, "partition"),
        "precond.build_s": self_of(rollup, "precond_build"),
        "precond.apply_s": self_of(rollup, "precond_apply", "coarse_solve"),
        "solvers.orthogonalize_s": self_of(rollup, "orthogonalize"),
        "solvers.givens_s": self_of(rollup, "givens_update"),
        "solvers.step_us": 1e6 * solve_s / iterations if iterations else 0.0,
        "core.assemble_s": self_of(rollup, "assemble"),
        "core.matvec_s": self_of(rollup, "matvec"),
        "core.verify_s": self_of(rollup, "verify"),
        "core.solve_other_s": self_of(rollup, "solve", "cycle", "arnoldi_step"),
        "parallel.exchange_s": self_of(rollup, "exchange", table="by_cat"),
        "parallel.reduction_s": self_of(rollup, "reduction", table="by_cat"),
        "parallel.rank_op_s": self_of(rollup, "rank_op"),
        "parallel.rank_op_count": count_of(rollup, "rank_op"),
        "parallel.resident_ship_s": self_of(rollup, "resident_ship"),
        "parallel.worker_busy_frac": (
            rollup["worker_s"] / (workers * solve_s) if workers and solve_s else 0.0
        ),
        "obs.span_count": rollup["span_count"],
    }


def _exchanges_per_step(checks: Checks, trace: dict, method: str) -> int:
    """Interface/halo exchanges per Arnoldi step outside the
    preconditioner; for ``edd-enhanced`` the paper's claim 3 (exactly 1)
    is verified and a violation is a counted failure."""
    from repro.obs import exchanges_per_step, verify_exchange_invariant

    counts = set(exchanges_per_step(trace).values())
    reasons = [] if len(counts) == 1 else [f"non-uniform exchange counts {counts}"]
    if method == "edd-enhanced":
        try:
            verify_exchange_invariant(trace, "enhanced")
        except (AssertionError, ValueError) as exc:
            reasons.append(str(exc))
    checks.record("exchange invariant", reasons)
    return max(counts, default=0)


#: Per-layer metrics only the service reports; 0 on solve workloads.
_SERVICE_ONLY = (
    "core.session_hit_ratio", "core.session_misses", "core.session_evictions",
    "service.mean_batch", "service.batches", "service.queue_p50_s",
    "service.solve_p50_s", "service.overhead_p50_s", "service.rejected",
    "service.timeouts",
)


def run_solve_traced(spec: SolveSpec, seed: int, seconds: float,
                     quick: bool, pinned: int) -> RunOutput:
    """Per-layer metrics of one solve workload: a traced build and solve
    for the time budget (the last traced solve's trace), untraced solves
    beside them for the tracing overhead, probes on the built system, and
    the exact counts."""
    from repro.api import Tracer
    from repro.parallel import SGI_ORIGIN, speedup

    rec, checks = SpanRecorder(spec.name), Checks()
    mesh = spec.quick_mesh if quick else spec.mesh
    floor = QUICK_REPS if quick else MIN_SOLVES
    process = spec.comm_backend == "process"
    options = _options(spec)
    rng = np.random.default_rng(seed)
    pool_spawn_s = worker_rss = 0.0
    try:
        _cold_pool(spec)
        setup_tracer = Tracer()
        prepared, problem, problem_s, build_s = _build(
            rec, mesh, spec.n_parts, options, tracer=setup_tracer
        )
        setup_trace = setup_tracer.to_dict()
        _warm_up(prepared)
        # Untraced and traced solves alternate so host drift hits both
        # sides of the overhead ratio.  A process solve costs ~10 s while
        # workers oversubscribe BLAS; one pair is what the time cap admits.
        plain, traced = [], []
        for _ in range(1 if process else floor):
            plain.append(_timed_solve(rec, checks, prepared, "solve", pinned)[1])
            summary, traced_s = _timed_solve(
                rec, checks, prepared, "traced_solve", pinned, tracer=Tracer()
            )
            traced.append(traced_s)
            if summary is None:
                raise RuntimeError(f"traced solve failed: {checks.messages}")
        solve_trace = summary.result.trace
        probes = probe_system(rec, prepared, rng, 20 if quick else PROBE_CALLS)
        prepared.close()

        if process:
            # Same build with the pool already up: the difference is spawn.
            warm, _, _, warm_s = _build(rec, problem, spec.n_parts, options)
            warm.close()
            pool_spawn_s = build_s - warm_s

        twin_ps, _, _, _ = _build(rec, problem, 1, _options(spec, "virtual"))
        twin, _ = _timed_solve(rec, checks, twin_ps, "serial_solve", None)
        twin_ps.close()
    finally:
        if process:
            worker_rss = _release_process_pool(checks)

    rollup = budget(setup_trace, solve_trace)
    stats, result = summary.stats, summary.result
    metrics = {name: 0.0 for name in _SERVICE_ONLY}
    metrics.update(_budget_metrics(
        rollup, result.iterations, len(solve_trace["worker_seconds"])
    ))
    metrics.update(probes)
    metrics.update({
        "fem.problem_build_s": problem_s,
        "solvers.iterations": result.iterations,
        "solvers.restarts": result.restarts,
        "parallel.nbr_messages": stats.total_nbr_messages,
        "parallel.nbr_words": stats.total_nbr_words,
        "parallel.reductions": stats.max_reductions,
        "parallel.exchanges_per_step": _exchanges_per_step(
            checks, solve_trace, spec.method
        ),
        # The paper's machine model beside the measured speedup_vs_serial.
        "parallel.modeled_speedup_origin": (
            speedup(twin.stats, stats, SGI_ORIGIN) if twin else 0.0
        ),
        "obs.trace_overhead_ratio": median(traced) / median(plain),
        "obs.budget_closure": rollup["self_s"] / (build_s + traced_s),
        "parallel.pool_spawn_s": pool_spawn_s,
        "parallel.worker_peak_rss_mb": worker_rss,
    })
    samples = {"solve_s": plain, "traced_solve_s": traced,
               "budget": rollup["by_name"]}
    return RunOutput(metrics, checks, rec, samples)


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def _service_options() -> list:
    from repro.api import SolverOptions

    return [SolverOptions(method=m, precond=p) for _, m, p in SERVICE_KEYS]


def _schedule(seed: int, client: int, options: list, traced_first: int):
    """Endless seeded request stream of one client.  The seed decides the
    order of keys and every ``rhs_scale``; each block of ten requests
    holds the keys in exactly their shares (8/1/1), so two seeds differ
    in order, not in how many cache misses they can cause.  The program
    sees only the requests."""
    from repro.api import SolveRequest

    rng = random.Random(seed * 1009 + client)
    block = [key for key, (share, _, _) in enumerate(SERVICE_KEYS)
             for _ in range(round(share * 10))]
    index = 0
    while True:
        rng.shuffle(block)
        for key in block:
            yield key, SolveRequest(
                mesh=SERVICE_MESH, n_parts=SERVICE_PARTS, options=options[key],
                rhs_scale=rng.uniform(0.5, 2.0), tenant=f"client{client}",
                request_id=f"c{client}-{index}", trace=index < traced_first,
            )
            index += 1


@dataclass
class _Sample:
    """One completed request as its caller saw it."""

    key: int
    traced: bool
    latency: float
    response: object


async def _closed_loop(service, rec, schedules, seconds, floor, label):
    """Each client submits its next request only after the previous one
    completed, until ``seconds`` have elapsed and it has sent ``floor``
    requests.  Returns ``(samples, wall seconds)``."""
    samples: list = []
    with rec.span(label, clients=len(schedules)):
        parent = len(rec.spans) - 1
        start = time.perf_counter()

        async def client(schedule):
            sent = 0
            while sent < floor or time.perf_counter() - start < seconds:
                key, request = next(schedule)
                t0 = rec.now()
                response = await service.submit(request)
                t1 = rec.now()
                rec.add("request", t0, t1, parent, id=request.request_id,
                        key=key, status=response.status)
                samples.append(_Sample(key, request.trace, t1 - t0, response))
                sent += 1

        await asyncio.gather(*(client(s) for s in schedules))
        wall = time.perf_counter() - start
    return samples, wall


def _check_responses(checks: Checks, samples: list, tol: float) -> None:
    """The ``failed_frac`` rules for service requests; the iteration
    count of a key must equal that key's first response."""
    first: dict = {}
    for s in samples:
        r, reasons = s.response, []
        if r.status != "ok":
            reasons.append(f"status {r.status}: {r.error}")
        else:
            if not r.true_residual <= tol * VERIFY_SLACK:
                reasons.append(f"true residual {r.true_residual:.3e} above tol*100")
            if r.iterations != first.setdefault(s.key, r.iterations):
                reasons.append(f"{r.iterations} iterations, key's first "
                               f"response had {first[s.key]}")
        checks.record(f"request {r.request_id}", reasons)


async def _serve(rec, checks, seed, seconds, quick, traced_first, serial_phase):
    """Run the closed loop against one service, in ``SERVICE_ROUNDS``
    rounds; untraced, each round is followed by a third as long a stretch
    of the same mix from one client — the "serial" the four-client
    throughput is compared with — so both see the same host conditions.
    Returns ``(samples, wall, serial samples, serial wall, stats)``."""
    from repro.api import ServiceConfig, SolverService

    options = _service_options()
    rounds = 1 if quick else SERVICE_ROUNDS
    floor = SERVICE_QUICK_REQUESTS if quick else -(-SERVICE_MIN_REQUESTS // rounds)
    seconds = seconds / rounds
    config = ServiceConfig(
        executor_workers=2, session_max_entries=2, default_timeout=None
    )
    samples, serial, wall, serial_wall = [], [], 0.0, 0.0
    async with SolverService(config) as service:
        schedules = [
            _schedule(seed, c, options, traced_first)
            for c in range(SERVICE_CLIENTS)
        ]
        one_client = [_schedule(seed, SERVICE_CLIENTS, options, 0)]
        for _ in range(rounds):
            done, took = await _closed_loop(
                service, rec, schedules, seconds, floor, "closed_loop"
            )
            samples += done
            wall += took
            if serial_phase:
                done, took = await _closed_loop(
                    service, rec, one_client, seconds / 3.0, floor, "serial_loop"
                )
                serial += done
                serial_wall += took
        stats = service.stats()
    _check_responses(checks, samples + serial, options[0].tol)
    return samples, wall, serial, serial_wall, stats


def _batch_trace_overhead(rec, checks, prepared, reps: int) -> float:
    """What tracing every batch costs the service: ``solve_batch`` of one
    column on the hot key's system under a ``Tracer`` over the same call
    without one, alternating so host drift hits both sides."""
    from repro.api import Tracer

    column = prepared.problem.load.reshape(-1, 1)
    walls: dict = {"batch_solve": [], "traced_batch_solve": []}
    for _ in range(reps):
        for label, samples in walls.items():
            tracer = Tracer() if label.startswith("traced") else None
            with rec.span(label) as sp:
                summary = prepared.solve_batch(column, tracer=tracer)
            samples.append(sp["seconds"])
            checks.record(label, [] if summary.all_converged
                          else ["did not converge"])
    return median(walls["traced_batch_solve"]) / median(walls["batch_solve"])


def _ok(samples: list) -> list:
    return [s for s in samples if s.response.status == "ok"]


def run_service_untraced(seed: int, seconds: float, quick: bool) -> RunOutput:
    """End-to-end metrics of ``service-mixed`` (no request asks for its
    trace)."""
    rec, checks = SpanRecorder(SERVICE_NAME), Checks()
    samples, wall, serial, serial_wall, stats = asyncio.run(
        _serve(rec, checks, seed, seconds, quick, 0, True)
    )
    ok = _ok(samples)
    if not ok or not _ok(serial):
        raise RuntimeError(f"no request completed: {checks.messages[:3]}")
    missed = [s.response.setup_time for s in _ok(samples + serial)
              if s.response.setup_time > 0.0]
    latencies = [s.latency for s in ok]
    solve_seconds = [s.response.solve_seconds for s in ok]
    rhs_per_s = len(ok) / wall
    metrics = {
        "setup_s": median(missed),
        # The mean, not the median: with two executor threads a batch
        # solves either alone or beside another one at about twice the
        # wall, and the median of that two-peaked sample jumps between the
        # peaks from run to run.
        "solve_s": fmean(solve_seconds),
        "speedup_vs_serial": rhs_per_s / (len(_ok(serial)) / serial_wall),
        "rhs_per_s": rhs_per_s,
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p95_s": float(np.percentile(latencies, 95)),
        "peak_rss_mb": peak_rss_mb(),
    }
    out = {"latency_s": latencies, "solve_s": solve_seconds, "setup_s": missed,
           "requests": len(samples), "serial_requests": len(serial),
           "service_stats": stats}
    return RunOutput(metrics, checks, rec, out)


def run_service_traced(seed: int, seconds: float, quick: bool) -> RunOutput:
    """Per-layer metrics of ``service-mixed``: the leading requests of
    each client carry their batch trace; probes run on the hot key's
    system, built here the way the service builds it."""
    rec, checks = SpanRecorder(SERVICE_NAME), Checks()
    traced_first = SERVICE_QUICK_TRACED if quick else SERVICE_TRACED
    samples, _, _, _, stats = asyncio.run(
        _serve(rec, checks, seed, seconds, quick, traced_first, False)
    )
    ok = _ok(samples)
    # Coalesced partners share one trace object: count each batch once.
    batches = {id(s.response.trace): s for s in ok if s.response.trace}
    hot = [s for s in ok if s.key == 0]
    solo = next((s for s in hot if s.response.coalesced == 1), None)
    hot_traced = next((s for s in batches.values() if s.key == 0), None)
    if solo is None or hot_traced is None:
        raise RuntimeError(f"no hot-key response to count: {checks.messages[:3]}")

    rollup = budget(*(s.response.trace for s in batches.values()))
    iterations = sum(s.response.iterations for s in batches.values())
    measured = sum(
        s.latency - s.response.queue_seconds - s.response.setup_time
        for s in batches.values()
    )

    hot_options = _service_options()[0]
    prepared, _, problem_s, _ = _build(
        rec, SERVICE_MESH, SERVICE_PARTS, hot_options
    )
    probes = probe_system(
        rec, prepared, np.random.default_rng(seed),
        20 if quick else PROBE_CALLS,
    )
    overhead = _batch_trace_overhead(rec, checks, prepared, 2 if quick else 10)
    prepared.close()

    session, counters = stats["session"], stats["counters"]
    comm = solo.response.stats
    metrics = _budget_metrics(rollup, iterations, 0)
    metrics.update(probes)
    metrics.update({
        "fem.problem_build_s": problem_s,
        "solvers.iterations": solo.response.iterations,
        "solvers.restarts": solo.response.result["restarts"],
        "parallel.nbr_messages": comm["total_nbr_messages"],
        "parallel.nbr_words": comm["total_nbr_words"],
        "parallel.reductions": comm["max_reductions"],
        "parallel.exchanges_per_step": _exchanges_per_step(
            checks, hot_traced.response.trace, hot_options.method
        ),
        "parallel.modeled_speedup_origin": 0.0,
        "parallel.pool_spawn_s": 0.0,
        "parallel.worker_peak_rss_mb": 0.0,
        "obs.trace_overhead_ratio": overhead,
        "obs.budget_closure": rollup["self_s"] / measured,
        "core.session_hit_ratio": session["hits"] / (
            session["hits"] + session["misses"]
        ),
        "core.session_misses": session["misses"],
        "core.session_evictions": session["evictions"],
        "service.mean_batch": stats["mean_batch"],
        "service.batches": counters["batches"],
        "service.queue_p50_s": median(s.response.queue_seconds for s in ok),
        "service.solve_p50_s": median(s.response.solve_seconds for s in ok),
        "service.overhead_p50_s": median(
            s.latency - s.response.queue_seconds - s.response.solve_seconds
            - s.response.setup_time for s in ok
        ),
        "service.rejected": counters["rejected"],
        "service.timeouts": counters["timeouts"],
    })
    out = {"requests": len(samples), "traced_batches": len(batches),
           "budget": rollup["by_name"], "service_stats": stats}
    return RunOutput(metrics, checks, rec, out)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, pinned: int | None = None) -> RunOutput:
    """Run one workload in one mode.  ``pinned`` overrides the pinned
    iteration count of a solve workload (the smoke test feeds a wrong one
    to show the run fails)."""
    if quick:
        seconds = 0.0  # floors only: fixed, small rep counts
    if name == SERVICE_NAME:
        run = run_service_traced if trace else run_service_untraced
        return run(seed, seconds, quick)
    spec = SOLVE_SPECS[name]
    if pinned is None:
        pinned = spec.quick_iterations if quick else spec.iterations
    run = run_solve_traced if trace else run_solve_untraced
    return run(spec, seed, seconds, quick, pinned)
