"""Per-layer probes: a layer's public function called in a timed loop.

Each probe runs on the workload's own built system (rank 0's block, the
system's communicator, the system's preconditioner) with a seeded input
vector, and reports the median over :data:`PROBE_CALLS` calls.  A probe
whose layer the workload does not execute is reported as 0.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

PROBE_CALLS = 200


def _per_call(rec, name: str, fn, calls: int) -> float:
    """Median seconds per ``fn()`` over ``calls`` calls (one warm-up call
    first), with one bench span around the whole loop."""
    fn()
    samples = []
    with rec.span(f"probe:{name}", calls=calls):
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return median(samples)


def _precond_entry(ps, rng):
    """One preconditioner application through the entry the solver uses:
    ``BlockJacobiILU.apply_parts`` for RDD; for EDD the polynomial
    recurrence over the communicating ``matvec_assembled`` — fused into
    one resident ``chain`` dispatch when the engine is worker-resident,
    exactly as ``edd_fgmres`` selects it."""
    system, pc = ps.system, ps.pc
    if ps.options.method == "rdd":
        parts = [rng.standard_normal(len(own)) for own in system.own]
        return lambda: pc.apply_parts(parts)
    v_hat = system.distribute(rng.standard_normal(system.n_global))
    engine = system.rank_engine()
    terms = pc.chain_terms() if engine.resident else None
    if terms is None:
        return lambda: pc.apply_linear(system.matvec_assembled, v_hat)
    return lambda: engine.poly_chain(pc, terms, v_hat)


def probe_system(rec, ps, rng, calls: int = PROBE_CALLS) -> dict:
    """Probe metrics of one prepared system (``sparse.*``, ``precond.apply_us``
    and the ``parallel.*_us`` collectives), keyed by metric name."""
    from repro.precond.ilu import ILU0Preconditioner
    from repro.sparse.kernels import get_backend

    system, comm = ps.system, ps.system.comm
    rdd = ps.options.method == "rdd"
    backend = get_backend()
    block = (system.a_loc if rdd else system.a_local)[0]
    n_rows, n_cols = block.shape
    x = rng.standard_normal(n_cols)
    out = np.empty(n_rows)
    x4 = rng.standard_normal((n_cols, 4))
    out4 = np.empty((n_rows, 4))

    matvec_s = _per_call(rec, "matvec", lambda: backend.matvec(block, x, out), calls)
    metrics = {
        "sparse.matvec_us": matvec_s * 1e6,
        # Computed, not measured: 2 flops per stored entry over the time.
        "sparse.matvec_gflops": 2.0 * block.nnz / matvec_s / 1e9,
        "sparse.nnz": block.nnz,
        "sparse.matmat_k4_us": 1e6 * _per_call(
            rec, "matmat_k4", lambda: backend.matmat(block, x4, out4), calls
        ),
        "precond.apply_us": 1e6 * _per_call(
            rec, "precond_apply", _precond_entry(ps, rng), calls
        ),
        "parallel.allreduce_us": 1e6 * _per_call(
            rec, "allreduce", lambda: comm.allreduce_sum([1.0] * comm.size), calls
        ),
        "parallel.run_ranks_us": 1e6 * _per_call(
            rec, "run_ranks", lambda: comm.run_ranks(lambda rank: None), calls
        ),
        "sparse.ilu0_solve_us": 0.0,
        "parallel.interface_assemble_us": 0.0,
        "parallel.halo_exchange_us": 0.0,
    }
    if rdd:
        # Rank 0's factor, rebuilt through the public constructor (the
        # factorisation is deterministic); apply() is a copy + ilu0_solve.
        ilu = ILU0Preconditioner(block)
        v = rng.standard_normal(n_rows)
        metrics["sparse.ilu0_solve_us"] = 1e6 * _per_call(
            rec, "ilu0_solve", lambda: ilu.apply(v), calls
        )
        x_parts = [rng.standard_normal(len(own)) for own in system.own]
        metrics["parallel.halo_exchange_us"] = 1e6 * _per_call(
            rec, "halo_exchange",
            lambda: comm.halo_exchange(x_parts, system.plan), calls,
        )
    else:
        parts = [rng.standard_normal(n) for n in system.submap.local_sizes]
        metrics["parallel.interface_assemble_us"] = 1e6 * _per_call(
            rec, "interface_assemble",
            lambda: comm.interface_assemble(parts), calls,
        )
    return metrics
