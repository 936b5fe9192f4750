"""Simulated message-passing substrate.

The paper ran C + MPI on an IBM SP2 and an SGI Origin.  Here the same SPMD
algorithms execute rank-parallel inside one process: every collective the
MPI code would issue (nearest-neighbour interface exchange, halo
scatter/gather, allreduce) goes through :class:`VirtualComm`, which performs
the data movement *and* charges each rank's :class:`RankStats` with the
exact message counts, word volumes and flops.  :mod:`repro.parallel.machine`
then converts those counters into modeled wall-clock time on calibrated
SP2/Origin machine models, from which the speedup studies (Table 3,
Figs. 15-17) are regenerated.

Three interchangeable :class:`Comm` backends execute the SPMD rank loops:
the deterministic single-thread :class:`VirtualComm` (default), the
GIL-escaping :class:`~repro.parallel.process_comm.ProcessComm`, which is
``VirtualComm`` plus a pool of spawned worker processes executing
resident rank ops over ``multiprocessing.shared_memory``, and the
fault-injecting :class:`~repro.parallel.chaos.ChaosComm`, which is
``VirtualComm`` under a seeded :class:`~repro.parallel.chaos.FaultPlan`.
All share the collective implementations of the :class:`Comm` base class,
so results are bit-identical (chaos with an empty plan included); select
with :func:`make_comm` / :func:`set_comm_backend` / the
``REPRO_COMM_BACKEND`` environment variable.
"""

import importlib

__all__ = [
    "RankStats",
    "CommStats",
    "Comm",
    "VirtualComm",
    "ProcessComm",
    "ChaosComm",
    "NestedCommError",
    "ProcessPoolError",
    "ProcessWorkerError",
    "WorkerCrashedError",
    "WorkerTimeoutError",
    "FaultPlan",
    "FaultRule",
    "set_fault_plan",
    "use_fault_plan",
    "get_fault_plan",
    "shutdown_process_pool",
    "pool_process_count",
    "current_worker_backend",
    "make_comm",
    "available_comm_backends",
    "get_comm_backend",
    "set_comm_backend",
    "use_comm_backend",
    "MachineModel",
    "IBM_SP2",
    "SGI_ORIGIN",
    "MACHINES",
    "modeled_time",
    "speedup",
    "time_breakdown",
]

#: The module each re-export lives in.  They resolve on first access
#: (PEP 562): a spawned pool worker imports
#: ``repro.parallel._process_worker`` through this package and must not
#: pay for the communicators, the tracer and the partition layer.
_MODULES = {
    "stats": ("RankStats", "CommStats"),
    "comm": (
        "Comm", "NestedCommError", "VirtualComm", "available_comm_backends",
        "current_worker_backend", "get_comm_backend", "make_comm",
        "set_comm_backend", "use_comm_backend",
    ),
    "process_comm": (
        "ProcessComm", "ProcessPoolError", "ProcessWorkerError",
        "WorkerCrashedError", "WorkerTimeoutError", "pool_process_count",
    ),
    "chaos": (
        "ChaosComm", "FaultPlan", "FaultRule", "get_fault_plan",
        "set_fault_plan", "use_fault_plan",
    ),
    "machine": (
        "IBM_SP2", "MACHINES", "SGI_ORIGIN", "MachineModel", "modeled_time",
        "speedup", "time_breakdown",
    ),
}
#: ``name: (module, attribute)``; one re-export is renamed.
_HOMES = {
    name: (mod, name) for mod, names in _MODULES.items() for name in names
}
_HOMES["shutdown_process_pool"] = ("process_comm", "shutdown_pool")


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home[0]}")
    value = getattr(module, home[1])
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
