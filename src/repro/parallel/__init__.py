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

from repro.parallel.stats import CommStats, RankStats
from repro.parallel.comm import (
    Comm,
    NestedCommError,
    VirtualComm,
    available_comm_backends,
    current_worker_backend,
    get_comm_backend,
    make_comm,
    set_comm_backend,
    use_comm_backend,
)
from repro.parallel.process_comm import (
    ProcessComm,
    ProcessPoolError,
    ProcessWorkerError,
    WorkerCrashedError,
    WorkerTimeoutError,
    pool_process_count,
)
from repro.parallel.process_comm import shutdown_pool as shutdown_process_pool
from repro.parallel.chaos import (
    ChaosComm,
    FaultPlan,
    FaultRule,
    get_fault_plan,
    set_fault_plan,
    use_fault_plan,
)
from repro.parallel.machine import (
    IBM_SP2,
    MACHINES,
    SGI_ORIGIN,
    MachineModel,
    modeled_time,
    speedup,
    time_breakdown,
)

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
