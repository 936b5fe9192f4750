"""Record envelope and environment hygiene.

Every run record starts with the same envelope — commit, host, BLAS,
backends, versions, seed — so two records can be told apart (or told to
be comparable) from the artifacts alone.  The harness measures shipped
defaults: any ``REPRO_*`` variable it inherits is removed before the
program is imported, and the removal is recorded.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def scrub_repro_env() -> list:
    """Remove every ``REPRO_*`` variable from this process (and so from
    the workers it spawns); returns the sorted ``NAME=value`` list found."""
    found = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return [f"{k}={os.environ.pop(k)}" for k in found]


def _children() -> list:
    """Pids of this process's live (not yet reaped) children."""
    me, found = str(os.getpid()), []
    try:
        pids = [name for name in os.listdir("/proc") if name.isdigit()]
    except OSError:  # not on Linux
        return found
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:  # gone since the listing
            continue
        if stat[stat.rindex(")") + 2:].split()[1] == me:
            found.append(int(pid))
    return found


def stop_child_processes() -> None:
    """Leave no process behind, on any way out of a run.

    Registered with ``atexit`` before ``multiprocessing`` or ``repro`` is
    imported, so it runs after their own exit handlers (worker pool
    drained, shared-memory segments unlinked).  What is left then is
    multiprocessing's resource tracker, which otherwise outlives this
    interpreter by the moment it takes to notice its pipe closed: it is
    stopped and waited for.  Any other child still there (a worker that
    survived a failed shutdown) is killed and waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to end
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def cpu_times() -> dict | None:
    """Host-wide CPU jiffies from ``/proc/stat`` (None off Linux); two
    readings give :func:`cpu_shares` of the stretch between them."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return dict(zip(names, map(int, fields)))


def cpu_shares(before: dict | None, after: dict | None) -> dict | None:
    """Share of all CPU time between two :func:`cpu_times` readings that
    was busy and that the hypervisor stole — the first thing to look at
    when a run is an outlier."""
    if not before or not after:
        return None
    delta = {k: after[k] - before[k] for k in after}
    total = sum(delta.values()) or 1
    busy = total - delta["idle"] - delta["iowait"] - delta["steal"]
    return {"busy_frac": busy / total, "steal_frac": delta["steal"] / total}


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas() -> dict:
    """BLAS library and thread count in effect: ``threadpoolctl`` when
    importable, else the ``*_NUM_THREADS`` variables (unset = library
    default, one thread per visible core)."""
    info: dict = {
        "thread_vars": {v: os.environ[v] for v in _THREAD_VARS if v in os.environ},
    }
    try:
        import numpy

        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError, KeyError):
        info["library"] = None
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        info["source"] = "environment"
        info["threads"] = info["thread_vars"].get("OPENBLAS_NUM_THREADS") \
            or info["thread_vars"].get("OMP_NUM_THREADS") or "library default"
    else:
        pools = threadpool_info()
        info["source"] = "threadpoolctl"
        info["threads"] = [
            {"api": p.get("user_api"), "lib": p.get("internal_api"),
             "num_threads": p.get("num_threads")}
            for p in pools
        ]
    return info


def envelope(seed: int, quick: bool, removed_env: list) -> dict:
    """The environment record shared by every run of one invocation."""
    import numpy
    import scipy

    from repro.parallel import get_comm_backend
    from repro.sparse.kernels import available_backends, get_backend

    status = _git("status", "--porcelain")
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "blas": _blas(),
        "kernel_backend": get_backend().name,
        "kernel_backends_available": list(available_backends()),
        "comm_backend_default": get_comm_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "quick": quick,
        "repro_env_removed": removed_env,
    }
