"""The import diet of a spawned pool worker.

A ``process``-backend worker imports numpy, the stdlib,
``repro.parallel._process_worker`` and the numpy-only ``repro.sparse``
kernels it runs — never the solver stack, the service or scipy (unless
a command names the ``scipy`` kernel backend).  That is what makes a
pool spawn cheap; these tests keep it that way:

- a fresh interpreter that imports the worker module and everything
  its ops import holds none of the heavy modules;
- a live worker, after forced-resident solves, has no scipy library
  mapped — and does once a solve runs on the ``scipy`` backend;
- ``python -m repro``'s main module, re-run as ``__mp_main__``, does
  not import the CLI;
- ``import repro`` resolves its re-exports lazily and still lists them.
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.parallel.process_comm import pool_process_count, shutdown_pool
from repro.sparse import kernels

#: Module prefixes a worker must never import.
HEAVY = (
    "scipy", "asyncio", "networkx", "repro.core", "repro.service",
    "repro.fem", "repro.obs",
)


def _loaded(child_python, imports: str, **env) -> list:
    """``sys.modules`` of a fresh interpreter after ``imports``."""
    out = child_python(
        f"{imports}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        **env,
    )
    return json.loads(out)


def _heavy(modules) -> list:
    return [
        m for m in modules
        if any(m == h or m.startswith(h + ".") for h in HEAVY)
    ]


def test_worker_imports_no_solver_stack(child_python):
    modules = _loaded(
        child_python,
        "import repro.parallel._process_worker\n"
        "import repro.sparse.csr, repro.sparse.dense, repro.sparse.kernels\n"
        "import repro.sparse.arnoldi",
    )
    assert "repro.parallel._process_worker" in modules
    assert _heavy(modules) == []


def test_mp_main_rerun_of_the_cli_entry_point_skips_the_cli(child_python):
    modules = _loaded(
        child_python,
        "import runpy\n"
        "runpy.run_module('repro.__main__', run_name='__mp_main__')",
    )
    assert "repro.cli" not in modules


def test_package_root_resolves_re_exports_lazily(child_python):
    out = child_python(
        "import sys, repro\n"
        "print('repro.api' in sys.modules)\n"
        "print(set(repro.__all__) <= set(dir(repro)))\n"
        "from repro import SolverOptions, fgmres\n"
        "print('repro.api' in sys.modules)"
    )
    assert out.split() == ["False", "True", "True"]
    assert set(repro.__all__) <= set(dir(repro))
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_name


# ----------------------------------------------------------------------
# Live workers: what a forced-resident solve maps into them
# ----------------------------------------------------------------------
@pytest.fixture
def resident_env(monkeypatch):
    """Forced-resident process solves on the session-default kernel
    backend (``REPRO_KERNEL_BACKEND`` unset, re-read at first use), from
    a freshly spawned pool that is drained afterwards."""
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    monkeypatch.setattr(kernels, "_current", [None])
    shutdown_pool(force=True)
    yield
    shutdown_pool(force=True)
    assert pool_process_count() == 0


needs_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)


def _scipy_mapped() -> list:
    """Per live worker: does its address space map a scipy library?
    Matches scipy's package directory, not the substring — numpy ships
    its own ``numpy.libs/libscipy_openblas64_*.so``."""
    from repro.parallel.process_comm import _shared_pool

    mapped = []
    for pid in _shared_pool[0].process_ids():
        with open(f"/proc/{pid}/maps") as f:
            mapped.append("site-packages/scipy/" in f.read())
    return mapped


def _resident_solves(problem):
    for method, precond in (("edd-enhanced", "gls(3)"), ("rdd", "bj-ilu0")):
        opts = SolverOptions(
            method=method, precond=precond, comm_backend="process"
        )
        summary = solve_cantilever(problem, n_parts=4, options=opts)
        assert summary.result.converged
        assert np.all(np.isfinite(summary.result.x))


@needs_proc_maps
def test_default_backend_workers_never_map_scipy(tiny_problem, resident_env):
    _resident_solves(tiny_problem)
    assert kernels.active_backend_name() == "numpy"
    assert _scipy_mapped() == [False, False]


@needs_proc_maps
def test_scipy_backend_is_honoured_inside_the_workers(
    tiny_problem, resident_env
):
    """The backend name shipped with each command switches the worker's
    kernels: scipy is probed, imported and mapped there."""
    with kernels.use_backend("scipy"):
        _resident_solves(tiny_problem)
    assert _scipy_mapped() == [True, True]
