"""Large-mesh streamed-assembly benchmark -> BENCH_large_mesh.json.

The memory/throughput acceptance test of the large-mesh tier: solve a
large cantilever three ways in three *separate child processes* and
compare peak RSS (``resource.getrusage``'s ``ru_maxrss``) and solve
wall time:

* ``streamed`` — :func:`repro.fem.cantilever.cantilever_inputs` (no
  verification assembly) + :func:`build_edd_system` (chunked per-rank
  assembly, no global CSR ever materialized) solved under the
  ``process`` comm backend with the residency threshold
  (``REPRO_PROCESS_MIN_WORK``) out of reach: rank bodies and collectives
  run inline and the worker pool is never spawned.
* ``resident`` — same construction with ``REPRO_PROCESS_MIN_WORK=0``:
  per-rank CSR blocks ship to the worker pool once and the solver's
  matvec/dot/ortho/axpy regions execute worker-resident.
* ``serial`` — :func:`cantilever_problem` (global COO + CSR assembly)
  + the same :func:`build_edd_system` under the virtual backend: the
  serial-assembly baseline.

Each variant runs in its own child so ``ru_maxrss`` — a high-water mark
that never decreases — measures that variant alone.  Every child also
recomputes the ground-truth residual through the **streamed
verification operator** (:func:`repro.core.driver.streamed_verify_residual`),
so correctness is checked without any child materializing the global
matrix.  The paired bit-identity contract is asserted too: all variants
must converge in exactly the same number of iterations.

``REPRO_LARGE_MESH`` selects the mesh id — Table 2's 1..10 or the
large tiers 11..13 (default 7; CI runs a reduced mesh).  The peak-RSS
assertion is armed for Mesh6 and larger — below that the saved arrays
drown in interpreter-baseline noise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

MESH_ID = int(os.environ.get("REPRO_LARGE_MESH", "7"))
N_PARTS = 4
#: Below Mesh6 the assembly arrays are small against the interpreter
#: baseline and the RSS comparison stops being meaningful.
RSS_ASSERT_MIN_MESH = 6
#: Residual acceptance: solver tol (1e-6) times the driver's
#: verification slack (100).
TRUE_RESIDUAL_MAX = 1e-4

MODES = ("streamed", "resident", "serial")

_CHILD_SOURCE = '''\
"""Child of benchmarks/test_large_mesh_bench.py (written at test time).

A real file with a guarded main because the process comm backend uses
the ``spawn`` start method: workers re-import __main__, which must be
importable and side-effect free.
"""

import json
import resource
import sys
import time


def run(mode, mesh_id, n_parts):
    from repro.core.driver import streamed_verify_residual
    from repro.core.edd import edd_fgmres
    from repro.core.options import SolverOptions
    from repro.partition.element_partition import ElementPartition

    options = SolverOptions(precond="gls(7)")
    pool_processes = 0
    if mode in ("streamed", "resident"):
        from repro.core.distributed import build_edd_system
        from repro.fem.cantilever import cantilever_inputs
        from repro.parallel.process_comm import (
            pool_process_count,
            shutdown_pool,
        )

        mesh, bc, f_full, material = cantilever_inputs(mesh_id)
        part = ElementPartition.build(mesh, n_parts)
        system = build_edd_system(
            mesh, material, bc, part, f_full, comm_backend="process"
        )
        try:
            t0 = time.perf_counter()
            result = edd_fgmres(system, options=options)
            wall = time.perf_counter() - t0
            pool_processes = pool_process_count()
        finally:
            system.comm.close()
            shutdown_pool(force=True)
        n_eqn = bc.n_free
        b_free = f_full[bc.free]
    elif mode == "serial":
        from repro.core.distributed import build_edd_system
        from repro.fem.cantilever import cantilever_problem

        prob = cantilever_problem(mesh_id)
        part = ElementPartition.build(prob.mesh, n_parts)
        f_full = prob.bc.expand(prob.load)
        system = build_edd_system(
            prob.mesh, prob.material, prob.bc, part, f_full,
            comm_backend="virtual",
        )
        t0 = time.perf_counter()
        result = edd_fgmres(system, options=options)
        wall = time.perf_counter() - t0
        mesh, bc, material = prob.mesh, prob.bc, prob.material
        n_eqn = prob.bc.n_free
        b_free = prob.load
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Ground truth through the streamed operator: no global matrix in
    # any child, ever.
    true_residual = streamed_verify_residual(
        mesh, material, bc, b_free, options, result
    )
    return {
        "mode": mode,
        "n_eqn": int(n_eqn),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "pool_processes": int(pool_processes),
        "wall_time": float(wall),
        "true_residual": float(true_residual),
        "peak_rss_kb": int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    }


def main():
    mode, mesh_id, n_parts = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    print(json.dumps(run(mode, mesh_id, n_parts)))


if __name__ == "__main__":
    main()
'''


def _run_child(script: Path, mode: str) -> dict:
    """Run one variant in a fresh interpreter; return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # The residency threshold selects the mode regardless of problem
    # size: zero forces worker-resident rank ops, an unreachable one
    # keeps everything inline.
    env["REPRO_PROCESS_MIN_WORK"] = "0" if mode == "resident" else str(2**62)
    env["REPRO_PROCESS_WORKERS"] = "2"
    # Large tiers need the fastest kernels available; backends are
    # bit-identical so this changes wall time only.
    env.setdefault("REPRO_KERNEL_BACKEND", "scipy")
    proc = subprocess.run(
        [sys.executable, str(script), mode, str(MESH_ID), str(N_PARTS)],
        capture_output=True, text=True, timeout=540, env=env,
    )
    assert proc.returncode == 0, (
        f"{mode} child failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def validate_schema(report: dict) -> None:
    """Assert the BENCH_large_mesh.json shape the CI smoke checks."""
    for key in ("suite", "mesh", "n_parts", "cpu_count", "runs", "rss_ratio"):
        assert key in report, f"missing key {key!r}"
    assert report["suite"] == "large-mesh"
    assert len(report["runs"]) == len(MODES)
    for run in report["runs"]:
        for key in (
            "mode",
            "n_eqn",
            "iterations",
            "converged",
            "pool_processes",
            "wall_time",
            "true_residual",
            "peak_rss_kb",
        ):
            assert key in run, f"run missing key {key!r}"
        assert run["mode"] in MODES
        assert run["converged"] is True
        assert run["peak_rss_kb"] > 0
        assert run["wall_time"] > 0.0
        assert run["true_residual"] <= TRUE_RESIDUAL_MAX
    by_mode = {r["mode"]: r for r in report["runs"]}
    assert set(by_mode) == set(MODES)
    # Bit-identity contract: assembly strategy, comm backend and rank-op
    # engine must not change a single iterate.
    iters = {r["iterations"] for r in report["runs"]}
    assert len(iters) == 1, f"iteration counts diverge: {by_mode}"
    # The resident child really dispatched through worker processes;
    # the inline one never spawned them.
    assert by_mode["streamed"]["pool_processes"] == 0
    assert by_mode["resident"]["pool_processes"] >= 1
    assert report["rss_ratio"] > 0.0


def test_bench_large_mesh_json(tmp_path):
    """Solve Mesh``REPRO_LARGE_MESH`` streamed / resident / serial in
    isolated children, write BENCH_large_mesh.json and assert the
    streamed peak RSS stays below the serial-assembly baseline (Mesh6+)."""
    script = tmp_path / "large_mesh_child.py"
    script.write_text(_CHILD_SOURCE)
    runs = [_run_child(script, mode) for mode in MODES]
    by_mode = {r["mode"]: r for r in runs}
    streamed, serial = by_mode["streamed"], by_mode["serial"]

    report = {
        "suite": "large-mesh",
        "mesh": MESH_ID,
        "n_parts": N_PARTS,
        "cpu_count": os.cpu_count() or 1,
        "runs": runs,
        "rss_ratio": streamed["peak_rss_kb"] / serial["peak_rss_kb"],
    }
    validate_schema(report)
    out_path = REPO_ROOT / "BENCH_large_mesh.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(
        f"\nlarge-mesh bench (mesh {MESH_ID}, {streamed['n_eqn']} eqn, "
        f"P={N_PARTS}):"
    )
    for run in runs:
        print(
            f"  {run['mode']:>8}: peak RSS {run['peak_rss_kb'] / 1024:.1f} "
            f"MiB, {run['wall_time']:.2f} s ({run['iterations']} it, "
            f"{run['pool_processes']} pool procs, "
            f"true res {run['true_residual']:.2e})"
        )
    if MESH_ID >= RSS_ASSERT_MIN_MESH:
        assert streamed["peak_rss_kb"] < serial["peak_rss_kb"], (
            f"streamed assembly peaked at {streamed['peak_rss_kb']} KiB, "
            f"not below the serial baseline {serial['peak_rss_kb']} KiB"
        )


def test_bench_large_mesh_schema_of_existing_file():
    """CI smoke: if BENCH_large_mesh.json is checked in / regenerated, it
    must satisfy the schema above."""
    path = REPO_ROOT / "BENCH_large_mesh.json"
    if not path.exists():
        import pytest

        pytest.skip("BENCH_large_mesh.json not generated yet")
    validate_schema(json.loads(path.read_text()))
