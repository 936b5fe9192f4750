"""Comm-backend wall-clock benchmark -> BENCH_parallel.json.

Measures *actual* solve-phase wall-clock (not the modeled SP2/Origin
times) for both communicator backends across a Table 2 mesh subset, a
rank sweep and GLS degrees 0/3/7 — the measured counterpart of the
paper's Figs. 15-17 speedup study.  Every run also asserts backend
parity (identical iteration counts), so the timing table can never
silently drift from the bit-identical contract.

The headline acceptance number — thread-backend speedup > 1.3x over
virtual at P=4 with GLS(7) — is only asserted when the host actually
has multiple cores: the ThreadComm design gets its concurrency from
GIL-releasing scipy/numpy kernels, which cannot beat serial execution
on a single-CPU container.  The JSON records ``cpu_count`` so readers
can interpret the numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.fem.cantilever import PAPER_MESHES
from repro.sparse.kernels import available_backends

REPO_ROOT = Path(__file__).resolve().parents[1]

MESH_IDS = (2, 3, 4)  # 656 / 1640 / 5100 equations
DEGREES = (0, 3, 7)
RANKS = (1, 2, 4)
BACKENDS = ("virtual", "thread", "process")

#: Mesh for the resident-vs-inline dispatch-overhead section: the first
#: large tier (103040 equations) — big enough that per-op compute
#: amortizes the command pipe round-trips and the overhead ratio sits
#: near its single-CPU asymptote (arena copies scale with n too, so
#: small meshes overstate the dispatch tax).
RESIDENT_MESH = 11
#: Acceptance: worker-resident execution must stay within 1.5x of
#: inline process execution even on a single-CPU host (where it cannot
#: be faster, only amortized).
DISPATCH_OVERHEAD_MAX = 1.5


def _kernel_backend() -> str | None:
    """Prefer a GIL-releasing C kernel backend (thread concurrency needs
    it); fall back to the session default when only numpy is available."""
    return "scipy" if "scipy" in available_backends() else None


def _wall_solve(problem, n_parts, backend, degree, repeats=3):
    """Best-of-``repeats`` solve wall-clock plus the last summary."""
    opts = SolverOptions(
        precond=f"gls({degree})",
        comm_backend=backend,
        kernel_backend=_kernel_backend(),
    )
    best = float("inf")
    summary = None
    for _ in range(repeats):
        summary = solve_cantilever(problem, n_parts=n_parts, options=opts)
        best = min(best, summary.wall_time)
    return best, summary


def validate_schema(report: dict) -> None:
    """Assert the BENCH_parallel.json shape the CI smoke checks."""
    for key in (
        "suite",
        "cpu_count",
        "thread_workers",
        "process_workers",
        "runs",
        "speedup_p4_gls7",
        "speedup_p4_gls7_process",
        "resident",
        "dispatch_overhead",
    ):
        assert key in report, f"missing key {key!r}"
    assert report["suite"] == "comm-backend"
    assert report["cpu_count"] >= 1
    assert len(report["runs"]) > 0
    resident = report["resident"]
    for key in ("mesh", "n_parts", "degree", "inline_wall", "resident_wall",
                "iterations", "rank_op_dispatches_per_apply"):
        assert key in resident, f"resident section missing key {key!r}"
    assert resident["inline_wall"] > 0.0
    assert resident["resident_wall"] > 0.0
    assert resident["rank_op_dispatches_per_apply"] <= 1.0
    assert report["dispatch_overhead"] > 0.0
    for run in report["runs"]:
        for key in (
            "mesh",
            "n_eqn",
            "degree",
            "n_parts",
            "backend",
            "wall_time",
            "iterations",
            "converged",
        ):
            assert key in run, f"run missing key {key!r}"
        assert run["backend"] in BACKENDS
        assert run["wall_time"] > 0.0
        assert run["converged"] is True


def test_bench_comm_backends_json(problems):
    """Time both backends over meshes x degrees x ranks, write the table
    to ``BENCH_parallel.json`` and assert parity plus (multicore only)
    the >1.3x acceptance speedup."""
    report: dict = {
        "suite": "comm-backend",
        "cpu_count": os.cpu_count() or 1,
        "thread_workers": int(
            os.environ.get("REPRO_THREAD_WORKERS", 0)
        ) or max(2, os.cpu_count() or 1),
        "process_workers": int(
            os.environ.get("REPRO_PROCESS_WORKERS", 0)
        ) or max(2, os.cpu_count() or 1),
        "kernel_backend": _kernel_backend() or "default",
        "runs": [],
    }
    iters_by_config: dict = {}
    for mesh_id in MESH_IDS:
        problem = problems(mesh_id)
        n_eqn = PAPER_MESHES[mesh_id][3]
        for degree in DEGREES:
            for n_parts in RANKS:
                for backend in BACKENDS:
                    wall, s = _wall_solve(problem, n_parts, backend, degree)
                    report["runs"].append(
                        {
                            "mesh": mesh_id,
                            "n_eqn": n_eqn,
                            "degree": degree,
                            "n_parts": n_parts,
                            "backend": backend,
                            "wall_time": wall,
                            "iterations": s.result.iterations,
                            "converged": bool(s.result.converged),
                        }
                    )
                    key = (mesh_id, degree, n_parts)
                    if key in iters_by_config:
                        assert iters_by_config[key] == s.result.iterations, (
                            f"backend changed iteration count at {key}"
                        )
                    iters_by_config[key] = s.result.iterations

    def _wall(mesh_id, degree, n_parts, backend):
        (run,) = [
            r
            for r in report["runs"]
            if (r["mesh"], r["degree"], r["n_parts"], r["backend"])
            == (mesh_id, degree, n_parts, backend)
        ]
        return run["wall_time"]

    largest = MESH_IDS[-1]
    report["speedup_p4_gls7"] = _wall(largest, 7, 4, "virtual") / _wall(
        largest, 7, 4, "thread"
    )
    report["speedup_p4_gls7_process"] = _wall(largest, 7, 4, "virtual") / _wall(
        largest, 7, 4, "process"
    )

    # Resident-vs-inline dispatch overhead: the same process-backend
    # solve with rank ops forced inline vs forced worker-resident.
    resident_problem = problems(RESIDENT_MESH)
    saved = os.environ.get("REPRO_PROCESS_RESIDENT")
    try:
        os.environ["REPRO_PROCESS_RESIDENT"] = "0"
        inline_wall, s_inline = _wall_solve(
            resident_problem, 4, "process", 7, repeats=2
        )
        os.environ["REPRO_PROCESS_RESIDENT"] = "1"
        resident_wall, s_res = _wall_solve(
            resident_problem, 4, "process", 7, repeats=2
        )
        # Fused-dispatch contract at the same configuration, read off a
        # traced resident solve: ONE "chain" rank_op per preconditioner
        # apply, so command round-trips no longer scale with the degree.
        from repro.obs import Tracer

        trc = Tracer()
        solve_cantilever(
            resident_problem, n_parts=4, tracer=trc,
            options=SolverOptions(
                precond="gls(7)", comm_backend="process",
                kernel_backend=_kernel_backend(),
            ),
        )
        n_chains = sum(
            1 for s in trc.spans
            if s["name"] == "rank_op" and s["args"]["op"] == "chain"
        )
        n_applies = sum(
            1 for s in trc.spans if s["name"] == "precond_apply"
        )
        assert n_applies > 0 and n_chains == n_applies, (
            f"{n_chains} chain dispatches for {n_applies} "
            "preconditioner applies (need exactly 1 per apply)"
        )
        dispatches_per_apply = n_chains / n_applies
    finally:
        if saved is None:
            os.environ.pop("REPRO_PROCESS_RESIDENT", None)
        else:
            os.environ["REPRO_PROCESS_RESIDENT"] = saved
    assert s_inline.result.iterations == s_res.result.iterations, (
        "resident execution changed the iteration count"
    )
    report["resident"] = {
        "mesh": RESIDENT_MESH,
        "n_parts": 4,
        "degree": 7,
        "inline_wall": inline_wall,
        "resident_wall": resident_wall,
        "iterations": s_res.result.iterations,
        "rank_op_dispatches_per_apply": dispatches_per_apply,
    }
    report["dispatch_overhead"] = resident_wall / inline_wall
    validate_schema(report)

    out_path = REPO_ROOT / "BENCH_parallel.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\ncomm-backend bench (solve wall seconds):")
    for run in report["runs"]:
        print(
            f"  mesh{run['mesh']} gls({run['degree']}) P={run['n_parts']} "
            f"{run['backend']:>7}: {run['wall_time']:.4f}s "
            f"({run['iterations']} it)"
        )
    print(f"speedup @ mesh{largest}/gls(7)/P=4: {report['speedup_p4_gls7']:.2f}x")
    print(
        f"resident dispatch overhead @ mesh{RESIDENT_MESH}/gls(7)/P=4: "
        f"{report['dispatch_overhead']:.2f}x "
        f"(inline {inline_wall:.3f}s, resident {resident_wall:.3f}s)"
    )

    if (os.cpu_count() or 1) >= 2:
        assert report["speedup_p4_gls7"] > 1.3, (
            f"thread backend is only {report['speedup_p4_gls7']:.2f}x the "
            f"virtual backend at P=4/GLS(7) on {report['cpu_count']} cores "
            "(need > 1.3x)"
        )
    # The process backend runs collectives through the shared-memory pool
    # and (above the work threshold) the rank bodies worker-resident; at
    # these small sizes it is bounded-overhead rather than faster — on
    # any core count it must stay within 3x of virtual.
    assert report["speedup_p4_gls7_process"] > 1.0 / 3.0, (
        f"process backend is {1.0 / report['speedup_p4_gls7_process']:.2f}x "
        "slower than virtual at P=4/GLS(7) (allowed at most 3x)"
    )
    # Resident rank ops trade command round-trips for true multi-core
    # compute; even a single-CPU host must keep that trade bounded.
    assert report["dispatch_overhead"] <= DISPATCH_OVERHEAD_MAX, (
        f"resident execution is {report['dispatch_overhead']:.2f}x inline "
        f"process execution at mesh {RESIDENT_MESH}/P=4/GLS(7) "
        f"(allowed at most {DISPATCH_OVERHEAD_MAX}x)"
    )


def test_bench_parallel_schema_of_existing_file():
    """CI smoke: if BENCH_parallel.json is checked in / regenerated, it
    must satisfy the schema above."""
    path = REPO_ROOT / "BENCH_parallel.json"
    if not path.exists():
        import pytest

        pytest.skip("BENCH_parallel.json not generated yet")
    validate_schema(json.loads(path.read_text()))
