#!/usr/bin/env python
"""Measured speedup of the resident process backend over the serial solve.

The paper's Table 3 quantity on this host: for each mesh and polynomial
degree, wall time of ``PreparedSystem.solve()`` at P=1 on ``virtual``
(the serial solve) over the same solve at P ranks on ``process``
(worker-resident rank ops), with the P-rank ``virtual`` solve beside it
as the bitwise reference and the inline cost of decomposing.  The three
systems are built once, warmed with one restart cycle and timed in
alternation, so host drift hits all of them; medians are reported.
``--nrhs K`` times ``solve_batch`` of K seeded right-hand-side columns
instead of one ``solve()`` (every column checked bitwise);
``--orthogonalization mgs`` measures MGS, which runs inline.

    python tools/resident_speedup.py --mesh 9 11 --degree 3 7 10 \\
        --parts 2 --solves 3 [--max-iter 250] [--nrhs 8] \\
        [--orthogonalization mgs] [--json out.json]

No ``REPRO_*`` variable is set here: residency is decided by the default
threshold (``REPRO_PROCESS_MIN_WORK`` in the environment overrides it,
e.g. ``0`` for a mesh below it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _host() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {
            k: os.environ[k] for k in sorted(os.environ)
            if k.endswith("_NUM_THREADS")
        },
        "commit": sha,
    }


def measure(mesh: int, degree: int, parts: int, solves: int,
            max_iter: int | None, method: str, nrhs: int = 1,
            orthogonalization: str = "cgs") -> dict:
    """One table row: medians over ``solves`` alternating solves (of
    ``nrhs`` columns at once when it is above 1)."""
    import numpy as np

    from repro.api import PreparedSystem, SolverOptions, cantilever_problem

    problem = cantilever_problem(mesh)
    base = SolverOptions(method=method, precond=f"gls({degree})",
                         orthogonalization=orthogonalization)
    if max_iter is not None:
        base = base.replace(max_iter=max_iter)
    block = None
    if nrhs > 1:
        block = np.random.default_rng(0).standard_normal(
            (problem.n_eqn, nrhs))

    def run(ps, options=None) -> list:
        if block is None:
            return [ps.solve(options).result]
        return ps.solve_batch(block, options).results

    systems = {
        "serial": PreparedSystem.build(
            problem, 1, base.replace(comm_backend="virtual")),
        "virtual": PreparedSystem.build(
            problem, parts, base.replace(comm_backend="virtual")),
        "resident": PreparedSystem.build(
            problem, parts, base.replace(comm_backend="process")),
    }
    try:
        resident = bool(systems["resident"].system.rank_engine().resident)
        walls = {name: [] for name in systems}
        last = {}
        for ps in systems.values():
            run(ps, base.replace(
                max_iter=base.restart, comm_backend=ps.options.comm_backend))
        for _ in range(solves):
            for name, ps in systems.items():
                t0 = time.perf_counter()
                last[name] = run(ps)
                walls[name].append(time.perf_counter() - t0)
    finally:
        for ps in systems.values():
            ps.close()
    med = {name: median(w) for name, w in walls.items()}
    return {
        "mesh": mesh,
        "n_eqn": int(problem.n_eqn),
        "degree": degree,
        "parts": parts,
        "nrhs": nrhs,
        "orthogonalization": orthogonalization,
        "resident": resident,
        "iterations": {
            n: max(int(r.iterations) for r in rs) for n, rs in last.items()
        },
        "converged": {
            n: all(bool(r.converged) for r in rs) for n, rs in last.items()
        },
        "bitwise_vs_virtual": all(
            rv.x.tobytes() == rr.x.tobytes()
            and rv.residual_history == rr.residual_history
            for rv, rr in zip(last["virtual"], last["resident"])
        ),
        "solve_s": med,
        "samples": walls,
        "speedup_vs_serial": med["serial"] / med["resident"],
        "virtual_vs_serial": med["serial"] / med["virtual"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mesh", type=int, nargs="+", default=[9])
    parser.add_argument("--degree", type=int, nargs="+", default=[7])
    parser.add_argument("--parts", type=int, default=2)
    parser.add_argument("--solves", type=int, default=3)
    parser.add_argument("--max-iter", type=int, default=None,
                        help="cap the iterations of every solve")
    parser.add_argument("--method", default="edd-enhanced")
    parser.add_argument("--nrhs", type=int, default=1,
                        help="time solve_batch of this many seeded columns")
    parser.add_argument("--orthogonalization", choices=("cgs", "mgs"),
                        default="cgs")
    parser.add_argument("--json", help="write host + rows to this file")
    args = parser.parse_args(argv)

    from repro.parallel import shutdown_process_pool

    host = _host()
    print(f"host: {host}")
    print(f"{'mesh':>4} {'n_eqn':>7} {'deg':>3} {'P':>2} {'k':>2} {'iters':>5} "
          f"{'serial_s':>9} {'virtual_s':>9} {'resident_s':>10} "
          f"{'speedup':>7} {'bitwise':>7}")
    rows = []
    try:
        for mesh in args.mesh:
            for degree in args.degree:
                row = measure(mesh, degree, args.parts, args.solves,
                              args.max_iter, args.method, args.nrhs,
                              args.orthogonalization)
                rows.append(row)
                s = row["solve_s"]
                print(f"{mesh:>4} {row['n_eqn']:>7} {degree:>3} "
                      f"{args.parts:>2} {args.nrhs:>2} "
                      f"{row['iterations']['resident']:>5} "
                      f"{s['serial']:>9.3f} {s['virtual']:>9.3f} "
                      f"{s['resident']:>10.3f} "
                      f"{row['speedup_vs_serial']:>7.2f} "
                      f"{str(row['bitwise_vs_virtual']):>7}"
                      + ("" if row["resident"] else "  (inline!)"))
    finally:
        shutdown_process_pool(force=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"host": host, "args": vars(args), "rows": rows}, fh,
                      indent=1)
    return 0 if all(r["bitwise_vs_virtual"] for r in rows) else 1


if __name__ == "__main__":
    # Guarded: pool workers re-import the main module.
    sys.exit(main())
