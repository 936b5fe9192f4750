"""Command-line interface.

``python -m repro <command>``:

* ``solve``        — one solve of a Table 2 mesh with full reporting.
* ``scaling``      — Table-3-style sweep over processor counts.
* ``convergence``  — Figs. 11-13-style preconditioner comparison.
* ``meshes``       — print the Table 2 family.
* ``trace``        — summarize or convert a ``--trace`` recording.
* ``serve``        — JSON-lines solver service on stdin/stdout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.core.session import PreparedSystem
from repro.fem.cantilever import PAPER_MESHES, cantilever_problem
from repro.parallel.comm import available_comm_backends
from repro.parallel.machine import MACHINES, modeled_time
from repro.reporting.convergence import convergence_table
from repro.reporting.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel FE-based domain-decomposition FGMRES with polynomial "
            "preconditioning (Liang, Kanapady & Tamma, TR 05-001)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one cantilever problem")
    solve.add_argument("--mesh", type=int, default=4, help="Table 2 mesh id")
    solve.add_argument("-p", "--parts", type=int, default=8, help="rank count")
    solve.add_argument(
        "--method",
        choices=["edd-enhanced", "edd-basic", "rdd"],
        default="edd-enhanced",
    )
    solve.add_argument(
        "--precond",
        default="gls(7)",
        help=(
            'e.g. "gls(7)", "neumann(20)", "none", or a two-level '
            'composite "2l(gls(7),deflate)" / "2l(neumann(20),deflate,tr)"'
        ),
    )
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--restart", type=int, default=25)
    solve.add_argument("--dynamic", action="store_true")
    solve.add_argument(
        "--comm-backend",
        choices=list(available_comm_backends()),
        default=None,
        help=(
            "communicator backend executing the rank loops (default: "
            "REPRO_COMM_BACKEND or 'virtual'); 'process' runs the rank "
            "ops of large systems resident in spawned worker processes "
            "over shared memory; 'chaos' is 'virtual' with deterministic "
            "fault injection"
        ),
    )
    solve.add_argument(
        "--fault-plan",
        metavar="JSON_OR_PATH",
        default=None,
        help=(
            "chaos fault plan as a JSON string or a path to a .json file "
            "(implies --comm-backend chaos); equivalent to setting "
            "REPRO_CHAOS_PLAN"
        ),
    )
    solve.add_argument(
        "--nrhs",
        type=int,
        default=1,
        metavar="K",
        help=(
            "solve K right-hand sides in one batched block solve (columns "
            "are scaled copies of the cantilever load); K=1 uses the "
            "single-RHS path"
        ),
    )
    solve.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "append the run record to a JSON file (one record per "
            "right-hand side when --nrhs > 1)"
        ),
    )
    solve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a span/metrics trace of the run to PATH; a name "
            "ending in 'chrome.json' writes Chrome trace format "
            "(Perfetto-loadable), anything else the repro-trace/1 schema "
            "(inspect with 'repro trace summarize PATH')"
        ),
    )

    scaling = sub.add_parser("scaling", help="Table-3-style scaling sweep")
    scaling.add_argument("--mesh", type=int, default=3)
    scaling.add_argument("--precond", default="gls(7)")
    scaling.add_argument(
        "--machine", choices=sorted(MACHINES), default="origin"
    )
    scaling.add_argument(
        "--ranks", type=int, nargs="+", default=[1, 2, 4, 8]
    )

    conv = sub.add_parser(
        "convergence", help="compare preconditioners on one mesh"
    )
    conv.add_argument("--mesh", type=int, default=2)
    conv.add_argument(
        "--preconds",
        nargs="+",
        default=["none", "gls(3)", "gls(7)", "gls(10)", "neumann(20)"],
    )
    conv.add_argument("--tol", type=float, default=1e-6)
    conv.add_argument(
        "--plot",
        action="store_true",
        help="render the residual histories as an ASCII semilog plot",
    )

    sub.add_parser("meshes", help="print the Table 2 mesh family")

    trace = sub.add_parser(
        "trace", help="summarize or convert a recorded solve trace"
    )
    tsub = trace.add_subparsers(dest="action", required=True)
    tsum = tsub.add_parser(
        "summarize", help="print phase/span/metric tables for a trace"
    )
    tsum.add_argument("path", help="repro-trace/1 JSON from solve --trace")
    tchrome = tsub.add_parser(
        "chrome", help="convert a repro-trace/1 file to Chrome trace format"
    )
    tchrome.add_argument("path", help="repro-trace/1 JSON from solve --trace")
    tchrome.add_argument(
        "--out",
        default=None,
        help="output path (default: <path minus .json>.chrome.json)",
    )

    rep = sub.add_parser(
        "reproduce", help="regenerate the paper's core results (< 1 min)"
    )
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument("--mesh", type=int, default=3, help="scaling-study mesh")

    serve = sub.add_parser(
        "serve",
        help=(
            "run the solver service as a JSON-lines loop on stdin/stdout "
            "(one SolveRequest per input line, one SolveResponse per "
            "output line; {\"op\": \"stats\"} and {\"op\": \"shutdown\"} "
            "are control lines — see docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="batches solving concurrently in the worker pool",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="admitted requests beyond which submissions are rejected",
    )
    serve.add_argument(
        "--window", type=float, default=0.005,
        help="coalescing batch window in seconds",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="max requests coalesced into one block solve",
    )
    serve.add_argument(
        "--no-coalesce", action="store_true",
        help="solve every request alone (debugging / benchmarking control)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=8,
        help="session-cache bound on prepared systems (LRU-evicted)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=None,
        help="session-cache bound on estimated resident bytes",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-request deadline in seconds",
    )
    return parser


def _write_trace(tracer, path) -> None:
    """Write a finished trace; 'chrome.json' suffix selects Chrome format."""
    tracer.write_json(path, chrome=path.endswith("chrome.json"))
    print(f"trace written to {path}")


def cmd_solve(args) -> int:
    """``repro solve``: one cantilever solve with full reporting."""
    from contextlib import nullcontext

    if args.nrhs < 1:
        print(
            f"error: --nrhs must be >= 1, got {args.nrhs}", file=sys.stderr
        )
        return 2
    from repro.precond.spec import make_preconditioner

    try:
        make_preconditioner(args.precond)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(meta={"mesh": args.mesh})
    problem = cantilever_problem(args.mesh, with_mass=args.dynamic)
    comm_backend = args.comm_backend
    chaos_ctx = nullcontext()
    if args.fault_plan is not None:
        import os

        from repro.parallel.chaos import FaultPlan, use_fault_plan

        raw = args.fault_plan
        if raw.endswith(".json") and os.path.exists(raw):
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
        chaos_ctx = use_fault_plan(FaultPlan.from_json(raw))
        comm_backend = "chaos"
    options = SolverOptions(
        method=args.method,
        precond=None if args.precond == "none" else args.precond,
        tol=args.tol,
        restart=args.restart,
        dynamic=args.dynamic,
        comm_backend=comm_backend,
    )
    k = args.nrhs
    with chaos_ctx, PreparedSystem.build(
        problem, args.parts, options, tracer=tracer
    ) as prepared:
        if k == 1:
            summary = prepared.solve(tracer=tracer)
        else:
            scales = 1.0 + 0.1 * np.arange(k)
            summary = prepared.solve_batch(
                problem.load[:, None] * scales, tracer=tracer
            )
    print(
        f"mesh {args.mesh} ({problem.n_eqn} eqns), {args.method}, "
        f"{summary.precond_name}, P={args.parts}, "
        f"comm={summary.comm_backend}, nrhs={k}"
    )
    for c, (res, rel) in enumerate(
        zip(summary.results, summary.true_residuals)
    ):
        tag = "" if k == 1 else f"rhs[{c}] "
        print(f"{tag}{res}")
        print(f"{tag}true relative residual: {rel:.3e}")
        for event in res.diagnostics:
            print(f"{tag}diagnostic: [{event.kind}] iter {event.iteration}: "
                  f"{event.detail}")
    st = summary.stats
    print(
        f"flops={st.total_flops:,} messages={st.total_nbr_messages} "
        f"words={st.total_nbr_words:,} reductions={st.max_reductions}"
    )
    for name, machine in sorted(MACHINES.items()):
        print(f"modeled time on {machine.name}: {modeled_time(st, machine):.4f} s")
    rate = k / summary.wall_time if summary.wall_time > 0 else float("inf")
    print(
        f"setup {summary.setup_time:.4f} s, solve {summary.wall_time:.4f} s, "
        f"{rate:.2f} RHS/s"
    )
    if args.json:
        import os

        from repro.io.records import (
            load_records,
            record_from_summary,
            save_records,
        )

        label = (
            f"mesh{args.mesh}/{args.method}/{summary.precond_name}/"
            f"p{args.parts}"
        )
        records = (
            load_records(args.json) if os.path.exists(args.json) else []
        )
        records.extend(
            record_from_summary(
                summary, label if k == 1 else f"{label}/rhs{c}",
                problem.n_eqn, column=c,
            )
            for c in range(k)
        )
        save_records(records, args.json)
        print(f"{k} record(s) appended to {args.json}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0 if summary.all_converged else 1


def cmd_scaling(args) -> int:
    """``repro scaling``: Table-3-style sweep over processor counts."""
    problem = cantilever_problem(args.mesh)
    machine = MACHINES[args.machine]
    rows = []
    t1 = None
    for p in args.ranks:
        if p > problem.mesh.n_elements:
            continue
        s = solve_cantilever(
            problem, n_parts=p, options=SolverOptions(precond=args.precond)
        )
        tp = modeled_time(s.stats, machine)
        if t1 is None:
            t1 = tp
        rows.append(
            [p, s.result.iterations, f"{tp:.4f}", f"{t1 / tp:.2f}"]
        )
    print(
        format_table(
            ["P", "iterations", f"modeled T on {machine.name} (s)", "speedup"],
            rows,
            title=f"Mesh{args.mesh}, EDD-FGMRES-{args.precond}",
        )
    )
    return 0


def cmd_convergence(args) -> int:
    """``repro convergence``: preconditioner comparison on one mesh."""
    from repro.core.driver import make_preconditioner
    from repro.precond.scaling import scale_system
    from repro.solvers.fgmres import fgmres

    problem = cantilever_problem(args.mesh)
    ss = scale_system(problem.stiffness, problem.load)
    mv = ss.a.matvec
    results = {}
    for spec in args.preconds:
        pc = make_preconditioner(None if spec == "none" else spec)
        pre = None if pc is None else (lambda v, pc=pc: pc.apply_linear(mv, v))
        name = "none" if pc is None else pc.name
        results[name] = fgmres(
            mv, ss.b, pre, restart=25, tol=args.tol, max_iter=5000
        )
    print(f"Mesh{args.mesh} ({problem.n_eqn} eqns), tol={args.tol:g}")
    print(convergence_table(results))
    if args.plot:
        from repro.reporting.ascii_plot import convergence_plot

        print()
        print(convergence_plot(results))
    return 0 if all(r.converged for r in results.values()) else 1


def cmd_meshes(_args) -> int:
    """``repro meshes``: print the Table 2 family."""
    rows = [
        [k, f"{nx} x {ny}", n_node, n_eqn, edge]
        for k, (nx, ny, n_node, n_eqn, edge) in PAPER_MESHES.items()
    ]
    print(
        format_table(
            ["Mesh", "elements", "nNode", "nEqn", "clamped edge"],
            rows,
            title="Table 2 — cantilever mesh family",
        )
    )
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: summarize or convert a recorded solve trace."""
    import json

    try:
        with open(args.path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if args.action == "summarize":
        from repro.obs import summarize_trace

        try:
            print(summarize_trace(trace))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    # chrome conversion
    from repro.obs import chrome_trace_from_dict

    out = args.out
    if out is None:
        base = args.path[:-5] if args.path.endswith(".json") else args.path
        out = base + ".chrome.json"
    try:
        doc = chrome_trace_from_dict(trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"chrome trace written to {out}")
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: the JSON-lines solver-service loop."""
    import asyncio

    from repro.service import ServiceConfig, serve_jsonl

    config = ServiceConfig(
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        batch_window=args.window,
        max_batch=args.max_batch,
        coalesce=not args.no_coalesce,
        default_timeout=args.timeout,
        session_max_entries=args.cache_entries,
        session_max_bytes=args.cache_bytes,
    )
    asyncio.run(serve_jsonl(sys.stdin, sys.stdout, config))
    return 0


def cmd_reproduce(args) -> int:
    """``repro reproduce``: quick regeneration of the paper's core results."""
    from repro.experiments import reproduce_all

    tables = reproduce_all(args.out, mesh_id=args.mesh)
    for table in tables.values():
        print(table)
        print()
    print(f"results written to {args.out}/")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "scaling": cmd_scaling,
        "convergence": cmd_convergence,
        "meshes": cmd_meshes,
        "trace": cmd_trace,
        "reproduce": cmd_reproduce,
        "serve": cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
