"""Entry point of the benchmark named by ``BENCHMARK.json``.

One workload, one mode (what the benchmark driver runs)::

    python3 bench/run.py --workload poly-edd-virtual --seed 1 --seconds 15 --trace 0

prints every metric of that mode by name with its unit, checks every
answer, writes a run record under ``bench/results/`` and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

All four workloads, both modes (the one command a person runs)::

    python3 bench/run.py --seed 1        # or: python -m bench.run --seed 1

runs each workload and mode in a fresh interpreter, prints the same
lines and writes one combined record.  Either form exits non-zero when a
correctness check fails or a metric named in ``BENCHMARK.json`` is
missing.
"""

from __future__ import annotations

import argparse
import atexit
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Runnable as a script from a bare checkout: the package under test and
# this package are found without PYTHONPATH.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS = ROOT / "bench" / "results"
RUN_SCHEMA = "repro-bench-run/1"
RECORD_SCHEMA = "repro-bench/1"


def load_spec() -> dict:
    """``BENCHMARK.json``: the single source of metric names and units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _plain(value):
    """JSON number for a measured value (numpy scalars included)."""
    if hasattr(value, "item"):
        value = value.item()
    return value if isinstance(value, int) else float(value)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def run_one(args, spec: dict) -> int:
    """Run one workload in one mode in this interpreter."""
    from bench.env import (
        cpu_shares, cpu_times, envelope, scrub_repro_env, stop_child_processes,
    )

    # Registered before repro (and so multiprocessing) is imported: exit
    # handlers run last-in first-out, so this one runs after theirs.
    atexit.register(stop_child_processes)
    removed = scrub_repro_env()
    try:
        import repro  # noqa: F401  (fail before measuring anything)
    except ImportError as exc:
        print(f"bench: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from bench.workloads import run_workload

    cpu_before = cpu_times()
    out = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
        args.pin_iterations,
    )
    host_cpu = cpu_shares(cpu_before, cpu_times())
    named = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in named}
    missing = sorted(set(units) - set(out.metrics))
    unnamed = sorted(set(out.metrics) - set(units))
    if missing or unnamed:
        print(f"bench: metrics missing {missing}, not in BENCHMARK.json "
              f"{unnamed}", file=sys.stderr)
        return 3
    metrics = {
        name: {"value": _plain(out.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    checks = out.checks
    failed_frac = checks.failed / checks.attempted
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:18s} {'failed_frac':32s} {failed_frac:.6g} fraction "
          f"({checks.failed} of {checks.attempted})")
    for message in checks.messages:
        print(f"{args.workload:18s} FAILED {message}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {
        "schema": RUN_SCHEMA,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": envelope(args.seed, args.quick, removed),
        "host_cpu": host_cpu,
        **result,
        "failed_frac": failed_frac,
        "failures": checks.messages,
        "samples": out.samples,
        "spans": out.recorder.spans,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, default=_json_default)
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Run every workload, untraced then traced, each in a fresh
    interpreter; merge the run records into one."""
    runs, status = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode:
                print(f"bench: {workload} --trace {trace} exited "
                      f"{done.returncode}", file=sys.stderr)
                status = 1
            path = RESULTS / f"{workload}-trace{trace}-seed{args.seed}.json"
            if done.returncode in (0, 1) and path.exists():
                with open(path) as fh:
                    runs.append(json.load(fh))
    record = {"schema": RECORD_SCHEMA, "seed": args.seed, "quick": args.quick,
              "runs": runs}
    out = Path(args.out) if args.out else (
        RESULTS / f"record-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(f"bench: record written to {out}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload only, in this interpreter")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the service schedule and probe vectors")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed loop of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="small meshes, 2 reps: same code paths and names")
    parser.add_argument("--pin-iterations", type=int, default=None,
                        help="override a solve workload's pinned iteration count")
    parser.add_argument("--out", help="combined record path (all workloads)")
    args = parser.parse_args(argv)
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    # Guarded: worker processes of the process backend re-import this file.
    sys.exit(main())
