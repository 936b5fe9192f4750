"""Compare two records, or two sets of records, of the benchmark.

    python3 bench/compare.py --base A.json [A2.json ...] --change B.json [...]

Each file is a combined record written by ``bench/run.py`` (all
workloads) or a single run record from ``bench/results/``.  For every
workload x end-to-end metric the medians of the two sides are compared
under the metric's bound from ``BENCHMARK.json``:

* ``worse``      — the change's median is worse than the base's by more
  than the bound;
* ``better``     — better by more than the bound;
* ``no worse``   — within the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side is wider than the bound, unless every run of
  the change reads better than every run of the base.

Every ratio is printed next to its base.  ``failed_frac`` has an
absolute bound of 0, and the count metrics (iterations, messages, words,
reductions, exchanges per step) must be identical.  Exits 1 when any row
is ``worse``, any run failed a check, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that are exact counts and must not move at all.
COUNT_METRICS = (
    "solvers.iterations", "parallel.nbr_messages", "parallel.nbr_words",
    "parallel.reductions", "parallel.exchanges_per_step",
)


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract bounds (>= 2 samples)."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def load_runs(paths) -> list:
    """Flatten record files into run records."""
    runs = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def _values(runs: list, trace: int) -> dict:
    """``(workload, metric) -> [value, ...]`` over the runs of one mode."""
    out: dict = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def verdict(base: list, change: list, better: str, bound: float):
    """``(verdict, worse_by, spread)``: ``worse_by`` is the share of the
    base median by which the change's median is worse (negative =
    better); ``spread`` is None with fewer than two runs a side."""
    b, c = median(base), median(change)
    worse_by = (c - b) / abs(b) if better == "lower" else (b - c) / abs(b)
    spread = None
    if len(base) >= 2 and len(change) >= 2:
        spread = max(iqr_share(base), iqr_share(change))
    if spread is not None and spread > bound:
        all_better = (
            max(change) < min(base) if better == "lower"
            else min(change) > max(base)
        )
        return ("better" if all_better else "unresolved"), worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if worse_by < -bound:
        return "better", worse_by, spread
    return "no worse", worse_by, spread


def compare(base_runs: list, change_runs: list, spec: dict) -> int:
    """Print the comparison table; returns the exit status."""
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    base, change = _values(base_runs, 0), _values(change_runs, 0)
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'change':>12s} "
          f"{'ratio':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in base or key not in change:
                print(f"{workload:18s} {m['name']:20s} missing on one side")
                status = 1
                continue
            word, _, spread = verdict(
                base[key], change[key], m["better"], m["bound"]
            )
            b, c = median(base[key]), median(change[key])
            shown = "-" if spread is None else f"{spread:.1%}"
            print(f"{workload:18s} {m['name']:20s} {b:12.5g} {c:12.5g} "
                  f"{c / b:7.3f}x {shown:>8s} {m['bound']:6.0%}  {word}"
                  f"  (base {b:.5g} {m['unit']}, n={len(base[key])}/"
                  f"{len(change[key])})")
            if word == "worse":
                status = 1
    for side, runs in (("base", base_runs), ("change", change_runs)):
        for workload in workloads:
            mine = [r for r in runs if r["workload"] == workload]
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            word = "ok" if failed == 0 else "worse"
            print(f"{workload:18s} {'failed_frac':20s} {side}: {failed} of "
                  f"{attempted} over {len(mine)} runs  {word}")
            if failed:
                status = 1
    base, change = _values(base_runs, 1), _values(change_runs, 1)
    for workload in workloads:
        for name in COUNT_METRICS:
            seen = set(base.get((workload, name), [])) | set(
                change.get((workload, name), [])
            )
            if not seen:
                continue
            word = "identical" if len(seen) == 1 else "DIFFERS"
            print(f"{workload:18s} {name:32s} {sorted(seen)}  {word}")
            if len(seen) != 1:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load_runs(args.base), load_runs(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
