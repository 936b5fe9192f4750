"""Smoke test of the bench harness; run explicitly (not tier-1):

    python -m pytest bench/tests -q

Drives ``bench/run.py --quick`` (small meshes, 2 reps, the same code
paths and metric names as the full run) and checks the contract between
``BENCHMARK.json`` and what the harness prints.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.compare import verdict  # noqa: E402
from bench.trace_budget import budget, self_times  # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SOLVE_WORKLOADS = ("poly-edd-virtual", "ilu-rdd-virtual", "poly-edd-process")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``--quick`` run of all four workloads, both modes."""
    out = tmp_path_factory.mktemp("bench") / "record.json"
    done = subprocess.run(
        RUN + ["--quick", "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    with open(out) as fh:
        record = json.load(fh)
    return done, record


def test_benchmark_json_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_prints_every_metric_with_its_unit(spec, quick_run):
    done, record = quick_run
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and not line.startswith(("{", "bench:")):
            printed[(parts[0], parts[1])] = parts[3]
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert printed.get((workload, m["name"])) == m["unit"], (workload, m)
        assert printed.get((workload, "failed_frac")) == "fraction"

    runs = record["runs"]
    assert len(runs) == 2 * len(spec["workloads"])
    for run in runs:
        layer = "per_layer" if run["trace"] else "end_to_end"
        assert set(run["metrics"]) == {m["name"] for m in spec[layer]}
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert run["spans"] and run["env"]["seed"] == 3
        assert run["env"]["repro_env_removed"] == []


def test_budget_closes_and_enhanced_edd_exchanges_once(quick_run):
    _, record = quick_run
    traced = {r["workload"]: r["metrics"] for r in record["runs"] if r["trace"]}
    for workload in SOLVE_WORKLOADS:
        assert traced[workload]["obs.budget_closure"]["value"] >= 0.97
    for workload in ("poly-edd-virtual", "poly-edd-process"):
        assert traced[workload]["parallel.exchanges_per_step"]["value"] == 1
    assert traced["poly-edd-process"]["parallel.rank_op_count"]["value"] > 0
    assert traced["service-mixed"]["core.session_misses"]["value"] >= 3


def test_wrong_pinned_iteration_count_fails_the_run():
    done = subprocess.run(
        RUN + ["--workload", "ilu-rdd-virtual", "--quick", "--seed", "3",
               "--seconds", "0", "--trace", "0", "--pin-iterations", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "pinned 1" in done.stdout


def test_self_time_subtracts_the_interval_children_cover():
    def span(name, ts, dur, parent):
        return {"name": name, "cat": "solver", "ts": ts, "dur": dur,
                "parent": parent, "depth": 0, "args": {}}

    trace = {
        "schema": "repro-trace/1", "meta": {}, "metrics": [],
        "rank_seconds": [], "worker_seconds": [0.5],
        "spans": [span("solve", 0.0, 1.0, -1), span("step", 0.1, 0.3, 0),
                  span("step", 0.5, 0.4, 0), span("matvec", 0.15, 0.1, 1)],
    }
    assert self_times(trace) == pytest.approx([0.3, 0.2, 0.4, 0.1])
    rollup = budget(trace)
    assert rollup["self_s"] == pytest.approx(rollup["roots_s"]) == pytest.approx(1.0)
    assert rollup["by_name"]["step"]["count"] == 2
    assert rollup["worker_s"] == 0.5


def test_compare_verdicts():
    tight = [1.00, 1.01, 0.99, 1.00]
    assert verdict(tight, [1.02, 1.03, 1.01, 1.02], "lower", 0.10)[0] == "no worse"
    assert verdict(tight, [1.30, 1.31, 1.29, 1.30], "lower", 0.10)[0] == "worse"
    assert verdict(tight, [0.70, 0.71, 0.69, 0.70], "lower", 0.10)[0] == "better"
    assert verdict(tight, [1.30, 1.31, 1.29, 1.30], "higher", 0.10)[0] == "better"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert verdict(noisy, [0.9, 1.1, 1.3, 1.5], "lower", 0.10)[0] == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.7, 0.75], "lower", 0.10)[0] == "better"
    assert verdict([1.0], [1.2], "lower", 0.10) == ("worse", pytest.approx(0.2), None)
