"""Per-layer time budget from ``repro-trace/1`` documents.

A span's **self time** is its duration minus the part of that interval
its child spans cover, so the self times of a span tree add up to the
root's duration and every second of a traced call is attributed to
exactly one span name.  ``budget()`` rolls self times up by span name
and by category; the harness maps those onto the per-layer metrics.
"""

from __future__ import annotations

TRACE_SCHEMA = "repro-trace/1"


def self_times(trace: dict) -> list:
    """Self time of every span of ``trace``, in span order."""
    if trace.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"not a {TRACE_SCHEMA} document: {trace.get('schema')!r}")
    spans = trace["spans"]
    children: dict = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for idx, span in enumerate(spans):
        start, end = span["ts"], span["ts"] + span["dur"]
        covered, cursor = 0.0, start
        # Union of the child intervals clipped to the parent: robust to a
        # child that overlaps a sibling or outlives its parent.
        for child in sorted(children.get(idx, ()), key=lambda s: s["ts"]):
            lo = max(cursor, child["ts"])
            hi = min(end, child["ts"] + child["dur"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span["dur"] - covered)
    return out


def budget(*traces: dict) -> dict:
    """Roll self times of one or more traces up by name and by category.

    Returns ``{"by_name", "by_cat", "roots_s", "self_s", "span_count",
    "worker_s"}``: ``by_name[name]`` / ``by_cat[cat]`` hold ``count``,
    ``total_s`` (inclusive) and ``self_s``; ``roots_s`` is the summed
    duration of the root spans and ``self_s`` the summed self time of all
    spans (equal unless spans are malformed); ``worker_s`` sums the pool
    workers' busy seconds.
    """
    by_name: dict = {}
    by_cat: dict = {}
    roots = total_self = worker = 0.0
    count = 0
    for trace in traces:
        selfs = self_times(trace)
        for span, own in zip(trace["spans"], selfs):
            for table, key in ((by_name, span["name"]), (by_cat, span["cat"])):
                row = table.setdefault(
                    key, {"count": 0, "total_s": 0.0, "self_s": 0.0}
                )
                row["count"] += 1
                row["total_s"] += span["dur"]
                row["self_s"] += own
            if span["parent"] < 0:
                roots += span["dur"]
            total_self += own
        count += len(selfs)
        worker += sum(trace.get("worker_seconds", ()))
    return {
        "by_name": by_name,
        "by_cat": by_cat,
        "roots_s": roots,
        "self_s": total_self,
        "span_count": count,
        "worker_s": worker,
    }


def self_of(rollup: dict, *names: str, table: str = "by_name") -> float:
    """Summed self seconds of the given span names (or categories with
    ``table="by_cat"``); absent names contribute 0."""
    rows = rollup[table]
    return float(sum(rows[n]["self_s"] for n in names if n in rows))


def count_of(rollup: dict, name: str) -> int:
    """Number of spans called ``name``."""
    row = rollup["by_name"].get(name)
    return int(row["count"]) if row else 0


def total_of(rollup: dict, name: str) -> float:
    """Summed inclusive seconds of the spans called ``name``."""
    row = rollup["by_name"].get(name)
    return float(row["total_s"]) if row else 0.0
