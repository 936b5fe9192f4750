"""Span-based tracing and per-iteration metrics for solver runs.

The observability layer has exactly two implementations of one tiny
protocol:

``NullTracer``
    The default.  Every method is a no-op and ``enabled`` is a class
    attribute equal to ``False``, so instrumented hot loops hoist a
    single ``traced = tracer.enabled`` bool per solve and pay one local
    branch per site — nothing is allocated and the overhead is bench-
    asserted below 2% (``benchmarks/test_trace_overhead_bench.py``).

``Tracer``
    Records **nested spans** (begin/end pairs with wall-clock
    timestamps), a **metrics stream** (one dict per appended sample,
    e.g. per-iteration relative residuals and CommStats deltas), and
    **per-rank wall time** accumulated by the comm backends' rank
    bodies.  Export formats:

    - ``to_dict()`` — the canonical ``repro-trace/1`` JSON schema
      (see docs/OBSERVABILITY.md),
    - ``to_chrome_trace()`` — Chrome trace event format, loadable in
      Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Span vocabulary (``cat`` / ``name``) — the names the invariant checker
and the CLI summarizer rely on:

========== ================== ==========================================
cat        name               emitted by
========== ================== ==========================================
phase      setup              PreparedSystem.build
phase      partition          element/node partitioning
phase      assemble           subdomain assembly + distributed scaling
phase      precond_build      make_preconditioner
phase      solve              the whole Krylov solve
phase      verify             driver ground-truth verification
solver     cycle              one restart cycle
solver     arnoldi_step       one Arnoldi step (inner iteration j)
solver     matvec             local mat-vec inside a step
solver     precond_apply      preconditioner application (z = M^-1 v)
solver     coarse_solve       two-level coarse correction (restrict +
                              redundant dense solve + prolong); nests the
                              coarse allreduce
solver     orthogonalize      CGS/MGS orthogonalization (+ its exchanges)
solver     givens_update      least-squares/Givens column update
exchange   interface_assemble nearest-neighbour interface assembly
exchange   halo_exchange      RDD halo exchange
reduction  allreduce_sum      tree allreduce (never counts for claim 3)
comm       rank_op            one resident rank-op dispatch to the
                              process pool (args carry the op name)
========== ================== ==========================================

Spans are stored in *begin* order as plain dicts with a ``parent``
index (-1 for roots), so parent links are valid even though a parent
ends after its children.
"""

from __future__ import annotations

import json
import time

__all__ = [
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "chrome_trace_from_dict",
    "timed_rank_body",
]

TRACE_SCHEMA = "repro-trace/1"


class NullTracer:
    """Do-nothing tracer: the zero-cost-when-off fast path.

    ``enabled`` is a **class** attribute so the per-call guard in the
    comm layer (``if self.tracer.enabled``) is a plain attribute load.
    """

    enabled = False

    def begin(self, name, cat="span", **args):
        """Discard the span; -1 is never a valid parent index."""
        return -1

    def end(self, **args):
        """No-op."""

    def metric(self, **fields):
        """No-op."""

    def ensure_ranks(self, n):
        """No-op."""

    def add_rank_time(self, rank, seconds):
        """No-op."""

    def add_worker_time(self, worker, seconds):
        """No-op."""


#: Shared singleton — comm objects and solvers default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: nested spans + metrics stream + rank timings.

    Not thread-safe for concurrent ``begin``/``end`` (spans are emitted
    from the orchestrator thread only); ``add_rank_time`` writes are
    per-rank-disjoint.
    """

    enabled = True

    def __init__(self, meta=None):
        self._t0 = time.perf_counter()
        self._stack = []
        self.spans = []
        self.metrics = []
        self.rank_seconds = []
        self.worker_seconds = []
        self.meta = dict(meta or {})

    # -- spans ---------------------------------------------------------
    def begin(self, name, cat="span", **args):
        """Open a span; returns its index (its id in ``parent`` links)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({
            "name": name,
            "cat": cat,
            "ts": time.perf_counter() - self._t0,
            "dur": 0.0,
            "parent": parent,
            "depth": len(self._stack),
            "args": dict(args) if args else {},
        })
        self._stack.append(idx)
        return idx

    def end(self, **args):
        """Close the innermost open span, merging ``args`` into it."""
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        idx = self._stack.pop()
        span = self.spans[idx]
        span["dur"] = (time.perf_counter() - self._t0) - span["ts"]
        if args:
            span["args"].update(args)
        return idx

    def span(self, name, cat="span", **args):
        """Context-manager convenience: ``with trc.span("setup"): ...``."""
        return _SpanCtx(self, name, cat, args)

    # -- metrics -------------------------------------------------------
    def metric(self, **fields):
        """Append one sample to the metrics stream."""
        self.metrics.append(fields)

    # -- per-rank timing ----------------------------------------------
    def ensure_ranks(self, n):
        """Grow the per-rank accumulator to at least ``n`` entries."""
        if len(self.rank_seconds) < n:
            self.rank_seconds.extend(
                0.0 for _ in range(n - len(self.rank_seconds))
            )

    def add_rank_time(self, rank, seconds):
        """Accumulate wall seconds spent executing ``rank``'s body."""
        self.ensure_ranks(rank + 1)
        self.rank_seconds[rank] += seconds

    def add_worker_time(self, worker, seconds):
        """Accumulate busy seconds of a pool worker *process* (resident
        rank ops only; inline rank bodies never touch this)."""
        if len(self.worker_seconds) < worker + 1:
            self.worker_seconds.extend(
                0.0 for _ in range(worker + 1 - len(self.worker_seconds))
            )
        self.worker_seconds[worker] += seconds

    # -- export --------------------------------------------------------
    def to_dict(self):
        """The canonical ``repro-trace/1`` document."""
        return {
            "schema": TRACE_SCHEMA,
            "meta": dict(self.meta),
            "spans": [dict(s, args=dict(s["args"])) for s in self.spans],
            "metrics": [dict(m) for m in self.metrics],
            "rank_seconds": list(self.rank_seconds),
            "worker_seconds": list(self.worker_seconds),
        }

    def to_chrome_trace(self):
        """Chrome trace event dict — load in Perfetto/chrome://tracing."""
        return chrome_trace_from_dict(self.to_dict())

    def write_json(self, path, chrome=False):
        """Dump the trace to ``path``; ``chrome=True`` selects the
        Chrome trace event format instead of ``repro-trace/1``."""
        doc = self.to_chrome_trace() if chrome else self.to_dict()
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return path


class _SpanCtx:
    __slots__ = ("_trc", "_name", "_cat", "_args")

    def __init__(self, trc, name, cat, args):
        self._trc = trc
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._trc.begin(self._name, self._cat, **self._args)
        return self._trc

    def __exit__(self, exc_type, exc, tb):
        self._trc.end()
        return False


def chrome_trace_from_dict(trace):
    """Convert a ``repro-trace/1`` dict to Chrome trace event format.

    Spans become complete events (``ph: "X"``, microsecond timestamps)
    on the orchestrator track; metrics samples with an ``iteration``
    field become counter events; per-rank totals become one complete
    event per rank track so Perfetto shows the rank occupancy at a
    glance.
    """
    if trace.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a {TRACE_SCHEMA} document: {trace.get('schema')!r}"
        )
    events = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "repro orchestrator"},
    }]
    for span in trace["spans"]:
        events.append({
            "name": span["name"],
            "cat": span["cat"],
            "ph": "X",
            "ts": span["ts"] * 1e6,
            "dur": span["dur"] * 1e6,
            "pid": 0,
            "tid": 0,
            "args": dict(span["args"]),
        })
    for sample in trace["metrics"]:
        if "rel_res" in sample and "iteration" in sample:
            events.append({
                "name": "rel_res",
                "ph": "C",
                "ts": float(sample["iteration"]) * 1e3,
                "pid": 1,
                "tid": 0,
                "args": {"rel_res": sample["rel_res"]},
            })
    for rank, seconds in enumerate(trace["rank_seconds"]):
        events.append({
            "name": f"rank{rank} busy",
            "cat": "rank",
            "ph": "X",
            "ts": 0.0,
            "dur": seconds * 1e6,
            "pid": 2,
            "tid": rank,
            "args": {"rank": rank, "seconds": seconds},
        })
    for worker, seconds in enumerate(trace.get("worker_seconds", [])):
        events.append({
            "name": f"worker{worker} busy",
            "cat": "worker",
            "ph": "X",
            "ts": 0.0,
            "dur": seconds * 1e6,
            "pid": 3,
            "tid": worker,
            "args": {"worker": worker, "seconds": seconds},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def timed_rank_body(tracer, body):
    """Wrap a per-rank closure so its wall time lands in ``tracer``.

    Per-rank writes are disjoint (rank r only touches slot r).
    """
    def timed(rank):
        start = time.perf_counter()
        try:
            return body(rank)
        finally:
            tracer.add_rank_time(rank, time.perf_counter() - start)

    return timed
