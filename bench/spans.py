"""The bench's own spans.

The harness wraps each call it makes into the program — problem build,
``build``, each ``solve``, each probe loop, each service request — in a
span (name, start, end, parent, workload id).  Spans live in memory and
are written once, with the run record.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span list for one workload run.

    :meth:`span` nests by call order (synchronous code); :meth:`add`
    records a finished interval under an explicit parent, which is what
    interleaved asyncio clients need.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._stack: list = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Seconds since this recorder was created."""
        return time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float, parent: int = -1,
            **args) -> int:
        """Record a finished span; returns its index."""
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "workload": self.workload, "args": args,
        })
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **args):
        """Time the enclosed block; yields the span dict (``end`` and
        ``seconds`` are filled in on exit)."""
        parent = self._stack[-1] if self._stack else -1
        idx = self.add(name, self.now(), None, parent, **args)
        rec = self.spans[idx]
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = self.now()
            rec["seconds"] = rec["end"] - rec["start"]
