"""The unified solve-outcome contract shared by every result type.

Two kinds of objects describe a finished solve:

* :class:`repro.core.session.SolveSummary` — ``k >= 1`` right-hand sides
  through the one-shot driver, a prepared system or a session (one
  column from ``solve``, ``k`` through the batched block path from
  ``solve_batch``);
* :class:`repro.service.SolveResponse` — one request's share of a
  (possibly coalesced) service solve.

:class:`SolveOutcome` pins their common surface so callers never branch
on the concrete type: a ``result`` payload, the communication ``stats``
of the solve that produced it, an optional observability ``trace``, and
a JSON-ready ``to_dict()`` whose output carries :data:`SCHEMA_VERSION`
under the ``"schema_version"`` key.  ``isinstance`` evaluates the
members through ``hasattr`` on some Python versions, so no member of a
conforming type may raise.

``SCHEMA_VERSION`` is the single version stamp of every serialized solve
artifact — summaries, service request/response messages, ``repro solve
--json`` run records and the golden files.  Bump it when a serialized
field changes meaning or disappears; adding optional fields does not
require a bump.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

#: Version stamp carried by every serialized solve artifact (summary
#: ``to_dict()`` payloads, :class:`repro.io.records.RunRecord`, service
#: messages, goldens).
SCHEMA_VERSION = 1


@runtime_checkable
class SolveOutcome(Protocol):
    """Structural protocol of a finished solve, whatever produced it.

    ``isinstance(obj, SolveOutcome)`` checks attribute presence at
    runtime (it is :func:`typing.runtime_checkable`), so conforming types
    only need the members below — no registration or inheritance.
    """

    @property
    def result(self):
        """The solution payload: a :class:`repro.solvers.result.SolveResult`
        (one-column summary), a list of them (``k > 1`` columns), or the
        serialized result dict (service response)."""
        ...

    @property
    def stats(self):
        """Communication counters of the producing solve — a
        :class:`repro.parallel.stats.CommStats` (summaries) or its
        ``to_dict()`` payload (service responses).  Batched producers
        share one set of counters across columns by design."""
        ...

    @property
    def trace(self):
        """The ``repro-trace/1`` observability export when the solve was
        traced; None otherwise."""
        ...

    def to_dict(self) -> dict:
        """JSON-serializable payload; always carries
        ``"schema_version": SCHEMA_VERSION``."""
        ...
