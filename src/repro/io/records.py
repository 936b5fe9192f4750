"""Serializable records of solver runs.

The benchmark harness and the CLI's ``--json`` mode persist runs as plain
JSON so sweeps can be compared across sessions without re-running.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.outcome import SCHEMA_VERSION
from repro.parallel.machine import MACHINES, modeled_time

if TYPE_CHECKING:
    from repro.core.session import SolveSummary


@dataclass(frozen=True)
class RunRecord:
    """One solver run, flattened to JSON-friendly scalars.

    Attributes
    ----------
    label:
        Free-form identifier (e.g. ``"mesh3/gls(7)/p8"``).
    method, precond:
        Solver configuration.
    n_parts, n_eqn:
        Rank count and system size.
    iterations, converged, final_residual:
        Convergence outcome.
    total_flops, max_flops, nbr_messages, nbr_words, reductions:
        Recorded counters.
    modeled_times:
        Mapping of machine key -> modeled seconds.
    true_residual:
        The driver's independently recomputed unscaled relative residual
        (NaN for records predating the field).
    diagnostics:
        Solver anomaly events as plain dicts (``iteration``/``kind``/
        ``detail``); empty for a clean run.
    trace:
        The run's ``repro-trace/1`` observability export
        (:meth:`repro.obs.Tracer.to_dict`) when it was traced; None
        otherwise.  Stripped from the saved JSON when None, so untraced
        record files are unchanged.
    schema_version:
        :data:`repro.core.outcome.SCHEMA_VERSION` of the producing code —
        the single version stamp shared with summary ``to_dict()``
        payloads and the service's request/response messages.  Records
        predating the field load with the current version.
    """

    label: str
    method: str
    precond: str
    n_parts: int
    n_eqn: int
    iterations: int
    converged: bool
    final_residual: float
    total_flops: int
    max_flops: int
    nbr_messages: int
    nbr_words: int
    reductions: int
    modeled_times: dict
    comm_backend: str = "virtual"
    wall_time: float = 0.0
    setup_time: float = 0.0
    true_residual: float = float("nan")
    diagnostics: tuple = ()
    trace: dict | None = None
    schema_version: int = SCHEMA_VERSION


def record_from_summary(
    summary: SolveSummary, label: str, n_eqn: int, column: int = 0
) -> RunRecord:
    """Flatten column ``column`` of a :class:`SolveSummary` into a
    :class:`RunRecord`.

    The record carries that column's convergence outcome and true
    residual; the communication counters and wall/setup times are the
    solve's shared totals (a batched solve repeats them on every column's
    record — the point of the batched path is that they do not scale with
    ``k``).  The solve's trace, when present, rides on column 0 only.
    Consumes :meth:`SolveSummary.to_dict` so the CLI's ``--json`` output
    and the benchmark emitters share one serialization path.
    """
    payload = summary.to_dict()
    result, stats = payload["results"][column], payload["stats"]
    return RunRecord(
        label=label,
        method=payload["method"],
        precond=payload["precond"],
        n_parts=payload["n_parts"],
        n_eqn=int(n_eqn),
        iterations=result["iterations"],
        converged=result["converged"],
        final_residual=result["final_residual"],
        total_flops=stats["total_flops"],
        max_flops=stats["max_flops"],
        nbr_messages=stats["total_nbr_messages"],
        nbr_words=stats["total_nbr_words"],
        reductions=stats["max_reductions"],
        modeled_times={
            key: modeled_time(summary.stats, machine)
            for key, machine in MACHINES.items()
        },
        comm_backend=payload["comm_backend"],
        wall_time=payload["wall_time"],
        setup_time=payload["setup_time"],
        true_residual=payload["true_residuals"][column],
        diagnostics=tuple(result.get("diagnostics", ())),
        trace=payload.get("trace") if column == 0 else None,
    )


def save_records(records, path) -> None:
    """Write records to a JSON file (``trace: None`` is stripped so
    untraced record files keep their historical schema)."""
    payload = [asdict(r) for r in records]
    for item in payload:
        item["diagnostics"] = list(item["diagnostics"])
        if item.get("trace") is None:
            item.pop("trace", None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_records(path) -> list:
    """Read records back from :func:`save_records` output."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for item in payload:
        item["diagnostics"] = tuple(item.get("diagnostics", ()))
    return [RunRecord(**item) for item in payload]
