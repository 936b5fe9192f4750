"""Per-rank operation counters.

These counters are the simulation's ground truth: every kernel reports the
flops it performed and every collective reports the messages it moved, per
rank.  The machine models consume them; the Table 1 complexity tests assert
against them.

Thread-safety contract (a communicator is driven by one solve at a
time, but the service's executor threads may read its counters while a
solve charges them):

* **Per-rank updates are disjoint** — rank ``r``'s body only ever touches
  ``stats.ranks[r]``, a plain ``+=`` on a single :class:`RankStats`.
* **Cross-rank updates** (reductions charge *every* rank, snapshots read
  all ranks at once) go through :meth:`CommStats.charge_all_ranks`, which
  holds the stats lock so a concurrent hammer of chargers and readers
  still yields exact totals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class RankStats:
    """Operation counts of a single rank.

    Attributes
    ----------
    flops:
        Floating-point operations executed.
    nbr_messages:
        Point-to-point messages *sent* to neighbouring ranks.
    nbr_words:
        Total 8-byte words sent in those messages.
    reductions:
        Global reduction operations participated in.
    reduction_words:
        Words contributed per rank across all reductions.
    """

    flops: int = 0
    nbr_messages: int = 0
    nbr_words: int = 0
    reductions: int = 0
    reduction_words: int = 0

    def merge(self, other: "RankStats") -> None:
        """Accumulate another counter set into this one."""
        self.flops += other.flops
        self.nbr_messages += other.nbr_messages
        self.nbr_words += other.nbr_words
        self.reductions += other.reductions
        self.reduction_words += other.reduction_words


@dataclass
class CommStats:
    """Counters for all ranks of a communicator.

    A single :class:`threading.Lock` guards every operation that spans
    ranks; per-rank increments are lock-free by the disjointness contract
    documented in the module docstring.
    """

    n_ranks: int
    ranks: list = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.ranks:
            self.ranks = [RankStats() for _ in range(self.n_ranks)]
        if len(self.ranks) != self.n_ranks:
            raise ValueError("one RankStats per rank required")

    def charge_all_ranks(
        self,
        flops: int = 0,
        nbr_messages: int = 0,
        nbr_words: int = 0,
        reductions: int = 0,
        reduction_words: int = 0,
    ) -> None:
        """Atomically add the same increments to *every* rank.

        This is the collective-side charging path (allreduces hit all
        ranks symmetrically); holding the lock makes it safe to
        call concurrently with itself and with :meth:`snapshot`.
        """
        with self._lock:
            for r in self.ranks:
                r.flops += int(flops)
                r.nbr_messages += int(nbr_messages)
                r.nbr_words += int(nbr_words)
                r.reductions += int(reductions)
                r.reduction_words += int(reduction_words)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self.ranks = [RankStats() for _ in range(self.n_ranks)]

    def snapshot(self) -> "CommStats":
        """Deep copy of the current counters (atomic across ranks)."""
        copy = CommStats(self.n_ranks)
        with self._lock:
            for dst, src in zip(copy.ranks, self.ranks):
                dst.merge(src)
        return copy

    def delta(self, earlier: "CommStats") -> "CommStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        out = CommStats(self.n_ranks)
        for o, now, then in zip(out.ranks, self.ranks, earlier.ranks):
            o.flops = now.flops - then.flops
            o.nbr_messages = now.nbr_messages - then.nbr_messages
            o.nbr_words = now.nbr_words - then.nbr_words
            o.reductions = now.reductions - then.reductions
            o.reduction_words = now.reduction_words - then.reduction_words
        return out

    def to_dict(self) -> dict:
        """JSON-serializable totals plus per-rank counters (atomic)."""
        with self._lock:
            per_rank = [
                {
                    "flops": int(r.flops),
                    "nbr_messages": int(r.nbr_messages),
                    "nbr_words": int(r.nbr_words),
                    "reductions": int(r.reductions),
                    "reduction_words": int(r.reduction_words),
                }
                for r in self.ranks
            ]
        return {
            "n_ranks": self.n_ranks,
            "total_flops": sum(r["flops"] for r in per_rank),
            "max_flops": max((r["flops"] for r in per_rank), default=0),
            "total_nbr_messages": sum(r["nbr_messages"] for r in per_rank),
            "total_nbr_words": sum(r["nbr_words"] for r in per_rank),
            "max_reductions": max(
                (r["reductions"] for r in per_rank), default=0
            ),
            "per_rank": per_rank,
        }

    @property
    def total_flops(self) -> int:
        """Flops summed over ranks — the sequential work equivalent."""
        return sum(r.flops for r in self.ranks)

    @property
    def max_flops(self) -> int:
        """Flops of the busiest rank — the parallel critical path."""
        return max(r.flops for r in self.ranks)

    @property
    def total_nbr_messages(self) -> int:
        """Neighbour messages summed over ranks."""
        return sum(r.nbr_messages for r in self.ranks)

    @property
    def total_nbr_words(self) -> int:
        """Neighbour words summed over ranks."""
        return sum(r.nbr_words for r in self.ranks)

    @property
    def max_reductions(self) -> int:
        """Reductions seen by any rank (collectives hit all ranks equally)."""
        return max(r.reductions for r in self.ranks)
