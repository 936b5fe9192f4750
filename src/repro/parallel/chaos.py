"""Deterministic chaos-injection communicator backend.

:class:`ChaosComm` is a :class:`~repro.parallel.comm.VirtualComm` that
injects message-level faults into the three collectives — the interface
assembly ``⊕Σ∂Ω``, the halo exchange, and the tree allreduce — under the
control of a seeded, declarative :class:`FaultPlan`.  It exists to prove
the ROADMAP's "no silently wrong answer" property: a solve whose
exchanges misbehave must either still converge with a verified true
residual or report a structured diagnostic naming the anomaly
(:mod:`repro.solvers.diagnostics`).

Design rules:

* **Deterministic.**  Injection happens orchestrator-side, on the
  output of the inherited collective, so results are bit-identical for a
  given plan.  All randomness (which word to corrupt, which neighbour to
  drop) comes from ``np.random.default_rng`` seeded by ``(plan.seed, rule
  index, call index)``.
* **Round-trippable.**  ``FaultPlan.to_json()`` / ``from_json()`` are
  exact inverses; any chaos failure reproduces from its printed plan
  string (see docs/TESTING.md).
* **Transparent when idle.**  With an empty plan, every collective
  returns exactly what ``VirtualComm`` would — the parity tests pin
  this bit-for-bit.

Fault kinds (:data:`FAULT_KINDS`):

``sign_flip``, ``nan``, ``inf``, ``zero_word``
    Value corruption of one word of the collective's output on the target
    rank (for the allreduce: of the globally-reduced value, as a
    corrupted broadcast every rank observes).
``drop_contribution``
    A lost message: the target rank never receives one neighbour's
    contribution (assembly) / payload (halo; slots stay zero), or one
    rank's value is missing from the allreduce.
``duplicate_payload``
    A duplicated delivery: a neighbour's contribution is added twice
    (assembly), a *stale* previous-call payload overwrites the current
    one (halo), or one rank's value is double-counted (allreduce).
``reorder_payload``
    Out-of-order delivery: one neighbour's received words land permuted
    (halo / assembly); for the allreduce the reduction runs in reversed
    rank order (a pure rounding-level perturbation).
``stall``
    A rank stalls: the collective blocks for ``param`` seconds (default
    2 ms) before completing.  Numerics are untouched — the solver must
    simply survive the latency.

Backend registration: ``"chaos"`` in :func:`repro.parallel.comm.make_comm`.
The active plan is taken from :func:`set_fault_plan` /
:func:`use_fault_plan`, falling back to the ``REPRO_CHAOS_PLAN``
environment variable (a JSON plan string, or a path to a ``.json`` file).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.comm import VirtualComm
from repro.partition.interface import SubdomainMap

#: Collectives a rule may target (``"*"`` matches every collective).
COLLECTIVES = ("interface_assemble", "halo_exchange", "allreduce_sum", "*")

#: The injectable fault kinds (documented in the module docstring).
FAULT_KINDS = (
    "sign_flip",
    "nan",
    "inf",
    "zero_word",
    "drop_contribution",
    "duplicate_payload",
    "reorder_payload",
    "stall",
)


@dataclass(frozen=True)
class FaultRule:
    """One declarative injection rule.

    Attributes
    ----------
    collective:
        Target collective name, or ``"*"`` for any.
    kind:
        One of :data:`FAULT_KINDS`.
    rank:
        Target rank; None picks a seeded-random rank per injection.
    call_index:
        Inject only on this per-collective call number (0-based, counted
        from communicator construction — setup calls count); None matches
        every call.
    count:
        Maximum number of injections this rule performs over the
        communicator's lifetime; None is unlimited.  Defaults to 1 (a
        transient fault — note that a fault applied *consistently to
        every call* makes the solver iterate a coherently wrong operator,
        which no internal check can distinguish from a different
        problem; see docs/TESTING.md).
    param:
        Kind-specific knob: stall seconds for ``stall`` (default 0.002),
        unused otherwise.
    """

    collective: str
    kind: str
    rank: int | None = None
    call_index: int | None = None
    count: int | None = 1
    param: float | None = None

    def __post_init__(self) -> None:
        if self.collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {self.collective!r}; "
                f"choose from {COLLECTIVES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for unlimited)")
        if self.call_index is not None and self.call_index < 0:
            raise ValueError("call_index must be >= 0")

    def to_dict(self) -> dict:
        """JSON-serializable form; :meth:`from_dict` is the exact inverse."""
        return {
            "collective": self.collective,
            "kind": self.kind,
            "rank": self.rank,
            "call_index": self.call_index,
            "count": self.count,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        """Rebuild (and re-validate) a rule from :meth:`to_dict` output."""
        return cls(**{k: payload.get(k) for k in (
            "collective", "kind", "rank", "call_index", "count", "param"
        )})


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule` — the full, reproducible
    description of one chaos scenario.

    ``seed`` drives every random choice an injection makes; two runs of
    the same plan against the same solve produce identical injections and
    identical numbers.
    """

    rules: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for r in self.rules:
            if not isinstance(r, FaultRule):
                raise TypeError("rules must be FaultRule instances")

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan (a pure passthrough proxy)."""
        return cls()

    def to_dict(self) -> dict:
        """JSON-serializable form; :meth:`from_dict` is the exact inverse."""
        return {"seed": int(self.seed), "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in payload.get("rules", ())),
            seed=int(payload.get("seed", 0)),
        )

    def to_json(self) -> str:
        """Compact JSON string; ``from_json`` is the exact inverse."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its :meth:`to_json` string."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Active-plan registry (consulted by make_comm for backend "chaos")
# ----------------------------------------------------------------------
_active: list = [None]  # FaultPlan or None


def set_fault_plan(plan: FaultPlan | None):
    """Select the plan new ``"chaos"`` communicators run; returns the
    previous one.  ``None`` reverts to the environment."""
    prev = _active[0]
    _active[0] = plan
    return prev


@contextmanager
def use_fault_plan(plan: FaultPlan):
    """Context manager: build ``"chaos"`` communicators from ``plan``
    inside the block."""
    prev = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(prev)


def get_fault_plan() -> FaultPlan:
    """The plan a new chaos communicator will use: the
    :func:`set_fault_plan` value, else ``REPRO_CHAOS_PLAN`` from the
    environment, else an empty plan."""
    if _active[0] is not None:
        return _active[0]
    raw = os.environ.get("REPRO_CHAOS_PLAN")
    if not raw:
        return FaultPlan.empty()
    if raw.endswith(".json") and os.path.exists(raw):
        with open(raw, encoding="utf-8") as fh:
            raw = fh.read()
    return FaultPlan.from_json(raw)


class ChaosComm(VirtualComm):
    """Fault-injecting communicator (``"chaos"``).

    Collectives run the shared base-class implementations (so counters
    and tracing behave exactly like any other backend) and rank bodies
    run inline as on :class:`VirtualComm`; the fault plan is then applied
    to the collective's *output*, deterministically.

    Attributes
    ----------
    plan:
        The :class:`FaultPlan` driving injection.
    injected:
        One dict per performed injection — ``{collective, call_index,
        rank, kind, detail}`` — the ground truth chaos tests assert
        against.
    """

    backend_name = "chaos"

    def __init__(
        self,
        submap: SubdomainMap,
        trace: bool = False,
        plan: FaultPlan | None = None,
    ):
        super().__init__(submap, trace=trace)
        if plan is None:
            plan = FaultPlan.empty()
        self.plan = plan
        self.injected: list = []
        self._calls = {c: 0 for c in COLLECTIVES if c != "*"}
        self._fired = [0] * len(plan.rules)
        self._g2l: dict = {}  # rank -> global->local index map (lazy)
        self._halo_last: dict = {}  # (s, t) -> previous payload

    # ------------------------------------------------------------------
    # Injection machinery
    # ------------------------------------------------------------------
    def _matches(self, collective: str, call_idx: int) -> list:
        """(rule_index, rule) pairs firing on this call, honoring counts."""
        out = []
        for i, rule in enumerate(self.plan.rules):
            if rule.collective not in (collective, "*"):
                continue
            if rule.call_index is not None and rule.call_index != call_idx:
                continue
            if rule.count is not None and self._fired[i] >= rule.count:
                continue
            out.append((i, rule))
        return out

    def _rng(self, rule_idx: int, call_idx: int) -> np.random.Generator:
        """Deterministic per-(rule, call) generator."""
        return np.random.default_rng((int(self.plan.seed), rule_idx, call_idx))

    def _log(self, i, rule, collective, call_idx, rank, detail) -> None:
        self._fired[i] += 1
        self.injected.append(
            {
                "collective": collective,
                "call_index": call_idx,
                "rank": None if rank is None else int(rank),
                "kind": rule.kind,
                "detail": detail,
            }
        )

    def _target_rank(self, rule: FaultRule, rng) -> int:
        if rule.rank is not None:
            return int(rule.rank) % self.size
        return int(rng.integers(self.size))

    def _corrupt_word(self, vec: np.ndarray, kind: str, rng) -> str:
        """Apply a value fault to one seeded-random word of ``vec``."""
        if len(vec) == 0:
            return "empty vector; nothing corrupted"
        i = int(rng.integers(len(vec)))
        if kind == "sign_flip":
            vec[i] = -vec[i]
        elif kind == "nan":
            vec[i] = np.nan
        elif kind == "inf":
            vec[i] = np.inf
        elif kind == "zero_word":
            vec[i] = 0.0
        return f"word {i}"

    def _g2l_for(self, t: int) -> np.ndarray:
        """Global->local DOF map of rank ``t`` (built lazily, cached)."""
        m = self._g2l.get(t)
        if m is None:
            m = np.full(self.submap.n_global, -1, dtype=np.int64)
            m[self.submap.l2g[t]] = np.arange(len(self.submap.l2g[t]))
            self._g2l[t] = m
        return m

    @staticmethod
    def _stall(rule: FaultRule) -> str:
        seconds = 0.002 if rule.param is None else float(rule.param)
        time.sleep(seconds)
        return f"stalled {seconds:.3f}s"

    # ------------------------------------------------------------------
    # Faulted collectives
    # ------------------------------------------------------------------
    def interface_assemble(self, parts: list) -> list:
        """The shared ``⊕Σ∂Ω`` assembly, then plan-driven injection on
        the assembled per-rank outputs (value faults, dropped/duplicated/
        permuted neighbour contributions, stalls).

        A batched exchange *is* this collective, just k words wide: it
        counts against the same call index, so a fault plan hits a k-RHS
        solve at the same call positions it hits a single-RHS solve.
        Value faults corrupt one word of the flattened part;
        drop/duplicate/reorder act on a neighbour's full k-column
        contribution, as a lost/duplicated/permuted message would."""
        name = "interface_assemble"
        call_idx = self._calls[name]
        self._calls[name] += 1
        out = super().interface_assemble(parts)
        for i, rule in self._matches(name, call_idx):
            rng = self._rng(i, call_idx)
            s = self._target_rank(rule, rng)
            kind = rule.kind
            if kind == "stall":
                detail = self._stall(rule)
            elif kind in ("sign_flip", "nan", "inf", "zero_word"):
                detail = self._corrupt_word(out[s].reshape(-1), kind, rng)
            else:
                nbrs = sorted(self.submap.shared[s])
                if not nbrs:
                    detail = f"rank {s} has no neighbours; no-op"
                    self._log(i, rule, name, call_idx, s, detail)
                    continue
                t = int(nbrs[int(rng.integers(len(nbrs)))])
                shared_idx = self.submap.shared[s][t]
                g = self.submap.l2g[s][shared_idx]
                contrib = parts[t][self._g2l_for(t)[g]]
                if kind == "drop_contribution":
                    # Rank s never received t's message: its interface
                    # values miss t's partial sums.
                    out[s][shared_idx] -= contrib
                    detail = f"dropped contribution of rank {t}"
                elif kind == "duplicate_payload":
                    out[s][shared_idx] += contrib
                    detail = f"contribution of rank {t} applied twice"
                else:  # reorder_payload
                    perm = rng.permutation(len(shared_idx))
                    out[s][shared_idx] += contrib[perm] - contrib
                    detail = f"contribution of rank {t} permuted"
            self._log(i, rule, name, call_idx, s, detail)
        return out

    def halo_exchange(self, x_parts: list, plan: dict) -> list:
        """The shared halo scatter/gather, then plan-driven injection on
        the received external buffers (value faults, dropped payloads,
        stale duplicates, permuted slots, stalls); payload faults hit a
        neighbour's full k-column message when the parts are blocks."""
        name = "halo_exchange"
        call_idx = self._calls[name]
        self._calls[name] += 1
        ext = super().halo_exchange(x_parts, plan)
        matches = self._matches(name, call_idx)
        for i, rule in matches:
            rng = self._rng(i, call_idx)
            s = self._target_rank(rule, rng)
            kind = rule.kind
            if kind == "stall":
                detail = self._stall(rule)
            elif kind in ("sign_flip", "nan", "inf", "zero_word"):
                detail = self._corrupt_word(ext[s].reshape(-1), kind, rng)
            else:
                nbrs = sorted(
                    t for t, (_, slots) in plan[s].items() if len(slots)
                )
                if not nbrs:
                    detail = f"rank {s} receives no halo; no-op"
                    self._log(i, rule, name, call_idx, s, detail)
                    continue
                t = int(nbrs[int(rng.integers(len(nbrs)))])
                _, recv_slots = plan[s][t]
                if kind == "drop_contribution":
                    # The message from t never arrived; the external
                    # buffer keeps its zero initialization there.
                    ext[s][recv_slots] = 0.0
                    detail = f"payload from rank {t} dropped"
                elif kind == "duplicate_payload":
                    # A stale duplicate of the *previous* exchange's
                    # payload overwrites the fresh values.
                    stale = self._halo_last.get((s, t))
                    if (
                        stale is not None
                        and stale.shape == ext[s][recv_slots].shape
                    ):
                        ext[s][recv_slots] = stale
                        detail = f"stale duplicate payload from rank {t}"
                    else:
                        detail = (
                            f"no previous payload from rank {t}; no-op"
                        )
                else:  # reorder_payload
                    perm = rng.permutation(len(recv_slots))
                    ext[s][recv_slots] = ext[s][recv_slots][perm]
                    detail = f"payload from rank {t} reordered"
            self._log(i, rule, name, call_idx, s, detail)
        # Remember the true payloads for stale-duplicate injection; only
        # pay this cost when the plan can ever ask for it.
        if any(r.kind == "duplicate_payload" and
               r.collective in (name, "*") for r in self.plan.rules):
            for s in range(self.size):
                for t, (send_idx, _) in plan[s].items():
                    self._halo_last[(t, s)] = x_parts[s][send_idx].copy()
        return ext

    def allreduce_sum(self, values, words: int = 1):
        """The shared tree reduction, then plan-driven injection on the
        reduced value (corrupted broadcast, missing/double-counted rank
        contribution, reversed reduction order, stalls)."""
        name = "allreduce_sum"
        call_idx = self._calls[name]
        self._calls[name] += 1
        matches = self._matches(name, call_idx)
        reorder = [
            (i, r) for i, r in matches if r.kind == "reorder_payload"
        ]
        if reorder:
            # Reduce in reversed rank order — the rounding-level
            # perturbation a non-deterministic MPI allreduce exhibits.
            result = super().allreduce_sum(list(values)[::-1], words=words)
        else:
            result = super().allreduce_sum(values, words=words)
        for i, rule in matches:
            rng = self._rng(i, call_idx)
            kind = rule.kind
            rank: int | None = None
            if kind == "stall":
                detail = self._stall(rule)
            elif kind == "reorder_payload":
                detail = "reduction order reversed"
            elif kind in ("sign_flip", "nan", "inf", "zero_word"):
                if np.ndim(result) == 0:
                    val = float(result)
                    if kind == "sign_flip":
                        result = -val
                    elif kind == "nan":
                        result = float("nan")
                    elif kind == "inf":
                        result = float("inf")
                    else:
                        result = 0.0
                    detail = "reduced scalar corrupted"
                else:
                    result = np.array(result, dtype=np.float64, copy=True)
                    detail = self._corrupt_word(result, kind, rng)
            else:
                rank = self._target_rank(rule, rng)
                if kind == "drop_contribution":
                    result = result - values[rank]
                    detail = f"rank {rank} value missing from reduction"
                else:  # duplicate_payload
                    result = result + values[rank]
                    detail = f"rank {rank} value counted twice"
            self._log(i, rule, name, call_idx, rank, detail)
        return result
